"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the ``permutons`` modules.  A wrapper
replaces the function under every name that points at it, in the package
and in each submodule, because callers look names up where they imported
them: ``counting.profile`` is found through its module, while ``analysis``
imported ``cdf_many`` and ``all_densities`` by name.

Each call becomes a span (name, start, end, parent span, job id, counters),
kept in memory until the run ends.  Spans are opened and closed on the main
thread only; the program's own worker threads call none of the wrapped
functions.  Busy time is inclusive and counts a name once when it recurses
(``cdf_many`` on a mixture calls itself); self time is a span's duration
minus its direct children's, which run one after another.

``symmetry.search.peak_alloc_mb`` is how far the process's peak resident
memory (getrusage) rose during a search call.  tracemalloc would count
allocations exactly but slows the search about fourfold, which would
distort every other number of the traced run.
"""

from __future__ import annotations

import importlib
import inspect
import io
import math
import resource
import sys
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "counters")

    def __init__(self, parent, job):
        self.name = ""
        self.start = self.end = 0.0
        self.parent = parent
        self.job = job
        self.counters: dict = {}


def _budget_samples(b) -> int:
    if b.get("budget") is not None:
        return b["budget"].samples
    return importlib.import_module("permutons.analysis").Budget().samples


def _profile(b, out):
    n, k = len(b["tau"]), b["k"]
    if n <= 64:
        return "counting.profile_small", {}
    return f"counting.profile{k}", {"items": n}


def _lemma(b, out):
    if out.exact:
        return "analysis.lemma_integrals.exact", {}
    return "analysis.lemma_integrals.mc", {"samples": _budget_samples(b)}


def _identity(b, out):
    return "analysis.identity_check", ({} if out.exact else {"samples": _budget_samples(b)})


def _search(b, out):
    return "symmetry.search", {"candidates": math.factorial(b["n"]), "hits": len(out)}


def _plain(name, **counters):
    def namer(b, out):
        return name, {c: f(b, out) for c, f in counters.items()}
    return namer


# (module, function, namer(bound arguments, result) -> (span name, counters))
TARGETS = (
    ("counting", "profile", _profile),
    ("discrepancy", "discrepancy", lambda b, out: (f"discrepancy.{b['mode']}", {})),
    ("perms", "all_densities", _plain("perms.all_densities")),
    ("perms", "density_exact", _plain("perms.density_exact")),
    ("measures", "pattern_histogram_mc",
     _plain("measures.pattern_histogram_mc", samples=lambda b, out: b["samples"])),
    ("measures", "density_mc", _plain("measures.density_mc",
                                      samples=lambda b, out: b["samples"])),
    ("measures", "cdf_many", _plain("measures.cdf_many",
                                    points=lambda b, out: len(out))),
    ("measures", "discrepancy_permuton", _plain("measures.discrepancy_permuton")),
    ("measures", "density_exact_grid", _plain("measures.density_exact_grid")),
    ("symmetry", "search_inflatable", _search),
    ("symmetry", "symmetry_defect", _plain("symmetry.symmetry_defect")),
    ("symmetry", "is_inflatable", _plain("symmetry.is_inflatable")),
    ("analysis", "lemma_integrals", _lemma),
    ("analysis", "cs_chain", _plain("analysis.cs_chain")),
    ("analysis", "identity_check", _identity),
    ("analysis", "find_b", _plain("analysis.find_b",
                                  evaluations=lambda b, out: out.evaluations)),
    ("analysis", "find_nu", _plain("analysis.find_nu",
                                   evaluations=lambda b, out: out.evaluations)),
    ("analysis", "t_id3_segment", _plain("analysis.t_id3_segment")),
    ("permuton_io", "parse_permuton", _plain("permuton_io.parse",
                                             bytes=lambda b, out: len(b["text"]))),
    ("cli", "main", _plain("cli.main")),
)

# spans whose samples count towards measures.mc.samples
MC_ENTRIES = ("measures.pattern_histogram_mc", "measures.density_mc",
              "analysis.lemma_integrals.mc", "analysis.identity_check")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "permutons" or name.startswith("permutons.")]
        for mod_name, attr, namer in TARGETS:
            original = getattr(importlib.import_module(f"permutons.{mod_name}"), attr)
            wrapper = self._wrap(original, namer, alloc=attr == "search_inflatable",
                                 stdout=(mod_name, attr) == ("cli", "main"))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, fn, namer, alloc: bool, stdout: bool):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            span = Span(stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            sink = sys.stdout if stdout and isinstance(sys.stdout, io.StringIO) else None
            mark = sink.tell() if sink else 0
            if alloc:
                peak0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if alloc:
                    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    span.counters["peak_alloc_mb"] = (peak - peak0) / 1024
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.name, counters = namer(bound.arguments, out)
            span.counters.update(counters)
            if sink:
                span.counters["output_bytes"] = sink.tell() - mark
            return out

        return wrapper


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls and busy time over the outermost spans of that
    name, self time over all of them, and counters summed (peaks maxed)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    stats: dict[str, dict] = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["self_s"] += (s.end - s.start) - child_time[i]
        if _has_ancestor(spans, s, lambda a: a.name == s.name):
            continue
        st["calls"] += 1
        st["busy_s"] += s.end - s.start
        for c, v in s.counters.items():
            st[c] = max(st.get(c, 0), v) if c.startswith("peak") else st.get(c, 0) + v
    mc_samples = mc_busy = 0.0
    for s in spans:
        if s.name in MC_ENTRIES and "samples" in s.counters and not _has_ancestor(
                spans, s, lambda a: a.name in MC_ENTRIES):
            mc_samples += s.counters["samples"]
            mc_busy += s.end - s.start
    stats["measures.mc"] = {"samples": mc_samples, "busy_s": mc_busy}
    return stats


def _has_ancestor(spans, s, pred) -> bool:
    p = s.parent
    while p is not None:
        if pred(spans[p]):
            return True
        p = spans[p].parent
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _get(name: str, stat: str):
    return lambda st: st.get(name, {}).get(stat, 0)


# (metric, unit, value from the aggregated stats)
LAYER_METRICS = [
    ("counting.profile3.calls", "count", _get("counting.profile3", "calls")),
    ("counting.profile3.busy_s", "s", _get("counting.profile3", "busy_s")),
    ("counting.profile3.items", "count", _get("counting.profile3", "items")),
    ("counting.profile4.calls", "count", _get("counting.profile4", "calls")),
    ("counting.profile4.busy_s", "s", _get("counting.profile4", "busy_s")),
    ("counting.profile4.items", "count", _get("counting.profile4", "items")),
    ("counting.profile_small.calls", "count", _get("counting.profile_small", "calls")),
    ("counting.profile_small.busy_s", "s", _get("counting.profile_small", "busy_s")),
    ("discrepancy.exact.busy_s", "s", _get("discrepancy.exact", "busy_s")),
    ("discrepancy.prefix_bound.busy_s", "s", _get("discrepancy.prefix_bound", "busy_s")),
    ("discrepancy.grid.busy_s", "s", _get("discrepancy.grid", "busy_s")),
    ("perms.all_densities.self_s", "s", _get("perms.all_densities", "self_s")),
    ("perms.density_exact.busy_s", "s", _get("perms.density_exact", "busy_s")),
    ("measures.pattern_histogram_mc.busy_s", "s", _get("measures.pattern_histogram_mc", "busy_s")),
    ("measures.mc.samples", "count", _get("measures.mc", "samples")),
    ("measures.mc.samples_per_s", "1/s",
     lambda st: _ratio(_get("measures.mc", "samples")(st), _get("measures.mc", "busy_s")(st))),
    ("measures.cdf_many.busy_s", "s", _get("measures.cdf_many", "busy_s")),
    ("measures.cdf_many.points", "count", _get("measures.cdf_many", "points")),
    ("measures.discrepancy_permuton.busy_s", "s", _get("measures.discrepancy_permuton", "busy_s")),
    ("measures.density_exact_grid.calls", "count", _get("measures.density_exact_grid", "calls")),
    ("measures.density_exact_grid.busy_s", "s", _get("measures.density_exact_grid", "busy_s")),
    ("symmetry.search.busy_s", "s", _get("symmetry.search", "busy_s")),
    ("symmetry.search.candidates", "count", _get("symmetry.search", "candidates")),
    ("symmetry.search.candidates_per_s", "1/s",
     lambda st: _ratio(_get("symmetry.search", "candidates")(st),
                       _get("symmetry.search", "busy_s")(st))),
    ("symmetry.search.hits", "count", _get("symmetry.search", "hits")),
    ("symmetry.search.peak_alloc_mb", "MB", _get("symmetry.search", "peak_alloc_mb")),
    ("symmetry.symmetry_defect.self_s", "s", _get("symmetry.symmetry_defect", "self_s")),
    ("symmetry.is_inflatable.busy_s", "s", _get("symmetry.is_inflatable", "busy_s")),
    ("analysis.lemma_integrals.exact.busy_s", "s", _get("analysis.lemma_integrals.exact", "busy_s")),
    ("analysis.lemma_integrals.mc.busy_s", "s", _get("analysis.lemma_integrals.mc", "busy_s")),
    ("analysis.cs_chain.self_s", "s", _get("analysis.cs_chain", "self_s")),
    ("analysis.identity_check.busy_s", "s", _get("analysis.identity_check", "busy_s")),
    ("analysis.find_b.busy_s", "s", _get("analysis.find_b", "busy_s")),
    ("analysis.find_b.evaluations", "count", _get("analysis.find_b", "evaluations")),
    ("analysis.find_nu.busy_s", "s", _get("analysis.find_nu", "busy_s")),
    ("analysis.find_nu.evaluations", "count", _get("analysis.find_nu", "evaluations")),
    ("analysis.t_id3_segment.busy_s", "s", _get("analysis.t_id3_segment", "busy_s")),
    ("permuton_io.parse.busy_s", "s", _get("permuton_io.parse", "busy_s")),
    ("permuton_io.parse.bytes", "bytes", _get("permuton_io.parse", "bytes")),
    ("cli.main.self_s", "s", _get("cli.main", "self_s")),
    ("cli.main.calls", "count", _get("cli.main", "calls")),
    ("cli.main.output_bytes", "bytes", _get("cli.main", "output_bytes")),
]


def layer_metrics(spans: list[Span]) -> dict[str, dict]:
    st = aggregate(spans)
    return {name: {"value": float(f(st)), "unit": unit} for name, unit, f in LAYER_METRICS}
