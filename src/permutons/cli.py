"""Command-line interface.

One subcommand per library operation; every run is seeded (default seed
20130409) so identical argv produce byte-identical output.  A permutation
argument whose comma- or whitespace-separated tokens are all integers is
the notation inline ("3 1 2" / "3,1,2"); any other is a path to a text
file in one-line notation ("./1" reads the file 1).  Permuton arguments
are description files (see permuton_io).  Each subcommand is declared
once, by ``_command`` beside its body.  Exit codes: 0 success, 1
validation error (also an unreadable input or --out path), 2 internal
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction

import numpy as np

from . import analysis, measures, permuton_io, symmetry
from .analysis import AnalysisError, BracketingError, Budget
from .measures import PermutonError
from .perms import DEFAULT_SEED, Perm, PermError, all_densities, density_exact, \
    density_sampled, parse_perm
from .discrepancy import discrepancy


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x} ({float(x):.12g})"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _read_perm(arg: str) -> Perm:
    # inline notation when every token is an integer, a path otherwise
    try:
        inline = bool([int(t) for t in arg.replace(",", " ").split()])
    except ValueError:
        inline = False
    if inline:
        return parse_perm(arg)
    with open(arg) as fh:
        return parse_perm(fh.read())


def _emit(lines: list[str], out: str | None) -> None:
    # the file first, so a failed write prints nothing
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> list[str]:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().splitlines()


def _resolution(args) -> dict:
    r = getattr(args, "resolution", None)  # None, never 0, means the library's default
    return {} if r is None else {"resolution": r}


def _budget(args) -> Budget:
    return Budget(samples=args.samples, seed=args.seed,
                  mode=args.mode or "auto", **_resolution(args))


def _seed(text: str) -> int:
    """--seed type: PCG64 takes only non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, not {text!r}")
    return int(text)


# the shared options in their --help order; every subcommand takes --out
_FLAGS = {
    "seed": {"type": _seed, "default": DEFAULT_SEED},
    "samples": {"type": int, "default": 1_000_000},
    "tol": {"type": float, "default": 1e-5},
    "resolution": {"type": int, "default": None},
    "out": {"default": None},
    "format": {"choices": ("text", "csv"), "default": "text"},
    "mode": {"choices": ("exact", "mc"), "default": None},
}
_INT = {"type": int}
_COMMANDS: list[tuple] = []


def _command(name: str, help_: str, *own, flags=()):
    """Declare the decorated body as subcommand ``name``.  ``own`` holds its
    arguments, each a name or (name, add_argument keywords), added after
    the shared ``flags``."""
    def register(run):
        _COMMANDS.append((name, help_, own, flags, run))
        return run
    return register


def build_parser() -> _Parser:
    p = _Parser(prog="permutons", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, help_, own, flags, run in _COMMANDS:
        sp = sub.add_parser(name, help=help_)
        for flag, kw in _FLAGS.items():
            if flag == "out" or flag in flags:
                sp.add_argument(f"--{flag}", **kw)
        for arg in own:
            arg, kw = (arg, {}) if isinstance(arg, str) else arg
            sp.add_argument(arg, **kw)
        sp.set_defaults(run=run, status=0)
    return p


# ---------------------------------------------------------------------------
# subcommand bodies


@_command("density", "pattern density t(pi, tau)", "pi", "tau",
          flags=("seed", "samples", "mode"))
def _run_density(args) -> list[str]:
    pi = _read_perm(args.pi)
    tau = _read_perm(args.tau)
    if args.mode == "mc":
        est, ci = density_sampled(pi, tau, args.samples, args.seed)
        return [f"t = {est:.12g}", f"ci99 = {ci:.12g}",
                f"samples = {args.samples}", f"seed = {args.seed}"]
    t = density_exact(pi, tau)
    return [f"t = {_fmt(t)}"]


@_command("densities", "all length-k densities of tau and the P(k) defect",
          ("k", _INT), "tau", flags=("format",))
def _run_densities(args) -> list[str]:
    tau = _read_perm(args.tau)
    rep = all_densities(args.k, tau)
    if args.format == "csv":
        rows = [["".join(map(str, p)) if args.k < 10 else " ".join(map(str, p)),
                 f"{float(v):.12g}"] for p, v in rep.entries.items()]
        return _csv_text(["pattern", "density"], rows)
    lines = [f"t({' '.join(map(str, p))}) = {_fmt(v)}"
             for p, v in rep.entries.items()]
    lines.append(f"defect = {_fmt(rep.defect)}")
    lines.append(f"witness = {' '.join(map(str, rep.witness))}")
    return lines


@_command("discrepancy", "interval discrepancy of a permutation", "tau",
          ("--method", {"choices": ("exact", "prefix_bound", "grid"),
                        "default": "exact"}), flags=("resolution",))
def _run_discrepancy(args) -> list[str]:
    tau = _read_perm(args.tau)
    res = discrepancy(tau, mode=args.method, **_resolution(args))
    lines = [f"mode = {res.mode}", f"lower = {res.lower:.12g}",
             f"upper = {res.upper:.12g}"]
    if res.mode == "exact":
        lines.insert(1, f"value = {res.value:.12g}")
        lines.append(f"numerator = {res.numerator}")
    return lines


@_command("permuton-density", "t(pi, mu) for a permuton file",
          "pi", "permuton", flags=("seed", "samples", "mode"))
def _run_permuton_density(args) -> list[str]:
    pi = _read_perm(args.pi)
    mu = permuton_io.load_permuton(args.permuton)
    mode = args.mode
    if mode is None:
        mode = "exact" if isinstance(mu, measures.GridPermuton) \
            and len(pi) <= measures.GRID_EXACT_MAX_K else "mc"
    if mode == "exact":
        t = measures.density_exact_grid(pi, mu)
        return [f"t = {_fmt(t)}", "mode = exact"]
    est, ci = measures.density_mc(pi, mu, args.samples, args.seed)
    return [f"t = {est:.12g}", f"ci99 = {ci:.12g}", "mode = mc",
            f"samples = {args.samples}", f"seed = {args.seed}"]


@_command("sample", "sample k-point permutations from a permuton",
          "permuton", ("k", _INT), ("count", _INT), flags=("seed", "format"))
def _run_sample(args) -> list[str]:
    mu = permuton_io.load_permuton(args.permuton)
    if args.count < 1:
        raise PermutonError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(args.seed))
    pats = measures.sample_patterns(mu, args.k, args.count, rng)
    lines = [" ".join(str(int(x)) for x in row) for row in pats]
    if args.format == "csv":
        return _csv_text(["permutation"],
                         [[",".join(str(int(x)) for x in row)] for row in pats])
    return lines


@_command("symmetry", "k-symmetry defect of a permuton", "permuton",
          ("k", _INT), flags=("seed", "samples", "format", "mode"))
def _run_symmetry(args) -> list[str]:
    mu = permuton_io.load_permuton(args.permuton)
    verdict = symmetry.symmetry_defect(mu, args.k, mode=args.mode or "auto",
                                       samples=args.samples, seed=args.seed)
    if args.format == "csv":
        rows = [[" ".join(map(str, p)), f"{float(v):.12g}"]
                for p, v in sorted(verdict.densities.items())]
        return _csv_text(["pattern", "density"], rows)
    lines = [f"k = {verdict.k}", f"exact = {verdict.exact}",
             f"defect = {_fmt(verdict.defect)}",
             f"witness = {' '.join(map(str, verdict.witness))}"]
    if not verdict.exact:
        lines.append(f"ci99 = {verdict.error_radius:.12g}")
        lines.append(f"samples = {verdict.samples}")
    for p, v in sorted(verdict.densities.items()):
        lines.append(f"t({' '.join(map(str, p))}) = {_fmt(v)}")
    return lines


@_command("inflatable", "exact k-inflatability of a permutation",
          "tau", ("k", _INT))
def _run_inflatable(args) -> list[str]:
    tau = _read_perm(args.tau)
    ok, verdict = symmetry.is_inflatable(tau, args.k)
    return [f"inflatable = {'yes' if ok else 'no'}",
            f"defect = {_fmt(verdict.defect)}",
            f"witness = {' '.join(map(str, verdict.witness))}"]


@_command("search-inflatable", "exhaustive k-inflatable search over S_n",
          ("n", _INT), ("k", _INT))
def _run_search(args) -> list[str]:
    found = symmetry.search_inflatable(args.n, args.k)
    lines = [p.one_line() for p in found]
    lines.append(f"count={len(found)}")
    if found:
        rep = symmetry.reflection_report(found)
        for op in sorted(rep):
            lines.append(f"closed under {op}:")
            for a, b in rep[op]:
                lines.append(f"  {a.one_line()} -> {b.one_line()}")
    return lines


@_command("integrals", "the three distinguishing integrals of a permuton",
          "permuton", flags=("seed", "samples", "resolution", "mode"))
def _run_integrals(args) -> list[str]:
    mu = permuton_io.load_permuton(args.permuton)
    rep = analysis.lemma_integrals(mu, _budget(args))
    lines = []
    for name, val, meth, err in zip(("i1", "i2", "i3"),
                                    (rep.i1, rep.i2, rep.i3),
                                    rep.methods, rep.error_radius):
        lines.append(f"{name} = {_fmt(val)} [{meth}, err <= {err:.3g}]")
    return lines


@_command("chain", "double Cauchy-Schwarz chain quantities and slacks",
          "permuton", flags=("seed", "samples", "resolution", "mode"))
def _run_chain(args) -> list[str]:
    mu = permuton_io.load_permuton(args.permuton)
    rep = analysis.cs_chain(mu, _budget(args))
    names = ("q1 (i2^2)", "q2 (i1*m22)", "q3 (rewrite)", "q4 (marginal)",
             "q5 (cs2 rhs)", "q6 (1/81)")
    lines = [f"{n} = {_fmt(q)}" for n, q in zip(names, rep.quantities)]
    for step in rep.STEPS:
        lines.append(f"slack[{step}] = {_fmt(rep.slacks[step])}")
    lines.append(f"error_radius = {rep.error_radius:.3g}")
    lines.append(f"exact = {rep.exact}")
    return lines


@_command("identity", "moment identity for int F(x,y) x y dlambda",
          "permuton", flags=("seed", "samples", "mode"))
def _run_identity(args) -> list[str]:
    mu = permuton_io.load_permuton(args.permuton)
    rep = analysis.identity_check(mu, _budget(args))
    return [f"lhs = {_fmt(rep.lhs)}", f"rhs = {_fmt(rep.rhs)}",
            f"slack = {rep.slack:.12g}",
            f"error_radius = {rep.error_radius:.3g}",
            f"pass = {rep.passed}"]


@_command("find-b", "segment parameter b with t(id3, m_set(b)) = 1/6",
          flags=("tol",))
def _run_find_b(args) -> list[str]:
    r = analysis.find_b(args.tol)
    return [f"b = {_fmt(r.value)}",
            f"t(id3, mu_b) = {_fmt(r.t_value)}",
            f"evaluations = {r.evaluations}"]


@_command("find-nu", "mixture weight a with t(id3, nu_a) = 1/6",
          flags=("tol",))
def _run_find_nu(args) -> list[str]:
    r = analysis.find_nu(args.tol)
    return [f"a = {_fmt(r.value)}",
            f"t(id3, nu_a) = {_fmt(r.t_value)}",
            f"evaluations = {r.evaluations}"]


@_command("converge", "sampled-permutation convergence table", "permuton",
          ("k", _INT), ("sizes", {"type": int, "nargs": "+"}),
          flags=("seed", "format"))
def _run_converge(args) -> list[str]:
    mu = permuton_io.load_permuton(args.permuton)
    rows = analysis.convergence_experiment(mu, args.k, args.sizes,
                                           seed=args.seed)
    data = [[r.n, " ".join(map(str, r.pattern)), f"{r.density:.12g}",
             f"{r.discrepancy:.12g}", f"{r.bound:.12g}"] for r in rows]
    if args.format == "csv":
        return _csv_text(["n", "pattern", "density", "discrepancy", "bound"],
                         data)
    return [f"n={d[0]} pattern=({d[1]}) density={d[2]} "
            f"discrepancy={d[3]} bound={d[4]}" for d in data]


@_command("check-marginals", "strip-mass uniformity of a permuton file",
          "permuton", flags=("resolution", "tol"))
def _run_check_marginals(args) -> list[str]:
    with open(args.permuton) as fh:
        mu = permuton_io.parse_permuton(fh.read())
    r = permuton_io.MARGINAL_RESOLUTION if args.resolution is None else args.resolution
    rep = measures.marginal_check(mu, r, args.tol)
    lines = [f"resolution = {rep.resolution}",
             f"max_deviation = {rep.max_deviation:.12g}",
             f"worst_strip = {rep.axis}[{rep.strip_index}]",
             f"pass = {rep.passed}"]
    args.status = 0 if rep.passed else 1  # the report is printed either way
    return lines


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    try:
        _emit(args.run(args), args.out)
    except BracketingError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 2
    except (PermError, PermutonError, AnalysisError, OSError,
            UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2
    return args.status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
