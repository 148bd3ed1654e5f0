"""The three benchmark workloads: inputs from the seed, jobs, output checks.

A workload builds every input in ``setup`` and then hands out jobs in a
fixed order.  A job is one user question; it calls the program only through
its public module functions (looked up on the module at call time, so the
tracer can wrap them) and returns plain values.  ``check`` compares one
job's output with independent references and returns the problems found.

Each job carries a ``key`` naming its input.  For exact jobs the runner
checks the first output of a key against the references and compares later
outputs of the same key with that golden copy.  Monte Carlo jobs use a
fresh sampling seed each time and are checked statistically every time,
against exact references where they exist and the job's own error radius.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import references as ref

# references are compared with estimates at Z standard deviations; with a
# few hundred checks per run a false alarm stays below 1e-6
Z = 6.0
# a 99% half-width is 2.576 standard deviations
CI99_TO_Z = Z / 2.5758293035489004
B_SEGMENT = Fraction(3083, 6400)
SEARCH_THREADS = max(1, min(2, os.cpu_count() or 1))


def program():
    """The program's modules, imported by name so the tracer sees them."""
    names = ("perms", "counting", "discrepancy", "measures", "symmetry",
             "analysis", "permuton_io", "cli")
    return {n: importlib.import_module(f"permutons.{n}") for n in names}


@dataclass
class Job:
    kind: str
    key: tuple
    exact: bool
    run: Callable[[], dict]


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _random_perm(rng, n: int) -> tuple[int, ...]:
    return tuple(int(v) + 1 for v in rng.permutation(n))


class Workload:
    name = ""

    def __init__(self, workdir: str, **sizes):
        self.workdir = workdir
        self.sizes = dict(self.DEFAULT_SIZES, **sizes)
        self.m = program()
        self._refs: dict = {}

    def reference(self, key, build):
        if key not in self._refs:
            self._refs[key] = build()
        return self._refs[key]


# ---------------------------------------------------------------------------
# finite-diagnose


class FiniteDiagnose(Workload):
    """Quasirandomness reports on sampled host permutations."""

    name = "finite-diagnose"
    DEFAULT_SIZES = dict(main_n=1000, exact_n=200, big_n=100_000,
                         grid_resolution=200, pool=12)
    TINY_SIZES = dict(main_n=70, exact_n=20, big_n=300, grid_resolution=10, pool=3)

    def setup(self, seed: int) -> None:
        m, s = self.m, self.sizes
        analysis, measures = m["analysis"], m["measures"]
        sources = (("uniform", measures.uniform()),
                   ("m_set_b", measures.m_set(B_SEGMENT)),
                   ("nu_half", analysis.nu_mixture(Fraction(1, 2))))
        rng = _rng(seed, 1)

        def host(mu, n):
            return tuple(int(v) for v in measures.sample_patterns(mu, n, 1, rng)[0])

        # one large host per source keeps the reference check of the
        # large-n 3-profile affordable; the smaller hosts are all distinct
        big = [host(mu, s["big_n"]) for _, mu in sources]
        self.cycle = []
        for i in range(s["pool"]):
            label, mu = sources[i % len(sources)]
            main = m["perms"].Perm(host(mu, s["main_n"]))
            small = m["perms"].Perm(host(mu, s["exact_n"]))
            self.cycle.append(Job("report", (label, i), True,
                                  self._job(main, small, big[i % len(sources)])))

    def _job(self, main, small, big):
        m, r = self.m, self.sizes["grid_resolution"]

        def run():
            perms, disc, counting = m["perms"], m["discrepancy"], m["counting"]
            d3 = perms.all_densities(3, main)
            d4 = perms.all_densities(4, main)
            pb = disc.discrepancy(main, mode="prefix_bound")
            gr = disc.discrepancy(main, mode="grid", resolution=r)
            ex = disc.discrepancy(small, mode="exact")
            p3 = counting.profile(big, 3)
            return {"hosts": (main.images, small.images, big),
                    "d3": {p.images: v for p, v in d3.entries.items()},
                    "d4": {p.images: v for p, v in d4.entries.items()},
                    "prefix": (pb.numerator, pb.lower, pb.upper),
                    "grid": (gr.numerator, gr.lower, gr.upper),
                    "exact": (ex.numerator, ex.value), "p3": dict(p3)}
        return run

    def check(self, job: Job, out: dict) -> list[str]:
        bad = []
        main, small, big = out["hosts"]
        n = len(main)
        prof3 = ref.profile3(main)
        c3, c4 = math.comb(n, 3), math.comb(n, 4)
        if {p: v * c3 for p, v in out["d3"].items()} != prof3:
            bad.append("3-densities differ from the reference 3-profile")
        prof4 = {p: v * c4 for p, v in out["d4"].items()}
        if any(c.denominator != 1 for c in prof4.values()) or len(prof4) != 24:
            bad.append("4-densities are not counts over C(n, 4)")
        else:
            bad += ref.profile4_violations(main, {p: int(c) for p, c in prof4.items()}, prof3)
        s = ref.prefix_numerator(main)
        if not _same(out["prefix"], (s, s / n**2, min(4 * s / n**2, 1.0))):
            bad.append("prefix_bound differs from the reference")
        g_num, g_lo, g_hi = out["grid"]
        if g_num != ref.grid_numerator(main, self.sizes["grid_resolution"]) \
                or g_lo != g_num / n**2:
            bad.append("grid discrepancy differs from the reference")
        if g_lo > out["prefix"][2] or g_hi < out["prefix"][1]:
            bad.append("grid and prefix_bound enclosures are inconsistent")
        d = ref.discrepancy_numerator(small)
        ns = len(small)
        if not _same(out["exact"], (d, d / ns**2)):
            bad.append("exact discrepancy differs from the reference")
        disc = self.m["discrepancy"]
        for mode in ("prefix_bound", "grid"):
            e = disc.discrepancy(small, mode=mode, resolution=self.sizes["grid_resolution"])
            if not e.lower <= d / ns**2 <= e.upper:
                bad.append(f"{mode} enclosure misses the exact value")
        if out["p3"] != ref.profile3(big):
            bad.append("large-n 3-profile differs from the reference")
        return bad


# ---------------------------------------------------------------------------
# permuton-mc


class PermutonMC(Workload):
    """Monte Carlo diagnoses of permutons parsed from description text."""

    name = "permuton-mc"
    DEFAULT_SIZES = dict(samples=50_000, quad_resolution=100, disc_resolution=100,
                         grid_n=400, grids=4)
    # the grid stays above the size where lemma_integrals turns exact
    TINY_SIZES = dict(samples=500, quad_resolution=10, disc_resolution=10,
                      grid_n=301, grids=1)
    CLI_PATTERN = (1, 3, 2)

    def setup(self, seed: int) -> None:
        s = self.sizes
        rng = _rng(seed, 2)
        weight = Fraction(int(rng.integers(1, 4)), 4)
        texts = {
            ("m_set", B_SEGMENT): f"type m_set\na {B_SEGMENT}\n",
            ("m_set", Fraction(0)): "type m_set\na 0\n",
            ("m_set", Fraction(1)): "type m_set\na 1\n",
            ("mixture", weight): (f"type mixture\ncomponent {weight}\n  type m_set\n  a 0\n"
                                  f"component {1 - weight}\n  type m_set\n  a 1\n"),
        }
        grid_keys = []
        for g in range(s["grids"]):
            tau = _random_perm(rng, s["grid_n"])
            grid_keys.append(("grid", tau))
            texts[("grid", tau)] = "type perm\nperm " + " ".join(map(str, tau)) + "\n"
        os.makedirs(self.workdir, exist_ok=True)
        self.perm = {}
        self.path = {}
        for i, (key, text) in enumerate(texts.items()):
            self.perm[key] = self.m["permuton_io"].parse_permuton(text)
            self.path[key] = os.path.join(self.workdir, f"permuton{i}.txt")
            with open(self.path[key], "w") as fh:
                fh.write(text)
        # two grid jobs per segment-family job: the grid jobs carry the
        # cdf-heavy work and set the median and tail latencies
        segment_keys = [k for k in texts if k[0] != "grid"]
        grids = itertools.cycle(grid_keys)
        order = []
        for key in segment_keys:
            order += [next(grids), next(grids), key]
        self.seed = seed
        self.counter = itertools.count()
        self.cycle = [Job("diagnose", key, False, self._job(key)) for key in order]

    def _job(self, key):
        m, s = self.m, self.sizes

        def run():
            measures, analysis, symmetry = m["measures"], m["analysis"], m["symmetry"]
            mu = self.perm[key]
            seeds = [int(x) for x in _rng(self.seed, 1000 + next(self.counter)).integers(
                0, 2**31, size=6)]
            n = s["samples"]
            h3 = measures.pattern_histogram_mc(mu, 3, n, seeds[0])
            h4 = measures.pattern_histogram_mc(mu, 4, n, seeds[1])
            sym = symmetry.symmetry_defect(mu, 3, mode="mc", samples=n, seed=seeds[2])
            li = analysis.lemma_integrals(mu, analysis.Budget(
                samples=n, seed=seeds[3], resolution=s["quad_resolution"]))
            idc = analysis.identity_check(mu, analysis.Budget(samples=n, seed=seeds[4]))
            dp = measures.discrepancy_permuton(mu, s["disc_resolution"])
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = m["cli"].main(["permuton-density", " ".join(map(str, self.CLI_PATTERN)),
                                    self.path[key], "--mode", "mc", "--samples", str(n),
                                    "--seed", str(seeds[5])])
            return {"h3": h3, "h4": h4,
                    "sym": (sym.exact, sym.samples, sym.defect, dict(sym.densities)),
                    "li": (li.i1, li.i2, li.i3, li.methods, li.error_radius),
                    "id": (idc.lhs, idc.rhs, idc.error_radius, idc.exact),
                    "disc": (dp.lower, dp.sup_dev, dp.upper, dp.certified_upper),
                    "cli": (rc, buf.getvalue())}
        return run

    def _refs_for(self, key):
        def build():
            mu = self.perm[key]
            ticks = np.linspace(0.0, 1.0, self.sizes["disc_resolution"] + 1)
            if key[0] == "grid":
                tau = key[1]
                profs = ref.finite_profiles(tau)
                dens3 = {p: ref.flat_grid_density(p, len(tau), profs) for p in ref.S3}
                integrals = ref.flat_grid_integrals(tau, exact=False)
                cdf = ref.grid_cdf_ticks(tau, ticks)
                return dict(dens3=dens3, symmetric=False, integrals=integrals,
                            int_tol=(1e-9, 1e-9, 1e-9), cdf=cdf, ticks=ticks)
            table = ref.segment_table(mu)
            dens3 = None
            if key[0] == "m_set":
                t = self.m["analysis"].t_id3_segment(key[1])
                other = (1 - 2 * t) / 4
                dens3 = {p: (t if p in ((1, 2, 3), (3, 2, 1)) else other) for p in ref.S3}
            return dict(dens3=dens3, symmetric=True,
                        integrals=ref.segment_integrals(table), int_tol=(1e-4, 1e-4, 5e-3),
                        cdf=ref.segment_cdf(table, ticks[:, None], ticks[None, :]),
                        ticks=ticks)
        return self.reference(key, build)

    def check(self, job: Job, out: dict) -> list[str]:
        bad = []
        r = self._refs_for(job.key)
        n = self.sizes["samples"]
        p3 = {p: c / n for p, c in out["h3"].items()}
        p4 = {p: c / n for p, c in out["h4"].items()}
        if sum(out["h3"].values()) != n or sum(out["h4"].values()) != n:
            bad.append("histogram counts do not add up to the samples")
        marg = {s: sum(ref.sub_occurrences(s, p) * q for p, q in p4.items()) / 4
                for s in ref.S3}
        exact3 = r["dens3"]
        if exact3 is not None:
            bad += _near(p3, exact3, n, "3-histogram")
            bad += _near(marg, exact3, n, "4-histogram marginal")
            bad += _near(out["sym"][3], exact3, n, "symmetry_defect densities")
        else:
            bad += _near(marg, p3, n, "4-histogram marginal", both=True)
        if r["symmetric"]:
            for dist, label in ((p3, "3-histogram"), (p4, "4-histogram")):
                bad += _orbit_spread(dist, n, label)
        exact_flag, samples, defect, dens = out["sym"]
        if exact_flag or samples != n or defect != max(abs(v - 1 / 6) for v in dens.values()):
            bad.append("symmetry_defect report is inconsistent")

        i1, i2, i3, methods, radius = out["li"]
        if methods != ("mc", "mc", "quadrature"):
            bad.append(f"lemma_integrals took methods {methods}")
        for name, got, want, rad, tol, scale in zip(
                ("i1", "i2", "i3"), (i1, i2, i3), r["integrals"][:3], radius, r["int_tol"],
                (CI99_TO_Z, CI99_TO_Z, 1.0)):
            if abs(got - want) > scale * rad + tol:
                bad.append(f"{name} = {got} is off the reference {want}")
        lhs, rhs, rad, exact_flag = out["id"]
        rhs_ref = (1 / 3 + r["integrals"][3]) / 4        # m20 = m02 = 1/3
        if exact_flag or abs(float(rhs) - rhs_ref) > 1e-9 \
                or abs(lhs - float(rhs)) > CI99_TO_Z * rad + 1e-12:
            bad.append("identity_check is off its exact right-hand side")
        lower, sup_dev, upper, cert = out["disc"]
        ref_lower, ref_sup = ref.grid_discrepancy_bounds(r["cdf"], r["ticks"])
        res = self.sizes["disc_resolution"]
        if abs(lower - ref_lower) > 1e-9 or abs(sup_dev - ref_sup) > 1e-9 \
                or upper != 4 * sup_dev or abs(cert - 4 * (sup_dev + 2 / res)) > 1e-12:
            bad.append("discrepancy_permuton differs from the reference CDF")
        bad += self._check_cli(out["cli"], exact3, p3, n)
        return bad

    def _check_cli(self, cli_out, exact3, p3, n) -> list[str]:
        rc, text = cli_out
        fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
        try:
            t, ci = float(fields["t"]), float(fields["ci99"])
        except (KeyError, ValueError):
            return [f"cli output unreadable (exit {rc})"]
        if rc != 0 or fields.get("mode") != "mc" or int(fields.get("samples", -1)) != n:
            return [f"cli run failed (exit {rc})"]
        pat = self.CLI_PATTERN
        if exact3 is not None:
            want, slack = float(exact3[pat]), CI99_TO_Z * ci
        else:
            want = p3[pat]
            slack = Z * math.sqrt(2 * max(want * (1 - want), 1 / n) / n)
        if abs(t - want) > slack + 1e-12:
            return [f"cli density {t} is off {want}"]
        return []


def _same(got: tuple, want: tuple) -> bool:
    """Equal numerators and floats equal up to rounding."""
    return got[0] == want[0] and all(abs(g - w) <= 1e-15 for g, w in zip(got[1:], want[1:]))


def _near(est: dict, want: dict, n: int, label: str, both: bool = False) -> list[str]:
    """Estimates from n samples within Z standard deviations of the targets.

    A [0,1]-valued per-sample statistic with mean p has variance at most
    p(1-p); ``both`` doubles it when the target is itself an estimate.
    """
    bad = []
    for p, w in want.items():
        w = float(w)
        var = w * (1 - w) / n * (2 if both else 1)
        if abs(est[p] - w) > Z * math.sqrt(var) + (2 / n if both else 1e-12):
            bad.append(f"{label} {p}: {est[p]:.6f} vs {w:.6f}")
    return bad


def _orbit_spread(dist: dict, n: int, label: str) -> list[str]:
    """Densities of a measure with the square's 8 symmetries are constant on
    each orbit; estimates must agree within sampling error."""
    bad, done = [], set()
    for p in dist:
        if p in done:
            continue
        orbit = ref.dihedral_images(p)
        done |= orbit
        mean = sum(dist[q] for q in orbit) / len(orbit)
        tol = Z * math.sqrt(2 * mean * (1 - mean) / n) + 2 / n
        if any(abs(dist[q] - mean) > tol for q in orbit):
            bad.append(f"{label} orbit of {p} is not level")
    return bad


# ---------------------------------------------------------------------------
# exact-certify


class ExactCertify(Workload):
    """Exact rational certificates: grid integrals and densities, collision
    checks, segment-family roots, and inflatable searches."""

    name = "exact-certify"
    DEFAULT_SIZES = dict(cert_n=40, big_cert_n=120, nonperm_m=3, hosts=10,
                         host_n=(6, 12), roots=20, search_orders=(8, 9),
                         big_search=10, pool=4)
    TINY_SIZES = dict(cert_n=6, big_cert_n=8, nonperm_m=2, hosts=2, host_n=(4, 6),
                      roots=1, search_orders=(5,), big_search=6, pool=2)

    def setup(self, seed: int) -> None:
        s = self.sizes
        rng = _rng(seed, 3)
        pool = s["pool"]
        certs = [_random_perm(rng, s["cert_n"]) for _ in range(pool)]
        grids = [self._nonperm_cells(rng, s["nonperm_m"]) for _ in range(pool)]
        hosts = [[_random_perm(rng, int(rng.integers(s["host_n"][0], s["host_n"][1] + 1)))
                  for _ in range(s["hosts"])] for _ in range(pool)]
        roots = [tuple(Fraction(int(x), 1000) for x in rng.integers(0, 1001, size=s["roots"]))
                 for _ in range(pool)]
        # three long jobs open each pass over the cycle: the order-10 search
        # (which sets peak_rss_mb), find_b, and a certificate at n = 120
        big = _random_perm(rng, s["big_cert_n"])
        self.cycle = [
            Job("search", ("search", s["big_search"], 3), True,
                self._search_job((s["big_search"],), 3)),
            Job("find_b", ("find_b",), True, self._find_b_job()),
            Job("cert_big", ("cert_big", big), True, self._cert_big_job(big)),
        ]
        for i in range(pool):
            k = 3 + i % 2
            self.cycle += [
                Job("cert_flat", ("cert_flat", certs[i]), True, self._cert_flat_job(certs[i]))
                if k == 3 else
                Job("cert_nonperm", ("cert_nonperm", grids[i]), True,
                    self._cert_nonperm_job(grids[i])),
                Job("collision", ("collision", i), True, self._collision_job(hosts[i])),
                Job("roots", ("roots", roots[i]), True, self._roots_job(roots[i])),
                Job("search", ("search", s["search_orders"], k), True,
                    self._search_job(s["search_orders"], k)),
            ]

    @staticmethod
    def _nonperm_cells(rng, m: int) -> tuple:
        """Average of two distinct m x m permutation grids: 2m cells of
        mass 1/(2m), or fewer heavier cells where the two coincide."""
        while True:
            a, b = _random_perm(rng, m), _random_perm(rng, m)
            if a != b:
                break
        cells: dict = {}
        for tau in (a, b):
            for i, v in enumerate(tau, start=1):
                cells[(i, v)] = cells.get((i, v), Fraction(0)) + Fraction(1, 2 * m)
        return (m, tuple(sorted(cells.items())))

    # -- jobs --

    def _cert_flat_job(self, tau):
        m = self.m

        def run():
            measures, analysis, symmetry = m["measures"], m["analysis"], m["symmetry"]
            mu = measures.from_perm(tau)
            li = analysis.lemma_integrals(mu)
            ch = analysis.cs_chain(mu)
            idc = analysis.identity_check(mu)
            s3 = symmetry.symmetry_defect(mu, 3)
            s4 = symmetry.symmetry_defect(mu, 4)
            inflatable, verdict = symmetry.is_inflatable(tau, 3)
            return {"li": (li.i1, li.i2, li.i3, li.methods),
                    "inflatable3": (inflatable, verdict.defect),
                    "chain": (tuple(ch.quantities), dict(ch.slacks), ch.exact),
                    "id": (idc.lhs, idc.rhs, idc.exact),
                    "s3": (s3.exact, s3.defect, dict(s3.densities)),
                    "s4": (s4.exact, s4.defect, dict(s4.densities))}
        return run

    def _cert_nonperm_job(self, grid):
        m = self.m

        def run():
            mu = m["measures"].GridPermuton(grid[0], dict(grid[1]))
            s3 = m["symmetry"].symmetry_defect(mu, 3, mode="exact")
            s4 = m["symmetry"].symmetry_defect(mu, 4, mode="exact")
            return {"s3": (s3.exact, s3.defect, dict(s3.densities)),
                    "s4": (s4.exact, s4.defect, dict(s4.densities))}
        return run

    def _cert_big_job(self, tau):
        m = self.m

        def run():
            li = m["analysis"].lemma_integrals(m["measures"].from_perm(tau))
            return {"li": (li.i1, li.i2, li.i3, li.methods)}
        return run

    def _collision_job(self, hosts):
        m = self.m

        def run():
            perms, measures, counting = m["perms"], m["measures"], m["counting"]
            out = []
            for tau in hosts:
                t = perms.Perm(tau)
                mu = measures.from_perm(t)
                out.append({p: (perms.density_exact(perms.Perm(p), t),
                                measures.density_exact_grid(p, mu))
                            for k in range(1, 5) for p in counting.all_patterns(k)})
            return {"hosts": hosts, "pairs": out}
        return run

    def _roots_job(self, values):
        m = self.m

        def run():
            analysis = m["analysis"]
            nu = analysis.find_nu()
            return {"nu": (nu.value, nu.t_value, nu.evaluations, nu.bracket),
                    "t": {a: analysis.t_id3_segment(a) for a in values}}
        return run

    def _find_b_job(self):
        m = self.m

        def run():
            r = m["analysis"].find_b()
            return {"b": (r.value, r.t_value, r.evaluations)}
        return run

    def _search_job(self, orders, k):
        m = self.m

        def run():
            symmetry = m["symmetry"]
            out = {}
            for n in orders:
                hits = symmetry.search_inflatable(n, k, threads=SEARCH_THREADS)
                out[n] = tuple((h.images, symmetry.is_inflatable(h, k)[0]) for h in hits)
            return {"k": k, "found": out}
        return run

    # -- checks --

    def check(self, job: Job, out: dict) -> list[str]:
        return getattr(self, f"_check_{job.kind}")(job, out)

    def _check_cert_flat(self, job, out) -> list[str]:
        tau = job.key[1]
        bad = self._check_integrals(tau, out["li"])
        i1, i2, i3, _ = out["li"]
        m22 = ref.flat_grid_integrals(tau, exact=True)[3]
        lhs, rhs, exact = out["id"]
        L = (1 - Fraction(2, 3) + m22) / 4
        if not exact or lhs != rhs or rhs != L:
            bad.append("identity_check is not exact or misses the moment identity")
        q, slacks, exact = out["chain"]
        want = (i2 * i2, i1 * m22, (4 * L - Fraction(1, 3)) / 9, (4 * L - Fraction(1, 3)) / 9)
        if tuple(q[:4]) != want or q[5] != Fraction(1, 81):
            bad.append("cs_chain quantities differ from the integrals")
        steps = dict(zip(("cs1", "rewrite", "marginal", "cs2", "closing"), zip(q, q[1:])))
        if any(slacks[s] != b - a for s, (a, b) in steps.items()) \
                or slacks["marginal"] != 0 or slacks["cs1"] < 0 \
                or slacks["cs2"] < -1e-12 or slacks["rewrite"] != m22 * (Fraction(1, 9) - i1):
            bad.append("cs_chain slacks are inconsistent")
        profs = ref.finite_profiles(tau)
        want3 = {p: ref.flat_grid_density(p, len(tau), profs) for p in ref.S3}
        bad += _check_verdict(out["s3"], 3, want3)
        bad += _check_verdict(out["s4"], 4)
        bad += _check_marginal(out["s4"][2], out["s3"][2])
        if out["inflatable3"] != (out["s3"][1] == 0, out["s3"][1]):
            bad.append("is_inflatable disagrees with the 3-symmetry defect")
        return bad

    def _check_cert_nonperm(self, job, out) -> list[str]:
        n, cells = job.key[1]
        bad = _check_verdict(out["s3"], 3) + _check_verdict(out["s4"], 4)
        bad += _check_marginal(out["s4"][2], out["s3"][2])
        t12 = sum(q * ref.sub_occurrences((1, 2), p) for p, q in out["s3"][2].items()) / 3
        if t12 != _grid_t12(cells):
            bad.append("3-densities do not marginalise to the cell-pair t(12)")
        return bad

    def _check_cert_big(self, job, out) -> list[str]:
        return self._check_integrals(job.key[1], out["li"])

    @staticmethod
    def _check_integrals(tau, li) -> list[str]:
        i1, i2, i3, methods = li
        want = ref.flat_grid_integrals(tau, exact=True)[:3]
        if methods != ("exact",) * 3 or (i1, i2, i3) != want:
            return ["grid integrals differ from the closed forms"]
        return []

    def _check_collision(self, job, out) -> list[str]:
        bad = []
        naive = self.m["counting"].profile_naive
        for tau, pairs in zip(out["hosts"], out["pairs"]):
            n = len(tau)
            profs = {k: naive(tau, k) for k in range(1, 5)}
            for p, (fin, grid) in pairs.items():
                k = len(p)
                if fin != Fraction(profs[k][p], math.comb(n, k)):
                    bad.append(f"density_exact {p} in {tau}")
                if grid != ref.flat_grid_density(p, n, profs):
                    bad.append(f"density_exact_grid {p} in {tau}")
                if abs(fin - grid) > Fraction(k * (k - 1), 2 * n):
                    bad.append(f"collision gap {p} in {tau} over k(k-1)/2n")
        return bad

    def _check_roots(self, job, out) -> list[str]:
        bad = []
        value, t, evals, (lo, hi) = out["nu"]
        if abs(t - Fraction(1, 6)) > 1e-5 or not lo <= value <= hi or evals < 1:
            bad.append("find_nu root misses 1/6 or its bracket")
        mc = self.m["measures"].density_mc
        for i, (a, t) in enumerate(out["t"].items()):
            est, ci = mc((1, 2, 3), self.m["measures"].m_set(a), 20_000, 7 + i)
            if abs(est - float(t)) > CI99_TO_Z * max(ci, 1e-3):
                bad.append(f"t(id3, m_set({a})) = {t} against sampled {est}")
        return bad

    def _check_find_b(self, job, out) -> list[str]:
        value, t, evals = out["b"]
        if value != B_SEGMENT or abs(t - Fraction(1, 6)) > 1e-5 or evals < 1:
            return [f"find_b gave {value}"]
        return []

    def _check_search(self, job, out) -> list[str]:
        bad = []
        for n, found in out["found"].items():
            hits = [h for h, _ in found]
            if not all(ok for _, ok in found):
                bad.append(f"order {n}: a hit fails is_inflatable")
            if hits != sorted(set(hits)) or any(len(h) != n for h in hits):
                bad.append(f"order {n}: hits are not sorted distinct permutations")
            if any(not ref.dihedral_images(h) <= set(hits) for h in hits):
                bad.append(f"order {n}: hits are not closed under the 8 symmetries")
        return bad


def _check_verdict(verdict, k: int, want: dict | None = None) -> list[str]:
    exact, defect, dens = verdict
    share = Fraction(1, math.factorial(k))
    if not exact or sum(dens.values()) != 1 or len(dens) != math.factorial(k) \
            or defect != max(abs(v - share) for v in dens.values()):
        return [f"{k}-symmetry verdict is inconsistent"]
    if want is not None and dens != want:
        return [f"{k}-densities differ from the reference"]
    return []


def _check_marginal(dens4: dict, dens3: dict) -> list[str]:
    """For every permuton, t(s) = sum over 4-patterns p of occ(s, p)/4 t(p)."""
    for s, t in dens3.items():
        if sum(ref.sub_occurrences(s, p) * q for p, q in dens4.items()) / 4 != t:
            return ["4-densities do not marginalise to the 3-densities"]
    return []


def _grid_t12(cells) -> Fraction:
    """t(12) of a grid: two iid points are concordant; within a shared
    row or column the order is a fair coin, independently per axis."""
    half = Fraction(1, 2)
    total = Fraction(0)
    for (i, j), m in cells:
        for (i2, j2), m2 in cells:
            px = half if i == i2 else Fraction(int(i < i2))
            py = half if j == j2 else Fraction(int(j < j2))
            total += m * m2 * (px * py + (1 - px) * (1 - py))
    return total


WORKLOADS = {w.name: w for w in (FiniteDiagnose, PermutonMC, ExactCertify)}
