"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import references as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from permutons import (  # noqa: E402
    GridPermuton, cdf, counting, density_exact_grid, discrepancy, discrepancy_brute, from_perm,
    lemma_integrals, m_set, moment, nu_mixture,
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# layers each workload must reach at tiny sizes
EXERCISED = {
    "finite-diagnose": ("counting.profile3.items", "counting.profile4.items",
                        "discrepancy.exact.busy_s", "discrepancy.prefix_bound.busy_s",
                        "discrepancy.grid.busy_s", "perms.all_densities.self_s"),
    "permuton-mc": ("measures.pattern_histogram_mc.busy_s", "measures.mc.samples",
                    "measures.mc.samples_per_s", "measures.cdf_many.points",
                    "measures.discrepancy_permuton.busy_s", "symmetry.symmetry_defect.self_s",
                    "analysis.lemma_integrals.mc.busy_s", "analysis.identity_check.busy_s",
                    "permuton_io.parse.bytes", "cli.main.calls", "cli.main.output_bytes",
                    "cli.main.self_s"),
    "exact-certify": ("counting.profile_small.calls", "perms.density_exact.busy_s",
                      "measures.density_exact_grid.calls", "symmetry.search.candidates",
                      "symmetry.search.candidates_per_s",
                      "symmetry.is_inflatable.busy_s", "analysis.lemma_integrals.exact.busy_s",
                      "analysis.cs_chain.self_s", "analysis.find_b.evaluations",
                      "analysis.find_nu.evaluations", "analysis.t_id3_segment.busy_s"),
}
SECONDS = {"finite-diagnose": 1.0, "permuton-mc": 1.5, "exact-certify": 3.0}


def tiny_run(name, seed, trace, workdir, seconds=None):
    return run.run(name, seed, seconds or SECONDS[name], trace, str(workdir),
                   sizes=workloads.WORKLOADS[name].TINY_SIZES)


def test_tail_rule_on_known_lists():
    assert run.tail_latency(list(range(1, 101))) == (90, 90.0)
    value, pct = run.tail_latency([5.0] * 3 + [1.0] * 8)
    assert value == 1.0 and pct == pytest.approx(100 / 11)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    xs = list(np.random.default_rng(0).permutation(40) + 1)
    value, pct = run.tail_latency(xs)
    assert sum(x > value for x in xs) == 10 and pct == 75.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_prints_every_metric_and_traces_without_changing_outputs(name, tmp_path):
    plain = tiny_run(name, 5, False, tmp_path)
    traced = tiny_run(name, 5, True, tmp_path)
    for res, spec in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res["failures"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec}
        assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    assert all(plain["metrics"][k]["value"] > 0 for k in plain["metrics"])
    cls = workloads.WORKLOADS[name]
    w = cls(str(tmp_path / "cycle"), **cls.TINY_SIZES)
    w.setup(5)
    assert plain["attempted"] % len(w.cycle) == 0   # whole passes only
    for metric in EXERCISED[name]:
        assert traced["metrics"][metric]["value"] > 0, metric
    common = min(len(plain["outputs"]), len(traced["outputs"]))
    assert common >= 2 and plain["outputs"][:common] == traced["outputs"][:common]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_and_outputs(name, tmp_path):
    def first_outputs(seed):
        cls = workloads.WORKLOADS[name]
        w = cls(str(tmp_path / str(seed)), **cls.TINY_SIZES)
        w.setup(seed)
        jobs = w.cycle[:4]
        return [j.key for j in jobs], [j.run() for j in jobs if j.exact]

    first = first_outputs(11)
    assert first == first_outputs(11)
    assert first != first_outputs(12)


def _first(name, tmp_path, kind=None):
    cls = workloads.WORKLOADS[name]
    w = cls(str(tmp_path), **cls.TINY_SIZES)
    w.setup(3)
    job = next(j for j in w.cycle if kind in (None, j.kind))
    out = job.run()
    assert w.check(job, out) == []
    return w, job, out


def test_corrupted_outputs_count_as_failures(tmp_path):
    w, job, out = _first("finite-diagnose", tmp_path)
    bad = dict(out, d4=dict(out["d4"]))
    p, q = (1, 2, 3, 4), (2, 1, 3, 4)
    step = Fraction(1, math.comb(len(out["hosts"][0]), 4))
    bad["d4"][p] += step
    bad["d4"][q] -= step
    assert w.check(job, bad)
    assert len(run.check_outputs(w, [(job, out, None, 0.1), (job, bad, None, 0.1)])) == 1
    g_num, g_lo, g_hi = out["grid"]
    n = len(out["hosts"][0])
    assert w.check(job, dict(out, grid=(g_num + 1, (g_num + 1) / n**2, g_hi)))

    w, job, out = _first("permuton-mc", tmp_path / "mc")
    i1, i2, i3, methods, radius = out["li"]
    assert w.check(job, dict(out, li=(i1 + 0.05, i2, i3, methods, radius)))

    w, job, out = _first("exact-certify", tmp_path, kind="search")
    n = next(iter(out["found"]))
    fake = tuple(range(1, n + 1))
    assert w.check(job, dict(out, found={n: ((fake, False),)}))
    w, job, out = _first("exact-certify", tmp_path, kind="find_b")
    value, t, evals = out["b"]
    assert w.check(job, dict(out, b=(value + Fraction(1, 6400), t, evals)))
    w, job, out = _first("exact-certify", tmp_path, kind="roots")
    a, t = next(iter(out["t"].items()))
    assert w.check(job, dict(out, t={a: t + Fraction(1, 20)}))


def test_references_agree_with_the_program_oracles():
    rng = np.random.default_rng(7)
    for n in (5, 9, 12):
        tau = tuple(int(v) + 1 for v in rng.permutation(n))
        assert ref.profile3(tau) == counting.profile_naive(tau, 3)
        assert ref.discrepancy_numerator(tau) == discrepancy_brute(tau).numerator
        for r in (2, 4, 7, n):
            assert ref.grid_numerator(tau, r) == discrepancy(tau, mode="grid",
                                                             resolution=r).numerator
        assert ref.grid_numerator(tau, n) == ref.discrepancy_numerator(tau)
        grid = np.arange(n + 1)
        N = ref.prefix_counts(np.array(tau))
        assert ref.prefix_numerator(tau) == max(
            abs(n * int(N[a, b]) - a * b) for a in grid for b in grid)
        p4 = counting.profile_naive(tau, 4)
        assert ref.profile4_violations(tau, p4, ref.profile3(tau)) == []
        moved = dict(p4)
        moved[(1, 2, 3, 4)] += 1
        moved[(4, 3, 2, 1)] -= 1
        assert ref.profile4_violations(tau, moved, ref.profile3(tau))
        profs = {k: counting.profile_naive(tau, k) for k in range(1, 5)}
        mu = from_perm(tau)
        for p in counting.all_patterns(4)[:6] + counting.all_patterns(3):
            assert ref.flat_grid_density(p, n, profs) == density_exact_grid(p, mu)
        rep = lemma_integrals(mu)
        i1, i2, i3, m22 = ref.flat_grid_integrals(tau, exact=True)
        assert (rep.i1, rep.i2, rep.i3, m22) == (i1, i2, i3, moment(mu, 2, 2))
        floats = ref.flat_grid_integrals(tau, exact=False)
        assert np.allclose(floats, [float(x) for x in (i1, i2, i3, m22)], rtol=0, atol=1e-14)


def test_reference_cdfs_match_the_exact_cdf():
    ticks = np.linspace(0, 1, 7)
    for mu in (m_set(Fraction(3083, 6400)), nu_mixture(Fraction(1, 3))):
        F = ref.segment_cdf(ref.segment_table(mu), ticks[:, None], ticks[None, :])
        exact = [[float(cdf(mu, Fraction(i, 6), Fraction(j, 6))) for j in range(7)]
                 for i in range(7)]
        assert np.allclose(F, exact, atol=1e-12)
    tau = (3, 1, 4, 2, 5)
    F = ref.grid_cdf_ticks(tau, ticks)
    mu = from_perm(tau)
    assert np.allclose(F, [[float(cdf(mu, Fraction(i, 6), Fraction(j, 6))) for j in range(7)]
                           for i in range(7)], atol=1e-12)
    cells = ((1, 1), Fraction(1, 4)), ((1, 2), Fraction(1, 4)), ((2, 1), Fraction(1, 4)), \
        ((2, 2), Fraction(1, 4))
    skew = ((1, 1), Fraction(1, 3)), ((1, 2), Fraction(1, 6)), ((2, 1), Fraction(1, 6)), \
        ((2, 2), Fraction(1, 3))
    for c in (cells, skew):
        assert workloads._grid_t12(c) == density_exact_grid((1, 2), GridPermuton(2, dict(c)))


def test_child_set_up_reports_its_time_to_the_first_job():
    assert 0 < run.child_setup_s("finite-diagnose", 1) < 60


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "finite-diagnose",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout
