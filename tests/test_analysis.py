import hashlib
import math
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    AnalysisError, BracketingError, Budget, Perm, cs_chain, density_mc,
    find_b, find_nu, from_perm, identity_check, lemma_integrals, m_set,
    nu_mixture, segments_from_endpoints, t_id3_segment,
    uniform, convergence_experiment, PermError, PermutonError,
)
from permutons import analysis
from permutons.analysis import RootResult, _bracket_and_bisect
from permutons.discrepancy import PREFIX_BOUND_MAX_N

F = Fraction
ID3 = Perm((1, 2, 3))
grid_perms = st.integers(2, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(
        lambda v: from_perm(Perm(tuple(v))))


def test_budget_validation():
    with pytest.raises(AnalysisError):
        Budget(samples=0)
    with pytest.raises(AnalysisError):
        Budget(resolution=1)
    with pytest.raises(AnalysisError):
        Budget(mode="dream")


def test_uniform_integrals_exact():
    rep = lemma_integrals(uniform())
    assert rep.exact
    assert (rep.i1, rep.i2, rep.i3) == (F(1, 9), F(1, 9), F(1, 9))


def test_decreasing_pair_integrals_exact():
    rep = lemma_integrals(from_perm(Perm((2, 1))))
    assert (rep.i1, rep.i2, rep.i3) == (F(1, 36), F(5, 144), F(25, 288))


def test_mc_integrals_track_exact():
    mu = from_perm(Perm((3, 1, 2)))
    exact = lemma_integrals(mu)
    mc = lemma_integrals(mu, Budget(samples=300_000, seed=4, mode="mc"))
    assert not mc.exact
    for e, m, r in zip((exact.i1, exact.i2, exact.i3),
                       (mc.i1, mc.i2, mc.i3), mc.error_radius):
        assert abs(float(e) - m) < 4 * r


def test_segment_integrals_have_error_budget():
    rep = lemma_integrals(m_set(F(1, 2)), Budget(samples=200_000, seed=2))
    assert not rep.exact
    assert all(r > 0 for r in rep.error_radius)
    assert 0 < rep.i1 < 1 and 0 < rep.i3 < 1


@settings(max_examples=30, deadline=None)
@given(grid_perms)
def test_identity_exact_on_grids(mu):
    rep = identity_check(mu)
    assert rep.exact
    assert rep.lhs == rep.rhs
    assert rep.slack == 0


def test_identity_mc_on_segments():
    rep = identity_check(m_set(F(1, 3)), Budget(samples=400_000, seed=6))
    assert not rep.exact
    assert rep.passed


def test_chain_on_uniform_collapses():
    rep = cs_chain(uniform())
    assert all(s == 0 for s in rep.slacks.values())
    assert rep.quantities[0] == F(1, 81)
    assert rep.quantities[-1] == F(1, 81)


def test_chain_decreasing_pair_slacks():
    rep = cs_chain(from_perm(Perm((2, 1))))
    assert rep.slacks["cs1"] == F(1, 6912)
    assert rep.slacks["rewrite"] == F(7, 1728)
    assert rep.slacks["marginal"] == 0
    assert rep.slacks["cs2"] > 0
    assert rep.slacks["closing"] > 0
    assert rep.error_radius <= 1e-12


@settings(max_examples=25, deadline=None)
@given(grid_perms)
def test_universal_chain_steps_on_grids(mu):
    # cs1/cs2 are Cauchy-Schwarz, marginal vanishes for uniform marginals;
    # rewrite and closing carry no universal sign (see the id_2 case below)
    rep = cs_chain(mu)
    eps = rep.error_radius + 1e-12
    assert rep.slacks["cs1"] >= 0  # exact rational
    assert rep.slacks["marginal"] == 0
    assert rep.slacks["cs2"] >= -eps


def test_chain_signs_flip_for_increasing_pair():
    # i1 and i3 exceed 1/9 for mu_id2, so those two steps go negative
    rep = cs_chain(from_perm(Perm((1, 2))))
    assert rep.slacks["rewrite"] < 0
    assert rep.slacks["closing"] < 0
    assert rep.slacks["cs1"] >= 0
    assert rep.slacks["cs2"] >= -rep.error_radius - 1e-12


def test_chain_mc_error_propagation():
    mu = from_perm(Perm((2, 1)))
    exact = cs_chain(mu)
    mc = cs_chain(mu, Budget(samples=400_000, seed=12, mode="mc"))
    assert not mc.exact
    for a, b in zip(exact.quantities, mc.quantities):
        assert abs(float(a) - float(b)) < 5 * (mc.error_radius + 1e-9)


def test_id3_segment_exact_values():
    assert t_id3_segment(F(0)) == F(1, 4)
    assert t_id3_segment(F(1)) == F(1, 8)
    assert t_id3_segment(F(1, 2)) == F(21, 128)


def _id3_volumes(segs):
    """{(ia, ib, ic): volume of the segment parameters (ta, tb, tc) in [0, 1]^3
    whose points increase in x and y}, zero volumes dropped; slopes nonzero.
    At tb = u, ta (tc) ranges over [max lows, min ups] of affine bounds
    c0 + c1 u, so its length is affine between the crossings of its bounds
    and each piece's product integral is exact."""
    def side(seg, mid, above):
        lows, ups = [(F(0), F(0))], [(F(1), F(0))]
        for s0, s1, m0, m1 in ((seg.x0, seg.x1, mid.x0, mid.x1),
                               (seg.y0, seg.y1, mid.y0, mid.y1)):
            (lows if (s1 > s0) == above else ups).append(
                ((m0 - s0) / (s1 - s0), (m1 - m0) / (s1 - s0)))
        cross = {(b0 - a0) / (a1 - b1)
                 for (a0, a1), (b0, b1) in combinations(lows + ups, 2) if a1 != b1}
        cuts = {F(0), F(1)} | {t for t in cross if 0 < t < 1}
        length = cache(lambda u: max(F(0), min(c0 + c1 * u for c0, c1 in ups)
                                     - max(c0 + c1 * u for c0, c1 in lows)))
        return (length, cuts) if any(map(length, cuts)) else None

    pairs = [{(i, j): side(s, t, above)
              for (i, s), (j, t) in product(enumerate(segs), repeat=2)}
             for above in (False, True)]
    table = {}
    for ia, ib, ic in product(range(len(segs)), repeat=3):
        if pairs[0][ia, ib] is None or pairs[1][ic, ib] is None:
            continue
        (la, ca), (lc, cc) = pairs[0][ia, ib], pairs[1][ic, ib]
        cuts = sorted(ca | cc)
        vol = sum((hi - lo) / 6 * (la(lo) * (2 * lc(lo) + lc(hi))
                                   + la(hi) * (lc(lo) + 2 * lc(hi)))
                  for lo, hi in zip(cuts, cuts[1:]))
        if vol:
            table[ia, ib, ic] = vol
    return table


def test_id3_closed_form_matches_the_volume_engine():
    # a = i/24 crosses the chamber wall at 2/3; the rest are off-grid rationals
    rng = np.random.default_rng(2024)
    points = [F(i, 24) for i in range(25)] + [F(3083, 6400)]
    for _ in range(10):
        den = int(rng.integers(2, 10 ** 6 + 1))
        points.append(F(int(rng.integers(0, den + 1)), den))
    for a in points:
        segs = m_set(a).segments
        oracle = 6 * sum(segs[ia].mass * segs[ib].mass * segs[ic].mass * vol
                         for (ia, ib, ic), vol in _id3_volumes(segs).items())
        assert t_id3_segment(a) == oracle == (4 - 3 * a + a ** 3) / 16


def test_nu_closed_form_matches_the_volume_engine():
    # C_j sums 6 w w w vol over the union's triples holding j m_set(0) segments
    seg0 = m_set(0).segments
    union = seg0 + m_set(1).segments
    coeffs = [F(0)] * 4
    for (ia, ib, ic), vol in _id3_volumes(union).items():
        j = (ia < len(seg0)) + (ib < len(seg0)) + (ic < len(seg0))
        coeffs[j] += 6 * union[ia].mass * union[ib].mass * union[ic].mass * vol
    assert coeffs == [F(1, 8), F(7, 16), F(9, 16), F(1, 4)]
    for a in (F(0), F(1), F(1, 2), F(1, 3), F(183, 400), F(7, 9), F(3083, 6400)):
        cubic = sum(c * a ** j * (1 - a) ** (3 - j) for j, c in enumerate(coeffs))
        assert cubic == (2 + a + a * a) / 16


def test_id3_segment_refuses_what_m_set_refuses():
    for bad in (F(3, 2), "x"):
        with pytest.raises(PermutonError) as want:
            m_set(bad)
        with pytest.raises(PermutonError) as got:
            t_id3_segment(bad)
        assert str(got.value) == str(want.value)


def _scan_digest(r: RootResult) -> str:
    return hashlib.sha256(repr(r.scan).encode()).hexdigest()


def test_find_b_and_find_nu_results_are_pinned():
    # recorded from the polytope-volume engine before t(id3, m_set(a)) and
    # the nu cubic were evaluated in closed form
    b = find_b()
    assert (b.value, b.t_value, b.evaluations, b.bracket) == (
        F(3083, 6400), F(699040532787, 4194304000000), 56,
        (F(1541, 3200), F(3083, 6400)))
    assert len(b.scan) == 50 and _scan_digest(b) == (
        "4b0f1102dc2684915c1076e006658a30777ad55030bb59bfac63c5cdb0a92b74")
    nu = find_nu()
    assert (nu.value, nu.t_value, nu.evaluations, nu.bracket) == (
        F(183, 400), F(426689, 2560000), 49, (F(91, 200), F(183, 400)))
    assert len(nu.scan) == 47 and _scan_digest(nu) == (
        "e37c91c283ba8fcd0173a7402b9bd6e1eeef1d66bbd6fc1d851c6f46511af42e")


def test_id3_mc_agrees_with_exact():
    a = F(2, 5)
    exact = float(t_id3_segment(a))
    est, ci = density_mc(ID3, m_set(a), 300_000, seed=3)
    assert abs(est - exact) < 4 * ci


def test_find_b_hits_tolerance():
    r = find_b(1e-5)
    assert r.value == F(3083, 6400)
    assert abs(r.t_value - F(1, 6)) <= 1e-5
    assert r.bracket[0] <= r.value <= r.bracket[1]
    assert find_b(1e-5).value == r.value  # deterministic


def test_find_nu_hits_tolerance():
    r = find_nu(1e-4)
    assert abs(r.t_value - F(1, 6)) <= 1e-4
    assert 0 < r.value < 1


@pytest.mark.parametrize("finder", [find_b, find_nu])
@pytest.mark.parametrize("tol", [0.0, -1e-5, float("nan"), float("-inf")])
def test_root_finders_refuse_every_tol_not_above_zero(finder, tol):
    # NaN compares False both ways, so a bare "tol <= 0" check let it bisect
    with pytest.raises(AnalysisError, match="tol must be positive"):
        finder(tol)


def test_nu_mixture_endpoints():
    lo, _ = density_mc(ID3, nu_mixture(0), 200_000, seed=14)
    hi, _ = density_mc(ID3, nu_mixture(1), 200_000, seed=14)
    assert abs(lo - 1 / 8) < 0.01  # weight 0 leaves only the diamond part
    assert abs(hi - 1 / 4) < 0.01
    with pytest.raises(AnalysisError):
        nu_mixture(F(3, 2))


def test_bracketing_failure_is_distinguished():
    with pytest.raises(BracketingError):
        _bracket_and_bisect(lambda a: F(1, 4), 1e-6, "test target")


def test_convergence_experiment_rows():
    rows = convergence_experiment(m_set(F(1, 2)), 3, (30, 80), seed=21)
    assert [r.n for r in rows] == sorted(r.n for r in rows)
    by_n = {}
    for r in rows:
        assert len(r.pattern) == 3
        assert 0 <= r.density <= 1
        assert r.discrepancy <= r.bound + 1e-12
        by_n.setdefault(r.n, 0)
        by_n[r.n] += r.density
    for n, total in by_n.items():
        assert total == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(AnalysisError):
        convergence_experiment(uniform(), 3, (50, 20))
    with pytest.raises(AnalysisError):
        convergence_experiment(uniform(), 3, (2,))


def test_convergence_experiment_refuses_sizes_past_the_prefix_bound(monkeypatch):
    def no_sampling(*_):
        raise AssertionError("sampled before the size check")
    monkeypatch.setattr(analysis, "sample_patterns", no_sampling)
    with pytest.raises(AnalysisError, match=f"above {PREFIX_BOUND_MAX_N}"):
        convergence_experiment(uniform(), 3, (30, PREFIX_BOUND_MAX_N + 1))


@pytest.mark.parametrize("k, sizes", [(5, (60, 61)), (4, (5000, 10001))])
def test_convergence_experiment_refuses_counting_sizes_before_sampling(
        monkeypatch, k, sizes):
    def no_sampling(*_):
        raise AssertionError("sampled before the size check")
    monkeypatch.setattr(analysis, "sample_patterns", no_sampling)
    with pytest.raises(PermError, match=rf"^k = {k} exact profiles limited to "
                                        rf"\|tau\| <= {sizes[-1] - 1}$"):
        convergence_experiment(uniform(), k, sizes)


def test_quadrature_resolution_is_refused_before_any_sampling(monkeypatch):
    limit = analysis.QUADRATURE_MAX_RESOLUTION
    calls = []
    monkeypatch.setattr(analysis, "_mc_cdf_means",
                        lambda mu, draw, gs, *a: calls.append("mc") or [(0.0, 0.0)] * len(gs))
    monkeypatch.setattr(analysis, "_quad_f2_lambda",
                        lambda mu, r: calls.append(r) or (0.0, 0.0))
    window = m_set(F(1, 2))
    assert lemma_integrals(window, Budget(resolution=limit)).methods[2] == "quadrature"
    assert calls == ["mc", limit]
    calls.clear()
    for budget in (Budget(resolution=limit + 1), Budget(resolution=20000)):
        with pytest.raises(AnalysisError, match=rf"^quadrature resolution "
                                                rf"{budget.resolution} is over"):
            lemma_integrals(window, budget)
        with pytest.raises(AnalysisError):
            cs_chain(window, budget)
    assert calls == []
    # no quadrature runs on the exact grid path or under mode="mc"
    assert lemma_integrals(from_perm(Perm((2, 1))), Budget(resolution=20000)).exact
    rep = lemma_integrals(window, Budget(samples=100, resolution=20000, mode="mc"))
    assert rep.methods == ("mc", "mc", "mc")


def test_convergence_beyond_the_exact_limit_reads_the_grid_discrepancy(monkeypatch):
    # the diagonal's every sample is the identity, whose discrepancy at odd
    # n = 2m + 1 is m (m + 1) / n^2, a quarter of its prefix bound
    n = analysis.EXACT_DISCREPANCY_LIMIT + 1
    modes = []
    real = analysis.discrepancy

    def spy(tau, mode, **kw):
        modes.append(mode)
        return real(tau, mode=mode, **kw)

    monkeypatch.setattr(analysis, "discrepancy", spy)
    rows = convergence_experiment(segments_from_endpoints([(0, 0, 1, 1)]), 2, [n])
    assert modes == ["grid", "prefix_bound"]
    m = n // 2
    assert [(r.pattern, r.density) for r in rows] == [(Perm((1, 2)), 1.0),
                                                      (Perm((2, 1)), 0.0)]
    for r in rows:
        assert r.discrepancy == m * (m + 1) / n ** 2
        assert r.bound == pytest.approx(4 * m * (m + 1) / n ** 2, rel=1e-12)
