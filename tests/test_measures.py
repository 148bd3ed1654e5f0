import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    GridPermuton, MixturePermuton, Perm, PermutonError, Segment,
    SegmentPermuton, cdf, cdf_grid, density_exact_grid, density_mc,
    discrepancy, discrepancy_permuton, event_prob_mc, from_perm, inversions,
    m_set, marginal_check, moment, pattern_histogram_mc, sample_patterns,
    sample_perm, segments_from_endpoints, uniform,
)
from permutons.measures import _density_grid_multiset, cdf_many

from conftest import random_perm

F = Fraction
perms46 = st.integers(4, 6).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(lambda v: Perm(tuple(v)))


# ---------------------------------------------------------------------------
# construction and marginals


def test_grid_rejects_bad_row_sums():
    with pytest.raises(PermutonError):
        GridPermuton(2, {(1, 1): F(1, 2), (2, 2): F(1, 4)})
    with pytest.raises(PermutonError):
        GridPermuton(2, {(1, 1): F(1, 4), (1, 2): F(1, 4),
                         (2, 1): F(1, 2)})
    # the diagonal grid is a valid permuton
    GridPermuton(2, {(1, 1): F(1, 2), (2, 2): F(1, 2)})


def test_from_perm_cells():
    mu = from_perm(Perm((2, 1)))
    assert mu.cells == {(1, 2): F(1, 2), (2, 1): F(1, 2)}
    assert mu.permutation == Perm((2, 1))
    assert uniform().permutation == Perm((1,))


def test_segment_masses_must_total_one():
    with pytest.raises(PermutonError):
        SegmentPermuton((Segment(F(0), F(0), F(1), F(1), F(1, 2)),))
    with pytest.raises(PermutonError):
        SegmentPermuton((Segment(F(0), F(0), F(2), F(1), F(1)),))


def test_segments_from_endpoints_length_weighting():
    mu = segments_from_endpoints([(0, 0, F(1, 2), F(1, 2)),
                                  (F(1, 2), 1, 1, F(1, 2))])
    assert [s.mass for s in mu.segments] == [F(1, 2), F(1, 2)]


def test_mixture_weights_must_total_one():
    with pytest.raises(PermutonError):
        MixturePermuton((uniform(), uniform()), (F(1, 2), F(1, 3)))


def test_m_set_segment_counts():
    assert len(m_set(F(0)).segments) == 2
    assert len(m_set(F(1)).segments) == 4
    assert len(m_set(F(1, 2)).segments) == 8
    assert sum(s.mass for s in m_set(F(1, 3)).segments) == 1


@pytest.mark.parametrize("a", [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])
def test_m_set_marginals_uniform(a):
    rep = marginal_check(m_set(a), 64, 1e-12)
    assert rep.passed, (a, rep.max_deviation)


def test_grid_strip_masses_match_per_strip_definition():
    # a strip's mass is each lane's mass times the share of the lane it covers
    cells = {(1, 1): F(1, 12), (1, 2): F(1, 4), (2, 1): F(1, 4),
             (2, 3): F(1, 12), (3, 2): F(1, 12), (3, 3): F(1, 4)}
    mu = GridPermuton(3, cells)
    for resolution in (2, 4, 5, 7, 10, 101):
        for axis, key in (("x", 0), ("y", 1)):
            want = []
            for s in range(1, resolution + 1):
                lo, hi = F(s - 1, resolution), F(s, resolution)
                total = F(0)
                for cell, m in cells.items():
                    a, b = F(cell[key] - 1, 3), F(cell[key], 3)
                    total += m * max(min(hi, b) - max(lo, a), F(0)) * 3
                want.append(total)
            assert mu.strip_masses(resolution, axis) == want, (resolution, axis)


def test_marginal_check_flags_bad_axis():
    bad = SegmentPermuton((Segment(F(0), F(0), F(1), F(1, 2), F(1)),))
    rep = marginal_check(bad, 10, 1e-9)
    assert not rep.passed
    assert rep.axis == "y"


# ---------------------------------------------------------------------------
# cdf / moments


def test_uniform_cdf_and_moment():
    lam = uniform()
    assert cdf(lam, F(1, 2), F(1, 2)) == F(1, 4)
    assert cdf(lam, 1, 1) == 1
    assert moment(lam, 1, 1) == F(1, 4)
    assert moment(lam, 2, 0) == F(1, 3)


def test_grid_cdf_known_values():
    mu = from_perm(Perm((2, 1)))
    assert cdf(mu, F(1, 2), F(1, 2)) == 0
    assert cdf(mu, 1, F(1, 2)) == F(1, 2)
    assert cdf(mu, F(3, 4), F(3, 4)) == F(1, 2)
    assert moment(mu, 2, 2) == F(7, 144)


def test_m_set_cdf_center():
    assert cdf(m_set(F(0)), F(1, 2), F(1, 2)) == F(1, 4)
    # the whole lower-left diamond side sits inside the quarter square
    assert cdf(m_set(F(1)), F(1, 2), F(1, 2)) == F(1, 4)
    assert cdf(m_set(F(1)), F(1, 4), F(1, 4)) == 0


def test_mixture_cdf_is_convex_combination():
    mix = MixturePermuton((m_set(F(0)), m_set(F(1))), (F(1, 3), F(2, 3)))
    a, b = F(3, 10), F(4, 5)
    want = F(1, 3) * cdf(m_set(F(0)), a, b) + F(2, 3) * cdf(m_set(F(1)), a, b)
    assert cdf(mix, a, b) == want


@settings(max_examples=25, deadline=None)
@given(perms46, st.integers(1, 7), st.integers(1, 7))
def test_grid_cdf_matches_cell_sum(tau, ai, bi):
    mu = from_perm(tau)
    a, b = F(ai, 8), F(bi, 8)
    total = sum(
        m * max(F(0), min(F(1), (a - F(i - 1, mu.n)) * mu.n))
        * max(F(0), min(F(1), (b - F(j - 1, mu.n)) * mu.n))
        for (i, j), m in mu.cells.items()
    )
    assert cdf(mu, a, b) == total


def test_cdf_grid_matches_pointwise():
    for mu in (from_perm(Perm((3, 1, 2))), m_set(F(1, 2))):
        r = 8
        grid = cdf_grid(mu, r)
        for i in (0, 3, 8):
            for j in (0, 5, 8):
                assert grid[i, j] == pytest.approx(
                    float(cdf(mu, F(i, r), F(j, r))), abs=1e-12)


def test_cdf_many_matches_cdf():
    rng = np.random.default_rng(5)
    # not a permutation's grid: cell (1, 1) carries a whole row's mass
    heavy = GridPermuton(3, {(1, 1): F(1, 3), (2, 2): F(1, 6), (2, 3): F(1, 6),
                             (3, 2): F(1, 6), (3, 3): F(1, 6)})
    grid_mixture = MixturePermuton((from_perm(Perm((2, 4, 1, 3))), m_set(F(1, 3))),
                                   (F(1, 4), F(3, 4)))
    # (permuton, n): cell boundaries and segment ends lie on the 1/n lines
    cases = ((from_perm(Perm((2, 4, 1, 3))), 4), (m_set(F(1, 3)), 6),
             (MixturePermuton((m_set(F(0)), uniform()), (F(1, 2), F(1, 2))), 2),
             (from_perm(random_perm(rng, 400)), 400), (heavy, 3), (uniform(), 1),
             (grid_mixture, 12))
    for mu, n in cases:
        # random points, each 1/n line against random partners, the corners
        ticks = np.arange(n + 1) / n
        xs = np.concatenate([rng.random(200), ticks, rng.random(n + 1), [0, 0, 1, 1]])
        ys = np.concatenate([rng.random(200), rng.random(n + 1), ticks, [0, 1, 0, 1]])
        got = cdf_many(mu, xs, ys)
        want = [float(cdf(mu, F(x), F(y))) for x, y in zip(xs, ys)]
        assert np.allclose(got, want, rtol=0, atol=1e-12)
    with np.errstate(invalid="ignore"):
        got = cdf_many(cases[0][0], np.array([np.nan, 0.5]), np.array([0.5, np.nan]))
    assert np.isnan(got).all()


def test_cdf_grid_is_cdf_many_on_ticks():
    rng = np.random.default_rng(23)
    mixture = MixturePermuton((m_set(F(1)), from_perm(random_perm(rng, 7))),
                              (F(2, 5), F(3, 5)))
    r = 30
    ticks = np.linspace(0.0, 1.0, r + 1)
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    for mu in (from_perm(random_perm(rng, 50)), m_set(F(1, 2)), mixture):
        want = cdf_many(mu, gx.ravel(), gy.ravel()).reshape(r + 1, r + 1)
        assert np.array_equal(cdf_grid(mu, r), want)


def test_cdf_many_grid_never_builds_dense_table():
    # a dense (n+1)^2 float table alone would take 72 MB
    rng = np.random.default_rng(3)
    mu = from_perm(random_perm(rng, 3000))
    xs, ys = rng.random(100_000), rng.random(100_000)
    tracemalloc.start()
    try:
        got = cdf_many(mu, xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # the table is swept in many blocks at this size; spot-check the values
    want = [float(cdf(mu, F(x), F(y))) for x, y in zip(xs[:20], ys[:20])]
    assert np.allclose(got[:20], want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# exact grid densities


def test_collision_fixed_points():
    assert density_exact_grid(Perm((1, 2)), from_perm(Perm((2, 1)))) == F(1, 4)
    assert density_exact_grid(Perm((1, 2, 3)), from_perm(Perm((1, 2)))) == F(5, 12)
    assert density_exact_grid(Perm((1, 3, 2)), from_perm(Perm((1, 2)))) == F(11, 48)
    assert density_exact_grid(Perm((1, 2)), from_perm(Perm((3, 1, 2)))) == F(7, 18)


@given(perms46)
def test_l2_density_law(tau):
    # t(12, mu_tau) = (2/n^2) (occ_12(tau) + n/4)
    n = len(tau)
    occ12 = math.comb(n, 2) - inversions(tau.images)
    want = F(2, n * n) * (occ12 + F(n, 4))
    assert density_exact_grid(Perm((1, 2)), from_perm(tau)) == want


def test_decomposition_agrees_with_multiset_oracle_exhaustive():
    for n in (2, 3, 4):
        for tau in itertools.permutations(range(1, n + 1)):
            mu = from_perm(Perm(tau))
            for k in (2, 3):
                for pi in itertools.permutations(range(1, k + 1)):
                    p = Perm(pi)
                    assert density_exact_grid(p, mu) == \
                        _density_grid_multiset(p, mu), (pi, tau)


def test_decomposition_agrees_with_multiset_oracle_k4(rng):
    for _ in range(6):
        tau = random_perm(rng, int(rng.integers(4, 7)))
        pi = random_perm(rng, 4)
        mu = from_perm(tau)
        assert density_exact_grid(pi, mu) == _density_grid_multiset(pi, mu)


@given(perms46)
def test_grid_densities_sum_to_one(tau):
    mu = from_perm(tau)
    for k in (2, 3):
        total = sum(density_exact_grid(Perm(p), mu)
                    for p in itertools.permutations(range(1, k + 1)))
        assert total == 1


def test_density_exact_grid_rejects_large_patterns():
    with pytest.raises(PermutonError):
        density_exact_grid(Perm((1, 2, 3, 4, 5)), uniform())


# ---------------------------------------------------------------------------
# sampling


def test_sample_patterns_reproducible():
    mu = m_set(F(1, 2))
    a = sample_patterns(mu, 4, 6, np.random.default_rng(42))
    b = sample_patterns(mu, 4, 6, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert a.shape == (6, 4)
    assert sorted(a[0]) == [1, 2, 3, 4]


def test_sample_perm_from_grid_matches_density():
    mu = from_perm(Perm((2, 1)))
    hist = pattern_histogram_mc(mu, 2, 40_000, seed=9)
    frac = hist[(1, 2)] / 40_000
    # t(12, mu_21) = 1/4
    assert abs(frac - 0.25) < 0.012


def test_density_mc_agrees_with_exact():
    mu = from_perm(Perm((3, 1, 2)))
    exact = float(density_exact_grid(Perm((1, 2)), mu))
    est, ci = density_mc(Perm((1, 2)), mu, 60_000, seed=31)
    assert abs(est - exact) < 4 * ci


def test_density_mc_zero_hits_keeps_an_interval():
    identity = SegmentPermuton((Segment(0, 0, 1, 1, 1),))
    est, ci = density_mc((2, 1), identity, 2_000, seed=4)
    assert est == 0.0 and ci > 0
    est, ci = density_mc((1, 2), identity, 2_000, seed=4)
    assert est == 1.0 and ci > 0


def test_event_prob_symmetrizes_to_density():
    # summing the raw event over all position patterns recovers t(pi, mu)
    mu = from_perm(Perm((2, 1)))
    pi = Perm((1, 2))
    total = 0.0
    for rho in itertools.permutations((1, 2)):
        sigma = tuple(pi.images[r - 1] for r in rho)
        est, _ = event_prob_mc(mu, rho, sigma, 30_000, seed=13)
        total += est
    assert abs(total - 0.25) < 0.02


def test_sample_perm_basic():
    p = sample_perm(uniform(), 50, np.random.default_rng(0))
    assert len(p) == 50


# ---------------------------------------------------------------------------
# permuton discrepancy


def test_permuton_discrepancy_matches_flat_grid():
    tau = Perm((3, 1, 4, 2, 5))
    want = discrepancy(tau).value
    got = discrepancy_permuton(from_perm(tau), 100)
    assert abs(got.lower - want) < 1e-12
    assert got.upper >= got.lower
    assert got.certified_upper >= got.upper


def test_permuton_discrepancy_uniform_is_tiny():
    res = discrepancy_permuton(uniform(), 64)
    assert res.lower < 1e-12


def test_m_set_discrepancy_sandwich():
    res = discrepancy_permuton(m_set(F(0)), 128)
    assert res.lower == pytest.approx(0.25, abs=1e-12)
    assert res.lower <= 4 * res.sup_dev + 1e-9
