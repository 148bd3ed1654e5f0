import itertools
import math
import re
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
from permutons.counting import pattern_index, row_ranks
from permutons.measures import (
    _CDF_BLOCK, MARGINAL_MAX_RESOLUTION, MarginalReport, _guide_table,
    _multiset_densities, _pick_cells, _sample_rows, _t_fraction_inside, cdf_many,
)
from permutons.perms import mc_chunks
from permutons.permuton_io import parse_permuton

from conftest import FIXTURES, random_perm

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


@pytest.mark.parametrize("cells, message", [
    ({(1, 1): F(1, 2), (2, 2): F(1, 4)}, "row 2 mass 1/4 != 1/2"),
    ({(1, 1): F(1, 4), (1, 2): F(1, 4), (2, 1): F(1, 2)}, "column 1 mass 3/4 != 1/2"),
    ({(1, 1): F(1, 2), (1, 2): F(1, 2)}, "row 1 mass 1 != 1/2"),
    ({(1, 1): F(1, 6), (1, 2): F(1, 3), (2, 2): F(1, 10)}, "column 1 mass 1/6 != 1/2"),
    ({(1, 1): F(1, 2)}, "row 2 mass 0 != 1/2"),
])
def test_grid_names_the_first_uneven_lane_with_its_exact_mass(cells, message):
    with pytest.raises(PermutonError) as exc:
        GridPermuton(2, cells)
    assert str(exc.value) == f"{message} (non-uniform marginal)"


@pytest.mark.parametrize("n, cells", [
    (1, {(1, 1): 1}),
    (1, {(1, 1): 1.0}),
    (2, {(1, 1): 0.5, (2, 2): F(1, 2)}),
    (2, {(1, 2): 0.25, (1, 1): 0.25, (2, 1): F(1, 4), (2, 2): F(1, 4)}),
    (2, {(1, 1): F(1, 2), (2, 2): 0.5, (1, 2): 0}),
])
def test_grid_reads_int_float_and_fraction_masses_exactly(n, cells):
    mu = GridPermuton(n, cells)
    assert mu.cells == {c: F(m) for c, m in cells.items()}
    assert all(type(m) is F for m in mu.cells.values())


@pytest.mark.parametrize("n, cells, message", [
    (1, {(1, 1): "1"}, "expected a number, got '1'"),
    (1, {(1, 1): None}, "expected a number, got None"),
    (1, {(1,): 1}, "cell (1,) is not a pair of integers"),
    (1, {(1, 1.0): 1}, "cell (1, 1.0) is not a pair of integers"),
    (1, {"11": 1}, "cell '11' is not a pair of integers"),
    (2.0, {(1, 1): F(1, 2), (2, 2): F(1, 2)}, "grid size must be an integer, got 2.0"),
    (None, {(1, 1): 1}, "grid size must be an integer, got None"),
])
def test_grid_refuses_odd_input_with_a_permuton_error(n, cells, message):
    with pytest.raises(PermutonError) as exc:
        GridPermuton(n, cells)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-12, float("-inf")])
def test_marginal_check_refuses_tol_below_zero_before_any_strip_mass(tol, monkeypatch):
    # NaN compares False both ways, so every deviation "failed" against it
    def no_strips(*_):
        raise AssertionError("strip masses computed before the tol check")
    monkeypatch.setattr(SegmentPermuton, "strip_masses", no_strips)
    with pytest.raises(PermutonError, match="tol must be >= 0"):
        marginal_check(m_set(F(1, 2)), 64, tol)


def test_marginal_check_flags_bad_axis():
    bad = SegmentPermuton((Segment(F(0), F(0), F(1), F(1, 2), F(1)),))
    rep = marginal_check(bad, 10, 1e-9)
    assert not rep.passed
    assert rep.axis == "y"


def test_marginal_check_refuses_resolution_past_the_limit_before_any_strip_mass(
        monkeypatch):
    calls = []
    monkeypatch.setattr(SegmentPermuton, "strip_masses",
                        lambda _mu, r, axis: calls.append((r, axis)) or [])
    marginal_check(m_set(F(1, 2)), MARGINAL_MAX_RESOLUTION, 1e-9)
    assert calls == [(MARGINAL_MAX_RESOLUTION, "x"), (MARGINAL_MAX_RESOLUTION, "y")]
    for resolution in (MARGINAL_MAX_RESOLUTION + 1, 10 ** 9):
        with pytest.raises(PermutonError,
                           match="over the limit MARGINAL_MAX_RESOLUTION = 100000"):
            marginal_check(m_set(F(1, 2)), resolution, 1e-9)
    assert len(calls) == 2


@pytest.mark.parametrize("resolution", [10.0, 2.5, "10", F(10)])
def test_marginal_check_refuses_non_integer_resolutions(resolution):
    # 10.0 raised a TypeError from Fraction
    with pytest.raises(PermutonError, match=re.escape(f"must be an integer, got {resolution!r}")):
        marginal_check(m_set(F(0)), resolution, 0.0)


@pytest.mark.parametrize("resolution", [1, 0, -3])
def test_marginal_check_refuses_resolutions_below_two(resolution):
    with pytest.raises(PermutonError, match="resolution must be >= 2"):
        marginal_check(m_set(F(0)), resolution, 0.0)


# strip masses against the per-cut oracle: the prefix mass at every cut,
# summed piece by piece (the loop strip_masses ran before its sweep)


def _oracle_prefix(mu, c: Fraction, axis: str) -> Fraction:
    if isinstance(mu, MixturePermuton):
        return sum((w * _oracle_prefix(part, c, axis)
                    for part, w in zip(mu.components, mu.weights)), F(0))
    if isinstance(mu, SegmentPermuton):
        a, b = (c, F(1)) if axis == "x" else (F(1), c)
        return sum((s.mass * _t_fraction_inside(s, a, b) for s in mu.segments), F(0))
    key = 0 if axis == "x" else 1
    return sum((m * min(max(mu.n * c - (cell[key] - 1), F(0)), F(1))
                for cell, m in mu.cells.items()), F(0))


def _oracle_strips(mu, resolution: int, axis: str) -> list[Fraction]:
    # mass at 0 lies in the first strip
    prefix = [F(0)] + [_oracle_prefix(mu, F(k, resolution), axis)
                       for k in range(1, resolution + 1)]
    return [b - a for a, b in zip(prefix, prefix[1:])]


def _oracle_report(mu, resolution: int, tol: float) -> MarginalReport:
    # the first strip of largest deviation, x before y
    width, worst, where = F(1, resolution), F(0), ("x", 0)
    for axis in ("x", "y"):
        for idx, m in enumerate(_oracle_strips(mu, resolution, axis)):
            if abs(m - width) > worst:
                worst, where = abs(m - width), (axis, idx)
    return MarginalReport(float(worst), *where, resolution, tol)


def _assert_matches_oracle(mu, resolution: int, tol: float) -> None:
    for axis in ("x", "y"):
        got = mu.strip_masses(resolution, axis)
        assert got == _oracle_strips(mu, resolution, axis), (resolution, axis)
        assert all(type(m) is F for m in got)
    assert marginal_check(mu, resolution, tol) == _oracle_report(mu, resolution, tol)


_STRIP_CASES = {
    **{f.name: parse_permuton(f.read_text()) for f in sorted(FIXTURES.glob("*.permuton"))},
    "m_set(3083/6400)": m_set(F(3083, 6400)),
    "m_set(1/3)": m_set(F(1, 3)),
    "nu(1/2)": MixturePermuton((m_set(0), m_set(1)), (F(1, 2), F(1, 2))),
    "segment 0 0 1 0.5": segments_from_endpoints([(0, 0, 1, F(1, 2))]),
    "int ends and mass": SegmentPermuton((Segment(0, 1, 1, 0, 1),)),
}


@pytest.mark.parametrize("name", sorted(_STRIP_CASES))
def test_strip_masses_match_the_per_cut_oracle_on_fixtures(name):
    for resolution in (2, 3, 7, 64, 101):
        _assert_matches_oracle(_STRIP_CASES[name], resolution, 1e-9)


# coordinates on the cuts of every tested resolution, and off them
_coords = st.one_of(st.integers(0, 12).map(lambda v: F(v, 12)),
                    st.integers(0, 7).map(lambda v: F(v, 7)),
                    st.fractions(0, 1, max_denominator=40))


@st.composite
def _segment_permutons(draw):
    ends, weights = [], []
    for _ in range(draw(st.integers(1, 5))):
        x0, y0, x1, y1 = (draw(_coords) for _ in range(4))
        kind = draw(st.sampled_from(("free", "vertical", "horizontal", "point")))
        if kind in ("vertical", "point"):
            x1 = x0
        if kind in ("horizontal", "point"):
            y1 = y0
        ends.append((x0, y0, x1, y1))
        weights.append(draw(st.integers(1, 6)))
    return SegmentPermuton(tuple(Segment(*e, F(w, sum(weights)))
                                 for e, w in zip(ends, weights)))


@st.composite
def _grids(draw):
    # a mix of permutation grids with weights of unlike denominators
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.fractions(F(1, 9), 3, max_denominator=9),
                            min_size=1, max_size=3))
    cells: dict = {}
    for w in weights:
        tau = draw(st.permutations(range(1, n + 1)))
        for i, v in enumerate(tau, start=1):
            cells[(i, v)] = cells.get((i, v), F(0)) + w / (sum(weights) * n)
    return GridPermuton(n, cells)


def _mixtures(parts):
    return st.lists(st.tuples(parts, st.integers(0, 4)), min_size=1, max_size=3).filter(
        lambda pw: any(w for _, w in pw)).map(lambda pw: MixturePermuton(
            tuple(p for p, _ in pw), tuple(F(w, sum(w for _, w in pw)) for _, w in pw)))


@settings(max_examples=200, deadline=None)
@given(st.recursive(_segment_permutons() | _grids(), _mixtures, max_leaves=5),
       st.sampled_from((2, 3, 4, 6, 7, 12, 13)), st.sampled_from((0.0, 1e-9, 0.05)))
def test_strip_masses_match_the_per_cut_oracle(mu, resolution, tol):
    _assert_matches_oracle(mu, resolution, tol)


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


def _grid_moment_oracle(mu: GridPermuton, p: int, q: int) -> Fraction:
    """Cell-by-cell Fraction sum of the integral of x^p y^q."""
    n = mu.n

    def side(idx: int, power: int) -> Fraction:
        hi, lo = F(idx, n), F(idx - 1, n)
        return (hi ** (power + 1) - lo ** (power + 1)) * n / (power + 1)

    return sum((m * side(i, p) * side(j, q) for (i, j), m in mu.cells.items()), F(0))


def _averaged(*grids: GridPermuton) -> GridPermuton:
    cells: dict = {}
    for g in grids:
        for c, m in g.cells.items():
            cells[c] = cells.get(c, F(0)) + m / len(grids)
    return GridPermuton(grids[0].n, cells)


def test_grid_moment_matches_cell_sum_oracle():
    rng = np.random.default_rng(5)
    grids = [from_perm(random_perm(rng, n)) for n in (1, 5, 40)]
    grids.append(_averaged(from_perm(Perm((1, 2))), from_perm(Perm((2, 1)))))
    grids.append(_averaged(*(from_perm(random_perm(rng, 7)) for _ in range(3))))
    # zero-mass cells, and a cell mass whose denominator is not the grid's
    grids.append(GridPermuton(2, {(1, 1): F(1, 2), (2, 2): F(1, 2), (1, 2): F(0)}))
    grids.append(GridPermuton(3, {(1, 1): F(1, 5), (1, 2): F(2, 15), (2, 1): F(2, 15),
                                  (2, 2): F(1, 5), (3, 3): F(1, 3), (3, 1): F(0)}))
    for mu in grids:
        for p in range(4):
            for q in range(4):
                assert moment(mu, p, q) == _grid_moment_oracle(mu, p, q), (mu.n, p, q)


def test_out_of_range_arguments_are_refused_with_their_exact_value():
    # a value beyond the float range is reported, not converted to a float
    huge = F(10**400)
    with pytest.raises(PermutonError, match=r"a = 1000\d* outside \[0, 1\]"):
        m_set(huge)
    with pytest.raises(PermutonError, match=r"a = 1000\d* outside \[0, 1\]"):
        cdf(uniform(), huge, 0)
    with pytest.raises(PermutonError, match=r"^a = 3/2 outside \[0, 1\]$"):
        m_set(F(3, 2))


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


def test_grid_cdf_float_is_pointwise_across_blocks():
    # n = 1000 builds P in four blocks of 260 columns; points go in whatever
    # order, so a batch must give each point its own one-point value
    rng = np.random.default_rng(29)
    n = 1000
    mu = from_perm(random_perm(rng, n))
    step = _CDF_BLOCK // (n + 1) - 1
    cols = [c for lo in range(step, n, step) for c in (lo - 1, lo)]
    xs = np.concatenate([(np.repeat(cols, 4) + np.tile([0, 0.5, 0.999, 1], len(cols))) / n,
                         rng.random(60), [1.0, 1.0, 0.0, np.nan, 0.3]])
    ys = np.concatenate([rng.random(4 * len(cols)), rng.random(60),
                         [1.0, 0.4, 1.0, 0.5, np.nan]])
    order = rng.permutation(len(xs))
    xs, ys = xs[order], ys[order]
    with np.errstate(invalid="ignore"):
        got = mu.cdf_float(xs, ys)
        want = np.concatenate([mu.cdf_float(xs[i:i + 1], ys[i:i + 1])
                               for i in range(len(xs))])
    assert len(range(0, n, step)) == 4
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got).sum() == 2


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
                        _multiset_densities(mu, len(p))[p.images], (pi, tau)


def test_decomposition_agrees_with_multiset_oracle_k4(rng):
    for _ in range(6):
        tau = random_perm(rng, int(rng.integers(4, 7)))
        pi = random_perm(rng, 4)
        mu = from_perm(tau)
        assert density_exact_grid(pi, mu) == _multiset_densities(mu, len(pi))[pi.images]


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


@pytest.mark.parametrize("k", [0, 7, 12])
def test_pattern_histogram_refuses_bad_k_before_any_draw(monkeypatch, k):
    def no_draw(self, rng, count):
        raise AssertionError("sampled before the k check")

    monkeypatch.setattr(GridPermuton, "sample_xy", no_draw)
    with pytest.raises(PermutonError, match="1 <= k <= 6"):
        pattern_histogram_mc(uniform(), k, 1000, seed=1)


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


def _adversarial_cums():
    """Cumulative masses of one entry, equal masses, zero masses (repeated
    values), 300 clustered tiny masses, and rounded totals off 1."""
    def cum(masses):
        probs = np.asarray(masses, dtype=float)
        return np.cumsum(probs / probs.sum())
    yield cum([1.0])
    for n in (2, 3, 7, 8, 400, 1000):
        yield cum(np.ones(n))
    yield cum([0, 1, 0, 0, 2, 0, 1, 0])
    yield cum([1, 0, 0, 0])
    yield cum(np.r_[np.full(300, 1e-9), 1.0])
    yield cum(np.r_[1.0, np.full(300, 1e-9), 1.0])
    yield cum(np.random.default_rng(3).random(400) ** 8)
    yield np.cumsum([0.1] * 10)  # ends at 0.9999999999999999
    yield np.cumsum([0.7, 0.2, 0.1 + 1e-16, 2e-16])  # ends past 1


def test_pick_cells_is_the_binary_search():
    rng = np.random.default_rng(11)
    for cum in _adversarial_cums():
        size = 1 << (len(cum) - 1).bit_length()
        edges = np.r_[np.arange(size) / size, cum]
        u = np.r_[edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                  rng.random(20_000)]
        u = u[(u >= 0) & (u < 1)]
        want = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        assert np.array_equal(_pick_cells(cum, u), want), cum[:5]
        assert _guide_table(cum)[2] <= math.ceil(math.log2(len(cum) + 1))


def test_pick_cells_needs_one_pass_on_equal_masses():
    mass = from_perm(Perm(tuple(range(400, 0, -1))))._table.mass
    assert _guide_table(np.cumsum(mass / mass.sum()))[2] == 1


_HORIZONTAL = SegmentPermuton((Segment(F(0), F(1, 2), F(1), F(1, 2), F(1)),))
_VERTICAL = SegmentPermuton((Segment(F(1, 2), F(0), F(1, 2), F(1), F(1)),))


def test_persistent_ties_are_refused():
    with pytest.raises(PermutonError, match="coordinate ties persisted"):
        pattern_histogram_mc(_HORIZONTAL, 2, 100, 1)
    with pytest.raises(PermutonError, match="coordinate ties persisted"):
        density_mc((1, 2), _VERTICAL, 100, 1)


def test_tie_resampling_keeps_its_seeded_streams():
    # a tied row is redrawn whole: half of the mixture's draws lie on the segment
    mix = MixturePermuton((_HORIZONTAL, uniform()), (F(1, 2), F(1, 2)))
    assert pattern_histogram_mc(mix, 2, 10_000, 1) == {(1, 2): 5089, (2, 1): 4911}
    # a draw on the zero-mass cell (1, 2) would give the pattern 21 more often
    skew = GridPermuton(2, {(1, 1): F(1, 2), (2, 2): F(1, 2), (1, 2): F(0)})
    assert pattern_histogram_mc(skew, 2, 1000, 3) == {(1, 2): 769, (2, 1): 231}
    # raw events see tied y-values in argsort's order, as the ranks did
    assert event_prob_mc(_HORIZONTAL, (1, 2), (1, 2), 1000, 1)[0] == 0.478
    assert event_prob_mc(_HORIZONTAL, (2, 1), (2, 1), 1000, 1)[0] == 0.0


def test_pick_cells_needs_one_pass_on_m_set():
    mu = m_set(F(3083, 6400))
    cum = np.cumsum([float(s.mass) for s in mu.segments])
    start, _, passes = _guide_table(cum)
    assert (len(cum), len(start), passes) == (8, 32, 1)


def test_pick_cells_is_the_binary_search_at_its_own_bucket_edges():
    for cum in _adversarial_cums():
        size = len(_guide_table(cum)[0])
        edges = np.r_[np.arange(size) / size, cum]
        u = np.r_[edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        u = u[(u >= 0) & (u < 1)]
        want = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
        assert np.array_equal(_pick_cells(cum, u), want), cum[:5]


_ORACLE_MUS = {
    "uniform": uniform(),
    "grid400": from_perm(random_perm(np.random.default_rng(400), 400)),
    "m_set": m_set(F(3083, 6400)),
    "m_set0": m_set(0),
    "m_set01": MixturePermuton((m_set(0), m_set(1)), (F(1, 2), F(1, 2))),
    "horizontal": MixturePermuton((_HORIZONTAL, uniform()), (F(1, 2), F(1, 2))),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_MUS))
@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("seed", [3, 11])
def test_sort_free_estimators_match_the_sorted_rows(name, k, seed):
    mu = _ORACLE_MUS[name]
    # the x-sorted rows of each chunk, on the estimators' own stream
    chunks = [_sample_rows(mu, k, m, rng) for rng, m in mc_chunks(1_500, seed)]
    want = sum(np.bincount(pattern_index(rows), minlength=math.factorial(k))
               for rows in chunks)
    hist = pattern_histogram_mc(mu, k, 1_500, seed)
    assert list(hist.values()) == want.tolist()
    # the first row's pattern, so every run has a hit
    pi = tuple(int(v) for v in row_ranks(chunks[0][:1])[0])
    order = np.argsort(pi)
    hits = sum(int(np.all(np.argsort(rows, axis=1) == order, axis=1).sum())
               for rows in chunks)
    assert density_mc(pi, mu, 1_500, seed)[0] == hits / 1_500


def test_sort_free_estimators_sort_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sorted along the k-wide axis")

    for name in ("argsort", "sort", "take_along_axis"):
        monkeypatch.setattr(np, name, refuse)
    for mu in _ORACLE_MUS.values():
        assert sum(pattern_histogram_mc(mu, 4, 500, 1).values()) == 500
        assert 0 < density_mc((2, 1, 3), mu, 500, 1)[0] < 1


def test_density_mc_takes_long_patterns():
    identity = tuple(range(1, 26))
    diagonal = SegmentPermuton((Segment(F(0), F(0), F(1), F(1), F(1)),))
    anti = SegmentPermuton((Segment(F(0), F(1), F(1), F(0), F(1)),))
    assert density_mc(identity, diagonal, 2_000, 1)[0] == 1.0
    assert density_mc(identity[::-1], anti, 2_000, 1)[0] == 1.0
    assert density_mc(identity[:-2] + (25, 24), diagonal, 2_000, 1)[0] == 0.0


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


@pytest.mark.parametrize("resolution", [10.0, 2.5, "10", F(10)])
def test_permuton_discrepancy_refuses_non_integer_resolutions(resolution):
    # 10.0 raised a TypeError from inside np.linspace
    with pytest.raises(PermutonError, match=re.escape(f"must be an integer, got {resolution!r}")):
        discrepancy_permuton(uniform(), resolution)


def test_permuton_discrepancy_takes_numpy_integer_resolutions():
    mu = m_set(F(1, 2))
    want = discrepancy_permuton(mu, 12)
    for r in (np.int64(12), np.int32(12), np.uint8(12)):
        assert discrepancy_permuton(mu, r) == want


@pytest.mark.parametrize("resolution", [10.0, 2.5, "10", F(10)])
def test_cdf_grid_refuses_non_integer_resolutions(resolution):
    with pytest.raises(PermutonError, match=re.escape(f"must be an integer, got {resolution!r}")):
        cdf_grid(uniform(), resolution)


@pytest.mark.parametrize("resolution", [0, -1])
def test_cdf_grid_refuses_resolutions_below_one(resolution):
    # -1 returned a (0, 0) array
    with pytest.raises(PermutonError, match="resolution must be >= 1"):
        cdf_grid(uniform(), resolution)


def test_cdf_grid_takes_resolution_one_and_numpy_integers():
    assert cdf_grid(uniform(), 1).tolist() == [[0.0, 0.0], [0.0, 1.0]]
    mu = m_set(F(1, 2))
    for r in (np.int64(12), np.uint8(12)):
        assert np.array_equal(cdf_grid(mu, r), cdf_grid(mu, 12))


@pytest.mark.parametrize("mu, lower", [
    (uniform(), None), (from_perm(Perm((3, 1, 2))), None), (m_set(F(0)), 0.25),
    (m_set(F(1, 2)), None),
], ids=["uniform", "perm312", "m_set0", "m_set_half"])
def test_m_set_discrepancy_sandwich(mu, lower):
    res = discrepancy_permuton(mu, 128)
    if lower is not None:
        assert res.lower == pytest.approx(lower, abs=1e-12)
    assert res.lower <= 4 * res.sup_dev + 1e-9


@pytest.mark.parametrize("ends", [
    [(0, Fraction(1, 2), 1, Fraction(1, 2))],                        # horizontal
    [(Fraction(1, 4), 0, Fraction(1, 4), 1)],                        # vertical
    [(0, Fraction(3, 4), 1, Fraction(3, 4)), (Fraction(1, 2), 0, Fraction(1, 2), 1)],
])
def test_segment_cdf_float_on_axis_parallel_segments_is_the_exact_cdf(ends):
    mu = segments_from_endpoints(ends)
    ticks = [Fraction(i, 8) for i in range(9)]
    xs, ys = np.meshgrid([float(t) for t in ticks], [float(t) for t in ticks],
                         indexing="ij")
    got = mu.cdf_float(xs, ys)
    want = [[float(mu.cdf(a, b)) for b in ticks] for a in ticks]
    assert got.tolist() == want
