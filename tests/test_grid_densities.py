"""The exact grid density table and the integrals read from it."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from permutons import (
    AnalysisError, Budget, GridPermuton, Perm, PermutonError, all_patterns,
    cs_chain, density_exact_grid, from_perm, grid_densities, identity_check,
    lemma_integrals, load_permuton, m_set, marginal_check, symmetry_defect,
    uniform,
)
from permutons import analysis, counting, measures
from permutons.cli import main
from permutons.analysis import _LEMMA_COEFFICIENTS, _event_integrals, _grid_cell_integrals

from conftest import FIXTURES, random_perm

F = Fraction
ROTATION5 = FIXTURES / "rotation5.permuton"
INFLATABLE17 = FIXTURES / "inflatable17.permuton"


# ---------------------------------------------------------------------------
# frozen cells


def test_grid_cells_are_frozen_and_memos_stay_true():
    # moving 1/8 of mass from (1, 2) to (1, 1) would give t(12) = 17/32
    fresh = from_perm(Perm((2, 4, 1, 3)))
    given = {(i, tau): F(1, 4) for i, tau in enumerate((2, 4, 1, 3), start=1)}
    mu = GridPermuton(4, given)
    assert symmetry_defect(mu, 2).defect == 0
    with pytest.raises(TypeError):
        mu.cells[(1, 2)] = F(1, 8)
    with pytest.raises(TypeError):
        mu.cells[(1, 1)] = F(1, 8)
    given[(1, 2)] = F(1, 8)  # the caller's dict is not the grid's
    given[(1, 1)] = F(1, 8)
    assert mu.cells == fresh.cells and mu == fresh
    for k in range(1, 5):
        assert grid_densities(mu, k) == grid_densities(fresh, k)
    assert symmetry_defect(mu, 2) == symmetry_defect(fresh, 2)
    assert lemma_integrals(mu) == lemma_integrals(fresh)


# ---------------------------------------------------------------------------
# oracle: the per-target cell-multiset loop


def _rank_vectors(keys: list[int]):
    """Every rank vector of the keys: equal keys take a consecutive rank
    block in key order, each internal order equally likely."""
    k = len(keys)
    groups: dict[int, list[int]] = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    spans, start = [], 1
    for key in sorted(groups):
        spans.append((groups[key], start))
        start += len(groups[key])
    for orders in itertools.product(
            *(itertools.permutations(range(len(g))) for g, _ in spans)):
        ranks = [0] * k
        for (g, s), order in zip(spans, orders):
            for idx, o in zip(g, order):
                ranks[idx] = s + o
        yield ranks


@functools.lru_cache(maxsize=None)
def _pattern_prob(xkeys: tuple, ykeys: tuple, target: tuple) -> Fraction:
    """P(induced pattern = target) for points with these row and column
    keys, with uniform independent tie-break orders inside equal keys."""
    k = len(xkeys)
    matches = combos = 0
    for xr in _rank_vectors(list(xkeys)):
        for yr in _rank_vectors(list(ykeys)):
            combos += 1
            induced = [0] * k
            for p in range(k):
                induced[xr[p] - 1] = yr[p]
            matches += tuple(induced) == target
    return F(matches, combos)


def _dense(keys) -> tuple:
    """The keys' order type: dense ranks, ties kept (the cache key)."""
    levels = sorted(set(keys))
    return tuple(levels.index(key) for key in keys)


def _oracle_table(mu: GridPermuton, k: int) -> dict:
    """t(pi, mu) for each pattern pi of length k, one match loop per pi."""
    cells = [(c, m) for c, m in sorted(mu.cells.items()) if m > 0]
    table = {pi: F(0) for pi in all_patterns(k)}
    for multiset in itertools.combinations_with_replacement(range(len(cells)), k):
        weight = F(math.factorial(k))
        for c_idx, m in Counter(multiset).items():
            weight *= cells[c_idx][1] ** m / math.factorial(m)
        coords = [cells[ci][0] for ci in multiset]
        xkeys = _dense([c[0] for c in coords])
        ykeys = _dense([c[1] for c in coords])
        for pi in table:
            table[pi] += weight * _pattern_prob(xkeys, ykeys, pi)
    return table


def _average_grid(rng, m: int, parts: int) -> GridPermuton:
    """Mean of `parts` random m x m permutation grids (cells may merge),
    redrawn until it is not itself a permutation grid."""
    while True:
        cells: dict = {}
        for _ in range(parts):
            for i, v in enumerate(random_perm(rng, m), start=1):
                cells[(i, v)] = cells.get((i, v), F(0)) + F(1, parts * m)
        mu = GridPermuton(m, cells)
        if mu.permutation is None:
            return mu


def _pair_average(rng, m: int, moved: int) -> GridPermuton:
    """Mean of a random m x m permutation grid and the grid of the same
    permutation with `moved` positions shuffled among themselves: m + moved
    cells at most, so the k = 4 multiset pass stays small at m = 20."""
    while True:
        tau = list(random_perm(rng, m).images)
        sigma = list(tau)
        at = rng.choice(m, moved, replace=False)
        for i, j in zip(at, rng.permutation(at)):
            sigma[i] = tau[j]
        cells: dict = {}
        for images in (tau, sigma):
            for i, v in enumerate(images, start=1):
                cells[(i, v)] = cells.get((i, v), F(0)) + F(1, 2 * m)
        mu = GridPermuton(m, cells)
        if mu.permutation is None:
            return mu


# ---------------------------------------------------------------------------
# the table


def test_table_matches_oracle_on_every_flat_grid():
    for n in range(1, 6):
        for tau in itertools.permutations(range(1, n + 1)):
            mu = from_perm(Perm(tau))
            for k in range(1, 5):
                table = grid_densities(mu, k)
                assert list(table) == all_patterns(k)
                assert table == _oracle_table(mu, k), (tau, k)


def test_table_matches_oracle_on_nonpermutation_grids():
    rng = np.random.default_rng(7)
    t = F(1, 10 ** 7)  # D^4 (k!)^2 is far past 2^63
    grids = [uniform(), GridPermuton(2, {(1, 1): F(1, 4), (1, 2): F(1, 4),
                                         (2, 1): F(1, 4), (2, 2): F(1, 4)}),
             GridPermuton(2, {(1, 1): t, (1, 2): F(1, 2) - t,
                              (2, 1): F(1, 2) - t, (2, 2): t})]
    grids += [_average_grid(rng, m, parts) for m, parts in
              ((2, 2), (3, 2), (3, 3), (4, 2))]
    for mu in grids:
        assert mu.permutation is None or mu.n == 1
        for k in range(1, 5):
            table = grid_densities(mu, k)
            assert sum(table.values()) == 1
            assert table == _oracle_table(mu, k), (mu, k)
    rotation = load_permuton(ROTATION5)
    for k in range(1, 4):
        assert grid_densities(rotation, k) == _oracle_table(rotation, k), k


def test_density_exact_grid_is_a_table_lookup():
    rng = np.random.default_rng(3)
    mu = from_perm(random_perm(rng, 9))
    for k in range(1, 5):
        table = grid_densities(mu, k)
        for p in all_patterns(k):
            assert density_exact_grid(p, mu) == table[p]
            assert density_exact_grid(Perm(p), mu) == table[p]


def test_table_refuses_bad_arguments():
    for k in (0, 5):
        with pytest.raises(PermutonError):
            grid_densities(uniform(), k)
    with pytest.raises(PermutonError):
        grid_densities(m_set(F(1, 2)), 3)
    with pytest.raises(PermutonError):
        density_exact_grid((1, 2), m_set(F(1, 2)))


def test_oversized_cell_multiset_pass_is_refused_before_any_work(
        monkeypatch, tmp_path, capsys):
    # a filled 7 x 7 grid at k = 4 has C(52, 4) = 270,725 cell multisets
    assert math.comb(49 + 3, 4) > measures.GRID_MULTISET_MAX
    monkeypatch.setattr(measures, "combinations_with_replacement", None)  # none enumerated
    mass = F(1, 49)
    grid = GridPermuton(7, {(i, j): mass for i in range(1, 8) for j in range(1, 8)})
    refusal = (rf"270725 cell multisets, over the limit GRID_MULTISET_MAX = "
               rf"{measures.GRID_MULTISET_MAX}; use --mode mc$")
    with pytest.raises(PermutonError, match=refusal):
        grid_densities(grid, 4)
    with pytest.raises(PermutonError, match=refusal):
        symmetry_defect(grid, 4, mode="exact")
    path = tmp_path / "filled7.permuton"
    path.write_text("type grid\nn 7\n" + ("mass" + " 1/49" * 7 + "\n") * 7)
    out = tmp_path / "out.txt"
    assert main(["symmetry", str(path), "4", "--out", str(out)]) == 1
    assert "GRID_MULTISET_MAX" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# the witnesses that 3-point densities do not force quasirandomness


def test_rotation_grid_is_3_symmetric_but_not_4_symmetric():
    mu = load_permuton(ROTATION5)
    assert mu.permutation is None and min(mu.cells.values()) > 0
    assert all(mu.cells[(i, j)] == mu.cells[(j, 6 - i)]
               for i in range(1, 6) for j in range(1, 6))
    marginals = marginal_check(mu, 101, 0.0)
    assert marginals.passed and marginals.max_deviation == 0
    three = symmetry_defect(mu, 3)
    assert three.exact and three.defect == 0
    four = symmetry_defect(mu, 4)
    assert four.exact and four.defect == F(80033585013, 1200500000000000)
    assert four.witness == (3, 1, 4, 2)


def test_rotation_grid_integrals():
    # 3-symmetry forces i1 = 1/9; i2 and i3 carry the 4-point content (the
    # fixture-wide sweep test checks these against the 4-table)
    rep = lemma_integrals(load_permuton(ROTATION5))
    assert rep.exact
    assert rep.i1 == F(1, 9)
    assert rep.i2 - F(1, 9) == F(-837, 9800000000)
    assert rep.i3 - F(1, 9) == F(423, 2450000000)


def test_order_17_flat_grid_agrees_across_engines():
    mu = load_permuton(INFLATABLE17)
    assert mu.permutation is not None and mu.n == 17
    for k in (3, 4):
        flat, table = grid_densities(mu, k), measures._multiset_densities(mu, k)
        assert table == flat and list(table) == list(flat), k


# ---------------------------------------------------------------------------
# the memo


def test_memo_leaves_equality_and_repr_alone():
    tau = Perm((2, 4, 1, 3))
    fresh, filled = from_perm(tau), from_perm(tau)
    before = repr(filled)
    for k in range(1, 5):
        grid_densities(filled, k)
    assert filled == fresh
    assert repr(filled) == before == repr(fresh)
    assert "densities" not in repr(filled)


def test_returned_table_is_a_copy():
    mu = from_perm(Perm((3, 1, 4, 2, 5)))
    first = grid_densities(mu, 4)
    want = dict(first)
    first[(1, 2, 3, 4)] = F(7)
    first.clear()
    assert grid_densities(mu, 4) == want
    assert symmetry_defect(mu, 4).densities == want
    verdict = symmetry_defect(mu, 4)
    verdict.densities.clear()
    assert grid_densities(mu, 4) == want


def test_symmetry_defect_builds_each_profile_once(monkeypatch):
    # one counting.profiles call gives the r <= 4 tables; none goes
    # through counting.profile
    calls = Counter()

    def counter(name):
        real = getattr(counting, name)

        def counted(tau, k):
            calls[name, k] += 1
            return real(tau, k)
        return counted

    for name in ("profile", "profiles"):
        monkeypatch.setattr(counting, name, counter(name))
    mu = from_perm(random_perm(np.random.default_rng(11), 12))
    verdict = symmetry_defect(mu, 4)
    assert calls == {("profiles", 4): 1}
    # the lemma integrals and the chain build no profile at all
    lemma_integrals(mu)
    cs_chain(mu)
    symmetry_defect(mu, 4)
    assert calls == {("profiles", 4): 1}
    assert not verdict.symmetric


# ---------------------------------------------------------------------------
# the lemma integrals as pattern events


def test_generated_coefficients():
    i1 = _LEMMA_COEFFICIENTS["i1"]
    assert i1[(1, 2, 3, 4)] == i1[(2, 1, 3, 4)] == F(1, 3)
    for name in ("i1", "i2", "i3"):
        coef = _LEMMA_COEFFICIENTS[name]
        assert set(coef) <= set(all_patterns(4))
        assert all(0 < c <= 1 and (24 * c).denominator == 1
                   for c in coef.values())
        assert sum(coef.values()) / 24 == F(1, 9)


def _assert_sweep_matches_events(mu):
    rep = lemma_integrals(mu)
    assert rep.methods == ("exact",) * 3
    assert all(isinstance(v, Fraction) for v in (rep.i1, rep.i2, rep.i3))
    assert (rep.i1, rep.i2, rep.i3) == _event_integrals(mu)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 40, 120, 300])
def test_density_integrals_equal_cell_sweep(n):
    _assert_sweep_matches_events(from_perm(random_perm(np.random.default_rng(100 + n), n)))


def test_density_integrals_on_uniform():
    rep = lemma_integrals(uniform())
    assert (rep.i1, rep.i2, rep.i3) == _event_integrals(uniform()) == (F(1, 9),) * 3


def test_nonpermutation_grids_keep_the_cell_sweep():
    _assert_sweep_matches_events(_average_grid(np.random.default_rng(4), 4, 2))


@pytest.mark.parametrize("n", [3, 6, 20])
def test_cell_sweep_matches_events_on_averaged_grids(n):
    rng = np.random.default_rng(200 + n)
    mu = _average_grid(rng, n, 2) if n < 20 else _pair_average(rng, n, 6)
    assert mu.permutation is None
    _assert_sweep_matches_events(mu)


def test_cell_sweep_matches_events_on_every_grid_fixture():
    grids = [load_permuton(path) for path in sorted(FIXTURES.glob("*.permuton"))]
    grids = [mu for mu in grids if isinstance(mu, GridPermuton)]
    assert any(mu.permutation is None for mu in grids)
    for mu in grids:
        _assert_sweep_matches_events(mu)


def test_cell_sweep_beyond_int64_runs_on_python_ints():
    # D = 10^7 puts the bound 100 D^2 (D + n^2) past 2^63
    t = F(1, 10 ** 7)
    mu = GridPermuton(2, {(1, 1): t, (1, 2): F(1, 2) - t,
                          (2, 1): F(1, 2) - t, (2, 2): t})
    assert 100 * 10 ** 14 * (10 ** 7 + 4) >= 2 ** 63
    _assert_sweep_matches_events(mu)


def test_cell_sweep_refuses_beyond_the_grid_limit():
    big = from_perm(random_perm(np.random.default_rng(9), analysis.EXACT_GRID_LIMIT + 1))
    with pytest.raises(AnalysisError, match="n <= 300"):
        _grid_cell_integrals(big)
    with pytest.raises(AnalysisError):
        lemma_integrals(big, Budget(mode="exact", samples=1000))


def test_lemma_integrals_never_read_the_density_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("4-pattern densities in lemma_integrals")

    monkeypatch.setattr(analysis, "_event_integrals", refuse)
    monkeypatch.setattr(analysis, "grid_densities", refuse)
    rng = np.random.default_rng(5)
    for mu in (from_perm(Perm((2, 5, 3, 1, 4))), _average_grid(rng, 5, 2), uniform()):
        assert lemma_integrals(mu).exact
        assert cs_chain(mu).integrals.exact


# ---------------------------------------------------------------------------
# identity_check under mode="exact"


def test_cell_sweep_returns_only_what_its_callers_read():
    assert set(_grid_cell_integrals(from_perm(Perm((2, 1))))) == {"i1", "i2", "i3"}


def _l_by_cells(mu) -> Fraction:
    """int F x y dlambda cell by cell: F is bilinear on each lattice cell,
    with corner values from mu.cdf."""
    n = mu.n
    total = F(0)
    for a in range(n):
        for b in range(n):
            f00, f10, f01, f11 = (mu.cdf(F(a + s, n), F(b + t, n))
                                  for s, t in ((0, 0), (1, 0), (0, 1), (1, 1)))
            # int_0^1 (a + u) du and int_0^1 u (a + u) du, likewise in b
            pa, qa, pb, qb = F(2 * a + 1, 2), F(3 * a + 2, 6), F(2 * b + 1, 2), F(3 * b + 2, 6)
            total += (f00 * pa * pb + (f10 - f00) * qa * pb + (f01 - f00) * pa * qb
                      + (f11 - f10 - f01 + f00) * qa * qb)
    return total / n ** 4


def test_identity_lhs_integrates_the_cdf_on_every_grid(monkeypatch):
    def refuse(mu):
        raise AssertionError("cell sweep in identity_check")

    monkeypatch.setattr(analysis, "_grid_cell_integrals", refuse)
    rng = np.random.default_rng(12)
    grids = [from_perm(random_perm(rng, n)) for n in (1, 2, 5, 12)]
    grids += [_average_grid(rng, 3, 2), _average_grid(rng, 6, 3), uniform()]
    for mu in grids:
        rep = identity_check(mu)
        assert rep.exact and rep.lhs == _l_by_cells(mu) == rep.rhs, mu.n


def test_exact_mode_refusals_name_the_grid_limit():
    limit = analysis.EXACT_GRID_LIMIT
    with pytest.raises(AnalysisError, match=rf"^exact integrals need a grid "
                                            rf"permuton with n <= {limit}$"):
        lemma_integrals(m_set(0), Budget(mode="exact", samples=1000))
    with pytest.raises(AnalysisError, match=rf"^exact identity check needs a "
                                            rf"grid permuton with n <= {limit}$"):
        identity_check(m_set(0), Budget(mode="exact", samples=1000))


def test_identity_exact_mode_refuses_without_exact_path():
    with pytest.raises(AnalysisError):
        identity_check(m_set(0), Budget(mode="exact", samples=1000))
    big = from_perm(random_perm(np.random.default_rng(8), 301))
    with pytest.raises(AnalysisError):
        identity_check(big, Budget(mode="exact", samples=1000))
    assert identity_check(from_perm(Perm((2, 1))), Budget(mode="exact")).exact
