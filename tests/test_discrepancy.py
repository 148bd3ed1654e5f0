import importlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import Perm, PermError, discrepancy, discrepancy_brute
from permutons.discrepancy import EXACT_MAX_N, PREFIX_BOUND_MAX_N, box_spread

# the package's name `discrepancy` is the function, so fetch the module itself
discrepancy_mod = importlib.import_module("permutons.discrepancy")


def test_identity_discrepancy():
    # worst box for id_n is a half square missing the diagonal strip
    res = discrepancy(Perm.identity(4))
    assert res.value == res.lower == res.upper
    assert res.numerator == 4
    assert res.value == 4 / 16


def test_monotone_extremes():
    for n in (2, 5, 9):
        inc = discrepancy(Perm.identity(n))
        dec = discrepancy(Perm.identity(n).reverse())
        assert inc.value == dec.value  # reversal maps boxes to boxes


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(1, 13)))
def test_exact_equals_brute(tau):
    p = Perm(tuple(tau))
    assert discrepancy(p).numerator == discrepancy_brute(p).numerator


def test_exact_equals_brute_larger():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 51))
        p = Perm(tuple(int(v) + 1 for v in rng.permutation(n)))
        assert discrepancy(p).numerator == discrepancy_brute(p).numerator


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(1, 15)))
def test_prefix_bound_sandwich(tau):
    p = Perm(tuple(tau))
    exact = discrepancy(p)
    pre = discrepancy(p, mode="prefix_bound")
    assert pre.lower <= exact.value + 1e-12
    assert exact.value <= pre.upper + 1e-12


def test_grid_mode_encloses_exact():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(30, 120))
        p = Perm(tuple(int(v) + 1 for v in rng.permutation(n)))
        exact = discrepancy(p)
        grid = discrepancy(p, mode="grid", resolution=16)
        assert grid.lower <= exact.value + 1e-12
        assert exact.value <= grid.upper + 1e-12


@pytest.mark.parametrize("resolution", [1, 0, -3])
def test_grid_mode_refuses_resolutions_below_two(resolution):
    for tau in (Perm((1,)), Perm((2, 4, 1, 3))):
        with pytest.raises(PermError, match="resolution must be >= 2"):
            discrepancy(tau, mode="grid", resolution=resolution)


@pytest.mark.parametrize("resolution", [10.0, 2.5, "10", Fraction(10)])
def test_grid_mode_refuses_non_integer_resolutions(resolution):
    # 10.0 raised numpy's UFuncTypeError from inside the cut arithmetic
    with pytest.raises(PermError, match=re.escape(f"must be an integer, got {resolution!r}")):
        discrepancy(Perm((2, 4, 1, 3)), mode="grid", resolution=resolution)


def test_grid_mode_takes_numpy_integer_resolutions():
    p = Perm((3, 1, 4, 2, 5, 7, 6))
    want = discrepancy(p, mode="grid", resolution=3)
    for r in (np.int64(3), np.int32(3), np.int8(3)):
        assert discrepancy(p, mode="grid", resolution=r) == want


def test_grid_mode_clamps_resolution_to_n():
    p = Perm((3, 1, 4, 2, 5))
    assert discrepancy(p, mode="grid", resolution=2) != \
        discrepancy(p, mode="grid", resolution=5)
    assert discrepancy(p, mode="grid", resolution=1000) == \
        discrepancy(p, mode="grid", resolution=5)
    assert discrepancy(p, mode="grid", resolution=5).lower == discrepancy(p).value


def test_reflection_invariance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        p = Perm(tuple(int(v) + 1 for v in rng.permutation(20)))
        d = discrepancy(p).numerator
        assert discrepancy(p.reverse()).numerator == d
        assert discrepancy(p.complement()).numerator == d
        assert discrepancy(p.inverse()).numerator == d


def test_bad_mode():
    with pytest.raises(ValueError):
        discrepancy(Perm((2, 1)), mode="psychic")


def _exact_numerator_loop(v):
    """O(n^3) oracle: for each position interval (a1, a2] the best value
    interval is the spread of P[b] = n * #{a1 < i <= a2 : v_i <= b} - (a2 - a1) b."""
    n = len(v)
    bgrid = np.arange(n + 1, dtype=np.int64)
    best = 0
    for a1 in range(n):
        cnt = np.zeros(n + 1, dtype=np.int64)
        for a2 in range(a1 + 1, n + 1):
            cnt[v[a2 - 1]:] += n
            P = cnt - (a2 - a1) * bgrid
            best = max(best, int(P.max() - P.min()))
    return best


def test_exact_equals_loop_oracle_beyond_brute_range():
    rng = np.random.default_rng(31)
    for n in [51, 200] + [int(x) for x in rng.integers(52, 200, 10)]:
        v = tuple(int(x) + 1 for x in rng.permutation(n))
        res = discrepancy(Perm(v))
        assert res.numerator == _exact_numerator_loop(v), n
        assert res.mode == "exact"
        assert res.value == res.lower == res.upper == res.numerator / n**2


def test_exact_refuses_beyond_size_limit():
    with pytest.raises(PermError, match="prefix_bound.*grid"):
        discrepancy(Perm.identity(EXACT_MAX_N + 1))


@pytest.mark.parametrize("n", [1, 2])
def test_unknown_mode_is_refused_at_every_length(n):
    with pytest.raises(ValueError, match="unknown discrepancy mode 'bogus'"):
        discrepancy(Perm.identity(n), mode="bogus")


def test_prefix_bound_refuses_beyond_size_limit(monkeypatch):
    with pytest.raises(PermError, match="prefix_bound.*grid mode"):
        discrepancy(Perm.identity(PREFIX_BOUND_MAX_N + 1), mode="prefix_bound")
    # the limit itself is still served
    monkeypatch.setattr(discrepancy_mod, "PREFIX_BOUND_MAX_N", 5)
    assert discrepancy(Perm((2, 4, 1, 5, 3)), mode="prefix_bound").mode == "prefix_bound"
    with pytest.raises(PermError, match="n <= 5"):
        discrepancy(Perm.identity(6), mode="prefix_bound")


@pytest.mark.parametrize("mode", ["exact", "prefix_bound", "grid"])
@pytest.mark.parametrize("tau", [(5, 7, 9), [0, 1, 2], (1, 1, 2), (2,)])
def test_discrepancy_refuses_non_permutations(tau, mode):
    # (5, 7, 9) failed a reshape in the exact and grid modes and read 1.0 in
    # prefix_bound; [0, 1, 2] read 4/9
    with pytest.raises(PermError, match=r"not a permutation of 1\.\."):
        discrepancy(tau, mode=mode)


@pytest.mark.parametrize("mode", ["exact", "prefix_bound", "grid"])
def test_one_point_has_no_discrepancy(mode):
    res = discrepancy(Perm((1,)), mode=mode)
    assert discrepancy_brute(Perm((1,))).numerator == res.numerator == 0
    assert (res.value, res.lower, res.upper, res.mode, res.n) == (0.0, 0.0, 0.0, mode, 1)


def _box_spread_brute(Q):
    """The four-loop definition of ``box_spread``, with the row differences
    grouped as it forms them, so that float tables agree to the bit."""
    m = len(Q)
    return max(abs((Q[a2, b2] - Q[a1, b2]) - (Q[a2, b1] - Q[a1, b1]))
               for a1 in range(m) for a2 in range(a1 + 1, m)
               for b1 in range(m) for b2 in range(b1 + 1, m))


def _row_pair_ptp(Q):
    """One ptp over the row differences Q[a1 + 1:] - Q[a1] per row a1."""
    return max(np.ptp(Q[a1 + 1:] - Q[a1], axis=1).max() for a1 in range(len(Q) - 1))


def _tables(rng, m):
    yield rng.integers(-10**6, 10**6, (m, m)).astype(np.int32)
    yield rng.integers(-10**12, 10**12, (m, m))
    yield rng.random((m, m)) - 0.5


@pytest.mark.parametrize("m", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("tiled", [False, True])
def test_box_spread_equals_four_loop_brute(m, tiled, monkeypatch):
    # tiled: tiles of 4 rows a2, so m = 4, 5 and 9 end one row before, one
    # row past and one row past a second tile edge
    if tiled:
        monkeypatch.setattr(discrepancy_mod, "_BLOCK_CELLS", 4 * m)
    rng = np.random.default_rng(m)
    for Q in _tables(rng, m):
        got = box_spread(Q)
        assert got == _box_spread_brute(Q), Q.dtype


def test_box_spread_floats_are_the_row_pair_ptp_to_the_bit():
    from permutons.measures import cdf_grid, m_set
    rng = np.random.default_rng(41)
    tables = [rng.random((m, m)) for m in (2, 50, 131, 257)]
    for r in (101, 201):
        ticks = np.linspace(0.0, 1.0, r + 1)
        tables.append(cdf_grid(m_set(Fraction(3083, 6400)), r) - np.outer(ticks, ticks))
    for Q in tables:
        assert box_spread(Q).hex() == _row_pair_ptp(Q).hex()


def _grid_numerator(v, r):
    """The grid mode's numerator from an int64 corner table."""
    n = len(v)
    cuts = np.unique(-(-np.arange(r + 1, dtype=np.int64) * n // r))
    N = np.zeros((len(cuts), len(cuts)), dtype=np.int64)
    for i, c in enumerate(cuts):
        N[i] = np.searchsorted(np.sort(v[:c]), cuts, side="right")
    return int(_row_pair_ptp(n * N - np.outer(cuts, cuts)))


@pytest.mark.parametrize("n, r", [(50, 7), (1000, 40), (40_000, 12)])
def test_grid_numerator_in_int32_and_int64_tables(n, r):
    # the corner table is int32 while 2 n^2 < 2^31, so n = 40,000 takes int64
    v = np.random.default_rng(n).permutation(n) + 1
    assert discrepancy(v, mode="grid", resolution=r).numerator == _grid_numerator(v, r)


def _corner_max(v):
    """max |n N(a, b) - a b| over the full (n + 1)^2 corner table."""
    n = len(v)
    N = np.zeros((n + 1, n + 1), dtype=np.int64)
    N[np.arange(1, n + 1), v] = 1
    a = np.arange(n + 1)
    return int(np.abs(n * N.cumsum(axis=0).cumsum(axis=1) - np.outer(a, a)).max())


@pytest.mark.parametrize("n", [2, 3, 361, 362, 700])
def test_prefix_statistic_is_the_corner_table_maximum(n):
    # at n = 361 one block holds every row; at 362 the last row starts a second
    v = np.random.default_rng(n).permutation(n) + 1
    rows = discrepancy_mod._BLOCK_CELLS // (n + 1)
    assert (rows >= n) == (n <= 361)
    assert discrepancy_mod._prefix_statistic(v) == _corner_max(v)
    assert discrepancy(v, mode="prefix_bound").numerator == _corner_max(v)


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, mode, r", [(10_000, "grid", 1000), (1200, "exact", 1200)])
def test_corner_sweep_peaks_under_two_int64_tables(n, mode, r):
    # an int64 m x m histogram and its int32 corner table, against two int64
    # tables (16 m^2 bytes, 16.4 MB and 23.3 MB peaks) when the table was int64
    tau = np.random.default_rng(n).permutation(n) + 1
    m = r + 1
    assert _traced_peak(lambda: discrepancy(tau, mode=mode, resolution=r)) <= 16 * m * m


@pytest.mark.parametrize("n, r", [(298, 298), (301, 36), (500, 120)])
@pytest.mark.parametrize("rows", [1, 2, 7])
def test_corner_table_in_row_blocks_of_any_height(n, r, rows, monkeypatch):
    # the histogram and the cut products are laid down a block of rows at a
    # time; blocks of 1, 2 and 7 rows (the last one partial at every m here,
    # several positions per cut bucket when r < n) against the int64 oracle
    m = r + 1
    assert m % rows or rows == 1
    monkeypatch.setattr(discrepancy_mod, "_BLOCK_CELLS", rows * m)
    v = np.random.default_rng(n + rows).permutation(n) + 1
    assert discrepancy(v, mode="grid", resolution=r).numerator == _grid_numerator(v, r)


def test_exact_corner_table_peaks_under_two_int32_tables():
    # Q is built in its own int32 dtype, a block of rows at a time: no int64
    # histogram beside it (49.19 MB at n = 2000 when there was one)
    n = EXACT_MAX_N
    tau = np.random.default_rng(n).permutation(n) + 1
    assert _traced_peak(lambda: discrepancy(tau, mode="exact")) <= 2 * 4 * (n + 1) ** 2
