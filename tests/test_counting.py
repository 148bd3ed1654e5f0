import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    all_patterns, inversions, left_smaller_counts, occurrences,
    occurrences_naive, pattern_of, profile, profile_naive,
)
from permutons import counting
from permutons.counting import (
    PROFILE3_MAX_N, PROFILE4_MAX_N, PermError, _check_exact_size, pattern_index,
    perm_array, three_counts,
)


def test_pattern_of():
    assert pattern_of((40, 10, 30)) == (3, 1, 2)
    assert pattern_of((5,)) == (1,)
    assert pattern_of((2, 2)) == (1, 2)  # ties rank by position


def test_all_patterns_counts():
    for k in range(1, 6):
        pats = all_patterns(k)
        assert len(pats) == math.factorial(k)
        assert len(set(pats)) == len(pats)


def test_left_smaller_counts():
    assert left_smaller_counts((3, 1, 4, 2)).tolist() == [0, 0, 2, 1]


def _left_smaller_loop(values):
    return [sum(values[i] < values[j] for i in range(j))
            for j in range(len(values))]


@pytest.mark.parametrize("n", [0, 1, 2, 16, 17, 31, 32, 33, 64, 65, 1000])
def test_left_smaller_counts_matches_double_loop(n):
    # one broadcast block up to 16 positions, then merge levels over a
    # power-of-two padding
    rng = np.random.default_rng(n)
    for _ in range(3):
        tau = tuple(int(v) + 1 for v in rng.permutation(n))
        got = left_smaller_counts(tau)
        assert got.dtype == np.int64
        assert got.tolist() == _left_smaller_loop(tau)


def test_left_smaller_counts_ties_are_not_counted():
    assert left_smaller_counts((2, 2)).tolist() == [0, 0]
    rng = np.random.default_rng(41)
    for n in (5, 33, 100, 300):
        row = tuple(int(v) for v in rng.integers(-3, 4, n))
        assert left_smaller_counts(row).tolist() == _left_smaller_loop(row)


@pytest.mark.parametrize("w", range(1, 18))
def test_block_counts_match_double_loop_at_every_width(w):
    # the search scores order-9 rows with it, and order 17 needs width 17.
    # Up to _SWEEP_CELLS // w^2 rows take one broadcast comparison, one row
    # more takes the pairwise column comparisons
    rng = np.random.default_rng(w)
    broadcast_rows = counting._SWEEP_CELLS // (w * w)
    for m in (broadcast_rows, broadcast_rows + 1):
        rows = np.concatenate([rng.permuted(np.tile(np.arange(w), (m - m // 2, 1)), axis=1),
                               rng.integers(-2, 3, (m // 2, w))])  # ties not counted
        got = counting._block_counts(rows)
        assert got.shape == rows.shape
        assert got.tolist() == [_left_smaller_loop(row.tolist()) for row in rows]


@pytest.mark.parametrize("k", range(18))
def test_left_smaller_counts_around_powers_of_two(k):
    # the merge pads to a power of two: one below, at and one above 2^k,
    # through the public ranking and through the kernel profile uses
    rng = np.random.default_rng(100 + k)
    for n in {max(2**k - 1, 1), 2**k, 2**k + 1}:
        tau = rng.permutation(n) + 1
        got = counting._left_smaller_perm(tau)
        assert got.dtype == np.int64 and len(got) == n
        assert got.tolist() == left_smaller_counts(tau).tolist()
        for j in rng.integers(0, n, 20):
            assert got[j] == int((tau[:j] < tau[j]).sum())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), max_size=150))
def test_left_smaller_counts_matches_double_loop_on_any_ints(values):
    assert left_smaller_counts(values).tolist() == _left_smaller_loop(values)


def test_left_smaller_counts_takes_values_near_2_to_the_62():
    # the ranking step takes any int64 value, ties included, whatever n is
    near = [2**62 - 1, 2**62, -2**62, -2**62 + 1, 2**63 - 1, -2**63, 0]
    values = [near[i] for i in np.random.default_rng(8).integers(0, len(near), 500)]
    assert left_smaller_counts(values).tolist() == _left_smaller_loop(values)


def test_left_smaller_counts_memory_is_linear():
    tau = np.random.default_rng(5).permutation(10**6) + 1
    tracemalloc.start()
    try:
        got = left_smaller_counts(tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 2**20, peak / 2**20
    for j in np.random.default_rng(6).integers(0, 10**6, 20):
        assert got[j] == int((tau[:j] < tau[j]).sum())


def test_left_smaller_counts_refuses_keys_past_63_bits():
    # 2b + 3 bits per key for size 2^b: n = 2^30 + 1 pads to 2^31; a
    # zero-stride view, so nothing of that size is allocated
    with pytest.raises(ValueError, match="overflows int64 keys"):
        counting._left_smaller_perm(np.broadcast_to(np.int64(1), (2**30 + 1,)))


def test_inversions():
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 2, 1)) == 3
    assert inversions((2, 4, 1, 5, 3)) == 4


@given(st.permutations(range(1, 9)))
def test_inversions_equal_21_occurrences(tau):
    assert inversions(tau) == occurrences_naive((2, 1), tau)


def test_profile_exhaustive_small():
    # every permutation up to length 7, every k up to 4, against the
    # subset-enumeration oracle
    for n in range(1, 8):
        for tau in itertools.permutations(range(1, n + 1)):
            for k in range(1, min(n, 4) + 1):
                assert profile(tau, k) == profile_naive(tau, k), (tau, k)


@settings(max_examples=60, deadline=None)
@given(st.permutations(range(1, 13)), st.integers(2, 4))
def test_profile_random_medium(tau, k):
    assert profile(tau, k) == profile_naive(tau, k)


@given(st.permutations(range(1, 11)), st.integers(1, 4))
def test_profile_total_is_binomial(tau, k):
    assert sum(profile(tau, k).values()) == math.comb(len(tau), k)


def test_profile_enum_path_k5():
    rng = np.random.default_rng(3)
    tau = tuple(int(v) + 1 for v in rng.permutation(9))
    assert profile(tau, 5) == profile_naive(tau, 5)


@pytest.mark.parametrize("k", [5, 6])
def test_profile_enum_across_chunk_boundaries(monkeypatch, k):
    # 5-row blocks: C(n, k) is a multiple of 5 only at (n, k) = (10, 6), so
    # every other call here ends on a partial block
    monkeypatch.setattr(counting, "_CHUNK", 5)
    for n in range(9, 13):
        tau = tuple(int(v) + 1 for v in np.random.default_rng(n).permutation(n))
        assert profile(tau, k) == profile_naive(tau, k), n


def test_profile4_across_block_boundaries(monkeypatch):
    # blocks of 1, 2 and 3 middle positions over the n - 1 positions that
    # have a later one: for b = 2, 3 the last block is full at some n here
    # and partial at the others
    for n in range(4, 41):
        tau = tuple(int(v) + 1 for v in np.random.default_rng(n).permutation(n))
        want = profile_naive(tau, 4)
        for rows in (1, 2, 3):
            monkeypatch.setattr(counting, "_SWEEP_CELLS", rows * n)
            assert profile(tau, 4) == want, (n, rows)


def test_profile4_memory_is_bounded():
    # blocks of _SWEEP_CELLS entries, not n x n tables: 72 MB at n = 3000;
    # the blocked sweep peaks near 2.1 MB
    tau = tuple(int(v) + 1 for v in np.random.default_rng(8).permutation(3000))
    tracemalloc.start()
    try:
        profile(tau, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


@pytest.mark.parametrize("k", range(1, 8))
def test_pattern_index_is_the_position_in_all_patterns(k):
    pats = np.array(all_patterns(k), dtype=np.int64)
    want = np.arange(math.factorial(k))
    assert np.array_equal(pattern_index(pats), want)
    # raw distinct values of any order-preserving map or dtype, no ranks
    assert np.array_equal(pattern_index(10 * pats - 3), want)
    assert np.array_equal(pattern_index(np.sqrt(pats) / 7.0), want)


def _brute_index(rows) -> np.ndarray:
    k = rows.shape[1]
    where = {p: i for i, p in enumerate(all_patterns(k))}
    return np.array([where[pattern_of(list(r))] for r in rows.tolist()])


@pytest.mark.parametrize("k", range(1, 7))
def test_pattern_index_reads_strided_views(k):
    pats = np.array(all_patterns(k), dtype=np.int64)
    for view in (pats[:, ::-1], pats[::-1], pats[::3, ::2], np.asfortranarray(pats)):
        assert np.array_equal(pattern_index(view), _brute_index(view))
    wide = np.array(all_patterns(6), dtype=np.int64)
    for lo in range(7 - k):
        view = wide[:, lo:lo + k]  # column slices: repeated patterns, not contiguous
        assert np.array_equal(pattern_index(view), _brute_index(view))


@pytest.mark.parametrize("k", range(1, 8))
def test_pattern_index_takes_float32(k):
    pats = np.array(all_patterns(k), dtype=np.float32)
    assert np.array_equal(pattern_index(pats), np.arange(math.factorial(k)))
    assert np.array_equal(pattern_index(pats[:, ::-1] / 3), _brute_index(pats[:, ::-1]))


def test_pattern_index_fits_int64_at_k_20():
    assert math.factorial(20) < 2**63 <= math.factorial(21)
    rng = np.random.default_rng(20)
    rows = np.vstack([np.arange(20), np.arange(20)[::-1],
                      *(rng.permutation(20) for _ in range(50))])

    def lehmer(row):
        return sum(sum(v < row[i] for v in row[i + 1:]) * math.factorial(19 - i)
                   for i, v in enumerate(row))

    got = pattern_index(rows)
    assert got[0] == 0 and got[1] == math.factorial(20) - 1
    assert got.tolist() == [lehmer(r) for r in rows.tolist()]
    assert pattern_index(rows[:, ::-1]).tolist() == [lehmer(r[::-1]) for r in rows.tolist()]


def test_occurrences_matches_naive():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(4, 15))
        tau = tuple(int(v) + 1 for v in rng.permutation(n))
        k = int(rng.integers(2, 5))
        pat = tuple(int(v) + 1 for v in rng.permutation(k))
        assert occurrences(pat, tau) == occurrences_naive(pat, tau)


def test_three_counts_matches_oracle_on_batches():
    # 1-based and 0-based rows, a from a direct double loop
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        rows = np.array([rng.permutation(n) + 1 for _ in range(25)],
                        dtype=np.int64)
        a = np.array([[sum(r[i] < r[j] for i in range(j)) for j in range(n)]
                      for r in rows], dtype=np.int64)
        for batch in (rows, rows - 1):
            counts = three_counts(batch, a)
            assert counts.shape == (6, len(rows))
            for r, row in enumerate(batch):
                expect = profile_naive(tuple(row), 3)
                assert dict(zip(all_patterns(3), counts[:, r].tolist())) \
                    == expect, (row, n)


def test_four_profile_fixes_the_three_profile():
    # sum_pi occ(sigma, pi) N4(pi) = (n - 3) N3(sigma), on the oracle tables
    rng = np.random.default_rng(23)
    for n in range(4, 12):
        tau = tuple(int(v) + 1 for v in rng.permutation(n))
        gaps = counting._relation_gaps(profile_naive(tau, 4), profile_naive(tau, 3), n)
        assert set(gaps.values()) == {0}, tau


def test_only_two_ambiguous_splits_follow_from_the_three_profile():
    # each class's lo - hi difference of occ(sigma, .) over S_3; the six
    # vectors span a rank-2 space, so at most two splits can be derived
    occ = {(s, pi): c for s, terms in counting._OCC3_IN4.items() for pi, c in terms}
    assert occ == {(s, pi): c for pi in all_patterns(4)
                   for s, c in profile_naive(pi, 3).items() if c}
    diff = {}
    for flag in (True, False):
        for z in range(3):
            lo, hi = counting._AMBIGUOUS[flag, z]
            diff[flag, z] = np.array([occ.get((s, lo), 0) - occ.get((s, hi), 0)
                                      for s in all_patterns(3)])
    assert np.linalg.matrix_rank(np.array(list(diff.values()))) == 2
    # (asc, high) from sigma = 213, (desc, low) from sigma = 132: the relation
    # reads 2 N4(lo) of its own split and nothing of the other one
    s213, s132 = all_patterns(3).index((2, 1, 3)), all_patterns(3).index((1, 3, 2))
    assert (diff[True, 2][s213], diff[False, 0][s213]) == (2, 0)
    assert (diff[False, 0][s132], diff[True, 2][s132]) == (2, 0)


@pytest.mark.parametrize("sigma, shift",
                         [((2, 1, 3), 2), ((1, 3, 2), 1), ((1, 2, 3), 2)])
def test_profile4_refuses_a_table_that_breaks_the_relations(monkeypatch, sigma,
                                                             shift):
    # a wrong 3-count moves a derived split (213, 132) or none (123); either
    # way one of the six relations misses
    real = counting.three_counts
    row = all_patterns(3).index(sigma)

    def skewed(v, a):
        out = real(v, a)
        out[row] += shift
        return out

    monkeypatch.setattr(counting, "three_counts", skewed)
    with pytest.raises(RuntimeError, match="3-profile relations"):
        profile((5, 11, 2, 8, 12, 1, 7, 3, 10, 4, 9, 6), 4)


def test_profile4_refuses_beyond_int64_safe_range():
    tau = tuple(range(1, PROFILE4_MAX_N + 2))
    with pytest.raises(ValueError, match=str(PROFILE4_MAX_N)):
        profile(tau, 4)


def test_profile3_refuses_beyond_int64_safe_range():
    # the guard runs before any work: a range is never materialised
    with pytest.raises(ValueError, match=str(PROFILE3_MAX_N)):
        profile(range(1, PROFILE3_MAX_N + 2), 3)


@pytest.mark.parametrize("k, largest", [
    (1, None), (2, None), (3, PROFILE3_MAX_N), (4, PROFILE4_MAX_N), (5, 60),
    (6, 60),
])
def test_size_table_boundaries(k, largest):
    n = largest or 10 ** 9
    _check_exact_size(k, n)
    if largest is not None:
        with pytest.raises(PermError, match=str(largest)):
            _check_exact_size(k, largest + 1)
    with pytest.raises(PermError, match="out of range"):
        _check_exact_size(k, k - 1)


def test_profile_refuses_through_the_size_table():
    with pytest.raises(PermError, match="k <= 6"):
        _check_exact_size(7, 10)
    with pytest.raises(PermError, match="k <= 6"):
        profile(range(1, 11), 7)
    # the k = 5 refusal comes before any subset is enumerated
    with pytest.raises(PermError, match="60"):
        profile(range(1, 10 ** 6), 5)
    with pytest.raises(PermError, match="out of range"):
        profile((1, 2), 0)


@pytest.mark.parametrize("tau, k", [
    ((5, 7, 9), 3),              # the engines read values as ranks: occ(123) came out -4
    ((3, 9, 4, 12, 1), 4),       # broke the 3-profile relations
    ((0, 1, 2), 2),
    ((1, 1, 2), 2),
    ((2, 3, 4), 1),
    ((1.5, 2.5), 2),
    (np.array([[1, 2], [2, 1]]), 1),
])
def test_profile_refuses_non_permutations(tau, k):
    with pytest.raises(PermError, match=r"not a permutation of 1\.\."):
        profile(tau, k)


@pytest.mark.parametrize("tau", [
    (1, 2.0, 3),                 # np.fromiter would read 2.0 as 2
    (2.0, 1.0),
    (1.5, 2.5),
    (1, np.float64(2.0)),
    ("1", "2"),                  # np.fromiter would parse these
    ((1, 2), (2, 1)),
    (1, 2**64),
    np.array([1.0, 2.0]),
    np.array([[1, 2], [2, 1]]),
])
def test_perm_array_refuses_non_integer_entries(tau):
    with pytest.raises(PermError, match=r"not a permutation of 1\.\."):
        perm_array(tau)


@pytest.mark.parametrize("tau", [
    np.array([3, 1, 2], dtype=np.int8), np.array([3, 1, 2], dtype=np.uint8),
    np.array([3, 1, 2], dtype=np.int32), np.array([3, 1, 2], dtype=np.uint64),
    np.array([3, 1, 2]), (3, 1, 2), [3, 1, 2], (np.int64(3), np.int32(1), 2),
])
def test_perm_array_takes_integer_arrays_and_sequences(tau):
    v = perm_array(tau)
    assert v.dtype == np.int64 and v.tolist() == [3, 1, 2]


def test_naive_oracle_counts_any_sequence():
    assert profile_naive((5, 7, 9), 3) == profile((1, 2, 3), 3)
