import functools
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permutons import (
    all_patterns, inversions, left_smaller_counts, occurrences,
    occurrences_naive, pattern_of, profile, profile_naive,
)
from permutons import counting, from_perm, grid_densities, symmetry
from permutons.counting import (
    PROFILE3_MAX_N, PROFILE4_MAX_N, PermError, _check_exact_size, pattern_index,
    perm_array, three_counts,
)
from permutons.measures import _flat_sums

from conftest import control_hits


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
    # one broadcast up to 128 positions, then merge levels over unpadded
    # rows
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
    # Up to _BROADCAST_CELLS // w^2 rows take one broadcast comparison, one
    # row more takes the pairwise column comparisons
    rng = np.random.default_rng(w)
    broadcast_rows = counting._BROADCAST_CELLS // (w * w)
    for m in (broadcast_rows, broadcast_rows + 1):
        rows = np.concatenate([rng.permuted(np.tile(np.arange(w), (m - m // 2, 1)), axis=1),
                               rng.integers(-2, 3, (m // 2, w))])  # ties not counted
        got = counting._block_counts(rows)
        assert got.shape == rows.shape
        assert got.tolist() == [_left_smaller_loop(row.tolist()) for row in rows]


@pytest.mark.parametrize("k", range(18))
def test_left_smaller_counts_around_powers_of_two(k):
    # the merge rows change shape at powers of two: one below, at and one
    # above 2^k, through the public ranking and through the kernel profile uses
    rng = np.random.default_rng(100 + k)
    for n in {max(2**k - 1, 1), 2**k, 2**k + 1}:
        tau = rng.permutation(n) + 1
        got = counting._left_smaller_perm(tau)
        assert got.dtype == np.int64 and len(got) == n
        assert got.tolist() == left_smaller_counts(tau).tolist()
        for j in rng.integers(0, n, 20):
            assert got[j] == int((tau[:j] < tau[j]).sum())


def _left_smaller_oracle(tau):
    # the O(n^2) comparison table, for the lengths where it is cheap
    below = tau[None, :] < tau[:, None]
    return np.tril(below, -1).sum(axis=1)


def _check_left_smaller(tau, positions):
    # the whole count against the oracle up to n = 2048, else at positions
    got = counting._left_smaller_perm(tau)
    assert got.dtype == np.int64 and len(got) == len(tau)
    if len(tau) <= 2048:
        assert got.tolist() == _left_smaller_oracle(tau).tolist()
    for j in positions:
        assert got[j] == int((tau[:j] < tau[j]).sum()), j


def _tail_lengths(w):
    # lengths whose last row of 2w at width w is empty, shorter than w,
    # exactly w, or between w and 2w, after one or two full rows
    return [q * 2 * w + t for q in (1, 2) for t in (0, w // 2 + 1, w, w + w // 2 + 1)]


@pytest.mark.parametrize("w", [2**k for k in range(4, 17)])
def test_left_smaller_counts_at_every_tail_shape(w):
    rng = np.random.default_rng(w)
    for n in _tail_lengths(w):
        tau = rng.permutation(n) + 1
        full = n - n % (2 * w)
        edges = range(max(full - 3, 0), min(full + 4, n))    # last full row, tail row
        _check_left_smaller(tau, [*edges, n - 1, *rng.integers(0, n, 10)])


def _first_int64_width(n, key_bits=32):
    # the kernel's rule: uint32 keys with a key_bits - 1 - b bit count field
    # (b the bit length of n - 1) while a level's 2w fits it, int64 keys from
    # the first width w < n where it does not; 0 when the block counts do
    # not fit either, None when no level runs in int64
    field = key_bits - 1 - (n - 1).bit_length()
    if 2**field < counting._BASE:
        return 0
    w = counting._BASE
    while 2 * w <= 2**field:
        w *= 2
    return w if w < n else None


def _handoff_lengths(limit, key_bits=32):
    # every n > 128 up to limit at which _first_int64_width changes: it can
    # change only where the bit length of n - 1 does or n passes a width,
    # both at n = 2^k + 1
    return [2**k + 1 for k in range(7, limit.bit_length()) if 2**k < limit and
            _first_int64_width(2**k + 1, key_bits) != _first_int64_width(2**k, key_bits)]


def _level_dtypes(monkeypatch):
    # the dtype of the keys at each merge level w, as the kernel hands them
    # (and the gain array of the same dtype) to _rows
    seen = {}
    real = counting._rows

    def spy(a, width):
        if width > counting._BASE:
            seen[width // 2] = a.dtype
        return real(a, width)
    monkeypatch.setattr(counting, "_rows", spy)
    return seen


@pytest.mark.parametrize("key_bits", [32, 24, 20])
def test_left_smaller_counts_around_each_uint32_to_int64_handoff(key_bits, monkeypatch):
    # one below, at and one above each length where the first int64 level
    # moves, by the kernel's rule; narrower uint32 keys (24, 20 bits) bring
    # the hand-offs of n near 2^26 and past 2^27 (base blocks only in
    # uint32, then none) down to lengths a test can run
    monkeypatch.setattr(counting, "_KEY32_BITS", key_bits)
    seen = _level_dtypes(monkeypatch)
    limit = 2**17 + 2 if key_bits == 32 else 2**15 + 2
    handoffs = _handoff_lengths(limit, key_bits)
    assert len(handoffs) >= 3
    if key_bits == 32:
        assert handoffs == [2**15 + 1, 2**16 + 1, 2**17 + 1]
    rng = np.random.default_rng(key_bits)
    for n in sorted({m for h in handoffs for m in (h - 1, h, h + 1)}):
        seen.clear()
        tau = rng.permutation(n) + 1
        _check_left_smaller(tau, [0, n // 2, n - 1, *rng.integers(0, n, 10)])
        first = _first_int64_width(n, key_bits)
        for w, dtype in seen.items():
            assert dtype == (np.int64 if first is not None and w >= first else np.uint32), (n, w)
        assert list(seen) == [2**k for k in range(4, (n - 1).bit_length())]


def test_merge_keys_fit_their_dtypes():
    # pure arithmetic, for every bit length b = 4..30 of n - 1: the largest
    # uint32 key (value n - 1, flag, and the largest field: w - 1 - r added
    # to a count of at most w - 1 before a sort, at most 2w - 1 after, for
    # the widest uint32 level) stays below 2^32, and the largest int64 key
    # below 2^63
    for b in range(4, 31):
        n = 2**b
        field = 31 - b
        first = _first_int64_width(n)
        if first != 0:
            widest = (first or n) // 2                     # the last uint32 level
            top = max(counting._BASE - 1, 2 * widest - 1)
            assert top < 2**field
            assert ((n - 1) << (field + 1)) + (1 << field) + top < 2**32, b
        field = b + 1
        top = 2 * (n // 2) - 1                             # the widest level, w = n/2
        assert top < 2**field
        assert ((n - 1) << (field + 1)) + (1 << field) + top < 2**63, b


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1), max_size=150))
def test_left_smaller_counts_matches_double_loop_on_any_ints(values):
    assert left_smaller_counts(values).tolist() == _left_smaller_loop(values)


def test_left_smaller_counts_takes_values_near_2_to_the_62():
    # the ranking step takes any int64 value, ties included, whatever n is
    near = [2**62 - 1, 2**62, -2**62, -2**62 + 1, 2**63 - 1, -2**63, 0]
    values = [near[i] for i in np.random.default_rng(8).integers(0, len(near), 500)]
    assert left_smaller_counts(values).tolist() == _left_smaller_loop(values)


def test_left_smaller_counts_ranks_only_what_is_not_a_permutation(monkeypatch):
    # a permutation of 1..n, as any integer array or sequence, is its own
    # ranks and skips the ranking; ties, 0-based values, negatives, values
    # past n and int64 extremes are ranked.  Every one against the loop
    ranked = []
    real = counting._ranks
    monkeypatch.setattr(counting, "_ranks", lambda a: ranked.append(len(a)) or real(a))
    rng = np.random.default_rng(12)
    for n in (1, 2, 17, 300):
        perm = rng.permutation(n) + 1
        for tau in (perm, perm.astype(np.int32), tuple(perm.tolist()), perm.tolist()):
            assert left_smaller_counts(tau).tolist() == _left_smaller_loop(perm.tolist())
    assert ranked == []
    perm = rng.permutation(300) + 1
    others = [perm - 1, np.where(perm == 7, 8, perm), perm - 150, perm + 1,
              np.where(perm == 1, 2**63 - 1, perm), np.where(perm == 2, -2**63, perm),
              [2**63 - 1, -2**63, 0, 2**63 - 1, 1]]
    for values in others:
        assert left_smaller_counts(values).tolist() == _left_smaller_loop(list(values))
    assert ranked == [len(values) for values in others]


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


@pytest.mark.parametrize("n", range(1, 9))
def test_profiles_give_every_table_up_to_k(n):
    # r <= min(k, n): hosts shorter than k get the tables they have
    rng = np.random.default_rng(60 + n)
    for tau in {tuple(range(1, n + 1)), tuple(range(n, 0, -1)),
                *(tuple(int(v) + 1 for v in rng.permutation(n)) for _ in range(4))}:
        for k in range(1, 5):
            tables = counting.profiles(tau, k)
            assert list(tables) == list(range(1, min(k, n) + 1)), (tau, k)
            for r, table in tables.items():
                assert table == profile(tau, r) == profile_naive(tau, r), (tau, k, r)
                assert list(table) == all_patterns(r)


def test_profiles_refuse_before_any_work(monkeypatch):
    def refuse(*_):
        raise AssertionError("validated after the size check")
    monkeypatch.setattr(counting, "perm_array", refuse)
    for k in (0, 5):
        with pytest.raises(PermError, match="1 <= k <= 4"):
            counting.profiles((1, 2, 3), k)
    with pytest.raises(PermError, match=str(PROFILE4_MAX_N)):
        counting.profiles(range(1, PROFILE4_MAX_N + 2), 4)
    with pytest.raises(PermError, match="out of range"):
        counting.profiles((), 2)
    monkeypatch.undo()
    with pytest.raises(PermError, match=r"not a permutation of 1\.\."):
        counting.profiles((1, 3), 4)


def test_tables_hold_python_ints():
    # numpy scalars would carry int64 arithmetic into the Fractions of the
    # flat-grid densities, where n^k products overflow silently
    tau = tuple(int(v) + 1 for v in np.random.default_rng(4).permutation(12))
    for k in range(1, 7):
        assert all(type(x) is int for x in profile(tau, k).values()), k
    for table in counting.profiles(tau, 4).values():
        assert all(type(x) is int for x in table.values())
    big = tuple(int(v) + 1 for v in np.random.default_rng(5).permutation(3000))
    for k in (3, 4):
        dens = grid_densities(from_perm(big), k)
        assert all(type(t.numerator) is int and type(t.denominator) is int
                   for t in dens.values())
        assert sum(dens.values()) == 1


def _score_sums(monkeypatch, batch):
    """The FLAT_TERMS[3] sums _score_hits compares for each row, and its mask."""
    sums = []

    def capture(profiles, k):
        sums.append(_flat_sums(profiles, k))
        return sums[-1]

    monkeypatch.setattr(symmetry, "_flat_sums", capture)
    mask = symmetry._score_hits(batch)
    monkeypatch.undo()
    return sums[-1], mask


def test_search_scores_rows_as_the_single_host_tables(monkeypatch):
    # the batch's r <= 3 tables, from one broadcast count over its rows,
    # against each row's own counting.profiles; 0-based rows as the search
    # scores its tails
    rng = np.random.default_rng(89)
    s9 = np.array(list(itertools.permutations(range(1, 10))), dtype=np.int64)
    batches = [s9[control_hits(s9)],
               np.array([rng.permutation(8) + 1 for _ in range(300)]),
               np.array([rng.permutation(9) for _ in range(300)])]
    assert len(batches[0]) == 240
    for batch in batches:
        n = batch.shape[1]
        sums, mask = _score_sums(monkeypatch, batch)
        for i, row in enumerate(batch + 1 - batch.min()):
            one = _flat_sums(counting.profiles(tuple(row.tolist()), 3), 3)
            assert {pi: int(s[i]) for pi, s in sums.items()} == one, row
            assert mask[i] == all(total == n ** 3 for total in one.values())


def test_flat_table_takes_one_dominance_count(monkeypatch):
    # the r <= 4 tables of a flat grid from one validation, one merge kernel
    # and one three_counts; k = 1 runs no dominance count at all
    calls = Counter()
    for name in ("perm_array", "_left_smaller_perm", "three_counts"):
        real = getattr(counting, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(counting, name, counted)
    tau = (5, 11, 2, 8, 12, 1, 7, 3, 10, 4, 9, 6)
    grid_densities(from_perm(tau), 4)
    assert calls == {"perm_array": 1, "_left_smaller_perm": 1, "three_counts": 1}
    calls.clear()
    assert profile(tau, 1) == {(1,): 12}
    assert calls == {"perm_array": 1}


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


def test_occurrences_refuses_non_patterns_and_longer_patterns():
    with pytest.raises(ValueError, match="not a pattern"):
        occurrences((1, 3), (2, 1, 3))
    with pytest.raises(ValueError, match="pattern longer than host"):
        occurrences((1, 2, 3), (2, 1))


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
        gaps = counting._relation_gaps(list(profile_naive(tau, 4).values()),
                                       list(profile_naive(tau, 3).values()), n)
        assert gaps.tolist() == [0] * 6, tau


def _quadrants(tau, j):
    """(LB, LA, RB, RA) of position j: the points left/right of it and
    below/above it."""
    left = sum(tau[i] < tau[j] for i in range(j))
    right = sum(tau[i] < tau[j] for i in range(j + 1, len(tau)))
    return left, j - left, right, len(tau) - 1 - j - right


def _star_sum(m, tau):
    return sum(math.prod(math.comb(q, e) for q, e in zip(_quadrants(tau, j), m))
               for j in range(len(tau)))


def _tree_sum(asc, f, g, tau):
    quads = [_quadrants(tau, j) for j in range(len(tau))]
    return sum(quads[j][f] * quads[k][g]
               for j, k in itertools.combinations(range(len(tau)), 2)
               if (tau[j] < tau[k]) == asc)


def _qr_sum(tau):
    return sum(sum(tau[i] < tau[k] for i in range(j))
               * sum(tau[p] < tau[j] for p in range(j + 1, k + 1))
               for j, k in itertools.combinations(range(len(tau)), 2))


def _shipped_sums():
    """The 24 sums of the 4-profile engine, in the column order of _SOLVE."""
    return ([functools.partial(_star_sum, m) for m in counting._STARS.tolist()]
            + [functools.partial(_tree_sum, True, f, g) for f, g in counting._ASC_TREES.tolist()]
            + [functools.partial(_tree_sum, False, f, g)
               for f, g in counting._DESC_TREES.tolist()]
            + [_qr_sum])


def _coefficients(sum_of):
    """c[sigma] for every pattern of length <= 4, such that sum_of(tau) =
    sum over sigma of c[sigma] occ(sigma, tau) on every host: Moebius
    inversion of the sum's values on the patterns themselves."""
    c = {}
    for r in range(1, 5):
        for pi in all_patterns(r):
            c[pi] = sum_of(pi) - sum(x * profile_naive(pi, len(s))[s]
                                     for s, x in c.items() if len(s) < r)
    return c


def _rank_and_det(rows):
    """Exact rank of an integer matrix, and its determinant if square."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, Fraction(1)
    for col in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                ratio = m[i][col] / m[rank][col]
                m[i] = [x - ratio * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank, det


def test_star_tree_and_qr_sums_have_ranks_14_23_24():
    # over S_4: all twenty degree-3 stars, then all 32 two-node trees over
    # quadrant pairs, then Q R
    stars = [_coefficients(functools.partial(_star_sum, m))
             for m in itertools.product(range(4), repeat=4) if sum(m) == 3]
    trees = [_coefficients(functools.partial(_tree_sum, asc, f, g))
             for asc in (True, False) for f in range(4) for g in range(4)]
    qr = _coefficients(_qr_sum)
    s4 = all_patterns(4)
    ranks = [_rank_and_det([[c[pi] for pi in s4] for c in rows])[0]
             for rows in (stars, stars + trees, stars + trees + [qr])]
    assert (len(stars), len(trees), ranks) == (20, 32, [14, 23, 24])
    # a star counts each quadruple once per point, with nothing of length < 4,
    # and the stars span the six 3-profile relations occ(sigma, .)
    assert all(not c[s] for c in stars for s in c if len(s) < 4)
    star_rows = [[c[pi] for pi in s4] for c in stars]
    assert _rank_and_det(star_rows + counting._OCC3_IN4.tolist())[0] == 14


def test_solve_table_is_the_adjugate_of_the_derived_coefficients():
    # adj A = det I over S_4, and the last six columns cancel each sum's
    # 3-point part; no shipped sum has a part of length 1 or 2
    coeffs = [_coefficients(s) for s in _shipped_sums()]
    A = np.array([[c[pi] for pi in all_patterns(4)] for c in coeffs])
    L = np.array([[c[s] for s in all_patterns(3)] for c in coeffs])
    assert all(not c[s] for c in coeffs for s in c if len(s) <= 2)
    solve, det = counting._SOLVE, counting._SOLVE_DET
    assert solve.shape == (24, 30) and solve.dtype == np.int64
    assert _rank_and_det(A.tolist()) == (24, det)
    assert np.array_equal(solve[:, :24] @ A, det * np.eye(24, dtype=np.int64))
    assert np.array_equal(solve[:, 24:], -solve[:, :24] @ L)


def test_stars_are_the_first_fourteen_that_add_rank():
    # in lexicographic order of their exponents
    kept, rows = [], []
    for m in itertools.product(range(4), repeat=4):
        if sum(m) != 3:
            continue
        c = _coefficients(functools.partial(_star_sum, m))
        row = [c[pi] for pi in all_patterns(4)]
        if _rank_and_det(rows + [row])[0] > len(kept):
            kept.append(m)
            rows.append(row)
    assert kept == [tuple(m) for m in counting._STARS.tolist()]
    assert len(kept) == 14


def test_solve_stays_in_int64_at_the_size_limit():
    # each sum is at most max|A| C(n, 4) + max|L| C(n, 3) (nonnegative
    # counts), so |_SOLVE @ sums| stays below 2^57 < 2^63 for
    # n <= PROFILE4_MAX_N
    coeffs = [_coefficients(s) for s in _shipped_sums()]
    n = PROFILE4_MAX_N
    worst = max(max(abs(c[pi]) for pi in all_patterns(4)) * math.comb(n, 4)
                + max(abs(c[s]) for s in all_patterns(3)) * math.comb(n, 3)
                for c in coeffs)
    assert int(np.abs(counting._SOLVE).sum(axis=1).max()) * worst < 2**57


def test_derivation_refuses_a_wrong_inverse(monkeypatch):
    # one entry of the float inverse off by 1: the rounded adjugate is off
    # by det there, so adj A = det I fails in int64
    real = np.linalg.inv

    def wrong(a):
        out = real(a)
        out[0, 0] += 1.0
        return out

    monkeypatch.setattr(counting.np.linalg, "inv", wrong)
    with pytest.raises(RuntimeError, match="adjugate is not exact"):
        counting._derive_solve()


def test_derivation_refuses_sums_with_a_one_point_part(monkeypatch):
    # n added to every candidate is a 1-point part: each sum is 1 on S_1
    real = counting._candidate_sums
    monkeypatch.setattr(counting, "_candidate_sums", lambda v, c: real(v, c) + len(v))
    with pytest.raises(RuntimeError, match="free of 1- and 2-point parts"):
        counting._derive_solve()


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
def test_sweep_matches_the_defining_sums(rows, monkeypatch):
    # the ascending trees over quadrant pairs and sum Q R, block by block
    rng = np.random.default_rng(30 + rows)
    for n in (2, 3, 5, 8, 13):
        monkeypatch.setattr(counting, "_SWEEP_CELLS", rows * n)
        v = rng.permutation(n) + 1
        a = counting._left_smaller_perm(v)
        j = np.arange(n)
        quads = np.stack((a, j - a, v - 1 - a, n - 1 - j - (v - 1 - a)))
        trees, qr = counting._sweep4(v, quads)
        tau = v.tolist()
        assert trees.tolist() == [[_tree_sum(True, f, g, tau) for g in range(4)]
                                  for f in range(4)], (n, rows)
        assert qr == _qr_sum(tau), (n, rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(4, 16).flatmap(
    lambda n: st.tuples(st.permutations(range(1, n + 1)), st.integers(1, n))))
def test_profile4_matches_the_oracle_at_any_block_size(case):
    tau, rows = case
    with mock.patch.object(counting, "_SWEEP_CELLS", rows * len(tau)):
        assert profile(tau, 4) == profile_naive(tau, 4)


def _four_table(counts):
    return {pi: counts.get(pi, 0) for pi in all_patterns(4)}


def test_profile4_closed_forms_at_the_size_limit():
    # the identity, the reversal and the two-block skew (m + 1..2m, 1..m)
    # at n = PROFILE4_MAX_N, where the sweep's block sums and the int64
    # solve are closest to their bounds
    n = PROFILE4_MAX_N
    m = n // 2
    assert profile(range(1, n + 1), 4) == _four_table({(1, 2, 3, 4): math.comb(n, 4)})
    assert profile(range(n, 0, -1), 4) == _four_table({(4, 3, 2, 1): math.comb(n, 4)})
    skew = np.concatenate((np.arange(m + 1, 2 * m + 1), np.arange(1, m + 1)))
    assert profile(skew, 4) == _four_table({
        (1, 2, 3, 4): 2 * math.comb(m, 4), (2, 3, 4, 1): math.comb(m, 3) * m,
        (3, 4, 1, 2): math.comb(m, 2) ** 2, (4, 1, 2, 3): m * math.comb(m, 3)})


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
