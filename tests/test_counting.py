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
from permutons.counting import PROFILE3_MAX_N, PROFILE4_MAX_N, three_counts


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


def test_inversions():
    assert inversions((1, 2, 3)) == 0
    assert inversions((3, 2, 1)) == 3
    assert inversions((2, 4, 1, 5, 3)) == 4


@given(st.permutations(range(1, 9)))
def test_inversions_equal_21_occurrences(tau):
    assert inversions(tau) == occurrences_naive((2, 1), tau)


def test_profile_exhaustive_small():
    # every permutation up to length 6, every k up to 4, against the
    # subset-enumeration oracle
    for n in range(1, 7):
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


def test_profile4_refuses_beyond_int64_safe_range():
    tau = tuple(range(1, PROFILE4_MAX_N + 2))
    with pytest.raises(ValueError, match=str(PROFILE4_MAX_N)):
        profile(tau, 4)


def test_profile3_refuses_beyond_int64_safe_range():
    # the guard runs before any work: a range is never materialised
    with pytest.raises(ValueError, match=str(PROFILE3_MAX_N)):
        profile(range(1, PROFILE3_MAX_N + 2), 3)
