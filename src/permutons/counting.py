"""Exact pattern-occurrence counting.

``profiles(tau, k)`` gives every table of length r <= min(k, n), k <= 4,
from one validation and one dominance count, the left-smaller counts
a_j = #{i < j : v_i < v_j} (the corner-tree view of Even-Zohar and Leng,
arXiv:1911.01414), and ``profile(tau, k)`` reads its k-th table.
``dominance_profiles`` turns the counts of one host or of a batch of rows
(the S_n search scores its rows with it) into every table with r <= 3:
occ(12) is their sum (``low_profiles``), the 3-table their ``three_counts``.
A host's count is ``_left_smaller_perm``, an O(n log n) bottom-up merge
sort whose int64 keys carry each element's count through every level, over
base blocks counted by column comparisons.  k = 4 adds one O(n^2) sweep
over middle pairs, in blocks of 2-D tables, with two splits read off the
3-table.  k = 5, 6 fall back to chunked subset enumeration (|tau| <= 60),
tallied by ``np.bincount`` of ``pattern_index``, the row-to-pattern index
built from pairwise column comparisons (the Monte Carlo histogram reads the
same index straight from its draws, ``measures._draw_patterns``).
``profile_naive`` is the independent oracle used by the test suite; the fast
paths must agree with it exactly.

``profile`` and ``profiles`` count in Python ints (the numpy accumulators
stay below 2^63 for n <= 10^4: the largest is bounded by n^4 < 2^54, and
each k = 4 block sums at most 2^14 products of at most n^2, exactly in
float64).
``_check_exact_size`` is the one table of the sizes the engines take:
k <= 6, |tau| <= 60 for k = 5, 6, PROFILE4_MAX_N = 10^4 for k = 4 and
PROFILE3_MAX_N = 3 * 10^6 for k = 3 (C(n, 3) passes 2^63 near 3.8 * 10^6).
Larger requests are refused with ``PermError`` before any work, and
``profile`` and ``profiles`` then take only a permutation of 1..n
(``perm_array``); the ``_naive`` oracles count patterns of any sequence.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice, permutations
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

Pattern = Tuple[int, ...]

PROFILE3_MAX_N = 3_000_000
PROFILE4_MAX_N = 10_000


class PermError(ValueError):
    """Invalid permutation input or out-of-range argument."""


def _check_exact_size(k: int, n: int) -> None:
    """Refuse the (k, n) that the exact counting engines do not take."""
    if not 1 <= k <= n:
        raise PermError(f"k = {k} out of range 1..{n}")
    if k > 6:
        raise PermError("exact profiles support k <= 6")
    limit = {3: PROFILE3_MAX_N, 4: PROFILE4_MAX_N, 5: 60, 6: 60}.get(k, n)  # k <= 2: none
    if n > limit:
        raise PermError(f"k = {k} exact profiles limited to |tau| <= {limit}")


def _int64_array(tau: Sequence[int]) -> np.ndarray | None:
    """tau as a 1-D int64 array, or None unless every entry is an integer.
    A sequence is read by np.fromiter, which would truncate a float (and
    parse a str), so its sum decides first: it stays an integer only when
    every entry is one."""
    if isinstance(tau, np.ndarray):
        ok = tau.ndim == 1 and tau.dtype.kind in "iu"
        return tau.astype(np.int64, copy=False) if ok else None
    try:
        if isinstance(sum(tau), (int, np.integer)):
            return np.fromiter(tau, np.int64, len(tau))
    except (TypeError, OverflowError):
        pass
    return None


def perm_array(tau: Sequence[int]) -> np.ndarray:
    """tau as a 1-D int64 array, refused with PermError unless it is a
    permutation of 1..n, n >= 1.  The engines read values as ranks."""
    v = _int64_array(tau)
    if v is None:
        raise PermError("not a permutation of 1..n: not a sequence of integers")
    n = len(v)
    if not n or v.min() < 1 or v.max() > n:
        raise PermError(f"not a permutation of 1..{n}")
    seen = np.zeros(n + 1, dtype=bool)
    seen[v] = True
    if not seen[1:].all():
        raise PermError(f"not a permutation of 1..{n}: repeated values")
    return v


def pattern_of(values: Sequence[int]) -> Pattern:
    """Order-isomorphism pattern (ranks, 1-based) of a value sequence."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    out = [0] * len(values)
    for rank, i in enumerate(order):
        out[i] = rank + 1
    return tuple(out)


def row_ranks(rows: np.ndarray) -> np.ndarray:
    """1-based ranks of each row's entries: the patterns of the rows."""
    return np.argsort(np.argsort(rows, axis=1), axis=1) + 1


def all_patterns(k: int) -> list[Pattern]:
    return sorted(permutations(range(1, k + 1)))


def pattern_index(rows: np.ndarray) -> np.ndarray:
    """Position of each row's pattern in all_patterns(k), k = rows.shape[1].

    The Lehmer code read in factorial base: digit i counts the later entries
    of the row below entry i, added up one column comparison at a time over
    a contiguous copy of the columns, so nothing is sorted or summed along
    the k-wide axis.  The rows hold distinct values of any ordered dtype, so
    no ranks are needed.  Exact while k! fits in int64 (k <= 20).
    """
    k = rows.shape[1]
    cols = np.ascontiguousarray(rows.T)
    idx = np.zeros(len(rows), dtype=np.int64)
    for i in range(k - 1):
        idx *= k - i
        for j in range(i + 1, k):
            idx += cols[j] < cols[i]
    return idx


def occurrences_naive(pattern: Pattern, tau: Sequence[int]) -> int:
    """Subset-enumeration oracle, Theta(n^k)."""
    k = len(pattern)
    count = 0
    for idx in combinations(range(len(tau)), k):
        if pattern_of([tau[i] for i in idx]) == pattern:
            count += 1
    return count


def profile_naive(tau: Sequence[int], k: int) -> Dict[Pattern, int]:
    """Full pattern table by subset enumeration."""
    table: Dict[Pattern, int] = {p: 0 for p in all_patterns(k)}
    for idx in combinations(range(len(tau)), k):
        table[pattern_of([tau[i] for i in idx])] += 1
    return table


_BASE = 16
_SWEEP_CELLS = 1 << 14   # entries per block of the 4-profile sweep, and per
                         # _block_counts broadcast


def _broadcast_counts(rows: np.ndarray) -> np.ndarray:
    """left_smaller_counts within each row of a 2-D batch, in its shape, by
    one broadcast comparison (rows x w x w booleans)."""
    w = rows.shape[1]
    below = rows[:, None, :] < rows[:, :, None]
    below &= np.tri(w, k=-1, dtype=bool)
    return below.sum(axis=2)


def _block_counts(rows: np.ndarray) -> np.ndarray:
    """_broadcast_counts by pairwise column comparisons over a contiguous
    copy of the columns, as in pattern_index: w(w - 1)/2 numpy calls, each
    over every row.  A batch whose broadcast holds at most _SWEEP_CELLS
    entries takes the broadcast, which costs less than that many calls.
    """
    m, w = rows.shape
    if m * w * w <= _SWEEP_CELLS:
        return _broadcast_counts(rows)
    cols = np.ascontiguousarray(rows.T)
    out = np.zeros(cols.shape, dtype=np.int64)
    for j in range(1, w):
        for i in range(j):
            out[j] += cols[i] < cols[j]
    return out.T


def _left_smaller_perm(v: np.ndarray) -> np.ndarray:
    """left_smaller_counts of v, a permutation of 1..n as int64 (perm_array).

    Bottom-up merge sort over positions, padded to size = 2^b with the
    values n + 1..size: blocks of _BASE by _block_counts, then sorted runs
    double each level.  Each element is one int64 key, packed as
    value | flag | count + size, with the flag at bit b + 1, so the count
    rides through every sort.  Before a level's sort the left run's keys
    get the flag, so an equal left value would sort behind, and the right
    run's lose their in-run rank r.  After it each right-run key gains its
    index t in the merged run: its count has gained t - r, the left-run
    elements ahead of it.  The last run is sorted by value, so the count at
    index i is value i + 1's.  Keys take 2b + 3 <= 63 bits.  Memory: four
    int64 arrays of the padded size.
    """
    n = len(v)
    if n > 1 << 30:
        raise ValueError("left_smaller_counts: n > 2^30 overflows int64 keys")
    size = 1 << max(n - 1, 0).bit_length()
    w = min(_BASE, size)
    keys = np.arange(1, size + 1, dtype=np.int64)   # padding right of every value
    keys[:n] = v
    counts = _block_counts(keys.reshape(-1, w))
    if w == size:                                    # one block, no merge level
        return counts.ravel()[:n]
    flag = 2 * size                                  # bit b + 1, above count + size
    keys *= 2 * flag
    keys += size
    blocks = keys.reshape(-1, w)
    blocks += counts
    blocks.sort(axis=1)
    t = np.arange(size, dtype=np.int64)
    gain = np.empty_like(keys)
    while w < size:
        runs = keys.reshape(-1, 2 * w)
        runs[:, :w] |= flag
        runs[:, w:] -= t[:w]
        runs.sort(axis=1)                            # the values are distinct
        g = gain.reshape(runs.shape)
        np.bitwise_and(runs, flag, out=g)            # flag in the left run
        runs -= g
        g ^= flag                                    # flag in the right run
        g >>= size.bit_length()                      # 1 in the right run
        g *= t[:2 * w]
        runs += g
        w *= 2
    keys &= flag - 1
    keys -= size
    return keys[v - 1]


def left_smaller_counts(values: Sequence[int]) -> np.ndarray:
    """c[j] = #{i < j : values[i] < values[j]}, O(n log n), no loop over j.

    The values are ranked 1..n by (value ascending, position descending), so
    an equal value to the left ranks above and ties are not counted, and the
    ranks go to the merge kernel _left_smaller_perm: a bottom-up merge sort
    whose int64 keys carry each element's count through every level's sort.
    """
    a = np.asarray(values)
    n = len(a)
    ranks = np.empty(n, dtype=np.int64)
    ranks[n - 1 - np.argsort(a[::-1], kind="stable")] = np.arange(1, n + 1)
    return _left_smaller_perm(ranks)


def inversions(tau: Sequence[int]) -> int:
    n = len(tau)
    return n * (n - 1) // 2 - int(left_smaller_counts(tau).sum())


def three_counts(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Six length-3 occurrence counts of each row of v, over the last axis.

    a[..., j] = #{i < j : v_i < v_j}.  The rows may take values 0..n-1 or
    1..n (only the row minimum is assumed to be the smallest rank).  Returns
    shape (6, ...) in all_patterns(3) order: 123, 132, 213, 231, 312, 321.
    Every triple is classified by its extreme element relative to one of
    its positions.
    """
    n = v.shape[-1]
    j = np.arange(n, dtype=np.int64)
    b = j - a                                         # larger, left
    c = (v - v.min(axis=-1, keepdims=True)) - a       # smaller, right
    d = (n - 1 - j) - c                               # larger, right
    c123 = (a * d).sum(axis=-1)
    c321 = (b * c).sum(axis=-1)
    c213 = (a * (a - 1) // 2).sum(axis=-1) - c123     # both left, both smaller
    c231 = (b * (b - 1) // 2).sum(axis=-1) - c321     # both left, both larger
    c312 = (c * (c - 1) // 2).sum(axis=-1) - c321     # both right, both smaller
    c132 = math.comb(n, 3) - (c123 + c213 + c231 + c312 + c321)
    return np.stack((c123, c132, c213, c231, c312, c321))


def low_profiles(n: int, occ12) -> dict:
    """The r <= 2 tables of a length-n host with occ(12) = occ12, an int or
    an array of them (one per row of a batch)."""
    return {1: {(1,): n}, 2: {(1, 2): occ12, (2, 1): math.comb(n, 2) - occ12}}


def dominance_profiles(v: np.ndarray, a: np.ndarray, k: int) -> dict:
    """The r <= min(k, 3) tables of each row of v over the last axis from its
    left-smaller counts a: occ(12) is their sum, the 3-table their
    three_counts.  Entries are numpy scalars, or arrays over a batch."""
    tables = low_profiles(v.shape[-1], a.sum(axis=-1))
    if k >= 3:
        tables[3] = dict(zip(all_patterns(3), three_counts(v, a)))
    return tables


def _zone_pattern(asc: bool, zi: int, zl: int, tilt: float = 0.0) -> Pattern:
    """Pattern of a quadruple whose middle pair ascends (asc) and whose first
    and last points lie in value zones zi and zl: 0 below both middle values,
    1 between, 2 above.  In a shared zone, tilt > 0 puts the first point
    below the last."""
    vj, vk = (2.0, 3.0) if asc else (3.0, 2.0)
    reps = (1.0, 2.5, 4.0)
    return pattern_of([reps[zi] - tilt, vj, vk, reps[zl] + tilt])


# the twelve signatures (asc, zi, zl) whose zones differ fix the pattern
_SIG_MAP = {(asc, zi, zl): _zone_pattern(asc, zi, zl)
            for asc in (True, False) for zi in range(3) for zl in range(3) if zi != zl}


# (first point below last, first above) for the two patterns of each shared zone
_AMBIGUOUS = {(asc, z): (_zone_pattern(asc, z, z, 0.1), _zone_pattern(asc, z, z, -0.1))
              for asc in (True, False) for z in range(3)}


# the nonzero occ(sigma, pi), pi in S_4, per sigma in S_3.  Each occurrence of
# sigma in tau lies in n - 3 four-point sets, so
# sum_pi occ(sigma, pi) N4(pi) = (n - 3) N3(sigma).
_OCC3_IN4 = {sigma: tuple((pi, c) for pi in all_patterns(4)
                          if (c := profile_naive(pi, 3)[sigma]))
             for sigma in all_patterns(3)}


def _relation_gaps(table4: Dict[Pattern, int], table3: Dict[Pattern, int],
                   n: int) -> Dict[Pattern, int]:
    """(n - 3) N3(sigma) - sum_pi occ(sigma, pi) N4(pi), per sigma in S_3."""
    return {sigma: (n - 3) * table3[sigma] - sum(c * table4[pi] for pi, c in terms)
            for sigma, terms in _OCC3_IN4.items()}


def _profile4(v: np.ndarray, c_self: np.ndarray, three: Dict[Pattern, int]) -> Dict[Pattern, int]:
    """O(n^2) 4-pattern table of v, n >= 4, from its left-smaller counts
    c_self and its 3-profile three.

    One sweep classifies each quadruple (i < j < k < l) by the middle pair
    (j, k): whether v_j < v_k, and the value zones of v_i and v_l relative to
    (min, max) of the pair.  Twelve signatures determine the pattern
    outright; the six with equal zones cover two patterns each.  The sweep
    counts one pattern of four such pairs; the 3-profile gives 3124
    (sigma = 213) and 1432 (sigma = 132) through the _OCC3_IN4 relations,
    and all six relations are checked at the end.
    Partners follow by subtraction.

    The sweep takes B = _SWEEP_CELLS // n consecutive middle positions j at
    a time (at least one) and every k > j as one (B, n - j0 - 1) table, so
    the interpreter cost is paid per block, not per position.  Per entry it
    needs Q = #{i < j : v_i < v_k}, from a running row plus a cumulative sum
    down the block, and R = #{j < p <= k : v_p < v_j}, a cumulative sum
    along it.  Each block's sums are two float64 matrix products (BLAS):
    every factor is an integer count of at most n and a block holds at most
    max(_SWEEP_CELLS, n) = 2^14 entries for n <= 10^4, so a block's partial
    sums stay below 2^14 * n^2 < 2^41 < 2^53 and are exact.  They
    accumulate in int64, where the totals are quadruple counts below n^4.
    """
    n = len(v)
    table: Dict[Pattern, int] = {p: 0 for p in all_patterns(4)}
    cols = (np.arange(n, dtype=float), v.astype(float), c_self.astype(float))

    # acc[asc][a, b]: left zone a times right zone b (0..2), then two
    # disambiguator factors; a zone is (below, between, above) the middle pair
    acc = {True: np.zeros((3, 5), dtype=np.int64),
           False: np.zeros((3, 5), dtype=np.int64)}
    q_run = np.zeros(n)                   # q_run[k] = #{i < j0 : v_i < v_k}
    rows = max(1, _SWEEP_CELLS // n)
    for j0 in range(0, n - 1, rows):
        j, vj, cj = (x[j0:j0 + rows, None] for x in cols)
        k, vk, ck = (x[j0 + 1:] for x in cols)
        asc = vk > vj
        pair = k > j
        Q = np.cumsum(asc, axis=0, dtype=float)
        Q -= asc
        Q += q_run[j0 + 1:]
        q_run[j0 + 1:] = Q[-1] + asc[-1]
        R = np.cumsum(pair > asc, axis=1, dtype=float)
        P = cj + R                        # p <= k with v_p < v_j
        left = np.empty((3,) + Q.shape)
        right = np.empty((5,) + Q.shape)

        # v_j < v_k.  The last two factors read the column as the last
        # point l and j as the second: 2143 (k above l), 3214 (k below j)
        left[0], left[1], left[2] = cj, Q - cj, j - Q
        left *= asc & pair
        right[0], right[1], right[2] = vj - 1 - P, vk - ck - vj + P, n - vk - k + ck
        right[3], right[4] = k - ck - j + Q, R
        acc[True] += (left.reshape(3, -1) @ right.reshape(5, -1).T).astype(np.int64)

        # v_j > v_k; as above, 1342 (i below l, k above j), 3412 (k below l)
        left[0], left[1], left[2] = Q, cj - Q, j - cj
        left *= pair > asc
        right[0], right[1], right[2] = vk - 1 - ck, vj - cj - vk + ck - R, n - vj - k + P
        right[3], right[4] = k - j - R, ck - Q
        acc[False] += (left.reshape(3, -1) @ right.reshape(5, -1).T).astype(np.int64)

    for (flag, zi, zl), pat in _SIG_MAP.items():
        table[pat] = int(acc[flag][zi, zl])

    # ambiguous classes: one pattern counted, its partner by subtraction
    def split(flag: bool, z: int, pat: Pattern, count: int) -> None:
        for p in _AMBIGUOUS[flag, z]:
            table[p] = count if p == pat else int(acc[flag][z, z]) - count

    split(True, 0, (1, 3, 4, 2), int(acc[False][0, 3]))
    split(True, 1, (2, 1, 4, 3), int(acc[True][1, 3]))
    split(False, 1, (3, 4, 1, 2), int(acc[False][1, 4]))
    split(False, 2, (3, 2, 1, 4), int(acc[True][1, 4]))

    # the last two from the 3-profile: with 3124 = 1432 = 0 placed, the 213
    # gap is (occ(213, 3124) - occ(213, 4123)) N4(3124) = 2 N4(3124), as 1432
    # and 2431 hold equally many 213s; likewise the 132 gap is 2 N4(1432)
    split(True, 2, (3, 1, 2, 4), 0)
    split(False, 0, (1, 4, 3, 2), 0)
    gap = _relation_gaps(table, three, n)
    split(True, 2, (3, 1, 2, 4), gap[2, 1, 3] // 2)
    split(False, 0, (1, 4, 3, 2), gap[1, 3, 2] // 2)

    if any(_relation_gaps(table, three, n).values()):
        raise RuntimeError("4-profile breaks the 3-profile relations")
    return table


_CHUNK = 1 << 19


def _profile_enum(v: np.ndarray, k: int) -> Dict[Pattern, int]:
    """Chunked subset enumeration for k = 5, 6."""
    counts = np.zeros(math.factorial(k), dtype=np.int64)
    flat = chain.from_iterable(combinations(range(len(v)), k))
    while len(idx := np.fromiter(islice(flat, _CHUNK * k), dtype=np.int64)):
        counts += np.bincount(pattern_index(v[idx.reshape(-1, k)]),
                              minlength=len(counts))
    return dict(zip(all_patterns(k), counts.tolist()))


def profiles(tau: Sequence[int], k: int) -> Dict[int, Dict[Pattern, int]]:
    """{r: profile(tau, r)} for r <= min(k, n), 1 <= k <= 4, tau a permutation
    of 1..n: one validation and one dominance count (none for k = 1)."""
    n = len(tau)
    if not 1 <= k <= 4:
        raise PermError(f"profiles support 1 <= k <= 4, not k = {k}")
    k = min(k, n) or k                     # n = 0 is refused as profile refuses it
    _check_exact_size(k, n)
    v = perm_array(tau)
    if k == 1:
        return {1: {(1,): n}}
    a = _left_smaller_perm(v)
    tables = {r: {p: int(x) for p, x in table.items()}
              for r, table in dominance_profiles(v, a, k).items()}
    if k == 4:
        tables[4] = _profile4(v, a, tables[3])
    return tables


def profile(tau: Sequence[int], k: int) -> Dict[Pattern, int]:
    """Occurrence count of every length-k pattern in tau, a permutation of
    1..n; other sequences are refused with PermError."""
    _check_exact_size(k, len(tau))
    return profiles(tau, k)[k] if k <= 4 else _profile_enum(perm_array(tau), k)


def occurrences(pattern: Pattern, tau: Sequence[int]) -> int:
    """#occurrences of the pattern in tau (fast path, exact)."""
    k = len(pattern)
    if sorted(pattern) != list(range(1, k + 1)):
        raise ValueError(f"not a pattern in one-line notation: {pattern}")
    if k > len(tau):
        raise ValueError("pattern longer than host permutation")
    return profile(tau, k)[tuple(pattern)]
