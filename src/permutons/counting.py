"""Exact pattern-occurrence counting.

``profiles(tau, k)`` gives every table of length r <= min(k, n), k <= 4,
from one validation and one dominance count, the left-smaller counts
a_j = #{i < j : v_i < v_j} (the corner-tree view of Even-Zohar and Leng,
arXiv:1911.01414), and ``profile(tau, k)`` reads its k-th table.
``dominance_profiles`` turns the counts of one host or of a batch of rows
(the S_n search scores its rows with it) into every table with r <= 3:
occ(12) is their sum (``low_profiles``), the 3-table their ``three_counts``.
A host's count is ``_left_smaller_perm``, an O(n log n) bottom-up merge
sort over unpadded rows, in O(n) memory: keys value | flag | count carry
each element's count through every level, as uint32 while the count field
holds the level, then as int64, over base blocks counted by column
comparisons.  k = 4 solves for the 4-counts from 24 sums over each point's
quadrant counts (``_profile4``), chosen with their integer solve at import
from the candidate sums' own values on S_1..S_4 (``_derive_solve``).  k = 5, 6
fall back to chunked subset enumeration (|tau| <= 60), tallied by
``np.bincount`` of ``pattern_index``, the row-to-pattern index built from
pairwise column comparisons (the Monte Carlo histogram reads the same
index straight from its draws, ``measures._pattern_rows``).
``profile_naive`` is the independent oracle used by the test suite; the fast
paths must agree with it exactly.

``profile`` and ``profiles`` count in Python ints; every numpy accumulator
stays below 2^63 for n <= 10^4 (``_profile4``, ``_sweep4``).
``_check_exact_size`` is the one table of the sizes the engines take:
k <= 6, |tau| <= 60 for k = 5, 6, PROFILE4_MAX_N = 10^4 for k = 4 and
PROFILE3_MAX_N = 3 * 10^6 for k = 3 (C(n, 3) passes 2^63 near 3.8 * 10^6).
Larger requests are refused with ``PermError`` before any work, and
``profile`` and ``profiles`` then take only a permutation of 1..n
(``perm_array``); the ``_naive`` oracles count patterns of any sequence.
"""

from __future__ import annotations

import math
from itertools import chain, combinations, islice, permutations, product
from typing import Dict, Sequence, Tuple

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
_KEY32_BITS = 32             # bits the lower merge levels' uint32 keys use
_BROADCAST_CELLS = 1 << 14   # entries per _block_counts broadcast
_SWEEP_CELLS = 1 << 15       # entries per block of the 4-profile sweep


def _broadcast_counts(rows: np.ndarray) -> np.ndarray:
    """left_smaller_counts within each row of a 2-D batch, in its shape, by
    one broadcast comparison (rows x w x w booleans)."""
    w = rows.shape[1]
    below = rows[:, None, :] < rows[:, :, None]
    below &= np.tri(w, k=-1, dtype=bool)
    return below.sum(axis=2)


def _block_counts(rows: np.ndarray) -> np.ndarray:
    """_broadcast_counts by column comparisons over a contiguous copy of the
    columns, as in pattern_index: w - 1 numpy calls, each comparing one
    column with all earlier ones over every row, counted in the rows' dtype
    (uint32 merge keys count at half the int64 cost).  A batch whose
    broadcast holds at most _BROADCAST_CELLS entries takes the broadcast,
    which costs less than those calls and counts in int64.
    """
    m, w = rows.shape
    if m * w * w <= _BROADCAST_CELLS:
        return _broadcast_counts(rows)
    cols = np.ascontiguousarray(rows.T)
    out = np.zeros_like(cols)
    for j in range(1, w):
        (cols[:j] < cols[j]).sum(axis=0, out=out[j])
    return out.T


def _rows(a: np.ndarray, width: int) -> list:
    """The nonempty of a's full rows of width entries (one view) and tail row."""
    full = len(a) - len(a) % width
    return [r for r in (a[:full].reshape(-1, width), a[full:].reshape(1, -1)) if r.size]


def _left_smaller_perm(v: np.ndarray) -> np.ndarray:
    """left_smaller_counts of v, a permutation of 1..n as int64 (perm_array).

    Bottom-up merge sort over positions without padding: each level sorts
    its full rows of 2w and one shorter tail row.  n <= 128 is one
    _block_counts call.  Otherwise each element is one key v - 1 | flag |
    count, so the count rides through every sort: blocks of _BASE gain
    their _block_counts (the values order the keys alike) and are sorted,
    then sorted runs of w merge pairwise.  Before a level's sort the right
    run's r-th key gains the flag and w - 1 - r; after it a flagged key at
    merged index t gains t - (w - 1) and loses the flag: t - r in all, the
    left-run keys ahead of it, and a count field holds at most 2w - 1.
    With b the bit length of n - 1, the keys are uint32 with a 31 - b bit
    field while 2w fits it (w = 16..8192 at n = 10^5; the base blocks
    alone for 2^26 < n <= 2^27, nothing beyond), then repacked once into
    int64 with a b + 1 bit field, 2b + 2 <= 62 bits.  uint32 rows sort
    fastest by numpy's default sort, int64 rows (two sorted runs) by its
    stable merge.  The last run is sorted by value: index i holds value
    i + 1's count.  Memory: O(n).  The int64 levels hold the keys, a gain
    and an index array (8n bytes each) beside the last uint32 keys (4n);
    the closing gather adds 16n: a traced peak of 44n bytes at n = 10^5.
    """
    n = len(v)
    if n > 1 << 30:
        raise ValueError("left_smaller_counts: n > 2^30 overflows int64 keys")
    if n * n <= _BROADCAST_CELLS:                    # one broadcast, n <= 128
        return _block_counts(v.reshape(1, n))[0]
    bits = (n - 1).bit_length()
    field, dtype = _KEY32_BITS - 1 - bits, np.uint32
    if 1 << field < _BASE:                           # no room for the block counts
        field, dtype = bits + 1, np.int64
    keys = (v - 1).astype(dtype) << (field + 1)      # value | flag | count
    for rows in _rows(keys, _BASE):
        np.add(rows, _block_counts(rows), out=rows, casting="unsafe")
        rows.sort(axis=1)
    gain, w = np.empty_like(keys), _BASE
    while w < n:
        if 2 * w > 1 << field:                       # the uint32 field is full
            keys = (keys >> (field + 1)).astype(np.int64) << (bits + 2) | keys & ((1 << field) - 1)
            field, gain = bits + 1, np.empty(n, dtype=np.int64)
        flag = keys.dtype.type(1 << field)
        down = np.arange(min(2 * w, n), dtype=keys.dtype) - (flag + w - 1)  # wraps in uint32
        for runs, g in zip(_rows(keys, 2 * w), _rows(gain, 2 * w)):
            if runs.shape[1] > w:                    # a tail of at most w is one run
                runs[:, w:] -= down[:runs.shape[1] - w]
                runs.sort(axis=1, kind="stable" if keys.dtype == np.int64 else None)
                np.bitwise_and(runs, flag, out=g)
                g >>= field                          # 1 in the right run
                g *= down[:runs.shape[1]]
                runs += g
        w *= 2
    keys &= (1 << field) - 1
    return keys[v - 1].astype(np.int64, copy=False)


def _ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of a's entries by (value ascending, position descending):
    an equal value to the left ranks above, so ties are not counted."""
    n = len(a)
    ranks = np.empty(n, dtype=np.int64)
    ranks[n - 1 - np.argsort(a[::-1], kind="stable")] = np.arange(1, n + 1)
    return ranks


def left_smaller_counts(values: Sequence[int]) -> np.ndarray:
    """c[j] = #{i < j : values[i] < values[j]}, O(n log n), no loop over j.

    A permutation of 1..n is its own ranks; other values (ties, any integers
    or any ordered type) are ranked by _ranks first.  The ranks go to the
    merge kernel _left_smaller_perm: a bottom-up merge sort whose int64 keys
    carry each element's count through every level's sort.
    """
    try:
        ranks = perm_array(values)
    except PermError:
        ranks = _ranks(np.asarray(values))
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


_P3, _P4 = all_patterns(3), all_patterns(4)
# occ(sigma, pi), sigma in S_3 (rows) and pi in S_4 (columns).  Each
# occurrence of sigma in tau lies in n - 3 four-point sets, so
# sum_pi occ(sigma, pi) N4(pi) = (n - 3) N3(sigma).
_OCC3_IN4 = np.array([list(profile_naive(pi, 3).values()) for pi in _P4]).T


def _relation_gaps(four: Sequence[int], three: Sequence[int], n: int) -> np.ndarray:
    """(n - 3) N3(sigma) - sum_pi occ(sigma, pi) N4(pi), per sigma in S_3, from
    the counts N4 and N3 in all_patterns order."""
    return (n - 3) * np.asarray(three) - _OCC3_IN4 @ np.asarray(four)


def _sweep4(v: np.ndarray, quads: np.ndarray) -> Tuple[np.ndarray, int]:
    """The O(n^2) part of _candidate_sums: the ascending two-node trees
    T[f, g] = sum over j < k, v_j < v_k of quads[f, j] quads[g, k], and
    sum_{j < k} Q R.

    The sweep takes B = _SWEEP_CELLS // n consecutive middle positions j at
    a time (at least one, at most n - 1) and every k > j0 as one (B, m)
    block of asc = [k > j][v_j < v_k], m = n - 1 - j0, so the interpreter
    cost is paid per block.  Per block:
    - G = F_J^T asc with F = (1, quads), and T += G F_K: two matrix
      products (BLAS).  G's row for F = 1 holds the column sums of asc,
      which carry Q into the next block, q_run[k] = #{i < j0 : v_i < v_k},
      and give the column sums of R below by one 1-D cumsum;
    - R = (k - j)_+ - (cumsum of asc along k), the one pass along the long
      axis.  As Q[j, k] = q_run[k] + sum_{i < j} asc[i, k] over the block,
      sum Q R = q_run . (column sums of R) plus the strict upper triangle
      of asc R^T (BLAS).
    Every factor is an integer count of at most n, and every block sum adds
    nonnegative products, at most B m n^2 <= max(_SWEEP_CELLS, n) n^2 <
    2^42 for n <= PROFILE4_MAX_N, so each is exact in float64.  They
    accumulate in int64 (T) and Python ints (Q R).
    """
    n = len(v)
    F = np.ones((n, 5))
    F[:, 1:] = quads.T
    rows = max(1, min(_SWEEP_CELLS // n, n - 1))
    span = np.maximum(np.arange(1, n) - np.arange(rows)[:, None], 0.0)  # (k - j)_+
    span_sums = np.cumsum(span, axis=0)              # row b - 1: sum over a block of b
    corner = span[:, :rows]                          # k - j in the block's first columns
    upper, strict = corner > 0, corner > 1           # k > j; for asc R^T, i < j
    trees = np.zeros((4, 4), dtype=np.int64)
    qr, q_run = 0, np.zeros(n)
    for j0 in range(0, n - 1, rows):
        b, m = min(rows, n - 1 - j0), n - 1 - j0
        asc = (v[j0 + 1:] > v[j0:j0 + b, None]).astype(float)
        asc[:, :b] *= upper[:b, :b]
        G = F[j0:j0 + b].T @ asc
        trees += (G[1:] @ F[j0 + 1:, 1:]).astype(np.int64)
        R = span[:b, :m] - np.cumsum(asc, axis=1)
        qr += int(q_run[j0 + 1:] @ (span_sums[b - 1, :m] - np.cumsum(G[0])))
        qr += int((asc @ R.T)[strict[:b, :b]].sum())
        q_run[j0 + 1:] += G[0]
    return trees, qr


# The 4-table is read off sums over the quadrant counts LB, LA, RB, RA of
# each point j (index 0..3): #{i < j : v_i < v_j}, #{i < j : v_i > v_j},
# #{i > j : v_i < v_j}, #{i > j : v_i > v_j}.  The 53 candidates of
# _candidate_sums are the 20 stars sum_j prod_q C(quadrant q of j, m_q), m
# a row of _EXPONENTS (sum 3, lexicographic); the 16 ascending, then 16
# descending, two-node corner trees, the sum over j < k with v_j < v_k
# (v_j > v_k) of f(j) g(k), (f, g) a row of _PAIRS; and sum_{j < k} Q R,
# Q = #{i < j : v_i < v_k}, R = #{j < p <= k : v_p < v_j}.  _derive_solve
# keeps 24 at import (_KEPT; _STARS, _ASC_TREES, _DESC_TREES name them) and
# builds _SOLVE: row pi is _SOLVE_DET * N4(pi) in the kept sums and the
# 3-counts.  tests/test_counting.py derives both again from profile_naive.
_EXPONENTS = np.array([m for m in product(range(4), repeat=4) if sum(m) == 3])
_PAIRS = np.array(list(product(range(4), repeat=2)))


def _candidate_sums(v: np.ndarray, c_self: np.ndarray) -> np.ndarray:
    """The 53 candidate sums of v, a permutation of 1..n as int64, with
    left-smaller counts c_self: stars in O(n), descending trees as the
    prefix products sum_{j < k} f(j) g(k) less the ascending ones, which
    come with Q R from one O(n^2) sweep (_sweep4)."""
    n = len(v)
    j = np.arange(n, dtype=np.int64)
    rb = v - 1 - c_self
    quads = np.stack((c_self, j - c_self, rb, n - 1 - j - rb))      # LB, LA, RB, RA
    pairs = quads * (quads - 1) // 2
    binom = np.stack((np.ones_like(quads), quads, pairs, pairs * (quads - 2) // 3))
    trees, qr = _sweep4(v, quads)
    unmasked = np.cumsum(quads[:, :-1], axis=1) @ quads[:, 1:].T
    return np.concatenate((binom[_EXPONENTS, range(4)].prod(axis=1).sum(axis=1),
                           trees.ravel(), (unmasked - trees).ravel(), (qr,)))


def _derive_solve() -> Tuple[np.ndarray, int, np.ndarray]:
    """(kept, det, solve) of _profile4 from the candidates' values on every
    pattern of length 1..4.  A sum with no 1- or 2-point part (zero on S_1,
    S_2) takes values c_3 on S_3 and has coefficients c_4 = (its values on
    S_4) - _OCC3_IN4^T c_3 over S_4.  The candidates whose c_4 leaves the
    span of the earlier kept ones (Gram-Schmidt in float64) are kept; with
    A, C their c_4, c_3 rows and adj = det A^-1 (the float inverse times
    det, rounded), sums = A N4 + C N3 gives det N4 = adj sums - adj C N3.
    RuntimeError unless 24 are kept, none has a 1- or 2-point part, and
    adj A = det I exactly in int64 with det != 0."""
    hosts = [np.array(p) for r in range(1, 5) for p in all_patterns(r)]
    values = np.array([_candidate_sums(v, _left_smaller_perm(v)) for v in hosts])
    low, c3, c4 = values[:3], values[3:9], values[9:] - _OCC3_IN4.T @ values[3:9]
    kept, basis = [], np.zeros((0, len(_P4)))      # orthonormal rows spanning the kept c_4
    for i, col in enumerate(c4.T.astype(float)):
        rest = col - basis.T @ (basis @ col)
        if rest @ rest > 1e-9 * (col @ col):         # outside the span, beyond rounding
            kept, basis = kept + [i], np.vstack((basis, rest / np.sqrt(rest @ rest)))
    if len(kept) != len(_P4) or low[:, kept].any():
        raise RuntimeError("4-profile: no candidate basis free of 1- and 2-point parts")
    A = c4[:, kept].T
    det = round(np.linalg.det(A))
    adj = np.rint(det * np.linalg.inv(A)).astype(np.int64)
    if not det or not np.array_equal(adj @ A, det * np.eye(len(A), dtype=np.int64)):
        raise RuntimeError("4-profile: the rounded adjugate is not exact")
    return np.isin(np.arange(c4.shape[1]), kept), det, np.hstack((adj, -adj @ c3[:, kept].T))


_KEPT, _SOLVE_DET, _SOLVE = _derive_solve()
_STARS, _ASC_TREES, _DESC_TREES = (table[kept] for table, kept in zip(
    (_EXPONENTS, _PAIRS, _PAIRS), np.split(_KEPT, [20, 36, 52])))


def _profile4(v: np.ndarray, c_self: np.ndarray, three: Dict[Pattern, int]) -> Dict[Pattern, int]:
    """O(n^2) 4-pattern table of v, n >= 4, from its left-smaller counts
    c_self and its 3-profile three: det * N4 = _SOLVE (kept candidate sums,
    3-counts), divided exactly by det.  The 20 stars have rank 14 over S_4
    and hold the six 3-profile relations; the two-node corner trees of
    Even-Zohar and Leng raise it to 23, and Q R, in the dimension that
    Dudek and Gawrychowski (2020) tie to counting 4-cycles, to 24.

    Exactness: the stars and prefix products are int64 sums of nonnegative
    terms below n^4 < 2^63; each kept sum is at most 3 C(n, 4) + 2 C(n, 3)
    (coefficients at most 3 over S_4, 2 over S_3) and each row of _SOLVE
    has absolute sum at most 92, so the solve stays below 2^57 for
    n <= PROFILE4_MAX_N.  A remainder, or a table that breaks a relation
    sum_pi occ(sigma, pi) N4(pi) = (n - 3) N3(sigma), raises RuntimeError.
    """
    counts3 = [three[sigma] for sigma in _P3]
    sums = np.concatenate((_candidate_sums(v, c_self)[_KEPT], counts3))
    four, rest = np.divmod(_SOLVE @ sums, _SOLVE_DET)
    if rest.any() or _relation_gaps(four, counts3, len(v)).any():
        raise RuntimeError("4-profile breaks the 3-profile relations")
    return dict(zip(_P4, four.tolist()))


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
