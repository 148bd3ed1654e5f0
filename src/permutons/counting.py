"""Exact pattern-occurrence counting.

``profile(tau, k)`` returns occurrence counts of every length-k pattern:
k <= 2 and k = 3 run in O(n log n) from per-position quadrant statistics,
k = 4 in O(n^2) via two vectorized sweeps over middle pairs.  k = 5, 6 fall
back to chunked subset enumeration (|tau| <= 60).  ``three_counts`` is the
k = 3 formula over the last axis of a batch, shared with the S_n search.
``profile_naive`` is the independent oracle used by the test suite; the fast
paths must agree with it exactly.

All counts are Python ints (the numpy accumulators stay below 2^63 for
n <= 10^4: the largest intermediate is bounded by n * C(n, 3) < 2^61).
k = 4 profiles beyond n = PROFILE4_MAX_N = 10^4 and k = 3 profiles beyond
n = PROFILE3_MAX_N = 3 * 10^6 (C(n, 3) passes 2^63 near 3.8 * 10^6) are
refused.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

Pattern = Tuple[int, ...]

PROFILE3_MAX_N = 3_000_000
PROFILE4_MAX_N = 10_000


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
_STRICTLY_LOWER = np.tri(_BASE, k=-1, dtype=bool)


def _block_counts(rows: np.ndarray) -> np.ndarray:
    """left_smaller_counts within each row, by one broadcast comparison."""
    w = rows.shape[1]
    below = rows[:, None, :] < rows[:, :, None]
    below &= _STRICTLY_LOWER[:w, :w]
    return below.sum(axis=2).ravel()


def left_smaller_counts(values: Sequence[int]) -> np.ndarray:
    """c[j] = #{i < j : values[i] < values[j]}, O(n log n), no loop over j.

    Bottom-up merge sort over positions: blocks of _BASE by one broadcast
    comparison, then sorted runs double each level and a right-run element
    gains the left-run elements merged ahead of it.  The sort key
    value * size + (size - 1 - position) carries the position and puts an
    equal left-run value behind, so ties are not counted.  Memory: four
    int64 arrays of the padded size.  |values| must stay below 2^62 / n.
    """
    n = len(values)
    size = 1 << max(n - 1, 0).bit_length()
    w = min(_BASE, size)
    keys = np.zeros(size, dtype=np.int64)   # padding sits right of every value
    keys[:n] = values
    out = _block_counts(keys.reshape(-1, w))
    if w == size:                            # one block, no merge level
        return out[:n]
    if not 0 <= np.abs(keys).max() < (1 << 62) // size:
        raise ValueError("left_smaller_counts: values too large for int64 keys")
    mask = size - 1
    keys *= size
    keys += np.arange(mask, -1, -1)
    pos = np.empty_like(keys)
    lefts = np.empty_like(keys)
    while w < size:
        keys.reshape(-1, 2 * w).sort(axis=1)     # the keys are distinct
        np.invert(keys, out=pos)
        pos &= mask
        np.bitwise_and(pos, w, out=lefts)        # nonzero in the right run
        right = lefts != 0
        np.equal(lefts, 0, out=lefts)            # 1 in the left run
        np.cumsum(lefts.reshape(-1, 2 * w), axis=1, out=lefts.reshape(-1, 2 * w))
        lefts *= right                           # left-run elements ahead
        np.add.at(out, pos, lefts)
        w *= 2
    return out[:n]


def inversions(tau: Sequence[int]) -> int:
    n = len(tau)
    return n * (n - 1) // 2 - int(left_smaller_counts(tau).sum())


def _profile1(tau: Sequence[int]) -> Dict[Pattern, int]:
    return {(1,): len(tau)}


def _profile2(tau: Sequence[int]) -> Dict[Pattern, int]:
    n = len(tau)
    asc = int(left_smaller_counts(tau).sum())
    return {(1, 2): asc, (2, 1): n * (n - 1) // 2 - asc}


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


def _profile3(tau: Sequence[int]) -> Dict[Pattern, int]:
    v = np.asarray(tau, dtype=np.int64)
    counts = three_counts(v, left_smaller_counts(v))
    return {p: int(x) for p, x in zip(all_patterns(3), counts)}


def _zone_signature_map() -> Dict[Tuple[bool, int, int], Pattern]:
    """Pattern keyed by (middle pair ascending?, zone of first point, zone of
    last point) for the twelve signatures whose zones differ.  Zones are
    relative to the middle-pair values: 0 below both, 1 between, 2 above."""
    reps = {0: 1.0, 1: 2.5, 2: 4.0}
    out: Dict[Tuple[bool, int, int], Pattern] = {}
    for asc in (True, False):
        vj, vk = (2.0, 3.0) if asc else (3.0, 2.0)
        for zi in range(3):
            for zl in range(3):
                if zi == zl:
                    continue
                quad = [reps[zi], vj, vk, reps[zl]]
                out[(asc, zi, zl)] = pattern_of(quad)
    return out


_SIG_MAP = _zone_signature_map()


def _ambiguous_pair(asc: bool, z: int) -> Tuple[Pattern, Pattern]:
    """(pattern with first point below last, pattern with first above) for
    the two points sharing zone z around the middle pair."""
    reps = {0: 1.0, 1: 2.5, 2: 4.0}
    vj, vk = (2.0, 3.0) if asc else (3.0, 2.0)
    lo = pattern_of([reps[z] - 0.1, vj, vk, reps[z] + 0.1])
    hi = pattern_of([reps[z] + 0.1, vj, vk, reps[z] - 0.1])
    return lo, hi


def _profile4(tau: Sequence[int]) -> Dict[Pattern, int]:
    """O(n^2) 4-pattern table.

    Sweep A classifies each quadruple (i < j < k < l) by the middle pair
    (j, k): whether v_j < v_k, and the value zones of v_i and v_l relative to
    (min, max) of the pair.  Twelve signatures determine the pattern
    outright; the six with equal zones cover two patterns each.  Sweep B
    counts one pattern of each ambiguous pair directly (three folded into
    the same j-loop, three into an i-loop); the partner follows by
    subtraction.  All arithmetic is int64-exact.
    """
    n = len(tau)
    table: Dict[Pattern, int] = {p: 0 for p in all_patterns(4)}
    if n < 4:
        return table
    v = np.asarray(tau, dtype=np.int64)
    c_self = left_smaller_counts(v)       # c_self[p] = #{q < p: v_q < v_p}
    pos = np.arange(n, dtype=np.int64)

    acc = {True: np.zeros((3, 3), dtype=np.int64),
           False: np.zeros((3, 3), dtype=np.int64)}
    d1342 = d2143 = d3412 = d3214 = 0

    # one prefix-count array over values, rebuilt incrementally:
    # cnt_lt[x] = #{i < j : v_i < x}
    cnt_lt = np.zeros(n + 2, dtype=np.int64)
    for j in range(n - 1):
        vj = int(v[j])
        later = v[j + 1:]
        kk = pos[j + 1:]
        asc = later > vj
        m = np.where(asc, vj, later)
        M = np.where(asc, later, vj)

        # left zone counts over i < j
        L_low = cnt_lt[m]
        L_mid = cnt_lt[M] - cnt_lt[m]
        L_high = j - cnt_lt[M]

        # suffix zone counts over l > position of the later element
        cum_vj = np.cumsum(v < vj)        # inclusive prefix of values < v_j
        C_m = np.where(asc, cum_vj[j + 1:], c_self[j + 1:])
        C_M = np.where(asc, c_self[j + 1:], cum_vj[j + 1:])
        S_low = (m - 1) - C_m
        S_mid = (M - m) - (C_M - C_m)
        S_high = n - M - kk + C_M

        Lmat = np.stack((L_low, L_mid, L_high))
        Smat = np.stack((S_low, S_mid, S_high))
        for flag in (True, False):
            mask = asc if flag else ~asc
            if mask.any():
                acc[flag] += Lmat[:, mask] @ Smat[:, mask].T

        # disambiguators with j as the second position of the quadruple
        vl = later
        G = np.cumsum(v > vj)
        W = cum_vj
        below = ~asc                      # v_l < v_j
        if below.any():
            lpos = kk[below]
            vlb = vl[below]
            # 1342: i below l, k above j, i<j<k<l
            d1342 += int((cnt_lt[vlb] * (G[lpos - 1] - G[j])).sum())
            # 3412: i strictly between l and j in value, k below l
            d3412 += int(((cnt_lt[vj] - cnt_lt[vlb])
                          * (c_self[lpos] - cnt_lt[vlb])).sum())
        above = asc                       # v_l > v_j
        if above.any():
            lpos = kk[above]
            vla = vl[above]
            mid_i = cnt_lt[vla] - cnt_lt[vj]
            # 2143: k above l
            d2143 += int((mid_i * (lpos - j - c_self[lpos] + cnt_lt[vla])).sum())
            # 3214: k below j
            d3214 += int((mid_i * (W[lpos - 1] - W[j])).sum())

        cnt_lt[vj + 1:] += 1

    # sweep B: remaining two disambiguators, i as the first position
    d3124 = d1432 = 0
    cnt_lt_incl = np.zeros(n + 2, dtype=np.int64)
    for i in range(n - 3):
        vi = int(v[i])
        cnt_lt_incl[vi + 1:] += 1         # include position i itself
        later = v[i + 1:]
        kk = pos[i + 1:]
        H = np.cumsum(v > vi)
        J = np.cumsum(v < vi)
        below = later < vi                # v_k < v_i
        if below.any():
            kpos = kk[below]
            vkb = later[below]
            d3124 += int(((c_self[kpos] - cnt_lt_incl[vkb])
                          * ((n - vi) - H[kpos])).sum())
        above = later > vi                # v_k > v_i
        if above.any():
            kpos = kk[above]
            vka = later[above]
            nj = (kpos - c_self[kpos]) - ((i + 1) - cnt_lt_incl[vka])
            nl = (vka - vi) - c_self[kpos] + J[kpos]
            d1432 += int((nj * nl).sum())

    for (flag, zi, zl), pat in _SIG_MAP.items():
        table[pat] = int(acc[flag][zi, zl])

    # ambiguous classes: direct count and partner by subtraction
    def split(flag: bool, z: int, direct: int, direct_is_lo: bool) -> None:
        lo, hi = _ambiguous_pair(flag, z)
        cls = int(acc[flag][z, z])
        if direct_is_lo:
            table[lo] = direct
            table[hi] = cls - direct
        else:
            table[hi] = direct
            table[lo] = cls - direct

    split(True, 0, d1342, True)    # (asc, low):  1342 / 2341
    split(True, 1, d2143, True)    # (asc, mid):  2143 / 3142
    split(True, 2, d3124, True)    # (asc, high): 3124 / 4123
    split(False, 0, d1432, True)   # (desc, low): 1432 / 2431
    split(False, 1, d3412, False)  # (desc, mid): 2413 / 3412
    split(False, 2, d3214, True)   # (desc, high): 3214 / 4213

    if sum(table.values()) != math.comb(n, 4):
        raise RuntimeError("4-profile lost mass")
    return table


_CHUNK = 1 << 19


def _profile_enum(tau: Sequence[int], k: int) -> Dict[Pattern, int]:
    """Chunked subset enumeration for k = 5, 6."""
    n = len(tau)
    pats = all_patterns(k)
    code_of = {}
    base = k + 1
    for t, p in enumerate(pats):
        code = 0
        for r in p:
            code = code * base + r
        code_of[code] = t
    codes = np.zeros(base ** (k + 1), dtype=np.int64) - 1
    for code, t in code_of.items():
        codes[code] = t
    tau_arr = np.asarray(tau, dtype=np.int64)
    counts = np.zeros(len(pats), dtype=np.int64)
    buf: list[tuple[int, ...]] = []
    powers = np.array([base ** (k - 1 - i) for i in range(k)], dtype=np.int64)

    def flush() -> None:
        if not buf:
            return
        idx = np.array(buf, dtype=np.int64)
        code = row_ranks(tau_arr[idx]) @ powers
        t = codes[code]
        counts[:] += np.bincount(t, minlength=len(pats))
        buf.clear()

    for comb in combinations(range(n), k):
        buf.append(comb)
        if len(buf) >= _CHUNK:
            flush()
    flush()
    return {p: int(c) for p, c in zip(pats, counts)}


def profile(tau: Sequence[int], k: int) -> Dict[Pattern, int]:
    """Occurrence count of every length-k pattern in tau."""
    n = len(tau)
    if not 1 <= k <= n:
        raise ValueError(f"k = {k} out of range 1..{n}")
    if k == 1:
        return _profile1(tau)
    if k == 2:
        return _profile2(tau)
    if k == 3:
        if n > PROFILE3_MAX_N:
            raise ValueError(f"k = 3 exact profiles limited to |tau| <= "
                             f"{PROFILE3_MAX_N} (int64 accumulators)")
        return _profile3(tau)
    if k == 4:
        if n > PROFILE4_MAX_N:
            raise ValueError(f"k = 4 exact profiles limited to |tau| <= "
                             f"{PROFILE4_MAX_N} (int64 accumulators)")
        return _profile4(tau)
    if k in (5, 6):
        if n > 60:
            raise ValueError("k = 5, 6 exact profiles limited to |tau| <= 60")
        return _profile_enum(tau, k)
    raise ValueError("exact profiles support k <= 6")


def occurrences(pattern: Pattern, tau: Sequence[int]) -> int:
    """#occurrences of the pattern in tau (fast path, exact)."""
    k = len(pattern)
    if sorted(pattern) != list(range(1, k + 1)):
        raise ValueError(f"not a pattern in one-line notation: {pattern}")
    if k > len(tau):
        raise ValueError("pattern longer than host permutation")
    return profile(tau, k)[tuple(pattern)]
