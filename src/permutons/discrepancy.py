"""Normalized interval discrepancy of a permutation.

d(tau) = max over non-empty intervals A, B of [n] of
| |A||B|/n^2 - |tau(A) /\\ B|/n |.  The maximum is n^2 * an integer, so the
exact mode reports an exact rational as (numerator, n^2) alongside the float.

Modes:

* ``exact``: true maximum, O(n^3): the ``grid`` sweep with every position
  and value as a cut.  For every position interval A the inner
  maximization over B is the spread of the prefix statistic
  P[b] = n*cnt(b) - |A|*b, read off one (n+1)^2 corner table.  Refused
  beyond n = EXACT_MAX_N = 2000.
* ``prefix_bound``: s = max over prefix pairs of |ab/n^2 - N(a,b)/n| in
  O(n^2).  The grid-corner argument gives s <= d <= 4s exactly.  Refused
  beyond n = PREFIX_BOUND_MAX_N = 45000, where it takes 0.8-1.3 s.
* ``grid``: certified enclosure for large n.  Endpoints restricted to about
  ``resolution`` equally spaced positions/values give a lower bound; moving
  an endpoint to the nearest gridline changes the deviation by at most
  2/resolution per endpoint, so d <= lower + 8/resolution.

Both sweeps reduce a block of rows at a time, about _BLOCK_CELLS entries:
the prefix rows of consecutive positions, and in ``box_spread`` the row
differences of a tile of row pairs.  Their integer tables are int32 while
every entry fits (n^2 < 2^31 for the prefix rows, 2 n^2 < 2^31 for the
corner table, so every exact call), else int64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import PermError, perm_array

# the (n+1)^2 corner table is 16 MB of int32 here (32 MB as int64); built in
# its own dtype a block of rows at a time, it peaks at 17.12 MB traced
EXACT_MAX_N = 2000
# the blocked sweep, one fresh process per run (2-vCPU Xeon, 5 runs each):
# 0.19-0.21 s at 20,000, 0.38-0.89 s at 30,000 and 0.83-1.28 s here, against
# 1.81-2.56 s at 20,000 for one numpy pass per position; past 46,340 the
# rows are int64, and at 50,000 it took 2.05-4.67 s, no faster than that
PREFIX_BOUND_MAX_N = 45_000
# entries per block of the prefix and box sweeps: 0.5 MB of int32
_BLOCK_CELLS = 1 << 17


@dataclass(frozen=True)
class DiscrepancyResult:
    """Value plus certified enclosure [lower, upper] for d(tau)."""

    value: float
    lower: float
    upper: float
    mode: str
    numerator: int | None = None  # exact modes: d = numerator / n^2
    n: int = 0

    def __float__(self) -> float:
        return self.value


def discrepancy_brute(tau) -> DiscrepancyResult:
    """O(n^4) oracle over all interval pairs, n <= 50."""
    v = np.asarray(getattr(tau, "images", tau), dtype=np.int64)
    n = len(v)
    if n > 50:
        raise ValueError("brute-force discrepancy limited to n <= 50")
    # N[a][b] = #{i <= a : tau(i) <= b}
    N = np.zeros((n + 1, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        N[i] = N[i - 1]
        N[i, v[i - 1]:] += 1
    best = 0
    for a1 in range(n + 1):
        for a2 in range(a1 + 1, n + 1):
            row = N[a2] - N[a1]
            for b1 in range(n + 1):
                for b2 in range(b1 + 1, n + 1):
                    dev = abs(n * (row[b2] - row[b1]) - (a2 - a1) * (b2 - b1))
                    if dev > best:
                        best = int(dev)
    return DiscrepancyResult(best / n**2, best / n**2, best / n**2,
                             "brute", best, n)


def _int_dtype(bound: int):
    """int32 when every value of a table lies in [-bound, bound] and bound
    < 2^31, else int64: the sweeps below read half the bytes in int32."""
    return np.int32 if bound < 2**31 else np.int64


def _prefix_statistic(v: np.ndarray) -> int:
    """max over (a, b) in [0..n]^2 of |n*N(a,b) - a*b| (integer).

    Row a is row a - 1 minus b, plus n on the suffix b >= v_a: two in-place
    calls per position, each writing its row into a block of _BLOCK_CELLS
    entries, and one max and one min per block.
    """
    n = len(v)
    dt = _int_dtype(n * n)
    bgrid = np.arange(n + 1, dtype=dt)
    rows = max(1, min(_BLOCK_CELLS // (n + 1), n))
    block = np.empty((rows, n + 1), dtype=dt)
    prev = np.zeros(n + 1, dtype=dt)
    best = 0
    for a0 in range(0, n, rows):
        blk = block[:min(rows, n - a0)]
        for row, vi in zip(blk, v[a0:a0 + len(blk)].tolist()):
            np.subtract(prev, bgrid, out=row)
            row[vi:] += n
            prev = row
        best = max(best, int(blk.max()), -int(blk.min()))
    return best


def box_spread(Q: np.ndarray):
    """max over rows a1 < a2 and columns b1 < b2 of
    |Q[a2, b2] - Q[a2, b1] - Q[a1, b2] + Q[a1, b1]|: the largest spread of
    a row difference Q[a2] - Q[a1].

    The row pairs are swept in tiles of w1 rows a1 by w2 rows a2, about
    _BLOCK_CELLS entries of row differences each, formed in one buffer
    and reduced along b in one max and one min per tile.  A tile on the
    diagonal also takes pairs with a2 <= a1, whose spread is 0 or that
    of (a2, a1).
    """
    m = len(Q)
    w2 = min(max(1, _BLOCK_CELLS // m), m - 1)
    w1 = max(1, _BLOCK_CELLS // (m * w2))
    diff = np.empty((w1, w2, m), dtype=Q.dtype)
    best = 0
    for i in range(0, m - 1, w1):
        rows = Q[i:i + w1, None]
        for j in range(i + 1, m, w2):
            d = diff[:len(rows), :min(w2, m - j)]
            np.subtract(Q[None, j:j + w2], rows, out=d)
            spread = d.max(axis=2)
            spread -= d.min(axis=2)
            best = max(best, spread.max())
    return best


def _discrepancy_grid(v: np.ndarray, resolution: int) -> DiscrepancyResult:
    """Best interval pair with endpoints among the cuts 0 and
    ceil(i n / r), i = 1..r; at r = n that is every pair, so exact.

    Q[i, j] = n * #{p < cuts[i] : v_p <= cuts[j]} - cuts[i] * cuts[j] is
    the 2-D cumulative sum of n H[i, j] - d_i d_j, H the histogram of
    (position, value) cut buckets and d the bucket widths, built in Q's
    dtype about _BLOCK_CELLS entries (a block of rows, whose positions are
    contiguous) at a time.  For position cuts a1 < a2 the best value
    interval is the spread of P = Q[a2] - Q[a1], which ``box_spread``
    sweeps.  Q and every spread lie in [-2n^2, 2n^2], so Q is int32 while
    2n^2 < 2^31.
    """
    n = len(v)
    r = min(resolution, n)
    cuts = np.unique(-(-np.arange(r + 1, dtype=np.int64) * n // r))
    m = len(cuts)
    row = np.searchsorted(cuts, np.arange(n), side="right")
    col = np.searchsorted(cuts, v, side="left")
    dt = _int_dtype(2 * n * n)
    d = cuts.astype(dt)
    d[1:] -= cuts[:-1]
    rows = max(1, _BLOCK_CELLS // m)
    ends = np.searchsorted(row, np.arange(0, m + rows, rows))  # first position per block
    Q = np.empty((m, m), dtype=dt)
    for i, lo, hi in zip(range(0, m, rows), ends, ends[1:]):
        blk = Q[i:i + rows]
        blk[:] = np.bincount((row[lo:hi] - i) * m + col[lo:hi], minlength=blk.size).reshape(-1, m)
        blk *= n
        blk -= d[i:i + rows, None] * d
    np.cumsum(Q, axis=0, dtype=dt, out=Q)
    np.cumsum(Q, axis=1, dtype=dt, out=Q)
    best = int(box_spread(Q))
    lower = best / n**2
    step = math.ceil(n / r)
    slack = 8.0 * step / n
    return DiscrepancyResult(lower, lower, min(lower + slack, 1.0),
                             "grid", best, n)


def discrepancy(tau, mode: str = "exact", resolution: int = 1000) -> DiscrepancyResult:
    """Interval discrepancy of a permutation of 1..n, by mode (see module
    docs); other sequences are refused with PermError."""
    if mode not in ("exact", "prefix_bound", "grid"):
        raise ValueError(f"unknown discrepancy mode {mode!r}")
    if mode == "grid":
        if not isinstance(resolution, (int, np.integer)):
            raise PermError(f"grid resolution must be an integer, got {resolution!r}")
        if resolution < 2:
            raise PermError("grid resolution must be >= 2")
        resolution = int(resolution)
    v = perm_array(getattr(tau, "images", tau))
    n = len(v)
    if n == 1:
        return DiscrepancyResult(0.0, 0.0, 0.0, mode, 0, 1)
    if mode == "exact":
        if n > EXACT_MAX_N:
            raise PermError(f"exact discrepancy limited to n <= {EXACT_MAX_N} "
                            f"(O(n^3) time, (n+1)^2 corner table); use the "
                            f"prefix_bound or grid mode")
        d = _discrepancy_grid(v, n).numerator
        return DiscrepancyResult(d / n**2, d / n**2, d / n**2, mode, d, n)
    if mode == "prefix_bound":
        if n > PREFIX_BOUND_MAX_N:
            raise PermError(f"prefix_bound discrepancy limited to n <= "
                            f"{PREFIX_BOUND_MAX_N} (O(n^2) sweep); use the grid mode")
        s = _prefix_statistic(v)
        val = s / n**2
        return DiscrepancyResult(val, val, min(4.0 * val, 1.0), mode, s, n)
    return _discrepancy_grid(v, resolution)
