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
  beyond n = PREFIX_BOUND_MAX_N = 20000.
* ``grid``: certified enclosure for large n.  Endpoints restricted to about
  ``resolution`` equally spaced positions/values give a lower bound; moving
  an endpoint to the nearest gridline changes the deviation by at most
  2/resolution per endpoint, so d <= lower + 8/resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import PermError, perm_array

# the (n+1)^2 int64 corner table is 32 MB here, about a third of the peak
EXACT_MAX_N = 2000
# one numpy pass per position: 0.6-0.8 s at 20,000 (2-vCPU Xeon), 6.2 s at
# 30,000 once its three arrays outgrow the cache
PREFIX_BOUND_MAX_N = 20_000


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


def _prefix_statistic(v: np.ndarray) -> int:
    """max over (a, b) in [0..n]^2 of |n*N(a,b) - a*b| (integer)."""
    n = len(v)
    bgrid = np.arange(n + 1, dtype=np.int64)
    z = np.zeros(n + 1, dtype=np.int64)
    best = 0
    for a in range(1, n + 1):
        z[v[a - 1]:] += n
        dev = np.abs(z - a * bgrid).max()
        if dev > best:
            best = int(dev)
    return best


def box_spread(Q: np.ndarray):
    """max over rows a1 < a2 and columns b1 < b2 of
    |Q[a2, b2] - Q[a2, b1] - Q[a1, b2] + Q[a1, b1]|: the largest spread of
    a row difference, one vectorised sweep per a1."""
    return max(np.ptp(Q[a1 + 1:] - Q[a1], axis=1).max() for a1 in range(len(Q) - 1))


def _discrepancy_grid(v: np.ndarray, resolution: int) -> DiscrepancyResult:
    """Best interval pair with endpoints among the cuts 0 and
    ceil(i n / r), i = 1..r; at r = n that is every pair, so exact.

    Q[i, j] = n * #{p < cuts[i] : v_p <= cuts[j]} - cuts[i] * cuts[j] comes
    from one 2-D histogram of (position, value) cut buckets and two
    cumulative sums.  For position cuts a1 < a2 the best value interval is
    the spread of P = Q[a2] - Q[a1], which ``box_spread`` sweeps.
    """
    n = len(v)
    r = min(resolution, n)
    cuts = np.unique(-(-np.arange(r + 1, dtype=np.int64) * n // r))
    m = len(cuts)
    row = np.searchsorted(cuts, np.arange(n), side="right")
    col = np.searchsorted(cuts, v, side="left")
    Q = np.bincount(row * m + col, minlength=m * m).reshape(m, m)
    np.cumsum(Q, axis=0, out=Q)
    np.cumsum(Q, axis=1, out=Q)
    Q *= n
    Q -= np.outer(cuts, cuts)
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
    if mode == "grid" and resolution < 2:
        raise PermError("grid resolution must be >= 2")
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
