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
  O(n^2).  The grid-corner argument gives s <= d <= 4s exactly.
* ``grid``: certified enclosure for large n.  Endpoints restricted to about
  ``resolution`` equally spaced positions/values give a lower bound; moving
  an endpoint to the nearest gridline changes the deviation by at most
  2/resolution per endpoint, so d <= lower + 8/resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .perms import PermError

# the (n+1)^2 int64 corner table is 32 MB here, about a third of the peak
EXACT_MAX_N = 2000


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


def _as_values(tau) -> np.ndarray:
    images = getattr(tau, "images", tau)
    return np.asarray(images, dtype=np.int64)


def discrepancy_brute(tau) -> DiscrepancyResult:
    """O(n^4) oracle over all interval pairs, n <= 50."""
    v = _as_values(tau)
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


def _discrepancy_grid(v: np.ndarray, resolution: int) -> DiscrepancyResult:
    """Best interval pair with endpoints among the cuts 0 and
    ceil(i n / r), i = 1..r; at r = n that is every pair, so exact.

    Q[i, j] = n * #{p < cuts[i] : v_p <= cuts[j]} - cuts[i] * cuts[j] comes
    from one 2-D histogram of (position, value) cut buckets and two
    cumulative sums.  For position cuts a1 < a2 the best value interval is
    the spread of P = Q[a2] - Q[a1]; one vectorised sweep per a1.
    """
    n = len(v)
    r = max(2, min(resolution, n))
    cuts = np.unique(-(-np.arange(r + 1, dtype=np.int64) * n // r))
    m = len(cuts)
    row = np.searchsorted(cuts, np.arange(n), side="right")
    col = np.searchsorted(cuts, v, side="left")
    Q = np.bincount(row * m + col, minlength=m * m).reshape(m, m)
    np.cumsum(Q, axis=0, out=Q)
    np.cumsum(Q, axis=1, out=Q)
    Q *= n
    Q -= np.outer(cuts, cuts)
    best = 0
    for i1 in range(m - 1):
        P = Q[i1 + 1:] - Q[i1]
        best = max(best, int((P.max(axis=1) - P.min(axis=1)).max()))
    lower = best / n**2
    step = math.ceil(n / r)
    slack = 8.0 * step / n
    return DiscrepancyResult(lower, lower, min(lower + slack, 1.0),
                             "grid", best, n)


def discrepancy(tau, mode: str = "exact", resolution: int = 1000) -> DiscrepancyResult:
    """Interval discrepancy of a permutation, by mode (see module docs)."""
    v = _as_values(tau)
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
        s = _prefix_statistic(v)
        val = s / n**2
        return DiscrepancyResult(val, val, min(4.0 * val, 1.0), mode, s, n)
    if mode == "grid":
        return _discrepancy_grid(v, resolution)
    raise ValueError(f"unknown discrepancy mode {mode!r}")
