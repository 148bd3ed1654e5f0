"""Independent reference computations used to check the program's outputs.

Nothing here calls the engines it checks.  Pattern counts come from an
O(n log n) block merge and O(n^2) matrix chains instead of the Fenwick and
two-sweep engines; discrepancies from a dense prefix-count matrix; grid
integrals from closed forms over cell pairs (not the bilinear cell sweep);
permuton CDFs from a separate segment and cell formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

S3 = sorted(permutations((1, 2, 3)))
S4 = sorted(permutations((1, 2, 3, 4)))


def pattern_of(values) -> tuple[int, ...]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    out = [0] * len(values)
    for rank, i in enumerate(order):
        out[i] = rank + 1
    return tuple(out)


def sub_occurrences(sigma, pi) -> int:
    """Occurrences of the pattern sigma inside the short permutation pi."""
    return sum(pattern_of([pi[i] for i in idx]) == tuple(sigma)
               for idx in combinations(range(len(pi)), len(sigma)))


def dihedral_images(p) -> set[tuple[int, ...]]:
    """The images of a pattern under the 8 symmetries of the square."""
    p = tuple(p)
    k = len(p)

    def rev(q):
        return q[::-1]

    def comp(q):
        return tuple(k + 1 - v for v in q)

    def inv(q):
        out = [0] * k
        for i, v in enumerate(q):
            out[v - 1] = i + 1
        return tuple(out)

    seen = {p}
    todo = [p]
    while todo:
        q = todo.pop()
        for op in (rev, comp, inv):
            r = op(q)
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return seen


# ---------------------------------------------------------------------------
# finite permutations


def left_smaller(v: np.ndarray, block: int = 256) -> np.ndarray:
    """a[j] = #{i < j : v[i] < v[j]} for distinct values, by block merging."""
    v = np.asarray(v, dtype=np.int64)
    out = np.empty(len(v), dtype=np.int64)
    seen = np.empty(0, dtype=np.int64)
    for s in range(0, len(v), block):
        blk = v[s:s + block]
        within = np.tril(blk[None, :] < blk[:, None], -1).sum(axis=1)
        out[s:s + block] = np.searchsorted(seen, blk) + within
        sb = np.sort(blk)
        seen = np.insert(seen, np.searchsorted(seen, sb), sb)
    return out


def profile3(tau) -> dict[tuple[int, ...], int]:
    """All six 3-pattern counts from per-position quadrant counts."""
    v = np.asarray(tau, dtype=np.int64)
    n = len(v)
    a = left_smaller(v)                   # left, smaller
    b = np.arange(n) - a                  # left, larger
    c = (v - 1) - a                       # right, smaller
    d = (n - v) - b                       # right, larger

    def pairs(x):
        return int((x * (x - 1) // 2).sum())

    c123 = int((a * d).sum())
    c321 = int((b * c).sum())
    return {
        (1, 2, 3): c123,
        (1, 3, 2): pairs(d) - c123,
        (2, 1, 3): pairs(a) - c123,
        (2, 3, 1): pairs(b) - c321,
        (3, 1, 2): pairs(c) - c321,
        (3, 2, 1): c321,
    }


def profile4_violations(tau, prof4, prof3) -> list[str]:
    """Linear identities every 4-profile must satisfy, checked exactly.

    The total is C(n, 4); each 3-pattern count times (n - 3) equals the
    3-subpattern occurrences summed over the 4-profile; and for each of the
    8 up/down signatures of consecutive positions the summed counts equal a
    chain product of n x n comparison matrices.
    """
    v = np.asarray(tau, dtype=np.int64)
    n = len(v)
    bad = []
    if sum(prof4.values()) != math.comb(n, 4):
        bad.append("4-profile total")
    for sigma in S3:
        lhs = sum(sub_occurrences(sigma, pi) * prof4[pi] for pi in S4)
        if lhs != (n - 3) * prof3[sigma]:
            bad.append(f"4-to-3 marginal {sigma}")
    earlier = np.tri(n, n, -1, dtype=bool)            # [j, i]: i < j
    up = (earlier & (v[None, :] < v[:, None])).astype(np.int64)
    down = (earlier & (v[None, :] > v[:, None])).astype(np.int64)
    ones = np.ones(n, dtype=np.int64)
    for sig in ((s1, s2, s3) for s1 in (0, 1) for s2 in (0, 1) for s3 in (0, 1)):
        x = ones
        for s in sig:
            x = (up if s else down) @ x
        want = int(x.sum())
        got = sum(c for pi, c in prof4.items()
                  if tuple(int(pi[i + 1] > pi[i]) for i in range(3)) == sig)
        if got != want:
            bad.append(f"signature {sig}")
    return bad


def prefix_counts(v: np.ndarray) -> np.ndarray:
    """N[a, b] = #{i <= a : v_i <= b}, shape (n + 1, n + 1)."""
    n = len(v)
    m = np.zeros((n + 1, n + 1), dtype=np.int64)
    m[np.arange(1, n + 1), np.asarray(v, dtype=np.int64)] = 1
    return m.cumsum(axis=0).cumsum(axis=1)


def discrepancy_numerator(tau) -> int:
    """max over intervals A, B of |n |tau(A) & B| - |A||B||, O(n^3)."""
    v = np.asarray(tau, dtype=np.int64)
    n = len(v)
    N = prefix_counts(v)
    bgrid = np.arange(n + 1, dtype=np.int64)
    best = 0
    for a1 in range(n):
        lens = np.arange(1, n - a1 + 1, dtype=np.int64)[:, None]
        P = n * (N[a1 + 1:] - N[a1]) - lens * bgrid
        best = max(best, int((P.max(axis=1) - P.min(axis=1)).max()))
    return best


def grid_numerator(tau, resolution: int) -> int:
    """max of |n |tau(A) & B| - |A||B|| over intervals A, B whose endpoints
    are cuts 0 and ceil(i n / r), i = 1..r, with r = resolution clipped to
    [2, n]."""
    v = np.asarray(tau, dtype=np.int64)
    n = len(v)
    r = max(2, min(resolution, n))
    cuts = np.array(sorted({-(-i * n // r) for i in range(r + 1)}), dtype=np.int64)
    N = prefix_counts(v)[np.ix_(cuts, cuts)]
    best = 0
    for i in range(len(cuts) - 1):
        lens = (cuts[i + 1:] - cuts[i])[:, None]
        P = n * (N[i + 1:] - N[i]) - lens * cuts[None, :]
        best = max(best, int((P.max(axis=1) - P.min(axis=1)).max()))
    return best


def prefix_numerator(tau) -> int:
    """max over prefixes (a, b) of |n N(a, b) - a b|."""
    v = np.asarray(tau, dtype=np.int64)
    n = len(v)
    grid = np.arange(n + 1, dtype=np.int64)
    return int(np.abs(n * prefix_counts(v) - grid[:, None] * grid[None, :]).max())


# ---------------------------------------------------------------------------
# flat grid permutons: closed forms over cells


def _block_splits(pattern):
    """(block pattern, block sizes) for each split of the pattern into
    consecutive position blocks holding contiguous value ranges."""
    k = len(pattern)

    def comps(m):
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in comps(m - first):
                yield (first,) + rest

    for sizes in comps(k):
        mins, start = [], 0
        for m in sizes:
            vals = pattern[start:start + m]
            if max(vals) - min(vals) + 1 != m:
                break
            mins.append(min(vals))
            start += m
        else:
            yield pattern_of(mins), sizes


def flat_grid_density(pi, n: int, profiles) -> Fraction:
    """t(pi, mu_tau) for |pi| <= 3 from the pattern counts of tau.

    ``profiles[r]`` maps each r-pattern to its count in tau (r = 1..3).
    k iid points of mu_tau fall in cells with possible repeats; points that
    share a cell form a block whose internal order is uniform on both axes.
    """
    k = len(pi)
    total = Fraction(0)
    for sigma, sizes in _block_splits(tuple(pi)):
        if len(sizes) > n:
            continue
        denom = 1
        for m in sizes:
            denom *= math.factorial(m) ** 2
        total += Fraction(profiles[len(sizes)][sigma], denom)
    return total * Fraction(math.factorial(k), n ** k)


def finite_profiles(tau) -> dict[int, dict]:
    """Pattern counts of tau for k = 1, 2, 3 (independent engines)."""
    v = np.asarray(tau, dtype=np.int64)
    n = len(v)
    asc = int(left_smaller(v).sum())
    return {1: {(1,): n}, 2: {(1, 2): asc, (2, 1): n * (n - 1) // 2 - asc},
            3: profile3(v)}


def flat_grid_integrals(tau, exact: bool):
    """(i1, i2, i3, m22) of the flat grid measure of tau.

    With V, V1, V2 iid from mu_tau and cells independent on each axis:
    i1 = P(V1 <= V, V2 <= V), i2 = E[1(V1 <= V) X Y] and
    i3 = E[(1 - max X)(1 - max Y)], each summed over cell choices.
    """
    v = np.asarray(tau, dtype=np.int64)
    n = len(v)
    a = left_smaller(v)
    pos = np.arange(1, n + 1, dtype=np.int64)
    if exact:
        F = Fraction
        i1 = sum((F(int(x)) + F(1, 4)) ** 2 + F(7, 144) for x in a) / n ** 3
        i2 = sum(int(x) * F(2 * i - 1, 2 * n) * F(2 * t - 1, 2 * n)
                 + F(3 * (i - 1) + 2, 6 * n) * F(3 * (t - 1) + 2, 6 * n)
                 for x, i, t in zip(a, pos, v)) / n ** 2
        m22 = sum(F(3 * i * i - 3 * i + 1, 3 * n * n) * F(3 * t * t - 3 * t + 1, 3 * n * n)
                  for i, t in zip(pos, v)) / n
        gx = _pair_gain(pos, n, exact=True)
        gy = _pair_gain(v, n, exact=True)
        i3 = sum(gx[p][q] * gy[p][q] for p in range(n) for q in range(n)) / n ** 2
        return i1, i2, i3, m22
    af = a.astype(float)
    fp = pos.astype(float)
    fv = v.astype(float)
    i1 = float(((af + 0.25) ** 2 + 7 / 144).sum()) / n ** 3
    i2 = float((af * (fp - 0.5) * (fv - 0.5) / n ** 2
                + (3 * (fp - 1) + 2) * (3 * (fv - 1) + 2) / (36 * n * n)).sum()) / n ** 2
    m22 = float(((3 * fp * fp - 3 * fp + 1) * (3 * fv * fv - 3 * fv + 1)).sum()) / (9 * n ** 5)
    i3 = float((_pair_gain(pos, n, exact=False) * _pair_gain(v, n, exact=False)).sum()) / n ** 2
    return i1, i2, i3, m22


def _pair_gain(cells: np.ndarray, n: int, exact: bool):
    """g[p, q] = E[1 - max(U, U')] for U, U' uniform in cells[p], cells[q]."""
    if exact:
        c = [int(x) for x in cells]
        return [[Fraction(2 * n - 2 * max(x, y) + 1, 2 * n) if x != y
                 else Fraction(3 * n - 3 * x + 1, 3 * n) for y in c] for x in c]
    c = cells.astype(float)
    g = 1.0 - (np.maximum(c[:, None], c[None, :]) - 0.5) / n
    np.fill_diagonal(g, 1.0 - (c - 1.0 + 2.0 / 3.0) / n)
    return g


# ---------------------------------------------------------------------------
# float CDFs of permutons given as weighted segments or grid cells


def segment_table(mu) -> np.ndarray:
    """Rows (x0, y0, dx, dy, weight) for a segment permuton or a mixture of
    segment permutons, weights multiplied through."""
    rows = []
    parts = [(mu, 1.0)]
    while parts:
        m, w = parts.pop()
        if hasattr(m, "components"):
            parts.extend((c, w * float(cw)) for c, cw in zip(m.components, m.weights))
            continue
        for s in m.segments:
            rows.append((float(s.x0), float(s.y0), float(s.x1 - s.x0),
                         float(s.y1 - s.y0), w * float(s.mass)))
    return np.array(rows)


def segment_cdf(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F(a, b) as the weighted length share of each segment in [0,a]x[0,b]."""
    out = np.zeros(np.broadcast(a, b).shape)
    for x0, y0, dx, dy, w in table:
        lo = np.zeros_like(out)
        hi = np.ones_like(out)
        for start, delta, bound in ((x0, dx, a), (y0, dy, b)):
            if delta == 0:
                hi = np.where(start <= bound, hi, -1.0)
            else:
                t = (bound - start) / delta
                if delta > 0:
                    hi = np.minimum(hi, t)
                else:
                    lo = np.maximum(lo, t)
        out += w * np.clip(hi - lo, 0.0, 1.0)
    return out


def grid_cdf_ticks(tau, ticks: np.ndarray) -> np.ndarray:
    """F of the flat grid of tau on the product of ticks, by two matrix
    products of cell-coverage shares."""
    v = np.asarray(tau, dtype=np.int64)
    n = len(v)
    cover = np.clip(n * ticks[:, None] - np.arange(n)[None, :], 0.0, 1.0)
    mass = np.zeros((n, n))
    mass[np.arange(n), v - 1] = 1.0 / n
    return cover @ mass @ cover.T


def segment_integrals(table: np.ndarray, points: int = 20000, pair_points: int = 400):
    """(i1, i2, i3, m22) of a segment permuton by quadrature.

    i1 and i2 integrate F(V)^2 and F(V) X Y along each segment with the
    midpoint rule; i3 = E[(1 - max X)(1 - max Y)] over segment pairs on a
    pair_points^2 midpoint grid; m22 by 3-point Gauss-Legendre (exact for
    the quartic x(t)^2 y(t)^2).
    """
    t = (np.arange(points) + 0.5) / points
    i1 = i2 = m22 = 0.0
    nodes = np.array([-math.sqrt(3 / 5), 0.0, math.sqrt(3 / 5)]) / 2 + 0.5
    gw = np.array([5 / 18, 8 / 18, 5 / 18])
    for x0, y0, dx, dy, w in table:
        x = x0 + t * dx
        y = y0 + t * dy
        f = segment_cdf(table, x, y)
        i1 += w * float((f * f).mean())
        i2 += w * float((f * x * y).mean())
        xg = x0 + nodes * dx
        yg = y0 + nodes * dy
        m22 += w * float((gw * xg * xg * yg * yg).sum())
    u = (np.arange(pair_points) + 0.5) / pair_points
    i3 = 0.0
    for x0, y0, dx, dy, w in table:
        xa = (x0 + u * dx)[:, None]
        ya = (y0 + u * dy)[:, None]
        for x1, y1, ex, ey, w2 in table:
            xb = (x1 + u * ex)[None, :]
            yb = (y1 + u * ey)[None, :]
            i3 += w * w2 * float(((1 - np.maximum(xa, xb)) * (1 - np.maximum(ya, yb))).mean())
    return i1, i2, i3, m22


def grid_discrepancy_bounds(F: np.ndarray, ticks: np.ndarray) -> tuple[float, float]:
    """(lower, sup_dev) of d(mu) on the tick grid from a CDF table F."""
    sup_dev = float(np.abs(F - ticks[:, None] * ticks[None, :]).max())
    best = 0.0
    for i1 in range(len(ticks) - 1):
        width = (ticks[i1 + 1:] - ticks[i1])[:, None]
        P = (F[i1 + 1:] - F[i1]) - width * ticks[None, :]
        best = max(best, float((P.max(axis=1) - P.min(axis=1)).max()))
    return best, sup_dev
