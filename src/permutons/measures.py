"""Permutons: Borel probability measures on [0,1]^2 with uniform marginals.

Three concrete representations:

* :class:`GridPermuton` -- mass on the cells of an n x n subdivision,
  exact Fraction masses.  ``from_perm`` builds the flat grid measure of a
  permutation (mass 1/n on each cell (i, tau(i))); ``uniform`` is the
  Lebesgue measure (one cell).
* :class:`SegmentPermuton` -- mass spread uniformly along line segments,
  weights proportional to length by default.  ``m_set(a)`` builds the
  eight-segment family used by the counterexample pipeline.
* :class:`MixturePermuton` -- convex combination of permutons.

Coordinates and masses are Fractions internally so that cdf, moments and
strip masses are exact; sampling and ``cdf_float`` work in floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, permutations
from typing import Mapping, Sequence

import numpy as np

from . import counting
from .perms import Perm, mc_chunks, mc_hits

_ZERO = Fraction(0)
_ONE = Fraction(1)
_CDF_BLOCK = 1 << 18  # entries of the grid CDF table held at once


class PermutonError(ValueError):
    """Invalid permuton construction or argument."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary expansion
    raise PermutonError(f"expected a number, got {x!r}")


def _check_unit(a: Fraction, name: str) -> Fraction:
    if not 0 <= a <= 1:
        raise PermutonError(f"{name} = {float(a)} outside [0, 1]")
    return a


class Permuton:
    """Base interface; see module docstring."""

    def cdf(self, a, b) -> Fraction:
        """F(a, b) = mass of [0,a] x [0,b], exact."""
        raise NotImplementedError

    def strip_masses(self, resolution: int, axis: str) -> list[Fraction]:
        """Exact masses of the ``resolution`` equal strips along an axis."""
        raise NotImplementedError

    def moment(self, p: int, q: int) -> Fraction:
        """Exact integral of x^p y^q."""
        raise NotImplementedError

    def sample_xy(self, rng: np.random.Generator, count: int):
        """(x, y) float arrays of iid draws."""
        raise NotImplementedError

    def cdf_float(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """F(x_i, y_i) as floats for equal-shape float arrays of query points."""
        raise NotImplementedError


@dataclass(frozen=True)
class GridPermuton(Permuton):
    """Mass on cells of an n x n grid.

    ``cells`` maps (i, j), 1-indexed, to the cell's total mass; mass is
    uniform within each cell.  Every row and column must sum to exactly 1/n.
    """

    n: int
    cells: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        n = self.n
        if n < 1:
            raise PermutonError("grid size must be >= 1")
        rows = [Fraction(0)] * (n + 1)
        cols = [Fraction(0)] * (n + 1)
        for (i, j), m in self.cells.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise PermutonError(f"cell {(i, j)} outside 1..{n}")
            if m < 0:
                raise PermutonError(f"negative mass at cell {(i, j)}")
            rows[i] += m
            cols[j] += m
        share = Fraction(1, n)
        for idx in range(1, n + 1):
            if rows[idx] != share:
                raise PermutonError(
                    f"row {idx} mass {rows[idx]} != 1/{n} (non-uniform marginal)")
            if cols[idx] != share:
                raise PermutonError(
                    f"column {idx} mass {cols[idx]} != 1/{n} (non-uniform marginal)")

    # ---- exact integration -------------------------------------------

    def cdf(self, a, b) -> Fraction:
        a = _check_unit(_frac(a), "a")
        b = _check_unit(_frac(b), "b")
        n = self.n
        total = Fraction(0)
        for (i, j), m in self.cells.items():
            cx = min(max(n * a - (i - 1), _ZERO), _ONE)
            if cx == 0:
                continue
            cy = min(max(n * b - (j - 1), _ZERO), _ONE)
            if cy == 0:
                continue
            total += m * cx * cy
        return total

    def strip_masses(self, resolution: int, axis: str) -> list[Fraction]:
        n = self.n
        lane = np.zeros(n + 1, dtype=object)
        lane[:] = Fraction(0)
        key = 0 if axis == "x" else 1
        for cell, m in self.cells.items():
            lane[cell[key]] += m
        cum = list(accumulate(lane[1:], initial=Fraction(0)))
        out = []
        prev = Fraction(0)
        # prefix mass up to cut c: full lanes below + partial lane share
        def prefix(c: Fraction) -> Fraction:
            w = n * c
            full = int(w)  # lanes 1..full fully inside
            return cum[n] if full >= n else cum[full] + lane[full + 1] * (w - full)
        for s_idx in range(1, resolution + 1):
            cur = prefix(Fraction(s_idx, resolution))
            out.append(cur - prev)
            prev = cur
        return out

    def moment(self, p: int, q: int) -> Fraction:
        n = self.n
        # int over cell i of x^p, times n (cell width 1/n, uniform inside)
        def side(idx: int, power: int) -> Fraction:
            hi = Fraction(idx, n)
            lo = Fraction(idx - 1, n)
            return (hi ** (power + 1) - lo ** (power + 1)) * n / (power + 1)
        xw: dict[int, Fraction] = {}
        yw: dict[int, Fraction] = {}
        total = Fraction(0)
        for (i, j), m in self.cells.items():
            if i not in xw:
                xw[i] = side(i, p)
            if j not in yw:
                yw[j] = side(j, q)
            total += m * xw[i] * yw[j]
        return total

    # ---- float CDF ----------------------------------------------------

    def cdf_float(self, xs, ys) -> np.ndarray:
        """Bilinear interpolation of P[a, b] = F(a/n, b/n), exact up to
        rounding because mass is uniform inside each cell.

        Points are sorted by grid column and P is built in blocks of at
        most ``_CDF_BLOCK`` entries, each block's rows following from the
        previous block's last row, so a call costs O(n^2 + points log
        points) time and O(_CDF_BLOCK + n + points) memory.
        """
        n = self.n
        shape = np.shape(xs)
        u = np.clip(np.ravel(xs).astype(float), 0.0, 1.0) * n
        v = np.clip(np.ravel(ys).astype(float), 0.0, 1.0) * n
        col = np.clip(u.astype(np.int64), 0, n - 1)  # NaN casts below 0
        row = np.clip(v.astype(np.int64), 0, n - 1)
        u -= col  # offsets inside the cell
        v -= row
        order = np.argsort(col, kind="stable")
        keys = sorted(self.cells)
        ci, cj = np.array(keys, dtype=np.int64).reshape(-1, 2).T
        cm = np.array([float(self.cells[c]) for c in keys])
        out = np.empty(len(u))
        step = max(1, _CDF_BLOCK // (n + 1) - 1)
        carry = np.zeros(n + 1)
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            # P rows lo..hi: row lo carried in, then each column's y-prefix masses
            table = np.zeros((hi - lo + 1, n + 1))
            table[0] = carry
            c0, c1 = np.searchsorted(ci, (lo + 1, hi + 1))
            table[ci[c0:c1] - lo, cj[c0:c1]] = cm[c0:c1]
            np.cumsum(table[1:], axis=1, out=table[1:])
            np.cumsum(table, axis=0, out=table)
            carry = table[-1].copy()
            p0, p1 = np.searchsorted(col, (lo, hi), sorter=order)
            idx = order[p0:p1]
            flat = table.ravel()
            k = (col[idx] - lo) * (n + 1) + row[idx]
            t = v[idx]
            below = flat[k] + t * (flat[k + 1] - flat[k])
            k += n + 1
            above = flat[k] + t * (flat[k + 1] - flat[k])
            out[idx] = below + u[idx] * (above - below)
        return out.reshape(shape)

    # ---- sampling -----------------------------------------------------

    def _cell_table(self):
        items = sorted(self.cells.items())
        probs = np.array([float(m) for _, m in items])
        probs = probs / probs.sum()
        xs = np.array([i for (i, _), _ in items], dtype=np.int64)
        ys = np.array([j for (_, j), _ in items], dtype=np.int64)
        return np.cumsum(probs), xs, ys

    def sample_xy(self, rng: np.random.Generator, count: int):
        cum, xs, ys = self._cell_table()
        pick = np.searchsorted(cum, rng.random(count), side="right")
        pick = np.minimum(pick, len(xs) - 1)
        u = rng.random(count)
        w = rng.random(count)
        x = (xs[pick] - 1 + u) / self.n
        y = (ys[pick] - 1 + w) / self.n
        return x, y

    # ---- structure ----------------------------------------------------

    @property
    def permutation(self) -> Perm | None:
        """The inducing permutation when this is a flat grid measure."""
        n = self.n
        if len(self.cells) != n:
            return None
        share = Fraction(1, n)
        images = [0] * n
        for (i, j), m in self.cells.items():
            if m != share:
                return None
            images[i - 1] = j
        return Perm(tuple(images))


def from_perm(tau) -> GridPermuton:
    """Flat grid measure of a permutation: mass 1/n at each cell (i, tau(i)).

    >>> from_perm(Perm((2, 1))).cells[(1, 2)]
    Fraction(1, 2)
    """
    if not isinstance(tau, Perm):
        tau = Perm(tuple(tau))
    n = len(tau)
    share = Fraction(1, n)
    return GridPermuton(n, {(i, tau(i)): share for i in range(1, n + 1)})


def uniform() -> GridPermuton:
    """The Lebesgue measure on the unit square."""
    return GridPermuton(1, {(1, 1): Fraction(1)})


@dataclass(frozen=True)
class Segment:
    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction
    mass: Fraction

    def length(self) -> float:
        return math.hypot(float(self.x1 - self.x0), float(self.y1 - self.y0))


@dataclass(frozen=True)
class SegmentPermuton(Permuton):
    """Mass distributed uniformly along line segments in the unit square."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise PermutonError("segment permuton needs at least one segment")
        total = Fraction(0)
        for s in self.segments:
            for c in (s.x0, s.y0, s.x1, s.y1):
                if not 0 <= c <= 1:
                    raise PermutonError("segment endpoint outside the unit square")
            if s.mass < 0:
                raise PermutonError("negative segment mass")
            total += s.mass
        if total != 1:
            raise PermutonError(f"segment masses sum to {total}, expected 1")

    def cdf(self, a, b) -> Fraction:
        a = _check_unit(_frac(a), "a")
        b = _check_unit(_frac(b), "b")
        total = Fraction(0)
        for s in self.segments:
            total += s.mass * _t_fraction_inside(s, a, b)
        return total

    def strip_masses(self, resolution: int, axis: str) -> list[Fraction]:
        out = []
        prev = Fraction(0)
        for s_idx in range(1, resolution + 1):
            c = Fraction(s_idx, resolution)
            cur = Fraction(0)
            for s in self.segments:
                if axis == "x":
                    cur += s.mass * _t_fraction_inside(s, c, _ONE)
                else:
                    cur += s.mass * _t_fraction_inside(s, _ONE, c)
            out.append(cur - prev)
            prev = cur
        return out

    def moment(self, p: int, q: int) -> Fraction:
        total = Fraction(0)
        for s in self.segments:
            # expand (x0 + dx t)^p (y0 + dy t)^q and integrate over t
            dx = s.x1 - s.x0
            dy = s.y1 - s.y0
            xc = [math.comb(p, m) * s.x0 ** (p - m) * dx ** m for m in range(p + 1)]
            yc = [math.comb(q, m) * s.y0 ** (q - m) * dy ** m for m in range(q + 1)]
            conv = [Fraction(0)] * (p + q + 1)
            for i, xi in enumerate(xc):
                for j, yj in enumerate(yc):
                    conv[i + j] += xi * yj
            total += s.mass * sum(c / (m + 1) for m, c in enumerate(conv))
        return total

    def sample_xy(self, rng: np.random.Generator, count: int):
        probs = np.array([float(s.mass) for s in self.segments])
        probs = probs / probs.sum()
        cum = np.cumsum(probs)
        pick = np.minimum(np.searchsorted(cum, rng.random(count), side="right"),
                          len(self.segments) - 1)
        t = rng.random(count)
        x0 = np.array([float(s.x0) for s in self.segments])
        y0 = np.array([float(s.y0) for s in self.segments])
        dx = np.array([float(s.x1 - s.x0) for s in self.segments])
        dy = np.array([float(s.y1 - s.y0) for s in self.segments])
        return x0[pick] + t * dx[pick], y0[pick] + t * dy[pick]

    def cdf_float(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = np.zeros_like(xs)
        for s in self.segments:
            lo = np.zeros_like(xs)
            hi = np.ones_like(xs)
            for start, delta, bound in (
                (float(s.x0), float(s.x1 - s.x0), xs),
                (float(s.y0), float(s.y1 - s.y0), ys),
            ):
                if delta > 0:
                    hi = np.minimum(hi, (bound - start) / delta)
                elif delta < 0:
                    lo = np.maximum(lo, (bound - start) / delta)
                else:
                    hi = np.where(start > bound, -1.0, hi)
            out += float(s.mass) * np.clip(hi - lo, 0.0, 1.0)
        return out


def _t_fraction_inside(s: Segment, a: Fraction, b: Fraction) -> Fraction:
    """Length of {t in [0,1] : x(t) <= a and y(t) <= b}."""
    lo, hi = _ZERO, _ONE
    for start, delta, bound in ((s.x0, s.x1 - s.x0, a), (s.y0, s.y1 - s.y0, b)):
        if delta == 0:
            if start > bound:
                return _ZERO
        elif delta > 0:
            hi = min(hi, (bound - start) / delta)
        else:
            lo = max(lo, (bound - start) / delta)
    return max(hi - lo, _ZERO)


def segments_from_endpoints(
    endpoints: Sequence[tuple], masses: Sequence | None = None
) -> SegmentPermuton:
    """Build a segment permuton; default masses proportional to length.

    When every segment has |dx| = |dy| (slope +-1) the length weights reduce
    to |dx| and the masses are exact rationals.
    """
    pts = [tuple(_frac(c) for c in ep) for ep in endpoints]
    if masses is not None:
        ms = [_frac(m) for m in masses]
    else:
        dxs = [abs(p[2] - p[0]) for p in pts]
        dys = [abs(p[3] - p[1]) for p in pts]
        if all(dx == dy for dx, dy in zip(dxs, dys)):
            weights = dxs
        else:
            weights = [_frac(math.hypot(float(dx), float(dy)))
                       for dx, dy in zip(dxs, dys)]
        total = sum(weights, Fraction(0))
        if total == 0:
            raise PermutonError("all segments degenerate")
        ms = [w / total for w in weights]
    scale = sum(ms, Fraction(0))
    if scale == 0:
        raise PermutonError("zero total mass")
    ms = [m / scale for m in ms]
    segs = tuple(Segment(p[0], p[1], p[2], p[3], m) for p, m in zip(pts, ms))
    return SegmentPermuton(segs)


def m_set(a) -> SegmentPermuton:
    """The eight-line segment family at parameter a in [0, 1].

    Lines x + y in {a/2, 1-a/2, 1+a/2, 2-a/2} and y - x in
    {-a/2, a/2, 1-a/2, a/2-1}, clipped to the unit square.  Degenerate
    (single-point) pieces are dropped; coincident duplicates (the a = 0 and
    a = 1 ends of the family) are merged by summing their weights, so
    m_set(0) is the two full diagonals with mass 1/2 each and m_set(1) the
    four diamond sides with mass 1/4 each.
    """
    a = _check_unit(_frac(a), "a")
    half = a / 2
    raw: list[tuple[Fraction, Fraction, Fraction, Fraction]] = []
    for c in (half, 1 - half, 1 + half, 2 - half):
        xlo = max(_ZERO, c - 1)
        xhi = min(_ONE, c)
        if xhi > xlo:
            raw.append((xlo, c - xlo, xhi, c - xhi))
    for e in (-half, half, 1 - half, half - 1):
        xlo = max(_ZERO, -e)
        xhi = min(_ONE, 1 - e)
        if xhi > xlo:
            raw.append((xlo, xlo + e, xhi, xhi + e))
    # merge coincident segments (compare unordered endpoint pairs)
    merged: dict[tuple, Fraction] = {}
    for (x0, y0, x1, y1) in raw:
        key = tuple(sorted(((x0, y0), (x1, y1))))
        merged[key] = merged.get(key, Fraction(0)) + abs(x1 - x0)
    total = sum(merged.values(), Fraction(0))
    segs = tuple(
        Segment(p0[0], p0[1], p1[0], p1[1], w / total)
        for (p0, p1), w in sorted(merged.items())
    )
    return SegmentPermuton(segs)


@dataclass(frozen=True)
class MixturePermuton(Permuton):
    """Convex combination of permutons."""

    components: tuple[Permuton, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise PermutonError("components and weights must match and be non-empty")
        ws = [_frac(w) for w in self.weights]
        if any(w < 0 for w in ws):
            raise PermutonError("negative mixture weight")
        if sum(ws, Fraction(0)) != 1:
            raise PermutonError("mixture weights must sum to exactly 1")
        object.__setattr__(self, "weights", tuple(ws))

    def cdf(self, a, b) -> Fraction:
        return sum((w * c.cdf(a, b) for c, w in zip(self.components, self.weights)),
                   Fraction(0))

    def strip_masses(self, resolution: int, axis: str) -> list[Fraction]:
        acc = [Fraction(0)] * resolution
        for c, w in zip(self.components, self.weights):
            for i, m in enumerate(c.strip_masses(resolution, axis)):
                acc[i] += w * m
        return acc

    def moment(self, p: int, q: int) -> Fraction:
        return sum((w * c.moment(p, q) for c, w in zip(self.components, self.weights)),
                   Fraction(0))

    def sample_xy(self, rng: np.random.Generator, count: int):
        cum = np.cumsum([float(w) for w in self.weights])
        pick = np.minimum(np.searchsorted(cum, rng.random(count), side="right"),
                          len(self.components) - 1)
        x = np.empty(count)
        y = np.empty(count)
        for ci, comp in enumerate(self.components):
            mask = pick == ci
            m = int(mask.sum())
            if m:
                x[mask], y[mask] = comp.sample_xy(rng, m)
        return x, y

    def cdf_float(self, xs, ys) -> np.ndarray:
        return sum(float(w) * c.cdf_float(xs, ys)
                   for c, w in zip(self.components, self.weights))


# ---------------------------------------------------------------------------
# sampling-derived operations


def sample_perm(mu: Permuton, k: int, rng: np.random.Generator) -> Perm:
    """Pattern of k iid mu-points (sorted by x, ranked by y)."""
    pats = sample_patterns(mu, k, 1, rng)
    return Perm(tuple(int(r) for r in pats[0]))


def sample_patterns(mu: Permuton, k: int, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """count x k array of induced patterns of iid k-point draws.

    Rows with coordinate ties (possible in floats, probability zero in the
    measure) are resampled as whole rows, at most 100 rounds.
    """
    if k < 1:
        raise PermutonError("k must be >= 1")
    out = np.empty((count, k), dtype=np.int64)
    todo = np.arange(count)
    for _ in range(100):
        m = len(todo)
        x, y = mu.sample_xy(rng, m * k)
        x = x.reshape(m, k)
        y = y.reshape(m, k)
        order = np.argsort(x, axis=1)
        xs = np.take_along_axis(x, order, axis=1)
        ys = np.take_along_axis(y, order, axis=1)
        ranks = counting.row_ranks(ys)
        ysort = np.sort(y, axis=1)
        tied = (np.any(xs[:, 1:] == xs[:, :-1], axis=1)
                | np.any(ysort[:, 1:] == ysort[:, :-1], axis=1)) if k > 1 else \
            np.zeros(m, dtype=bool)
        good = ~tied
        out[todo[good]] = ranks[good]
        todo = todo[tied]
        if len(todo) == 0:
            return out
    raise PermutonError(
        "degenerate permuton: coordinate ties persisted over 100 resampling rounds")


def density_mc(pi, mu: Permuton, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo t(pi, mu) with 99% confidence half-width."""
    if not isinstance(pi, Perm):
        pi = Perm(tuple(pi))
    k = len(pi)
    target = np.asarray(pi.images, dtype=np.int64)
    return mc_hits(
        lambda rng, m: np.all(sample_patterns(mu, k, m, rng) == target, axis=1),
        samples, seed)


def pattern_histogram_mc(mu: Permuton, k: int, samples: int,
                         seed: int) -> dict[tuple[int, ...], int]:
    """Counts of each length-k pattern over ``samples`` draws."""
    base = k + 1
    powers = np.array([base ** (k - 1 - i) for i in range(k)], dtype=np.int64)
    code_count: dict[int, int] = {}
    for rng, m in mc_chunks(samples, seed):
        codes = sample_patterns(mu, k, m, rng) @ powers
        vals, cnts = np.unique(codes, return_counts=True)
        for v, c in zip(vals, cnts):
            code_count[int(v)] = code_count.get(int(v), 0) + int(c)
    out: dict[tuple[int, ...], int] = {}
    for p in counting.all_patterns(k):
        code = 0
        for r in p:
            code = code * base + r
        out[p] = code_count.get(code, 0)
    return out


def event_prob_mc(mu: Permuton, rho, sigma, samples: int, seed: int) -> tuple[float, float]:
    """P(x-pattern of (V_1..V_k) = rho and y-pattern = sigma), estimated.

    The V_i are NOT sorted here; this is the raw event probability whose
    k!-fold sum gives a pattern density.
    """
    rho = Perm(tuple(rho)) if not isinstance(rho, Perm) else rho
    sigma = Perm(tuple(sigma)) if not isinstance(sigma, Perm) else sigma
    k = len(rho)
    if len(sigma) != k:
        raise PermutonError("rho and sigma must have equal length")
    rtar = np.asarray(rho.images, dtype=np.int64)
    star = np.asarray(sigma.images, dtype=np.int64)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        x, y = mu.sample_xy(rng, m * k)
        return (np.all(counting.row_ranks(x.reshape(m, k)) == rtar, axis=1)
                & np.all(counting.row_ranks(y.reshape(m, k)) == star, axis=1))

    return mc_hits(draw, samples, seed)


# ---------------------------------------------------------------------------
# exact grid densities


def _block_decompositions(pattern: tuple[int, ...]):
    """All splits of the pattern into consecutive position blocks whose value
    sets are contiguous ranges.  Yields (block pattern, block sizes)."""
    k = len(pattern)
    for comp in _compositions(k):
        blocks = []
        start = 0
        ok = True
        for m in comp:
            vals = pattern[start:start + m]
            if max(vals) - min(vals) + 1 != m:
                ok = False
                break
            blocks.append(min(vals))
            start += m
        if ok:
            sigma = counting.pattern_of(blocks)
            yield sigma, comp


def _compositions(k: int):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


def density_exact_grid(pi, mu: GridPermuton) -> Fraction:
    """Exact t(pi, mu) for a grid permuton, k = |pi| <= 4.

    Flat grids of a permutation use the block-decomposition formula
    t(pi, mu_tau) = (k!/n^k) * sum over decompositions of
    occ(sigma, tau) / prod (m_t!)^2; general grids enumerate cell multisets
    with the two independent uniform tie-break orders.
    """
    if not isinstance(pi, Perm):
        pi = Perm(tuple(pi))
    k = len(pi)
    if k > 4:
        raise PermutonError("exact grid densities support k <= 4")
    if not isinstance(mu, GridPermuton):
        raise PermutonError("density_exact_grid needs a GridPermuton")
    tau = mu.permutation
    if tau is not None and mu.n >= 2:
        n = mu.n
        profs = {kk: counting.profile(tau.images, kk) for kk in range(1, min(k, n) + 1)}
        total = Fraction(0)
        for sigma, sizes in _block_decompositions(pi.images):
            r = len(sizes)
            if r > n:
                continue
            occ = profs[r][sigma]
            denom = 1
            for m in sizes:
                denom *= math.factorial(m) ** 2
            total += Fraction(occ, denom)
        return total * Fraction(math.factorial(k), n ** k)
    return _density_grid_multiset(pi, mu)


def _density_grid_multiset(pi: Perm, mu: GridPermuton) -> Fraction:
    """Cell-multiset oracle: O((#cells + k - 1 choose k) * (k!)^2)."""
    k = len(pi)
    cells = [(c, m) for c, m in sorted(mu.cells.items()) if m > 0]
    target = pi.images
    total = Fraction(0)
    kfact = math.factorial(k)
    for multiset in combinations_with_replacement(range(len(cells)), k):
        weight = Fraction(kfact)
        mult: dict[int, int] = {}
        for ci in multiset:
            mult[ci] = mult.get(ci, 0) + 1
        for c_idx, m in mult.items():
            weight = weight * cells[c_idx][1] ** m / math.factorial(m)
        prob = _pattern_prob_for_cells([cells[ci][0] for ci in multiset], target)
        total += weight * prob
    return total


def _pattern_prob_for_cells(coords: list[tuple[int, int]], target) -> Fraction:
    """P(induced pattern = target) for points in the given cells, with
    uniform independent tie-break orders inside shared rows and columns."""
    k = len(coords)
    xg = _tie_groups([c[0] for c in coords])
    yg = _tie_groups([c[1] for c in coords])
    matches = 0
    combos = 0
    for xr in _rank_assignments(xg, k):
        for yr in _rank_assignments(yg, k):
            combos += 1
            induced = [0] * k
            for p in range(k):
                induced[xr[p] - 1] = yr[p]
            if tuple(induced) == tuple(target):
                matches += 1
    return Fraction(matches, combos)


def _tie_groups(keys: list[int]) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for idx, key in enumerate(keys):
        groups.setdefault(key, []).append(idx)
    return [groups[key] for key in sorted(groups)]


def _rank_assignments(groups: list[list[int]], k: int):
    """All rank vectors: groups take consecutive rank blocks in key order,
    each internal order equally likely."""
    base = [0] * k
    start = 1
    spans = []
    for g in groups:
        spans.append((g, start))
        start += len(g)
    def rec(gi: int, cur: list[int]):
        if gi == len(spans):
            yield tuple(cur)
            return
        g, s = spans[gi]
        for order in permutations(range(len(g))):
            for idx, o in zip(g, order):
                cur[idx] = s + o
            yield from rec(gi + 1, cur)
    yield from rec(0, base)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class MarginalReport:
    max_deviation: float
    axis: str
    strip_index: int
    resolution: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def marginal_check(mu: Permuton, resolution: int, tol: float) -> MarginalReport:
    """Exact strip masses vs strip widths on both axes."""
    if resolution < 2:
        raise PermutonError("resolution must be >= 2")
    width = Fraction(1, resolution)
    worst = Fraction(0)
    w_axis, w_idx = "x", 0
    for axis in ("x", "y"):
        masses = mu.strip_masses(resolution, axis)
        for idx, m in enumerate(masses):
            dev = abs(m - width)
            if dev > worst:
                worst, w_axis, w_idx = dev, axis, idx
    return MarginalReport(float(worst), w_axis, w_idx, resolution, tol)


def cdf_grid(mu: Permuton, resolution: int) -> np.ndarray:
    """F sampled on the (resolution+1)^2 corner grid, as floats.

    One ``cdf_float`` call on the tick mesh; a grid permuton of size n
    costs O(n^2 + r^2 log r).
    """
    ticks = np.linspace(0.0, 1.0, resolution + 1)
    return mu.cdf_float(*np.meshgrid(ticks, ticks, indexing="ij"))


@dataclass(frozen=True)
class PermutonDiscrepancy:
    """Grid lower bound for d(mu) with the CDF-based upper bounds."""

    lower: float
    sup_dev: float        # max grid deviation of F from ab
    upper: float          # 4 * sup_dev (exact on the shared grid)
    certified_upper: float  # 4 * (sup_dev + 2/resolution), Lipschitz slack
    resolution: int

    def __float__(self) -> float:
        return self.lower


def discrepancy_permuton(mu: Permuton, resolution: int) -> PermutonDiscrepancy:
    """max |lambda(A x B) - mu(A x B)| over grid interval pairs (lower bound
    converging to d(mu)), plus the prefix upper bound 4 sup|F - F_lambda|."""
    if resolution < 2:
        raise PermutonError("resolution must be >= 2")
    r = resolution
    F = cdf_grid(mu, r)
    ticks = np.linspace(0.0, 1.0, r + 1)
    sup_dev = float(np.abs(F - ticks[:, None] * ticks[None, :]).max())
    best = 0.0
    for i1 in range(r):
        width = ticks[i1 + 1:] - ticks[i1]
        P = (F[i1 + 1:] - F[i1]) - width[:, None] * ticks[None, :]
        spread = float((P.max(axis=1) - P.min(axis=1)).max())
        if spread > best:
            best = spread
    return PermutonDiscrepancy(
        lower=best,
        sup_dev=sup_dev,
        upper=4.0 * sup_dev,
        certified_upper=4.0 * (sup_dev + 2.0 / r),
        resolution=r,
    )


def cdf_many(mu: Permuton, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """F(x_i, y_i) as floats for arrays of query points.

    Grid permutons of size n cost O(n^2 + points log points) time and
    O(n + points) memory beyond a fixed block budget; segment and mixture
    permutons cost O(points x segments).
    """
    return mu.cdf_float(xs, ys)


def moment(mu: Permuton, p: int, q: int) -> Fraction:
    """Exact integral of x^p y^q against mu."""
    if p < 0 or q < 0:
        raise PermutonError("moment powers must be nonnegative")
    return mu.moment(p, q)


def cdf(mu: Permuton, a, b) -> Fraction:
    """F(a,b) = mu([0,a] x [0,b]), exact."""
    return mu.cdf(a, b)
