"""Permutons: Borel probability measures on [0,1]^2 with uniform marginals.

Three concrete representations:

* :class:`GridPermuton` -- mass on the cells of an n x n subdivision,
  exact Fraction masses.  ``from_perm`` builds the flat grid measure of a
  permutation (mass 1/n on each cell (i, tau(i))); ``uniform`` is the
  Lebesgue measure (one cell).  Construction checks that every row and
  column holds exactly 1/n, freezes ``cells`` and builds the one cell table
  (D * mass in integers and float(mass), in sorted cell order) that every
  grid engine reads.
* :class:`SegmentPermuton` -- mass spread uniformly along line segments,
  weights proportional to length by default.  ``m_set(a)`` builds the
  eight-segment family used by the counterexample pipeline.
* :class:`MixturePermuton` -- convex combination of permutons.

Coordinates and masses are Fractions internally so that cdf, moments and
strip masses are exact; sampling and ``cdf_float`` work in floats.  The
Monte Carlo pattern tallies read each k-point draw's pattern index from the
pairwise comparisons of its coordinates (``_pattern_rows``), with no sort;
only ``sample_patterns`` and ``density_mc`` past ``MC_MAX_K`` sort rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import (
    chain, combinations, combinations_with_replacement, permutations,
)
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import counting
from .discrepancy import box_spread
from .perms import Perm, binomial_ci99, mc_chunks, mc_hits

_ZERO = Fraction(0)
_ONE = Fraction(1)
_CDF_BLOCK = 1 << 18  # entries of the grid CDF table held at once
GRID_EXACT_MAX_K = 4  # longest pattern with exact grid densities
MC_MAX_K = 6  # longest pattern of the Monte Carlo histograms (k! bins)
MARGINAL_MAX_RESOLUTION = 100_000  # strips per axis of marginal_check, ~1 s
GRID_MULTISET_MAX = 100_000  # most cell multisets in one exact grid pass


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


def _check_resolution(r, least: int) -> int:
    """r as an int, refused with PermutonError unless an integer >= least."""
    if not isinstance(r, (int, np.integer)):
        raise PermutonError(f"resolution must be an integer, got {r!r}")
    if r < least:
        raise PermutonError(f"resolution must be >= {least}")
    return int(r)


def _check_unit(a: Fraction, name: str) -> Fraction:
    if not 0 <= a <= 1:
        raise PermutonError(f"{name} = {a} outside [0, 1]")
    return a


def _guide_table(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """(start, padded cum, passes) of the guide table of :func:`_pick_cells`.

    With G the least power of two >= 4 len(cum), start[g] counts the entries
    of ``cum`` at most g/G, so a draw in [g/G, (g+1)/G) has its index in
    start[g] .. start[g] + gap, gap the most entries in one bucket; ``passes``
    = gap.bit_length() bisection steps close that window, and the padding of
    2^passes infinities keeps every probe inside the array.  A bucket holds
    at most one entry when every mass exceeds 1/G, so masses of a quarter of
    the mean or more take one pass (m_set(b): 0.06 against 1/32).
    """
    size = 1 << (4 * len(cum) - 1).bit_length()
    start = np.searchsorted(cum, np.arange(size + 1) / size, side="right")
    passes = int(np.diff(start).max()).bit_length()
    return start[:-1], np.concatenate((cum, np.full(1 << passes, np.inf))), passes


def _pick_cells(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1) for
    draws u in [0, 1), without a binary search per draw.

    A guide table (Chen & Asau) gives each draw's bucket g = floor(u G)
    exactly, G being a power of two, and a branchless bisection finishes
    within the bucket in at most ceil(log2(len(cum) + 1)) passes; equal
    masses and the segments of m_set(b) need one.  O(len(cum) + len(u))
    time, and the same indices as the binary search, so seeded draws are
    unchanged.
    """
    start, cpad, passes = _guide_table(cum)
    p = start[(u * len(start)).astype(np.intp)]
    for b in reversed(range(1, passes)):
        step = 1 << b
        p += step * (cpad[p + (step - 1)] <= u)
    if passes:  # step 1 adds the comparison itself: no offset copy, no product
        p += cpad[p] <= u
    return np.minimum(p, len(cum) - 1, out=p)


class Permuton:
    """Base interface; see module docstring."""

    def cdf(self, a, b) -> Fraction:
        """F(a, b) = mass of [0,a] x [0,b], exact."""
        raise NotImplementedError

    def strip_masses(self, resolution: int, axis: str) -> list[Fraction]:
        """Exact masses of the ``resolution`` equal strips along an axis,
        from one sweep over the sorted ``_pieces``: a strip that holds no
        piece position weighs slope / r, so a call costs O(pieces log pieces
        + r) Fraction operations."""
        r = resolution
        pieces = sorted(self._pieces(axis))
        # value is the mass up to the position at and slope the density past
        # it; piece i counts from cut k = first[i], the first k/r >= its position
        first = [-(-p[0].numerator * r // p[0].denominator) for p in pieces]
        out, at, value, slope, step, i = [], _ZERO, _ZERO, _ZERO, _ZERO, 0
        for k in range(1, r + 1):
            if i == len(pieces) or first[i] > k:
                out.append(step)
                continue
            below = value + slope * (Fraction(k - 1, r) - at)
            while i < len(pieces) and first[i] <= k:
                pos, rate, jump = pieces[i]
                value += slope * (pos - at) + jump
                at, slope, i = pos, slope + rate, i + 1
            out.append(value + slope * (Fraction(k, r) - at) - below)
            step = slope / r
        return out

    def _pieces(self, axis: str) -> list[tuple[Fraction, Fraction, Fraction]]:
        """The marginal on an axis as (position, slope change, jump) triples:
        the mass up to a cut c is the sum of jump + slope change * (c -
        position) over the triples at positions <= c."""
        raise NotImplementedError

    def moment(self, p: int, q: int) -> Fraction:
        """Exact integral of x^p y^q."""
        raise NotImplementedError

    def sample_xy(self, rng: np.random.Generator, count: int):
        """(x, y) float arrays of iid draws.

        Each draw picks its cell, segment or component with
        :func:`_pick_cells`, which returns the same indices as a binary
        search over the cumulative masses, so a call costs O(pieces + count).
        Grids and segments then gather their picks with ``take`` and finish
        in place, in the same IEEE operations as the plain formulas, so a
        seeded stream keeps its bits.
        """
        raise NotImplementedError

    def cdf_float(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """F(x_i, y_i) as floats for equal-shape float arrays of query points."""
        raise NotImplementedError


class _CellTable(NamedTuple):
    """A grid's cells in sorted key order, zero masses included: D is the lcm
    of the mass denominators, ij the (i, j) keys as a cells x 2 int64 array,
    w the integers D * mass and mass the floats float(mass)."""

    D: int
    ij: np.ndarray
    w: tuple[int, ...]
    mass: np.ndarray


@dataclass(frozen=True)
class GridPermuton(Permuton):
    """Mass on cells of an n x n grid.

    ``cells`` maps (i, j), 1-indexed, to the cell's total mass (an int, a
    float's exact value or a Fraction, held as a Fraction); mass is uniform
    within each cell.  Every row and column must sum to exactly 1/n, so both
    marginals are Lebesgue's; ``cells`` is then a read-only view of a private
    copy, so that check and the memos stay true.  ``_table`` holds the cells
    as the engines read them and ``_densities`` memoises the exact tables of
    :func:`grid_densities` by pattern length; neither takes part in ``==`` or
    ``repr``.
    """

    n: int
    cells: Mapping[tuple[int, int], Fraction]
    _densities: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)
    _table: _CellTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if not isinstance(n, int):
            raise PermutonError(f"grid size must be an integer, got {n!r}")
        if n < 1:
            raise PermutonError("grid size must be >= 1")
        cells = {}
        for key, mass in self.cells.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and isinstance(key[0], int) and isinstance(key[1], int)):
                raise PermutonError(f"cell {key!r} is not a pair of integers")
            if not (1 <= key[0] <= n and 1 <= key[1] <= n):
                raise PermutonError(f"cell {key} outside 1..{n}")
            cells[key] = m = _frac(mass)
            if m < 0:
                raise PermutonError(f"negative mass at cell {key}")
        items = sorted(cells.items())
        D = math.lcm(*(m.denominator for m in cells.values()))
        w = tuple(m.numerator * (D // m.denominator) for _, m in items)
        rows, cols = [0] * (n + 1), [0] * (n + 1)
        for ((i, j), _), x in zip(items, w):
            rows[i] += x
            cols[j] += x
        for idx in range(1, n + 1):
            if rows[idx] * n != D:
                raise PermutonError(f"row {idx} mass {Fraction(rows[idx], D)} "
                                    f"!= 1/{n} (non-uniform marginal)")
            if cols[idx] * n != D:
                raise PermutonError(f"column {idx} mass {Fraction(cols[idx], D)} "
                                    f"!= 1/{n} (non-uniform marginal)")
        object.__setattr__(self, "cells", MappingProxyType(cells))
        ij = np.fromiter(chain.from_iterable(c for c, _ in items), dtype=np.int64,
                         count=2 * len(items)).reshape(-1, 2)
        # x / D rounds the exact quotient once, so it equals float(mass)
        object.__setattr__(self, "_table", _CellTable(
            D, ij, w, np.array([x / D for x in w])))

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

    def _pieces(self, axis: str) -> list[tuple[Fraction, Fraction, Fraction]]:
        # every lane holds exactly 1/n: each marginal has density 1 on [0, 1]
        return [(_ZERO, _ONE, _ZERO), (_ONE, -_ONE, _ZERO)]

    def moment(self, p: int, q: int) -> Fraction:
        # mass m_ij has density m_ij n^2 on its cell, where x^p integrates to
        # A_i / ((p+1) n^(p+1)) with A_i = i^(p+1) - (i-1)^(p+1), so the
        # moment is one integer sum sum w_ij A_i B_j / (D (p+1)(q+1) n^(p+q))
        n, t = self.n, self._table
        A = [i ** (p + 1) - (i - 1) ** (p + 1) for i in range(n + 1)]
        B = A if q == p else [j ** (q + 1) - (j - 1) ** (q + 1) for j in range(n + 1)]
        total = sum(x * A[i] * B[j] for (i, j), x in zip(t.ij.tolist(), t.w))
        return Fraction(total, t.D * (p + 1) * (q + 1) * n ** (p + q))

    # ---- float CDF ----------------------------------------------------

    def cdf_float(self, xs, ys) -> np.ndarray:
        """Bilinear interpolation of P[a, b] = F(a/n, b/n), exact up to
        rounding because mass is uniform inside each cell.

        P is built in blocks of at most ``_CDF_BLOCK`` entries, each
        block's rows following from the previous block's last row, and the
        points are grouped by block with a stable argsort of their block
        keys; each value reads only its own point and its block, so the
        grouping cannot move a bit.  Up to n = 511 there is one block and
        the argsort is a single O(points) run, so a call costs O(n^2 +
        points) time; beyond it the argsort costs at most O(points log
        points).  Memory is O(_CDF_BLOCK + n + points).
        """
        n = self.n
        shape = np.shape(xs)
        u = np.clip(np.ravel(xs).astype(float), 0.0, 1.0) * n
        v = np.clip(np.ravel(ys).astype(float), 0.0, 1.0) * n
        col = np.clip(u.astype(np.int64), 0, n - 1)  # NaN casts below 0
        row = np.clip(v.astype(np.int64), 0, n - 1)
        u -= col  # offsets inside the cell
        v -= row
        ci, cj = self._table.ij.T
        cm = self._table.mass
        out = np.empty(len(u))
        step = max(1, _CDF_BLOCK // (n + 1) - 1)
        order = np.argsort(col // step, kind="stable")  # grouped by block
        sizes = np.bincount(col // step, minlength=-(-n // step)).tolist()
        carry, p1 = np.zeros(n + 1), 0
        for lo, size in zip(range(0, n, step), sizes):
            hi = min(n, lo + step)
            # P rows lo..hi: row lo carried in, then each column's y-prefix masses
            table = np.zeros((hi - lo + 1, n + 1))
            table[0] = carry
            c0, c1 = np.searchsorted(ci, (lo + 1, hi + 1))
            table[ci[c0:c1] - lo, cj[c0:c1]] = cm[c0:c1]
            np.cumsum(table[1:], axis=1, out=table[1:])
            np.cumsum(table, axis=0, out=table)
            carry = table[-1].copy()
            p0, p1 = p1, p1 + size
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

    def sample_xy(self, rng: np.random.Generator, count: int):
        # one take of the float corners i - 1, j - 1, then + u and / n in
        # place: float(i - 1) + u is what (i - 1 + u) does on the int keys
        t = self._table
        pick = _pick_cells(np.cumsum(t.mass / t.mass.sum()), rng.random(count))
        x, y = (t.ij - 1.0).T.copy().take(pick, axis=1)
        x += rng.random(count)
        y += rng.random(count)
        x /= self.n
        y /= self.n
        return x, y

    # ---- structure ----------------------------------------------------

    @property
    def permutation(self) -> Perm | None:
        """The inducing permutation when this is a flat grid measure: n
        cells of mass 1/n, one per row since every row holds 1/n."""
        t = self._table
        if t.D != self.n or t.w != (1,) * self.n:
            return None
        return Perm(tuple(t.ij[:, 1].tolist()))


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


@dataclass(frozen=True)
class SegmentPermuton(Permuton):
    """Mass distributed uniformly along line segments in the unit square."""

    segments: tuple[Segment, ...]
    # rows x0, y0, dx, dy, mass as floats, one column per segment
    _floats: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_floats", np.ascontiguousarray(np.array(
            [[float(s.x0), float(s.y0), float(s.x1 - s.x0), float(s.y1 - s.y0),
              float(s.mass)] for s in self.segments]).T))

    def cdf(self, a, b) -> Fraction:
        a = _check_unit(_frac(a), "a")
        b = _check_unit(_frac(b), "b")
        total = Fraction(0)
        for s in self.segments:
            total += s.mass * _t_fraction_inside(s, a, b)
        return total

    def _pieces(self, axis: str) -> list[tuple[Fraction, Fraction, Fraction]]:
        # a segment's marginal is uniform between its two ends a and b, in
        # either order, and a point mass when a = b
        out = []
        for s in self.segments:
            a, b = (s.x0, s.x1) if axis == "x" else (s.y0, s.y1)
            if a == b:
                out.append((a, _ZERO, s.mass))
            else:
                rate = s.mass / Fraction(b - a)  # exact for int ends too
                out += [(a, rate, _ZERO), (b, -rate, _ZERO)]
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
        mass = self._floats[4]
        pick = _pick_cells(np.cumsum(mass / mass.sum()), rng.random(count))
        x0, y0, dx, dy = self._floats[:4].take(pick, axis=1)
        t = rng.random(count)
        dx *= t  # x0 + t dx, in place
        dx += x0
        dy *= t
        dy += y0
        return dx, dy

    def cdf_float(self, xs, ys) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        out = np.zeros_like(xs)
        for x0, y0, dx, dy, mass in self._floats.T.tolist():
            lo = np.zeros_like(xs)
            hi = np.ones_like(xs)
            for start, delta, bound in ((x0, dx, xs), (y0, dy, ys)):
                if delta > 0:
                    hi = np.minimum(hi, (bound - start) / delta)
                elif delta < 0:
                    lo = np.maximum(lo, (bound - start) / delta)
                else:
                    hi = np.where(start > bound, -1.0, hi)
            out += mass * np.clip(hi - lo, 0.0, 1.0)
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
    ends = sorted(merged)
    return segments_from_endpoints([p0 + p1 for p0, p1 in ends],
                                   [merged[e] for e in ends])


@dataclass(frozen=True)
class MixturePermuton(Permuton):
    """Convex combination of permutons."""

    components: tuple[Permuton, ...]
    weights: tuple[Fraction, ...]
    # the weights as floats
    _floats: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or not self.components:
            raise PermutonError("components and weights must match and be non-empty")
        ws = [_frac(w) for w in self.weights]
        if any(w < 0 for w in ws):
            raise PermutonError("negative mixture weight")
        if sum(ws, Fraction(0)) != 1:
            raise PermutonError("mixture weights must sum to exactly 1")
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "_floats", np.array([float(w) for w in ws]))

    def cdf(self, a, b) -> Fraction:
        return sum((w * c.cdf(a, b) for c, w in zip(self.components, self.weights)),
                   Fraction(0))

    def _pieces(self, axis: str) -> list[tuple[Fraction, Fraction, Fraction]]:
        return [(pos, w * rate, w * jump)
                for c, w in zip(self.components, self.weights)
                for pos, rate, jump in c._pieces(axis)]

    def moment(self, p: int, q: int) -> Fraction:
        return sum((w * c.moment(p, q) for c, w in zip(self.components, self.weights)),
                   Fraction(0))

    def sample_xy(self, rng: np.random.Generator, count: int):
        # component indices in their narrowest type (one byte up to 256
        # components), which leaves room for a component's int64 scatter
        # indices: beside an int64 pick they raised the peak memory
        pick = _pick_cells(np.cumsum(self._floats), rng.random(count)).astype(
            np.min_scalar_type(len(self.components) - 1))
        x = np.empty(count)
        y = np.empty(count)
        for ci, comp in enumerate(self.components):
            idx = np.flatnonzero(pick == ci)
            if len(idx):
                x[idx], y[idx] = comp.sample_xy(rng, len(idx))
        return x, y

    def cdf_float(self, xs, ys) -> np.ndarray:
        return sum(w * c.cdf_float(xs, ys)
                   for c, w in zip(self.components, self._floats.tolist()))


# ---------------------------------------------------------------------------
# sampling-derived operations


def sample_perm(mu: Permuton, k: int, rng: np.random.Generator) -> Perm:
    """Pattern of k iid mu-points (sorted by x, ranked by y)."""
    pats = sample_patterns(mu, k, 1, rng)
    return Perm(tuple(int(r) for r in pats[0]))


def sample_patterns(mu: Permuton, k: int, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """count x k array of induced patterns of iid k-point draws."""
    return counting.row_ranks(_sample_rows(mu, k, count, rng))


def _redraw_ties(mu: Permuton, k: int, count: int, rng: np.random.Generator,
                 read) -> np.ndarray:
    """read(x, y) of ``count`` rows of iid k-point draws, x and y being the
    m x k coordinates in draw order and ``read`` returning (values, tied).

    Rows with coordinate ties (possible in floats, probability zero in the
    measure) are redrawn as whole rows, at most 100 rounds in all.
    """
    if k < 1:
        raise PermutonError("k must be >= 1")

    def draw(m: int):
        x, y = mu.sample_xy(rng, m * k)
        return read(x.reshape(m, k), y.reshape(m, k))

    out, tied = draw(count)
    todo = np.flatnonzero(tied)
    for _ in range(99):
        if len(todo) == 0:
            break
        values, tied = draw(len(todo))
        out[todo[~tied]] = values[~tied]
        todo = todo[tied]
    if len(todo):
        raise PermutonError(
            "degenerate permuton: coordinate ties persisted over 100 resampling rounds")
    return out


def _sorted_rows(x: np.ndarray, y: np.ndarray):
    """(y-values of each row ordered by x, tied), tied meaning two equal x
    or two equal y in the row."""
    order = np.argsort(x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    ys = np.take_along_axis(y, order, axis=1)
    ysort = np.sort(y, axis=1)
    tied = (np.any(xs[:, 1:] == xs[:, :-1], axis=1)
            | np.any(ysort[:, 1:] == ysort[:, :-1], axis=1))
    return ys, tied


def _pattern_rows(x: np.ndarray, y: np.ndarray):
    """(pattern index in ``counting.all_patterns(k)``, tied) of each row,
    from the C(k, 2) comparisons of its columns in draw order.

    With r_i = #{j : x_j < x_i} the x-rank of point i and
    d_i = #{j : x_j > x_i, y_j < y_i} its Lehmer digit, the index is
    sum_i (k - 1 - r_i)! d_i, as ``counting.pattern_index`` of the rows
    sorted by x.  A pair is tied when neither of its two strict comparisons
    holds on an axis.  Each comparison runs over a contiguous column, so
    nothing is sorted or reduced along the k-wide axis.
    """
    m, k = x.shape
    xc = np.ascontiguousarray(x.T)
    yc = np.ascontiguousarray(y.T)
    rank = np.zeros((k, m), dtype=np.uint8)
    digit = np.zeros((k, m), dtype=np.uint8)
    tied = np.zeros(m, dtype=bool)
    for i, j in combinations(range(k), 2):
        xi, xj = xc[i] < xc[j], xc[j] < xc[i]  # which point lies left
        yi, yj = yc[i] < yc[j], yc[j] < yc[i]  # which point lies below
        rank[j] += xi
        rank[i] += xj
        digit[i] += xi & yj
        digit[j] += xj & yi
        tied |= xi == xj
        tied |= yi == yj
    weight = np.array([math.factorial(k - 1 - r) for r in range(k)], dtype=np.int64)
    idx = np.zeros(m, dtype=np.int64)
    for i in range(k):
        idx += weight[rank[i]] * digit[i]
    return idx, tied


def _sample_rows(mu: Permuton, k: int, count: int,
                 rng: np.random.Generator) -> np.ndarray:
    """count x k array of the y-values of iid k-point draws, each row
    ordered by x; for draws of any k (``sample_patterns`` takes k = 10^5)."""
    return _redraw_ties(mu, k, count, rng, _sorted_rows)


def density_mc(pi, mu: Permuton, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo t(pi, mu) with 99% confidence half-width."""
    if not isinstance(pi, Perm):
        pi = Perm(tuple(pi))
    k = len(pi)
    if k <= MC_MAX_K:
        hits = pattern_histogram_mc(mu, k, samples, seed)[pi.images]
        return hits / samples, binomial_ci99(hits, samples)
    # past MC_MAX_K a row shows pi exactly when it sorts in pi's order: one
    # argsort, and no pattern index, which would overflow int64 past k = 20
    order = np.argsort(pi.images)
    return mc_hits(
        lambda rng, m: np.all(np.argsort(_sample_rows(mu, k, m, rng), axis=1) == order,
                              axis=1),
        samples, seed)


def pattern_histogram_mc(mu: Permuton, k: int, samples: int,
                         seed: int) -> dict[tuple[int, ...], int]:
    """Counts of each length-k pattern, 1 <= k <= MC_MAX_K = 6, over
    ``samples`` draws, keyed in ``counting.all_patterns(k)`` order; each
    draw's pattern index is read from pairwise comparisons
    (``_pattern_rows``), with no sort: the same index as
    ``counting.pattern_index(_sample_rows(...))`` on the same stream."""
    if not 1 <= k <= MC_MAX_K:
        raise PermutonError(f"pattern histograms support 1 <= k <= {MC_MAX_K}")
    counts = np.zeros(math.factorial(k), dtype=np.int64)
    for rng, m in mc_chunks(samples, seed):
        idx = _redraw_ties(mu, k, m, rng, _pattern_rows)
        counts += np.bincount(idx, minlength=len(counts))
    return dict(zip(counting.all_patterns(k), counts.tolist()))


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
    # ranks equal rho exactly when the argsort (the inverse of the ranks)
    # equals rho's argsort, whatever order argsort gives tied entries
    rorder = np.argsort(rho.images)
    sorder = np.argsort(sigma.images)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        x, y = mu.sample_xy(rng, m * k)
        return (np.all(np.argsort(x.reshape(m, k), axis=1) == rorder, axis=1)
                & np.all(np.argsort(y.reshape(m, k), axis=1) == sorder, axis=1))

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


def _flat_terms(pi: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """(r, sigma, w) per block decomposition of pi, w = (k!)^2 / prod (m_t!)^2."""
    square = math.factorial(len(pi)) ** 2
    return tuple((len(sizes), sigma,
                  square // math.prod(math.factorial(m) ** 2 for m in sizes))
                 for sigma, sizes in _block_decompositions(pi))


# The flat-grid formula as integer terms: for the flat grid of tau (n >= 2),
# t(pi, mu_tau) = sum of w * occ_r(sigma, tau) over FLAT_TERMS[k][pi],
# divided by k! n^k.
FLAT_TERMS = {k: {pi: _flat_terms(pi) for pi in counting.all_patterns(k)}
              for k in range(1, GRID_EXACT_MAX_K + 1)}


def _flat_sums(profiles: Mapping, k: int) -> dict:
    """Sum of w * occ_r(sigma) over FLAT_TERMS[k][pi] for each pi, where
    profiles[r][sigma] is occ_r(sigma), an int or an array of ints; lengths
    r missing from profiles count zero."""
    return {pi: sum(w * profiles[r][sigma] for r, sigma, w in terms if r in profiles)
            for pi, terms in FLAT_TERMS[k].items()}


def grid_densities(mu: GridPermuton, k: int) -> dict[tuple[int, ...], Fraction]:
    """Exact t(pi, mu) for every pattern pi of length k, 1 <= k <=
    GRID_EXACT_MAX_K = 4, keyed in ``counting.all_patterns(k)`` order.

    Flat grids of a permutation tau (n >= 2) use the block-decomposition
    formula t(pi, mu_tau) = (k!/n^k) * sum over decompositions of
    occ(sigma, tau) / prod (m_t!)^2, read from the integer terms in
    ``FLAT_TERMS`` and ``counting.profiles(tau, k)``, all r <= k at once.  Other grids
    make one numpy pass over the cell multisets (refused beyond
    GRID_MULTISET_MAX), grouped by how their points tie in rows and
    columns, with the two independent uniform tie-break orders inside
    shared rows and columns (see _multiset_densities).
    The table is built once per (mu, k) and memoised on mu; the caller gets
    a fresh dict.
    """
    return dict(_density_table(mu, k))


def _density_table(mu: GridPermuton, k: int) -> dict[tuple[int, ...], Fraction]:
    """The memoised table behind grid_densities (not to be mutated)."""
    if not isinstance(mu, GridPermuton):
        raise PermutonError("exact grid densities need a GridPermuton")
    if not 1 <= k <= GRID_EXACT_MAX_K:
        raise PermutonError(f"exact grid densities support k <= {GRID_EXACT_MAX_K}")
    table = mu._densities.get(k)
    if table is None:
        tau = mu.permutation
        if tau is not None and mu.n >= 2:
            table = _flat_densities(tau.images, k)
        else:
            table = _multiset_densities(mu, k)
        mu._densities[k] = table
    return table


def density_exact_grid(pi, mu: GridPermuton) -> Fraction:
    """Exact t(pi, mu) for a grid permuton, k = |pi| <= GRID_EXACT_MAX_K:
    one entry of ``grid_densities(mu, k)``."""
    if not isinstance(pi, Perm):
        pi = Perm(tuple(pi))
    return _density_table(mu, len(pi))[pi.images]


def _flat_densities(tau: tuple[int, ...], k: int) -> dict[tuple[int, ...], Fraction]:
    denom = math.factorial(k) * len(tau) ** k
    return {pi: Fraction(t, denom) for pi, t in _flat_sums(counting.profiles(tau, k), k).items()}


def _multiset_densities(mu: GridPermuton, k: int) -> dict[tuple[int, ...], Fraction]:
    """Exact t(pi, mu) from one numpy pass over the cell multisets, refused
    beyond GRID_MULTISET_MAX multisets before any work.  Each multiset weighs
    (k!/prod mult!) prod (D m_c) in Python ints, D and D m_c read from the
    grid's ``_table``.  Its tie shape (per axis, how many of its points lie
    strictly before each point; at most 8 * 75 shapes at k = 4) fixes the law
    of its pattern: under the (k!)^2 global tie-break orders sigma, rho, with
    keys rank * k + sigma_p in x and rank * k + rho_p in y, every order inside
    a tie group is equally likely.  t(pi) = sum weight count(pi) / (D^k (k!)^2)."""
    tab = mu._table
    pos = [c for c, x in enumerate(tab.w) if x > 0]
    count = math.comb(len(pos) + k - 1, k)
    if count > GRID_MULTISET_MAX:
        raise PermutonError(
            f"exact densities of this grid at k = {k} take {count} cell multisets, "
            f"over the limit GRID_MULTISET_MAX = {GRID_MULTISET_MAX}; use --mode mc")
    sets = np.fromiter(chain.from_iterable(combinations_with_replacement(
        range(len(pos)), k)), dtype=np.int64, count=count * k).reshape(count, k)
    run = mults = np.ones(count, dtype=np.int64)  # prod mult! along sorted rows
    for i in range(1, k):
        run = np.where(sets[:, i] == sets[:, i - 1], run + 1, 1)
        mults = mults * run
    mass = np.array([tab.w[c] for c in pos], dtype=object)
    weight = mass[sets].prod(axis=1) * (math.factorial(k) // mults)
    pts = tab.ij[pos][sets].transpose(0, 2, 1)
    below = (pts[:, :, None, :] < pts[:, :, :, None]).sum(axis=3).reshape(count, 2 * k)
    shapes, inverse = np.unique(below, axis=0, return_inverse=True)
    orders = np.array(list(permutations(range(k))), dtype=np.int64)
    xkey, ykey = shapes[:, None, :k] * k + orders, shapes[:, None, k:] * k + orders
    rows = np.take_along_axis(ykey[:, :, None], np.argsort(xkey)[:, None], axis=3)
    fk = len(orders)  # one bincount, pattern indices offset per shape
    idx = counting.pattern_index(rows.reshape(-1, k)).reshape(len(shapes), -1)
    counts = np.bincount((idx + fk * np.arange(len(shapes))[:, None]).ravel(),
                         minlength=fk * len(shapes)).reshape(len(shapes), fk)
    totals = np.zeros(len(shapes), dtype=object)
    np.add.at(totals, inverse.ravel(), weight)
    scale = tab.D ** k * math.factorial(k) ** 2
    return {pi: Fraction(int(t), scale)
            for pi, t in zip(counting.all_patterns(k), totals @ counts)}


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
    """Exact strip masses vs strip widths on both axes, r <=
    MARGINAL_MAX_RESOLUTION; reports the first largest deviation, x first."""
    resolution = _check_resolution(resolution, 2)
    if resolution > MARGINAL_MAX_RESOLUTION:
        raise PermutonError(f"resolution {resolution} is over the limit "
                            f"MARGINAL_MAX_RESOLUTION = {MARGINAL_MAX_RESOLUTION}")
    if not tol >= 0:  # NaN too
        raise PermutonError("tol must be >= 0")
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
    costs O(n^2 + r^2) up to n = 511 and O(n^2 + r^2 log r) beyond.
    """
    ticks = np.linspace(0.0, 1.0, _check_resolution(resolution, 1) + 1)
    return mu.cdf_float(*np.meshgrid(ticks, ticks, indexing="ij"))


@dataclass(frozen=True)
class PermutonDiscrepancy:
    """Grid lower bound for d(mu) with the CDF-based bounds.

    Only ``certified_upper`` bounds d(mu) from above.  ``upper`` is the
    prefix bound read at grid corners only, so it can fall below d(mu): on
    m_set(3083/6400) at r = 400 it is 0.066741, under the exact d = 0.067154.
    """

    lower: float
    sup_dev: float        # max grid deviation of F from ab
    upper: float          # 4 * sup_dev over grid corners only; not a bound
    certified_upper: float  # 4 * (sup_dev + 2/resolution), Lipschitz slack
    resolution: int

    def __float__(self) -> float:
        return self.lower


def discrepancy_permuton(mu: Permuton, resolution: int) -> PermutonDiscrepancy:
    """max |lambda(A x B) - mu(A x B)| over grid interval pairs (lower bound
    converging to d(mu)), plus 4 max|F - F_lambda| at the grid corners and
    its certified upper bound (see PermutonDiscrepancy)."""
    r = _check_resolution(resolution, 2)
    ticks = np.linspace(0.0, 1.0, r + 1)
    D = cdf_grid(mu, r) - np.outer(ticks, ticks)
    sup_dev = float(np.abs(D).max())
    return PermutonDiscrepancy(
        lower=float(box_spread(D)),
        sup_dev=sup_dev,
        upper=4.0 * sup_dev,
        certified_upper=4.0 * (sup_dev + 2.0 / r),
        resolution=r,
    )


def cdf_many(mu: Permuton, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """F(x_i, y_i) as floats for arrays of query points.

    Grid permutons of size n cost O(n^2 + points) time up to n = 511
    (one CDF block) and O(n^2 + points log points) beyond, and O(n + points)
    memory beyond a fixed block budget; segment and mixture permutons cost
    O(points x segments).
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
