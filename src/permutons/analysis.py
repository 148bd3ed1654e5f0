"""Integral diagnostics and the segment-family pipeline.

Let F be the CDF of a permuton mu, V = (X, Y) ~ mu, and v = (x, y) uniform.
This module evaluates

* the three integrals i1 = int F(V)^2 dmu, i2 = int F(V) X Y dmu,
  i3 = int F(v)^2 dlambda (all equal to 1/9 when every 4-pattern density
  of mu is 1/24);
* the universal identity int F(x,y) x y dlambda
  = 1/4 int (1 - X^2 - Y^2 + X^2 Y^2) dmu, valid for every uniform-marginal
  measure;
* the six-term inequality chain that starts and ends at 1/81 and applies
  Cauchy-Schwarz twice, with the per-step slacks;
* exact t(id3, .) for segment permutons by polytope volumes, the root b
  with t(id3, m_set(b)) = 1/6, and the analogous mixture weight;
* sampled-permutation convergence tables and the CDF sandwich check.

Grid permutons get exact rational values throughout (the CDF is bilinear
on each lattice cell); other permutons use Monte Carlo with reported 99%
half-widths, except int F^2 dlambda which uses a midpoint rule (F is
1-Lipschitz in each coordinate, so the resolution-r error is below 2/r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .counting import all_patterns
from .discrepancy import discrepancy
from .measures import (
    GridPermuton, MixturePermuton, Permuton, PermutonError, SegmentPermuton,
    Segment, cdf_many, density_mc, discrepancy_permuton, from_perm, m_set,
    moment, sample_patterns,
)
from .perms import DEFAULT_SEED, Perm, all_densities, mc_chunks, mean_ci99

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NINTH = Fraction(1, 9)

EXACT_GRID_LIMIT = 300  # dense rational cell sweep is O(n^2)


class AnalysisError(ValueError):
    """Analysis-level failure (bad argument or impossible bracketing)."""


class BracketingError(AnalysisError):
    """The scan found no sign change; contradicts continuity of the target."""


@dataclass(frozen=True)
class Budget:
    """Evaluation effort for the non-exact paths."""

    samples: int = 1_000_000
    seed: int = DEFAULT_SEED
    resolution: int = 2000
    mode: str = "auto"  # auto | exact | mc

    def __post_init__(self) -> None:
        if self.samples < 1 or self.resolution < 2:
            raise AnalysisError("budget needs samples >= 1 and resolution >= 2")
        if self.mode not in ("auto", "exact", "mc"):
            raise AnalysisError(f"unknown mode {self.mode!r}")


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


# ---------------------------------------------------------------------------
# exact cell integrals for grids
#
# Within lattice cell (i0, j0) the CDF is bilinear: with local coordinates
# u, v in [0,1] and corner values taken from the prefix-sum grid,
# F = A + B u + C v + D u v, and D equals the cell mass.


def _grid_cell_integrals(mu: GridPermuton) -> dict[str, Fraction]:
    n = mu.n
    if n > EXACT_GRID_LIMIT:
        raise AnalysisError(
            f"exact grid integrals support n <= {EXACT_GRID_LIMIT}")
    dense = [[_ZERO] * (n + 1) for _ in range(n + 1)]
    for (i, j), m in mu.cells.items():
        dense[i][j] = m
    F = [[_ZERO] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        rowsum = _ZERO
        for j in range(1, n + 1):
            rowsum += dense[i][j]
            F[i][j] = F[i - 1][j] + rowsum
    i1 = i2 = i3 = L = _ZERO
    third = Fraction(1, 3)
    for i in range(1, n + 1):
        P = i - 1
        px = Fraction(2 * P + 1, 2)       # P + 1/2
        qx = Fraction(P, 2) + third       # P/2 + 1/3
        for j in range(1, n + 1):
            Q = j - 1
            A = F[i - 1][j - 1]
            B = F[i][j - 1] - A
            C = F[i - 1][j] - A
            D = dense[i][j]
            e2 = (A * A + B * B / 3 + C * C / 3 + D * D / 9
                  + A * B + A * C + A * D / 2 + B * C / 2
                  + B * D / 3 + C * D / 3)
            py = Fraction(2 * Q + 1, 2)
            qy = Fraction(Q, 2) + third
            bracket = A * px * py + B * qx * py + C * px * qy + D * qx * qy
            i1 += D * e2
            i3 += e2
            i2 += D * bracket
            L += bracket
    n2 = Fraction(1, n * n)
    return {
        "i1": i1,
        "i2": i2 * n2,
        "i3": i3 * n2,
        "L": L * n2 * n2,
        "m20": moment(mu, 2, 0),
        "m02": moment(mu, 0, 2),
        "m22": moment(mu, 2, 2),
    }


# ---------------------------------------------------------------------------
# Monte Carlo / quadrature estimators


_MC_CHUNK = 2_000_000  # points per draw; changing it changes seeded results


def _mc_f_integrals(mu: Permuton, samples: int, seed: int):
    """(i1, ci1), (i2, ci2) from one batch of mu-points."""
    parts1, parts2 = [], []
    for rng, m in mc_chunks(samples, seed, _MC_CHUNK):
        x, y = mu.sample_xy(rng, m)
        f = cdf_many(mu, x, y)
        parts1.append(f * f)
        parts2.append(f * x * y)
    return mean_ci99(np.concatenate(parts1)), mean_ci99(np.concatenate(parts2))


def _mc_lambda_integral(mu: Permuton, samples: int, seed: int,
                        square: bool) -> tuple[float, float]:
    """MC of int F^2 dlambda (square) or int F(x,y) x y dlambda."""
    parts = []
    for rng, m in mc_chunks(samples, seed, _MC_CHUNK):
        x = rng.random(m)
        y = rng.random(m)
        f = cdf_many(mu, x, y)
        parts.append(f * f if square else f * x * y)
    return mean_ci99(np.concatenate(parts))


def _quad_f2_lambda(mu: Permuton, resolution: int) -> tuple[float, float]:
    """Midpoint rule for int F^2 dlambda; |F^2(p)-F^2(mid)| <= 2/r per cell."""
    r = resolution
    mids = (np.arange(r) + 0.5) / r
    gx, gy = np.meshgrid(mids, mids, indexing="ij")
    f = cdf_many(mu, gx.ravel(), gy.ravel())
    return float((f * f).mean()), 2.0 / r


@dataclass(frozen=True)
class IntegralReport:
    """i1 = int F(V)^2 dmu, i2 = int F(V) X Y dmu, i3 = int F(v)^2 dlambda."""

    i1: Fraction | float
    i2: Fraction | float
    i3: Fraction | float
    methods: tuple[str, str, str]
    error_radius: tuple[float, float, float]

    @property
    def exact(self) -> bool:
        return all(m == "exact" for m in self.methods)


def lemma_integrals(mu: Permuton, budget: Budget | None = None) -> IntegralReport:
    """The three distinguishing integrals of mu.

    Exact for grid permutons (n <= 300); otherwise i1, i2 by Monte Carlo
    and i3 by the midpoint rule.  mode="mc" forces sampling even on grids,
    including i3, so exact and sampled paths can be compared.
    """
    budget = budget or Budget()
    can_exact = isinstance(mu, GridPermuton) and mu.n <= EXACT_GRID_LIMIT
    if budget.mode == "exact" and not can_exact:
        raise AnalysisError("exact integrals need a grid permuton with n <= 300")
    if budget.mode != "mc" and can_exact:
        g = _grid_cell_integrals(mu)
        return IntegralReport(g["i1"], g["i2"], g["i3"],
                              ("exact",) * 3, (0.0, 0.0, 0.0))
    s1, s2 = _child_seeds(budget.seed, 2)
    (i1, c1), (i2, c2) = _mc_f_integrals(mu, budget.samples, s1)
    if budget.mode == "mc":
        i3, c3 = _mc_lambda_integral(mu, budget.samples, s2, square=True)
        m3 = "mc"
    else:
        i3, c3 = _quad_f2_lambda(mu, budget.resolution)
        m3 = "quadrature"
    return IntegralReport(i1, i2, i3, ("mc", "mc", m3), (c1, c2, c3))


@dataclass(frozen=True)
class IdentityReport:
    """int F(x,y) x y dlambda vs 1/4 (1 - m20 - m02 + m22)."""

    lhs: Fraction | float
    rhs: Fraction
    error_radius: float
    exact: bool

    @property
    def slack(self) -> float:
        return abs(float(self.lhs) - float(self.rhs))

    @property
    def passed(self) -> bool:
        return self.slack <= self.error_radius + 1e-12


def identity_check(mu: Permuton, budget: Budget | None = None) -> IdentityReport:
    """Universal moment identity; the right side is always an exact moment."""
    budget = budget or Budget()
    rhs = (1 - moment(mu, 2, 0) - moment(mu, 0, 2) + moment(mu, 2, 2)) / 4
    if isinstance(mu, GridPermuton) and mu.n <= EXACT_GRID_LIMIT \
            and budget.mode != "mc":
        lhs = _grid_cell_integrals(mu)["L"]
        return IdentityReport(lhs=lhs, rhs=rhs, error_radius=0.0, exact=True)
    (lhs, ci) = _mc_lambda_integral(mu, budget.samples,
                                    _child_seeds(budget.seed, 3)[2], square=False)
    return IdentityReport(lhs=lhs, rhs=rhs, error_radius=ci, exact=False)


@dataclass(frozen=True)
class ChainReport:
    """The six chain quantities and the slack of each step.

    q1 = i2^2, q2 = i1 m22, q3 = (4 L - (1 - m20 - m02)) / 9,
    q4 = (4 L - 1/3) / 9, q5 = (4/27) sqrt(i3) - 1/27, q6 = 1/81, where
    L = int F(x,y) x y dlambda is evaluated through the exact moment
    identity (see identity_check, which validates that identity
    independently).  Steps "cs1" (q1 <= q2) and "cs2" (q4 <= q5) are the
    two Cauchy-Schwarz applications; "rewrite" has slack m22 (1/9 - i1),
    zero exactly when i1 = 1/9; "marginal" is zero for every
    uniform-marginal measure; "closing" is zero exactly when i3 = 1/9.
    """

    quantities: tuple
    slacks: Mapping[str, Fraction | float]
    error_radius: float
    exact: bool
    integrals: IntegralReport

    STEPS = ("cs1", "rewrite", "marginal", "cs2", "closing")


def _sqrt_exact(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def cs_chain(mu: Permuton, budget: Budget | None = None) -> ChainReport:
    """Evaluate the double Cauchy-Schwarz chain for mu."""
    budget = budget or Budget()
    rep = lemma_integrals(mu, budget)
    m22 = moment(mu, 2, 2)
    m20 = moment(mu, 2, 0)
    m02 = moment(mu, 0, 2)
    L = (1 - m20 - m02 + m22) / 4
    i1, i2, i3 = rep.i1, rep.i2, rep.i3
    c1, c2, c3 = rep.error_radius

    q1 = i2 * i2
    q2 = i1 * m22
    q3 = (4 * L - (1 - m20 - m02)) / 9
    q4 = (4 * L - Fraction(1, 3)) / 9
    q6 = Fraction(1, 81)

    exact = rep.exact
    err = 0.0
    if exact:
        root = _sqrt_exact(i3)
        if root is not None:
            q5 = Fraction(4, 27) * root - Fraction(1, 27)
        else:
            q5 = (4.0 / 27.0) * math.sqrt(float(i3)) - 1.0 / 27.0
            exact = False
            err = 1e-12
    else:
        q5 = (4.0 / 27.0) * math.sqrt(max(float(i3), 0.0)) - 1.0 / 27.0
        e_q1 = 2 * abs(float(i2)) * c2 + c2 * c2
        e_q2 = float(m22) * c1
        e_q5 = (4.0 / 27.0) * (c3 / (2 * math.sqrt(max(float(i3), 1e-12))))
        err = max(e_q1 + e_q2, e_q2, e_q5)
        q1, q2 = float(q1), float(q2)
        q3, q4, q6 = float(q3), float(q4), float(q6)

    slacks = {
        "cs1": q2 - q1,
        "rewrite": q3 - q2,
        "marginal": q4 - q3,
        "cs2": q5 - q4,
        "closing": q6 - q5,
    }
    return ChainReport(quantities=(q1, q2, q3, q4, q5, q6), slacks=slacks,
                       error_radius=err, exact=exact, integrals=rep)


# ---------------------------------------------------------------------------
# exact t(id3, .) on segment permutons
#
# For an ordered triple of segments (s_a, s_b, s_c) with independent uniform
# parameters, the event x_a < x_b < x_c and y_a < y_b < y_c cuts a polytope
# out of the parameter cube.  Conditioning on t_b, the admissible t_a and
# t_c sets are intervals whose lengths are piecewise affine in t_b, so the
# volume is an exact piecewise-quadratic integral.

_AffinePieces = list[tuple[Fraction, Fraction, Fraction, Fraction]]


def _pair_pieces(seg: Segment, target: tuple, side: str) -> _AffinePieces | None:
    """Length of {t : point of seg is strictly below/above target(t2)}.

    target is (x0, dx, y0, dy) of the middle segment; returns pieces
    (lo, hi, a0, a1) with the length a0 + a1 t2 on [lo, hi], or None when
    the length vanishes identically.
    """
    sdx = seg.x1 - seg.x0
    sdy = seg.y1 - seg.y0
    if sdx == 0 or sdy == 0:
        raise AnalysisError("exact id3 needs segments with nonzero slope")
    tx0, tdx, ty0, tdy = target
    uppers = [(_ONE, _ZERO)]
    lowers = [(_ZERO, _ZERO)]
    for s0, sd, b0, bd in ((seg.x0, sdx, tx0, tdx), (seg.y0, sdy, ty0, tdy)):
        c0, c1 = (b0 - s0) / sd, bd / sd
        flip = (sd < 0) != (side == "after")
        (lowers if flip else uppers).append((c0, c1))
    funcs = uppers + lowers
    breaks = {_ZERO, _ONE}
    for i in range(len(funcs)):
        a0, a1 = funcs[i]
        for j in range(i + 1, len(funcs)):
            b0, b1 = funcs[j]
            if a1 != b1:
                t = (b0 - a0) / (a1 - b1)
                if _ZERO < t < _ONE:
                    breaks.add(t)
    cuts = sorted(breaks)
    pieces: _AffinePieces = []
    allzero = True
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        u0, u1 = min(uppers, key=lambda f: f[0] + f[1] * mid)
        l0, l1 = max(lowers, key=lambda f: f[0] + f[1] * mid)
        a0, a1 = u0 - l0, u1 - l1
        if a0 + a1 * mid <= 0:
            pieces.append((lo, hi, _ZERO, _ZERO))
        else:
            pieces.append((lo, hi, a0, a1))
            allzero = False
    return None if allzero else pieces


def _piece_product_integral(pb: _AffinePieces, pa: _AffinePieces) -> Fraction:
    total = _ZERO
    i = j = 0
    while i < len(pb) and j < len(pa):
        lo = max(pb[i][0], pa[j][0])
        hi = min(pb[i][1], pa[j][1])
        if hi > lo:
            p0, p1 = pb[i][2], pb[i][3]
            q0, q1 = pa[j][2], pa[j][3]
            if (p0 or p1) and (q0 or q1):
                total += (p0 * q0 * (hi - lo)
                          + (p0 * q1 + p1 * q0) * (hi * hi - lo * lo) / 2
                          + p1 * q1 * (hi ** 3 - lo ** 3) / 3)
        if pb[i][1] <= pa[j][1]:
            i += 1
        else:
            j += 1
    return total


def _id3_volume_table(segments: Sequence[Segment]) -> dict[tuple[int, int, int], Fraction]:
    """Volume of the increasing-triple polytope per ordered segment triple."""
    k = len(segments)
    before: dict[tuple[int, int], _AffinePieces | None] = {}
    after: dict[tuple[int, int], _AffinePieces | None] = {}
    for ib, sb in enumerate(segments):
        target = (sb.x0, sb.x1 - sb.x0, sb.y0, sb.y1 - sb.y0)
        for io, so in enumerate(segments):
            before[(io, ib)] = _pair_pieces(so, target, "before")
            after[(io, ib)] = _pair_pieces(so, target, "after")
    table: dict[tuple[int, int, int], Fraction] = {}
    for ib in range(k):
        for ia in range(k):
            pb = before[(ia, ib)]
            if pb is None:
                continue
            for ic in range(k):
                pa = after[(ic, ib)]
                if pa is None:
                    continue
                v = _piece_product_integral(pb, pa)
                if v:
                    table[(ia, ib, ic)] = v
    return table


def _id3_from_masses(table, masses: Sequence[Fraction]) -> Fraction:
    total = _ZERO
    for (ia, ib, ic), vol in table.items():
        total += masses[ia] * masses[ib] * masses[ic] * vol
    return 6 * total


def t_id3_segment(a, mode: str = "exact",
                  budget: Budget | None = None) -> Fraction | float:
    """t(id3, m_set(a)): exact polytope volumes, or Monte Carlo."""
    budget = budget or Budget()
    mu = m_set(a)
    if mode == "exact":
        table = _id3_volume_table(mu.segments)
        return _id3_from_masses(table, [s.mass for s in mu.segments])
    if mode == "mc":
        est, _ = density_mc((1, 2, 3), mu, budget.samples, budget.seed)
        return est
    raise AnalysisError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# root finding


@dataclass(frozen=True)
class RootResult:
    value: Fraction
    t_value: Fraction
    evaluations: int
    bracket: tuple[Fraction, Fraction]
    scan: tuple = ()


_SCAN_POINTS = 101
_BISECT_LIMIT = 60
_TARGET = Fraction(1, 6)


def _bracket_and_bisect(g: Callable[[Fraction], Fraction], tol: float,
                        what: str) -> RootResult:
    """Scan [0,1] for a sign change of g - 1/6, then bisect.

    No monotonicity is assumed: the scan walks the 101-point grid in order
    and stops at the first bracket.
    """
    evals = 0
    scan: list[tuple[Fraction, Fraction]] = []
    prev_a = prev_t = None
    bracket = None
    for idx in range(_SCAN_POINTS):
        aa = Fraction(idx, _SCAN_POINTS - 1)
        t = g(aa)
        evals += 1
        scan.append((aa, t))
        if t == _TARGET:
            return RootResult(aa, t, evals, (aa, aa), tuple(scan))
        if prev_t is not None and (prev_t - _TARGET) * (t - _TARGET) < 0:
            bracket = (prev_a, prev_t, aa, t)
            break
        prev_a, prev_t = aa, t
    if bracket is None:
        trace = ", ".join(f"({float(x):.2f}, {float(t):.5f})" for x, t in scan)
        raise BracketingError(
            f"no sign change of t(id3) - 1/6 while scanning for {what}: {trace}")
    lo, tlo, hi, thi = bracket
    best_a, best_t = (lo, tlo) if abs(tlo - _TARGET) <= abs(thi - _TARGET) else (hi, thi)
    for _ in range(_BISECT_LIMIT):
        if abs(best_t - _TARGET) <= tol:
            break
        mid = (lo + hi) / 2
        tm = g(mid)
        evals += 1
        if abs(tm - _TARGET) < abs(best_t - _TARGET):
            best_a, best_t = mid, tm
        if tm == _TARGET:
            break
        if (tlo - _TARGET) * (tm - _TARGET) < 0:
            hi, thi = mid, tm
        else:
            lo, tlo = mid, tm
    return RootResult(best_a, best_t, evals, (lo, hi), tuple(scan))


def find_b(tol: float = 1e-5) -> RootResult:
    """b in [0,1] with t(id3, m_set(b)) = 1/6 within tol, exact evaluations.

    The endpoints give t = 1/4 and t = 1/8, so a bracket exists.
    """
    if tol <= 0:
        raise AnalysisError("tol must be positive")
    return _bracket_and_bisect(lambda aa: t_id3_segment(aa, "exact"),
                               tol, "b")


def find_nu(tol: float = 1e-5) -> RootResult:
    """Mixture weight a for which a*m_set(0) + (1-a)*m_set(1) has
    t(id3) = 1/6.

    t(id3, nu_a) is a cubic in a (triples mix components), assembled from
    one exact volume table over the union support, then solved by the same
    scan-and-bisect as find_b.
    """
    if tol <= 0:
        raise AnalysisError("tol must be positive")
    seg0 = m_set(0).segments
    seg1 = m_set(1).segments
    union = list(seg0) + list(seg1)
    table = _id3_volume_table(union)
    # weight of each union segment: a * mass (from m_set(0)) or (1-a) * mass
    n0 = len(seg0)

    def weights(aa: Fraction) -> list[Fraction]:
        return [s.mass * aa for s in seg0] + [s.mass * (1 - aa) for s in seg1]

    def g(aa: Fraction) -> Fraction:
        return _id3_from_masses(table, weights(aa))

    return _bracket_and_bisect(g, tol, "nu weight")


def nu_mixture(a) -> MixturePermuton:
    """The two-component mixture a*m_set(0) + (1-a)*m_set(1)."""
    a = Fraction(a)
    if not 0 <= a <= 1:
        raise AnalysisError("mixture weight must lie in [0, 1]")
    return MixturePermuton((m_set(0), m_set(1)), (a, 1 - a))


# ---------------------------------------------------------------------------
# convergence and sandwich checks


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    pattern: tuple[int, ...]
    density: float
    discrepancy: float
    bound: float


EXACT_DISCREPANCY_LIMIT = 1200
GRID_DISCREPANCY_RESOLUTION = 1000


def convergence_experiment(mu: Permuton, k: int, sizes: Sequence[int],
                           seed: int = DEFAULT_SEED) -> list[ConvergenceRow]:
    """Sample one n-point permutation per size; tabulate k-pattern densities,
    its discrepancy (exact to n = 1200, grid lower bound beyond), and the
    prefix upper bound 4 sup|prefix dev|."""
    if list(sizes) != sorted(set(int(s) for s in sizes)) or not sizes:
        raise AnalysisError("sizes must be strictly increasing and non-empty")
    if sizes[0] < k:
        raise AnalysisError("smallest size must be at least k")
    rows: list[ConvergenceRow] = []
    seeds = _child_seeds(seed, len(sizes))
    for n, s in zip(sizes, seeds):
        rng = np.random.Generator(np.random.PCG64(s))
        tau = Perm(tuple(int(r) for r in sample_patterns(mu, n, 1, rng)[0]))
        report = all_densities(k, tau)
        if n <= EXACT_DISCREPANCY_LIMIT:
            disc = float(discrepancy(tau, mode="exact"))
        else:
            disc = discrepancy(tau, mode="grid",
                               resolution=GRID_DISCREPANCY_RESOLUTION).lower
        bound = discrepancy(tau, mode="prefix_bound").upper
        for pat, dens in report.entries.items():
            rows.append(ConvergenceRow(n=n, pattern=pat, density=float(dens),
                                       discrepancy=disc, bound=bound))
    return rows


@dataclass(frozen=True)
class PrefixBoundReport:
    sup_dev: float
    d_lower: float
    resolution: int

    @property
    def passed(self) -> bool:
        return self.d_lower <= 4.0 * self.sup_dev + 1e-9


def prefix_bound_check(mu: Permuton, resolution: int = 200) -> PrefixBoundReport:
    """Grid lower bound for d(mu) against the CDF sandwich 4 sup|F - xy|."""
    rep = discrepancy_permuton(mu, resolution)
    return PrefixBoundReport(sup_dev=rep.sup_dev, d_lower=rep.lower,
                             resolution=resolution)
