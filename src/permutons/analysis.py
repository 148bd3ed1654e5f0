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
* t(id3, m_set(a)) as a closed-form cubic, the root b of
  t(id3, m_set(b)) = 1/6, and the mixture weight;
* sampled-permutation convergence tables.

Each of i1, i2, i3 is the probability of a fixed event on four iid
mu-points P0..P3 = (X0, Y0)..(X3, Y3), since a uniform marginal gives
x = P(X' <= x):

* i1: P1 <= P0 and P2 <= P0 (coordinatewise);
* i2: P1 <= P0, X2 < X0 and Y3 < Y0;
* i3: P0 <= (X2, Y3) and P1 <= (X2, Y3).

So each is a fixed rational combination of the 24 exact 4-pattern
densities.  The coefficient of pi is the fraction of the 24 labelings of
pi's points by P0..P3 that satisfy the event; the vectors are generated
from the events in code (_LEMMA_COEFFICIENTS), not typed in.

Grid permutons (n <= 300) get exact rational values from one integer
sweep over the lattice cells, on which the CDF is bilinear; the
event coefficients applied to the exact 4-pattern densities
(_event_integrals) are its test oracle.  Other permutons use Monte Carlo
with reported 99% half-widths, except int F^2 dlambda which uses a
midpoint rule (F is 1-Lipschitz in each coordinate, so the resolution-r
error is below 2/r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Mapping, Sequence

import numpy as np

from .counting import _check_exact_size, all_patterns
from .discrepancy import PREFIX_BOUND_MAX_N, discrepancy
from .measures import (
    GridPermuton, MixturePermuton, Permuton, _check_unit, _frac, cdf_many,
    grid_densities, m_set, moment, sample_patterns,
)
from .perms import DEFAULT_SEED, Z99, Perm, all_densities, mc_chunks

EXACT_GRID_LIMIT = 300  # exact grid integrals; beyond it auto mode samples
QUADRATURE_MAX_RESOLUTION = 4000  # r^2 midpoints held at once, ~55 B each


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
        integers = all(isinstance(x, (int, np.integer)) for x in (self.samples, self.resolution))
        if not integers or self.samples < 1 or self.resolution < 2:
            raise AnalysisError("budget needs integer samples >= 1 and resolution >= 2")
        if self.mode not in ("auto", "exact", "mc"):
            raise AnalysisError(f"unknown mode {self.mode!r}")


def _child_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _exact_grid_path(mu: Permuton, budget: Budget, refusal: str) -> bool:
    """Whether mu takes an exact grid path under budget: a grid with n <=
    EXACT_GRID_LIMIT and mode not "mc".  mode="exact" on any other measure
    raises ``refusal`` plus the grid condition."""
    can_exact = isinstance(mu, GridPermuton) and mu.n <= EXACT_GRID_LIMIT
    if budget.mode == "exact" and not can_exact:
        raise AnalysisError(
            f"{refusal} a grid permuton with n <= {EXACT_GRID_LIMIT}")
    return can_exact and budget.mode != "mc"


# ---------------------------------------------------------------------------
# the integrals as 4-point pattern events


def _below(p, q) -> bool:
    return p[0] <= q[0] and p[1] <= q[1]


_LEMMA_EVENTS = {
    "i1": lambda p0, p1, p2, p3: _below(p1, p0) and _below(p2, p0),
    "i2": lambda p0, p1, p2, p3: (_below(p1, p0) and p2[0] < p0[0]
                                  and p3[1] < p0[1]),
    "i3": lambda p0, p1, p2, p3: (_below(p0, (p2[0], p3[1]))
                                  and _below(p1, (p2[0], p3[1]))),
}


def _event_coefficients(event) -> dict[tuple[int, ...], Fraction]:
    """c(pi) = share of the 24 labelings of pi's points satisfying event."""
    out = {}
    for pi in all_patterns(4):
        hits = sum(1 for lab in permutations(enumerate(pi)) if event(*lab))
        if hits:
            out[pi] = Fraction(hits, 24)
    return out


_LEMMA_COEFFICIENTS = {name: _event_coefficients(event)
                       for name, event in _LEMMA_EVENTS.items()}


def _event_integrals(mu: GridPermuton) -> tuple[Fraction, ...]:
    """(i1, i2, i3) as the coefficient vectors applied to t(., mu), |.| = 4;
    the oracle for _grid_cell_integrals, not called at run time."""
    dens = grid_densities(mu, 4)
    return tuple(sum(c * dens[pi] for pi, c in _LEMMA_COEFFICIENTS[name].items())
                 for name in ("i1", "i2", "i3"))


# ---------------------------------------------------------------------------
# exact cell integrals for grids
#
# Within lattice cell (p, q) (0-based) the CDF is bilinear: with local
# coordinates u, v in [0,1], F = (a + b u + c v + d u v) / D, where D is the
# lcm of the mass denominators, a = D F at the cell's lower-left corner, b
# (c) is D times the mass below (left of) the cell in its x-strip (y-strip),
# and d is D times the cell mass.  Integrating over the cell gives
#   int F^2 = E / (18 D^2 n^2),
#   E = 18a^2 + 6b^2 + 6c^2 + 2d^2 + 18ab + 18ac + 9ad + 9bc + 6bd + 6cd,
#   int F x y = G / (36 D n^4),
#   G = 9a(2p+1)(2q+1) + 3b(3p+2)(2q+1) + 3c(2p+1)(3q+2) + d(3p+2)(3q+2),
# and the cell's mass density is d n^2 / D, so i1 = sum d E / (18 D^3),
# i2 = sum d G / (36 D^2 n^2), i3 = sum E / (18 D^2 n^2), all in integers.


def _grid_cell_integrals(mu: GridPermuton) -> dict[str, Fraction]:
    n = mu.n
    if n > EXACT_GRID_LIMIT:
        raise AnalysisError(
            f"exact grid integrals support n <= {EXACT_GRID_LIMIT}")
    D, ij, w = mu._table.D, mu._table.ij, mu._table.w
    # a <= D and b, c, d <= D/n (every row and column of M sums to D/n), so
    # every term and sum below stays under 100 D^2 (D + n^2); past int64
    # the same sweep runs on Python ints
    dtype = np.int64 if 100 * D * D * (D + n * n) < 2 ** 63 else object
    p, q = (ij - 1).T
    M = np.zeros((n + 1, n + 1), dtype=dtype)
    M[p + 1, q + 1] = np.array(w, dtype=dtype)
    P = M.cumsum(0).cumsum(1)
    a = P[:-1, :-1].ravel()
    b = P[1:, :-1].ravel() - a
    c = P[:-1, 1:].ravel() - a
    # the d-free part of E over all cells, then the rest over the mass cells
    e_all = (18 * np.dot(a, a) + 6 * np.dot(b, b) + 6 * np.dot(c, c)
             + 18 * np.dot(a, b) + 18 * np.dot(a, c) + 9 * np.dot(b, c))
    at = p * n + q
    a, b, c, d = a[at], b[at], c[at], M[p + 1, q + 1]
    e_d = d * (2 * d + 9 * a + 6 * b + 6 * c)
    E = 18 * a * a + 6 * b * b + 6 * c * c + 18 * a * b + 18 * a * c + 9 * b * c + e_d
    G = ((2 * q + 1) * (9 * a * (2 * p + 1) + 3 * b * (3 * p + 2))
         + (3 * q + 2) * (3 * c * (2 * p + 1) + d * (3 * p + 2)))
    n2 = n * n
    return {"i1": Fraction(int(np.dot(d, E)), 18 * D ** 3),
            "i2": Fraction(int(np.dot(d, G)), 36 * D * D * n2),
            "i3": Fraction(int(e_all + e_d.sum()), 18 * D * D * n2)}


def _grid_l(mu: GridPermuton) -> Fraction:
    """L = int F(x,y) x y dlambda, in O(cells).

    F = sum m_ij phi(nx - a) phi(ny - b) with 0-based a = i - 1, b = j - 1
    and phi = clamp(., 0, 1), so L = sum m_ij A(a) A(b), where
    A(a) = int_0^1 phi(nx - a) x dx = (1 - (a + 1)^2/n^2)/2 + (a/2 + 1/3)/n^2
    = a_a / (6 n^2); with w_ij = D m_ij, L = sum w_ij a_a a_b / (36 D n^4).
    """
    n2 = mu.n * mu.n
    t = mu._table
    A = [3 * (n2 - (a + 1) ** 2) + 3 * a + 2 for a in range(mu.n)]
    total = sum(x * A[i - 1] * A[j - 1] for (i, j), x in zip(t.ij.tolist(), t.w))
    return Fraction(total, 36 * t.D * n2 * n2)


# ---------------------------------------------------------------------------
# Monte Carlo / quadrature estimators


_MC_CHUNK = 2_000_000  # points per draw; changing it changes seeded results


def _f2(f, x, y):
    return f * f


def _fxy(f, x, y):
    return f * x * y


def _lebesgue_xy(rng: np.random.Generator, m: int):
    return rng.random(m), rng.random(m)


def _fold(a: tuple, b: tuple) -> tuple[int, float, float]:
    """Two (count, mean, std) summaries merged (Chan, Golub and LeVeque)."""
    (na, ma, sa), (nb, mb, sb) = a, b
    n, delta = na + nb, mb - ma
    m2 = sa * sa * na + sb * sb * nb + delta * delta * na * nb / n
    return n, ma + delta * nb / n, math.sqrt(m2 / n)


def _mc_cdf_means(mu: Permuton, draw, integrands, samples: int,
                  seed: int) -> list[tuple[float, float]]:
    """(mean, ci99) of each g(F(x, y), x, y) over one batch of points drawn
    by ``draw(rng, m)``: mu.sample_xy or _lebesgue_xy.  Each chunk is folded
    in as (count, mean, std) when drawn; one chunk gives its own exactly."""
    stats = None
    for rng, m in mc_chunks(samples, seed, _MC_CHUNK):
        x, y = draw(rng, m)
        f = cdf_many(mu, x, y)
        chunk = [(m, float(v.mean()), float(v.std()))
                 for v in (g(f, x, y) for g in integrands)]
        stats = chunk if stats is None else list(map(_fold, stats, chunk))
    return [(mean, Z99 * std / math.sqrt(n)) for n, mean, std in stats]


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

    Exact for grid permutons (n <= 300), flat or not, from one integer
    sweep over the n^2 lattice cells (_grid_cell_integrals); otherwise i1, i2
    by Monte Carlo and i3 by the midpoint rule, whose r^2 midpoints are held
    at once, so r > QUADRATURE_MAX_RESOLUTION is refused before any sampling.
    mode="mc" forces sampling even on grids, including i3, so exact and
    sampled paths can be compared.

    Each integral is also the probability of a 4-point event (i1: P1, P2 <=
    P0; i2: P1 <= P0, X2 < X0, Y3 < Y0; i3: P0, P1 <= (X2, Y3)), so
    sum_pi c(pi) t(pi, mu) over the exact 4-pattern densities gives the
    same Fractions; the tests use that (_event_integrals) as the oracle.
    """
    budget = budget or Budget()
    if _exact_grid_path(mu, budget, "exact integrals need"):
        g = _grid_cell_integrals(mu)
        return IntegralReport(g["i1"], g["i2"], g["i3"], ("exact",) * 3,
                              (0.0, 0.0, 0.0))
    if budget.mode != "mc" and budget.resolution > QUADRATURE_MAX_RESOLUTION:
        raise AnalysisError(
            f"quadrature resolution {budget.resolution} is over the limit "
            f"QUADRATURE_MAX_RESOLUTION = {QUADRATURE_MAX_RESOLUTION}")
    s1, s2 = _child_seeds(budget.seed, 2)
    (i1, c1), (i2, c2) = _mc_cdf_means(mu, mu.sample_xy, (_f2, _fxy),
                                       budget.samples, s1)
    if budget.mode == "mc":
        [(i3, c3)] = _mc_cdf_means(mu, _lebesgue_xy, (_f2,), budget.samples, s2)
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
    """Universal moment identity; the right side is always an exact moment.

    The left side is exact on grids with n <= 300, a sum over cells of the
    integrated CDF (_grid_l), and a Monte Carlo mean otherwise;
    mode="exact" refuses measures without the exact path.
    """
    budget = budget or Budget()
    exact = _exact_grid_path(mu, budget, "exact identity check needs")
    rhs = (1 - moment(mu, 2, 0) - moment(mu, 0, 2) + moment(mu, 2, 2)) / 4
    if exact:
        lhs = _grid_l(mu)
        return IdentityReport(lhs=lhs, rhs=rhs, error_radius=0.0, exact=True)
    [(lhs, ci)] = _mc_cdf_means(mu, _lebesgue_xy, (_fxy,), budget.samples,
                                _child_seeds(budget.seed, 3)[2])
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
# root finding


def t_id3_segment(a) -> Fraction:
    """t(id3, m_set(a)) = (4 - 3a + a^3)/16 exactly, a in [0, 1].

    * Every m_set(a) has total x-extent 4 (four lines of a/2, four of
      1 - a/2), so the masses a/8 and (2 - a)/8 are affine in a.
    * Every slope is +-1, so the uniform segment parameter is uniform in x:
      a mass product times a parameter-space volume is an x-space volume / 64.
    * Those polytopes have fixed facet normals and offsets affine in a, so t
      is piecewise cubic, with one chamber wall inside (0, 1), at 2/3; the
      tests pin both chambers to this cubic against an exact polytope-volume
      oracle.  So b (t = 1/6) solves 3b^3 - 9b + 4 = 0, b ~ 0.481702.
    """
    a = _check_unit(_frac(a), "a")
    return (4 - 3 * a + a ** 3) / 16


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
    if not tol > 0:  # NaN too
        raise AnalysisError("tol must be positive")
    return _bracket_and_bisect(t_id3_segment, tol, "b")


def find_nu(tol: float = 1e-5) -> RootResult:
    """Mixture weight a for which a*m_set(0) + (1-a)*m_set(1) has
    t(id3) = 1/6.

    t(id3, nu_a) = 6 sum w w w vol over the ordered triples of the union
    support's segments, vol the triple's increasing-polytope volume and
    w = a * mass on m_set(0)'s segments and (1-a) * mass on m_set(1)'s: the
    cubic sum_j C_j a^j (1-a)^(3-j), C_j over the triples holding j segments
    of m_set(0).  C = (1/8, 7/16, 9/16, 1/4), so the cubic terms cancel and
    t = (2 + a + a^2)/16 (the tests derive C from an exact volume oracle),
    solved by the scan-and-bisect of find_b.
    """
    if not tol > 0:  # NaN too
        raise AnalysisError("tol must be positive")
    return _bracket_and_bisect(lambda aa: (2 + aa + aa * aa) / 16, tol, "nu weight")


def nu_mixture(a) -> MixturePermuton:
    """The two-component mixture a*m_set(0) + (1-a)*m_set(1)."""
    a = Fraction(a)
    if not 0 <= a <= 1:
        raise AnalysisError("mixture weight must lie in [0, 1]")
    return MixturePermuton((m_set(0), m_set(1)), (a, 1 - a))


# ---------------------------------------------------------------------------
# convergence tables


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    pattern: tuple[int, ...]
    density: float
    discrepancy: float
    bound: float


EXACT_DISCREPANCY_LIMIT = 1200


def convergence_experiment(mu: Permuton, k: int, sizes: Sequence[int],
                           seed: int = DEFAULT_SEED) -> list[ConvergenceRow]:
    """Sample one n-point permutation per size; tabulate k-pattern densities,
    its discrepancy (exact to n = 1200, grid lower bound beyond), and the
    prefix upper bound 4 sup|prefix dev|, which limits n to PREFIX_BOUND_MAX_N.
    Every size is checked against that limit and the exact counting limits
    for k before the first sample."""
    if list(sizes) != sorted(set(int(s) for s in sizes)) or not sizes:
        raise AnalysisError("sizes must be strictly increasing and non-empty")
    if sizes[0] < k:
        raise AnalysisError("smallest size must be at least k")
    if sizes[-1] > PREFIX_BOUND_MAX_N:
        raise AnalysisError(f"sizes above {PREFIX_BOUND_MAX_N}: the prefix bound "
                            f"is refused there")
    for n in sizes:
        _check_exact_size(k, n)
    rows: list[ConvergenceRow] = []
    seeds = _child_seeds(seed, len(sizes))
    for n, s in zip(sizes, seeds):
        rng = np.random.Generator(np.random.PCG64(s))
        tau = Perm(tuple(int(r) for r in sample_patterns(mu, n, 1, rng)[0]))
        report = all_densities(k, tau)
        if n <= EXACT_DISCREPANCY_LIMIT:
            disc = float(discrepancy(tau, mode="exact"))
        else:
            disc = discrepancy(tau, mode="grid").lower
        bound = discrepancy(tau, mode="prefix_bound").upper
        for pat, dens in report.entries.items():
            rows.append(ConvergenceRow(n=n, pattern=pat, density=float(dens),
                                       discrepancy=disc, bound=bound))
    return rows

