"""k-symmetry defects, inflatability verdicts, and exhaustive S_n search.

A permuton is k-symmetric when every length-k pattern has density exactly
1/k!.  A permutation tau with |tau| > 1 is k-inflatable when its flat grid
measure is k-symmetric; that verdict is exact rational arithmetic, never a
float comparison.

The S_n search evaluates the six length-3 grid densities through integer
occurrence counts: t(pi, mu_tau) = 1/6 for all pi is equivalent to six
integer equalities (see _score_hits), so the sweep runs entirely in int64
numpy batches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from . import counting
from .measures import GridPermuton, Permuton, PermutonError, density_exact_grid, \
    from_perm, pattern_histogram_mc
from .perms import DEFAULT_SEED, Perm, PermError, binomial_ci99

DEFAULT_MC_SAMPLES = 1_000_000


@dataclass(frozen=True)
class SymmetryVerdict:
    """Max deviation of length-k pattern densities from 1/k!."""

    k: int
    defect: Fraction | float
    witness: tuple[int, ...]
    exact: bool
    densities: Mapping[tuple[int, ...], Fraction | float] = field(default_factory=dict)
    error_radius: float = 0.0  # max per-pattern ci99 half-width (MC only)
    samples: int = 0

    @property
    def symmetric(self) -> bool:
        return self.exact and self.defect == 0


def symmetry_defect(mu: Permuton, k: int, *, mode: str = "auto",
                    samples: int = DEFAULT_MC_SAMPLES,
                    seed: int = DEFAULT_SEED) -> SymmetryVerdict:
    """Verdict for mu at order k.

    Grid permutons with k <= 4 get exact Rational verdicts; anything else
    (other measures, or k = 5, 6) is estimated by Monte Carlo with a
    per-pattern 99% half-width.
    """
    if not 1 <= k <= 6:
        raise PermutonError("symmetry defect supports 1 <= k <= 6")
    if mode not in ("auto", "exact", "mc"):
        raise PermutonError(f"unknown mode {mode!r}")
    can_exact = isinstance(mu, GridPermuton) and k <= 4
    if mode == "exact" and not can_exact:
        raise PermutonError("exact verdicts need a grid permuton and k <= 4")
    if mode == "exact" or (mode == "auto" and can_exact):
        return _defect_exact(mu, k)
    return _defect_mc(mu, k, samples, seed)


def _defect_exact(mu: GridPermuton, k: int) -> SymmetryVerdict:
    share = Fraction(1, math.factorial(k))
    dens: dict[tuple[int, ...], Fraction] = {}
    best = Fraction(-1)
    witness = None
    for pat in counting.all_patterns(k):
        v = density_exact_grid(pat, mu)
        dens[pat] = v
        dev = abs(v - share)
        if dev > best:
            best, witness = dev, pat
    return SymmetryVerdict(k=k, defect=best, witness=witness, exact=True,
                           densities=dens)


def _defect_mc(mu: Permuton, k: int, samples: int, seed: int) -> SymmetryVerdict:
    share = 1.0 / math.factorial(k)
    hist = pattern_histogram_mc(mu, k, samples, seed)
    dens: dict[tuple[int, ...], float] = {}
    best = -1.0
    witness = None
    worst_ci = 0.0
    for pat, cnt in hist.items():
        est = cnt / samples
        dens[pat] = est
        worst_ci = max(worst_ci, binomial_ci99(cnt, samples))
        dev = abs(est - share)
        if dev > best:
            best, witness = dev, pat
    return SymmetryVerdict(k=k, defect=best, witness=witness, exact=False,
                           densities=dens, error_radius=worst_ci, samples=samples)


def is_inflatable(tau, k: int) -> tuple[bool, SymmetryVerdict]:
    """(|tau| > 1 and mu_tau is exactly k-symmetric, verdict)."""
    if not isinstance(tau, Perm):
        tau = Perm(tuple(tau))
    if not 1 <= k <= 4:
        raise PermutonError("inflatability testing supports 1 <= k <= 4")
    verdict = _defect_exact(from_perm(tau), k)
    return len(tau) > 1 and verdict.defect == 0, verdict


# ---------------------------------------------------------------------------
# exhaustive search


_TAIL = 8  # each block is one prefix followed by all 8! = 40,320 tails


def _tail_table(t: int) -> np.ndarray:
    """All permutations of range(t) in lexicographic order, shape (t!, t)."""
    table = np.zeros((1, 0), dtype=np.int64)
    for s in range(1, t + 1):
        table = np.concatenate([
            np.column_stack((np.full(len(table), f), table + (table >= f)))
            for f in range(s)])
    return table


def _perm_chunks(n: int) -> Iterable[np.ndarray]:
    """S_n in lexicographic order, one block per (n - t)-prefix, t = min(n, 8)."""
    t = min(n, _TAIL)
    tails = _tail_table(t)
    values = range(1, n + 1)
    for prefix in itertools.permutations(values, n - t):
        rest = np.array(sorted(set(values) - set(prefix)), dtype=np.int64)
        block = np.empty((len(tails), n), dtype=np.int64)
        block[:, :n - t] = prefix
        block[:, n - t:] = rest[tails]
        yield block


def _score_hits(v: np.ndarray) -> np.ndarray:
    """Rows whose flat grid measure is exactly 3-symmetric.

    t(pi, mu_tau) = 1/6 for all six patterns reduces to the integer
    equalities 36*occ_pi + corr_pi = n^3 with corr terms 18*occ12 + n for
    123, 9*occ12 + n for 132/213, 9*occ21 + n for 231/312, 18*occ21 + n
    for 321 (block decompositions of length <= 3).
    """
    n = v.shape[1]
    a = np.tril(v[:, None, :] < v[:, :, None], -1).sum(2)  # [r, j]: i < j, v_i < v_j
    c123, c132, c213, c231, c312, c321 = counting.three_counts(v, a)
    occ12 = a.sum(1)
    occ21 = math.comb(n, 2) - occ12
    target = n ** 3
    ok = (36 * c123 + 18 * occ12 + n == target)
    ok &= (36 * c132 + 9 * occ12 + n == target)
    ok &= (36 * c213 + 9 * occ12 + n == target)
    ok &= (36 * c231 + 9 * occ21 + n == target)
    ok &= (36 * c312 + 9 * occ21 + n == target)
    ok &= (36 * c321 + 18 * occ21 + n == target)
    return ok


_ENCODE_BASE = 16


def _encode(v: np.ndarray) -> np.ndarray:
    n = v.shape[-1]
    powers = _ENCODE_BASE ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return v @ powers


def _orbit_variants(v: np.ndarray) -> np.ndarray:
    """The 8 reverse/complement/inverse images, shape (8, m, n)."""
    m, n = v.shape
    inv = np.argsort(v, axis=1) + 1
    out = []
    for base in (v, inv):
        rev = base[:, ::-1]
        out.extend([base, rev, n + 1 - base, n + 1 - rev])
    return np.stack(out)


def _is_orbit_representative(v: np.ndarray) -> np.ndarray:
    codes = _encode(_orbit_variants(v))
    return codes[0] == codes.min(axis=0)


def search_inflatable(n: int, k: int, prune: bool = True,
                      threads: int = 1) -> list[Perm]:
    """All k-inflatable permutations in S_n, sorted lexicographically.

    Exhaustive over n! candidates (n <= 10; n = 10 takes a few seconds),
    generated as numpy blocks of 8! rows that share a prefix.  With prune,
    only lexicographic minima of the 8-element reverse/complement/inverse
    orbits are scored and hits are expanded back to full orbits; the defect
    is orbit-invariant, so the result set is unchanged.  k = 4 filters by
    exact 3-symmetry first (k-symmetry of any measure forces (k-1)-symmetry
    by marginalization) and then applies the exact rational 4-pattern
    verdict to survivors.  threads is accepted for compatibility and
    ignored: the search runs in one thread.
    """
    if not 2 <= n <= 10:
        raise PermutonError("search supports 2 <= n <= 10")
    if k not in (3, 4):
        raise PermutonError("search supports k = 3 or 4")

    hits: list[tuple[int, ...]] = []
    for block in _perm_chunks(n):
        if prune:
            block = block[_is_orbit_representative(block)]
        hits.extend(map(tuple, block[_score_hits(block)].tolist()))

    if prune and hits:
        arr = np.array(sorted(hits), dtype=np.int64)
        expanded = _orbit_variants(arr).reshape(-1, n)
        hits = sorted({tuple(int(x) for x in row) for row in expanded})
    else:
        hits = sorted(set(hits))

    if k == 4:
        survivors = []
        for h in hits:
            verdict = _defect_exact(from_perm(h), 4)
            if verdict.defect == 0:
                survivors.append(h)
        hits = survivors
    return [Perm(h) for h in hits]


def reflection_report(found: Iterable[Perm]) -> dict[str, list[tuple[Perm, Perm]]]:
    """Which of reverse/complement/inverse map the found set onto itself.

    Returns, for each closing operation, the (perm, image) pairs.  Used by
    the search CLI so the symmetry relating listed solutions is reported
    rather than assumed.
    """
    perms = sorted(found)
    bag = set(perms)
    ops = {
        "reverse": lambda p: p.reverse(),
        "complement": lambda p: p.complement(),
        "inverse": lambda p: p.inverse(),
    }
    report: dict[str, list[tuple[Perm, Perm]]] = {}
    for name, op in ops.items():
        pairs = []
        closed = True
        for p in perms:
            q = op(p)
            if q not in bag:
                closed = False
                break
            pairs.append((p, q))
        if closed and perms:
            report[name] = pairs
    return report
