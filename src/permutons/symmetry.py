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
from concurrent.futures import ThreadPoolExecutor
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


def _perm_chunks(n: int, chunk: int) -> Iterable[np.ndarray]:
    it = itertools.permutations(range(1, n + 1))
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def _three_counts(v: np.ndarray):
    """Six length-3 occurrence counts per row, plus occ12/occ21, vectorized."""
    m, n = v.shape
    less = v[:, :, None] > v[:, None, :]  # less[r, j, i] = v[r,i] < v[r,j]
    # a[r, j] = #{i < j : v_i < v_j}
    ilesj = np.tril(np.ones((n, n), dtype=bool), -1)  # [j, i] with i < j
    a = (less & ilesj).sum(axis=2)
    b = np.arange(n)[None, :] - a
    igrtj = np.triu(np.ones((n, n), dtype=bool), 1)   # [j, l] with l > j
    lessr = v[:, None, :] < v[:, :, None]             # lessr[r, j, l] = v_l < v_j
    c = (lessr & igrtj).sum(axis=2)
    d = (n - 1) - np.arange(n)[None, :] - c
    occ12 = a.sum(axis=1)
    occ21 = b.sum(axis=1)
    c123 = (a * d).sum(axis=1)
    c321 = (b * c).sum(axis=1)
    choose2 = lambda x: x * (x - 1) // 2
    c213 = choose2(a).sum(axis=1) - c123
    c231 = choose2(b).sum(axis=1) - c321
    c312 = choose2(c).sum(axis=1) - c321
    c132 = math.comb(n, 3) - (c123 + c213 + c231 + c312 + c321)
    return (c123, c132, c213, c231, c312, c321), occ12, occ21


def _score_hits(v: np.ndarray) -> np.ndarray:
    """Rows whose flat grid measure is exactly 3-symmetric.

    t(pi, mu_tau) = 1/6 for all six patterns reduces to the integer
    equalities 36*occ_pi + corr_pi = n^3 with corr terms 18*occ12 + n for
    123, 9*occ12 + n for 132/213, 9*occ21 + n for 231/312, 18*occ21 + n
    for 321 (block decompositions of length <= 3).
    """
    m, n = v.shape
    (c123, c132, c213, c231, c312, c321), occ12, occ21 = _three_counts(v)
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


_SEARCH_CHUNK = 40_000


def search_inflatable(n: int, k: int, prune: bool = True,
                      threads: int = 1) -> list[Perm]:
    """All k-inflatable permutations in S_n, sorted lexicographically.

    Exhaustive over n! candidates (n <= 10; n = 10 takes on the order of a
    minute).  With prune, only lexicographic minima of the 8-element
    reverse/complement/inverse orbits are scored and hits are expanded back
    to full orbits; the defect is orbit-invariant, so the result set is
    unchanged.  k = 4 filters by exact 3-symmetry first (k-symmetry of any
    measure forces (k-1)-symmetry by marginalization) and then applies the
    exact rational 4-pattern verdict to survivors.
    """
    if not 2 <= n <= 10:
        raise PermutonError("search supports 2 <= n <= 10")
    if k not in (3, 4):
        raise PermutonError("search supports k = 3 or 4")
    threads = max(1, int(threads))

    def scan(chunk: np.ndarray) -> list[tuple[int, ...]]:
        if prune:
            keep = _is_orbit_representative(chunk)
            chunk = chunk[keep]
            if not len(chunk):
                return []
        ok = _score_hits(chunk)
        return [tuple(int(x) for x in row) for row in chunk[ok]]

    hits: list[tuple[int, ...]] = []
    if threads == 1:
        for chunk in _perm_chunks(n, _SEARCH_CHUNK):
            hits.extend(scan(chunk))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(scan, _perm_chunks(n, _SEARCH_CHUNK)):
                hits.extend(part)

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
