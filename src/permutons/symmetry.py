"""k-symmetry defects, inflatability verdicts, and exhaustive S_n search.

A permuton is k-symmetric when every length-k pattern has density exactly
1/k!.  A permutation tau with |tau| > 1 is k-inflatable when its flat grid
measure is k-symmetric; that verdict is exact rational arithmetic, never a
float comparison.

Verdicts read the exact grid density tables of ``measures`` (k <= 4) or
Monte Carlo histograms, and take their defect and witness from
``perms.defect_witness``.  The S_n search scores each candidate with the
flat-grid formula's integer terms, ``measures.FLAT_TERMS[3]``: t(pi, mu_tau)
= 1/6 for all six pi exactly when every sum of w * occ_r(sigma) equals n^3,
so the sweep runs entirely in int64 numpy batches; orders where no occ(12)
lets every sum reach n^3 (all n <= 10 but 8 and 9) are never swept.  At
orders 8 and 9 only rows whose occ(12) could do so (one in four) are
generated, and of those only the rows whose two end values pick one member
of every reverse/complement orbit are scored.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from . import counting
from .measures import FLAT_TERMS, GRID_EXACT_MAX_K, MC_MAX_K, GridPermuton, Permuton, \
    PermutonError, _flat_sums, from_perm, grid_densities, pattern_histogram_mc
from .perms import DEFAULT_SEED, Perm, binomial_ci99, defect_witness

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

    Grid permutons with k <= GRID_EXACT_MAX_K = 4 get exact Rational
    verdicts; anything else (other measures, or k = 5, 6) is estimated by
    Monte Carlo with a per-pattern 99% half-width.
    """
    if not 1 <= k <= MC_MAX_K:
        raise PermutonError(f"symmetry defect supports 1 <= k <= {MC_MAX_K}")
    if mode not in ("auto", "exact", "mc"):
        raise PermutonError(f"unknown mode {mode!r}")
    can_exact = isinstance(mu, GridPermuton) and k <= GRID_EXACT_MAX_K
    if mode == "exact" and not can_exact:
        raise PermutonError(
            f"exact verdicts need a grid permuton and k <= {GRID_EXACT_MAX_K}")
    if mode == "exact" or (mode == "auto" and can_exact):
        return _defect_exact(mu, k)
    return _defect_mc(mu, k, samples, seed)


def _defect_exact(mu: GridPermuton, k: int) -> SymmetryVerdict:
    dens = grid_densities(mu, k)
    defect, witness = defect_witness(dens, k)
    return SymmetryVerdict(k=k, defect=defect, witness=witness, exact=True,
                           densities=dens)


def _defect_mc(mu: Permuton, k: int, samples: int, seed: int) -> SymmetryVerdict:
    hist = pattern_histogram_mc(mu, k, samples, seed)
    dens = {pat: cnt / samples for pat, cnt in hist.items()}
    defect, witness = defect_witness(dens, k)
    worst_ci = max(binomial_ci99(cnt, samples) for cnt in hist.values())
    return SymmetryVerdict(k=k, defect=defect, witness=witness, exact=False,
                           densities=dens, error_radius=worst_ci, samples=samples)


def is_inflatable(tau, k: int) -> tuple[bool, SymmetryVerdict]:
    """(|tau| > 1 and mu_tau is exactly k-symmetric, verdict)."""
    if not isinstance(tau, Perm):
        tau = Perm(tuple(tau))
    if not 1 <= k <= GRID_EXACT_MAX_K:
        raise PermutonError(
            f"inflatability testing supports 1 <= k <= {GRID_EXACT_MAX_K}")
    verdict = _defect_exact(from_perm(tau), k)
    return len(tau) > 1 and verdict.defect == 0, verdict


# ---------------------------------------------------------------------------
# exhaustive search


_TAIL = 8  # each block is one prefix followed by all 8! = 40,320 tails


@functools.cache
def _tail_table(t: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(t) in lexicographic order, shape (t!, t), and
    the occ(12) of each; read-only."""
    table = np.zeros((1, 0), dtype=np.int64)
    for s in range(1, t + 1):
        table = np.concatenate([
            np.column_stack((np.full(len(table), f), table + (table >= f)))
            for f in range(s)])
    occ12 = np.triu(table[:, :, None] < table[:, None, :], 1).sum((1, 2))
    table.flags.writeable = occ12.flags.writeable = False
    return table, occ12


def _perm_chunks(n: int, admitted: np.ndarray) -> Iterable[np.ndarray]:
    """The rows of S_n whose occ(12) the mask over 0..C(n, 2) admits, in
    lexicographic order, one block per (n - t)-prefix, t = min(n, 8).  A row's
    occ(12) is the prefix's pairs p < q over all later q plus its tail
    pattern's occ(12)."""
    t = min(n, _TAIL)
    tails, tail_occ12 = _tail_table(t)
    values = range(1, n + 1)
    for prefix in itertools.permutations(values, n - t):
        first = prefix + tuple(sorted(set(values) - set(prefix)))  # the block's row 0
        base = sum(q > p for i, p in enumerate(prefix) for q in first[i + 1:])
        rows = tails[admitted[base + tail_occ12]]
        block = np.empty((len(rows), n), dtype=np.int64)
        block[:, :n - t] = prefix
        block[:, n - t:] = np.array(first[n - t:], dtype=np.int64)[rows]
        yield block


def _low_profiles(n: int, occ12) -> dict:
    """The r <= 2 profiles of a length-n row with occ(12) = occ12."""
    return {1: {(1,): n}, 2: {(1, 2): occ12, (2, 1): math.comb(n, 2) - occ12}}


def _score_hits(v: np.ndarray) -> np.ndarray:
    """Rows whose flat grid measure is exactly 3-symmetric.  Each pattern's
    FLAT_TERMS[3] sum S gives t(pi, mu_tau) = S / (3! n^3), so t = 1/6 for
    all six pi exactly when every S equals n^3.  Rows take values 0..n-1 or
    1..n."""
    n = v.shape[1]
    # [r, j]: i < j, v_i < v_j, by one broadcast.  _block_counts' column
    # comparisons make the search faster, but perfbench's exact-certify
    # keeps every job's output, so the extra jobs lift its peak RSS past
    # the benchmark's bound
    a = counting._broadcast_counts(v)
    profiles = _low_profiles(n, a.sum(1))
    profiles[3] = dict(zip(counting.all_patterns(3), counting.three_counts(v, a)))
    ok = np.ones(len(v), dtype=bool)
    for total in _flat_sums(profiles, 3).values():
        ok &= total == n ** 3
    return ok


# the weight of pi's own occ_3 term, its only r = 3 term, in its FLAT_TERMS[3] sum
_W3 = {pi: w for pi, terms in FLAT_TERMS[3].items() for r, _, w in terms if r == 3}


def _order_conditions(n: int) -> dict:
    """Per pattern pi, which occ(12) = a in 0..C(n, 2) leave n^3 less the r <= 2
    terms of pi's FLAT_TERMS[3] sum a non-negative multiple of _W3[pi]."""
    a = np.arange(math.comb(n, 2) + 1, dtype=np.int64)
    rests = {pi: n ** 3 - low for pi, low in _flat_sums(_low_profiles(n, a), 3).items()}
    return {pi: (rest >= 0) & (rest % _W3[pi] == 0) for pi, rest in rests.items()}


def _admitted_occ12(n: int) -> np.ndarray:
    """Mask of the occ(12) that meet every pattern's condition, as any hit's
    must.  For n <= 200 it admits some occ(12) exactly at n = 0, 1 (mod 8)
    and 0, 1, 8 (mod 9)."""
    return np.logical_and.reduce(list(_order_conditions(n).values()))


def _end_filter(v: np.ndarray) -> np.ndarray:
    """Rows with v_1 < v_n and v_1 + v_n <= n + 1.  Reverse swaps the two end
    values and reverse-complement maps them to n + 1 less each other's, so
    every reverse/complement orbit of S_n has a row here."""
    first, last = v[:, 0], v[:, -1]
    return (first < last) & (first + last <= v.shape[1] + 1)


def _orbit_variants(v: np.ndarray) -> np.ndarray:
    """The 4 reverse/complement images, shape (4, m, n)."""
    rev = v[:, ::-1]
    n = v.shape[1]
    return np.stack([v, rev, n + 1 - v, n + 1 - rev])


def search_inflatable(n: int, k: int, threads: int = 1) -> list[Perm]:
    """All k-inflatable permutations in S_n, sorted lexicographically.

    Orders where _admitted_occ12 admits no occ(12) (all n <= 10 but 8 and 9)
    return [] before enumeration.  The rest generate only the n!/4 rows whose
    occ(12) it admits, as every hit's is, in numpy blocks of up to 8! rows
    that share a prefix, and score those that pass _end_filter (25,200 of
    the 90,720 at order 9).  Hits are expanded by their four
    reverse/complement images: exact 3-symmetry is invariant under both
    maps, so an orbit that holds a hit has its filtered row among the hits,
    admitted and scored.  k = 4 filters by exact 3-symmetry first
    (k-symmetry of any measure forces (k-1)-symmetry by marginalization)
    and then applies the exact rational 4-pattern verdict to survivors.
    threads is accepted for compatibility and ignored: the search runs in
    one thread.
    """
    if not 2 <= n <= 10:
        raise PermutonError("search supports 2 <= n <= 10")
    if k not in (3, 4):
        raise PermutonError("search supports k = 3 or 4")
    admitted = _admitted_occ12(n)
    if not admitted.any():
        return []

    found: set[tuple[int, ...]] = set()
    for block in _perm_chunks(n, admitted):
        block = block[_end_filter(block)]
        images = _orbit_variants(block[_score_hits(block)]).reshape(-1, n)
        found.update(map(tuple, images.tolist()))
    hits = sorted(found)
    if k == 4:
        hits = [h for h in hits if _defect_exact(from_perm(h), 4).defect == 0]
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
