"""Finite permutations in one-line notation.

A permutation of length n is stored as the tuple of its images
(tau(1), ..., tau(n)), 1-indexed.  This module provides the pattern
primitives (induced subpatterns, exact and sampled pattern densities,
the reflection symmetries) on top of the counting engines in
:mod:`permutons.counting`, and the seeded Monte Carlo chunk loop
(:func:`mc_chunks`) with the 99% quantile and intervals that every
sampled estimator of the package shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import counting
from .counting import PermError

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
DEFAULT_SEED = 20130409  # documented default; bare runs are reproducible


def binomial_ci99(hits: int, samples: int) -> float:
    """99% half-width for hits/samples: Wald, or at 0 or all hits, where
    Wald claims certainty, the Wilson bound z^2 / (samples + z^2)."""
    if 0 < hits < samples:
        est = hits / samples
        return Z99 * math.sqrt(est * (1 - est) / samples)
    return Z99 * Z99 / (samples + Z99 * Z99)


def mc_chunks(samples: int, seed: int,
              chunk: int = 1_000_000) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield (rng, m) over one PCG64(seed) stream, m <= chunk, the m summing
    to ``samples``.  Seeded results depend on ``chunk`` through the draw
    order, so each estimator keeps its own."""
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise PermError(f"samples must be >= 1 and an integer, got {samples!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    for start in range(0, samples, chunk):
        yield rng, min(chunk, samples - start)


def mc_hits(draw: Callable[[np.random.Generator, int], np.ndarray],
            samples: int, seed: int) -> tuple[float, float]:
    """(hits / samples, binomial_ci99), where ``draw(rng, m)`` returns the m
    booleans of one chunk of trials."""
    hits = sum(int(draw(rng, m).sum()) for rng, m in mc_chunks(samples, seed))
    return hits / samples, binomial_ci99(hits, samples)


@dataclass(frozen=True)
class Perm:
    """A permutation in one-line notation.

    >>> p = Perm((1, 3, 2))
    >>> len(p), p(2)
    (3, 3)
    """

    images: tuple[int, ...]
    # density_exact's memo of counting.profile(images, k), keyed by k
    _profiles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1:
            raise PermError("permutation must have length >= 1")
        seen = [False] * (n + 1)
        for v in self.images:
            if not isinstance(v, int) or not (1 <= v <= n):
                raise PermError(f"value {v!r} out of range 1..{n}")
            if seen[v]:
                raise PermError(f"duplicated value {v}")
            seen[v] = True

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise PermError(f"position {i} out of range 1..{len(self.images)}")
        return self.images[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm({self.images!r})"

    def one_line(self) -> str:
        return " ".join(str(v) for v in self.images)

    @staticmethod
    def identity(n: int) -> "Perm":
        return Perm(tuple(range(1, n + 1)))

    def reverse(self) -> "Perm":
        return Perm(tuple(reversed(self.images)))

    def complement(self) -> "Perm":
        n = len(self.images)
        return Perm(tuple(n + 1 - v for v in self.images))

    def inverse(self) -> "Perm":
        n = len(self.images)
        out = [0] * n
        for i, v in enumerate(self.images):
            out[v - 1] = i + 1
        return Perm(tuple(out))


@dataclass(frozen=True)
class Reflections:
    reverse: Perm
    complement: Perm
    inverse: Perm


def reflections(tau: Perm) -> Reflections:
    """The three standard symmetries of a permutation.

    >>> reflections(Perm((1, 2, 3))).reverse
    Perm((3, 2, 1))
    """
    return Reflections(tau.reverse(), tau.complement(), tau.inverse())


def induce(tau: Perm, indices: Sequence[int]) -> Perm:
    """Pattern of ``tau`` restricted to a strictly increasing index set.

    >>> induce(Perm((4, 3, 8, 9, 5, 1, 2, 7, 6)), (1, 4, 6))
    Perm((2, 3, 1))
    """
    k = len(indices)
    if k < 1:
        raise PermError("need at least one index")
    n = len(tau)
    prev = 0
    for i in indices:
        if not isinstance(i, int) or not (prev < i <= n):
            raise PermError(f"indices must be strictly increasing in 1..{n}")
        prev = i
    values = [tau(i) for i in indices]
    return Perm(counting.pattern_of(values))


def parse_perm(text: str) -> Perm:
    """Parse one-line notation: whitespace or comma separated integers.

    Lines starting with ``#`` are comments.  ``Perm`` rejects non-bijections
    with a message naming the first value out of range or repeated.
    """
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens.extend(line.replace(",", " ").split())
    if not tokens:
        raise PermError("empty permutation input")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise PermError(f"non-integer token in permutation: {exc}") from None
    return Perm(tuple(values))


@dataclass
class DensityReport:
    """All exact pattern densities of a fixed length.

    ``entries`` maps each pattern of length ``k`` to its density, an exact
    Fraction; :func:`all_densities` is the one producer.  ``defect`` and
    ``witness`` follow :func:`defect_witness`.
    """

    k: int
    entries: dict[Perm, Fraction]

    def __post_init__(self) -> None:
        self.entries = dict(sorted(self.entries.items(), key=lambda kv: kv[0].images))

    @property
    def defect(self) -> Fraction:
        return defect_witness(self.entries, self.k)[0]

    @property
    def witness(self) -> Perm:
        return defect_witness(self.entries, self.k)[1]


def defect_witness(densities: Mapping, k: int) -> tuple:
    """(max |t - 1/k!|, the first pattern attaining it) over a density table
    of length-k patterns, in the table's order.  Exact Fractions give a
    Fraction defect, floats a float."""
    target = Fraction(1, math.factorial(k))
    witness = max(densities, key=lambda p: abs(densities[p] - target))
    return abs(densities[witness] - target), witness


def density_exact(pi: Perm, tau: Perm) -> Fraction:
    """t(pi, tau): fraction of |pi|-subsets of tau inducing pi.

    >>> density_exact(Perm((1, 2)), Perm((1, 3, 2)))
    Fraction(2, 3)
    """
    k, n = len(pi), len(tau)
    if k > n:
        raise PermError(f"pattern length {k} exceeds |tau| = {n}")
    if k not in tau._profiles:
        tau._profiles[k] = counting.profile(tau.images, k)
    return Fraction(tau._profiles[k][pi.images], math.comb(n, k))


def all_densities(k: int, tau: Perm) -> DensityReport:
    """Exact densities of every pattern of length k in tau.

    Subquartic counting for k <= 4; subset enumeration for k in {5, 6}
    (restricted to |tau| <= 60).  ``counting.profile`` refuses other sizes.
    """
    prof = counting.profile(tau.images, k)
    denom = math.comb(len(tau), k)
    return DensityReport(k, {Perm(p): Fraction(c, denom) for p, c in prof.items()})


_SUBSET_BLOCK = 1 << 18  # uniforms held at once by density_sampled's small-n draw


def density_sampled(
    pi: Perm, tau: Perm, samples: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo estimate of t(pi, tau) with a 99% confidence half-width.

    Samples k-subsets of positions uniformly (by sorting k distinct uniform
    draws) and counts inductions of pi.
    """
    k, n = len(pi), len(tau)
    if k > n:
        raise PermError(f"pattern length {k} exceeds |tau| = {n}")
    tau_arr = np.asarray(tau.images, dtype=np.int64)
    order = np.argsort(pi.images)  # tau's values are distinct: one argsort

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        if n <= 64:
            # small n: k-subsets as the first k of a random order, drawn in
            # row blocks (the same floats as one (m, n) draw)
            rows = max(1, _SUBSET_BLOCK // n)
            idx = np.empty((m, k), dtype=np.int64)
            for lo in range(0, m, rows):
                block = rng.random((min(rows, m - lo), n))
                idx[lo:lo + len(block)] = np.argsort(block, axis=1)[:, :k]
            idx.sort(axis=1)
        else:
            # large n: rejection, redraw rows with repeated indices
            # (collision probability <= k^2/2n, so this clears quickly)
            idx = np.sort(rng.integers(0, n, size=(m, k)), axis=1)
            while True:
                bad = np.any(idx[:, 1:] == idx[:, :-1], axis=1)
                nbad = int(bad.sum())
                if nbad == 0:
                    break
                idx[bad] = np.sort(rng.integers(0, n, size=(nbad, k)), axis=1)
        return np.all(np.argsort(tau_arr[idx], axis=1) == order, axis=1)

    return mc_hits(draw, samples, seed)
