"""Text descriptions of permutons.

A description is a block of lines; blank lines and ``#`` comments are
ignored.  The first line of a block is ``type <kind>``; the payload depends
on the kind.  Numbers may be integers, decimals (exponents of at most four
digits), or rationals ``p/q``; all are read exactly.

type perm
    ``perm <one-line notation>`` -- the flat grid measure of a permutation::

        type perm
        perm 3 1 2

type grid
    ``n <size>`` then ``n`` lines ``mass <m1> ... <mn>`` (row-major; row i is
    the masses of cells (i, 1..n)).  Every row and column must sum to 1/n::

        type grid
        n 2
        mass 1/4 1/4
        mass 1/4 1/4

type segments
    One ``segment x1 y1 x2 y2`` line per segment; mass is proportional to
    length (exact when every slope is +-1)::

        type segments
        segment 0 0 1 1

type m_set
    ``a <value>`` -- the eight-segment family at parameter a.

type mixture
    ``component <weight>`` lines, each followed by a nested description
    indented past it.  A nested block ends at its first line indented less
    than its ``type`` line, and the next line must be a ``component`` line
    at the mixture's indent::

        type mixture
        component 1/2
          type m_set
          a 0
        component 1/2
          type perm
          perm 2 1

``load_permuton`` additionally runs a marginal check and rejects inputs
whose strip masses deviate from uniform.  The exact strip masses at
resolution 101 come from one sweep over the permuton's pieces, about 1 ms
for m_set(3083/6400) or the flat grid of an order-400 permutation.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

from .measures import (
    GridPermuton, MixturePermuton, Permuton, PermutonError,
    from_perm, m_set, marginal_check, segments_from_endpoints,
)
from .perms import PermError, parse_perm

MARGINAL_RESOLUTION = 101
MARGINAL_TOL = 1e-9


def _num(tok: str) -> Fraction:
    """Exact value of an integer, decimal, exponent or p/q token.  Exponents
    of five digits (Fraction would build 10^exp) and values beyond the float
    range (the float paths, such as segment lengths, cannot hold them) are
    refused."""
    try:
        if len(tok.lower().partition("e")[2].lstrip("+-")) > 4:
            raise ValueError("exponent too long")
        value = Fraction(tok)
        if abs(value) > sys.float_info.max:
            raise ValueError("beyond the float range")
    except (ValueError, ZeroDivisionError) as exc:
        raise PermutonError(f"bad number {tok!r}") from exc
    return value


def _clean(lines: list[str]) -> list[str]:
    out = []
    for raw in lines:
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            out.append(body)
    return out


def parse_permuton(text: str) -> Permuton:
    """Parse a permuton description (no marginal check)."""
    lines = _clean(text.splitlines())
    if not lines:
        raise PermutonError("empty permuton description")
    mu, rest = _parse_block(lines, 0)
    if rest != len(lines):
        raise PermutonError(f"trailing content: {lines[rest]!r}")
    return mu


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _parse_block(lines: list[str], pos: int) -> tuple[Permuton, int]:
    base = _indent(lines[pos])
    head = lines[pos].split()
    if len(head) != 2 or head[0] != "type":
        raise PermutonError(f"expected 'type <kind>', got {lines[pos].strip()!r}")
    kind = head[1]
    end = pos + 1
    while end < len(lines) and _indent(lines[end]) >= base:
        if _indent(lines[end]) == base and lines[end].lstrip().startswith("type"):
            break
        end += 1
    body = lines[pos + 1:end]

    if kind == "perm":
        payload = _fields(body, {"perm"})
        try:
            tau = parse_perm(payload["perm"])
        except PermError as exc:
            raise PermutonError(f"bad permutation line: {exc}") from exc
        return from_perm(tau), end
    if kind == "m_set":
        payload = _fields(body, {"a"})
        return m_set(_num(payload["a"])), end
    if kind == "grid":
        return _parse_grid(body), end
    if kind == "segments":
        return _parse_segments(body), end
    if kind == "mixture":
        return _parse_mixture(body, base), end
    raise PermutonError(f"unknown permuton type {kind!r}")


def _fields(body: list[str], wanted: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for line in body:
        toks = line.split(None, 1)
        if not toks or toks[0] not in wanted:
            raise PermutonError(f"unexpected line {line.strip()!r}")
        if toks[0] in out:
            raise PermutonError(f"duplicate field {toks[0]!r}")
        out[toks[0]] = toks[1] if len(toks) > 1 else ""
    missing = wanted - out.keys()
    if missing:
        raise PermutonError(f"missing field(s): {', '.join(sorted(missing))}")
    return out


def _parse_grid(body: list[str]) -> GridPermuton:
    if not body or body[0].split()[0] != "n":
        raise PermutonError("grid needs 'n <size>' first")
    toks = body[0].split()
    if len(toks) != 2:
        raise PermutonError("grid needs 'n <size>' first")
    try:
        n = int(toks[1])
    except ValueError:
        raise PermutonError(f"grid size {toks[1]!r} is not an integer") from None
    rows = body[1:]
    if len(rows) != n:
        raise PermutonError(f"grid expects {n} mass rows, got {len(rows)}")
    cells: dict[tuple[int, int], Fraction] = {}
    for i, line in enumerate(rows, start=1):
        toks = line.split()
        if toks[0] != "mass" or len(toks) != n + 1:
            raise PermutonError(f"row {i}: expected 'mass' and {n} entries")
        for j, tok in enumerate(toks[1:], start=1):
            m = _num(tok)
            if m:
                cells[(i, j)] = m
    return GridPermuton(n, cells)


def _parse_segments(body: list[str]) -> Permuton:
    eps = []
    for line in body:
        toks = line.split()
        if toks[0] != "segment" or len(toks) != 5:
            raise PermutonError(f"expected 'segment x1 y1 x2 y2', got {line.strip()!r}")
        eps.append(tuple(_num(t) for t in toks[1:]))
    if not eps:
        raise PermutonError("segments block is empty")
    return segments_from_endpoints(eps)


def _parse_mixture(body: list[str], base: int) -> MixturePermuton:
    # body holds everything indented past the mixture's type line
    comps: list[Permuton] = []
    weights: list[Fraction] = []
    i = 0
    while i < len(body):
        line = body[i]
        if _indent(line) != base:
            raise PermutonError(f"expected 'component <w>' at indent {base}: {line.strip()!r}")
        toks = line.split()
        if toks[0] != "component" or len(toks) != 2:
            raise PermutonError(f"expected 'component <weight>', got {line.strip()!r}")
        weights.append(_num(toks[1]))
        i += 1
        if i >= len(body) or _indent(body[i]) <= base:
            raise PermutonError("component without a nested description")
        mu, i = _parse_block(body, i)
        comps.append(mu)
    if not comps:
        raise PermutonError("mixture has no components")
    return MixturePermuton(tuple(comps), tuple(weights))


def load_permuton(path) -> Permuton:
    """Read, parse, and marginal-check a permuton description file."""
    text = Path(path).read_text()
    mu = parse_permuton(text)
    report = marginal_check(mu, MARGINAL_RESOLUTION, MARGINAL_TOL)
    if not report.passed:
        raise PermutonError(
            f"non-uniform marginals: {report.axis}-strip {report.strip_index} "
            f"deviates by {report.max_deviation:.3g} (resolution {report.resolution})")
    return mu
