"""Plain-text instance files.

Format: the first non-comment line is "n m"; the next m non-comment lines
are arcs "u v" (arc u -> v); any following lines "w v p/q" assign weight
p/q to vertex v.  Lines starting with '#' and blank lines are ignored.
Line numbers in errors count every physical line, comments included.

A weight numeral is p, p/q or a decimal (p.q, p. or .q), of at most
MAX_WEIGHT_CHARS characters and without an exponent, so numerator and
denominator stay below 10**40.  Over the at most 20 vertices of an exact
solve, every median value then prints within Python's 4,300-digit limit
on integer string conversion.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .digraph import Digraph, Weighting, resolve_weights
from .errors import ParseError

MAX_WEIGHT_CHARS = 40
_WEIGHT_NUMERAL = re.compile(r"[+-]?(\d+(/\d+|\.\d*)?|\.\d+)")


def parse_instance(text: str) -> tuple[Digraph, Weighting | None]:
    """Parse an instance file into a digraph and optional weighting."""
    n = m = None
    arcs: list[tuple[int, int]] = []
    arc_set: set[tuple[int, int]] = set()
    weights: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2:
                raise ParseError("expected header 'n m'", lineno)
            try:
                n, m = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError("expected header 'n m'", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("header counts must be nonnegative", lineno)
            continue
        if tokens[0] == "w":
            if len(arcs) < m:
                raise ParseError(
                    f"weight line before all {m} arcs were read", lineno
                )
            if len(tokens) != 3:
                raise ParseError("expected weight line 'w v p/q'", lineno)
            numeral = tokens[2]
            if len(numeral) > MAX_WEIGHT_CHARS or not _WEIGHT_NUMERAL.fullmatch(numeral):
                raise ParseError(
                    f"weight {numeral[:MAX_WEIGHT_CHARS]!r} is not p, p/q or p.q"
                    f" of at most {MAX_WEIGHT_CHARS} characters",
                    lineno,
                )
            try:
                v = int(tokens[1])
                value = Fraction(numeral)
            except (ValueError, ZeroDivisionError):
                raise ParseError("expected weight line 'w v p/q'", lineno) from None
            if not 0 <= v < n:
                raise ParseError(f"vertex {v} out of range [0, {n})", lineno)
            if value <= 0:
                raise ParseError(f"weight of vertex {v} must be positive", lineno)
            weights[v] = value
            continue
        if len(arcs) >= m:
            raise ParseError(f"unexpected line after {m} arcs", lineno)
        if len(tokens) != 2:
            raise ParseError("expected arc line 'u v'", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError("expected arc line 'u v'", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"arc ({u}, {v}) out of range [0, {n})", lineno)
        if u == v:
            raise ParseError(f"loop at vertex {u}", lineno)
        if (v, u) in arc_set:
            raise ParseError(f"digon between {v} and {u}", lineno)
        if (u, v) in arc_set:
            raise ParseError(f"duplicate arc ({u}, {v})", lineno)
        arc_set.add((u, v))
        arcs.append((u, v))
    if n is None:
        raise ParseError("empty instance: missing 'n m' header", 1)
    if len(arcs) < m:
        raise ParseError(f"expected {m} arcs, found {len(arcs)}", 1)
    d = Digraph(n, arcs)
    w = None
    if weights:
        w = Weighting(tuple(weights.get(v, Fraction(1)) for v in range(n)))
    return d, w


def emit_instance(d: Digraph, w: Weighting | None = None) -> str:
    """Canonical text for an instance; parse(emit(d, w)) == (d, w).

    Raises ValueError when w does not cover exactly d's vertices or holds a
    zero weight or a weight longer than MAX_WEIGHT_CHARS characters, which
    the format cannot express.
    """
    lines = [f"{d.n} {len(d.arcs)}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs)
    if w is not None:
        resolve_weights(d, w)
        if 0 in w.values:
            raise ValueError(f"weights must be positive, got {w!r}")
        if any(len(str(v)) > MAX_WEIGHT_CHARS for v in w.values):
            raise ValueError(f"a weight is longer than {MAX_WEIGHT_CHARS} characters")
        lines.extend(f"w {v} {w.values[v]}" for v in range(d.n))
    return "\n".join(lines) + "\n"
