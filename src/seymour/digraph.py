"""Immutable digon-free digraphs, vertex weightings, and neighborhood queries.

Vertices are dense ints 0..n-1.  Adjacency lives in per-vertex bitmasks, so
first and second neighborhoods are cheap at desk scale.  All set-valued
results come back as sorted tuples so reports and tests are reproducible.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DigonError, LoopArcError, VertexRangeError

Arc = tuple[int, int]
VertexSet = tuple[int, ...]


def mask_to_set(mask: int) -> VertexSet:
    """Sorted tuple of the bit positions set in mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def set_to_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _groups(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected groups of 0..n-1 joined by links (union-find), each group
    ascending and the groups by their least member."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


class Digraph:
    """A loop-free digraph without digons (no pair of opposite arcs)."""

    __slots__ = ("n", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        if n < 0:
            raise VertexRangeError(f"negative vertex count {n}")
        out = [0] * n
        inn = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"arc ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise LoopArcError(f"loop at {u}")
            if out[v] >> u & 1:
                raise DigonError(f"digon between {u} and {v}")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        self.n = n
        self._out = tuple(out)
        self._in = tuple(inn)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={list(self.arcs)!r})"

    def fingerprint(self) -> str:
        """Stable short digest of the labeled digraph."""
        payload = f"{self.n}|" + ",".join(f"{u}>{v}" for u, v in self.arcs)
        return hashlib.sha1(payload.encode()).hexdigest()[:12]

    # -- raw access -------------------------------------------------------

    @property
    def arcs(self) -> tuple[Arc, ...]:
        result = []
        for u in range(self.n):
            for v in mask_to_set(self._out[u]):
                result.append((u, v))
        return tuple(result)

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self._out)

    def has_arc(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return bool(self._out[u] >> v & 1)

    def out_mask(self, v: int) -> int:
        return self._out[v]

    def in_mask(self, v: int) -> int:
        return self._in[v]

    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v} outside 0..{self.n - 1}")

    # -- neighborhoods ----------------------------------------------------

    def neighbors(self, v: int) -> VertexSet:
        """First out-neighborhood of v."""
        self._check(v)
        return mask_to_set(self._out[v])

    def second_mask(self, v: int) -> int:
        out = self._out
        first = out[v]
        reach = 0
        m = first
        while m:
            low = m & -m
            reach |= out[low.bit_length() - 1]
            m ^= low
        return reach & ~first & ~(1 << v)

    def second_neighborhood(self, v: int) -> VertexSet:
        """Vertices at directed distance exactly two from v."""
        self._check(v)
        return mask_to_set(self.second_mask(v))

    def degree(self, v: int) -> int:
        self._check(v)
        return self._out[v].bit_count()

    def second_degree(self, v: int) -> int:
        self._check(v)
        return self.second_mask(v).bit_count()

    # -- global structure --------------------------------------------------

    def is_tournament(self) -> bool:
        return self.arc_count * 2 == self.n * (self.n - 1)

    def sinks(self) -> VertexSet:
        return tuple(v for v in range(self.n) if self._out[v] == 0)

    def has_sink(self) -> bool:
        return any(self._out[v] == 0 for v in range(self.n))

    def is_whole(self, v: int) -> bool:
        """True when v is adjacent to every other vertex."""
        self._check(v)
        return (self._out[v] | self._in[v]).bit_count() == self.n - 1

    def missing_pairs(self) -> tuple[tuple[int, int], ...]:
        """Nonadjacent pairs (u, v) with u < v."""
        result = []
        full = (1 << self.n) - 1
        for u in range(self.n):
            # the non-neighbours above u, lowest first
            m = full & ~(self._out[u] | self._in[u] | ((2 << u) - 1))
            while m:
                low = m & -m
                result.append((u, low.bit_length() - 1))
                m ^= low
        return tuple(result)

    def is_interval(self, vertices: Iterable[int]) -> bool:
        """True when all members see the outside identically, in and out."""
        kset = set_to_mask(vertices)
        outside = ~kset
        members = mask_to_set(kset)
        if not members:
            return True
        first = members[0]
        self._check(first)
        out0 = self._out[first] & outside
        in0 = self._in[first] & outside
        for v in members[1:]:
            self._check(v)
            if self._out[v] & outside != out0 or self._in[v] & outside != in0:
                return False
        return True

    # -- derived digraphs ---------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["Digraph", VertexSet]:
        """Induced subdigraph plus the tuple mapping new ids to original ids."""
        keep = mask_to_set(set_to_mask(vertices))
        if not keep:
            raise ValueError("cannot induce on an empty vertex set")
        for v in keep:
            self._check(v)
        index = {v: i for i, v in enumerate(keep)}
        arcs = [
            (index[u], index[v])
            for u in keep
            for v in mask_to_set(self._out[u])
            if v in index
        ]
        return Digraph(len(keep), arcs), keep

    def with_arcs(self, add: Iterable[Arc] = (), remove: Iterable[Arc] = ()) -> "Digraph":
        removed = set(remove)
        arcs = [a for a in self.arcs if a not in removed]
        arcs.extend(add)
        return Digraph(self.n, arcs)

    def complete(self, orientation: Iterable[Arc]) -> "Digraph":
        """Tournament-completion: orient every missing pair exactly once."""
        pending = {frozenset(p) for p in self.missing_pairs()}
        new_arcs = []
        for u, v in orientation:
            key = frozenset((u, v))
            if key not in pending:
                raise ValueError(f"({u}, {v}) does not orient a missing pair (or repeats one)")
            pending.remove(key)
            new_arcs.append((u, v))
        if pending:
            missing = sorted(tuple(sorted(p)) for p in pending)
            raise ValueError(f"orientation leaves pairs unoriented: {missing}")
        return self.with_arcs(add=new_arcs)


class Weighting:
    """Nonnegative rational vertex weights; weights default to 1.

    Construction also stores the weights as integers over one common
    denominator, `values[v] == Fraction(ints[v], scale)`, which is the form
    the order kernels read.
    """

    __slots__ = ("_values", "ints", "scale")

    def __init__(self, values: Sequence[Fraction | int | str]):
        vals = tuple(Fraction(v) for v in values)
        for i, v in enumerate(vals):
            if v < 0:
                raise ValueError(f"negative weight {v} at vertex {i}")
        self._values = vals
        self.scale = math.lcm(*(v.denominator for v in vals))
        self.ints = tuple(v.numerator * (self.scale // v.denominator) for v in vals)

    @classmethod
    def ones(cls, n: int) -> "Weighting":
        return cls((1,) * n)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, v: int) -> Fraction:
        return self._values[v]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Weighting) and self._values == other._values

    def __repr__(self) -> str:
        return f"Weighting({[str(v) for v in self._values]})"

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self._values

    def is_uniform(self) -> bool:
        return len(set(self.ints)) <= 1

    def total(self, vertices: Iterable[int]) -> Fraction:
        return Fraction(sum(self.ints[v] for v in vertices), self.scale)


def resolve_weights(d: Digraph, w: Weighting | None) -> Weighting:
    if w is None:
        return Weighting.ones(d.n)
    if len(w) != d.n:
        raise ValueError(f"weighting covers {len(w)} vertices, digraph has {d.n}")
    return w
