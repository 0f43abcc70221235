"""Missing-graph structure: star decompositions, readings and orientations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator

from .digraph import Arc, Digraph, VertexSet, _groups
from .errors import NotDisjointStarsError

Edge = frozenset  # frozenset({u, v}) naming a missing edge

# center_assignments stops after this many readings (2 per matching edge):
# with m > 8 matching edges, the first m - 8 stay at their first endpoint
MAX_READINGS = 256


def edge(u: int, v: int) -> Edge:
    return frozenset((u, v))


def edge_pair(e: Edge) -> tuple[int, int]:
    u, v = sorted(e)
    return u, v


@dataclass(frozen=True)
class Star:
    """One star of the missing graph: a center and its leaves."""

    center: int
    leaves: VertexSet

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(edge(self.center, a) for a in self.leaves)


@dataclass(frozen=True)
class StarDecomposition:
    """Missing graph split into >=2-leaf stars and single-edge components.

    Single missing edges go to `matching`; their center choice is ambiguous,
    so they are kept as plain pairs (u < v).
    """

    stars: tuple[Star, ...]
    matching: tuple[tuple[int, int], ...]

    def component_count(self) -> int:
        return len(self.stars) + len(self.matching)


def decompose(d: Digraph) -> StarDecomposition:
    """Split the missing graph into disjoint stars; raise if impossible.

    The components of the missing graph are the groups of `_groups` over
    the missing pairs that hold more than one vertex, each ascending and
    in order of least member, so stars and matching edges come out in
    that order.  A component of k >= 3 vertices that passes the edge count
    has k - 1 edges and is connected, so it is a tree.  If one vertex has
    degree k - 1, the other k - 1 vertices share the degree sum
    2(k - 1) - (k - 1) = k - 1, each at least 1, so each is a leaf; and a
    second vertex of degree k - 1 would close a triangle.  So a component
    with a center has exactly one, and every other vertex is its leaf.
    """
    pairs = d.missing_pairs()
    degree = [0] * d.n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    stars: list[Star] = []
    matching: list[tuple[int, int]] = []
    for component in _groups(d.n, pairs):
        k = len(component)
        if k == 1:
            continue  # a vertex without missing edges
        edges_in = sum(degree[x] for x in component) // 2
        if edges_in != k - 1:
            raise NotDisjointStarsError(
                f"missing-graph component {component} has {edges_in} edges; a star needs {k - 1}"
            )
        if k == 2:
            matching.append((component[0], component[1]))
            continue
        center = next((x for x in component if degree[x] == k - 1), None)
        if center is None:
            raise NotDisjointStarsError(
                f"missing-graph component {component} is not a star"
            )
        stars.append(Star(center, tuple(x for x in component if x != center)))
    return StarDecomposition(tuple(stars), tuple(matching))


def center_assignments(dec: StarDecomposition) -> Iterator[tuple[Star, ...]]:
    """The readings of the decomposition as tuples of stars, at most MAX_READINGS.

    Multi-leaf stars have a forced center; each matching edge yields two
    candidate readings, so there are 2 ** len(dec.matching) in all.
    """
    choices = [(Star(u, (v,)), Star(v, (u,))) for u, v in dec.matching]
    for combo in islice(product(*choices), MAX_READINGS):
        yield dec.stars + tuple(combo)


def orient_toward_centers(stars: tuple[Star, ...]) -> tuple[Arc, ...]:
    """One arc per star edge, from leaf to center."""
    return tuple((a, s.center) for s in stars for a in s.leaves)


def is_convenient(d: Digraph, a: int, b: int) -> bool:
    """True when every in-neighbor of a reaches b within two steps.

    The orientation (a, b) of a missing edge is convenient when for every
    vertex v outside {a, b}: v -> a implies b in N+(v) or N++(v).
    """
    d._check(a)
    d._check(b)
    m = d.in_mask(a) & ~(1 << b)
    while m:
        low = m & -m
        v = low.bit_length() - 1
        if not (d.out_mask(v) | d.second_mask(v)) >> b & 1:
            return False
        m ^= low
    return True


def convenient_orientations(d: Digraph, e: Edge | tuple[int, int]) -> tuple[Arc, ...]:
    """The convenient orientations of a missing edge, in (min,max) order first."""
    u, v = edge_pair(frozenset(e))
    if d.has_arc(u, v) or d.has_arc(v, u):
        raise ValueError(f"({u}, {v}) is not a missing edge")
    result = []
    if is_convenient(d, u, v):
        result.append((u, v))
    if is_convenient(d, v, u):
        result.append((v, u))
    return tuple(result)
