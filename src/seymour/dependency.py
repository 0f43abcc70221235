"""The losing relation between missing edges and its derived structure.

Missing edge x1y1 loses to missing edge x2y2 when, for some labeling of the
endpoints, x1 -> x2 with y2 outside N+(x1) and N++(x1), and y1 -> y2 with
x2 outside N+(y1) and N++(y1).  The dependency digraph has the missing edges
as vertices and one arc per losing pair (digons allowed there).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .digraph import Digraph, VertexSet
from .errors import NotDisjointStarsError
from .stars import Edge, StarDecomposition, decompose, edge, edge_pair


@dataclass(frozen=True)
class LosingWitness:
    """Role assignment certifying that {x1,y1} loses to {x2,y2}."""

    x1: int
    y1: int
    x2: int
    y2: int


def loses_to(d: Digraph, e1, e2) -> LosingWitness | None:
    """First role assignment making e1 lose to e2, or None.

    Role assignments are tried with each edge's endpoints in (min,max) order
    first, so the returned witness is deterministic.
    """
    e1 = frozenset(e1)
    e2 = frozenset(e2)
    if e1 == e2:
        return None
    p, q = edge_pair(e1)
    r, s = edge_pair(e2)
    for x1, y1 in ((p, q), (q, p)):
        reach_x1 = d.out_mask(x1) | d.second_mask(x1)
        reach_y1 = d.out_mask(y1) | d.second_mask(y1)
        for x2, y2 in ((r, s), (s, r)):
            if (
                d.has_arc(x1, x2)
                and not reach_x1 >> y2 & 1
                and d.has_arc(y1, y2)
                and not reach_y1 >> x2 & 1
            ):
                return LosingWitness(x1, y1, x2, y2)
    return None


@dataclass(frozen=True)
class DependencyDigraph:
    """Losing relation over the missing edges of one digraph.

    succ and pred map every missing edge to the edges it loses to and the
    edges that lose to it, in arc order.
    """

    edges: tuple[Edge, ...]
    arcs: tuple[tuple[Edge, Edge], ...]
    witnesses: dict
    succ: dict
    pred: dict

    def out_degree(self, e) -> int:
        return len(self.succ[frozenset(e)])

    def in_degree(self, e) -> int:
        return len(self.pred[frozenset(e)])

    @property
    def min_out_degree(self) -> int | None:
        if not self.edges:
            return None
        return min(self.out_degree(e) for e in self.edges)

    @property
    def min_in_degree(self) -> int | None:
        if not self.edges:
            return None
        return min(self.in_degree(e) for e in self.edges)

    @property
    def min_degree(self) -> int | None:
        """min(delta+, delta-), None when there are no missing edges."""
        if not self.edges:
            return None
        return min(self.min_out_degree, self.min_in_degree)

    def successors(self, e) -> tuple[Edge, ...]:
        return self.succ[frozenset(e)]


def dependency_digraph(d: Digraph) -> DependencyDigraph:
    edges = tuple(edge(u, v) for u, v in d.missing_pairs())
    arcs = []
    witnesses = {}
    succ: dict[Edge, list[Edge]] = {e: [] for e in edges}
    pred: dict[Edge, list[Edge]] = {e: [] for e in edges}
    for e1 in edges:
        for e2 in edges:
            if e1 == e2:
                continue
            w = loses_to(d, e1, e2)
            if w is not None:
                arcs.append((e1, e2))
                witnesses[(e1, e2)] = w
                succ[e1].append(e2)
                pred[e2].append(e1)
    return DependencyDigraph(
        edges,
        tuple(arcs),
        witnesses,
        {e: tuple(s) for e, s in succ.items()},
        {e: tuple(p) for e, p in pred.items()},
    )


def good_edges(dd: DependencyDigraph) -> tuple[Edge, ...]:
    """Missing edges no edge loses to (in-degree 0 in the dependency digraph)."""
    return tuple(e for e in dd.edges if dd.in_degree(e) == 0)


def _groups(items: Sequence, links) -> list[list]:
    """Connected groups of items joined by links (union-find), in item order."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for x in items:
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _weak_components(dd: DependencyDigraph) -> tuple[tuple[Edge, ...], ...]:
    comps = [tuple(sorted(g, key=edge_pair)) for g in _groups(dd.edges, dd.arcs)]
    comps.sort(key=lambda c: edge_pair(c[0]))
    return tuple(comps)


def strongly_connected_components(
    vertices: Sequence, successors
) -> tuple[tuple, ...]:
    """Iterative Tarjan SCC over an arbitrary finite vertex set."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[tuple] = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(successors(u))))
                    advanced = True
                    break
                if u in on_stack:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent_v = work[-1][0]
                low[parent_v] = min(low[parent_v], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                sccs.append(tuple(comp))
    return tuple(sccs)


@dataclass(frozen=True)
class ComponentIndex:
    """Weak components of the dependency digraph and their vertex footprint.

    components: weak components of the losing relation, each a tuple of edges.
    k_sets:     K(C) per component (the endpoints of its edges).
    xi_groups:  connected components of the interval graph (components are
                adjacent when their K-sets intersect), as tuples of component
                indices.
    k_of_xi:    K(xi) per group: the union of the member K-sets.
    """

    dd: DependencyDigraph
    components: tuple[tuple[Edge, ...], ...]
    k_sets: tuple[VertexSet, ...]
    xi_groups: tuple[tuple[int, ...], ...]
    k_of_xi: tuple[VertexSet, ...]

    def xi_of_vertex(self, v: int) -> int | None:
        for i, k in enumerate(self.k_of_xi):
            if v in k:
                return i
        return None

    def component_is_path(self, ci: int) -> bool:
        """True when weak component ci is a directed path (isolated edge included)."""
        comp = self.components[ci]
        succ, pred = self.dd.succ, self.dd.pred
        if any(len(succ[e]) > 1 or len(pred[e]) > 1 for e in comp):
            return False
        starts = sum(1 for e in comp if not pred[e])
        if starts != 1:
            return False  # a 1-in/1-out weak component with no start is a cycle
        # the chain from the start must cover the component
        return len(self.path_chain(ci)) == len(comp)

    def path_chain(self, ci: int) -> tuple[Edge, ...]:
        succ = self.dd.succ
        (start,) = [e for e in self.components[ci] if not self.dd.pred[e]]
        chain = [start]
        while succ[chain[-1]]:
            chain.append(succ[chain[-1]][0])
        return tuple(chain)

    def component_is_nontrivial_scc(self, ci: int) -> bool:
        # arcs never leave a weak component, and a lone edge is trivial
        comp = self.components[ci]
        if len(comp) == 1:
            return False
        return len(strongly_connected_components(comp, self.dd.succ.__getitem__)) == 1


def component_index(d: Digraph) -> ComponentIndex:
    """Weak components and K(xi) groups of the dependency digraph of d."""
    dd = dependency_digraph(d)
    components = _weak_components(dd)
    k_sets = tuple(
        tuple(sorted({v for e in comp for v in e})) for comp in components
    )
    # interval graph: components adjacent when K-sets intersect
    m = len(components)
    overlaps = [
        (i, j) for i in range(m) for j in range(i + 1, m) if set(k_sets[i]) & set(k_sets[j])
    ]
    xi_groups = tuple(sorted(tuple(g) for g in _groups(range(m), overlaps)))
    k_of_xi = tuple(
        tuple(sorted({v for ci in g for v in k_sets[ci]})) for g in xi_groups
    )
    return ComponentIndex(dd, components, k_sets, xi_groups, k_of_xi)


def j_of(d: Digraph, v: int, ci: ComponentIndex) -> VertexSet:
    """J(v): {v} for whole vertices, else the K(xi) of ci containing v."""
    if d.is_whole(v):
        return (v,)
    # a missing edge at v is a vertex of Delta, so some K(xi) holds v
    return ci.k_of_xi[ci.xi_of_vertex(v)]


@dataclass(frozen=True)
class GoodnessReport:
    is_good: bool
    verdicts: tuple[tuple[VertexSet, bool], ...]  # (K(xi), is_interval)


def goodness(d: Digraph, ci: ComponentIndex) -> GoodnessReport:
    verdicts = tuple((k, d.is_interval(k)) for k in ci.k_of_xi)
    return GoodnessReport(all(ok for _, ok in verdicts), verdicts)


def is_good_digraph(d: Digraph) -> bool:
    """True when the missing graph is disjoint stars and every K(xi) is an interval."""
    return Analysis(d).goodness.is_good


class Analysis:
    """The derived structures of one digraph, each computed at most once.

    dec:      star decomposition of the missing graph, None when it is not
              disjoint stars (dec_error then says why);
    ci:       component index of the dependency digraph, whose Delta is dd;
    goodness: the interval verdict of every K(xi); a digraph whose missing
              graph is not disjoint stars is never good (no verdicts).

    Gates, procedures and the order layer (good_median_order, sed,
    sediment) of one instance share one Analysis, so no structure is
    rebuilt between them; in the library only Analysis.ci builds a
    component index.
    """

    def __init__(self, d: Digraph) -> None:
        self.d = d

    @cached_property
    def _decomposition(self) -> tuple[StarDecomposition | None, str | None]:
        try:
            return decompose(self.d), None
        except NotDisjointStarsError as exc:
            return None, str(exc)

    @property
    def dec(self) -> StarDecomposition | None:
        return self._decomposition[0]

    @property
    def dec_error(self) -> str | None:
        return self._decomposition[1]

    @cached_property
    def ci(self) -> ComponentIndex:
        return component_index(self.d)

    @property
    def dd(self) -> DependencyDigraph:
        return self.ci.dd

    @cached_property
    def goodness(self) -> GoodnessReport:
        if self.dec is None:
            return GoodnessReport(False, ())
        return goodness(self.d, self.ci)


@dataclass(frozen=True)
class StrongDependencyReport:
    """Disjoint-star missing graph + all components non-trivially strong => good."""

    hypothesis_holds: bool
    detail: str
    is_good: bool


def strong_dependency_check(d: Digraph) -> StrongDependencyReport:
    a = Analysis(d)
    is_good = a.goodness.is_good
    if a.dec is None:
        return StrongDependencyReport(False, f"not disjoint stars: {a.dec_error}", is_good)
    ci = a.ci
    bad = [
        ci.components[i]
        for i in range(len(ci.components))
        if not ci.component_is_nontrivial_scc(i)
    ]
    if bad:
        sample = [tuple(sorted(map(edge_pair, c))) for c in bad[:3]]
        return StrongDependencyReport(
            False,
            f"{len(bad)} dependency component(s) not non-trivial strongly connected, e.g. {sample}",
            is_good,
        )
    return StrongDependencyReport(True, "all dependency components non-trivial strongly connected", is_good)
