"""The losing relation between missing edges and its derived structure.

Missing edge x1y1 loses to missing edge x2y2 when, for some labeling of the
endpoints, x1 -> x2 with y1 reaching x2 in neither one nor two steps, and
y1 -> y2 with x1 reaching y2 in neither one nor two steps.  As x1 -> x2 and
x1y1 is missing, the first half says x2 is in N+(x1) minus N+(y1) and no
out-neighbor of y1 is an in-neighbor of x2; the second half is the same
with the roles swapped.  _role_masks is the one statement of this
condition: for e1 = (t, y) it gives the masks of the vertices that may play
x2 and y2, and e1 loses to e2 = {r, s} exactly when one endpoint of e2 is
in the first mask and the other in the second.  dependency_digraph tests
every pair on those masks; losing_roles, and through it loses_to and the
role labeling of propagate_roles, reads the same helper.  The dependency
digraph has the missing edges as vertices and one arc per losing pair
(digons allowed there).  Its per-edge tables grow with the number of
missing edges, so dependency_digraph refuses more than MAX_MISSING_EDGES
of them before building any.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .digraph import Digraph, VertexSet, _groups, mask_to_set, set_to_mask
from .errors import ExactBoundExceededError, NotDisjointStarsError
from .stars import Edge, StarDecomposition, decompose, edge, edge_pair


# Missing-edge cap of the dependency digraph, whose per-edge dicts and lists
# grow with the edge count: `seymour delta` on an arcless digraph peaked at
# 70 MB with 300 vertices (44,850 missing edges) and 74 MB with 316 (49,770,
# just under the cap), and at 201 MB with 600 (179,700) before the cap
# (Python 3.11, one process, ru_maxrss).
MAX_MISSING_EDGES = 50_000


@dataclass(frozen=True)
class LosingWitness:
    """Role assignment certifying that {x1,y1} loses to {x2,y2}."""

    x1: int
    y1: int
    x2: int
    y2: int


def _unreached(d: Digraph, t: int, y: int) -> int:
    """The mask of the x in N+(t) minus N+(y) with N+(y) and N-(x) disjoint:
    the out-neighbors of t that y reaches in neither one nor two steps.
    Each out-neighbor f of y strikes N+(f), and the loop stops once no
    candidate is left."""
    out = d.out_mask
    m = out(y)
    keep = out(t) & ~m
    while m and keep:
        low = m & -m
        keep &= ~out(low.bit_length() - 1)
        m ^= low
    return keep


def _role_masks(d: Digraph, t: int, y: int) -> tuple[int, int]:
    """Masks (xs, ys) of the candidates for x2 and y2 when x1 = t and y1 = y.

    xs holds the x in N+(t) minus N+(y) such that no out-neighbor of y is
    an in-neighbor of x: the out-neighbors of t that y reaches in neither
    one nor two steps (x is never y, as ty is missing).  ys is the same
    with t and y swapped, and 0 when xs is, as no role pair can then
    exist.  e1 = {t, y} loses to e2 = {r, s} with roles
    (x2, y2) = (r, s) exactly when r is in xs and s in ys.  e2 = e1 fails
    this by itself, because t is not in N+(t) (no loops) and neither is y
    (ty is missing), so no caller needs to skip it.
    """
    xs = _unreached(d, t, y)
    return xs, _unreached(d, y, t) if xs else 0


def losing_roles(d: Digraph, e1: Edge, e2: Edge, tail: int) -> tuple[int, int] | None:
    """Roles (x2, y2) of e2 for which e1 loses to e2 with x1 = tail, or None.

    The losing condition pairs x1 with x2 and y1 with y2, and it is
    symmetric under swapping the two pairs.  At most one pairing of the
    endpoints satisfies it (x1 -> x2 with y2 outside N+(x1) rules out
    x1 -> y2), so e1 loses to e2 with either tail or with neither, and the
    roles for the other tail are these reversed.
    """
    (y1,) = e1 - {tail}
    r, s = edge_pair(e2)
    for v in (tail, y1, r, s):
        d._check(v)
    xs, ys = _role_masks(d, tail, y1)
    if xs >> r & ys >> s & 1:
        return r, s
    if xs >> s & ys >> r & 1:
        return s, r
    return None


def loses_to(d: Digraph, e1, e2) -> LosingWitness | None:
    """The role assignment making e1 lose to e2 with x1 < y1, or None.

    By the symmetry of losing_roles, the other tail adds no assignment.
    """
    e1 = frozenset(e1)
    x1, y1 = edge_pair(e1)
    roles = losing_roles(d, e1, e2, x1)
    return None if roles is None else LosingWitness(x1, y1, *roles)


@dataclass(frozen=True)
class DependencyDigraph:
    """Losing relation over the missing edges of one digraph.

    succ and pred map every missing edge to the edges it loses to and the
    edges that lose to it, in arc order.
    """

    edges: tuple[Edge, ...]
    arcs: tuple[tuple[Edge, Edge], ...]
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


def dependency_digraph(d: Digraph) -> DependencyDigraph:
    # only more vertex pairs than the cap can hold more missing edges, so
    # smaller digraphs count no arcs
    pairs_n = d.n * (d.n - 1) // 2
    if pairs_n > MAX_MISSING_EDGES and (missing := pairs_n - d.arc_count) > MAX_MISSING_EDGES:
        raise ExactBoundExceededError(
            f"dependency digraph capped at {MAX_MISSING_EDGES} missing edges, got {missing}"
        )
    pairs = d.missing_pairs()
    edges = tuple(edge(u, v) for u, v in pairs)
    arcs = []
    succ: dict[Edge, list[Edge]] = {e: [] for e in edges}
    pred: dict[Edge, list[Edge]] = {e: [] for e in edges}
    for e1, (t, y) in zip(edges, pairs):
        xs, ys = _role_masks(d, t, y)
        if not (xs and ys):
            continue
        out = succ[e1]
        # e2 = e1 fails the bit test by itself (see _role_masks)
        for e2, (r, s) in zip(edges, pairs):
            if (xs >> r & ys >> s | xs >> s & ys >> r) & 1:
                arcs.append((e1, e2))
                out.append(e2)
                pred[e2].append(e1)
    return DependencyDigraph(
        edges,
        tuple(arcs),
        {e: tuple(s) for e, s in succ.items()},
        {e: tuple(p) for e, p in pred.items()},
    )


def propagate_roles(
    d: Digraph, dd: DependencyDigraph, seeds: dict[Edge, tuple[int, int]]
) -> dict[Edge, tuple[int, int]]:
    """Role labels (x, y) spread breadth-first from seeds along losing arcs.

    An edge e labeled (x, y) labels each unlabeled successor e2 with the
    roles losing_roles(d, e, e2, x).  As e loses to e2, they exist for
    either tail, so every edge reachable from the seeds is labeled.
    """
    roles = dict(seeds)
    queue = list(roles)
    # the loop also visits the edges appended to the queue while it runs
    for e in queue:
        for e2 in dd.succ[e]:
            if e2 not in roles:
                roles[e2] = losing_roles(d, e, e2, roles[e][0])
                queue.append(e2)
    return roles


def good_edges(dd: DependencyDigraph) -> tuple[Edge, ...]:
    """Missing edges no edge loses to (in-degree 0 in the dependency digraph)."""
    return tuple(e for e in dd.edges if dd.in_degree(e) == 0)


def _reachable(start: Edge, links: dict) -> set[Edge]:
    """The edges reachable from start along links (succ or pred)."""
    seen = {start}
    stack = [start]
    while stack:
        for e in links[stack.pop()]:
            if e not in seen:
                seen.add(e)
                stack.append(e)
    return seen


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

    def component_is_path(self, ci: int) -> bool:
        """True when weak component ci is a directed path (isolated edge included).

        A weakly connected component whose edges all have in- and out-degree
        at most 1 has underlying degree at most 2, so it is one directed path
        or one directed cycle.  The cycle has no start and the path exactly
        one, and the chain from that start covers the path.
        """
        comp = self.components[ci]
        succ, pred = self.dd.succ, self.dd.pred
        if any(len(succ[e]) > 1 or len(pred[e]) > 1 for e in comp):
            return False
        return any(not pred[e] for e in comp)

    def path_chain(self, ci: int) -> tuple[Edge, ...]:
        succ = self.dd.succ
        (start,) = [e for e in self.components[ci] if not self.dd.pred[e]]
        chain = [start]
        while succ[chain[-1]]:
            chain.append(succ[chain[-1]][0])
        return tuple(chain)

    def component_is_nontrivial_scc(self, ci: int) -> bool:
        # arcs never leave a weak component, and a lone edge is trivial; the
        # component is strong when its first edge reaches every edge both
        # forward and backward
        comp = self.components[ci]
        if len(comp) == 1:
            return False
        return all(
            len(_reachable(comp[0], links)) == len(comp)
            for links in (self.dd.succ, self.dd.pred)
        )


def component_index(d: Digraph) -> ComponentIndex:
    """Weak components and K(xi) groups of the dependency digraph of d.

    Both are grouped on indices into dd.edges, which come in edge_pair
    order, and _groups keeps item order, so every component, every group
    and both lists of them come out in that order without a sort.  K-sets
    are ORs of vertex masks.
    """
    dd = dependency_digraph(d)
    edges = dd.edges
    index = {e: i for i, e in enumerate(edges)}
    groups = _groups(len(edges), [(index[a], index[b]) for a, b in dd.arcs])
    components = tuple(tuple(edges[i] for i in g) for g in groups)
    masks = [set_to_mask(v for i in g for v in edges[i]) for g in groups]
    k_sets = tuple(map(mask_to_set, masks))
    # interval graph: components adjacent when K-sets intersect, joined in
    # linear time by linking each to the first component holding each vertex
    first: dict[int, int] = {}
    links = [(first.setdefault(v, i), i) for i, k in enumerate(k_sets) for v in k]
    xi_groups = tuple(map(tuple, _groups(len(components), links)))
    k_of_xi = tuple(
        mask_to_set(reduce(or_, [masks[ci] for ci in g])) for g in xi_groups
    )
    return ComponentIndex(dd, components, k_sets, xi_groups, k_of_xi)


def j_of(a: Analysis, v: int) -> VertexSet:
    """J(v): {v} for a whole vertex, else the K(xi) of a.ci containing v.

    A whole vertex reads no component index, so a tournament builds none.
    """
    if a.d.is_whole(v):
        return (v,)
    # a missing edge at v is a vertex of Delta, so some K(xi) holds v
    return next(k for k in a.ci.k_of_xi if v in k)


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
