"""Median orders, the feedback property, and the sedimentation process.

Forward weight of a linear order is the sum over forward arcs (u before v,
u -> v) of w(u) * w(v); with unit weights this is the number of forward
arcs.  A weighted median order maximizes it.  One helper, `_eps_triple`,
sums it: every forward weight of this module is the A field of that
helper's triple, on in-masks and integer weights.  Under this arc weighting,
optimality of an order is equivalent (for positive weights) to the
interval feedback property:

    for all 1 <= i <= j <= n:
        w(N+_[i,j](v_i)) >= w(N-_[i,j](v_i))   and
        w(N-_[i,j](v_j)) >= w(N+_[i,j](v_j))

where neighborhood weights are vertex-set weights inside the interval.
One scan finds the first violation; `satisfies_feedback` reports it and
`local_median_order` repairs it.  Both build signed rows once per call,
rows[v][u] = w(u) if v -> u, -w(u) if u -> v and 0 otherwise, and their
transpose (2 * n * n entries, so both refuse more than MAX_LOCAL_N
vertices), and the scan tries the starts of intervals from the left,
stopping at the first start with a violation.  It reads each vertex's
prefix balance, its row summed over the vertices before it:
`satisfies_feedback` builds the balances, and `local_median_order` keeps
them across moves, changing only those of the moved vertex and of the
vertices it passes.  Each move must raise the epsilon-augmented weight,
which the repair checks from the arcs between the moved vertex and the
vertices it passes, in O(j - i); it weighs the whole order at its start
and its end only, and the two must differ by the moves' summed changes.

Every kernel reads the weights as integers over one common denominator,
which orders every sum exactly as the rational weights do.  A `Weighting`
computes them once, at construction (`ints` and `scale`, with
`values[v] == Fraction(ints[v], scale)`); `w=None` means unit weights and
builds no `Weighting`.  The exact DP, the feedback scan, local repair, the
sedimentation comparison of w(N+(f) \\ J) with w(good \\ J) and
`forward_weight` all run on those integers; only `forward_weight` and
`MedianResult.value` convert back to a `Fraction`.

Good median orders and sedimentation are facts about one instance, so
they take its `Analysis` and read J(feed), goodness and the K(xi) blocks
from its component index: `good_median_order(Analysis(d))`,
`sediment(Analysis(d), order)`, `sed(a, order)`.  In the library only
`Analysis` builds a component index, and J of a whole feed reads none.
One mask helper, `_feed_split`, splits an order at its feed into
N+(feed), the good vertices and the bad ones: `analyze` returns that
split as sorted tuples, and every sedimentation step reads it.  The
kernels read a `Digraph`'s out- and in-masks directly; its neighborhood
queries (`neighbors`, `degree`, ...) count out-arcs only.
Every sedimentation step runs in one loop, `sediment_within`, on d's
out-masks in d's labels over the vertex set P of the order: `sediment`
runs it with P = V, and the second-witness argument of the theorems with
P = V minus the first witness.  Each step keeps its order's bad mask and
weighs a vertex set by one popcount per integer weight class.  J of a
feed adjacent to every other vertex of P is the feed itself, so a
tournament's prefix builds no subdigraph, no Analysis and no component
index.

The exact solver additionally optimizes an epsilon-augmented weight
(w + eps, compared lexicographically) so its output satisfies the feedback
property even when some vertex weights are zero.  Arc (u, v) then weighs
w(u)w(v) + eps(w(u) + w(v)) + eps^2, so with integer-scaled weights an
order is scored by the tuple

    (A, T, E, C) = (sum of w(u)w(v), tie score, sum of w(u) + w(v), count)

over its forward arcs, compared lexicographically; T is the 1-based index
sum of an optional tiebreak set, maximized second.  The subset DP packs the
tuple into one integer, C in the lowest bits, then E, T and A, each field as
wide as its bound (with p = n(n-1)/2 pairs: C <= p, E <= 2 * max(w) * p,
T <= n*n), so integer comparison is tuple comparison.  A table of subset
weight sums gives the weight of a vertex's in-neighbors among the placed
vertices in one lookup.  With equal positive weights w the tuple is
(w*w*C, T, 2*w*C, C), which orders exactly like (C, T), so that key is C
shifted above T (and C alone without a tiebreak), and no weight table is
built.

The optimum splits over strong components: in a topological order of the
condensation every arc between components is forward, so the optimal
value is the weight of those arcs plus each component's own optimum.
`good_median_order` needs only that value for its check, and computes it
this way for any digraph.  The exact solve `_median_solve`, on in-masks,
integer weights and a tie mask, is the one solver behind both
`exact_median_order` and `good_median_order` (its quotient and each K(xi)
block).  It also splits the order, but only on tournaments with positive
weights of at least _LARGE_DP_N vertices, where every median order runs
the components in condensation order (Havet and Thomassé 2000, "Median
orders of tournaments"), so the split returns the whole DP's order and
ties.  With zero weights an order against the condensation can lose
nothing in A and win in T, and in a non-tournament two components without
an arc between them can interleave at no loss, so those inputs keep the
whole DP.  The split runs the DP kernel `_median_dp` once per component,
so no `Weighting` is built per component and a traced run still sees one
`exact_median_order` span per call.

The kernel has one whole-table loop: below _LARGE_DP_N = 8 vertices, a
call with equal positive weights and no tiebreak counts forward arcs, and
every subset pulls that count from all of its predecessors.  Every other
call, at any size, pushes level by level and skips every subset no median
order passes through.  With h[v] = w(v) * w(N-(v)), any order with
prefix S has forward weight at most A(S) + h(R) - pen(R), where A(S) is
the A field of S's best key, h(R) sums h[v] over R = V - S, and pen(R)
sums the penalties of the packed triangles inside R.  The packing
(`_triangle_packing`) is a fixed set of arc-disjoint directed triangles,
and a triangle's penalty is its least arc weight: every order puts at
least one arc of each triangle backward, and no two triangles share an
arc, so the arcs inside R lose at least pen(R) (the cycle bound of the
linear ordering problem; Marti and Reinelt 2011, "The Linear Ordering
Problem").  A subset whose bound is below the forward weight L of a
known order is dropped.  L is the weight of a local median order
(`_greedy_order`: a balance sort, then single-vertex reinsertion until
no move gains), or, in `good_median_order`'s check, of the checked order
restricted to the component.  That check runs no DP on a component that
is one of its K(xi) blocks: it adds the optimum the block's own solve
returned, so each block is solved once per call.
Every prefix of a key-optimal order has bound >= A_opt >= L, so the kept
subsets still hold every maximal-key transition, and orders and ties are
unchanged; see `_median_dp`.  The floor selects only the unit-weight pull
loop and the split: below it both cost more than they save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from operator import add, and_, mul, or_, sub
from typing import Callable, NamedTuple, Sequence

from .dependency import Analysis
from .digraph import (
    Digraph,
    VertexSet,
    Weighting,
    mask_to_set,
    resolve_weights,
    set_to_mask,
)
from .errors import ConsistencyError, ExactBoundExceededError, NotGoodDigraphError

LinearOrder = tuple[int, ...]

DEFAULT_EXACT_CAP = 15
# hard ceiling on any cap: the DP keeps several lists of 2**n entries
MAX_EXACT_CAP = 20
# Vertex cap of the local repair, whose signed rows and their columns hold
# 2 * n * n entries: `seymour median "random-tournament n=N seed=3"` took
# 1.1-1.7 s and 26 MB at N = 200, 9.9-12.0 s and 36 MB at 400 (five runs
# each) and 134 s and 79 MB at 800, and an arcless digraph (no move)
# peaked at 39 MB at n = 1,000, against 31 MB with the rows alone (Python
# 3.11, one process, 2 vCPUs on a shared host).  Instance specs share the
# cap, so no command builds a larger generated digraph.
MAX_LOCAL_N = 1000
# Below this many vertices a _median_dp call with equal positive weights and
# no tiebreak pulls the forward-arc count from the whole table, and the
# exact solve does not split tournaments into strong components; every
# other call pushes with the weight bound at any size.  On the arc count
# both the push and the split cost more than they save below it: with the
# split at every n, calls on the sinkless tournaments on 2-6 vertices took
# about 25% longer, and on random tournaments the split breaks even near
# n = 8.  With unit weights the bounded push took 3.0-4.6x the whole-table
# time on the sinkless tournaments on 4-5 vertices, 1.84-1.88x on the
# 26,624 on 6 vertices and 1.16-1.19x on 2,000 random 7-vertex tournaments,
# and 0.73-0.75x on 1,000 random 8-vertex tournaments (Python 3.11, best
# of 5, three runs).
_LARGE_DP_N = 8


def _check_order(d: Digraph, order: Sequence[int]) -> LinearOrder:
    order = tuple(order)
    if sorted(order) != list(range(d.n)):
        raise ValueError(f"order {order} is not a permutation of 0..{d.n - 1}")
    return order


def _int_weights(d: Digraph, w: Weighting | None) -> tuple[Sequence[int], int]:
    """Integer weights and their common denominator; unit weights when w is None."""
    if w is None:
        return [1] * d.n, 1
    w = resolve_weights(d, w)
    return w.ints, w.scale


def forward_weight(d: Digraph, order: Sequence[int], w: Weighting | None = None) -> Fraction:
    """Total weight of forward arcs; arc (u, v) weighs w(u) * w(v)."""
    order = _check_order(d, order)
    weights, scale = _int_weights(d, w)
    in_masks = [d.in_mask(v) for v in range(d.n)]
    a = _eps_triple(in_masks, weights, _weight_classes(weights), order)[0]
    return Fraction(a, scale * scale)


def _check_exact_cap(n: int, cap: int) -> None:
    limit = min(cap, MAX_EXACT_CAP)
    if n > limit:
        raise ExactBoundExceededError(f"exact solver capped at {limit} vertices, got {n}")


@dataclass(frozen=True)
class MedianResult:
    order: LinearOrder
    value: Fraction
    tie_score: int | None = None


def exact_median_order(
    d: Digraph,
    w: Weighting | None = None,
    tiebreak: Sequence[int] | None = None,
    cap: int = DEFAULT_EXACT_CAP,
) -> MedianResult:
    """Optimal order by subset DP; deterministic among ties.

    tiebreak, when given, is a set of vertices whose total (1-based) index
    is maximized among all maximum-weight orders: a single vertex realizes
    the max-index rule, several realize the max-index-sum rule.  The result's
    tie_score is that maximal sum, and None unless tiebreak is non-empty.

    For each vertex subset S the DP keeps one integer key: the best score of
    an order of S placed first, the tuple (A, T, E, C) of the module
    docstring packed into one int.  Among the transitions into S with the
    maximal key, the one placing the largest vertex last wins, so the result
    is deterministic.  With equal positive weights w the tuple is
    (w*w*C, T, 2*w*C, C) for the forward-arc count C and tie score T, which
    orders exactly like (C, T); the key then packs C and T only, or is C
    alone without a tiebreak.  The solve is `_median_solve`; see there for
    the split over strong components and `_median_dp` for the kernel.

    Raises ExactBoundExceededError when n exceeds min(cap, MAX_EXACT_CAP),
    before anything of size 2**n is allocated.
    """
    _check_exact_cap(d.n, cap)
    weights, scale = _int_weights(d, w)
    tie_mask = 0
    for v in tiebreak or ():
        d._check(v)
        tie_mask |= 1 << v
    order, value, tie = _median_solve([d.in_mask(v) for v in range(d.n)], weights, tie_mask)
    return MedianResult(tuple(order), Fraction(value, scale * scale), tie if tie_mask else None)


def _median_solve(
    in_masks: Sequence[int], weights: Sequence[int], tie_mask: int
) -> tuple[list[int], int, int]:
    """Median order of the vertices 0..n-1 of in_masks, n >= 0.

    Returns the order, its forward weight A in integer weight units and its
    tie score T (0 without a tiebreak), as `_median_dp` does.

    A tournament with positive weights on at least _LARGE_DP_N vertices is
    solved per strong component, and the component orders are concatenated
    in condensation order; A and T are read off the result.  This returns
    the whole-digraph DP's order, ties included: every key-optimal order
    runs the components in condensation order (an adjacent pair against it
    swaps to a gain of w(u)w(v) > 0 in A), and there the keys of the
    vertices of one component differ from that component's own keys by one
    constant.  Zero weights keep the whole DP, as a zero gain in A lets T
    rank an order against the condensation.
    """
    n = len(in_masks)
    if n == 0:
        return [], 0, 0
    comps = ()
    # the in-masks are digon-free, so n(n-1)/2 arcs make a tournament
    if n >= _LARGE_DP_N and min(weights) > 0 and (
        sum(m.bit_count() for m in in_masks) * 2 == n * (n - 1)
    ):
        comps = _strong_components(in_masks)
    if len(comps) <= 1:
        return _median_dp(in_masks, weights, tie_mask)
    order = []
    for comp in comps:
        local_tie = sum(1 << i for i, v in enumerate(comp) if tie_mask >> v & 1)
        local, _, _ = _median_dp(
            _local_in_masks(in_masks, comp), [weights[v] for v in comp], local_tie
        )
        order.extend(comp[i] for i in local)
    tie = sum(i for i, v in enumerate(order, 1) if tie_mask >> v & 1)
    return order, _eps_triple(in_masks, weights, _weight_classes(weights), order)[0], tie


def _median_dp(
    in_masks: Sequence[int],
    weights: Sequence[int],
    tie_mask: int,
    lower: int | None = None,
) -> tuple[list[int], int, int]:
    """The subset DP of the exact solve on n >= 1 vertices.

    Returns the order, its forward weight A in integer weight units and its
    tie score T (0 without a tiebreak).

    Below _LARGE_DP_N vertices a call with equal positive weights and no
    tiebreak keys each subset by its forward-arc count, pulled from all of
    its predecessors; that is the one whole-table loop.  Every other call,
    at any n, pushes level by level, from each kept subset of size k to its
    supersets of size k + 1, and keeps only the subsets a median order can
    still pass through.  With h[v] = w(v) * w(N-(v)), an order with prefix
    S has forward weight at most A(S) + sum of h[v] over v outside S -
    pen(R), where A(S) is the A field of S's best key and pen(R) is the
    penalty sum of the triangles of `_triangle_packing` inside R = V - S.
    The sum of h over R is the weight of every arc with its head in R, and
    an order puts at least one
    arc of each such triangle backward, of weight at least its penalty; the
    triangles share no arc, so the bound still holds.  The triangles still
    inside R are kept as a bitmask beside each kept S, and their penalties
    are folded into S's threshold when S is first reached.  At the end of
    each level every S whose bound is below L is dropped.  L is `lower`
    when given, which must be the forward weight of some order, and
    otherwise the forward weight (the A field of `_eps_triple`) of the
    local median order `_greedy_order`; the closer L is to the optimum,
    the fewer subsets are kept.

    Orders and ties are those of the whole table at every n, as nothing
    below depends on n.  Every prefix S of a key-optimal order has
    bound >= A_opt >= L, so it is kept.  A transition of maximal key into
    such an S comes from a prefix S - v of a key-optimal order too (the
    best order of S - v, then v, then the rest), so S's key is exact, and
    pushing with `cand > value[t]`, or equal with a larger v, picks the
    largest such v as the whole table does.  Any other subset may be dropped, or keyed too low when its best
    predecessor was dropped; neither raises a key, and no maximal-key
    transition into a prefix of a key-optimal order starts there.  With
    all weights zero nothing is packed, every bound is 0 = L and nothing
    is dropped.
    """
    n = len(in_masks)
    size = 1 << n
    parent = [0] * size
    uniform = len(set(weights)) == 1 and weights[0] > 0
    # tie score T <= n(n+1)/2 <= n*n fits below tshift
    tshift = (n * n).bit_length()
    if uniform:
        # key C << a_at | T, or C alone without a tiebreak, and A = C * w * w
        unit = weights[0] * weights[0]
        t_at = 0
        a_at = tshift if tie_mask else 0
    else:
        unit = 1
        # key A << a_at | T << t_at | E << e_at | C; each field stays below
        # the next offset: C <= pairs, E <= 2 * max(w) * pairs, T < 2**tshift
        pairs = n * (n - 1) // 2
        e_at = pairs.bit_length()
        t_at = e_at + (2 * max(weights) * pairs).bit_length()
        a_at = t_at + tshift
        # a transition adds w(v) * sw to A, sw + cnt * w(v) to E and cnt to
        # C, where sw and cnt are the weight and size of prev & in_masks[v]
        per_sw = [(wv << a_at) + (1 << e_at) for wv in weights]
        per_cnt = [(wv << e_at) + 1 for wv in weights]
        wsum = [0] * size
        for s in range(1, size):
            low = s & -s
            wsum[s] = wsum[s ^ low] + weights[low.bit_length() - 1]

    if uniform and not tie_mask and n < _LARGE_DP_N:
        # the key is the forward arc count C
        value = [0] * size
        for s in range(1, size):
            best = -1
            best_v = -1
            m = s
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                cand = value[s ^ low] + (((s ^ low) & in_masks[v]).bit_count())
                if cand >= best:
                    best = cand
                    best_v = v
            value[s] = best
            parent[s] = best_v
    else:
        if lower is None:
            greedy = _greedy_order(in_masks, weights)
            lower = _eps_triple(in_masks, weights, _weight_classes(weights), greedy)[0]
        if uniform:
            # A counts arcs in units of w * w, and every order's weight is a multiple
            lower //= unit
            h = [m.bit_count() << a_at for m in in_masks]
        else:
            h = [wv * wsum[m] << a_at for wv, m in zip(weights, in_masks)]
        # triangle i is alive in S while it has no vertex in S; tri_of[v] is
        # the mask of the triangles through v
        packing = _triangle_packing(in_masks, weights)
        pen = [p // unit << a_at for _, p in packing]
        tri_of = [0] * n
        for i, (tri, _) in enumerate(packing):
            for v in tri:
                tri_of[v] |= 1 << i
        # the kept S are those with value[S] >= need[S] =
        # (L - sum h + h(S) + pen(alive in S)) << a_at, that is
        # A(S) + h(outside S) - pen(alive in S) >= L; -1 marks a subset not
        # reached yet.  Each level entry carries its alive mask.
        value = [-1] * size
        need = [0] * size
        value[0] = 0
        need[0] = (lower << a_at) - sum(h) + sum(pen)
        full = size - 1
        level = [(0, (1 << len(packing)) - 1)]
        for pos in range(1, n + 1):
            tie = pos << t_at
            reached = []
            for s, alive in level:
                base = value[s]
                base_need = need[s]
                m = full ^ s
                while m:
                    low = m & -m
                    m ^= low
                    v = low.bit_length() - 1
                    if uniform:
                        cand = base + ((s & in_masks[v]).bit_count() << a_at)
                    else:
                        inter = s & in_masks[v]
                        cand = base + wsum[inter] * per_sw[v] + inter.bit_count() * per_cnt[v]
                    if tie_mask & low:
                        cand += tie
                    t = s | low
                    old = value[t]
                    if cand > old:
                        if old < 0:
                            t_need = base_need + h[v]
                            killed = alive & tri_of[v]
                            while killed:
                                bit = killed & -killed
                                killed ^= bit
                                t_need -= pen[bit.bit_length() - 1]
                            need[t] = t_need
                            reached.append((t, alive & ~tri_of[v]))
                        value[t] = cand
                        parent[t] = v
                    elif cand == old and v > parent[t]:
                        parent[t] = v
            level = [(t, alive) for t, alive in reached if value[t] >= need[t]]
        if not level:
            raise ConsistencyError(f"lower bound {lower} exceeds the optimum")

    final = value[size - 1]
    total = (final >> a_at) * unit
    tie = (final >> t_at) & ((1 << tshift) - 1) if tie_mask else 0

    order = []
    s = size - 1
    while s:
        v = parent[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return order, total, tie


def _triangle_packing(
    in_masks: Sequence[int], weights: Sequence[int]
) -> list[tuple[tuple[int, int, int], int]]:
    """Arc-disjoint directed triangles of in_masks, each with its penalty.

    First fit in vertex order: for each a and each unused arc a -> b, the
    least c with unused arcs b -> c and c -> a closes a triangle, and its
    three arcs are used.  Vertices of weight zero are left out, so every
    penalty, the triangle's least arc weight w(u) * w(v), is positive.
    Every order has a backward arc on each triangle, and no arc is shared,
    so no order's forward weight exceeds the total arc weight minus the
    penalties.  The in-masks are read once, into local copies.
    """
    n = len(in_masks)
    positive = sum(1 << v for v in range(n) if weights[v] > 0)
    inn = [m & positive if positive >> v & 1 else 0 for v, m in enumerate(in_masks)]
    out = [0] * n
    for v, m in enumerate(inn):
        for u in mask_to_set(m):
            out[u] |= 1 << v
    packing = []
    for a in range(n):
        m = out[a]
        while m:
            low = m & -m
            m ^= low
            b = low.bit_length() - 1
            closing = out[b] & inn[a]
            if not closing:
                continue
            c = (closing & -closing).bit_length() - 1
            for u, v in ((a, b), (b, c), (c, a)):
                out[u] ^= 1 << v
                inn[v] ^= 1 << u
            wa, wb, wc = weights[a], weights[b], weights[c]
            packing.append(((a, b, c), min(wa * wb, wb * wc, wc * wa)))
    return packing


def _greedy_order(in_masks: Sequence[int], weights: Sequence[int]) -> list[int]:
    """A local median order of the vertices 0..n-1 of in_masks, for the DP's lower bound.

    Vertices are sorted by weighted balance w(v) * (w(N-(v)) - w(N+(v))),
    then each vertex in turn moves to the position that gains it the most
    (the farthest one on a tie), until no vertex gains.  Moving v past the
    interval I gains g = w(N-_I(v)) - w(N+_I(v)) toward the end, or its
    negative toward the start; a move needs g > 0 and adds w(v) * g to the
    forward weight A, so no move lowers it.  With w(v) = 0 it adds g to the
    epsilon term E of the module docstring instead, so (A, E) rises with
    every move and the loop ends.  At the end no vertex gains, which is the
    interval feedback property, zero weights included: the result is a
    local median order, and its weight is the DP's L.
    """
    n = len(in_masks)
    balance = [0] * n
    for v, m in enumerate(in_masks):
        for u in mask_to_set(m):
            balance[v] += weights[u]
            balance[u] -= weights[v]
    order = sorted(range(n), key=lambda v: weights[v] * balance[v])
    moved = True
    while moved:
        moved = False
        for v in range(n):
            i = order.index(v)
            in_m = in_masks[v]
            best = 0
            target = i
            # sign 1 moves v toward the end, where in-neighbors gain; -1 toward the start
            for span, sign in ((range(i + 1, n), 1), (range(i - 1, -1, -1), -1)):
                g = 0
                for j in span:
                    u = order[j]
                    if in_m >> u & 1:
                        g += sign * weights[u]
                    elif in_masks[u] >> v & 1:
                        g -= sign * weights[u]
                    if g > 0 and g >= best:
                        best = g
                        target = j
            if target != i:
                order.insert(target, order.pop(i))
                moved = True
    return order


def _strong_components(in_masks: Sequence[int]) -> list[VertexSet]:
    """Strong components of the digraph of in_masks, in a topological order
    of its condensation.

    Warshall's closure on bitmasks gives every vertex's reach, and the
    component of v is the part of its reach that reaches v.  A component
    that reaches another reaches strictly more vertices, so decreasing reach
    (then least vertex) is a topological order.
    """
    n = len(in_masks)
    reach = [1 << v for v in range(n)]
    for v, m in enumerate(in_masks):
        for u in mask_to_set(m):
            reach[u] |= 1 << v
    for k in range(n):
        bit, via = 1 << k, reach[k]
        for v in range(n):
            if reach[v] & bit:
                reach[v] |= via
    comps = []
    seen = 0
    for v in range(n):
        if not seen >> v & 1:
            comp = tuple(u for u in mask_to_set(reach[v]) if reach[u] >> v & 1)
            seen |= set_to_mask(comp)
            comps.append((-reach[v].bit_count(), comp))
    comps.sort()
    return [comp for _, comp in comps]


def _local_in_masks(in_masks: Sequence[int], comp: Sequence[int]) -> list[int]:
    """In-masks of the subdigraph induced on comp, over local indices 0..len-1."""
    return [
        sum(1 << i for i, u in enumerate(comp) if in_masks[v] >> u & 1) for v in comp
    ]


def _median_value(
    in_masks: Sequence[int],
    weights: Sequence[int],
    order: Sequence[int],
    solved: dict[VertexSet, int] | None = None,
) -> int:
    """Optimal forward weight of the digraph of in_masks, in integer weight units.

    In a topological order of the condensation every arc between strong
    components is forward, so the optimum is the weight of those arcs plus
    each component's own optimum.  This holds for any digraph and any
    nonnegative weights: only the order, not its value, depends on ties.
    A component whose sorted vertex tuple is a key of solved adds the
    optimum stored there, which must be the value the DP returned for the
    subdigraph induced on it.  Any other component runs the DP, seeded
    with a lower bound from order, any order of the digraph: the forward
    weight of its restriction to that component.
    """
    total = 0
    for comp in _strong_components(in_masks):
        members = set_to_mask(comp)
        for v in comp:
            outside = in_masks[v] & ~members
            total += weights[v] * sum(weights[u] for u in mask_to_set(outside))
        if solved and comp in solved:
            total += solved[comp]
        elif len(comp) > 1:
            local_masks = _local_in_masks(in_masks, comp)
            local_w = [weights[v] for v in comp]
            index = {v: i for i, v in enumerate(comp)}
            restricted = [index[v] for v in order if v in index]
            lower = _eps_triple(local_masks, local_w, _weight_classes(local_w), restricted)[0]
            total += _median_dp(local_masks, local_w, 0, lower)[1]
    return total


@dataclass(frozen=True)
class FeedbackReport:
    ok: bool
    violation: tuple[int, int] | None  # 1-based (i, j), first by (i asc, j desc)


def _signed_rows(d: Digraph, weights: Sequence[int]) -> list[list[int]]:
    """rows[v][u] = w(u) if v -> u, -w(u) if u -> v, and 0 otherwise.

    Summed over the vertices of an interval, row v gives
    w(N+(v)) - w(N-(v)) inside it.  The rows hold n * n integers, so more
    than MAX_LOCAL_N vertices raise ExactBoundExceededError first.
    """
    if d.n > MAX_LOCAL_N:
        raise ExactBoundExceededError(
            f"local median repair capped at {MAX_LOCAL_N} vertices, got {d.n}"
        )
    rows = []
    for v in range(d.n):
        out_m, in_m = d.out_mask(v), d.in_mask(v)
        rows.append([
            wu if out_m >> u & 1 else -wu if in_m >> u & 1 else 0
            for u, wu in enumerate(weights)
        ])
    return rows


def _prefix_balance(rows: Sequence[Sequence[int]], order: Sequence[int]) -> list[int]:
    """before[v] = row v of `_signed_rows` summed over the vertices placed
    before v in order, w(N+(v)) - w(N-(v)) over that prefix."""
    before = [0] * len(rows)
    for p, v in enumerate(order):
        before[v] = sum(map(rows[v].__getitem__, order[:p]))
    return before


def _first_violation(
    rows: Sequence[Sequence[int]],
    cols: Sequence[Sequence[int]],
    before: Sequence[int],
    order: Sequence[int],
) -> tuple[int, int, str] | None:
    """First interval feedback violation, 0-based, by (i asc, j desc, head first).

    rows are the signed rows of `_signed_rows`, cols their transpose and
    before the prefix balances of `_prefix_balance`.  A head violation
    (i, j) has w(N+(v_i)) < w(N-(v_i)) inside [i, j], so moving v_i to
    position j gains; a tail violation has w(N-(v_j)) < w(N+(v_j)) inside
    [i, j], so moving v_j to position i gains.

    Starts a = 0, 1, ... are tried in turn, and the first start with a
    violation returns.  At start a, head row a is one running sum of row
    v_a over v_{a+1}, ..., v_{n-1}, and its largest j with a negative sum
    is its violation.  The tail sums T[j], row v_j over v_a, ..., v_{j-1}
    for every j > a, start as before[v_j] at a = 0, and each start after
    it subtracts column v_a of the start before; the largest j with a
    positive T[j] is the tail violation.  The larger j wins, head on a tie.
    """
    rest = list(order[1:])
    tails = list(map(before.__getitem__, rest))
    for a, v in enumerate(order[:-1]):
        # heads[k] and tails[k] are w(N+) - w(N-) inside [a, a + 1 + k] of
        # v_a and of v_{a+1+k}
        head = tail = -1
        heads = list(accumulate(map(rows[v].__getitem__, rest)))
        if min(heads) < 0:
            head = len(heads) - 1
            while heads[head] >= 0:
                head -= 1
        if max(tails) > 0:
            tail = len(tails) - 1
            while tails[tail] <= 0:
                tail -= 1
        if head >= 0 or tail >= 0:
            return (a, a + 1 + head, "head") if head >= tail else (a, a + 1 + tail, "tail")
        del rest[0]
        tails = list(map(sub, islice(tails, 1, None), map(cols[v].__getitem__, rest)))
    return None


def satisfies_feedback(
    d: Digraph, order: Sequence[int], w: Weighting | None = None
) -> FeedbackReport:
    """Check the interval feedback property of an order."""
    order = _check_order(d, order)
    rows = _signed_rows(d, _int_weights(d, w)[0])
    found = _first_violation(rows, list(zip(*rows)), _prefix_balance(rows, order), order)
    if found is None:
        return FeedbackReport(True, None)
    i, j, _ = found
    return FeedbackReport(False, (i + 1, j + 1))


def _weight_classes(weights: Sequence[int]) -> list[tuple[int, int]]:
    """(weight, mask of the vertices of that weight), per distinct positive weight."""
    masks: dict[int, int] = {}
    for v, wv in enumerate(weights):
        if wv:
            masks[wv] = masks.get(wv, 0) | 1 << v
    return list(masks.items())


def _eps_triple(
    in_masks: Sequence[int],
    weights: Sequence[int],
    classes: Sequence[tuple[int, int]],
    order: Sequence[int],
) -> tuple[int, int, int]:
    """(A, E, C) of the module docstring over the forward arcs of an order
    of the vertices 0..n-1 of in_masks.

    A is the order's forward weight in integer weight units, and this is
    the one place that sums it: `forward_weight`, the exact solve's value,
    the DP's lower bound and `good_median_order`'s check all read A here.

    A running placed mask, read against each vertex's in-mask, gives its
    placed in-neighbors: C counts them, and their weight sums take one
    popcount per weight class of `_weight_classes`.
    """
    placed = accumulate(map((1).__lshift__, order), or_, initial=0)
    inter = list(map(and_, placed, map(in_masks.__getitem__, order)))
    w_order = list(map(weights.__getitem__, order))
    cnt = list(map(int.bit_count, inter))
    # A sums w(v) * sw(v) and E sums sw(v) + cnt(v) * w(v), where sw(v) is
    # the weight of v's placed in-neighbors, wt times their count in class wt
    a = e = 0
    for wt, m in classes:
        hits = list(map(int.bit_count, map(m.__and__, inter)))
        a += wt * sum(map(mul, w_order, hits))
        e += wt * sum(hits)
    return a, e + sum(map(mul, w_order, cnt)), sum(cnt)


def _move_delta(
    d: Digraph,
    weights: Sequence[int],
    classes: Sequence[tuple[int, int]],
    v: int,
    passed: int,
    head: bool,
) -> tuple[int, int, int]:
    """Change of (A, E, C) when v moves past the vertices of mask passed,
    from before them to after them (a head move) or back (a tail move).

    Only the arcs between v and passed change direction.  A head move
    turns the arcs from G_in = N-(v) & passed forward and those to
    G_out = N+(v) & passed backward; a tail move swaps the two.  With
    dw = w(G_in) - w(G_out), one popcount per weight class of
    `_weight_classes`, and dc = |G_in| - |G_out|, the change is
    (w(v) * dw, dw + w(v) * dc, dc).
    """
    gain, loss = d.in_mask(v) & passed, d.out_mask(v) & passed
    if not head:
        gain, loss = loss, gain
    dc = gain.bit_count() - loss.bit_count()
    dw = sum(wt * ((m & gain).bit_count() - (m & loss).bit_count()) for wt, m in classes)
    wv = weights[v]
    return wv * dw, dw + wv * dc, dc


def local_median_order(
    d: Digraph, init: Sequence[int], w: Weighting | None = None
) -> LinearOrder:
    """Repair feedback violations by reinsertion moves until none remain.

    Each move takes the first violation of `_first_violation` and strictly
    increases the epsilon-augmented forward weight (A, E, C) (and never
    decreases the plain forward weight A), so the loop terminates and the
    result satisfies the feedback property.  The signed rows of
    `_signed_rows` and their columns, n * n integers each, are built once
    per call, and so are the prefix balances of `_prefix_balance`.  A move
    rotates positions i..j only, so it changes the balances of those
    vertices only: each vertex it passes loses or gains the moved vertex's
    column entry, and the moved vertex's balance changes by its row summed
    over the vertices it passed, O(j - i) in all.  Each move's change of
    the triple, `_move_delta` on d's in- and out-masks, must be
    lexicographically positive, or the move raises ConsistencyError.  The
    whole order's triple is weighed by `_eps_triple` at the start and at
    the end, and the end must equal the start plus the summed changes, or
    the call raises ConsistencyError.
    """
    order = list(_check_order(d, init))
    weights = _int_weights(d, w)[0]
    rows = _signed_rows(d, weights)
    cols = list(zip(*rows))
    before = _prefix_balance(rows, order)
    in_masks = [d.in_mask(v) for v in range(d.n)]
    classes = _weight_classes(weights)
    current = _eps_triple(in_masks, weights, classes, order)
    while True:
        found = _first_violation(rows, cols, before, order)
        if found is None:
            if _eps_triple(in_masks, weights, classes, order) != current:
                raise ConsistencyError(
                    "repair moves' weight changes disagree with the final order's weight"
                )
            return tuple(order)
        i, j, kind = found
        head = kind == "head"
        if head:
            v, passed, sign = order[i], order[i + 1 : j + 1], 1
            order.insert(j, order.pop(i))
        else:
            v, passed, sign = order[j], order[i:j], -1
            order.insert(i, order.pop(j))
        # v leaves (head) or joins (tail) the prefix of each vertex it passed
        col = cols[v]
        for u in passed:
            before[u] -= sign * col[u]
        before[v] += sign * sum(map(rows[v].__getitem__, passed))
        delta = _move_delta(d, weights, classes, v, set_to_mask(passed), head)
        if not delta > (0, 0, 0):
            raise ConsistencyError("repair move failed to increase forward weight")
        current = tuple(map(add, current, delta))


@dataclass(frozen=True)
class OrderAnalysis:
    """Feed-centric view of an order: good/bad split of the non-out vertices.

    A vertex v_j outside N+(feed) is good when some out-neighbor v_i of the
    feed with i <= j has an arc to v_j; good vertices land in N++(feed).
    """

    order: LinearOrder
    feed: int
    out_of_feed: VertexSet
    good: VertexSet
    bad: VertexSet


def _feed_split(d: Digraph, order: Sequence[int], p: int) -> tuple[int, int, int]:
    """(N+(feed) & P, good, bad) of an order of the vertex mask P, as masks,
    with good and bad as in `OrderAnalysis`: the one feed split."""
    out = d.out_mask
    out_f = out(order[-1]) & p
    reach = good = bad = 0
    for u in order[:-1]:
        bit = 1 << u
        if out_f & bit:
            reach |= out(u)
        elif reach & bit:
            good |= bit
        else:
            bad |= bit
    return out_f, good, bad


def analyze(d: Digraph, order: Sequence[int]) -> OrderAnalysis:
    order = _check_order(d, order)
    if not order:
        raise ValueError("cannot analyze an empty order")
    split = _feed_split(d, order, (1 << d.n) - 1)
    return OrderAnalysis(order, order[-1], *map(mask_to_set, split))


def sed(a: Analysis, order: Sequence[int], w: Weighting | None = None) -> LinearOrder:
    """One sedimentation step of a good median order of a.d.

    With feed f and J = J(f): if w(N+(f) \\ J) < w(G_L \\ J) the order is
    returned unchanged (stable step); on equality the bad vertices outside J
    move to the front, J follows, and the rest keep their relative order.
    The step is the last order of sediment under a budget of one step, so
    one loop runs every sedimentation step.
    """
    return sediment(a, order, w, budget=1).final


@dataclass(frozen=True)
class SedOutcome:
    kind: str  # "stable" | "periodic" | "budget-exceeded"
    rank: int | None = None  # stable: first q with a strict inequality
    cycle_start: int | None = None
    cycle_length: int | None = None


@dataclass(frozen=True)
class SedimentationTrace:
    orders: tuple[LinearOrder, ...]
    outcome: SedOutcome

    @property
    def final(self) -> LinearOrder:
        return self.orders[-1]


def default_sediment_budget(n: int) -> int:
    return min(10 * math.factorial(max(n, 1)), 10**6)


def sediment(
    a: Analysis,
    order: Sequence[int],
    w: Weighting | None = None,
    budget: int | None = None,
) -> SedimentationTrace:
    """Iterate sed on a.d until a strict inequality (stable) or a repeat (periodic)."""
    order = _check_order(a.d, order)
    classes = _weight_classes(_int_weights(a.d, w)[0])
    if budget is None:
        budget = default_sediment_budget(a.d.n)
    run = sediment_within(a.d, order, classes, budget, lambda: a.ci.k_of_xi)
    return SedimentationTrace(tuple(run.orders), run.outcome)


class SedimentationRun(NamedTuple):
    """The orders and outcome of `sediment_within`, with each step's masks.

    bad[i] and j[i] are the bad vertices and J(feed) of orders[i], for
    every order a step was taken from: all of them unless the budget ran
    out, when the last order has none.
    """

    orders: list[LinearOrder]
    outcome: SedOutcome
    bad: list[int]
    j: list[int]


def sediment_within(
    d: Digraph,
    order: LinearOrder,
    classes: Sequence[tuple[int, int]],
    budget: int,
    k_of_xi: Callable[[], Sequence[VertexSet]],
) -> SedimentationRun:
    """Sedimentation of order, an order of a vertex set P of d, inside d[P].

    This is the one sedimentation loop: `sediment` runs it with P = V and
    the second-witness argument with P = V minus the first witness.  It
    reads d's out-masks in d's labels, restricted to P, and builds no
    subdigraph.  J(feed) is the feed alone when the feed is adjacent to
    every other vertex of P; otherwise it is the K(xi) holding the feed
    among k_of_xi(), the K(xi) sets of d[P] in d's labels, which is called
    at most once and only then.  classes are the integer weight classes of
    `_weight_classes`, and a vertex set weighs one popcount per class.
    The step compares w(N+(feed) \\ J) with w(good \\ J) inside P: a
    strict inequality ends the run (stable), equality moves the bad
    vertices outside J to the front, then J, then the rest, each in order,
    and a repeated order ends it (periodic).
    """
    if not order:
        raise ValueError("cannot analyze an empty order")
    p = set_to_mask(order)
    k_masks = None
    orders = [order]
    seen = {order: 0}
    bads: list[int] = []
    js: list[int] = []
    for q in range(budget):
        cur = orders[-1]
        f = cur[-1]
        out_f, good, bad = _feed_split(d, cur, p)
        if (out_f | d.in_mask(f)) & p == p ^ 1 << f:
            j = 1 << f
        else:
            if k_masks is None:
                k_masks = [set_to_mask(k) for k in k_of_xi()]
            # a missing edge at f inside P is a vertex of Delta, so some K(xi) holds f
            j = next(k for k in k_masks if k >> f & 1)
        bads.append(bad)
        js.append(j)
        gain = out_f & ~j
        loss = good & ~j
        balance = 0
        for wt, m in classes:
            balance += wt * ((gain & m).bit_count() - (loss & m).bit_count())
        if balance < 0:
            return SedimentationRun(orders, SedOutcome("stable", rank=q), bads, js)
        if balance > 0:
            raise ConsistencyError(
                "w(N+(feed) \\ J) exceeds w(good \\ J); the input is not a good median order"
            )
        front = bad & ~j
        rest = ~(front | j)
        nxt = tuple(
            [v for v in cur if front >> v & 1]
            + [v for v in cur if j >> v & 1]
            + [v for v in cur if rest >> v & 1]
        )
        # an order that equality leaves fixed is seen: a cycle of length 1
        if nxt in seen:
            start = seen[nxt]
            outcome = SedOutcome("periodic", cycle_start=start, cycle_length=q + 1 - start)
            return SedimentationRun(orders, outcome, bads, js)
        seen[nxt] = q + 1
        orders.append(nxt)
    return SedimentationRun(orders, SedOutcome("budget-exceeded"), bads, js)


def good_median_order(
    a: Analysis, w: Weighting | None = None, cap: int = DEFAULT_EXACT_CAP
) -> LinearOrder:
    """Median order of the good digraph a.d with every K(xi) contiguous.

    The quotient (one block per K(xi), singleton blocks for the remaining
    vertices) is ordered optimally and each block internally optimally, both
    by `_median_solve` on in-masks and integer weights; when a.d has at
    most min(cap, MAX_EXACT_CAP) vertices, the result's forward weight is
    checked against the unconstrained optimum, whose value is solved per
    strong component.  A component that is a block adds the optimum its
    block's solve returned, so a block order that misses it still fails the
    check.
    """
    d = a.d
    weights = _int_weights(d, w)[0]
    if not a.goodness.is_good:
        if a.dec is None:
            raise NotGoodDigraphError(f"missing graph is not disjoint stars: {a.dec_error}")
        bad = [k for k, ok in a.goodness.verdicts if not ok]
        raise NotGoodDigraphError(f"K(xi) sets are not intervals: {bad}")
    in_block = set()
    blocks: list[VertexSet] = []
    for k in a.ci.k_of_xi:
        blocks.append(k)
        in_block.update(k)
    for v in range(d.n):
        if v not in in_block:
            blocks.append((v,))
    blocks.sort(key=lambda b: b[0])

    # the quotient over blocks, read at each block's least vertex (cross
    # pairs are uniform for good digraphs); a block weighs its vertices' sum
    in_masks = [d.in_mask(v) for v in range(d.n)]
    q_masks = _local_in_masks(in_masks, [b[0] for b in blocks])
    if sum(m.bit_count() for m in q_masks) != len(blocks) * (len(blocks) - 1) // 2:
        raise ConsistencyError("quotient of a good digraph should be a tournament")
    _check_exact_cap(len(blocks), cap)
    q_weights = [sum(weights[v] for v in b) for b in blocks]
    block_order = _median_solve(q_masks, q_weights, 0)[0]

    result: list[int] = []
    # each block's optimum, by its sorted vertex tuple, so that the check
    # below solves no block that is a strong component a second time
    solved: dict[VertexSet, int] = {}
    for bi in block_order:
        members = blocks[bi]
        if len(members) == 1:
            result.append(members[0])
            continue
        _check_exact_cap(len(members), cap)
        local, solved[members], _ = _median_solve(
            _local_in_masks(in_masks, members), [weights[v] for v in members], 0
        )
        result.extend(members[i] for i in local)

    order = tuple(result)
    if d.n <= min(cap, MAX_EXACT_CAP):
        value = _eps_triple(in_masks, weights, _weight_classes(weights), order)[0]
        if value != _median_value(in_masks, weights, order, solved):
            raise ConsistencyError(
                "contiguous-block optimum differs from the unconstrained optimum"
            )
    return order
