"""Brute-force reference implementations used to validate the fast paths."""

from fractions import Fraction
from itertools import permutations, product
from typing import Sequence

from seymour.digraph import Digraph, Weighting, resolve_weights
from seymour.stars import Star, StarDecomposition


def brute_second_out(d: Digraph, v: int) -> tuple[int, ...]:
    """Vertices at directed distance exactly two from v, by BFS."""
    first = set(d.neighbors(v, "out"))
    second = set()
    for u in first:
        second.update(d.neighbors(u, "out"))
    return tuple(sorted(second - first - {v}))


def _out_sets(d: Digraph) -> list[set[int]]:
    out = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        out[u].add(v)
    return out


def brute_missing_pairs(d: Digraph) -> tuple[tuple[int, int], ...]:
    """Pairs (u, v), u < v, with neither arc, in (u, v) order."""
    arcs = set(d.arcs)
    return tuple(
        (u, v)
        for u in range(d.n)
        for v in range(u + 1, d.n)
        if (u, v) not in arcs and (v, u) not in arcs
    )


def brute_losing(d: Digraph):
    """The losing test of d from its definition, on Python sets.

    Returns loses(x1, y1, x2, y2): x1 -> x2 with y2 outside N+(x1) and
    N++(x1), and y1 -> y2 with x2 outside N+(y1) and N++(y1).
    """
    out = _out_sets(d)
    reach = [
        (out[v] | {z for a in out[v] for z in out[a]}) - {v} for v in range(d.n)
    ]

    def loses(x1, y1, x2, y2):
        return (
            x2 in out[x1] and y2 not in reach[x1]
            and y2 in out[y1] and x2 not in reach[y1]
        )

    return loses


def brute_dependency_arcs(d: Digraph) -> tuple[tuple[frozenset, frozenset], ...]:
    """Arcs (e1, e2) of the dependency digraph: e1 loses to e2 under some
    labeling of the endpoints of both, with the missing edges taken in
    (u, v) order and the arcs in that order of e1, then e2."""
    loses = brute_losing(d)
    pairs = brute_missing_pairs(d)
    return tuple(
        (frozenset(p), frozenset(q))
        for p in pairs
        for q in pairs
        if p != q
        and any(loses(*p1, *q1) for p1 in (p, p[::-1]) for q1 in (q, q[::-1]))
    )


def brute_forward_weight(d: Digraph, order, w: Weighting | None = None) -> Fraction:
    ws = resolve_weights(d, w)
    pos = {v: i for i, v in enumerate(order)}
    total = Fraction(0)
    for u, v in d.arcs:
        if pos[u] < pos[v]:
            total += ws[u] * ws[v]
    return total


def brute_median_value(d: Digraph, w: Weighting | None = None) -> Fraction:
    return max(
        brute_forward_weight(d, order, w) for order in permutations(range(d.n))
    )


def brute_has_snp(d: Digraph, v: int, w: Weighting | None = None) -> bool:
    ws = resolve_weights(d, w)
    first = d.neighbors(v, "out")
    second = brute_second_out(d, v)
    return sum(ws[u] for u in first) <= sum(ws[u] for u in second)


def brute_snp_set(d: Digraph, w: Weighting | None = None) -> tuple[int, ...]:
    return tuple(v for v in range(d.n) if brute_has_snp(d, v, w))


def brute_convenient(d: Digraph, a: int, b: int) -> bool:
    """Definition check: (a, b) convenient iff every in-neighbor of a
    reaches b within two steps."""
    for v in range(d.n):
        if v in (a, b):
            continue
        if d.has_arc(v, a):
            if b not in d.neighbors(v, "out") and b not in brute_second_out(d, v):
                return False
    return True


def brute_is_king(t: Digraph, v: int) -> bool:
    reach = {v} | set(t.neighbors(v, "out")) | set(brute_second_out(t, v))
    return len(reach) == t.n


def brute_kings_reading(d: Digraph, dec: StarDecomposition) -> tuple[Star, ...] | None:
    """The first star reading, over all 2 ** len(dec.matching) of them, whose
    centers induce an all-kings tournament: an induced subdigraph and
    brute_is_king per reading.  () without missing edges, None when no
    reading works.  The reference the gate's mask test must match."""
    if dec.component_count() == 0:
        return ()
    choices = [(Star(u, (v,)), Star(v, (u,))) for u, v in dec.matching]
    for combo in product(*choices):
        stars = dec.stars + combo
        sub, _ = d.induced([s.center for s in stars])
        if sub.is_tournament() and all(brute_is_king(sub, v) for v in range(sub.n)):
            return stars
    return None


def whole_table_median_dp(
    in_masks: Sequence[int], weights: Sequence[int], tie_mask: int
) -> tuple[list[int], int, int]:
    """Whole-table subset DP: every subset's best key, pulled from all of
    its predecessors.  The reference the bounded kernel
    `orders._median_dp` must match exactly in order, value and tie score.

    Returns the order, its forward weight A in integer weight units and its
    tie score T (0 without a tiebreak).
    """
    n = len(in_masks)
    size = 1 << n
    parent = [0] * size
    value = [0] * size
    uniform = len(set(weights)) == 1 and weights[0] > 0
    # tie score T <= n(n+1)/2 <= n*n fits below tshift
    tshift = (n * n).bit_length()

    if uniform and not tie_mask:
        # unit-like weights: value reduces to the forward arc count
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
        total = value[size - 1] * weights[0] * weights[0]
        tie = 0
    elif uniform:
        # key C << tshift | T
        for s in range(1, size):
            pos = s.bit_count()
            best = -1
            best_v = -1
            m = s
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                prev = s ^ low
                cand = value[prev] + ((prev & in_masks[v]).bit_count() << tshift)
                if tie_mask & low:
                    cand += pos
                if cand >= best:
                    best = cand
                    best_v = v
            value[s] = best
            parent[s] = best_v
        final = value[size - 1]
        total = (final >> tshift) * weights[0] * weights[0]
        tie = final & ((1 << tshift) - 1)
    else:
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
        for s in range(1, size):
            tie = s.bit_count() << t_at
            best = -1
            best_v = -1
            m = s
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                prev = s ^ low
                inter = prev & in_masks[v]
                cand = value[prev] + wsum[inter] * per_sw[v] + inter.bit_count() * per_cnt[v]
                if tie_mask & low:
                    cand += tie
                if cand >= best:
                    best = cand
                    best_v = v
            value[s] = best
            parent[s] = best_v
        final = value[size - 1]
        total = final >> a_at
        tie = (final >> t_at) & ((1 << tshift) - 1)

    order = []
    s = size - 1
    while s:
        v = parent[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return order, total, tie
