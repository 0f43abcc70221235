"""Brute-force reference implementations used to validate the fast paths."""

from fractions import Fraction
from itertools import combinations, islice, permutations, product
from typing import Sequence

from seymour.dependency import Analysis, j_of
from seymour.digraph import Digraph, Weighting, resolve_weights
from seymour.errors import ConsistencyError
from seymour.orders import SedimentationTrace, SedOutcome, default_sediment_budget
from seymour.stars import MAX_READINGS, Star, StarDecomposition


def brute_second_out(d: Digraph, v: int) -> tuple[int, ...]:
    """Vertices at directed distance exactly two from v, by BFS."""
    first = set(d.neighbors(v))
    second = set()
    for u in first:
        second.update(d.neighbors(u))
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


def brute_star_forest(pairs: Sequence[tuple[int, int]]) -> tuple[set, set] | None:
    """The disjoint-star reading of a missing graph from the definition.

    Tries every set C of centers: each missing edge joins a center to a
    non-center, and each non-center meets exactly one missing edge (a leaf
    of exactly one star).  Returns ({(center, leaves)} for stars of >= 2
    leaves, {(u, v)} for single edges), or None when no C works.
    """
    degree: dict[int, int] = {}
    for u, v in pairs:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    touched = sorted(degree)
    for size in range(len(touched) + 1):
        for centers in combinations(touched, size):
            if all((u in centers) != (v in centers) for u, v in pairs) and all(
                degree[x] == 1 for x in touched if x not in centers
            ):
                stars = {
                    (c, tuple(sorted(x for e in pairs if c in e for x in e if x != c)))
                    for c in centers
                    if degree[c] >= 2
                }
                matching = {
                    (u, v) for u, v in pairs if degree[u] == degree[v] == 1
                }
                return stars, matching
    return None


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
    first = d.neighbors(v)
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
            if b not in d.neighbors(v) and b not in brute_second_out(d, v):
                return False
    return True


def brute_is_king(t: Digraph, v: int) -> bool:
    reach = {v} | set(t.neighbors(v)) | set(brute_second_out(t, v))
    return len(reach) == t.n


def brute_kings_reading(d: Digraph, dec: StarDecomposition) -> tuple[Star, ...] | None:
    """The first star reading, over the first MAX_READINGS of the
    2 ** len(dec.matching) in product order, whose centers induce an
    all-kings tournament: an induced subdigraph and brute_is_king per
    reading.  () without missing edges, None when no reading works.  The
    reference the gate's depth-first walk must match."""
    if dec.component_count() == 0:
        return ()
    choices = [(Star(u, (v,)), Star(v, (u,))) for u, v in dec.matching]
    for combo in islice(product(*choices), MAX_READINGS):
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


def brute_first_violation(
    d: Digraph, order: Sequence[int], w: Weighting | None = None
) -> tuple[int, int, str] | None:
    """The first interval feedback violation of order, from the definition.

    Lists every head violation (i, j), w(N+(v_i)) < w(N-(v_i)) inside
    [i, j], and every tail violation, w(N-(v_j)) < w(N+(v_j)) inside
    [i, j], with Fraction weights over 0-based i < j, and returns the least
    by (i, -j, head first), or None.  The reference `satisfies_feedback`
    must match.
    """
    ws = resolve_weights(d, w)
    n = len(order)
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            inside = order[i : j + 1]
            for kind, v in (("head", order[i]), ("tail", order[j])):
                out_w = sum((ws[u] for u in inside if d.has_arc(v, u)), Fraction(0))
                in_w = sum((ws[u] for u in inside if d.has_arc(u, v)), Fraction(0))
                if (out_w < in_w) if kind == "head" else (in_w < out_w):
                    found.append((i, -j, kind == "tail", (i, j, kind)))
    return min(found)[-1] if found else None


def scalar_first_violation(
    d: Digraph, order: Sequence[int], weights: Sequence[int]
) -> tuple[int, int, str] | None:
    """The feedback scan one pair at a time on the digraph's masks: every
    tail row, then head rows up to the first tail's i.  The reference
    `orders._first_violation` must match on every order."""
    n = len(order)
    tail = None
    for j in range(n):
        out_m, in_m = d.out_mask(order[j]), d.in_mask(order[j])
        s = 0  # w(N+) - w(N-) inside [i, j]
        for i in range(j - 1, -1, -1):
            u = order[i]
            if out_m >> u & 1:
                s += weights[u]
            elif in_m >> u & 1:
                s -= weights[u]
            if s > 0 and (tail is None or i <= tail[0]):
                tail = (i, j)
    for i in range(n if tail is None else tail[0] + 1):
        out_m, in_m = d.out_mask(order[i]), d.in_mask(order[i])
        s = 0
        head = None
        for j in range(i + 1, n):
            u = order[j]
            if out_m >> u & 1:
                s += weights[u]
            elif in_m >> u & 1:
                s -= weights[u]
            if s < 0:
                head = j
        if head is not None and (tail is None or i < tail[0] or head >= tail[1]):
            return i, head, "head"
    return None if tail is None else (*tail, "tail")


def scalar_eps_triple(d: Digraph, order: Sequence[int], weights: Sequence[int]):
    """(A, E, C) over the forward arcs of order, one pair at a time."""
    w0 = 0
    w1 = 0
    w2 = 0
    for i, u in enumerate(order):
        out_m = d.out_mask(u)
        for v in order[i + 1 :]:
            if out_m >> v & 1:
                w0 += weights[u] * weights[v]
                w1 += weights[u] + weights[v]
                w2 += 1
    return (w0, w1, w2)


def scalar_local_median_order(
    d: Digraph, init: Sequence[int], w: Weighting | None = None
) -> tuple[int, ...]:
    """Local median repair on `scalar_first_violation` and
    `scalar_eps_triple`: the reference `orders.local_median_order` must
    match move for move, so in its result."""
    order = list(init)
    weights = [1] * d.n if w is None else resolve_weights(d, w).ints
    current = scalar_eps_triple(d, order, weights)
    while True:
        found = scalar_first_violation(d, order, weights)
        if found is None:
            return tuple(order)
        i, j, kind = found
        if kind == "head":
            order.insert(j, order.pop(i))
        else:
            order.insert(i, order.pop(j))
        new = scalar_eps_triple(d, order, weights)
        assert new > current, "repair move failed to increase forward weight"
        current = new


def brute_feed_split(d: Digraph, order: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """(N+(feed), good, bad) of an order from the definition, as sorted tuples.

    A vertex v_j before the feed and outside N+(feed) is good when some
    out-neighbor v_i of the feed with i < j has an arc to v_j.
    """
    outs = d.neighbors(order[-1])
    good, bad = [], []
    for j, v in enumerate(order[:-1]):
        if v in outs:
            continue
        if any(u in outs and d.has_arc(u, v) for u in order[:j]):
            good.append(v)
        else:
            bad.append(v)
    return outs, tuple(sorted(good)), tuple(sorted(bad))


def pairwise_xi_groups(k_sets: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Groups of K-set indices joined by intersecting K-sets, found by
    testing every pair: the reference for `dependency.component_index`."""
    groups: list[set[int]] = []
    for i, k in enumerate(k_sets):
        hit = [g for g in groups if any(set(k_sets[j]) & set(k) for j in g)]
        groups = [g for g in groups if g not in hit] + [{i}.union(*hit)]
    return tuple(sorted(tuple(sorted(g)) for g in groups))


def brute_component_index(d: Digraph):
    """The component index of d on Python sets, from brute_dependency_arcs:
    weak components by a search over the arcs taken both ways, each and
    all of them in (u, v) order of the missing edges; K-sets as endpoint
    sets; K(xi) groups by pairwise_xi_groups.  Returns (components,
    k_sets, xi_groups, k_of_xi, succ, pred), the fields of
    `dependency.ComponentIndex` and the successor and predecessor tuples
    of its Delta, which `dependency.component_index` must match."""
    edges = [frozenset(p) for p in brute_missing_pairs(d)]
    arcs = brute_dependency_arcs(d)
    nbrs = {e: set() for e in edges}
    for a, b in arcs:
        nbrs[a].add(b)
        nbrs[b].add(a)
    components: list[tuple] = []
    for e in edges:
        if any(e in comp for comp in components):
            continue
        comp, stack = {e}, [e]
        while stack:
            for f in nbrs[stack.pop()] - comp:
                comp.add(f)
                stack.append(f)
        components.append(tuple(f for f in edges if f in comp))
    k_sets = tuple(tuple(sorted(set().union(*comp))) for comp in components)
    xi_groups = pairwise_xi_groups(k_sets)
    k_of_xi = tuple(
        tuple(sorted(set().union(*(k_sets[i] for i in g)))) for g in xi_groups
    )
    succ = {e: tuple(b for a, b in arcs if a == e) for e in edges}
    pred = {e: tuple(a for a, b in arcs if b == e) for e in edges}
    return tuple(components), k_sets, xi_groups, k_of_xi, succ, pred


def reference_sediment(
    a: Analysis, order: Sequence[int], w: Weighting | None = None, budget: int | None = None
) -> SedimentationTrace:
    """Sedimentation by `brute_feed_split` and `j_of` on a.d, one step at a
    time: the reference for `orders.sediment_within` with P = V."""
    order = tuple(order)
    weights = resolve_weights(a.d, w).ints
    if budget is None:
        budget = default_sediment_budget(a.d.n)
    orders = [order]
    seen = {order: 0}
    for q in range(budget):
        out_of_feed, good, bad = brute_feed_split(a.d, orders[-1])
        jset = set(j_of(a, orders[-1][-1]))
        balance = sum(weights[v] for v in out_of_feed if v not in jset) - sum(
            weights[v] for v in good if v not in jset
        )
        if balance < 0:
            return SedimentationTrace(tuple(orders), SedOutcome("stable", rank=q))
        if balance > 0:
            raise ConsistencyError(
                "w(N+(feed) \\ J) exceeds w(good \\ J); the input is not a good median order"
            )
        bad = set(bad) - jset
        cur = orders[-1]
        nxt = tuple(
            [v for v in cur if v in bad]
            + [v for v in cur if v in jset]
            + [v for v in cur if v not in bad and v not in jset]
        )
        if nxt in seen:
            return SedimentationTrace(
                tuple(orders),
                SedOutcome("periodic", cycle_start=seen[nxt], cycle_length=q + 1 - seen[nxt]),
            )
        seen[nxt] = q + 1
        orders.append(nxt)
    return SedimentationTrace(tuple(orders), SedOutcome("budget-exceeded"))


def reference_second_witness(d: Digraph, order: Sequence[int], candidates) -> tuple[int, list[str]]:
    """Second SNP vertex by sedimenting the prefix as its own induced
    subdigraph, with its own Analysis: the reference for
    `theorems._second_witness`, which sediments on masks inside d."""
    trace: list[str] = []
    first = order[-1]
    prefix = order[:-1]
    sub, mapping = d.induced(prefix)
    inv = {v: i for i, v in enumerate(mapping)}
    a = Analysis(sub)
    run = reference_sediment(a, tuple(inv[v] for v in prefix))
    outcome = run.outcome
    if outcome.kind == "stable":
        chosen = run.final
        trace.append(f"prefix stable after {outcome.rank} step(s)")
    elif outcome.kind == "periodic":
        cycle = run.orders[outcome.cycle_start :]
        outs = d.neighbors(first)
        for q, cand in enumerate(cycle):
            bad = set(brute_feed_split(sub, cand)[2])
            hit = [u for u in outs if inv[u] in bad]
            if hit:
                chosen = cand
                trace.append(
                    f"prefix periodic (cycle length {outcome.cycle_length}); "
                    f"out-neighbor {hit[0]} of {first} is bad at cycle step {q}"
                )
                break
        else:
            raise ConsistencyError(
                "periodic sedimentation cycle has no order where an "
                f"out-neighbor of {first} is bad"
            )
    else:
        raise ConsistencyError(f"sedimentation exhausted its budget on {sub.n} vertices")
    feed_sub = chosen[-1]
    jset = tuple(mapping[i] for i in j_of(a, feed_sub))
    w = candidates(jset, mapping[feed_sub])[0]
    trace.append(f"second witness {w} from J {list(jset)}")
    return w, trace
