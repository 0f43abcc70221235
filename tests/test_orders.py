import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from seymour.dependency import Analysis
from seymour.digraph import Digraph, Weighting, mask_to_set, set_to_mask
from seymour.errors import (
    ConsistencyError,
    ExactBoundExceededError,
    NotGoodDigraphError,
    VertexRangeError,
)
from seymour import orders
from seymour.forge import (
    all_digraphs,
    all_kings_tournament,
    all_tournaments,
    fixture,
    losing_cycle_gadget,
    random_digraph,
    random_star_deleted,
    random_tournament,
)
from seymour.orders import (
    MAX_EXACT_CAP,
    MedianResult,
    analyze,
    exact_median_order,
    forward_weight,
    good_median_order,
    local_median_order,
    satisfies_feedback,
    sed,
    sediment,
)

from oracles import (
    brute_feed_split,
    brute_first_violation,
    brute_forward_weight,
    brute_median_value,
    reference_sediment,
    scalar_local_median_order,
    whole_table_median_dp,
)


def test_forward_weight_examples():
    assert forward_weight(fixture("TT3"), (0, 1, 2)) == 3
    assert forward_weight(fixture("C3"), (0, 1, 2)) == 2
    assert forward_weight(fixture("TT3"), (0, 1, 2), Weighting((1, 1, 5))) == 11


def test_forward_weight_rejects_non_permutations():
    with pytest.raises(ValueError):
        forward_weight(fixture("C3"), (0, 1))


@st.composite
def ordered_instance(draw):
    n = draw(st.integers(0, 8))
    d = random_digraph(n, draw(st.integers(0, 10**4)), draw(st.sampled_from([0.4, 1.0])))
    kind = draw(st.sampled_from(["unit", "zero", "mixed"]))
    if kind == "unit":
        w = None
    elif kind == "zero":
        w = Weighting([0] * n)
    else:
        w = Weighting([Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 4))) for _ in range(n)])
    return d, draw(st.permutations(range(n))), w


@given(ordered_instance())
@settings(max_examples=150, deadline=None)
def test_forward_weight_matches_brute_force(dow):
    d, order, w = dow
    assert forward_weight(d, order, w) == brute_forward_weight(d, order, w)


def test_unit_weight_calls_build_no_weighting(monkeypatch):
    builds = []
    original = Weighting.__init__

    def counted(self, values):
        builds.append(self)
        original(self, values)

    def count(call):
        builds.clear()
        call()
        return len(builds)

    monkeypatch.setattr(Weighting, "__init__", counted)
    for name in ("C3", "C4X", "LC3", "ST1"):
        d = fixture(name)
        a = Analysis(d)
        start = tuple(range(d.n))
        assert count(lambda: exact_median_order(d)) == 0
        assert count(lambda: exact_median_order(d, tiebreak=[0])) == 0
        assert count(lambda: forward_weight(d, start)) == 0
        assert count(lambda: satisfies_feedback(d, start)) == 0
        assert count(lambda: local_median_order(d, start)) == 0
        if not a.goodness.is_good:
            continue
        # the quotient and the blocks are solved on integer weights
        assert count(lambda: good_median_order(a)) == 0
        order = good_median_order(a)
        assert count(lambda: sed(a, order)) == 0
        assert count(lambda: sediment(a, order)) == 0


def test_exact_median_examples():
    res = exact_median_order(fixture("TT3"))
    assert res.order == (0, 1, 2) and res.value == 3
    assert exact_median_order(fixture("C3")).value == 2
    assert exact_median_order(fixture("C4X")).value == 3


def test_tie_score_is_none_without_a_non_empty_tiebreak():
    for d in (Digraph(0), Digraph(1), fixture("C3")):
        assert exact_median_order(d).tie_score is None
        assert exact_median_order(d, tiebreak=[]).tie_score is None
        assert exact_median_order(d, Weighting([0] * d.n), tiebreak=[]).tie_score is None
    assert exact_median_order(Digraph(1), tiebreak=[0]).tie_score == 1
    with pytest.raises(VertexRangeError):
        exact_median_order(Digraph(0), tiebreak=[0])


def test_median_orders_of_the_empty_digraph():
    d = Digraph(0)
    assert exact_median_order(d) == MedianResult((), Fraction(0), None)
    assert good_median_order(Analysis(d)) == ()


def test_exact_median_respects_cap():
    with pytest.raises(ExactBoundExceededError):
        exact_median_order(random_tournament(6, 0), cap=5)


def test_exact_median_refuses_more_than_the_ceiling():
    # raised before any 2**n table is built, so no DP runs here
    n = MAX_EXACT_CAP + 1
    d = Digraph(n, [(v, v + 1) for v in range(n - 1)])
    for cap in (n, 25, 10**6):
        with pytest.raises(ExactBoundExceededError, match=f"capped at 20 vertices, got {n}"):
            exact_median_order(d, cap=cap)
        with pytest.raises(ExactBoundExceededError):
            exact_median_order(d, tiebreak=[0], cap=cap)


def test_good_median_order_applies_the_exact_cap_to_the_quotient_and_each_block():
    # five singleton blocks
    with pytest.raises(ExactBoundExceededError, match="capped at 4 vertices, got 5"):
        good_median_order(Analysis(random_tournament(5, 0)), cap=4)
    # one block of six vertices
    with pytest.raises(ExactBoundExceededError, match="capped at 4 vertices, got 6"):
        good_median_order(Analysis(losing_cycle_gadget(3)), cap=4)


def test_the_local_repair_refuses_more_than_its_vertex_cap(monkeypatch):
    # an arcless digraph needs no repair move, so the cap is the only limit
    n = orders.MAX_LOCAL_N + 1
    d = Digraph(n)
    for check in (local_median_order, satisfies_feedback):
        with pytest.raises(
            ExactBoundExceededError, match=f"capped at {orders.MAX_LOCAL_N} vertices, got {n}"
        ):
            check(d, range(n))
    monkeypatch.setattr(orders, "MAX_LOCAL_N", 5)
    assert local_median_order(Digraph(5), range(5)) == (0, 1, 2, 3, 4)
    with pytest.raises(ExactBoundExceededError, match="capped at 5 vertices, got 6"):
        local_median_order(Digraph(6), range(6))


def test_feedback_examples():
    assert satisfies_feedback(fixture("TT3"), (0, 1, 2)).ok
    rep = satisfies_feedback(fixture("TT3"), (2, 1, 0))
    assert not rep.ok and rep.violation == (1, 3)
    assert satisfies_feedback(fixture("C3"), (0, 1, 2)).ok


def test_local_median_examples():
    assert local_median_order(fixture("C3"), (0, 1, 2)) == (0, 1, 2)
    assert local_median_order(fixture("TT3"), (2, 1, 0)) == (0, 1, 2)
    for init in ((0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)):
        out = local_median_order(fixture("C4X"), init)
        assert satisfies_feedback(fixture("C4X"), out).ok
        assert forward_weight(fixture("C4X"), out) >= 3


def test_analyze_examples():
    ana = analyze(fixture("C3"), (0, 1, 2))
    assert ana.feed == 2 and ana.out_of_feed == (0,)
    assert ana.good == (1,) and ana.bad == ()

    ana = analyze(fixture("TT3"), (0, 1, 2))
    assert ana.feed == 2 and ana.out_of_feed == ()
    assert ana.good == () and ana.bad == (0, 1)

    with pytest.raises(ValueError, match="empty order"):
        analyze(Digraph(0), ())


@given(st.integers(0, 10_000), st.integers(1, 8), st.sampled_from([0.5, 0.8, 1.0]))
@settings(max_examples=150, deadline=None)
def test_analyze_matches_the_definition(seed, n, density):
    d = random_digraph(n, seed, density)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    ana = analyze(d, order)
    assert (ana.out_of_feed, ana.good, ana.bad) == brute_feed_split(d, order)


def test_sed_examples():
    c3 = Analysis(fixture("C3"))
    assert sed(c3, (0, 1, 2)) == (2, 0, 1)
    assert forward_weight(c3.d, sed(c3, (0, 1, 2))) == 2
    assert sed(Analysis(fixture("TT3")), (0, 1, 2)) == (0, 1, 2)


def test_sediment_examples():
    trace = sediment(Analysis(fixture("C3")), (0, 1, 2))
    assert trace.outcome.kind == "periodic" and trace.outcome.cycle_length == 3

    trace = sediment(Analysis(fixture("TT3")), (0, 1, 2))
    assert trace.outcome.kind == "periodic" and trace.outcome.cycle_length == 1


def test_sediment_matches_the_reference_on_every_good_digraph_of_four_vertices():
    # every start order, unit and mixed weights: equal traces, or both refuse
    kinds = Counter()
    for d in all_digraphs(4):
        a = Analysis(d)
        if not a.goodness.is_good:
            continue
        for w in (None, Weighting([1, 2, 1, 3])):
            for order in permutations(range(4)):
                try:
                    want = reference_sediment(a, order, w)
                except ConsistencyError as exc:
                    with pytest.raises(ConsistencyError, match=re.escape(str(exc))):
                        sediment(a, order, w)
                    kinds["refused"] += 1
                    continue
                assert sediment(a, order, w) == want
                kinds[want.outcome.kind] += 1
    assert kinds["stable"] and kinds["periodic"] and kinds["refused"]


def test_good_median_order_examples():
    order = good_median_order(Analysis(fixture("C4X")))
    assert forward_weight(fixture("C4X"), order) == 3
    t = random_tournament(6, 4)
    assert forward_weight(t, good_median_order(Analysis(t))) == exact_median_order(t).value


def test_good_median_order_above_the_ceiling_ignores_the_cap():
    # 16 vertices beating losing_cycle_gadget(3): 22 vertices in 17 blocks,
    # so the quotient fits every cap here and only the check sees n = 22
    gadget, t = losing_cycle_gadget(3), random_tournament(16, 5)
    arcs = list(gadget.arcs) + [(6 + u, 6 + v) for u, v in t.arcs]
    arcs += [(6 + u, v) for u in range(16) for v in range(6)]
    a = Analysis(Digraph(22, arcs))
    assert len(a.ci.k_of_xi) == 1 and a.goodness.is_good
    orders_by_cap = {good_median_order(a, cap=cap) for cap in (20, 21, 25)}
    assert len(orders_by_cap) == 1


def test_good_median_order_refuses_non_star_digraph():
    a = Analysis(Digraph(4, []))  # missing graph is K4
    with pytest.raises(NotGoodDigraphError) as excinfo:
        good_median_order(a)
    assert a.dec_error in str(excinfo.value)


def test_tiebreak_maximizes_index_without_losing_weight():
    for name in ("C4X", "LC3", "ST1"):
        d = fixture(name)
        base = exact_median_order(d).value
        for v in range(d.n):
            res = exact_median_order(d, tiebreak=[v])
            assert res.value == base
            # no optimal order places v strictly later
            from itertools import permutations
            best = max(
                order.index(v)
                for order in permutations(range(d.n))
                if forward_weight(d, order) == base
            )
            assert res.order.index(v) == best


@st.composite
def weighted_instance(draw):
    n = draw(st.integers(3, 6))
    seed = draw(st.integers(0, 300))
    d = random_digraph(n, seed, draw(st.sampled_from([0.5, 1.0])))
    nums = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    dens = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    w = Weighting([Fraction(a, b) for a, b in zip(nums, dens)])
    return d, w


@given(weighted_instance())
@settings(max_examples=120, deadline=None)
def test_exact_median_matches_brute_force(dw):
    d, w = dw
    res = exact_median_order(d, w)
    assert res.value == brute_median_value(d, w)
    assert forward_weight(d, res.order, w) == res.value
    assert brute_forward_weight(d, res.order, w) == res.value


@given(st.integers(0, 500), st.integers(2, 9))
@settings(max_examples=150, deadline=None)
def test_exact_median_satisfies_feedback(seed, n):
    d = random_digraph(n, seed, 0.6)
    res = exact_median_order(d)
    assert satisfies_feedback(d, res.order).ok


@given(st.integers(0, 300), st.integers(2, 9))
@settings(max_examples=100, deadline=None)
def test_local_median_satisfies_feedback(seed, n):
    d = random_digraph(n, seed, 0.5)
    out = local_median_order(d, tuple(range(n)))
    rep = satisfies_feedback(d, out)
    assert rep.ok
    assert forward_weight(d, out) >= forward_weight(d, tuple(range(n)))


MIXED_WEIGHTS = (0, 1, Fraction(3, 2), Fraction(2, 3), 2)


def _scan_instance(rng, n, kind, weighting):
    s = rng.randrange(1 << 30)
    if kind == "tournament":
        d = random_tournament(n, s)
    else:
        d = random_digraph(n, s, rng.choice((0.3, 0.6, 0.8, 1.0)))
    if weighting == "unit":
        w = None
    elif weighting == "zero":
        w = Weighting([0] * n)
    else:
        w = Weighting([rng.choice(MIXED_WEIGHTS) for _ in range(n)])
    init = list(range(n))
    rng.shuffle(init)
    return d, w, tuple(init)


def _recorded_scans(monkeypatch, d, init, w):
    """Run local_median_order(d, init, w) with `_first_violation` wrapped:
    its result, and the (before, order, found) of every scan."""
    scan = orders._first_violation
    calls = []

    def recording(rows, cols, before, order):
        found = scan(rows, cols, before, order)
        calls.append((list(before), tuple(order), found))
        return found

    with monkeypatch.context() as m:
        m.setattr(orders, "_first_violation", recording)
        return local_median_order(d, init, w), calls


@pytest.mark.parametrize("n", range(13))
def test_feedback_scan_matches_the_definition(n, monkeypatch):
    rng = random.Random(f"feedback-scan|{n}")
    for kind in ("tournament", "digraph"):
        for weighting in ("unit", "mixed", "zero"):
            for _ in range(6):
                d, w, init = _scan_instance(rng, n, kind, weighting)
                out, calls = _recorded_scans(monkeypatch, d, init, w)
                # every order of the repair, from the shuffled start to the
                # result, which has no violation
                assert calls[0][1] == init and calls[-1][1] == out
                assert calls[-1][2] is None
                for _, order, found in calls:
                    assert found == brute_first_violation(d, order, w)
                rows = orders._signed_rows(d, orders._int_weights(d, w)[0])
                cols = list(zip(*rows))
                for order in (init, out):
                    want = brute_first_violation(d, order, w)
                    before = orders._prefix_balance(rows, order)
                    assert orders._first_violation(rows, cols, before, order) == want
                    rep = satisfies_feedback(d, order, w)
                    assert rep.ok == (want is None)
                    assert rep.violation == (None if want is None else (want[0] + 1, want[1] + 1))


def _fresh_prefix_balance(d, weights, order):
    """w(N+(v)) - w(N-(v)) over the vertices before v, from the arcs."""
    before = [0] * d.n
    for p, v in enumerate(order):
        for u in order[:p]:
            before[v] += weights[u] if d.has_arc(v, u) else -weights[u] if d.has_arc(u, v) else 0
    return before


@pytest.mark.parametrize("n", (*range(13), 48))
def test_repair_keeps_every_prefix_balance(n, monkeypatch):
    """The balances local_median_order updates move by move equal, at every
    scan, the ones built from the arcs for that scan's order."""
    rng = random.Random(f"prefix-balance|{n}")
    for kind in ("tournament", "digraph"):
        for weighting in ("unit", "mixed", "zero"):
            for _ in range(1 if n == 48 else 4):
                d, w, init = _scan_instance(rng, n, kind, weighting)
                weights = orders._int_weights(d, w)[0]
                _, calls = _recorded_scans(monkeypatch, d, init, w)
                for before, order, _ in calls:
                    assert before == _fresh_prefix_balance(d, weights, order)


@pytest.mark.parametrize("n", (24, 36, 48))
@pytest.mark.parametrize("kind", ("tournament", "digraph"))
@pytest.mark.parametrize("weighted", (False, True))
def test_local_median_order_matches_the_scalar_repair(n, kind, weighted):
    """Above the golden files' sizes, the left-to-right scan and the in-mask
    triple repair every start to the order of the pair-at-a-time reference."""
    rng = random.Random(f"local-repair|{n}|{kind}|{weighted}")
    for _ in range(2):
        s = rng.randrange(1 << 30)
        d = random_tournament(n, s) if kind == "tournament" else random_digraph(n, s, 0.8)
        w = Weighting([rng.choice(MIXED_WEIGHTS) for _ in range(n)]) if weighted else None
        init = list(range(n))
        rng.shuffle(init)
        assert local_median_order(d, init, w) == scalar_local_median_order(d, init, w)


def test_a_repair_move_without_gain_raises(monkeypatch):
    # TT3 in order (0, 1, 2) has every arc forward; moving 0 to the end
    # loses two arcs, and the whole-order triple check must refuse it
    monkeypatch.setattr(
        orders, "_first_violation", lambda rows, cols, before, order: (0, 2, "head")
    )
    with pytest.raises(ConsistencyError, match="failed to increase"):
        local_median_order(fixture("TT3"), (0, 1, 2))
    # a move that leaves the order unchanged gains nothing either
    monkeypatch.setattr(
        orders, "_first_violation", lambda rows, cols, before, order: (1, 1, "tail")
    )
    with pytest.raises(ConsistencyError, match="failed to increase"):
        local_median_order(fixture("TT3"), (0, 1, 2))


@pytest.mark.parametrize("seed", range(20))
def test_eps_triple_matches_the_definition(seed):
    rng = random.Random(f"eps-triple|{seed}")
    n = rng.randrange(12)
    d = random_digraph(n, seed, rng.random())
    weights = [rng.choice((0, 0, 1, 2, 3, 6)) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    forward = [(u, v) for u, v in d.arcs if pos[u] < pos[v]]
    want = (
        sum(weights[u] * weights[v] for u, v in forward),
        sum(weights[u] + weights[v] for u, v in forward),
        len(forward),
    )
    in_masks = [d.in_mask(v) for v in range(n)]
    assert orders._eps_triple(in_masks, weights, orders._weight_classes(weights), order) == want


@given(st.integers(0, 300), st.integers(3, 8))
@settings(max_examples=100, deadline=None)
def test_sed_of_median_preserves_weight(seed, n):
    d = random_star_deleted(n, seed)
    from seymour.dependency import is_good_digraph
    if not is_good_digraph(d):
        return
    a = Analysis(d)
    order = good_median_order(a)
    value = forward_weight(d, order)
    out = sed(a, order)
    assert forward_weight(d, out) == value
    assert satisfies_feedback(d, out).ok


def test_sed_on_equality_moves_every_good_or_out_vertex_up():
    # The argument behind the star-interval check of star_matching_witness:
    # in a tournament with d+(feed) = |good|, sed gives a median order in
    # which every vertex that is neither bad nor the feed sits later by
    # (bad vertices after it) + 1, so an index-maximal vertex is the feed
    # or bad.
    kept = moved = past_bad = 0
    for seed in range(120):
        for n in range(4, 10):
            t = random_tournament(n, seed)
            a = Analysis(t)
            for tie in (None, *range(n)):
                res = exact_median_order(t, tiebreak=None if tie is None else [tie])
                ana = analyze(t, res.order)
                if t.degree(ana.feed) != len(ana.good):
                    continue
                kept += 1
                out = sed(a, res.order)
                assert forward_weight(t, out) == res.value
                for p, v in enumerate(res.order[:-1]):
                    if v not in ana.bad:
                        later = sum(u in ana.bad for u in res.order[p + 1:])
                        assert out.index(v) == p + later + 1
                        moved += 1
                        past_bad += later > 0
                if tie is not None:
                    assert tie == ana.feed or tie in ana.bad
    assert kept > 1000 and moved > 1500 and past_bad > 50


@given(st.integers(0, 200), st.integers(3, 8))
@settings(max_examples=80, deadline=None)
def test_lemma1_style_inequality_on_good_instances(seed, n):
    d = random_star_deleted(n, seed)
    from seymour.dependency import is_good_digraph, j_of
    from seymour.digraph import resolve_weights
    if not is_good_digraph(d):
        return
    a = Analysis(d)
    order = good_median_order(a)
    ana = analyze(d, order)
    ws = resolve_weights(d, None)
    jset = set(j_of(a, ana.feed))
    bound = ws.total(set(ana.good) - jset)
    for x in jset:
        assert ws.total(set(d.neighbors(x)) - jset) <= bound


@st.composite
def tiebroken_instance(draw):
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 10**4))
    if draw(st.booleans()):
        d = random_tournament(n, seed)
    else:
        d = random_digraph(n, seed, draw(st.sampled_from([0.4, 0.8])))
    kind = draw(st.sampled_from(["unit", "uniform", "zero", "mixed"]))
    if kind == "unit":
        w = None
    elif kind == "uniform":
        w = Weighting([Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3)))] * n)
    else:
        top = 0 if kind == "zero" else 4
        nums = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        w = Weighting([Fraction(a, draw(st.integers(1, 3))) for a in nums])
    tie = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 3), unique=True))
    return d, w, tie


@given(tiebroken_instance())
@settings(max_examples=60, deadline=None)
def test_exact_tiebreak_matches_brute_force(dwt):
    d, w, tie = dwt
    res = exact_median_order(d, w, tiebreak=tie)

    def tie_sum(order):
        return sum(order.index(v) + 1 for v in tie)

    scored = [(brute_forward_weight(d, o, w), o) for o in permutations(range(d.n))]
    best = max(value for value, _ in scored)
    assert res.value == best
    assert res.tie_score == max(tie_sum(o) for value, o in scored if value == best)
    assert brute_forward_weight(d, res.order, w) == best
    assert tie_sum(res.order) == res.tie_score


@st.composite
def block_digraph(draw):
    """Digraph of 2-4 random blocks; arcs between blocks run forward, or are absent."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n = sum(sizes)
    rng = random.Random(draw(st.integers(0, 10**6)))
    label = list(range(n))
    rng.shuffle(label)
    arcs = []
    start = 0
    for size in sizes:
        block = label[start : start + size]
        inner = random_digraph(size, rng.randrange(10**4), rng.choice((0.6, 1.0)))
        arcs += [(block[u], block[v]) for u, v in inner.arcs]
        arcs += [(u, v) for u in block for v in label[start + size :] if rng.random() < 0.7]
        start += size
    kind = draw(st.sampled_from(["unit", "mixed", "zero"]))
    if kind == "unit":
        w = None
    else:
        low = 0 if kind == "zero" else 1
        w = Weighting([Fraction(rng.randint(low, 5), rng.randint(1, 3)) for _ in range(n)])
    return Digraph(n, arcs), w


@given(block_digraph(), st.data())
@settings(max_examples=80, deadline=None)
def test_value_split_matches_the_whole_dp(dw, data):
    d, w = dw
    weights, scale = orders._int_weights(d, w)
    # any order seeds a valid lower bound
    seed_order = data.draw(st.permutations(range(d.n)))
    in_masks = [d.in_mask(v) for v in range(d.n)]
    value = Fraction(orders._median_value(in_masks, weights, seed_order), scale * scale)
    assert value == exact_median_order(d, w).value


def test_order_split_runs_the_dp_per_strong_component(monkeypatch):
    rng = random.Random(0)
    label = list(range(20))
    rng.shuffle(label)
    blocks = [label[5 * b : 5 * b + 5] for b in range(4)]
    block_arcs = all_kings_tournament(5).arcs  # strong: every vertex is a king
    arcs = [(block[u], block[v]) for block in blocks for u, v in block_arcs]
    arcs += [(u, v) for b, block in enumerate(blocks) for later in blocks[b + 1 :]
             for u in block for v in later]
    d = Digraph(20, arcs)
    sizes = []
    kernel = orders._median_dp

    def counted(in_masks, weights, tie_mask):
        sizes.append(len(in_masks))
        return kernel(in_masks, weights, tie_mask)

    monkeypatch.setattr(orders, "_median_dp", counted)
    for w, tie in ((None, None), (Weighting([Fraction(1 + v % 3, 2) for v in range(20)]), [label[7]])):
        sizes.clear()
        res = exact_median_order(d, w, tiebreak=tie, cap=20)
        assert sizes == [5, 5, 5, 5]
        assert [set(res.order[5 * b : 5 * b + 5]) for b in range(4)] == [set(b) for b in blocks]
        assert res.value == forward_weight(d, res.order, w)
        assert satisfies_feedback(d, res.order, w).ok


@st.composite
def dp_instance(draw):
    """Kernel inputs on 8-13 vertices: in-masks, integer weights, tie mask and
    an optional lower bound, the forward weight of a random order."""
    n = draw(st.integers(8, 13))
    seed = draw(st.integers(0, 10**6))
    if draw(st.booleans()):
        d = random_tournament(n, seed)
        while len(orders._strong_components([d.in_mask(v) for v in range(n)])) > 1:
            seed += 1
            d = random_tournament(n, seed)
    else:
        d = random_digraph(n, seed, draw(st.floats(0.4, 0.9)))
    rng = random.Random(seed)
    kind = draw(st.sampled_from(["unit", "uniform", "zero", "mixed"]))
    low, high = {"unit": (1, 1), "uniform": (3, 3), "zero": (0, 3), "mixed": (1, 6)}[kind]
    weights = [rng.randint(low, high) for _ in range(n)]
    tie_mask = set_to_mask(rng.sample(range(n), draw(st.sampled_from([0, 1, 3]))))
    in_masks = [d.in_mask(v) for v in range(n)]
    lower = None
    if draw(st.booleans()):
        lower = orders._masks_forward_weight(in_masks, weights, draw(st.permutations(range(n))))
    return in_masks, weights, tie_mask, lower


@given(dp_instance())
@settings(max_examples=60, deadline=None)
def test_bounded_dp_matches_the_whole_table(inst):
    in_masks, weights, tie_mask, lower = inst
    expected = whole_table_median_dp(in_masks, weights, tie_mask)
    assert orders._median_dp(in_masks, weights, tie_mask, lower) == expected
    greedy = orders._greedy_order(in_masks, weights)
    assert sorted(greedy) == list(range(len(in_masks)))
    assert orders._masks_forward_weight(in_masks, weights, greedy) <= expected[1]
    # no vertex gains by reinsertion, zero weights included
    d = Digraph(len(in_masks), [(u, v) for v, m in enumerate(in_masks) for u in mask_to_set(m)])
    assert satisfies_feedback(d, greedy, Weighting(weights)).ok


class _CountedMasks(list):
    """In-masks that count their reads: the DP reads in_masks[v] once per transition."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def _bounded_dp(in_masks, weights, tie_mask=0):
    """_median_dp's result with the greedy lower bound, and its transitions."""
    lower = orders._masks_forward_weight(in_masks, weights, orders._greedy_order(in_masks, weights))
    counted = _CountedMasks(in_masks)
    res = orders._median_dp(counted, weights, tie_mask, lower)
    return res, counted.reads


def test_bounded_dp_drops_nothing_with_zero_weights():
    n = 10
    in_masks = [random_tournament(n, 4).in_mask(v) for v in range(n)]
    tie_mask = 0b1000100010
    res, transitions = _bounded_dp(in_masks, [0] * n, tie_mask)
    assert res == whole_table_median_dp(in_masks, [0] * n, tie_mask)
    assert transitions == n * 2 ** (n - 1)


def test_bounded_dp_transitions_on_a_strong_tournament():
    n = 14
    d = random_tournament(n, 0)
    in_masks = [d.in_mask(v) for v in range(n)]
    assert len(orders._strong_components(in_masks)) == 1
    res, transitions = _bounded_dp(in_masks, [1] * n)
    assert res == whole_table_median_dp(in_masks, [1] * n, 0)
    # 16,920 with the bound A(S) + h(outside S) alone; a weaker bound keeps more
    assert transitions == 1843


@pytest.mark.parametrize("kind", ["unit", "uniform", "mixed", "zero"])
def test_triangle_packing_is_arc_disjoint_directed_triangles(kind):
    low, high = {"unit": (1, 1), "uniform": (3, 3), "mixed": (1, 6), "zero": (0, 3)}[kind]
    for seed in range(24):
        n = 5 + seed % 10
        d = random_tournament(n, seed) if seed % 2 else random_digraph(n, seed, 0.7)
        in_masks = [d.in_mask(v) for v in range(n)]
        rng = random.Random(seed)
        weights = [rng.randint(low, high) for _ in range(n)]
        used = set()
        for (a, b, c), penalty in orders._triangle_packing(in_masks, weights):
            arcs = {(a, b), (b, c), (c, a)}
            assert all(in_masks[v] >> u & 1 for u, v in arcs)
            assert not arcs & used
            used |= arcs
            assert penalty == min(weights[u] * weights[v] for u, v in arcs) > 0
        # maximal: no directed triangle of positive-weight vertices is left unused
        free = {
            (u, v) for v in range(n) for u in mask_to_set(in_masks[v])
            if weights[u] and weights[v]
        } - used
        assert not any((b, c) in free and (c, a) in free for a, b in free for c in range(n))


@pytest.mark.parametrize("n", [7, 8, 11])
@pytest.mark.parametrize("weighted", [False, True])
def test_bounded_dp_keeps_only_the_path_of_a_transitive_tournament(n, weighted):
    rng = random.Random(n)
    label = list(range(n))
    rng.shuffle(label)
    d = Digraph(n, [(label[i], label[j]) for i in range(n) for j in range(i + 1, n)])
    in_masks = [d.in_mask(v) for v in range(n)]
    weights = [rng.randint(1, 5) for _ in range(n)] if weighted else [1] * n
    greedy = orders._greedy_order(in_masks, weights)
    (order, value, _), transitions = _bounded_dp(in_masks, weights)
    # the greedy order is optimal here, so below the floor the unit-weight
    # call runs the whole table, and every other call keeps only the
    # prefixes of the one median order
    assert greedy == order == label
    assert orders._masks_forward_weight(in_masks, weights, greedy) == value
    if n < orders._LARGE_DP_N and not weighted:
        assert transitions == n * 2 ** (n - 1)
    else:
        assert transitions == n * (n + 1) // 2


@pytest.mark.parametrize("n", range(1, 9))
def test_bounded_dp_matches_the_whole_table_around_the_floor(n):
    # below the floor only unit weights without a tiebreak pull from the
    # whole table; tiebroken, weighted and zero-weight calls push
    for seed in range(6):
        rng = random.Random(seed)
        d = random_tournament(n, seed) if seed % 2 else random_digraph(n, seed, 0.7)
        in_masks = [d.in_mask(v) for v in range(n)]
        for weights in (
            [1] * n,
            [3] * n,
            [rng.randint(1, 4) for _ in range(n)],
            [rng.randint(0, 4) for _ in range(n)],
            [0] * n,
        ):
            ties = rng.sample(range(n), min(n, 3))
            for tie_mask in (0, 1 << ties[0], set_to_mask(ties)):
                expected = whole_table_median_dp(in_masks, weights, tie_mask)
                assert orders._median_dp(in_masks, weights, tie_mask) == expected
    if n > 5:
        return
    # every tournament on at most 5 vertices, through the pull loop
    for t in all_tournaments(n):
        in_masks = [t.in_mask(v) for v in range(n)]
        for weights in ([1] * n, [3] * n):
            expected = whole_table_median_dp(in_masks, weights, 0)
            assert orders._median_dp(in_masks, weights, 0) == expected


def _strong_block_instance():
    """Instance 4 of filtered_search("matching-F-empty-no-sink", 12, 1, budget=200,
    count=5): its one K(xi) block, 8 of its 10 vertices, is a strong component."""
    arcs = [
        (0, 2), (0, 5), (0, 7), (1, 4), (1, 6), (1, 8), (2, 1), (2, 5), (2, 6),
        (3, 0), (3, 1), (3, 2), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
        (4, 0), (4, 2), (4, 7), (5, 1), (5, 6), (5, 8), (6, 0), (6, 4), (6, 8),
        (7, 1), (7, 2), (7, 5), (8, 0), (8, 4), (8, 7),
    ]
    arcs += [(9, v) for v in range(9)]
    a = Analysis(Digraph(10, arcs))
    (block,) = a.ci.k_of_xi
    in_masks = [a.d.in_mask(v) for v in range(a.d.n)]
    assert len(block) == 8 and block in orders._strong_components(in_masks)
    return a, block


@pytest.mark.parametrize("w", [None, Weighting([Fraction(1 + v % 3, 2) for v in range(10)])])
def test_good_median_order_solves_each_block_once(monkeypatch, w):
    a, block = _strong_block_instance()
    weights = orders._int_weights(a.d, w)[0]
    in_masks = [a.d.in_mask(v) for v in range(a.d.n)]
    block_key = (tuple(orders._local_in_masks(in_masks, block)), tuple(weights[v] for v in block))
    calls = Counter()
    kernel = orders._median_dp

    def counted(in_masks, weights, tie_mask, lower=None):
        calls[tuple(in_masks), tuple(weights)] += 1
        return kernel(in_masks, weights, tie_mask, lower)

    monkeypatch.setattr(orders, "_median_dp", counted)
    order = good_median_order(a, w)
    assert calls[block_key] == 1
    assert sum(k for (masks, _), k in calls.items() if len(masks) >= 8) == 1
    assert forward_weight(a.d, order, w) == exact_median_order(a.d, w).value


def test_good_median_order_check_fires_on_a_worse_block_order(monkeypatch):
    a, block = _strong_block_instance()
    sub, _ = a.d.induced(block)
    best = exact_median_order(sub)
    worse = best.order[::-1]
    assert forward_weight(sub, worse) < best.value
    block_masks = [sub.in_mask(v) for v in range(sub.n)]
    solve = orders._median_solve

    def worse_block(in_masks, weights, tie_mask):
        order, value, tie = solve(in_masks, weights, tie_mask)
        # the block's order loses weight, but its value is still the optimum
        return (list(worse), value, tie) if list(in_masks) == block_masks else (order, value, tie)

    monkeypatch.setattr(orders, "_median_solve", worse_block)
    with pytest.raises(ConsistencyError, match="contiguous-block optimum"):
        good_median_order(a)
