import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seymour.dependency import Analysis
from seymour.orders import exact_median_order, good_median_order
from seymour.digraph import Digraph, Weighting
from seymour.errors import ConsistencyError, HypothesisFailedError, VertexRangeError
from seymour.forge import (
    InstanceSpec,
    all_digraphs,
    all_kings_tournament,
    all_tournaments,
    build,
    filtered_search,
    fixture,
    losing_cycle_gadget,
    random_digraph,
    random_star_deleted,
    random_tournament,
)
from seymour import theorems
from seymour.stars import edge
from seymour.theorems import (
    THEOREM_IDS,
    THEOREMS,
    _build_f_arcs,
    _claimed_roles,
    _three_star_claim_holds,
    _three_star_readings,
    all_kings,
    check_hypotheses,
    gate_havet_thomasse,
    gate_kings_stars,
    gate_three_stars_two,
    has_snp,
    havet_thomasse_witnesses,
    is_king,
    kings_stars_witness,
    matching_two_witnesses,
    snp_set,
    star_matching_witness,
    three_stars_witness,
    two_stars_witness,
)

from oracles import (
    brute_has_snp,
    brute_is_king,
    brute_kings_reading,
    brute_snp_set,
    reference_second_witness,
)


def test_has_snp_examples():
    assert has_snp(fixture("C3"), 0)
    assert all(has_snp(fixture("LC3"), v) for v in range(6))
    assert not has_snp(fixture("TT3"), 0)
    assert snp_set(fixture("TT3")) == (2,)


def test_king_examples():
    assert all(is_king(fixture("C3"), v) for v in range(3))
    assert all_kings(fixture("C3"))
    assert not is_king(fixture("TT3"), 2)
    qr7 = all_kings_tournament(7)
    assert all(is_king(qr7, v) for v in range(7))


def test_king_requires_tournament():
    with pytest.raises(ValueError):
        is_king(fixture("C4X"), 0)


@pytest.mark.parametrize("name", ["C3", "C4X"])
def test_king_refuses_a_vertex_out_of_range(name):
    # the vertex is checked first, before the tournament test (C4X is none)
    d = fixture(name)
    for v in (-1, d.n, d.n + 2):
        with pytest.raises(VertexRangeError):
            is_king(d, v)


@given(st.integers(0, 400), st.integers(1, 10))
@settings(max_examples=150, deadline=None)
def test_snp_and_king_match_brute_force(seed, n):
    t = random_tournament(n, seed)
    assert snp_set(t) == brute_snp_set(t)
    for v in range(n):
        assert is_king(t, v) == brute_is_king(t, v)


@given(st.integers(0, 400), st.integers(1, 9), st.data())
@settings(max_examples=100, deadline=None)
def test_weighted_snp_matches_brute_force(seed, n, data):
    d = random_digraph(n, seed, 0.7)
    w = Weighting([Fraction(data.draw(st.integers(0, 5)), data.draw(st.integers(1, 3)))
                   for _ in range(n)])
    assert snp_set(d, w) == brute_snp_set(d, w)
    assert [has_snp(d, v, w) for v in range(n)] == [brute_has_snp(d, v, w) for v in range(n)]


@pytest.mark.parametrize("density", [0.0, 0.5, 0.9, 1.0])
def test_havet_thomasse_gate_counts_the_missing_pairs(density):
    # the gate counts from the arc count; the evidence reads as the length
    # of the missing-pair tuple would
    for n in range(10):
        for seed in range(8):
            d = random_digraph(n, seed, density)
            (check,) = gate_havet_thomasse(Analysis(d)).checks
            missing = len(d.missing_pairs())
            assert check.evidence == f"{missing} missing pair(s)"
            assert check.ok == (missing == 0) == d.is_tournament()


def test_havet_thomasse_examples():
    cert = havet_thomasse_witnesses(fixture("C3"))
    assert len(set(cert.witnesses)) == 2
    assert set(cert.witnesses) <= set(snp_set(fixture("C3")))

    cert = havet_thomasse_witnesses(fixture("TT3"))
    assert cert.witnesses == (2,)  # the sink

    cert = havet_thomasse_witnesses(random_tournament(8, 1))
    for v in cert.witnesses:
        assert brute_has_snp(random_tournament(8, 1), v)


def test_havet_thomasse_rejects_non_tournaments():
    with pytest.raises(HypothesisFailedError):
        havet_thomasse_witnesses(fixture("C4X"))


def test_kings_stars_gate_fails_on_c4x():
    # no center assignment of two matching edges induces an all-kings
    # tournament on 2 vertices
    with pytest.raises(HypothesisFailedError):
        THEOREMS["kings-stars"](fixture("C4X"))


def test_kings_stars_gate_names_the_reading_cap():
    # transitive tournament on 18 vertices minus {2i, 2i+1}: 9 matching
    # edges, 512 readings, of which the gate tries MAX_READINGS = 256
    n = 18
    d = Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2])
    a = Analysis(d)
    (_, centers, _) = gate_kings_stars(a).checks
    assert not centers.ok and brute_kings_reading(d, a.dec) is None
    assert centers.evidence == (
        "no center assignment among the first 256 of 512 readings"
        " induces an all-kings tournament"
    )
    (_, centers, _) = gate_kings_stars(Analysis(fixture("C4X"))).checks
    assert centers.evidence == "no center assignment induces an all-kings tournament"


def test_kings_walk_prunes_below_a_failing_center(monkeypatch):
    # the 18-vertex transitive instance above: whichever endpoint of the
    # second edge becomes a center, it cannot reach vertex 0, so the walk
    # stops at depth one instead of testing all 256 readings
    n = 18
    d = Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2])
    calls = Counter()
    original = theorems._reaches

    def counted(*args):
        calls["reaches"] += 1
        return original(*args)

    monkeypatch.setattr(theorems, "_reaches", counted)
    assert gate_kings_stars(Analysis(d)).roles is None
    assert 0 < calls["reaches"] <= 8


def test_kings_reading_matches_the_induced_reference():
    # 0-13 matching edges: above 8 the gate and the reference both stop
    # after MAX_READINGS readings; two or more centers often fail to be
    # kings among themselves, so None shows up too
    rng = random.Random(7)
    outcomes = Counter()
    for seed in range(300):
        matching = rng.randint(0, 13)
        shapes = [1] * matching + [rng.randint(2, 3) for _ in range(rng.randint(0, 2))]
        rng.shuffle(shapes)
        n = sum(s + 1 for s in shapes) + rng.randint(1, 4)
        d = random_star_deleted(n, seed, shapes)
        a = Analysis(d)
        want = brute_kings_reading(d, a.dec)
        assert gate_kings_stars(a).roles == want
        outcomes[matching > 8, want is None] += 1
    assert set(outcomes) == {(False, False), (False, True), (True, False), (True, True)}


def test_kings_stars_certifies_every_tournament_on_five_vertices():
    count = 0
    for t in all_tournaments(5):
        cert = kings_stars_witness(t)
        assert cert.ok and all(brute_has_snp(t, v) for v in cert.witnesses)
        count += 1
    assert count == 1024


def test_star_matching_on_pure_matching_fixtures():
    for name in ("C4X", "LC3"):
        cert = star_matching_witness(fixture(name))
        assert all(brute_has_snp(fixture(name), v) for v in cert.witnesses)


# Path components of more than one edge, where F follows role labels that
# swap along the chain: (spec, F arcs, witnesses, trace).
MULTI_EDGE_CHAINS = [
    (
        "star-deleted n=7 seed=13 shapes=1,1,1",
        [(0, 1), (2, 6), (5, 4)],
        (3,),
        (
            "path [(0, 1)] oriented a->b",
            "path [(2, 6), (4, 5)] oriented a->b",
            "F has 3 arc(s)",
            "good median order of D+F: [5, 0, 1, 4, 2, 6, 3]",
            "case whole-feed",
        ),
    ),
    (
        "star-deleted n=9 seed=2 shapes=1,1,1",
        [(1, 3), (8, 2), (4, 5)],
        (6,),
        (
            "path [(1, 3)] oriented a->b",
            "path [(2, 8), (4, 5)] oriented b->a",
            "F has 3 arc(s)",
            "good median order of D+F: [5, 1, 8, 7, 4, 2, 0, 3, 6]",
            "case whole-feed",
        ),
    ),
    (
        "star-deleted n=8 seed=41 shapes=1,1,1,1",
        [(3, 5), (6, 2), (1, 0), (4, 7)],
        (5,),
        (
            "path [(3, 5), (2, 6), (0, 1)] oriented a->b",
            "path [(4, 7)] oriented a->b",
            "F has 4 arc(s)",
            "good median order of D+F: [4, 6, 1, 2, 0, 7, 3, 5]",
            "case whole-feed",
        ),
    ),
]


@pytest.mark.parametrize(
    "spec, f_arcs, witnesses, trace", MULTI_EDGE_CHAINS, ids=[c[0] for c in MULTI_EDGE_CHAINS]
)
def test_star_matching_labels_multi_edge_chains(spec, f_arcs, witnesses, trace):
    d = build(InstanceSpec.parse(spec.split()))
    assert _build_f_arcs(d, Analysis(d).ci)[0] == f_arcs
    cert = star_matching_witness(d)
    assert (cert.witnesses, cert.trace, cert.findings) == (witnesses, trace, ())


def test_matching_two_witnesses_examples():
    for name in ("C4X", "LC3"):
        cert = matching_two_witnesses(fixture(name))
        assert len(set(cert.witnesses)) == 2
        assert all(brute_has_snp(fixture(name), v) for v in cert.witnesses)


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_the_empty_digraph_is_refused(tid):
    with pytest.raises(HypothesisFailedError):
        THEOREMS[tid](Digraph(0))


@pytest.mark.parametrize(
    "tid, witnesses", [("matching-F-empty-no-sink", (5, 4)), ("two-stars-two", (5, 2))]
)
def test_prefix_sedimentation_off_tournaments(tid, witnesses):
    # the feed 5 is whole, and the prefix it leaves has missing edges
    d = build(InstanceSpec.parse("star-deleted n=6 seed=1261 shapes=1,1".split()))
    cert = THEOREMS[tid](d)
    assert cert.witnesses == witnesses
    assert cert.trace[-2:] == (
        "prefix periodic (cycle length 1); out-neighbor 0 of 5 is bad at cycle step 0",
        f"second witness {witnesses[1]} from J [1, 2, 3, 4]",
    )


def _second_witness_or_fault(fn, d, order, candidates=theorems._default_candidates):
    try:
        return fn(d, order, candidates)
    except ConsistencyError as exc:
        return str(exc)


def test_second_witness_matches_the_reference_on_tournaments():
    sinkless = [t for n in range(1, 6) for t in all_tournaments(n) if not t.has_sink()]
    sinkless.append(all_kings_tournament(7))
    branches = Counter()
    for t in sinkless:
        order = exact_median_order(t).order
        got = theorems._second_witness(t, order)
        assert got == reference_second_witness(t, order, theorems._default_candidates)
        branches[got[1][0].split()[1]] += 1
    assert branches.keys() == {"stable", "periodic"}


def test_second_witness_matches_the_reference_in_the_procedures(monkeypatch):
    # the filtered searches reach the prefix only through three-stars-two's
    # inner tournaments; the two pinned specs reach a prefix with missing edges
    real = theorems._second_witness
    prefixes = Counter()

    def checked(d, order, candidates=theorems._default_candidates):
        got = real(d, order, candidates)
        assert got == reference_second_witness(d, order, candidates)
        prefixes[d.induced(order[:-1])[0].is_tournament()] += 1
        return got

    monkeypatch.setattr(theorems, "_second_witness", checked)
    pinned = [
        build(InstanceSpec.parse(f"star-deleted n=6 seed={seed} shapes=1,1".split()))
        for seed in (1261, 2120)
    ]
    for tid in ("matching-F-empty-no-sink", "two-stars-two", "three-stars-two"):
        corpus = list(pinned)
        for seed in range(3):
            corpus += filtered_search(tid, 10, seed, budget=400, count=40).instances
        for d in corpus:
            try:
                THEOREMS[tid](d)
            except HypothesisFailedError:
                pass
    assert prefixes[True] and prefixes[False] == 4


def test_second_witness_matches_the_reference_on_good_digraphs():
    # every good median order with a whole feed and missing edges in its
    # prefix: digraphs on 4 vertices, then random ones on 5-8; equal
    # (witness, trace), or the same fault where the theorem's other
    # hypotheses fail
    def cases():
        yield from all_digraphs(4)
        for seed in range(1500):
            yield random_digraph(5 + seed % 4, seed, 0.85)

    outcomes = Counter()
    for d in cases():
        a = Analysis(d)
        if not a.goodness.is_good:
            continue
        order = good_median_order(a)
        if not d.is_whole(order[-1]) or d.induced(order[:-1])[0].is_tournament():
            continue
        got = _second_witness_or_fault(theorems._second_witness, d, order)
        assert got == _second_witness_or_fault(reference_second_witness, d, order)
        outcomes["fault" if isinstance(got, str) else got[1][0].split()[1]] += 1
    assert outcomes.keys() == {"stable", "periodic", "fault"}


def test_a_designated_witness_without_the_snp_raises(monkeypatch):
    # snp set (1, 2, 3, 4, 5); the construction designates (5, 2).  With
    # vertex 0 designated first, no other contender may take its place.
    d = build(InstanceSpec.parse("star-deleted n=6 seed=1261 shapes=1,1".split()))
    assert snp_set(d) == (1, 2, 3, 4, 5)
    real = theorems._interval_candidates

    def zero_first(*args):
        inner = real(*args)
        return lambda jset, feed: [0] + [v for v in inner(jset, feed) if v != 0]

    monkeypatch.setattr(theorems, "_interval_candidates", zero_first)
    with pytest.raises(ConsistencyError, match="fails the oracle"):
        THEOREMS["two-stars-two"](d)


def test_matching_with_sink_is_gated():
    d = Digraph(4, [(0, 1), (1, 2), (3, 2), (0, 3)])  # missing {0,2},{1,3}; 2 is a sink
    with pytest.raises(HypothesisFailedError):
        matching_two_witnesses(d)


def test_single_star_on_st1():
    cert = THEOREMS["single-star"](fixture("ST1"))
    assert all(brute_has_snp(fixture("ST1"), v) for v in cert.witnesses)


def test_single_star_accepts_tournaments():
    cert = THEOREMS["single-star"](fixture("C3"))
    assert all(brute_has_snp(fixture("C3"), v) for v in cert.witnesses)


def test_two_stars_gate_requires_positive_delta():
    raised = 0
    for seed in range(60):
        d = random_star_deleted(9, seed, [2, 2])
        from seymour.theorems import gate_two_stars
        if gate_two_stars(Analysis(d)).applicable:
            continue
        with pytest.raises(HypothesisFailedError):
            two_stars_witness(d)
        raised += 1
    assert raised > 0


def test_three_stars_gate_rejects_transitive_centers():
    # stars centered at 0, 3, 6 with forced multi-leaf centers; the centers
    # induce a transitive triangle 0 -> 3 -> 6, 0 -> 6
    t = random_tournament(9, 5)
    arcs = {(u, v) for u, v in t.arcs}
    for u, v in [(3, 0), (6, 0), (6, 3)]:
        if (u, v) in arcs:
            arcs.discard((u, v))
            arcs.add((v, u))
    t = Digraph(9, sorted(arcs))
    from seymour.forge import delete_disjoint_stars
    d = delete_disjoint_stars(t, [(0, (1, 2)), (3, (4, 5)), (6, (7, 8))])
    from seymour.theorems import gate_three_stars
    assert not gate_three_stars(Analysis(d)).applicable
    with pytest.raises(HypothesisFailedError):
        three_stars_witness(d)


def test_check_hypotheses_fixture_table():
    expected = {
        "C3": ["havet-thomasse", "kings-stars", "star+matching",
               "matching-F-empty-no-sink", "single-star"],
        "TT3": ["havet-thomasse", "kings-stars", "star+matching", "single-star"],
        "C4X": ["star+matching", "matching-F-empty-no-sink",
                "two-stars", "two-stars-two"],
        "LC3": ["kings-stars", "star+matching", "matching-F-empty-no-sink",
                "three-stars", "three-stars-two"],
        "ST1": ["single-star"],
    }
    for name, want in expected.items():
        gates = check_hypotheses(fixture(name))
        assert [g.theorem_id for g in gates] == list(THEOREM_IDS)
        assert [g.theorem_id for g in gates if g.applicable] == want


def test_losing_cycle_vertices_all_have_snp():
    for k in (2, 3, 4, 5):
        g = losing_cycle_gadget(k)
        assert snp_set(g) == tuple(range(2 * k))
        for v in range(2 * k):
            assert g.degree(v) == g.second_degree(v) == k - 1


@pytest.mark.parametrize("predicate", ["kings-stars", "two-stars", "three-stars"])
def test_a_dominated_vertex_is_the_whole_feed(predicate):
    # a new vertex that every other vertex beats changes no other vertex's
    # reach, so Delta, the readings and the gate verdict stay; as a sink it
    # ends every median order, so it is the feed, and it is whole
    instances = filtered_search(predicate, 9, 0, budget=200, count=4).instances
    assert len(instances) == 4
    for d in instances:
        n = d.n
        padded = Digraph(n + 1, d.arcs + tuple((v, n) for v in range(n)))
        cert = THEOREMS[predicate](padded)
        assert cert.witnesses == (n,) and cert.trace[-1] == "case whole-feed"
        assert brute_has_snp(padded, n)


@pytest.mark.parametrize(
    "predicate, claim",
    [("two-stars-two", "_two_star_claim_holds"), ("three-stars-two", "_three_star_claim_holds")],
)
def test_claimed_roles_raise_when_no_reading_satisfies_the_claim(predicate, claim, monkeypatch):
    (d,) = filtered_search(predicate, 9, 0, budget=200, count=1).instances
    monkeypatch.setattr(f"seymour.theorems.{claim}", lambda *args: False)
    with pytest.raises(ConsistencyError, match="positive dependency degrees must force"):
        THEOREMS[predicate](d)


@pytest.mark.parametrize("predicate", THEOREM_IDS[1:])
def test_witness_procedures_on_filtered_instances(predicate):
    res = filtered_search(predicate, 10, 11, budget=200, count=12)
    assert res.instances
    for d in res.instances:
        cert = THEOREMS[predicate](d)
        assert cert.ok
        for v in cert.witnesses:
            assert brute_has_snp(d, v)
        if predicate.endswith("-two") or predicate == "matching-F-empty-no-sink":
            assert len(set(cert.witnesses)) >= 2


@pytest.mark.parametrize("star", [0, 1, 2])
def test_a_sink_leaf_of_h_fails_the_three_stars_two_gate(star):
    # K = V instances: make the first leaf of one star a sink of
    # H = D - centers by reversing its arcs to the other leaves; its missing
    # edge to its center then loses to no edge, so the gate must fail
    instances = filtered_search("three-stars-two", 10, 1, budget=400, count=12).instances
    checked = 0
    for d in instances:
        a = Analysis(d)
        roles = _claimed_roles(d, _three_star_readings(d, a.dec), _three_star_claim_holds, "")
        centers = roles[0::2]
        if len({*centers, *roles[1], *roles[3], *roles[5]}) != d.n:
            continue
        center, h = centers[star], roles[2 * star + 1][0]
        leaves = set(range(d.n)) - set(centers)
        arcs = [(v, u) if u == h and v in leaves else (u, v) for u, v in d.arcs]
        sunk = Analysis(Digraph(d.n, arcs))
        assert sunk.d.induced(leaves)[0].has_sink()
        gate = gate_three_stars_two(sunk)
        assert "delta+_Delta > 0" in [c.clause for c in gate.failing()]
        assert sunk.dd.out_degree(edge(h, center)) == 0
        checked += 1
    assert checked >= 3
