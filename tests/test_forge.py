import pytest
from hypothesis import given, settings, strategies as st

from seymour.dependency import Analysis, dependency_digraph
from seymour.errors import UnrealizableError
from seymour.forge import (
    InstanceSpec,
    SEARCH_PREDICATES,
    all_digraphs,
    all_kings_tournament,
    all_tournaments,
    build,
    delete_disjoint_stars,
    filtered_search,
    fixture,
    losing_cycle_gadget,
    random_digraph,
    random_star_deleted,
    random_tournament,
)
from seymour.stars import decompose, edge
from seymour.theorems import _GATES, all_kings


def test_fixture_definitions():
    assert fixture("C3").arcs == ((0, 1), (1, 2), (2, 0))
    assert fixture("TT3").arcs == ((0, 1), (0, 2), (1, 2))
    assert fixture("C4X").arcs == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert set(fixture("LC3").arcs) == {
        (0, 2), (0, 5), (1, 3), (1, 4), (2, 4), (2, 1),
        (3, 5), (3, 0), (4, 0), (4, 3), (5, 1), (5, 2),
    }
    assert set(fixture("ST1").arcs) == {(1, 2), (2, 3), (3, 1), (0, 3)}
    assert fixture("ST1").missing_pairs() == ((0, 1), (0, 2))


def test_fixture_unknown_name():
    with pytest.raises(ValueError):
        fixture("nope")


def test_random_generators_are_deterministic():
    assert random_tournament(7, 3) == random_tournament(7, 3)
    assert random_digraph(7, 3, 0.5) == random_digraph(7, 3, 0.5)
    assert random_star_deleted(8, 4) == random_star_deleted(8, 4)
    assert random_tournament(7, 3) != random_tournament(7, 4)


def test_random_generator_shapes():
    assert random_tournament(3, 0).arc_count == 3
    assert random_digraph(5, 1, 1.0).is_tournament()
    assert random_digraph(5, 1, 0.0).arc_count == 0


@pytest.mark.parametrize("shapes", [[-1], [0], [2, 0]])
def test_random_star_deleted_rejects_a_star_without_leaves(shapes):
    with pytest.raises(ValueError, match="at least one leaf"):
        random_star_deleted(5, 1, shapes)


def test_all_kings_tournament_examples():
    assert all_kings_tournament(3) == fixture("C3")
    assert all_kings(all_kings_tournament(7))
    assert all_kings(all_kings_tournament(6))
    for n in (2, 4):
        with pytest.raises(UnrealizableError):
            all_kings_tournament(n)


def test_delete_disjoint_stars_round_trip():
    st1 = fixture("ST1")
    t = st1.complete([(1, 0), (2, 0)])
    assert delete_disjoint_stars(t, [(0, (1, 2))]) == st1
    t6 = random_tournament(6, 2)
    assert delete_disjoint_stars(t6, []) == t6
    d = delete_disjoint_stars(t6, [(0, (1,)), (2, (3,))])
    assert decompose(d).matching == ((0, 1), (2, 3))


def test_delete_disjoint_stars_rejects_overlap():
    t = random_tournament(6, 2)
    with pytest.raises(ValueError):
        delete_disjoint_stars(t, [(0, (1,)), (1, (2,))])


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: random_digraph(3, 0, 1.5), "density", id="density-above-1"),
        pytest.param(lambda: random_digraph(3, 0, -0.1), "density", id="density-below-0"),
        pytest.param(lambda: all_kings_tournament(0), "positive", id="kings-n0"),
        pytest.param(lambda: all_kings_tournament(-1), "positive", id="kings-n-1"),
        pytest.param(
            lambda: delete_disjoint_stars(fixture("C4X"), [(0, (2,))]),
            "expects a tournament",
            id="stars-off-a-tournament",
        ),
        pytest.param(lambda: random_star_deleted(3, 0, [3]), "cannot host", id="star-too-big"),
        pytest.param(lambda: random_star_deleted(6, 0, [2, 3]), "cannot host", id="stars-too-big"),
        pytest.param(lambda: losing_cycle_gadget(1), "k >= 2", id="gadget-k1"),
        pytest.param(lambda: filtered_search("nope", 6, 0), "unknown predicate", id="predicate"),
        pytest.param(lambda: InstanceSpec.parse([]), "empty instance spec", id="empty-spec"),
    ],
)
def test_forge_refuses_bad_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_losing_cycle_gadget_matches_lc3():
    assert losing_cycle_gadget(3) == fixture("LC3")


@pytest.mark.parametrize("k", range(2, 9))
def test_losing_cycle_gadget_structure(k):
    g = losing_cycle_gadget(k)
    assert g.n == 2 * k
    assert g.missing_pairs() == tuple((2 * i, 2 * i + 1) for i in range(k))
    dd = dependency_digraph(g)
    want = {
        (edge(2 * i, 2 * i + 1), edge(2 * ((i + 1) % k), 2 * ((i + 1) % k) + 1))
        for i in range(k)
    }
    assert set(dd.arcs) == want
    a = [2 * i for i in range(k)]
    b = [2 * i + 1 for i in range(k)]
    if k % 2 == 1:
        assert g.has_arc(a[-1], a[0])
        assert not g.second_mask(a[-1]) >> b[0] & 1
    else:
        assert g.has_arc(a[-1], b[0])


def test_all_tournaments_and_digraph_counts():
    assert sum(1 for _ in all_tournaments(3)) == 8
    assert sum(1 for _ in all_digraphs(3)) == 27
    ts = list(all_tournaments(3))
    assert len(set(t.fingerprint() for t in ts)) == 8
    assert all(t.is_tournament() for t in ts)


def test_filtered_search_instances_pass_their_gate():
    for predicate in SEARCH_PREDICATES:
        res = filtered_search(predicate, 9, 0, budget=120, count=8)
        assert res.instances, predicate
        assert len(res.instances) <= res.attempts
        for d in res.instances:
            assert _GATES[predicate](Analysis(d)).applicable
    with pytest.raises(ValueError, match="floor 6"):
        filtered_search("three-stars", 5, 0, budget=120)
    again = filtered_search("two-stars", 9, 0, budget=120, count=8)
    assert [d.fingerprint() for d in again.instances] == [
        d.fingerprint() for d in filtered_search("two-stars", 9, 0, budget=120, count=8).instances
    ]


def test_instance_spec_parse_and_build():
    spec = InstanceSpec.parse(["losing-cycle-gadget", "k=3"])
    assert spec.text() == "losing-cycle-gadget k=3"
    assert build(spec) == fixture("LC3")
    assert build(InstanceSpec.parse(["fixture", "name=TT3"])) == fixture("TT3")
    s = InstanceSpec.parse(["random-tournament", "n=7", "seed=3"])
    assert build(s) == random_tournament(7, 3)
    with pytest.raises(ValueError):
        InstanceSpec.parse(["mystery"])
    with pytest.raises(ValueError):
        InstanceSpec.parse(["fixture", "oops"])


@given(st.integers(0, 300), st.integers(4, 12))
@settings(max_examples=100, deadline=None)
def test_star_deleted_decomposes(seed, n):
    d = random_star_deleted(n, seed)
    decompose(d)  # must not raise
