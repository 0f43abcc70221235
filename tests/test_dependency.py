from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from seymour import dependency
from seymour.dependency import (
    Analysis,
    component_index,
    dependency_digraph,
    good_edges,
    goodness,
    is_good_digraph,
    j_of,
    loses_to,
    losing_roles,
    propagate_roles,
    strong_dependency_check,
)
from seymour.digraph import Digraph
from seymour.errors import ExactBoundExceededError
from seymour.forge import (
    fixture,
    losing_cycle_gadget,
    random_digraph,
    random_star_deleted,
    random_tournament,
)
from seymour.stars import convenient_orientations, edge, edge_pair

from oracles import (
    brute_component_index,
    brute_dependency_arcs,
    brute_losing,
    pairwise_xi_groups,
)


def test_loses_to_c4x_examples():
    c4x = fixture("C4X")
    w = loses_to(c4x, edge(0, 2), edge(1, 3))
    assert w is not None
    assert (w.x1, w.y1, w.x2, w.y2) == (0, 2, 1, 3)
    assert loses_to(c4x, edge(1, 3), edge(0, 2)) is not None


def test_loses_to_lc3_negative_example():
    lc3 = fixture("LC3")
    assert loses_to(lc3, edge(0, 1), edge(4, 5)) is None


@given(st.integers(0, 400), st.integers(3, 8))
@settings(max_examples=100, deadline=None)
def test_losing_roles_pair_the_endpoints_once(seed, n):
    # e1 loses to e2 for at most one pairing of their endpoints, so both
    # tails of e1 give the same answer, with the roles reversed
    d = random_digraph(n, seed)
    brute_loses = brute_losing(d)
    edges = [edge(u, v) for u, v in d.missing_pairs()]
    for e1 in edges:
        p, q = edge_pair(e1)
        for e2 in edges:
            if e1 == e2:
                continue
            r, s = edge_pair(e2)
            pairings = [
                (x1, y1, x2, y2)
                for x1, y1 in ((p, q), (q, p))
                for x2, y2 in ((r, s), (s, r))
                if brute_loses(x1, y1, x2, y2)
            ]
            roles = losing_roles(d, e1, e2, p)
            if roles is None:
                assert pairings == [] and loses_to(d, e1, e2) is None
                assert losing_roles(d, e1, e2, q) is None
            else:
                assert pairings == [(p, q, *roles), (q, p, *roles[::-1])]
                assert losing_roles(d, e1, e2, q) == roles[::-1]
                w = loses_to(d, e1, e2)
                assert (w.x1, w.y1, w.x2, w.y2) == (p, q, *roles)
    # the dependency digraph holds exactly the loses_to pairs, in order
    assert dependency_digraph(d).arcs == tuple(
        (e1, e2) for e1 in edges for e2 in edges
        if e1 != e2 and loses_to(d, e1, e2) is not None
    )


@given(st.integers(0, 400), st.integers(0, 8))
@settings(max_examples=100, deadline=None)
def test_dependency_digraph_matches_the_definition(seed, n):
    d = random_digraph(n, seed)
    assert dependency_digraph(d).arcs == brute_dependency_arcs(d)


# the shapes of the analysis-scan benchmark: 0-2 stars of 2-4 leaves and up
# to 12 matching edges on 16-40 vertices.  At these sizes a tournament's
# second neighborhoods cover nearly everything, so Delta is almost always
# arcless: these inputs check that no false arc appears, while the small
# random digraphs above carry the losing pairs.
@given(
    st.integers(0, 1 << 30),
    st.integers(16, 40),
    st.lists(st.integers(2, 4), max_size=2),
    st.integers(0, 12),
)
@settings(max_examples=40, deadline=None)
def test_dependency_digraph_matches_the_definition_on_star_deleted(seed, n, stars, matching):
    room = n - sum(k + 1 for k in stars)
    d = random_star_deleted(n, seed, stars + [1] * min(matching, room // 2))
    assert dependency_digraph(d).arcs == brute_dependency_arcs(d)


def test_propagate_roles_labels_every_reachable_edge():
    d = fixture("LC3")
    dd = dependency_digraph(d)
    e = [edge(0, 1), edge(2, 3), edge(4, 5)]  # e0 -> e1 -> e2 -> e0
    roles = propagate_roles(d, dd, {e[0]: (1, 0)})
    assert list(roles) == e and roles[e[0]] == (1, 0)
    for e1, e2 in ((e[0], e[1]), (e[1], e[2])):
        assert roles[e2] == losing_roles(d, e1, e2, roles[e1][0])
    assert propagate_roles(d, dd, {}) == {}


def test_dependency_digraph_refuses_more_than_its_missing_edge_cap(monkeypatch):
    # the count comes from n and the arc count: no missing pair is listed
    # above the cap, so the smallest arcless digraph above it costs nothing
    cap = dependency.MAX_MISSING_EDGES
    n = next(n for n in range(2, cap) if n * (n - 1) // 2 > cap)

    def unlisted(self):
        raise AssertionError("missing pairs listed above the cap")

    with monkeypatch.context() as m:
        m.setattr(Digraph, "missing_pairs", unlisted)
        with pytest.raises(
            ExactBoundExceededError,
            match=f"capped at {cap} missing edges, got {n * (n - 1) // 2}",
        ):
            dependency_digraph(Digraph(n))
    monkeypatch.setattr(dependency, "MAX_MISSING_EDGES", 5)
    assert len(dependency_digraph(Digraph(4, [(0, 1)])).edges) == 5
    with pytest.raises(ExactBoundExceededError, match="capped at 5 missing edges, got 6"):
        Analysis(Digraph(4)).ci


def test_dependency_digraph_examples():
    dd = dependency_digraph(fixture("C3"))
    assert dd.edges == ()
    assert dd.min_out_degree is dd.min_in_degree is dd.min_degree is None

    dd = dependency_digraph(fixture("C4X"))
    assert set(dd.edges) == {edge(0, 2), edge(1, 3)}
    assert set(dd.arcs) == {
        (edge(0, 2), edge(1, 3)),
        (edge(1, 3), edge(0, 2)),
    }
    assert dd.min_degree == 1

    dd = dependency_digraph(fixture("LC3"))
    e = [edge(0, 1), edge(2, 3), edge(4, 5)]
    assert set(dd.arcs) == {(e[0], e[1]), (e[1], e[2]), (e[2], e[0])}
    assert dd.min_out_degree == 1 and dd.min_in_degree == 1


def test_witnesses_replay():
    for name in ("C4X", "LC3"):
        d = fixture(name)
        dd = dependency_digraph(d)
        for e1, e2 in dd.arcs:
            w = loses_to(d, e1, e2)
            assert {w.x1, w.y1} == e1 and {w.x2, w.y2} == e2
            assert d.has_arc(w.x1, w.x2) and d.has_arc(w.y1, w.y2)
            assert not (d.out_mask(w.x1) | d.second_mask(w.x1)) >> w.y2 & 1
            assert not (d.out_mask(w.y1) | d.second_mask(w.y1)) >> w.x2 & 1


def test_good_edges_examples():
    for name in ("C4X", "LC3"):
        d = fixture(name)
        assert good_edges(dependency_digraph(d)) == ()
    t = random_tournament(5, 1)
    d = t.with_arcs(remove=[t.arcs[0]])
    (e,) = d.missing_pairs()
    assert good_edges(dependency_digraph(d)) == (edge(*e),)


def test_component_index_examples():
    ci = component_index(fixture("C4X"))
    assert len(ci.components) == 1 and ci.k_sets == ((0, 1, 2, 3),)
    assert len(ci.xi_groups) == 1 and ci.k_of_xi == ((0, 1, 2, 3),)

    ci = component_index(fixture("LC3"))
    assert ci.k_sets == ((0, 1, 2, 3, 4, 5),)


def test_two_disjoint_blocks_give_two_xi():
    c4x = fixture("C4X")
    arcs = list(c4x.arcs)
    arcs += [(u + 4, v + 4) for u, v in c4x.arcs]
    arcs += [(u, v) for u in range(4) for v in range(4, 8)]
    d = Digraph(8, arcs)
    ci = component_index(d)
    assert len(ci.xi_groups) == 2
    assert sorted(ci.k_of_xi) == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_j_of_examples():
    c3, c4x = fixture("C3"), fixture("C4X")
    assert j_of(Analysis(c3), 0) == (0,)
    assert j_of(Analysis(c4x), 0) == (0, 1, 2, 3)
    # LC3 plus a whole vertex dominating everything
    lc3 = fixture("LC3")
    d = Digraph(7, list(lc3.arcs) + [(6, v) for v in range(6)])
    assert j_of(Analysis(d), 6) == (6,)


def test_is_good_digraph_examples():
    assert is_good_digraph(fixture("C3"))
    assert is_good_digraph(fixture("C4X"))
    assert is_good_digraph(fixture("LC3"))
    # splitter vertex sees K(xi) non-uniformly
    lc3 = fixture("LC3")
    arcs = list(lc3.arcs) + [(6, 0), (6, 2), (6, 4), (1, 6), (3, 6), (5, 6)]
    assert not is_good_digraph(Digraph(7, arcs))


def test_non_star_digraph_is_never_good():
    # the missing graph of the empty digraph on 4 vertices is K4
    assert not is_good_digraph(Digraph(4, []))


def test_strong_dependency_check_on_non_star_digraph():
    rep = strong_dependency_check(Digraph(4, []))
    assert not rep.hypothesis_holds and not rep.is_good


def test_goodness_reports_per_xi_verdicts():
    c4x = fixture("C4X")
    report = goodness(c4x, component_index(c4x))
    assert report.is_good and report.verdicts == (((0, 1, 2, 3), True),)


def test_component_is_nontrivial_scc():
    ci = component_index(fixture("LC3"))
    assert len(ci.components) == 1 and ci.component_is_nontrivial_scc(0)
    # path components whose first edge starts the path, {2,6} -> {4,5},
    # and ends it, {3,5} -> {2,6} -> {0,1}: a lone edge and a path are
    # never strong
    for n, seed, shapes in ((7, 13, [1, 1, 1]), (8, 41, [1, 1, 1, 1])):
        ci = component_index(random_star_deleted(n, seed, shapes))
        assert [len(c) for c in ci.components] in ([1, 2], [3, 1])
        assert not any(ci.component_is_nontrivial_scc(i) for i in range(2))


def test_strong_dependency_check_examples():
    for name in ("C4X", "LC3"):
        rep = strong_dependency_check(fixture(name))
        assert rep.hypothesis_holds and rep.is_good


@given(st.integers(0, 400), st.integers(4, 12))
@settings(max_examples=150, deadline=None)
def test_good_edge_iff_delta_in_degree_zero(seed, n):
    d = random_star_deleted(n, seed)
    dd = dependency_digraph(d)
    goods = set(good_edges(dd))
    for e in dd.edges:
        has_convenient = bool(convenient_orientations(d, e))
        assert (e in goods) == (dd.in_degree(e) == 0) == has_convenient


@given(st.integers(0, 400), st.integers(4, 12))
@settings(max_examples=100, deadline=None)
def test_distinct_k_xi_are_disjoint(seed, n):
    d = random_star_deleted(n, seed)
    ci = component_index(d)
    seen = set()
    for k in ci.k_of_xi:
        assert not seen & set(k)
        seen |= set(k)


def _xi_inputs():
    """Star-deleted digraphs, losing-cycle gadgets and arcless digraphs, n <= 12."""
    for seed in range(60):
        for n in (4, 8, 12):
            yield random_star_deleted(n, seed)
    for k in range(2, 7):
        yield losing_cycle_gadget(k)
    for n in range(13):
        yield Digraph(n)


def test_xi_groups_match_the_pairwise_grouping():
    groups = Counter()
    for d in _xi_inputs():
        ci = component_index(d)
        assert ci.xi_groups == pairwise_xi_groups(ci.k_sets)
        assert ci.k_of_xi == tuple(
            tuple(sorted({v for i in g for v in ci.k_sets[i]})) for g in ci.xi_groups
        )
        groups[max(map(len, ci.xi_groups), default=0) > 1] += 1
    # groups of several components and groups of one both occur
    assert groups[True] and groups[False]


def test_component_index_matches_the_set_reference():
    # small random digraphs carry the losing pairs, which star-deleted
    # inputs almost never have
    arcs = 0
    for density in (0.5, 0.7, 0.9):
        for n in range(1, 11):
            for seed in range(12):
                d = random_digraph(n, seed, density)
                ci = component_index(d)
                got = (ci.components, ci.k_sets, ci.xi_groups, ci.k_of_xi, ci.dd.succ, ci.dd.pred)
                assert got == brute_component_index(d), (density, n, seed)
                arcs += len(ci.dd.arcs)
    assert arcs >= 100


def test_xi_groups_of_a_large_arcless_digraph():
    # 150 vertices miss 11,175 edges, each its own component, all in one group
    ci = component_index(Digraph(150))
    assert len(ci.components) == 11_175 and ci.k_of_xi == (tuple(range(150)),)


def _brute_is_path(comp, arcs) -> bool:
    """A directed path from the definition: some ordering of the component's
    edges whose consecutive pairs are exactly the arcs inside it."""
    inside = {(a, b) for a, b in arcs if a in comp and b in comp}
    return any(inside == set(zip(p, p[1:])) for p in permutations(comp))


def test_component_is_path_matches_the_definition():
    seen = Counter()
    for seed in range(150):
        for n in (5, 6, 7, 8):
            ci = component_index(random_digraph(n, seed, 0.7))
            for i, comp in enumerate(ci.components):
                if len(comp) > 6:
                    continue  # the permutation oracle stays small
                want = _brute_is_path(comp, ci.dd.arcs)
                assert ci.component_is_path(i) == want
                if want:
                    assert len(ci.path_chain(i)) == len(comp)
                seen[len(comp) > 1, want] += 1
    # paths of more than one edge and components that are not paths both occur
    assert seen[True, True] > 50 and seen[True, False] > 50
