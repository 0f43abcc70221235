from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seymour.digraph import Digraph, Weighting
from seymour.errors import DigonError, LoopArcError, VertexRangeError
from seymour.forge import fixture, random_digraph, random_tournament

from oracles import brute_missing_pairs, brute_second_out


def test_construction_rejects_loops():
    with pytest.raises(LoopArcError):
        Digraph(3, [(0, 0)])


def test_construction_rejects_digons():
    with pytest.raises(DigonError):
        Digraph(3, [(0, 1), (1, 0)])


def test_construction_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        Digraph(3, [(0, 3)])
    with pytest.raises(VertexRangeError, match="negative vertex count"):
        Digraph(-1)


def test_neighbors_examples():
    assert fixture("C3").neighbors(0) == (1,)
    assert fixture("LC3").neighbors(0) == (2, 5)
    assert fixture("TT3").neighbors(2) == ()


def test_second_neighborhood_examples():
    assert fixture("C3").second_neighborhood(0) == (2,)
    assert fixture("LC3").second_neighborhood(0) == (1, 4)
    assert fixture("C4X").second_neighborhood(0) == (2,)


def test_missing_graph_examples():
    assert fixture("C3").missing_pairs() == ()
    assert fixture("C4X").missing_pairs() == ((0, 2), (1, 3))
    assert fixture("LC3").missing_pairs() == ((0, 1), (2, 3), (4, 5))


def test_complete_examples():
    t = fixture("C4X").complete([(0, 2), (1, 3)])
    assert t.is_tournament() and t.arc_count == 6
    assert fixture("C3").complete([]) == fixture("C3")
    st1 = fixture("ST1").complete([(1, 0), (2, 0)])
    assert st1.is_tournament()
    assert st1.neighbors(0) == (3,)


def test_complete_rejects_bad_plans():
    c4x = fixture("C4X")
    with pytest.raises(ValueError):
        c4x.complete([(0, 2)])  # misses {1,3}
    with pytest.raises(ValueError):
        c4x.complete([(0, 1), (1, 3)])  # (0,1) is not missing


def test_is_interval_examples():
    c4x = fixture("C4X")
    for v in range(4):
        assert c4x.is_interval([v])
    assert not c4x.is_interval([0, 2])
    assert c4x.is_interval([0, 1, 2, 3])


def test_induced_examples():
    lc3 = fixture("LC3")
    sub, mapping = lc3.induced(range(6))
    assert sub == lc3 and mapping == (0, 1, 2, 3, 4, 5)
    sub, mapping = fixture("C4X").induced([0, 1])
    assert sub.arcs == ((0, 1),) and mapping == (0, 1)
    sub, mapping = fixture("TT3").induced([0, 2])
    assert sub.arcs == ((0, 1),) and mapping == (0, 2)


def test_induced_rejects_empty():
    with pytest.raises(ValueError):
        fixture("C3").induced([])


@given(st.integers(0, 500), st.integers(2, 12))
def test_second_neighborhood_matches_bfs(seed, n):
    d = random_digraph(n, seed, 0.5)
    for v in range(n):
        assert d.second_neighborhood(v) == brute_second_out(d, v)
        first = set(d.neighbors(v))
        second = set(d.second_neighborhood(v))
        assert not first & second and v not in first | second


@given(st.integers(0, 200), st.integers(1, 10))
def test_tournament_degree_sum(seed, n):
    t = random_digraph(n, seed, 1.0)
    assert t.is_tournament() and t.missing_pairs() == ()
    for v in range(n):
        assert t.degree(v) + t.in_mask(v).bit_count() == n - 1


def test_weighting_basics():
    w = Weighting.ones(3)
    assert w.is_uniform() and w.total(range(3)) == 3
    w = Weighting(["3/2", 1, 1])
    assert w[0] == Fraction(3, 2) and w[1] == 1
    with pytest.raises(ValueError):
        Weighting([1, -1])
    # one common denominator, computed at construction
    w = Weighting(["0", "2/3", "5/4", 3, Fraction(0), "7/6"])
    assert w.scale == 12 and w.ints == (0, 8, 15, 36, 0, 14)
    assert all(w.values[v] == Fraction(w.ints[v], w.scale) for v in range(len(w)))
    assert w.total(range(len(w))) == Fraction(73, 12) and not w.is_uniform()
    empty = Weighting([])
    assert empty.ints == () and empty.scale == 1 and empty.values == ()
    assert empty.is_uniform() and empty.total(()) == 0


def test_fingerprint_is_stable_and_injective_enough():
    assert fixture("C3").fingerprint() != fixture("TT3").fingerprint()
    assert fixture("C3").fingerprint() == fixture("C3").fingerprint()


@given(
    st.sampled_from(["digraph", "tournament", "empty"]),
    st.integers(0, 12),
    st.integers(0, 300),
)
def test_missing_pairs_match_the_definition(kind, n, seed):
    d = {
        "digraph": lambda: random_digraph(n, seed),
        "tournament": lambda: random_tournament(n, seed),
        "empty": lambda: Digraph(n),
    }[kind]()
    assert d.missing_pairs() == brute_missing_pairs(d)
