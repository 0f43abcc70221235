import random

import pytest
from hypothesis import given, strategies as st

from seymour.digraph import Digraph
from seymour.errors import NotDisjointStarsError
from seymour.forge import (
    all_digraphs,
    delete_disjoint_stars,
    fixture,
    random_digraph,
    random_star_deleted,
    random_tournament,
)
from seymour.stars import (
    Star,
    canonical_stars,
    center_assignments,
    convenient_orientations,
    decompose,
    edge,
    is_convenient,
    orient_toward_centers,
)

from oracles import brute_convenient, brute_missing_pairs, brute_star_forest


def test_decompose_c4x_is_matching():
    dec = decompose(fixture("C4X"))
    assert dec.stars == () and dec.matching == ((0, 2), (1, 3))
    assert dec.component_count() == 2


def _with_missing(n: int, missing) -> Digraph:
    """The digraph on n vertices whose missing pairs are exactly `missing`,
    every other pair oriented from the smaller vertex."""
    gone = set(missing)
    return Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in gone])


def _digraphs_for_decompose():
    """Every digraph on <= 4 vertices, one digraph per missing graph on 5
    vertices (decompose reads only the missing graph), and a seeded sample
    of missing graphs on 6 to 8 vertices."""
    for n in range(5):
        yield from all_digraphs(n)
    pairs5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for bits in range(1 << len(pairs5)):
        yield _with_missing(5, [p for i, p in enumerate(pairs5) if bits >> i & 1])
    rng = random.Random(20)
    for _ in range(600):
        n = rng.randint(6, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        yield _with_missing(n, rng.sample(pairs, rng.randint(1, n)))


def test_decompose_matches_the_star_forest_definition():
    verdicts = {True: 0, False: 0}
    for d in _digraphs_for_decompose():
        want = brute_star_forest(brute_missing_pairs(d))
        verdicts[want is not None] += 1
        if want is None:
            with pytest.raises(NotDisjointStarsError):
                decompose(d)
            continue
        dec = decompose(d)
        assert {(s.center, s.leaves) for s in dec.stars} == want[0]
        assert set(dec.matching) == want[1]
    assert verdicts[True] > 500 and verdicts[False] > 500


def test_decompose_star_plus_matching():
    t = random_tournament(7, 3)
    d = delete_disjoint_stars(t, [(0, (1, 2)), (4, (5,))])
    dec = decompose(d)
    assert dec.stars == (Star(0, (1, 2)),)
    assert dec.matching == ((4, 5),)


def test_decompose_rejects_triangle():
    # the empty digraph on 3 vertices misses a triangle
    with pytest.raises(NotDisjointStarsError):
        decompose(Digraph(3, []))


def test_decompose_rejects_path_of_length_three():
    # path 0-1-2-3 in the missing graph: component has a degree-2 non-center
    t = random_tournament(4, 0)
    path = {frozenset(p) for p in [(0, 1), (1, 2), (2, 3)]}
    d = t.with_arcs(remove=[a for a in t.arcs if frozenset(a) in path])
    with pytest.raises(NotDisjointStarsError):
        decompose(d)


def test_orient_toward_centers_examples():
    assert orient_toward_centers((Star(0, (1, 2)),)) == ((1, 0), (2, 0))
    dec = decompose(fixture("C4X"))
    assert orient_toward_centers(canonical_stars(dec)) == ((2, 0), (3, 1))
    assert orient_toward_centers(()) == ()


def test_center_assignments_enumerates_matching_readings():
    dec = decompose(fixture("C4X"))
    combos = list(center_assignments(dec))
    assert len(combos) == 4
    centers = {tuple(s.center for s in combo) for combo in combos}
    assert centers == {(0, 1), (0, 3), (2, 1), (2, 3)}


def test_convenient_orientations_examples():
    assert convenient_orientations(fixture("C4X"), (0, 2)) == ()
    assert convenient_orientations(fixture("LC3"), (0, 1)) == ()


def test_convenient_vacuous_when_no_in_neighbors():
    # a beats everything it is adjacent to, so (a, b) is vacuously convenient
    d = Digraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])  # missing {0,3}
    assert (0, 3) in convenient_orientations(d, (0, 3))


def test_convenient_orientations_requires_missing_edge():
    with pytest.raises(ValueError):
        convenient_orientations(fixture("C3"), (0, 1))


@given(st.integers(0, 300), st.integers(4, 10))
def test_convenient_matches_brute_force(seed, n):
    d = random_star_deleted(n, seed)
    for u, v in d.missing_pairs():
        fast = convenient_orientations(d, (u, v))
        slow = tuple(
            o for o in ((u, v), (v, u)) if brute_convenient(d, *o)
        )
        assert fast == slow


# every ordered pair, adjacent ones and pairs with b -> a included
@given(st.integers(0, 300), st.integers(2, 9))
def test_is_convenient_matches_brute_force_on_every_pair(seed, n):
    d = random_digraph(n, seed)
    for a in range(n):
        for b in range(n):
            if a != b:
                assert is_convenient(d, a, b) == brute_convenient(d, a, b)


@given(st.integers(0, 300), st.integers(4, 10))
def test_decomposition_reassembles_missing_graph(seed, n):
    d = random_star_deleted(n, seed)
    dec = decompose(d)
    edges = [tuple(sorted(e)) for s in dec.stars for e in s.edges] + list(dec.matching)
    assert sorted(edges) == list(d.missing_pairs())
    t = d.complete(orient_toward_centers(canonical_stars(dec)))
    assert t.is_tournament()
