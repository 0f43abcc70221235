"""Fixtures, random generators, gadget constructors, and filtered search.

Everything here is deterministic given its parameters: random constructions
take a seed and use a private random.Random, so the same call always yields
the same digraph.
"""

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .digraph import Digraph
from .stars import edge, edge_pair
from .dependency import Analysis, dependency_digraph
from .errors import ConsistencyError, UnrealizableError
from . import theorems


_FIXTURE_DEFS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    # directed triangle
    "C3": (3, ((0, 1), (1, 2), (2, 0))),
    # transitive triangle, sink 2
    "TT3": (3, ((0, 1), (0, 2), (1, 2))),
    # 4-cycle; both diagonals missing
    "C4X": (4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    # losing 3-cycle gadget; missing {0,1}, {2,3}, {4,5}
    "LC3": (
        6,
        (
            (0, 2), (0, 5), (1, 3), (1, 4), (2, 4), (2, 1),
            (3, 5), (3, 0), (4, 0), (4, 3), (5, 1), (5, 2),
        ),
    ),
    # star with center 0 and leaves {1, 2} removed from a tournament
    "ST1": (4, ((1, 2), (2, 3), (3, 1), (0, 3))),
}

FIXTURE_NAMES = tuple(_FIXTURE_DEFS)


def fixture(name: str) -> Digraph:
    """One of the named reference instances (C3, TT3, C4X, LC3, ST1)."""
    try:
        n, arcs = _FIXTURE_DEFS[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}") from None
    return Digraph(n, arcs)


# ---------------------------------------------------------------------------
# random generators


def random_tournament(n: int, seed: int) -> Digraph:
    rng = random.Random(f"tournament|{n}|{seed}")
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, arcs)


def random_digraph(n: int, seed: int, density: float = 0.5) -> Digraph:
    """Digon-free random digraph: each pair is forward, backward, or absent."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(f"digraph|{n}|{seed}|{density}")
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, arcs)


def all_tournaments(n: int) -> Iterator[Digraph]:
    """Every labeled tournament on n vertices (2^C(n,2) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for bits in range(1 << len(pairs)):
        arcs = [
            (u, v) if bits >> i & 1 else (v, u) for i, (u, v) in enumerate(pairs)
        ]
        yield Digraph(n, arcs)


def all_digraphs(n: int) -> Iterator[Digraph]:
    """Every labeled digon-free digraph on n vertices (3^C(n,2) of them)."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for combo in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for choice, (u, v) in zip(combo, pairs):
            if choice == 1:
                arcs.append((u, v))
            elif choice == 2:
                arcs.append((v, u))
        yield Digraph(n, arcs)


# ---------------------------------------------------------------------------
# all-kings tournaments

_ALL_KINGS_CACHE: dict[int, Digraph] = {}


def all_kings_tournament(n: int) -> Digraph:
    """A tournament in which every vertex is a king; exists iff n not in {2,4}.

    Odd n: the rotational tournament (i beats the next (n-1)/2 vertices).
    Even n >= 6: deterministic seeded search, verified by the king oracle.
    """
    if n in (2, 4):
        raise UnrealizableError(f"no all-kings tournament exists on {n} vertices")
    if n < 1:
        raise ValueError("n must be positive")
    if n in _ALL_KINGS_CACHE:
        return _ALL_KINGS_CACHE[n]
    if n % 2 == 1:
        half = (n - 1) // 2
        arcs = [(v, (v + d) % n) for v in range(n) for d in range(1, half + 1)]
        candidates = [Digraph(n, arcs)]
    else:
        candidates = (random_tournament(n, seed) for seed in range(10_000))
    # the one verification, of the construction and of every search candidate
    t = next((c for c in candidates if theorems.all_kings(c)), None)
    if t is None:
        raise ConsistencyError(f"no all-kings tournament found for n={n}")
    _ALL_KINGS_CACHE[n] = t
    return t


# ---------------------------------------------------------------------------
# star deletion


def delete_disjoint_stars(t: Digraph, stars: Sequence[tuple[int, Iterable[int]]]) -> Digraph:
    """Remove the arcs realizing the given disjoint stars from a tournament."""
    if not t.is_tournament():
        raise ValueError("delete_disjoint_stars expects a tournament")
    seen: set[int] = set()
    remove = []
    for center, leaves in stars:
        leaves = tuple(leaves)
        block = {center, *leaves}
        if len(block) != len(leaves) + 1 or block & seen:
            raise ValueError("star vertex sets must be pairwise disjoint")
        seen |= block
        # a tournament joins every pair, and the block check keeps a != center
        for a in leaves:
            remove.append((center, a) if t.has_arc(center, a) else (a, center))
    return t.with_arcs(remove=remove)


def random_star_deleted(
    n: int, seed: int, shapes: Sequence[int] | None = None
) -> Digraph:
    """Random tournament minus random disjoint stars.

    shapes gives the leaf count of each star, each at least 1; when omitted,
    between one and three stars with random sizes are carved out of the
    vertex set.
    """
    if shapes is not None and any(leaves < 1 for leaves in shapes):
        raise ValueError(f"every star needs at least one leaf, got shapes {list(shapes)}")
    rng = random.Random(f"star-deleted|{n}|{seed}|{shapes}")
    t = random_tournament(n, rng.randrange(1 << 30))
    verts = list(range(n))
    rng.shuffle(verts)
    if shapes is None:
        shapes = []
        budget = n
        for _ in range(rng.randint(1, 3)):
            if budget < 2:
                break
            size = rng.randint(1, min(3, budget - 1))
            shapes.append(size)
            budget -= size + 1
    stars = []
    pos = 0
    for leaves in shapes:
        block = verts[pos : pos + leaves + 1]
        if len(block) < leaves + 1:
            raise ValueError(f"{n} vertices cannot host stars shaped {list(shapes)}")
        stars.append((block[0], block[1:]))
        pos += leaves + 1
    return delete_disjoint_stars(t, stars)


# ---------------------------------------------------------------------------
# losing-cycle gadget


def cycle_gadget_roles(k: int) -> tuple[list[int], list[int]]:
    """Vertex ids (a_1..a_k, b_1..b_k) of losing_cycle_gadget(k)."""
    return [2 * i for i in range(k)], [2 * i + 1 for i in range(k)]


def _gadget_target(role: str, i: int, t: int, k: int) -> int:
    """Vertex hit by the i-th a/b vertex at distance t around the cycle.

    Targets alternate roles with t; when the index wraps past k and k is
    even, the roles twist once more (the cycle closes a->b for even k).
    """
    want_a = (role == "a") == (t % 2 == 1)
    j = i + t
    if j >= k:
        j -= k
        if k % 2 == 0:
            want_a = not want_a
    return 2 * j if want_a else 2 * j + 1


def losing_cycle_gadget(k: int) -> Digraph:
    """A digraph on 2k vertices whose dependency digraph is a directed k-cycle.

    Vertices 2i and 2i+1 are a_{i+1} and b_{i+1}; the pairs {a_i, b_i} are
    the missing edges and every vertex has d+ = d- = d++ = k-1.  The realized
    dependency digraph is verified before returning.
    """
    if k < 2:
        raise ValueError("the losing cycle needs k >= 2")
    arcs = []
    for i in range(k):
        for t in range(1, k):
            arcs.append((2 * i, _gadget_target("a", i, t, k)))
            arcs.append((2 * i + 1, _gadget_target("b", i, t, k)))
    d = Digraph(2 * k, arcs)
    a, b = cycle_gadget_roles(k)
    expected = {
        (edge(a[i], b[i]), edge(a[(i + 1) % k], b[(i + 1) % k])) for i in range(k)
    }
    dd = dependency_digraph(d)
    if set(dd.arcs) != expected:
        raise ConsistencyError(
            f"losing_cycle_gadget({k}) realized a wrong dependency digraph: "
            f"{sorted((edge_pair(x), edge_pair(y)) for x, y in dd.arcs)}"
        )
    for v in range(2 * k):
        if not d.degree(v) == d.in_mask(v).bit_count() == d.second_degree(v) == k - 1:
            raise ConsistencyError(
                f"losing_cycle_gadget({k}): vertex {v} violates the degree identities"
            )
    return d


# ---------------------------------------------------------------------------
# structured proposals for filtered search
#
# Pure rejection sampling essentially never hits positive dependency-degree
# hypotheses, so each predicate gets a skeleton whose losing relations are
# forced by construction; check_hypotheses stays the only admission authority.


def _tournament_within(rng: random.Random, block: Sequence[int]) -> list[tuple[int, int]]:
    arcs = []
    for i, u in enumerate(block):
        for v in block[i + 1 :]:
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return arcs


def _across(src: Sequence[int], dst: Sequence[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in src for v in dst]


def _with_padding(
    core_n: int, arcs: list[tuple[int, int]], n: int, rng: random.Random
) -> Digraph:
    """Extend a core construction to n vertices with dominating pad vertices.

    Every pad beats every core vertex; uniformity keeps the core's losing
    relations intact.  Pads play a random tournament among themselves.
    """
    pads = list(range(core_n, n))
    arcs += _across(pads, range(core_n))
    arcs += _tournament_within(rng, pads)
    return Digraph(n, arcs)


def _propose_single_star(n: int, rng: random.Random) -> Digraph:
    leaves = rng.randint(1, max(1, n - 2))
    return random_star_deleted(n, rng.randrange(1 << 30), [leaves])


def _two_star_core(rng: random.Random, na: int, nb: int) -> tuple[int, list]:
    """x=0, y=1, A, B with forced complete-bipartite dependency relations."""
    a = list(range(2, 2 + na))
    b = list(range(2 + na, 2 + na + nb))
    arcs = [(0, 1)]
    arcs += _across([1], a)      # y -> A
    arcs += _across(b, [0])      # B -> x
    arcs += _across(a, b)        # A -> B
    arcs += _tournament_within(rng, a)
    arcs += _tournament_within(rng, b)
    return 2 + na + nb, arcs


def _propose_two_stars(n: int, rng: random.Random) -> Digraph:
    room = n - 2
    na = rng.randint(1, max(1, room - 1))
    nb = rng.randint(1, max(1, room - na))
    core_n, arcs = _two_star_core(rng, na, nb)
    return _with_padding(core_n, arcs, n, rng)


def _three_star_core(rng: random.Random, na: int, nb: int, nc: int) -> tuple[int, list]:
    """Centers 0 -> 1 -> 2 -> 0 with the cyclic leaf pattern forced."""
    a = list(range(3, 3 + na))
    b = list(range(3 + na, 3 + na + nb))
    c = list(range(3 + na + nb, 3 + na + nb + nc))
    arcs = [(0, 1), (1, 2), (2, 0)]
    arcs += _across(b, [0]) + _across([0], c)   # B -> x -> C
    arcs += _across(c, [1]) + _across([1], a)   # C -> y -> A
    arcs += _across(a, [2]) + _across([2], b)   # A -> z -> B
    arcs += _across(a, b) + _across(b, c) + _across(c, a)
    for block in (a, b, c):
        arcs += _tournament_within(rng, block)
    return 3 + na + nb + nc, arcs


def _propose_three_stars(n: int, rng: random.Random) -> Digraph:
    room = n - 3
    na = rng.randint(1, max(1, room - 2))
    nb = rng.randint(1, max(1, room - na - 1))
    nc = rng.randint(1, max(1, room - na - nb))
    core_n, arcs = _three_star_core(rng, na, nb, nc)
    return _with_padding(core_n, arcs, n, rng)


def _propose_matching(n: int, rng: random.Random) -> Digraph:
    """One or two losing-cycle blocks, later blocks dominated by earlier ones."""
    ks = []
    room = n
    while room >= 4 and (not ks or (rng.random() < 0.4 and room >= 4)):
        k = rng.randint(2, room // 2)
        ks.append(k)
        room -= 2 * k
        if len(ks) == 2:
            break
    arcs: list[tuple[int, int]] = []
    offset = 0
    blocks = []
    for k in ks:
        g = losing_cycle_gadget(k)
        arcs += [(u + offset, v + offset) for u, v in g.arcs]
        blocks.append(list(range(offset, offset + 2 * k)))
        offset += 2 * k
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            arcs += _across(blocks[i], blocks[j])
    return _with_padding(offset, arcs, n, rng)


# 7-vertex cores (center 0, leaves {1, 2}, matching {3,4}, {5,6}) whose star
# edges sit inside a dependency component with positive min in/out degrees;
# found by exhaustive enumeration of the 2^17 pair orientations, one core
# per realized dependency shape.
_STAR_MATCHING_CORES: tuple[tuple[tuple[int, int], ...], ...] = (
    ((0, 4), (1, 3), (2, 1), (2, 3), (3, 0), (4, 1), (4, 2), (5, 0), (5, 1),
     (5, 2), (5, 3), (5, 4), (6, 0), (6, 1), (6, 2), (6, 3), (6, 4)),
    ((0, 3), (0, 4), (0, 6), (1, 3), (1, 4), (1, 5), (2, 1), (2, 3), (2, 4),
     (2, 5), (5, 0), (5, 3), (5, 4), (6, 1), (6, 2), (6, 3), (6, 4)),
    ((0, 4), (0, 6), (1, 3), (1, 5), (2, 1), (2, 3), (2, 5), (3, 0), (3, 6),
     (4, 1), (4, 2), (4, 5), (5, 0), (5, 3), (6, 1), (6, 2), (6, 4)),
    ((0, 3), (0, 6), (1, 4), (1, 5), (2, 1), (2, 4), (2, 5), (3, 1), (3, 2),
     (3, 6), (4, 0), (4, 5), (5, 0), (5, 3), (6, 1), (6, 2), (6, 4)),
)


def _relabel(d: Digraph, rng: random.Random) -> Digraph:
    perm = list(range(d.n))
    rng.shuffle(perm)
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


def _propose_star_matching(n: int, rng: random.Random) -> Digraph:
    """A star woven into a dependency cycle, plus optional matching blocks.

    Gate-passing fills of the 7-vertex pattern (star {0,1}, {0,2} plus two
    matching edges) are vanishingly rare under random sampling, so one of
    the pre-enumerated cores is used and diversified with an optional
    losing-cycle block and uniform padding.
    """
    if n < 7 or rng.random() < 0.3:
        return _propose_matching(n, rng)
    arcs = list(rng.choice(_STAR_MATCHING_CORES))
    offset = 7
    if n - offset >= 4 and rng.random() < 0.5:
        k = rng.randint(2, (n - offset) // 2)
        g = losing_cycle_gadget(k)
        block = list(range(offset, offset + 2 * k))
        arcs += [(u + offset, v + offset) for u, v in g.arcs]
        arcs += _across(list(range(7)), block)
        offset += 2 * k
    return _with_padding(offset, arcs, n, rng)


_PROPOSERS: dict[str, Callable[[int, random.Random], Digraph]] = {
    "kings-stars": _propose_three_stars,
    "star+matching": _propose_star_matching,
    "matching-F-empty-no-sink": _propose_matching,
    "single-star": _propose_single_star,
    "two-stars": _propose_two_stars,
    "two-stars-two": _propose_two_stars,
    "three-stars": _propose_three_stars,
    "three-stars-two": _propose_three_stars,
}

SEARCH_PREDICATES = tuple(_PROPOSERS)

# the least n filtered_search accepts, but for the three-star proposers;
# see search_floor
MIN_SEARCH_N = 4


def search_floor(predicate: str) -> int:
    """The least n filtered_search(predicate, n, ...) accepts.

    MIN_SEARCH_N, or 6 for the predicates of `_propose_three_stars`, whose
    core has three centers and at least one leaf per star, so no smaller
    size could admit an instance.
    """
    return 6 if _PROPOSERS.get(predicate) is _propose_three_stars else MIN_SEARCH_N


@dataclass(frozen=True)
class SearchResult:
    predicate: str
    instances: tuple[Digraph, ...]
    attempts: int


def filtered_search(
    predicate: str, n: int, seed: int, budget: int = 1000, count: int | None = None
) -> SearchResult:
    """Up to `count` distinct instances on <= n vertices passing the gate.

    Structured proposals supply the candidates; every candidate is re-checked
    with the hypothesis gate before admission.  Deterministic in (predicate,
    n, seed, budget, count).  Raises ValueError when n is below
    search_floor(predicate).
    """
    if predicate not in _PROPOSERS:
        raise ValueError(
            f"unknown predicate {predicate!r}; choose from {SEARCH_PREDICATES}"
        )
    floor = search_floor(predicate)
    if n < floor:
        raise ValueError(f"n = {n} is below the floor {floor} of the search for {predicate}")
    if count is None:
        count = budget
    gate = theorems._GATES[predicate]
    propose = _PROPOSERS[predicate]
    rng = random.Random(f"filtered-search|{predicate}|{n}|{seed}")
    kept: list[Digraph] = []
    seen: set[str] = set()
    attempts = 0
    for attempts in range(1, budget + 1):
        # sizes from min(6, n) up: n >= floor, and no floor exceeds 6
        size = rng.randint(min(6, n), n)
        try:
            cand = _relabel(propose(size, rng), rng)
        except (ValueError, ConsistencyError):
            continue
        if cand.fingerprint() in seen:
            continue
        if gate(Analysis(cand)).applicable:
            seen.add(cand.fingerprint())
            kept.append(cand)
            if len(kept) >= count:
                break
    return SearchResult(predicate, tuple(kept), attempts)


# ---------------------------------------------------------------------------
# instance specs (CLI `gen`)


@dataclass(frozen=True)
class InstanceSpec:
    kind: str
    params: tuple[tuple[str, str], ...] = ()

    # each kind and the keys `build` reads for it
    KINDS = {
        "fixture": ("name",),
        "random-tournament": ("n", "seed"),
        "random-digraph": ("n", "seed", "density"),
        "star-deleted": ("n", "seed", "shapes"),
        "losing-cycle-gadget": ("k",),
        "all-kings": ("n",),
    }

    def __post_init__(self) -> None:
        """Refuse an unknown kind, and a key that the kind does not read or
        that repeats: otherwise a typo would quietly build another instance."""
        kinds = self.KINDS
        if self.kind not in kinds:
            raise ValueError(f"unknown instance kind {self.kind!r}; choose from {tuple(kinds)}")
        keys = [k for k, _ in self.params]
        for k in keys:
            if k not in kinds[self.kind]:
                raise ValueError(f"{self.kind} reads no key {k!r}; it reads {kinds[self.kind]}")
            if keys.count(k) > 1:
                raise ValueError(f"key {k!r} repeated in the instance spec")

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return default

    @classmethod
    def parse(cls, tokens: Sequence[str]) -> "InstanceSpec":
        """`kind key=value ...`, e.g. `losing-cycle-gadget k=3`."""
        if not tokens:
            raise ValueError("empty instance spec")
        params = []
        for tok in tokens[1:]:
            if "=" not in tok:
                raise ValueError(f"malformed parameter {tok!r} (expected key=value)")
            k, _, v = tok.partition("=")
            params.append((k, v))
        return cls(tokens[0], tuple(params))

    def text(self) -> str:
        return " ".join([self.kind, *(f"{k}={v}" for k, v in self.params)])


def build(spec: InstanceSpec) -> Digraph:
    """Materialize an InstanceSpec; same spec, same digraph."""
    kind = spec.kind
    if kind == "fixture":
        return fixture(spec.get("name", "C3"))
    n = int(spec.get("n", "6"))
    seed = int(spec.get("seed", "0"))
    if kind == "random-tournament":
        return random_tournament(n, seed)
    if kind == "random-digraph":
        return random_digraph(n, seed, float(spec.get("density", "0.5")))
    if kind == "star-deleted":
        shapes_text = spec.get("shapes")
        shapes = (
            [int(s) for s in shapes_text.split(",")] if shapes_text else None
        )
        return random_star_deleted(n, seed, shapes)
    if kind == "losing-cycle-gadget":
        return losing_cycle_gadget(int(spec.get("k", "3")))
    # the last of InstanceSpec.KINDS: the spec refused any other kind
    return all_kings_tournament(n)
