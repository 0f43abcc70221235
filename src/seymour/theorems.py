"""SNP oracle, king tests, hypothesis gates, and witness procedures.

Gates take the Analysis of a digraph (its star decomposition, dependency
digraph and component index, each built once): `_GATES[tid](Analysis(d))`,
and check_hypotheses(d) runs every gate on one shared Analysis.  Every
procedure follows the same shape: build one Analysis, check the hypotheses
of its theorem with it (raising HypothesisFailedError when they do not
hold), run the constructive argument on the same Analysis, and return an
SnpCertificate whose witnesses have been re-checked against the brute-force
second-neighborhood oracle.  A witness that fails the oracle raises
ConsistencyError: a bug in the construction must never produce a quietly
wrong certificate.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

from .digraph import Digraph, Weighting, mask_to_set, resolve_weights, set_to_mask, VertexSet
from .stars import (
    MAX_READINGS,
    Edge,
    Star,
    StarDecomposition,
    center_assignments,
    convenient_orientations,
    edge,
    edge_pair,
    orient_toward_centers,
)
from .dependency import (
    Analysis,
    ComponentIndex,
    DependencyDigraph,
    j_of,
    propagate_roles,
)
from .orders import (
    DEFAULT_EXACT_CAP,
    _feed_split,
    default_sediment_budget,
    exact_median_order,
    good_median_order,
    sediment_within,
)
from .errors import ConsistencyError, HypothesisFailedError


# ---------------------------------------------------------------------------
# oracle


def has_snp(d: Digraph, v: int, w: Weighting | None = None) -> bool:
    """True when the second out-neighborhood is at least as heavy as the first."""
    if w is None:
        return d.degree(v) <= d.second_degree(v)
    ws = resolve_weights(d, w)
    return ws.total(d.neighbors(v)) <= ws.total(d.second_neighborhood(v))


def snp_set(d: Digraph, w: Weighting | None = None) -> VertexSet:
    return tuple(v for v in range(d.n) if has_snp(d, v, w))


def _reaches(outs: Sequence[int], v: int, targets: int, members: int) -> bool:
    """True when v reaches every vertex of the mask targets within two steps
    whose middle vertex lies in the mask members; outs[u] is N+(u)."""
    need = targets & ~outs[v] & ~(1 << v)
    first = outs[v] & members
    while need and first:
        low = first & -first
        need &= ~outs[low.bit_length() - 1]
        first ^= low
    return not need


def is_king(t: Digraph, v: int) -> bool:
    """In a tournament: every other vertex is reached in at most two steps."""
    t._check(v)
    if not t.is_tournament():
        raise ValueError("is_king is defined for tournaments")
    full = (1 << t.n) - 1
    return _reaches([t.out_mask(u) for u in range(t.n)], v, full, full)


def all_kings(t: Digraph) -> bool:
    return all(is_king(t, v) for v in range(t.n))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class OracleVerdict:
    vertex: int
    out_degree: int
    second_degree: int

    @property
    def ok(self) -> bool:
        return self.out_degree <= self.second_degree


@dataclass(frozen=True)
class HypothesisCheck:
    clause: str
    ok: bool
    evidence: str = ""


@dataclass(frozen=True)
class GateResult:
    """The checks of one theorem's hypotheses.

    roles is the star reading a gate found for its procedure: the stars of
    the all-kings centers (kings-stars) or the first directed-triangle
    reading (x, A, y, B, z, C) (three-stars gates); None otherwise.
    """

    theorem_id: str
    applicable: bool
    checks: tuple[HypothesisCheck, ...]
    roles: tuple | None = None

    def failing(self) -> tuple[HypothesisCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


@dataclass(frozen=True)
class SnpCertificate:
    theorem_id: str
    hypotheses: tuple[HypothesisCheck, ...]
    witnesses: VertexSet
    verdicts: tuple[OracleVerdict, ...]
    trace: tuple[str, ...] = ()
    # always (): no procedure records a finding; kept because the golden
    # certificates and the theorem-corpus digest read it
    findings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return bool(self.witnesses) and all(v.ok for v in self.verdicts)


def _certify(
    d: Digraph,
    gate: GateResult,
    witnesses: Sequence[int],
    trace: Sequence[str],
) -> SnpCertificate:
    verdicts = tuple(
        OracleVerdict(w, d.degree(w), d.second_degree(w)) for w in witnesses
    )
    for v in verdicts:
        if not v.ok:
            raise ConsistencyError(
                f"{gate.theorem_id}: witness {v.vertex} fails the oracle "
                f"(d+={v.out_degree}, d++={v.second_degree})"
            )
    return SnpCertificate(
        theorem_id=gate.theorem_id,
        hypotheses=gate.checks,
        witnesses=tuple(witnesses),
        verdicts=verdicts,
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# hypothesis gates

def _stars_check(a: Analysis) -> HypothesisCheck:
    if a.dec is None:
        return HypothesisCheck("missing graph is disjoint stars", False, a.dec_error)
    return HypothesisCheck(
        "missing graph is disjoint stars",
        True,
        f"{len(a.dec.stars)} star(s), {len(a.dec.matching)} single edge(s)",
    )


def _delta_check(clause: str, value: int | None) -> HypothesisCheck:
    if value is None:
        return HypothesisCheck(clause, True, "no missing edges: vacuous")
    return HypothesisCheck(clause, value > 0, f"value {value}")


def _no_sink_check(d: Digraph) -> HypothesisCheck:
    sinks = d.sinks()
    return HypothesisCheck(
        "no sink", not sinks, f"sinks {list(sinks)}" if sinks else "no sink"
    )


def _star_count_check(dec, count: int) -> HypothesisCheck:
    ok = dec is not None and dec.component_count() == count
    return HypothesisCheck(
        f"missing graph is exactly {count} disjoint star(s)",
        ok,
        "" if dec is None else f"{dec.component_count()} component(s)",
    )


def _gate(
    theorem_id: str, checks: Sequence[HypothesisCheck], roles: tuple | None = None
) -> GateResult:
    return GateResult(theorem_id, all(c.ok for c in checks), tuple(checks), roles)


def gate_havet_thomasse(a: Analysis) -> GateResult:
    d = a.d
    # a pair is missing or holds exactly one arc (no digons)
    missing = d.n * (d.n - 1) // 2 - d.arc_count
    checks = (
        HypothesisCheck("digraph is a tournament", missing == 0, f"{missing} missing pair(s)"),
    )
    return _gate("havet-thomasse", checks)


def _kings_reading(a: Analysis) -> tuple[Star, ...] | None:
    """The first star reading whose centers induce an all-kings tournament.

    Without missing edges the reading is empty; None when no reading works.
    The centers of different stars are always adjacent, because a missing
    edge lies inside one star, so they induce a tournament and a reading
    only needs every center to be a king within the center mask.

    The readings are walked depth first in center_assignments' order: the
    matching edges in turn, each centered at its first endpoint before its
    second, with the first m - 8 of m > 8 edges kept at their first
    endpoint (MAX_READINGS = 2 ** 8), so the walk, at most 8 levels deep,
    covers the same readings and returns the same first one.  A node has
    chosen the centers C and leaves P, C plus both endpoints of every
    undecided edge, as the vertices a final center mask may hold.  The
    node is pruned when some
    vertex of C fails to reach all of C within two steps inside P: going
    deeper only adds to C and removes from P, so no reading below it
    passes.  So every node kept has each vertex of C reaching all of C
    inside P, and a child (C + c, P - leaf) needs only the pairs that can
    change: c reaching all of C + c, every old center reaching c, and the
    old centers with an arc to leaf, whose two-step paths may have run
    through it, reaching all of C.  At a leaf P = C, and what the walk
    holds is the all-kings test.
    """
    dec = a.dec
    if dec.component_count() == 0:
        return ()
    d = a.d
    outs = [d.out_mask(v) for v in range(d.n)]
    ins = [d.in_mask(v) for v in range(d.n)]
    matching = dec.matching
    fixed = max(0, len(matching) - (MAX_READINGS.bit_length() - 1))
    free = matching[fixed:]

    def keeps(c: int, leaf: int, centers: int, members: int) -> bool:
        # c reaches the old centers and they reach c (a reach along ins);
        # an old center with an arc to leaf may have used it as a middle
        if not (_reaches(outs, c, centers, members) and _reaches(ins, c, centers, members)):
            return False
        m = centers & ins[leaf]
        while m:
            low = m & -m
            if not _reaches(outs, low.bit_length() - 1, centers, members):
                return False
            m ^= low
        return True

    def walk(i: int, centers: int, members: int) -> list[Star] | None:
        if i == len(free):
            return []
        u, v = free[i]
        for c, leaf in ((u, v), (v, u)):
            sub_m = members & ~(1 << leaf)
            if keeps(c, leaf, centers, sub_m):
                rest = walk(i + 1, centers | 1 << c, sub_m)
                if rest is not None:
                    return [Star(c, (leaf,)), *rest]
        return None

    chosen = [s.center for s in dec.stars] + [u for u, _ in matching[:fixed]]
    centers = set_to_mask(chosen)
    members = centers | set_to_mask(v for e in free for v in e)
    if not all(_reaches(outs, x, centers, members) for x in chosen):
        return None
    rest = walk(0, centers, members)
    if rest is None:
        return None
    return dec.stars + tuple(Star(u, (v,)) for u, v in matching[:fixed]) + tuple(rest)


def gate_kings_stars(a: Analysis) -> GateResult:
    checks = [_stars_check(a)]
    if a.dec is None:
        return _gate("kings-stars", checks)
    reading = _kings_reading(a)
    if reading is None:
        readings = 2 ** len(a.dec.matching)
        cut = ""
        if readings > MAX_READINGS:
            cut = f" among the first {MAX_READINGS} of {readings} readings"
        evidence = f"no center assignment{cut} induces an all-kings tournament"
    elif reading:
        evidence = f"centers {[s.center for s in reading]} induce an all-kings tournament"
    else:
        evidence = "no missing edges: vacuous"
    checks.append(
        HypothesisCheck("centers induce an all-kings tournament", reading is not None, evidence)
    )
    checks.append(_delta_check("delta-_Delta > 0", a.dd.min_in_degree))
    return _gate("kings-stars", checks, reading)


def gate_star_matching(a: Analysis) -> GateResult:
    dec = a.dec
    checks = [_stars_check(a)]
    shape_ok = dec is not None and len(dec.stars) <= 1
    checks.append(
        HypothesisCheck(
            "missing graph is one star plus a matching",
            shape_ok,
            "" if dec is None else f"{len(dec.stars)} multi-leaf star(s)",
        )
    )
    if not shape_ok:
        return _gate("star+matching", checks)
    dd = a.dd
    star_edges = set(dec.stars[0].edges) if dec.stars else set()
    bad = []
    for comp in a.ci.components:
        if not star_edges & set(comp):
            continue
        bad.extend(
            e for e in comp if dd.out_degree(e) == 0 or dd.in_degree(e) == 0
        )
    checks.append(
        HypothesisCheck(
            "components holding a star edge have min in/out degree > 0",
            not bad,
            f"degree-deficient edges {sorted(map(edge_pair, bad))}" if bad else "",
        )
    )
    return _gate("star+matching", checks)


def _path_component_ids(ci: ComponentIndex) -> list[int]:
    return [i for i in range(len(ci.components)) if ci.component_is_path(i)]


def gate_matching_f_empty(a: Analysis) -> GateResult:
    dec = a.dec
    checks = [_stars_check(a)]
    matching_ok = dec is not None and not dec.stars
    checks.append(
        HypothesisCheck(
            "missing graph is a matching",
            matching_ok,
            "" if dec is None else f"{len(dec.stars)} multi-leaf star(s)",
        )
    )
    if not matching_ok:
        return _gate("matching-F-empty-no-sink", checks)
    paths = _path_component_ids(a.ci)
    checks.append(
        HypothesisCheck(
            "F is empty (no path component in the dependency digraph)",
            not paths,
            f"{len(paths)} path component(s)" if paths else "all components are cycles",
        )
    )
    checks.append(_no_sink_check(a.d))
    return _gate("matching-F-empty-no-sink", checks)


def gate_single_star(a: Analysis) -> GateResult:
    dec = a.dec
    checks = [_stars_check(a)]
    ok = dec is not None and dec.component_count() <= 1
    checks.append(
        HypothesisCheck(
            "missing graph is a single star (possibly empty)",
            ok,
            "" if dec is None else f"{dec.component_count()} component(s)",
        )
    )
    return _gate("single-star", checks)


def gate_two_stars(a: Analysis) -> GateResult:
    checks = [_stars_check(a), _star_count_check(a.dec, 2)]
    if checks[1].ok:
        checks.append(_delta_check("delta_Delta > 0", a.dd.min_degree))
    return _gate("two-stars", checks)


def gate_two_stars_two(a: Analysis) -> GateResult:
    checks = [_stars_check(a), _star_count_check(a.dec, 2)]
    if checks[1].ok:
        checks.append(_delta_check("delta+_Delta > 0", a.dd.min_out_degree))
        checks.append(_delta_check("delta-_Delta > 0", a.dd.min_in_degree))
        checks.append(_no_sink_check(a.d))
    return _gate("two-stars-two", checks)


def _gate_three_common(a: Analysis) -> tuple[list[HypothesisCheck], tuple | None]:
    """Shape checks of the three-stars gates and the first directed-triangle
    reading; the triangle check is added only when there are exactly three
    stars."""
    checks = [_stars_check(a), _star_count_check(a.dec, 3)]
    roles = None
    if checks[1].ok:
        roles = next(_three_star_readings(a.d, a.dec), None)
        checks.append(
            HypothesisCheck(
                "centers form a directed triangle",
                roles is not None,
                "" if roles else "every center reading induces a transitive triangle",
            )
        )
    return checks, roles


def gate_three_stars(a: Analysis) -> GateResult:
    checks, roles = _gate_three_common(a)
    if checks[1].ok:
        checks.append(_delta_check("delta_Delta > 0", a.dd.min_degree))
    return _gate("three-stars", checks, roles)


def gate_three_stars_two(a: Analysis) -> GateResult:
    checks, roles = _gate_three_common(a)
    if checks[1].ok:
        checks.append(_delta_check("delta+_Delta > 0", a.dd.min_out_degree))
        checks.append(_delta_check("delta-_Delta > 0", a.dd.min_in_degree))
    checks.append(_no_sink_check(a.d))
    return _gate("three-stars-two", checks, roles)


# Every gate takes the Analysis of its digraph: `_GATES[tid](Analysis(d))`.
_GATES: dict[str, Callable[[Analysis], GateResult]] = {
    "havet-thomasse": gate_havet_thomasse,
    "kings-stars": gate_kings_stars,
    "star+matching": gate_star_matching,
    "matching-F-empty-no-sink": gate_matching_f_empty,
    "single-star": gate_single_star,
    "two-stars": gate_two_stars,
    "two-stars-two": gate_two_stars_two,
    "three-stars": gate_three_stars,
    "three-stars-two": gate_three_stars_two,
}

THEOREM_IDS = tuple(_GATES)


def check_hypotheses(d: Digraph) -> tuple[GateResult, ...]:
    """Every theorem gate evaluated on one digraph, in THEOREM_IDS order."""
    a = Analysis(d)
    return tuple(_GATES[tid](a) for tid in THEOREM_IDS)


def _require(
    gate_fn: Callable[[Analysis], GateResult], d: Digraph
) -> tuple[Analysis, GateResult]:
    """The analysis of d and its passing gate result; raise when the gate fails.

    Every procedure takes its witness from a nonempty order, so a digraph
    without vertices is refused here, also when its gate passes.
    """
    a = Analysis(d)
    gate = gate_fn(a)
    if not gate.applicable:
        first = gate.failing()[0]
        raise HypothesisFailedError(gate.theorem_id, first.clause, first.evidence)
    if d.n == 0:
        raise HypothesisFailedError(gate.theorem_id, "digraph has a vertex", "n = 0")
    return a, gate


# ---------------------------------------------------------------------------
# role helpers


def _two_star_claim_holds(d: Digraph, x: int, a_set, y: int, b_set) -> bool:
    return all(d.has_arc(y, a) for a in a_set) and all(d.has_arc(b, x) for b in b_set)


def _two_star_readings(d: Digraph, dec: StarDecomposition):
    """(x, A, y, B) with x -> y, per star reading."""
    for s1, s2 in center_assignments(dec):
        sx, sy = (s1, s2) if d.has_arc(s1.center, s2.center) else (s2, s1)
        yield (sx.center, sx.leaves, sy.center, sy.leaves)


def _three_star_claim_holds(d, x, a_set, y, b_set, z, c_set) -> bool:
    return (
        all(d.has_arc(b, x) for b in b_set)
        and all(d.has_arc(x, c) for c in c_set)
        and all(d.has_arc(c, y) for c in c_set)
        and all(d.has_arc(y, a) for a in a_set)
        and all(d.has_arc(a, z) for a in a_set)
        and all(d.has_arc(z, b) for b in b_set)
    )


def _three_star_readings(d: Digraph, dec: StarDecomposition):
    """(x, A, y, B, z, C) with x -> y -> z -> x, per star reading."""
    for stars in center_assignments(dec):
        s1, s2, s3 = sorted(stars, key=lambda s: s.center)
        for sx, sy, sz in ((s1, s2, s3), (s1, s3, s2)):
            if (
                d.has_arc(sx.center, sy.center)
                and d.has_arc(sy.center, sz.center)
                and d.has_arc(sz.center, sx.center)
            ):
                yield (sx.center, sx.leaves, sy.center, sy.leaves, sz.center, sz.leaves)


def _claimed_roles(d: Digraph, readings, claim, error: str):
    """The first reading satisfying claim; ConsistencyError(error) when none does.

    The gate's positive dependency degrees force the claimed arc pattern,
    so a reading without it is no fallback: the roles must satisfy claim.
    """
    for roles in readings:
        if claim(d, *roles):
            return roles
    raise ConsistencyError(error)


# ---------------------------------------------------------------------------
# orientation helpers


def _center_of(stars: Sequence[Star]) -> dict[Edge, int]:
    """The center of the star holding each missing edge."""
    return {edge(a, s.center): s.center for s in stars for a in s.leaves}


def _orient_missing_edges(stars: Sequence[Star], dd: DependencyDigraph) -> list[str]:
    """One note per missing edge, in dd.edges order: its orientation toward
    its star center, which `_center_feed` completes.

    The two- and three-stars gates require min(delta+_Delta,
    delta-_Delta) > 0, so no edge is good (in-degree 0 in the dependency
    digraph) and none is oriented conveniently.
    """
    center_of = _center_of(stars)
    return [f"{edge_pair(e)} toward center {center_of[e]}" for e in dd.edges]


def _center_feed(
    d: Digraph, stars: Sequence[Star], tiebreak: Sequence[int], cap: int
) -> tuple[int, str]:
    """The completion step of the one-witness proofs.

    Every missing edge of d is oriented toward its star's center, and the
    feed of an exact median order of that tournament maximizing the index
    sum of tiebreak is returned with the trace line naming the order and
    the tiebreak.
    """
    t = d.complete(orient_toward_centers(stars))
    res = exact_median_order(t, tiebreak=tiebreak, cap=cap)
    line = f"median order {list(res.order)}"
    if len(tiebreak) == 1:
        line += f" (index of {tiebreak[0]} maximal)"
    elif tiebreak:
        line += f" (index sum of {','.join(map(str, tiebreak))} maximal)"
    return res.order[-1], line


# ---------------------------------------------------------------------------
# the shared sedimentation argument for second witnesses

CandidateFn = Callable[[VertexSet, int], list[int]]


def _default_candidates(jset: VertexSet, feed: int) -> list[int]:
    return [feed] + [v for v in jset if v != feed]


def _second_witness(
    d: Digraph, order: Sequence[int], candidates: CandidateFn = _default_candidates
) -> tuple[int, list[str]]:
    """Second SNP vertex from sedimenting the prefix of a good median order.

    order is a good median order of d whose feed order[-1], the first
    witness, is a whole vertex.  The prefix is sedimented inside d minus
    the feed, on d's masks (`sediment_within`); the stable branch uses the
    settled order, the periodic branch an order in the cycle where some
    out-neighbor of the feed is bad.  candidates maps (J(feed'), feed') of
    the chosen order to an ordered list of contenders, and the first is the
    designated witness.  Every contender lies in the prefix, so it differs
    from the feed.  J of a feed with a missing edge in the prefix reads the
    prefix's own Analysis, built on first need; a tournament prefix has
    only whole vertices, so it builds no subdigraph and no Analysis.
    """
    first = order[-1]
    prefix = tuple(order[:-1])

    def prefix_k_of_xi() -> list[VertexSet]:
        sub, mapping = d.induced(prefix)
        return [tuple(mapping[i] for i in k) for k in Analysis(sub).ci.k_of_xi]

    # unit weights: one class holding the prefix
    unit = [(1, set_to_mask(prefix))]
    budget = default_sediment_budget(len(prefix))
    run = sediment_within(d, prefix, unit, budget, prefix_k_of_xi)
    outcome = run.outcome
    if outcome.kind == "stable":
        chosen = len(run.orders) - 1
        trace = [f"prefix stable after {outcome.rank} step(s)"]
    elif outcome.kind == "periodic":
        outs = d.out_mask(first)
        for q in range(outcome.cycle_length):
            chosen = outcome.cycle_start + q
            hit = outs & run.bad[chosen]
            if hit:
                trace = [
                    f"prefix periodic (cycle length {outcome.cycle_length}); "
                    f"out-neighbor {(hit & -hit).bit_length() - 1} of {first} "
                    f"is bad at cycle step {q}"
                ]
                break
        else:
            raise ConsistencyError(
                "periodic sedimentation cycle has no order where an "
                f"out-neighbor of {first} is bad"
            )
    else:
        raise ConsistencyError(f"sedimentation exhausted its budget on {len(prefix)} vertices")
    jset = mask_to_set(run.j[chosen])
    w = candidates(jset, run.orders[chosen][-1])[0]
    trace.append(f"second witness {w} from J {list(jset)}")
    return w, trace


def _tournament_witnesses(t: Digraph, cap: int) -> tuple[list[int], list[str]]:
    """One or (without a sink) two SNP vertices of a tournament."""
    res = exact_median_order(t, cap=cap)
    feed = res.order[-1]
    trace = [f"median order {list(res.order)}"]
    if t.has_sink():
        return [feed], trace + ["tournament has a sink: single witness"]
    second, extra = _second_witness(t, res.order)
    return [feed, second], trace + extra


def _interval_candidates(
    d: Digraph, centers: VertexSet, lead: VertexSet, inner_witnesses
) -> CandidateFn:
    """Contenders in J(feed) for the two-witness star procedures.

    When J holds every center, lead comes first, then inner_witnesses of the
    tournament J minus the centers; the feed and the rest of J follow.
    J minus the centers needs no tournament test: every missing edge meets
    a center.
    """

    def candidates(jset: VertexSet, feed: int) -> list[int]:
        cands = []
        if all(c in jset for c in centers):
            cands.extend(lead)
            rest = [v for v in jset if v not in centers]
            if rest:
                sub, mapping = d.induced(rest)
                cands.extend(mapping[w] for w in inner_witnesses(sub))
        for v in (feed, *jset):
            if v not in cands:
                cands.append(v)
        return cands

    return candidates


def _two_witnesses(
    a: Analysis,
    gate: GateResult,
    trace: list[str],
    inner: CandidateFn,
    cap: int,
    interval_note: str = "",
) -> SnpCertificate:
    """The common end of the matching, two-stars and three-stars two-witness
    procedures when the stars do not cover V(D).

    D must be good, which `good_median_order` checks; the feed of a good
    median order is the first witness.
    When J(feed) is a K(xi) the witnesses are the first two contenders of
    the interval, else the second comes from sedimenting the prefix.
    inner orders the contenders of both branches; interval_note ends the
    interval branch's trace line.
    """
    d = a.d
    order = good_median_order(a, cap=cap)
    xn = order[-1]
    trace.append(f"good median order {list(order)}")
    jset = j_of(a, xn)
    if len(jset) > 1:
        trace.append(f"feed interval K {list(jset)}{interval_note}")
        return _certify(d, gate, inner(jset, xn)[:2], trace)
    second, extra = _second_witness(d, order, inner)
    return _certify(d, gate, [xn, second], trace + extra)


# ---------------------------------------------------------------------------
# witness procedures


def havet_thomasse_witnesses(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    """Feed of an exact median order; a second vertex when there is no sink."""
    _, gate = _require(gate_havet_thomasse, d)
    witnesses, trace = _tournament_witnesses(d, cap)
    return _certify(d, gate, witnesses, trace)


def kings_stars_witness(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    """Orient toward the all-kings centers; the median-order feed is the witness."""
    a, gate = _require(gate_kings_stars, d)
    chosen = gate.roles
    f, line = _center_feed(d, chosen, (), cap)
    trace = [line]
    centers = {s.center for s in chosen}
    leaves = {leaf: s.center for s in chosen for leaf in s.leaves}
    if d.is_whole(f):
        case = "whole-feed"
    elif f in centers:
        case = "center-feed"
    else:
        x = leaves[f]
        if a.dd.out_degree(edge(f, x)) > 0:
            case = "leaf-feed-losing"
        else:
            case = "leaf-feed-reoriented"
            trace.append(f"edge ({f}, {x}) loses to nothing; reoriented toward {f}")
    trace.append(f"case {case}")
    return _certify(d, gate, [f], trace)


def _tournament_feed(d: Digraph, gate: GateResult, cap: int) -> SnpCertificate:
    """The feed of an exact median order of a tournament."""
    f, line = _center_feed(d, (), (), cap)
    return _certify(d, gate, [f], [line, "case tournament"])


def single_star_witness(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    """Orient the star toward its center, maximize the center's index, take the feed.

    A leaf feed f has the arc f -> x in the completed tournament, so the
    center x is never good there, and no sedimentation step can raise it.
    """
    a, gate = _require(gate_single_star, d)
    dec = a.dec
    if dec.component_count() == 0:
        return _tournament_feed(d, gate, cap)
    star = next(center_assignments(dec))[0]
    x = star.center
    f, line = _center_feed(d, (star,), (x,), cap)
    trace = [line]
    if f == x:
        case = "center-feed"
    elif d.is_whole(f):
        case = "whole-feed"
    else:
        case = "leaf-feed-reoriented"
    trace.append(f"case {case}")
    return _certify(d, gate, [f], trace)


def _build_f_arcs(d: Digraph, ci: ComponentIndex) -> tuple[list[tuple[int, int]], list[str]]:
    """Orientations of the path components of the dependency digraph.

    Each path chain is role-labeled from its first (good) edge; the whole
    chain is oriented the way the first edge's convenient orientation points.
    """
    arcs: list[tuple[int, int]] = []
    notes: list[str] = []
    for i in _path_component_ids(ci):
        chain = ci.path_chain(i)
        first = chain[0]
        # first is labeled (min, max), the tail of loses_to's witness
        roles = propagate_roles(d, ci.dd, {first: edge_pair(first)})
        labels = [roles[e] for e in chain]
        cos = convenient_orientations(d, first)
        if not cos:
            raise ConsistencyError(
                f"path start {edge_pair(first)} has no convenient orientation"
            )
        if labels[0] in cos:
            arcs.extend(labels)
            notes.append(f"path {[edge_pair(e) for e in chain]} oriented a->b")
        else:
            arcs.extend((b, a) for a, b in labels)
            notes.append(f"path {[edge_pair(e) for e in chain]} oriented b->a")
    return arcs, notes


def _star_interval_witness(
    d: Digraph, ci: ComponentIndex, star: Star, kset: VertexSet, cap: int
) -> tuple[int, list[str]]:
    """SNP vertex of D[K(xi)]: orient star edges inward, matching edges along
    shortest dependency paths, and take the feed of a center-index-maximal
    median order of the completed tournament T.

    Suppose the feed g differs from the center x, x is not bad and
    d+(g) = |good| in T.  In a tournament J(g) = {g}, so sed meets equality:
    the bad vertices move to the front, g right after them, and the rest
    keep their order.  A vertex that is neither bad nor the feed therefore
    moves up by (bad vertices after it) + 1, and sed keeps a median order
    median, so x would sit strictly later in a median order of T.  The
    order maximizes x's index, so this is an internal fault.
    """
    x = star.center
    roles = propagate_roles(d, ci.dd, {edge(a, x): (a, x) for a in star.leaves})
    sub, mapping = d.induced(kset)
    inv = {v: i for i, v in enumerate(mapping)}
    orientation = []
    for u, v in sub.missing_pairs():
        e = edge(mapping[u], mapping[v])
        if e not in roles:
            raise ConsistencyError(
                f"missing edge {edge_pair(e)} in K(xi) unreachable from the star"
            )
        un, vn = roles[e]
        orientation.append((inv[un], inv[vn]))
    t = sub.complete(orientation)
    res = exact_median_order(t, tiebreak=[inv[x]], cap=cap)
    g = mapping[res.order[-1]]
    trace = [
        f"K(xi) {list(kset)}; interval median order "
        f"{[mapping[i] for i in res.order]} (index of {x} maximal)"
    ]
    out_f, good, bad = _feed_split(t, res.order, (1 << t.n) - 1)
    if g != x and not bad >> inv[x] & 1 and out_f.bit_count() == good.bit_count():
        raise ConsistencyError(
            f"sedimentation would move the center {x} later in an order "
            "that maximizes its index"
        )
    return g, trace


def star_matching_witness(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    """Add F along path components, take a good median order of D+F, and pick
    the witness inside the feed's interval."""
    a, gate = _require(gate_star_matching, d)
    dec = a.dec
    if dec.component_count() == 0:
        return _tournament_feed(d, gate, cap)
    f_arcs, trace = _build_f_arcs(d, a.ci)
    d_prime = d.with_arcs(add=f_arcs)
    trace.append(f"F has {len(f_arcs)} arc(s)")
    a_prime = Analysis(d_prime)
    order = good_median_order(a_prime, cap=cap)
    f = order[-1]
    trace.append(f"good median order of D+F: {list(order)}")
    witness = f
    if d_prime.is_whole(f):
        case = "whole-feed"
    else:
        jset = j_of(a_prime, f)
        star = dec.stars[0] if dec.stars else None
        if star is not None and star.center in jset:
            case = "star-interval"
            witness, extra = _star_interval_witness(d, a.ci, star, jset, cap)
            trace.extend(extra)
        else:
            case = "cycle-interval"
    trace.append(f"case {case}")
    return _certify(d, gate, [witness], trace)


def matching_two_witnesses(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    """Two SNP vertices of a sinkless digraph missing a matching with F empty."""
    a, gate = _require(gate_matching_f_empty, d)
    return _two_witnesses(
        a, gate, [], _default_candidates, cap, interval_note=": every member qualifies"
    )


def two_stars_witness(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    """Median order maximizing the index of the dominant center; feed wins."""
    a, gate = _require(gate_two_stars, d)
    x, a_set, y, b_set = next(_two_star_readings(d, a.dec))
    stars = (Star(x, a_set), Star(y, b_set))
    f, line = _center_feed(d, stars, (x,), cap)
    trace = _orient_missing_edges(stars, a.dd) + [line]
    if d.is_whole(f):
        case = "whole-feed"
    elif f == x:
        case = "center-x"
    elif f == y:
        case = "center-y"
    elif f in b_set:
        case = "leaf-B"
    else:
        case = "leaf-A"
    trace.append(f"case {case}")
    return _certify(d, gate, [f], trace)


def two_stars_two_witnesses(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    a, gate = _require(gate_two_stars_two, d)
    x, a_set, y, b_set = _claimed_roles(
        d, _two_star_readings(d, a.dec), _two_star_claim_holds,
        "two-stars-two: positive dependency degrees must force "
        "y->A and B->x in some reading, but they do not",
    )
    trace = [f"roles x={x} A={list(a_set)} y={y} B={list(b_set)}"]
    inner = _interval_candidates(
        d, (x, y), (x,), lambda sub: [exact_median_order(sub, cap=cap).order[-1]]
    )
    if len({x, y, *a_set, *b_set}) == d.n:
        # K = V holds both centers: x, then the feed of D - {x, y}
        trace.append("K = V(D): center + sub-tournament witness")
        return _certify(d, gate, inner(tuple(range(d.n)), x)[:2], trace)
    return _two_witnesses(a, gate, trace, inner, cap)


def _three_star_shape_check(dd: DependencyDigraph, stars: tuple[Star, Star, Star]):
    """Arcs of the dependency digraph may only run S_x->S_y->S_z->S_x."""
    star_of = _center_of(stars)
    x, y, z = (s.center for s in stars)
    allowed = {(x, y), (y, z), (z, x)}
    for e1, e2 in dd.arcs:
        if (star_of[e1], star_of[e2]) not in allowed:
            raise ConsistencyError(
                f"dependency arc {edge_pair(e1)} -> {edge_pair(e2)} leaves the "
                "cyclic star pattern"
            )


def three_stars_witness(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    a, gate = _require(gate_three_stars, d)
    x, a_set, y, b_set, z, c_set = gate.roles
    stars = (Star(x, a_set), Star(y, b_set), Star(z, c_set))
    _three_star_shape_check(a.dd, stars)
    f, line = _center_feed(d, stars, (x, y, z), cap)
    trace = _orient_missing_edges(stars, a.dd) + [line]
    if d.is_whole(f):
        case = "whole-feed"
    elif f in (x, y, z):
        case = "center-feed"
    else:
        case = "leaf-feed"
    trace.append(f"case {case}")
    return _certify(d, gate, [f], trace)


def _three_star_qualifying_center(x, a_set, y, b_set, z, c_set) -> int:
    """The center whose second neighborhood arithmetic works under the
    cyclic leaf-to-center arc pattern."""
    if len(a_set) >= len(c_set):
        return x
    if len(b_set) >= len(a_set):
        return y
    return z


def three_stars_two_witnesses(d: Digraph, cap: int = DEFAULT_EXACT_CAP) -> SnpCertificate:
    """Two SNP vertices of a sinkless digraph missing three stars.

    When the stars cover V(D), H = D - centers is a tournament with no
    sink.  Suppose a leaf h in A were a sink of H.  Then N+(h) = {z}, as
    y -> A, A -> z and hx is missing.  Since x -> y -> z, x reaches z in
    two steps, so the missing edge {h, x} loses to no edge: its out-degree
    in Delta is 0, which the gate's delta+_Delta > 0 rules out.  A leaf in
    B (N+ = {x}, which y reaches via y -> z -> x) and a leaf in C
    (N+ = {y}, which z reaches via z -> x -> y) go the same way, so a sink
    of H is an internal fault.
    """
    a, gate = _require(gate_three_stars_two, d)
    x, a_set, y, b_set, z, c_set = _claimed_roles(
        d, _three_star_readings(d, a.dec), _three_star_claim_holds,
        "three-stars-two: positive dependency degrees must force the "
        "cyclic pattern B->x->C->y->A->z->B, but they do not",
    )
    trace = [
        f"roles x={x} A={list(a_set)} y={y} B={list(b_set)} z={z} C={list(c_set)}"
    ]
    if len({x, y, z, *a_set, *b_set, *c_set}) == d.n:
        trace.append("K = V(D): sub-tournament pair + qualifying center")
        rest = [v for v in range(d.n) if v not in (x, y, z)]
        sub, mapping = d.induced(rest)
        if sub.has_sink():
            raise ConsistencyError("three-stars-two: H = D - centers has a sink")
        ws, _ = _tournament_witnesses(sub, cap)
        center = _three_star_qualifying_center(x, a_set, y, b_set, z, c_set)
        return _certify(d, gate, (*[mapping[w] for w in ws], center), trace)
    inner = _interval_candidates(
        d, (x, y, z), (), lambda sub: _tournament_witnesses(sub, cap)[0]
    )
    return _two_witnesses(a, gate, trace, inner, cap)


THEOREMS: dict[str, Callable[..., SnpCertificate]] = {
    "havet-thomasse": havet_thomasse_witnesses,
    "kings-stars": kings_stars_witness,
    "star+matching": star_matching_witness,
    "matching-F-empty-no-sink": matching_two_witnesses,
    "single-star": single_star_witness,
    "two-stars": two_stars_witness,
    "two-stars-two": two_stars_two_witnesses,
    "three-stars": three_stars_witness,
    "three-stars-two": three_stars_two_witnesses,
}
