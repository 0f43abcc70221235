"""Acceptance gate: one criterion per test, one printed pass/fail line each.

The lines are written to the real stderr so they appear in the pytest
stream even for passing tests.
"""

import random
import time
from fractions import Fraction

import pytest

from seymour.dependency import Analysis, is_good_digraph, j_of, strong_dependency_check
from seymour.digraph import Weighting, resolve_weights
from seymour.forge import (
    SEARCH_PREDICATES,
    all_digraphs,
    all_tournaments,
    filtered_search,
    fixture,
    losing_cycle_gadget,
    random_digraph,
    random_star_deleted,
)
from seymour.dependency import dependency_digraph
from seymour.orders import (
    analyze,
    exact_median_order,
    forward_weight,
    good_median_order,
    local_median_order,
    satisfies_feedback,
    sed,
    sediment,
)
from seymour.stars import convenient_orientations, edge
from seymour.theorems import THEOREMS, has_snp, havet_thomasse_witnesses, snp_set


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_ac1_theorem1_sweep_n6():
    start = time.time()
    violations = 0
    count = 0
    for t in all_tournaments(6):
        count += 1
        res = exact_median_order(t)
        if not has_snp(t, res.order[-1]):
            violations += 1
    elapsed = time.time() - start
    ok = count == 32768 and violations == 0 and elapsed < 300
    report(
        "AC1", ok,
        f"{count} tournaments on 6 vertices, {violations} feed-SNP violations, "
        f"{elapsed:.1f}s (target < 300s)",
    )


def test_ac2_two_witnesses_small_tournaments():
    failures = 0
    checked = 0
    for n in range(2, 7):
        for t in all_tournaments(n):
            if t.has_sink():
                continue
            checked += 1
            cert = havet_thomasse_witnesses(t)
            distinct = set(cert.witnesses)
            if len(distinct) != 2 or not all(has_snp(t, v) for v in distinct):
                failures += 1
    report(
        "AC2", failures == 0,
        f"{checked} sinkless tournaments (n <= 6), {failures} without two "
        f"distinct verified witnesses",
    )


def test_ac3_losing_cycle_lemmas():
    failures = []
    for k in range(2, 9):
        g = losing_cycle_gadget(k)
        a = [2 * i for i in range(k)]
        b = [2 * i + 1 for i in range(k)]
        # arc shape at the wraparound
        if k % 2 == 1:
            if not (g.has_arc(a[-1], a[0]) and not g.second_mask(a[-1]) >> b[0] & 1):
                failures.append((k, "odd wraparound"))
        else:
            if not g.has_arc(a[-1], b[0]):
                failures.append((k, "even wraparound"))
        # neighborhood equalities: N+(a_i) = N-(b_i) and N+(b_i) = N-(a_i)
        # within the gadget, for every i
        for i in range(k):
            if g.out_mask(a[i]) != g.in_mask(b[i]):
                failures.append((k, f"N+(a_{i+1}) != N-(b_{i+1})"))
            if g.out_mask(b[i]) != g.in_mask(a[i]):
                failures.append((k, f"N+(b_{i+1}) != N-(a_{i+1})"))
        # degree identities
        for v in range(2 * k):
            if not (g.degree(v) == g.in_mask(v).bit_count() == g.second_degree(v) == k - 1):
                failures.append((k, f"degree identities at {v}"))
        # exact dependency k-cycle
        dd = dependency_digraph(g)
        want = {
            (edge(a[i], b[i]), edge(a[(i + 1) % k], b[(i + 1) % k]))
            for i in range(k)
        }
        if set(dd.arcs) != want:
            failures.append((k, "dependency digraph is not the exact k-cycle"))
    report(
        "AC3", not failures,
        f"gadgets k=2..8: arc shape, neighborhood equalities, degree "
        f"identities, exact dependency cycles; failures: {failures or 'none'}",
    )


def test_ac4_good_edge_equivalence():
    rng = random.Random("ac4")
    mismatches = 0
    edges_checked = 0
    for _ in range(1000):
        d = random_star_deleted(rng.randint(4, 12), rng.randint(0, 10**6))
        dd = dependency_digraph(d)
        for e in dd.edges:
            edges_checked += 1
            indeg_zero = dd.in_degree(e) == 0
            convenient = bool(convenient_orientations(d, e))
            if indeg_zero != convenient:
                mismatches += 1
    report(
        "AC4", mismatches == 0,
        f"1000 star-deleted tournaments (n <= 12), {edges_checked} missing "
        f"edges, {mismatches} equivalence mismatches",
    )


def test_ac5_sedimentation_preserves_optimum():
    rng = random.Random("ac5")
    hits = 0
    failures = 0
    tries = 0
    while hits < 500 and tries < 30000:
        tries += 1
        n = rng.randint(4, 9)
        d = random_star_deleted(n, rng.randint(0, 10**6))
        if not is_good_digraph(d):
            continue
        vals = [Fraction(1)] * n
        if rng.random() < 0.3:
            vals[rng.randrange(n)] = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        w = Weighting(vals)
        a = Analysis(d)
        order = good_median_order(a, w)
        ana = analyze(d, order)
        ws = resolve_weights(d, w)
        jset = set(j_of(a, ana.feed))
        lhs = ws.total(set(d.neighbors(ana.feed)) - jset)
        rhs = ws.total(set(ana.good) - jset)
        if lhs != rhs:
            continue
        hits += 1
        out = sed(a, order, w)
        if forward_weight(d, out, w) != forward_weight(d, order, w):
            failures += 1
        elif not satisfies_feedback(d, out, w).ok:
            failures += 1
    trace = sediment(Analysis(fixture("C3")), (0, 1, 2))
    periodic3 = (
        trace.outcome.kind == "periodic" and trace.outcome.cycle_length == 3
    )
    ok = hits >= 500 and failures == 0 and periodic3
    report(
        "AC5", ok,
        f"{hits} weighted equality-case instances (n <= 9), {failures} "
        f"Sed failures; C3 sedimentation periodic with cycle length 3: {periodic3}",
    )


def test_ac6_strong_components_imply_good():
    instances = 0
    violations = 0
    seen = set()
    for pred in SEARCH_PREDICATES:
        res = filtered_search(pred, 14, 99, budget=300, count=40)
        for d in res.instances:
            if d.fingerprint() in seen or not d.missing_pairs():
                continue
            rep = strong_dependency_check(d)
            if not rep.hypothesis_holds:
                continue
            seen.add(d.fingerprint())
            instances += 1
            if not rep.is_good:
                violations += 1
    ok = instances >= 100 and violations == 0
    report(
        "AC6", ok,
        f"{instances} disjoint-star instances (n <= 14) with all dependency "
        f"components non-trivially strong, {violations} not good",
    )


def test_ac7_theorem_procedures():
    start = time.time()
    failures = []
    counts = {}
    for pred in SEARCH_PREDICATES:
        res = filtered_search(pred, 14, 2026, budget=2000, count=100)
        counts[pred] = len(res.instances)
        for d in res.instances:
            try:
                cert = THEOREMS[pred](d)
            except Exception as exc:
                failures.append((pred, d.fingerprint(), repr(exc)))
                continue
            if not all(has_snp(d, v) for v in cert.witnesses):
                failures.append((pred, d.fingerprint(), "unverified witness"))
            if pred.endswith("-two") or pred == "matching-F-empty-no-sink":
                if len(set(cert.witnesses)) < 2:
                    failures.append((pred, d.fingerprint(), "witnesses not distinct"))
    elapsed = time.time() - start
    ok = (
        not failures
        and all(c >= 100 for c in counts.values())
        and elapsed < 1800
    )
    report(
        "AC7", ok,
        f"{sum(counts.values())} instances over {len(counts)} predicates "
        f"(>= 100 each: {all(c >= 100 for c in counts.values())}), "
        f"{len(failures)} failures, {elapsed:.1f}s (target < 1800s)",
    )


def test_ac8_oracle_sanity_sweep():
    empty = []
    count4 = 0
    for d in all_digraphs(4):
        count4 += 1
        if not snp_set(d):
            empty.append(d.arcs)
    for seed in range(100000):
        d = random_digraph(7, seed, 0.5)
        if not snp_set(d):
            empty.append(d.arcs)
    # research findings are reported before any assertion fires
    if empty:
        print(f"AC8 findings (conjecture counterexamples): {empty[:5]}")
    ok = count4 == 729 and not empty
    report(
        "AC8", ok,
        f"{count4} exhaustive n=4 digraphs + 100000 seeded n=7 digraphs; "
        f"empty snp sets (flagged findings): {len(empty)}",
    )


def test_ac9_feedback_property():
    rng = random.Random("ac9")
    failures = 0
    for _ in range(1000):
        n = rng.randint(2, 12)
        d = random_digraph(n, rng.randint(0, 10**6), rng.choice([0.4, 0.7, 1.0]))
        exact = exact_median_order(d).order
        if not satisfies_feedback(d, exact).ok:
            failures += 1
        init = list(range(n))
        rng.shuffle(init)
        local = local_median_order(d, tuple(init))
        if not satisfies_feedback(d, local).ok:
            failures += 1
    report(
        "AC9", failures == 0,
        f"1000 seeded instances (n <= 12), exact and local median orders, "
        f"{failures} feedback violations",
    )
