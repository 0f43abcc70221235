"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup`, runs one op per
input in `op` (the only code inside the timer), checks an op's output in
`check` and renders it for the output digest in `record`.  The digest
covers the first `digest_ops` ops of a run (None: one pass over the
inputs); `check` recomputes exact median orders only for those ops
(`deep`), as repeating the DP on inputs already seen would double the cost
of a run without checking anything new.  The library is reached through
module attributes at call time, so the traced run's rebinding (see
tracer.py) sees every call.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from seymour import dependency, forge, orders, theorems
from seymour.digraph import Weighting

# Checks call these import-time bindings, which the traced run leaves alone,
# so checking an output adds no spans.
from seymour.orders import exact_median_order, satisfies_feedback

import checks

TWO_WITNESS = ("matching-F-empty-no-sink", "two-stars-two", "three-stars-two")

# Each workload's `tail_percentile` is the highest of p99, p95 and p50 that
# keeps at least ten distinct inputs beyond it in a 20-second run: the top 1%
# of theorem-corpus ops repeat fewer than ten n = 14 instances, and
# local-repair completes only two rounds of 16 ops.  tournament-sweep reports
# p95 although p99 qualifies: the top 1% of its 0.4 ms ops is set by stalls
# of the host, not by the program (on a shared 2-vCPU VM, p99 spread 13-34%
# over ten seeds of identical work, p95 5%).


def spread_order(items: list, cost, seed: int) -> list:
    """A seeded order whose every prefix samples the cost range evenly.

    Items are ranked by cost (ties broken by the seed) and visited along a
    golden-ratio sequence over the ranks, so a run cut off part-way through
    a pass still sees small, medium and large inputs in proportion.
    """
    rng = random.Random(f"order|{seed}")
    ranked = sorted(items, key=lambda item: (cost(item), rng.random()))
    step = (math.sqrt(5) - 1) / 2
    offset = rng.random()
    positions = sorted(range(len(ranked)), key=lambda k: (offset + k * step) % 1.0)
    return [ranked[k] for k in positions]


def schedule(workload, items: list, seed: int):
    """The endless seeded sequence of inputs a run's ops take, and its round
    length (None when any prefix will do).

    Inputs cycle in spread order.  A workload with a `stratum` key instead
    runs in rounds that take the next input of every stratum once, so each
    round has the same mix whatever the seed drew: the timed mix depends on
    the strata, not on how many inputs of each the seed happened to give.
    """
    order = spread_order(items, workload.cost, seed)
    stratum = getattr(workload, "stratum", None)
    if stratum is None:
        return itertools.cycle(order), None
    groups: dict = {}
    for item in order:
        groups.setdefault(stratum(item), []).append(item)
    keys = spread_order(list(groups), lambda key: key, seed)
    rounds = (groups[k][r % len(groups[k])] for r in itertools.count() for k in keys)
    return rounds, len(keys)


class TheoremCorpus:
    """THEOREMS[pred](d) over filtered_search instances of every predicate."""

    name = "theorem-corpus"
    digest_ops = None
    tail_percentile = 95

    def __init__(self, small: bool) -> None:
        self.max_n, self.budget, self.count = (9, 200, 4) if small else (14, 2000, 100)

    def setup(self, seed: int) -> list:
        items = []
        for pred in forge.SEARCH_PREDICATES:
            res = forge.filtered_search(
                pred, self.max_n, seed, budget=self.budget, count=self.count
            )
            items.extend((pred, d) for d in res.instances)
        return items

    @staticmethod
    def cost(item):
        return (item[1].n, item[0])

    stratum = cost

    @staticmethod
    def op(item):
        pred, d = item
        return theorems.THEOREMS[pred](d)

    @staticmethod
    def check(item, cert, deep: bool) -> str | None:
        pred, d = item
        err = checks.check_witnesses(d, cert, pred, pred in TWO_WITNESS)
        if err is None and deep and d.n <= 10:
            err = checks.check_exact(d, exact_median_order(d))
        return err

    @staticmethod
    def record(item, cert) -> str:
        pred, d = item
        return f"{pred}|{d.fingerprint()}|{cert.witnesses}|{cert.trace}|{cert.findings}"


class TournamentSweep:
    """havet_thomasse_witnesses on every sinkless labeled tournament."""

    name = "tournament-sweep"
    digest_ops = None
    tail_percentile = 95

    def __init__(self, small: bool) -> None:
        self.max_n = 4 if small else 6

    def setup(self, seed: int) -> list:
        return [
            t
            for n in range(2, self.max_n + 1)
            for t in forge.all_tournaments(n)
            if not t.has_sink()
        ]

    @staticmethod
    def cost(t):
        return t.n

    @staticmethod
    def op(t):
        return theorems.havet_thomasse_witnesses(t)

    @staticmethod
    def check(t, cert, deep: bool) -> str | None:
        err = checks.check_witnesses(t, cert, "havet-thomasse", two=True)
        if err is None and deep:
            res = exact_median_order(t)
            err = checks.check_exact(t, res)
            if err is None and res.order[-1] != cert.witnesses[0]:
                err = f"first witness {cert.witnesses[0]} is not the feed {res.order[-1]}"
        return err

    @staticmethod
    def record(t, cert) -> str:
        return f"{t.fingerprint()}|{cert.witnesses}|{cert.trace}"


class AnalysisScan:
    """Every hypothesis gate plus component index and goodness; no orders."""

    name = "analysis-scan"
    digest_ops = None
    tail_percentile = 99

    def __init__(self, small: bool) -> None:
        self.sizes, self.repeats = (range(10, 13), 1) if small else (range(16, 41), 4)

    def setup(self, seed: int) -> list:
        """A fixed grid of sizes, star counts and matching sizes; the seed
        draws the tournament, the leaf counts and where the stars sit."""
        rng = random.Random(f"analysis-scan|{seed}")
        items = []
        for rep in range(self.repeats):
            for n in self.sizes:
                for star_count in range(3):
                    for matching in range(rep % 3, 13 + rep % 3, 3):
                        shapes = [rng.randint(2, 4) for _ in range(star_count)]
                        room = n - sum(k + 1 for k in shapes)
                        shapes += [1] * min(matching, 12, room // 2)
                        items.append(
                            forge.random_star_deleted(n, rng.randrange(1 << 30), shapes)
                        )
        return items

    @staticmethod
    def cost(d):
        return (d.n, len(d.missing_pairs()))

    @staticmethod
    def op(d):
        gates = theorems.check_hypotheses(d)
        ci = dependency.component_index(d)
        return gates, ci, dependency.goodness(d, ci)

    @staticmethod
    def check(d, out, deep: bool) -> str | None:
        gates, ci, report = out
        if tuple(g.theorem_id for g in gates) != theorems.THEOREM_IDS:
            return "gates out of THEOREM_IDS order"
        missing = checks.missing_pairs(d)
        if gates[0].applicable != (not missing):
            return "havet-thomasse gate disagrees with the missing pairs"
        if any(not g.checks[0].ok for g in gates[1:]):
            return "a gate rejects a disjoint-star missing graph"
        if {e for comp in ci.components for e in comp} != missing:
            return "dependency vertices differ from the missing pairs"
        outs = checks.out_sets(d)
        for kset, ok in report.verdicts:
            if ok != checks.is_interval(outs, kset):
                return f"goodness verdict {ok} wrong for K(xi) {list(kset)}"
        if report.is_good != all(ok for _, ok in report.verdicts):
            return "goodness summary disagrees with its verdicts"
        return None

    @staticmethod
    def record(d, out) -> str:
        gates, ci, report = out
        verdicts = [
            (g.theorem_id, g.applicable, [(c.clause, c.ok, c.evidence) for c in g.checks])
            for g in gates
        ]
        return f"{d.fingerprint()}|{verdicts}|{ci.k_of_xi}|{report.is_good}"


class LocalRepair:
    """local_median_order from a shuffled start above the exact cap."""

    name = "local-repair"
    digest_ops = 16
    tail_percentile = 50
    WEIGHTS = (Fraction(1), Fraction(3, 2), Fraction(2, 3), Fraction(2))
    ROUNDS = 3

    def __init__(self, small: bool) -> None:
        self.sizes = (8, 12) if small else (24, 32, 40, 48)

    def setup(self, seed: int) -> list:
        rng = random.Random(f"local-repair|{seed}")
        items = []
        for _ in range(self.ROUNDS):
            for n in self.sizes:
                for kind in ("tournament", "digraph"):
                    for weighted in (False, True):
                        s = rng.randrange(1 << 30)
                        if kind == "tournament":
                            d = forge.random_tournament(n, s)
                        else:
                            d = forge.random_digraph(n, s, density=0.8)
                        init = list(range(n))
                        rng.shuffle(init)
                        w = (
                            Weighting([rng.choice(self.WEIGHTS) for _ in range(n)])
                            if weighted
                            else None
                        )
                        items.append((d, tuple(init), w))
        return items

    @staticmethod
    def cost(item):
        d, _, w = item
        return (d.n, w is not None)

    @staticmethod
    def stratum(item):
        d, _, w = item
        return (d.n, d.is_tournament(), w is not None)

    @staticmethod
    def op(item):
        d, init, w = item
        return orders.local_median_order(d, init, w)

    @staticmethod
    def check(item, order, deep: bool) -> str | None:
        d, init, w = item
        if sorted(order) != list(range(d.n)):
            return f"repaired order {order} is not a permutation"
        if not satisfies_feedback(d, order, w).ok:
            return "repaired order violates the feedback property"
        if checks.forward_weight(d, order, w) < checks.forward_weight(d, init, w):
            return "repair lowered the forward weight"
        return None

    @staticmethod
    def record(item, order) -> str:
        d, init, w = item
        return f"{d.fingerprint()}|{init}|{w}|{order}"


WORKLOADS = {w.name: w for w in (TheoremCorpus, TournamentSweep, AnalysisScan, LocalRepair)}
