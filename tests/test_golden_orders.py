"""Feedback checks, local repair and sedimentation pinned against a snapshot.

The snapshot holds, for a seeded corpus of digraphs on 1-20 vertices
(tournaments, random digraphs and tournaments minus disjoint stars, each
from a shuffled start order) under unit, uniform non-unit, all-zero and
mixed rational weights (zeros included):

- `satisfies_feedback` of the start order, as `(ok, violation)`;
- the order `local_median_order` repairs it to;
- on good digraphs of at most 10 vertices, the order `good_median_order`
  returns and the orders and outcome of `sediment` from it.

A rewrite of the order layer must reproduce it exactly.  To record a new
snapshot after an intended change of output:

    PYTHONPATH=src python tests/test_golden_orders.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from seymour.dependency import Analysis
from seymour.digraph import Digraph, Weighting
from seymour.errors import SeymourError
from seymour.forge import random_digraph, random_star_deleted, random_tournament
from seymour.orders import good_median_order, local_median_order, satisfies_feedback, sediment

GOLDEN = Path(__file__).with_name("golden_orders.json")

WEIGHT_KINDS = ("unit", "uniform", "zero", "mixed")
MIXED = ("0", "1", "1/2", "2/3", "3", "5/4", "7/3")
SEDIMENT_MAX_N = 10


def _weights(kind: str, n: int, rng: random.Random) -> list[str] | None:
    if kind == "unit":
        return None
    if kind == "uniform":
        return [rng.choice(("3/4", "2", "5/3"))] * n
    if kind == "zero":
        return ["0"] * n
    return [rng.choice(MIXED) for _ in range(n)]


def corpus() -> list[dict]:
    """Inputs of the snapshot: digraph, weights and start order per case."""
    cases = []
    for n in range(1, 21):
        for k, kind in enumerate(WEIGHT_KINDS):
            rng = random.Random(f"golden-order|{n}|{kind}")
            seed = 11 * n + k
            density = rng.choice((0.4, 0.7, 0.9))
            for d in (
                random_tournament(n, seed),
                random_digraph(n, seed, density),
                random_star_deleted(n, seed),
            ):
                start = list(range(n))
                rng.shuffle(start)
                cases.append(
                    {"n": n, "arcs": [list(a) for a in d.arcs],
                     "weights": _weights(kind, n, rng), "start": start}
                )
    return cases


def _sedimentation(d: Digraph, w: Weighting | None) -> dict | None:
    a = Analysis(d)
    if d.n > SEDIMENT_MAX_N or a.dec is None or not a.goodness.is_good:
        return None
    try:
        order = good_median_order(a, w)
        trace = sediment(a, order, w)
    except SeymourError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    out = trace.outcome
    return {
        "good_median_order": list(order),
        "orders": [list(o) for o in trace.orders],
        "outcome": [out.kind, out.rank, out.cycle_start, out.cycle_length],
    }


def solve(case: dict) -> dict:
    d = Digraph(case["n"], [tuple(a) for a in case["arcs"]])
    w = None if case["weights"] is None else Weighting([Fraction(x) for x in case["weights"]])
    fb = satisfies_feedback(d, case["start"], w)
    return {
        "feedback": [fb.ok, list(fb.violation) if fb.violation else None],
        "local": list(local_median_order(d, case["start"], w)),
        "sediment": _sedimentation(d, w),
    }


def test_order_layer_matches_snapshot():
    for case in json.loads(GOLDEN.read_text()):
        assert solve(case["input"]) == case["result"], case["input"]


if __name__ == "__main__":
    snapshot = [{"input": c, "result": solve(c)} for c in corpus()]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(c, separators=(",", ":")) for c in snapshot) + "\n]\n"
    )
