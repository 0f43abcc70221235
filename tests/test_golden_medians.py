"""Exact median orders pinned against a recorded snapshot.

The snapshot holds, for a seeded corpus of digraphs on 0-12 vertices, the
`(order, value, tie_score)` that `exact_median_order` returns under unit,
uniform non-unit, all-zero and mixed rational weights (zeros included),
with no tiebreak, an empty one, and tiebreaks of one and three vertices.
A rewrite of the DP kernel must reproduce it exactly, ties included.  To
record a new snapshot after an intended change of tie semantics:

    PYTHONPATH=src python tests/test_golden_medians.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from seymour.digraph import Digraph, Weighting
from seymour.forge import random_digraph, random_tournament
from seymour.orders import exact_median_order

GOLDEN = Path(__file__).with_name("golden_medians.json")

WEIGHT_KINDS = ("unit", "uniform", "zero", "mixed")
MIXED = ("0", "1", "1/2", "2/3", "3", "5/4", "7/3")


def _weights(kind: str, n: int, rng: random.Random) -> list[str] | None:
    if kind == "unit":
        return None
    if kind == "uniform":
        return [rng.choice(("3/4", "2", "5/3"))] * n
    if kind == "zero":
        return ["0"] * n
    return [rng.choice(MIXED) for _ in range(n)]


def corpus() -> list[dict]:
    """Inputs of the snapshot: digraph, weights and tiebreak per case."""
    cases = []
    for n in range(13):
        for k, kind in enumerate(WEIGHT_KINDS):
            rng = random.Random(f"golden-median|{n}|{kind}")
            density = rng.choice((0.4, 0.7))
            for d in (random_tournament(n, 7 * n + k), random_digraph(n, 7 * n + k, density)):
                ties = [None, []] + [rng.sample(range(n), s) for s in (1, 3) if s <= n]
                for tie in ties:
                    cases.append(
                        {"n": n, "arcs": [list(a) for a in d.arcs],
                         "weights": _weights(kind, n, rng), "tiebreak": tie}
                    )
    return cases


def solve(case: dict) -> list:
    d = Digraph(case["n"], [tuple(a) for a in case["arcs"]])
    w = None if case["weights"] is None else Weighting([Fraction(x) for x in case["weights"]])
    res = exact_median_order(d, w, tiebreak=case["tiebreak"])
    return [list(res.order), str(res.value), res.tie_score]


def test_exact_median_orders_match_snapshot():
    for case in json.loads(GOLDEN.read_text()):
        assert solve(case["input"]) == case["result"], case["input"]


if __name__ == "__main__":
    snapshot = [{"input": c, "result": solve(c)} for c in corpus()]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(c, separators=(",", ":")) for c in snapshot) + "\n]\n"
    )
