"""Exact median orders of tournaments with several strong components, pinned.

The snapshot holds, for seeded tournaments on 2-13 vertices built from 2-4
strong blocks (every arc between two blocks runs from the earlier block to
the later one, and the labels are shuffled), the `(order, value,
tie_score)` that `exact_median_order` returns under unit, uniform non-unit,
mixed positive rational and mixed weights with zeros, with no tiebreak, an
empty one, and tiebreaks of one and three vertices.  It was recorded with
the whole-digraph DP, so a solver that splits the condensation must
reproduce it exactly, ties included.  To record a new snapshot after an
intended change of tie semantics:

    PYTHONPATH=src python tests/test_golden_split_medians.py
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from seymour.digraph import Digraph, Weighting
from seymour.orders import exact_median_order

GOLDEN = Path(__file__).with_name("golden_split_medians.json")

WEIGHT_KINDS = ("unit", "uniform", "positive", "zero")
POSITIVE = ("1", "1/2", "2/3", "3", "5/4", "7/3")


def _weights(kind: str, n: int, rng: random.Random) -> list[str] | None:
    if kind == "unit":
        return None
    if kind == "uniform":
        return [rng.choice(("3/4", "2", "5/3"))] * n
    if kind == "positive":
        return [rng.choice(POSITIVE) for _ in range(n)]
    return [rng.choice(("0",) + POSITIVE) for _ in range(n)]


def _block_sizes(n: int, rng: random.Random) -> list[int]:
    """2-4 sizes summing to n; no size is 2, as no 2-vertex tournament is strong."""
    while True:
        k = rng.randint(2, min(4, n))
        cuts = sorted(rng.sample(range(1, n), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if 2 not in sizes:
            return sizes


def _is_strong(n: int, arcs: list[tuple[int, int]]) -> bool:
    d = Digraph(n, arcs)
    for masks in ([d.out_mask(v) for v in range(n)], [d.in_mask(v) for v in range(n)]):
        seen, frontier = 1, 1
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = masks[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        if seen != (1 << n) - 1:
            return False
    return True


def _strong_block(size: int, rng: random.Random) -> list[tuple[int, int]]:
    while True:
        arcs = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u in range(size)
            for v in range(u + 1, size)
        ]
        if _is_strong(size, arcs):
            return arcs


def block_tournament(n: int, rng: random.Random) -> Digraph:
    """Tournament on n vertices whose strong components are 2-4 random blocks."""
    label = list(range(n))
    rng.shuffle(label)
    arcs = []
    start = 0
    for size in _block_sizes(n, rng):
        arcs += [(label[start + u], label[start + v]) for u, v in _strong_block(size, rng)]
        block, later = label[start : start + size], label[start + size :]
        arcs += [(u, v) for u in block for v in later]
        start += size
    return Digraph(n, arcs)


def corpus() -> list[dict]:
    """Inputs of the snapshot: digraph, weights and tiebreak per case."""
    cases = []
    for n in range(2, 14):
        for kind in WEIGHT_KINDS:
            rng = random.Random(f"golden-split-median|{n}|{kind}")
            for _ in range(3):
                d = block_tournament(n, rng)
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


def test_snapshot_tournaments_have_several_strong_components():
    for case in json.loads(GOLDEN.read_text()):
        d = Digraph(case["input"]["n"], [tuple(a) for a in case["input"]["arcs"]])
        assert d.is_tournament() and not _is_strong(d.n, list(d.arcs))


def test_split_median_orders_match_snapshot():
    for case in json.loads(GOLDEN.read_text()):
        assert solve(case["input"]) == case["result"], case["input"]


if __name__ == "__main__":
    snapshot = [{"input": c, "result": solve(c)} for c in corpus()]
    GOLDEN.write_text(
        "[\n" + ",\n".join(json.dumps(c, separators=(",", ":")) for c in snapshot) + "\n]\n"
    )
