"""Output checks that recompute everything from `d.arcs` alone.

These deliberately share no code with the library: an SNP oracle, the
forward weight of an order, the missing pairs and the interval test are
rebuilt here from the arc list, so a fault in the library's own helpers
cannot hide a wrong answer.  Each check returns None or a failure message.
"""

from __future__ import annotations

from fractions import Fraction


def out_sets(d) -> list[set[int]]:
    outs: list[set[int]] = [set() for _ in range(d.n)]
    for u, v in d.arcs:
        outs[u].add(v)
    return outs


def has_snp(outs: list[set[int]], v: int) -> bool:
    first = outs[v]
    second: set[int] = set()
    for u in first:
        second |= outs[u]
    second -= first
    second.discard(v)
    return len(first) <= len(second)


def forward_weight(d, order, weights=None) -> Fraction:
    pos = {v: i for i, v in enumerate(order)}
    total = Fraction(0)
    for u, v in d.arcs:
        if pos[u] < pos[v]:
            total += 1 if weights is None else weights[u] * weights[v]
    return total


def missing_pairs(d) -> set[frozenset]:
    adjacent = {frozenset(a) for a in d.arcs}
    return {
        frozenset((u, v))
        for u in range(d.n)
        for v in range(u + 1, d.n)
        if frozenset((u, v)) not in adjacent
    }


def is_interval(outs: list[set[int]], members) -> bool:
    members = set(members)
    ins: list[set[int]] = [set() for _ in outs]
    for u, vs in enumerate(outs):
        for v in vs:
            ins[v].add(u)
    views = {(frozenset(outs[v] - members), frozenset(ins[v] - members)) for v in members}
    return len(views) <= 1


def check_witnesses(d, cert, expected_id: str, two: bool) -> str | None:
    """Oracle re-check of every witness; at least two distinct ones when `two`."""
    if cert.theorem_id != expected_id:
        return f"certificate for {cert.theorem_id}, expected {expected_id}"
    ws = cert.witnesses
    if not ws:
        return "no witness returned"
    if len(set(ws)) != len(ws):
        return f"repeated witness in {list(ws)}"
    if two and len(ws) < 2:
        return f"expected two distinct witnesses, got {list(ws)}"
    outs = out_sets(d)
    for v in ws:
        if not 0 <= v < d.n or not has_snp(outs, v):
            return f"witness {v} fails the oracle"
    return None


def check_exact(d, res) -> str | None:
    """An exact median order is a permutation whose forward weight is its value."""
    if sorted(res.order) != list(range(d.n)):
        return f"exact order {res.order} is not a permutation"
    if res.value != forward_weight(d, res.order):
        return f"exact value {res.value} != forward weight {forward_weight(d, res.order)}"
    return None
