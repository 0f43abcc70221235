"""Certificates and gate verdicts pinned against a recorded snapshot.

The snapshot holds, for each search predicate, the certificates of the
first instances of a fixed filtered search, and for each fixture every
hypothesis check.  Refactors of the proof procedures must reproduce it byte
for byte.  To record a new snapshot after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from seymour.forge import FIXTURE_NAMES, SEARCH_PREDICATES, filtered_search, fixture
from seymour.theorems import THEOREMS, check_hypotheses

GOLDEN = Path(__file__).with_name("golden_certificates.json")


def snapshot() -> dict:
    certificates = []
    for pred in SEARCH_PREDICATES:
        for d in filtered_search(pred, 9, 0, budget=200, count=4).instances:
            cert = THEOREMS[pred](d)
            certificates.append(
                [pred, d.fingerprint(), list(cert.witnesses), list(cert.trace),
                 list(cert.findings)]
            )
    gates = {
        name: [
            [g.theorem_id, c.clause, c.ok, c.evidence]
            for g in check_hypotheses(fixture(name))
            for c in g.checks
        ]
        for name in FIXTURE_NAMES
    }
    return {"certificates": certificates, "gates": gates}


def test_certificates_and_gates_match_snapshot():
    assert snapshot() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(snapshot(), indent=1) + "\n")
