"""One Analysis per instance: gates share it without rebuilding or leaking."""

from collections import Counter

from seymour import dependency, theorems
from seymour.dependency import Analysis
from seymour.digraph import Digraph
from seymour.errors import HypothesisFailedError
from seymour.forge import (
    SEARCH_PREDICATES,
    all_digraphs,
    all_kings_tournament,
    all_tournaments,
    filtered_search,
    fixture,
)
from seymour.theorems import THEOREM_IDS, THEOREMS, _GATES, check_hypotheses


def test_check_hypotheses_builds_each_structure_once(monkeypatch):
    three_stars = filtered_search("three-stars", 9, 0, budget=200, count=1).instances[0]
    calls = Counter()
    for name in ("decompose", "dependency_digraph"):
        original = getattr(dependency, name)

        def counted(d, _name=name, _original=original):
            calls[_name] += 1
            return _original(d)

        monkeypatch.setattr(dependency, name, counted)
    for d in (fixture("LC3"), fixture("ST1"), three_stars):
        calls.clear()
        check_hypotheses(d)
        assert calls == {"decompose": 1, "dependency_digraph": 1}


def test_each_procedure_builds_a_component_index_once_per_digraph(monkeypatch):
    # every component index goes through dependency.dependency_digraph
    rotational = Digraph(5, [(i, (i + k) % 5) for i in range(5) for k in (1, 2)])
    corpus = [fixture("LC3"), fixture("C4X"), rotational]
    for pred in SEARCH_PREDICATES:
        corpus += filtered_search(pred, 9, 0, budget=200, count=4).instances
    builds = Counter()
    built = []  # keeps every counted digraph alive, so ids stay unique
    original = dependency.dependency_digraph

    def counted(d):
        built.append(d)
        builds[id(d)] += 1
        return original(d)

    monkeypatch.setattr(dependency, "dependency_digraph", counted)
    rebuilt = set()
    for tid, procedure in THEOREMS.items():
        for d in corpus:
            builds.clear()
            try:
                procedure(d)
            except HypothesisFailedError:
                continue
            if any(count > 1 for count in builds.values()):
                rebuilt.add(tid)
    assert not rebuilt, sorted(rebuilt)


def test_a_tournaments_second_witness_builds_no_component_index(monkeypatch):
    # J of a whole vertex is the vertex itself, so no K(xi) is needed, and
    # the prefix is sedimented on the tournament's own masks: no subdigraph
    # and no Analysis beyond the one the gate reads
    builds = Counter()

    def counting(name, original):
        def counted(*args):
            builds[name] += 1
            return original(*args)

        return counted

    monkeypatch.setattr(
        dependency, "component_index", counting("component_index", dependency.component_index)
    )
    monkeypatch.setattr(Digraph, "induced", counting("induced", Digraph.induced))
    monkeypatch.setattr(Analysis, "__init__", counting("Analysis", Analysis.__init__))
    sinkless = [t for t in all_tournaments(5) if not t.has_sink()][:50]
    sinkless.append(all_kings_tournament(7))
    for t in sinkless:
        assert len(theorems.havet_thomasse_witnesses(t).witnesses) == 2
    assert builds == {"Analysis": len(sinkless)}


def test_gates_on_a_fresh_analysis_match_check_hypotheses():
    for d in all_digraphs(4):
        shared = check_hypotheses(d)
        for tid, gate in zip(THEOREM_IDS, shared):
            assert _GATES[tid](Analysis(d)) == gate


def test_analysis_reports_why_there_is_no_decomposition():
    a = Analysis(Digraph(3, []))  # missing graph is a triangle
    assert a.dec is None and "has 3 edges" in a.dec_error
    assert Analysis(fixture("C4X")).dec_error is None


def test_star_procedures_walk_the_readings_once(monkeypatch):
    # the gate hands its reading to the procedure in GateResult.roles: the
    # kings-stars gate walks its readings in _kings_reading, the three-stars
    # gate through center_assignments
    calls = Counter()
    for pred, name in (("kings-stars", "_kings_reading"), ("three-stars", "center_assignments")):
        original = getattr(theorems, name)

        def counted(*args, original=original):
            calls["readings"] += 1
            return original(*args)

        monkeypatch.setattr(theorems, name, counted)
        for d in filtered_search(pred, 9, 0, budget=200, count=4).instances:
            calls.clear()
            cert = THEOREMS[pred](d)
            assert calls == {"readings": 1}, (pred, d.fingerprint())
            assert cert.ok
