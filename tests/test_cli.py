import io
import json

import pytest

from seymour.cli import WEIGHTS_IGNORED, main
from seymour.dependency import Analysis
from seymour.digraph import Digraph, Weighting
from seymour.errors import ConsistencyError
from seymour.forge import fixture
from seymour.instfile import emit_instance
from seymour.orders import MAX_LOCAL_N
from seymour.reporting import InstanceRecord, Report, emit_report
from seymour.theorems import THEOREMS


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_emits_instance(capsys):
    code, out = run(["gen", "fixture", "name=C3"], capsys)
    assert code == 0
    assert out == "3 3\n0 1\n1 2\n2 0\n"


def test_oracle_on_fixture(capsys):
    code, out = run(["oracle", "C4X", "--format", "machine"], capsys)
    assert code == 0
    payload = json.loads(out)
    (rec,) = payload["records"]
    assert rec["detail"]["snp-set"] == [0, 1, 2, 3]
    assert payload["summary"]["verified"] == 1


def test_oracle_flags_no_counterexample_without_vertices(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    code, out = run(["oracle", "-", "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["detail"]["snp-set"] == [] and rec["findings"] == []


def test_oracle_on_file(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    code, out = run(["oracle", str(path)], capsys)
    assert code == 0 and "snp-set: [2]" in out


def test_median_reports_feedback(capsys):
    code, out = run(["median", "TT3", "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["detail"]["order"] == [0, 1, 2]
    assert rec["detail"]["value"] == "3"
    assert rec["detail"]["feedback"] is True


def test_median_of_the_empty_digraph_reports_the_empty_order(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    code, out = run(["median", "-", "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "verified"
    detail = rec["detail"]
    assert (detail["order"], detail["feed"], detail["feed-snp"]) == ([], None, None)
    assert (detail["good"], detail["bad"]) == ([], [])


def test_median_above_the_exact_cap_takes_the_local_path(capsys):
    code, out = run(
        ["median", "random-tournament n=9 seed=3", "--cap-exact", "8", "--format", "machine"],
        capsys,
    )
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["detail"]["mode"] == "local"
    assert rec["detail"]["value"] is None
    assert rec["detail"]["feedback"] is True
    assert sorted(rec["detail"]["order"]) == list(range(9))


def test_median_above_the_local_cap_exits_two(monkeypatch, capsys):
    n = MAX_LOCAL_N + 1
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{n} 0\n"))
    assert main(["median", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"capped at {MAX_LOCAL_N} vertices, got {n}" in captured.err


def test_verify_above_the_exact_cap_exits_two(capsys):
    assert main(["verify", "havet-thomasse", "random-tournament n=16 seed=3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capped at 15 vertices, got 16" in captured.err


def test_filtered_sweep_above_the_exact_cap_exits_two(capsys):
    # the first instance whose median order needs more than 2 vertices
    # stops the sweep; no report is written
    assert main(["sweep", "kings-stars", "--max-n", "8", "--seed", "1", "--cap-exact", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "capped at 2 vertices" in captured.err


def test_cap_exact_at_the_ceiling_is_accepted(capsys):
    code, out = run(["median", "TT3", "--cap-exact", "20", "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["detail"]["mode"] == "exact"


def test_cap_exact_above_the_ceiling_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["median", "TT3", "--cap-exact", "21"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "ceiling 20" in err


@pytest.mark.parametrize("max_n", ["3", "2"])
def test_max_n_below_the_search_floor_exits_two(max_n, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "two-stars", "--max-n", max_n])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "floor 4" in err


def test_max_n_at_the_search_floor_is_accepted(capsys):
    assert run(["sweep", "two-stars", "--max-n", "4"], capsys)[0] == 0


# exhaustive sweeps have fixed sizes: the floor does not apply to them, and
# their report does not record a --max-n they ignore
@pytest.mark.parametrize("family", ["tournaments-n4", "digraphs-n4"])
def test_exhaustive_sweep_ignores_max_n_below_the_floor(family, capsys):
    code, out = run(["sweep", family, "--max-n", "3", "--format", "machine"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0


def test_exhaustive_sweep_does_not_record_max_n(capsys):
    code, out = run(
        ["sweep", "tournaments-n4", "--max-n", "99", "--format", "machine"], capsys
    )
    assert code == 0
    config = json.loads(out)["config"]
    assert "max_n" not in config and config["evaluated"] == 64
    code, out = run(
        ["sweep", "two-stars", "--max-n", "6", "--budget", "20", "--format", "machine"],
        capsys,
    )
    assert code == 0 and json.loads(out)["config"]["max_n"] == 6


# _propose_three_stars builds nothing below 6 vertices, so a smaller
# --max-n would spend the whole budget and report no instance
@pytest.mark.parametrize("family", ["kings-stars", "three-stars", "three-stars-two"])
def test_three_star_families_have_a_floor_of_six(family, capsys):
    for max_n in ("4", "5"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", family, "--max-n", max_n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and f"floor 6 for {family}" in err
    code, out = run(
        ["sweep", family, "--max-n", "6", "--budget", "60", "--format", "machine"], capsys
    )
    assert code == 0
    assert json.loads(out)["summary"]["instances"] > 0


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was built")


@pytest.mark.parametrize("flag, env", [(["--jobs", "65"], None), ([], "10000")])
def test_jobs_above_the_ceiling_exits_two(flag, env, capsys, monkeypatch):
    monkeypatch.setattr("seymour.cli.ProcessPoolExecutor", _NoPool)
    if env is not None:
        monkeypatch.setenv("SNCWB_JOBS", env)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "tournaments-n6", *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "ceiling 64" in err


def test_sediment_c3_periodic(capsys):
    code, out = run(
        ["sediment", "C3", "--order", "0,1,2", "--format", "machine"], capsys
    )
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["detail"]["outcome"] == "periodic"
    assert rec["detail"]["cycle-length"] == 3


def test_delta_lc3(capsys):
    code, out = run(["delta", "LC3", "--format", "machine"], capsys)
    assert code == 0
    detail = json.loads(out)["records"][0]["detail"]
    assert detail["missing-edges"] == [[0, 1], [2, 3], [4, 5]]
    assert detail["good-digraph"] is True and detail["good-edges"] == []


def test_verify_single_star_st1(capsys):
    code, out = run(["verify", "single-star", "ST1", "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "verified" and rec["detail"]["witnesses"]


def test_verify_gate_exits_zero(capsys):
    code, out = run(["verify", "kings-stars", "C4X", "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "hypothesis-failed"


def test_verify_refuses_the_empty_digraph(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    code, out = run(["verify", "havet-thomasse", "-", "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "hypothesis-failed"
    assert rec["detail"]["clause"] == "digraph has a vertex"


@pytest.mark.parametrize("name", ["C3", "TT3"])
def test_verify_kings_stars_on_tournaments(name, capsys):
    # no missing edges: the gate passes vacuously and the procedure must too
    code, out = run(["verify", "kings-stars", name, "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "verified"


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n1 0\n")
    assert main(["oracle", str(path)]) == 2


def test_unknown_spec_exits_two(capsys):
    assert main(["oracle", "mystery n=3"]) == 2


def test_internal_value_error_exits_one(monkeypatch, capsys):
    def broken(d, w=None):
        raise ValueError("internal fault")

    monkeypatch.setattr("seymour.cli.snp_set", broken)
    assert main(["oracle", "C3"]) == 1
    assert "ValueError: internal fault" in capsys.readouterr().err


def test_unrealizable_spec_exits_two(capsys):
    assert main(["gen", "all-kings", "n=4"]) == 2
    assert "seymour:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "delta"])
@pytest.mark.parametrize("shapes", ["-1", "0"])
def test_star_without_leaves_is_a_usage_error(command, shapes, capsys):
    spec = f"star-deleted n=5 seed=1 shapes={shapes}"
    argv = [command, *spec.split()] if command == "gen" else [command, spec]
    assert main(argv) == 2
    assert "at least one leaf" in capsys.readouterr().err


def test_verify_reports_ignored_weights(tmp_path, capsys):
    path = tmp_path / "weighted.txt"
    d = fixture("ST1")
    path.write_text(emit_instance(d, Weighting(["3/2"] + ["1"] * (d.n - 1))))
    code, out = run(["verify", "single-star", str(path), "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "verified"
    assert rec["findings"] == [WEIGHTS_IGNORED]
    code, out = run(["verify", "single-star", "ST1", "--format", "machine"], capsys)
    assert json.loads(out)["records"][0]["findings"] == []


def _without_timing(report: dict) -> dict:
    report["config"].pop("jobs")
    for rec in report["records"]:
        rec.pop("seconds")
    return report


@pytest.mark.parametrize("family", ["tournaments-n4", "digraphs-n4"])
def test_exhaustive_sweep_with_two_jobs_matches_serial(family, capsys):
    reports = []
    for jobs in ("1", "2"):
        code, out = run(["sweep", family, "--jobs", jobs, "--format", "machine"], capsys)
        assert code == 0
        reports.append(_without_timing(json.loads(out)))
    assert reports[0] == reports[1]


def test_sweep_filtered_family(capsys):
    code, out = run(
        ["sweep", "two-stars", "--budget", "40", "--max-n", "8",
         "--format", "machine"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["instances"] > 0
    assert payload["summary"]["failed"] == 0


def test_sweep_exhaustive_small(capsys):
    code, out = run(["sweep", "tournaments-n4", "--format", "machine"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["evaluated"] == 64
    assert payload["config"]["violations"] == 0


@pytest.mark.parametrize("family, evaluated", [("tournaments-n4", 64), ("digraphs-n4", 729)])
def test_exhaustive_sweep_summary_counts_evaluated_instances(family, evaluated, capsys):
    code, out = run(["sweep", family, "--format", "machine"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["evaluated"] == evaluated
    violations = payload["config"]["violations"]
    assert len(payload["records"]) == violations
    assert payload["summary"]["instances"] == evaluated
    assert payload["summary"]["verified"] == evaluated - violations
    assert payload["summary"]["failed"] == violations


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run(
        ["oracle", "C3", "--format", "machine", "--out", str(target)], capsys
    )
    assert code == 0
    assert json.loads(target.read_text())["command"] == "oracle"


def test_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SNCWB_FORMAT", "machine")
    code, out = run(["oracle", "C3"], capsys)
    assert code == 0
    assert json.loads(out)["command"] == "oracle"


@pytest.mark.parametrize("name, value", [("SNCWB_JOBS", "x"), ("SNCWB_FORMAT", "xml")])
def test_bad_env_preset_is_a_usage_error(name, value, capsys, monkeypatch):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "C3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and repr(value) in err


def test_delta_on_a_non_star_missing_graph_is_gated(tmp_path, capsys):
    path = tmp_path / "empty4.txt"
    path.write_text("4 0\n")  # missing graph K4
    code, out = run(["delta", str(path), "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "hypothesis-failed"
    assert rec["detail"]["good-digraph"] is None
    assert rec["findings"] == [Analysis(Digraph(4, [])).dec_error]


def test_reporting_empty_run_and_exit_codes():
    rep = Report("oracle", {})
    assert rep.summary() == {
        "instances": 0, "verified": 0, "hypothesis-failed": 0,
        "failed": 0, "findings": 0,
    }
    assert rep.exit_code == 0
    assert "summary" in emit_report(rep, "human")
    rep.add(InstanceRecord("ff", "x", "hypothesis-failed"))
    assert rep.exit_code == 0
    rep.add(InstanceRecord("aa", "y", "failed"))
    assert rep.exit_code == 1
    assert [r.fingerprint for r in rep.sorted_records()] == ["aa", "ff"]
    with pytest.raises(ValueError):
        emit_report(rep, "xml")


@pytest.mark.parametrize("spec", [
    "random-tournament n=7 sed=3",
    "star-deleted n=6 seed=1 shape=1,1",
    "random-digraph n=5 seed=1 desnity=0.9",
    "losing-cycle-gadget k=3 n=abc",
    "fixture name=C3 n=3",
    "all-kings n=5 seed=1",
    "random-tournament n=7 n=8",
])
@pytest.mark.parametrize("command", ["gen", "oracle"])
def test_a_spec_key_the_kind_does_not_read_is_a_usage_error(command, spec, capsys):
    argv = [command, *spec.split()] if command == "gen" else [command, spec]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("seymour: ") and err.count("\n") == 1
    assert "reads no key" in err or "repeated" in err


@pytest.mark.parametrize("spec", [
    "fixture name=C3",
    "random-tournament n=7 seed=3",
    "random-digraph n=5 seed=1 density=0.9",
    "star-deleted n=6 seed=1 shapes=1,1",
    "losing-cycle-gadget k=3",
    "all-kings n=5",
])
def test_every_key_a_kind_reads_is_accepted(spec, capsys):
    assert run(["gen", *spec.split()], capsys)[0] == 0


def test_an_unreadable_instance_path_is_a_usage_error(tmp_path, capsys):
    assert main(["oracle", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"seymour: cannot read {tmp_path}: ") and err.count("\n") == 1


NOT_UTF8 = b"\xff\xfe3 0\n"


def test_a_non_utf8_instance_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(NOT_UTF8)
    assert main(["oracle", str(path)]) == 2
    assert capsys.readouterr().err == f"seymour: cannot read {path}: not UTF-8 text\n"


# a strict stdin raises on the bad byte; a surrogateescape one (the C
# locale's) decodes it, here inside a comment the parser would skip
@pytest.mark.parametrize("data, errors", [(NOT_UTF8, "strict"), (b"# \xff\n3 0\n", "surrogateescape")])
def test_non_utf8_stdin_is_a_usage_error(data, errors, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", errors))
    assert main(["oracle", "-"]) == 2
    assert capsys.readouterr().err == "seymour: cannot read <stdin>: not UTF-8 text\n"


def test_an_unbounded_weight_numeral_is_a_parse_error(tmp_path, capsys):
    # 1e9999 used to parse, and then the median value failed to print (exit 1)
    path = tmp_path / "huge.txt"
    path.write_text("2 1\n0 1\nw 0 1e9999\n")
    assert main(["median", str(path)]) == 2
    assert capsys.readouterr().err.startswith("seymour: line 3: weight '1e9999' is not")


@pytest.mark.parametrize("argv", [["oracle", "C3"], ["gen", "fixture", "name=C3"]])
def test_an_unwritable_out_path_is_a_usage_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main([*argv, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"seymour: cannot write {target}: ") and err.count("\n") == 1
    assert not target.parent.exists()


def test_sediment_defaults_to_the_identity_order(capsys):
    reports = []
    for order in ([], ["--order", "0,1,2"]):
        code, out = run(["sediment", "C3", *order, "--format", "machine"], capsys)
        assert code == 0
        reports.append(_without_timing(json.loads(out)))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("order, message", [
    ("0,x,2", "malformed order"), ("0,1", "not a permutation"), ("0,1,1", "not a permutation"),
])
def test_a_bad_sediment_order_is_a_usage_error(order, message, capsys):
    assert main(["sediment", "C3", "--order", order]) == 2
    assert message in capsys.readouterr().err


def test_oracle_flags_an_empty_snp_set(monkeypatch, capsys):
    # only a counterexample to the conjecture reaches this finding
    monkeypatch.setattr("seymour.cli.snp_set", lambda d, w=None: ())
    code, out = run(["oracle", "C3", "--format", "machine"], capsys)
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "verified"
    assert rec["findings"] == ["empty snp set: potential conjecture counterexample"]


def _planted_fault(d, cap):
    raise ConsistencyError("planted fault")


@pytest.mark.parametrize("argv", [
    ["verify", "two-stars", "star-deleted n=6 seed=1261 shapes=1,1"],
    ["sweep", "two-stars", "--max-n", "6", "--budget", "60"],
])
def test_a_procedure_fault_is_a_failed_record(argv, monkeypatch, capsys):
    monkeypatch.setitem(THEOREMS, "two-stars", _planted_fault)
    code, out = run([*argv, "--format", "machine"], capsys)
    assert code == 1
    records = json.loads(out)["records"]
    assert records and all(rec["status"] == "failed" for rec in records)
    assert all(
        rec["detail"] == {"theorem": "two-stars", "error": "ConsistencyError: planted fault"}
        for rec in records
    )


@pytest.mark.parametrize("family, name, value, check, evaluated", [
    ("tournaments-n4", "has_snp", False, "median feed has snp", 64),
    ("digraphs-n4", "snp_set", (), "snp set nonempty", 729),
])
def test_an_exhaustive_sweep_records_each_violation(
    family, name, value, check, evaluated, monkeypatch, capsys
):
    monkeypatch.setattr(f"seymour.cli.{name}", lambda *args: value)
    code, out = run(["sweep", family, "--format", "machine"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["config"]["violations"] == evaluated
    assert payload["summary"]["failed"] == evaluated
    arcs = {Digraph(4, map(tuple, rec["detail"]["arcs"])).arcs for rec in payload["records"]}
    assert len(arcs) == evaluated
    assert all(rec["detail"]["check"] == check for rec in payload["records"])


@pytest.mark.parametrize("flag", ["--budget", "--cap-exact", "--jobs"])
def test_a_zero_cap_budget_or_jobs_exits_two(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["median", "TT3", flag, "0"])
    assert exc.value.code == 2
    assert ">= 1" in capsys.readouterr().err
