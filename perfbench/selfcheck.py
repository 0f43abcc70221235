"""Self-check of the benchmark harness on tiny inputs.

    python3 perfbench/selfcheck.py

Runs every workload for about a second with `--small`, untraced and traced,
and asserts that each run exits 0, checks its outputs correct, reports
exactly the metrics BENCHMARK.json names with their units, and that the
traced and untraced runs of one seed give the same output digest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def expect(ok: bool, message: str) -> None:
    """An assertion that also holds under `python -O`."""
    if not ok:
        raise AssertionError(message)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--small",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    expect(
        proc.returncode == 0,
        f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}",
    )
    info_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(info_line), json.loads(result_line)


def check_metrics(label: str, metrics: dict, expected: list[dict]) -> None:
    names = {m["name"]: m["unit"] for m in expected}
    missing = sorted(set(names) - set(metrics))
    extra = sorted(set(metrics) - set(names))
    expect(not missing and not extra, f"{label}: missing {missing}, unexpected {extra}")
    for name, unit in names.items():
        got = metrics[name]
        expect(got["unit"] == unit, f"{label}: {name} has unit {got['unit']}, want {unit}")
        expect(isinstance(got["value"], (int, float)), f"{label}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            info, result = run(workload, trace)
            expect(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
            expect(
                result["correct"] and result["failed"] == 0,
                f"{label}: {info['first_failure']}",
            )
            expect(result["attempted"] >= 1, f"{label}: no op attempted")
            check_metrics(label, result["metrics"], expected)
            for key in ("env", "error_rate", "digest"):
                expect(key in info, f"{label}: info line lacks {key}")
            digests[trace] = info["digest"]
            print(f"ok  {label}: {result['attempted']} ops, digest {info['digest']}")
        expect(digests[0] == digests[1], f"{workload}: traced digest differs")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
