"""Benchmark of the seymour workbench: one workload per run, or all of them.

    python3 perfbench/run.py --workload theorem-corpus --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the library is imported from its `src`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  The
line before it holds the environment, the error rate, the tail percentile
with its sample counts and the digest of the first outputs of the run.

The run is closed-loop on one thread: the next op starts when the previous
one returns.  Ops cycle through the seeded inputs until `--seconds` of op
time has been measured (in whole rounds where the workload has strata);
each output is checked outside the timer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("theorem-corpus", "tournament-sweep", "analysis-scan", "local-repair")


def import_library() -> None:
    """Import seymour from the checkout's src, or exit non-zero without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import seymour
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import seymour from {SRC}: {exc}")
    if Path(seymour.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: seymour was imported from {seymour.__file__}, not {SRC}")


def commit() -> str:
    """HEAD of the checkout's git repository, read from .git; else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit(),
        "seed": seed,
    }


class Loop:
    """Latencies, checks and the output digest of one run of ops.

    The digest covers the first `digest_ops` ops of the schedule; those the
    timed loop did not reach are run, untimed, by digest().  A schedule in
    rounds is timed in whole rounds: the loop ends at the first round boundary
    after the time asked for.
    """

    def __init__(self, workload, items: list, seed: int) -> None:
        from workloads import schedule

        self.workload = workload
        self.schedule, self.round_ops = schedule(workload, items, seed)
        self.digest_ops = min(len(items), workload.digest_ops or len(items))
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        self.witnesses = 0
        self._digest = hashlib.sha256()

    def _one(self, call) -> float:
        i = self.attempted
        item = next(self.schedule)
        t0 = perf_counter()
        try:
            out = call(self.workload.op, item)
            err = None
        except Exception as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if err is None:
            try:
                err = self.workload.check(item, out, deep=i < self.digest_ops)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if err is None:
            self.witnesses += len(getattr(out, "witnesses", ()))
        else:
            self.failed += 1
            self.first_failure = self.first_failure or f"op {i}: {err}"
        if i < self.digest_ops:
            line = err if err is not None else self.workload.record(item, out)
            self._digest.update(line.encode() + b"\n")
        return elapsed

    def run(self, seconds: float | None = None, ops: int | None = None, call=None) -> float:
        """Time ops until `seconds` of op time or `ops` ops; return op time."""
        call = call or (lambda op, item: op(item))
        busy = 0.0
        while not self._done(busy, seconds, ops):
            elapsed = self._one(call)
            self.latencies.append(elapsed)
            busy += elapsed
        return busy

    def _done(self, busy: float, seconds: float | None, ops: int | None) -> bool:
        done = len(self.latencies)
        if ops is not None:
            return done >= ops
        return busy >= seconds and not (self.round_ops and done % self.round_ops)

    def digest(self) -> str:
        while self.attempted < self.digest_ops:
            self._one(lambda op, item: op(item))
        return self._digest.hexdigest()[:16]


def percentile(values: list[float], p: int) -> float:
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def ops_per_s(loop: Loop) -> float:
    """Median throughput over the run's segments: its rounds, or twenty equal
    runs of ops.  A median keeps a few seconds of a stalled host from moving
    the figure, where total ops over total time would absorb them."""
    lat = loop.latencies
    size = loop.round_ops or max(1, len(lat) // 20)
    segments = [lat[i : i + size] for i in range(0, len(lat) - size + 1, size)]
    return statistics.median(len(seg) / sum(seg) for seg in segments)


def set_up(workload, seed: int, repeats: int) -> tuple[list, list[float]]:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        items = workload.setup(seed)
        times.append(perf_counter() - t0)
    return items, times


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, dict, Loop]:
    items, setup_times = set_up(workload, seed, SETUP_REPEATS)
    loop = Loop(workload, items, seed)
    loop.run(seconds)
    lat = loop.latencies
    p = workload.tail_percentile
    tail = percentile(lat, p)
    metrics = {
        "ops_per_s": (ops_per_s(loop), "1/s"),
        "solve_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "solve_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "samples": len(lat),
        "tail_percentile": p,
        "samples_beyond_tail": sum(1 for x in lat if x > tail),
        "setup_runs_s": [round(t, 4) for t in setup_times],
    }
    return metrics, info, loop


def run_traced(workload, seed: int, seconds: float) -> tuple[dict, dict, Loop]:
    """Untraced ops for half the time, then the same ops traced."""
    from tracer import Tracer, layer_metrics

    items, _ = set_up(workload, seed, 1)
    loop = Loop(workload, items, seed)
    untraced_s = loop.run(seconds / 2)
    ops = len(loop.latencies)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.root("setup", workload.setup, seed)
        traced = Loop(workload, items, seed)
        traced_s = traced.run(ops=ops, call=lambda op, item: tracer.root("op", op, item))
    finally:
        tracer.uninstall()
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    loop.first_failure = loop.first_failure or traced.first_failure
    metrics, shares = layer_metrics(tracer, traced.witnesses)
    metrics.update({
        "trace.ops": (ops, "count"),
        "trace.spans": (len(tracer.start), "count"),
        "trace.ops_per_s_untraced": (ops / untraced_s, "1/s"),
        "trace.ops_per_s_traced": (ops / traced_s, "1/s"),
        "trace.overhead_pct": ((1 - untraced_s / traced_s) * 100, "%"),
    })
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}.csv.gz"
    tracer.write(spans_file)
    info = {"self_time_shares": shares, "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, info, loop


def run_one(args) -> int:
    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](small=args.small)
    run = run_traced if args.trace else run_untraced
    metrics, info, loop = run(workload, args.seed, args.seconds)
    digest = loop.digest()
    info = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        "error_rate": loop.failed / loop.attempted,
        "first_failure": loop.first_failure,
        "digest": digest,
        **info,
    }
    print(json.dumps(info))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        info, result = json.loads(info_line), json.loads(result_line)
        print(f"== {name}: error_rate {info['error_rate']} digest {info['digest']}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{key}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="tiny inputs, for the harness self-check"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
