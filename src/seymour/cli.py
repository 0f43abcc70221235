"""Command-line workbench.

Commands: oracle, median, sediment, delta, verify, sweep, gen.  Instances
come from a file path, a fixture name, or an inline instance spec
(`kind key=value ...`).  Flags can be preset through environment variables
with the SNCWB_ prefix (SNCWB_CAP_EXACT, SNCWB_SEED, SNCWB_BUDGET,
SNCWB_FORMAT, SNCWB_OUT, SNCWB_JOBS); explicit flags win, and a bad
preset is a usage error like a bad flag.

Exit codes: 0 = all verified or gated, 1 = oracle or consistency failure
or any other internal fault, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import replace

from . import forge, theorems
from .dependency import Analysis, good_edges
from .digraph import Digraph, Weighting
from .errors import HypothesisFailedError, ParseError, SeymourError
from .instfile import emit_instance, parse_instance
from .orders import (
    MAX_EXACT_CAP,
    analyze,
    exact_median_order,
    local_median_order,
    satisfies_feedback,
    sediment,
)
from .reporting import FAILED, GATED, VERIFIED, InstanceRecord, Report, emit_report
from .stars import edge_pair
from .theorems import THEOREM_IDS, THEOREMS, has_snp, snp_set

ENV_PREFIX = "SNCWB_"
FORMATS = ("human", "machine")

EXHAUSTIVE_FAMILIES = (
    "tournaments-n4",
    "tournaments-n5",
    "tournaments-n6",
    "digraphs-n4",
)
SWEEP_FAMILIES = EXHAUSTIVE_FAMILIES + forge.SEARCH_PREDICATES


WEIGHTS_IGNORED = "instance weights ignored: theorem procedures are unweighted"

# the pool forks every worker at once, so --jobs has a ceiling
MAX_JOBS = 64


class UsageError(Exception):
    """A bad command line or instance spec; exits 2."""


def _env_default(name: str, fallback):
    """The raw SNCWB_ preset of a flag, else fallback.

    argparse applies a flag's type to a string default, so a bad integer
    preset is a usage error like a bad flag; choices are checked in main.
    """
    return os.environ.get(ENV_PREFIX + name.upper(), fallback)


def _build_spec(tokens: list[str]) -> tuple[Digraph, str]:
    """Digraph and canonical text of an instance spec; bad specs are usage errors."""
    try:
        spec = forge.InstanceSpec.parse(tokens)
        return forge.build(spec), spec.text()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_instance(source: str) -> tuple[Digraph, Weighting | None, str]:
    """Resolve a file path, a fixture name, or an inline instance spec."""
    if source == "-":
        return (*parse_instance(sys.stdin.read()), "<stdin>")
    if os.path.exists(source):
        with open(source) as fh:
            d, w = parse_instance(fh.read())
        return d, w, source
    if source in forge.FIXTURE_NAMES:
        return forge.fixture(source), None, f"fixture {source}"
    d, text = _build_spec(source.split())
    return d, None, text


def _order_arg(text: str | None, n: int) -> tuple[int, ...]:
    if text is None:
        return tuple(range(n))
    try:
        order = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"malformed order {text!r}") from None
    if sorted(order) != list(range(n)):
        raise UsageError(f"order {text!r} is not a permutation of 0..{n - 1}")
    return order


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, **extra) -> dict:
    cfg = {
        "cap-exact": args.cap_exact,
        "seed": args.seed,
        "budget": args.budget,
        "jobs": args.jobs,
    }
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# single-instance commands


def cmd_oracle(args) -> Report:
    d, w, source = _load_instance(args.instance)
    report = Report("oracle", _config(args, instance=source))
    start = time.perf_counter()
    winners = snp_set(d, w)
    detail = {
        "n": d.n,
        "snp-set": list(winners),
        "out-degrees": [d.degree(v) for v in range(d.n)],
        "second-degrees": [d.second_degree(v) for v in range(d.n)],
    }
    findings = ()
    # a digraph without vertices has no vertex that could violate the conjecture
    if d.n and not winners:
        findings = ("empty snp set: potential conjecture counterexample",)
    report.add(
        InstanceRecord(
            d.fingerprint(), source, VERIFIED, detail, findings,
            time.perf_counter() - start,
        )
    )
    return report


def cmd_median(args) -> Report:
    d, w, source = _load_instance(args.instance)
    report = Report("median", _config(args, instance=source))
    start = time.perf_counter()
    if d.n <= args.cap_exact:
        res = exact_median_order(d, w, cap=args.cap_exact)
        order, value, mode = res.order, res.value, "exact"
    else:
        order = local_median_order(d, tuple(range(d.n)), w)
        value, mode = None, "local"
    # the empty order has no feed to analyze
    ana = analyze(d, order) if order else None
    fb = satisfies_feedback(d, order, w)
    detail = {
        "mode": mode,
        "order": list(order),
        "value": str(value) if value is not None else None,
        "feed": ana.feed if ana else None,
        "good": list(ana.good) if ana else [],
        "bad": list(ana.bad) if ana else [],
        "feedback": fb.ok,
        "feed-snp": has_snp(d, ana.feed, w) if ana else None,
    }
    status = VERIFIED if fb.ok else FAILED
    report.add(
        InstanceRecord(
            d.fingerprint(), source, status, detail, (),
            time.perf_counter() - start,
        )
    )
    return report


def cmd_sediment(args) -> Report:
    d, w, source = _load_instance(args.instance)
    report = Report("sediment", _config(args, instance=source))
    start = time.perf_counter()
    order = _order_arg(args.order, d.n)
    trace = sediment(Analysis(d), order, w, budget=args.budget)
    out = trace.outcome
    detail = {
        "outcome": out.kind,
        "rank": out.rank,
        "cycle-start": out.cycle_start,
        "cycle-length": out.cycle_length,
        "steps": len(trace.orders) - 1,
        "final": list(trace.final),
    }
    status = VERIFIED if out.kind in ("stable", "periodic") else FAILED
    report.add(
        InstanceRecord(
            d.fingerprint(), source, status, detail, (),
            time.perf_counter() - start,
        )
    )
    return report


def cmd_delta(args) -> Report:
    d, w, source = _load_instance(args.instance)
    report = Report("delta", _config(args, instance=source))
    start = time.perf_counter()
    analysis = Analysis(d)
    dd, ci = analysis.dd, analysis.ci
    # goodness is defined for disjoint-star missing graphs only
    stars = analysis.dec is not None
    detail = {
        "missing-edges": [edge_pair(e) for e in dd.edges],
        "delta-arcs": [(edge_pair(a), edge_pair(b)) for a, b in dd.arcs],
        "good-edges": [edge_pair(e) for e in good_edges(dd)],
        "components": [
            [edge_pair(e) for e in comp] for comp in ci.components
        ],
        "k-sets": [list(k) for k in ci.k_sets],
        "min-out-degree": dd.min_out_degree,
        "min-in-degree": dd.min_in_degree,
        "good-digraph": analysis.goodness.is_good if stars else None,
    }
    report.add(
        InstanceRecord(
            d.fingerprint(), source, VERIFIED if stars else GATED, detail,
            () if stars else (analysis.dec_error,),
            time.perf_counter() - start,
        )
    )
    return report


def _verify_record(theorem_id: str, d: Digraph, source: str, cap: int) -> InstanceRecord:
    start = time.perf_counter()
    try:
        cert = THEOREMS[theorem_id](d, cap=cap)
    except HypothesisFailedError as exc:
        return InstanceRecord(
            d.fingerprint(), source, GATED,
            {"theorem": theorem_id, "clause": exc.clause, "evidence": exc.evidence},
            (), time.perf_counter() - start,
        )
    except SeymourError as exc:
        return InstanceRecord(
            d.fingerprint(), source, FAILED,
            {"theorem": theorem_id, "error": f"{type(exc).__name__}: {exc}"},
            (), time.perf_counter() - start,
        )
    detail = {
        "theorem": theorem_id,
        "witnesses": list(cert.witnesses),
        "verdicts": [
            {"vertex": v.vertex, "d+": v.out_degree, "d++": v.second_degree}
            for v in cert.verdicts
        ],
        "trace": list(cert.trace),
    }
    return InstanceRecord(
        d.fingerprint(), source, VERIFIED, detail, cert.findings,
        time.perf_counter() - start,
    )


def cmd_verify(args) -> Report:
    d, w, source = _load_instance(args.instance)
    report = Report(
        "verify", _config(args, theorem=args.theorem_id, instance=source)
    )
    record = _verify_record(args.theorem_id, d, source, args.cap_exact)
    if w is not None:
        record = replace(record, findings=record.findings + (WEIGHTS_IGNORED,))
    report.add(record)
    return report


# ---------------------------------------------------------------------------
# sweeps


def _feed_snp_case(payload) -> tuple[int, tuple, bool]:
    n, arcs = payload
    t = Digraph(n, arcs)
    res = exact_median_order(t, cap=n)
    return n, arcs, has_snp(t, res.order[-1])


def _snp_nonempty_case(payload) -> tuple[int, tuple, bool]:
    n, arcs = payload
    d = Digraph(n, arcs)
    return n, arcs, bool(snp_set(d))


def _sweep_exhaustive(args, report: Report) -> None:
    if args.family.startswith("tournaments"):
        n = int(args.family.rsplit("n", 1)[1])
        payloads = ((t.n, t.arcs) for t in forge.all_tournaments(n))
        case = _feed_snp_case
        label = "median feed has snp"
    else:
        payloads = ((d.n, d.arcs) for d in forge.all_digraphs(4))
        case = _snp_nonempty_case
        label = "snp set nonempty"
    evaluated = 0
    with ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else nullcontext() as pool:
        results = pool.map(case, payloads, chunksize=256) if pool else map(case, payloads)
        for n, arcs, ok in results:
            evaluated += 1
            if not ok:
                d = Digraph(n, arcs)
                report.add(InstanceRecord(
                    d.fingerprint(), args.family, FAILED,
                    {"arcs": list(arcs), "check": label},
                ))
    report.config["evaluated"] = evaluated
    report.config["violations"] = len(report.records)
    report.unrecorded_verified = evaluated - len(report.records)


def _sweep_predicate(args, report: Report) -> None:
    res = forge.filtered_search(
        args.family, args.max_n, args.seed, budget=args.budget
    )
    report.config["attempts"] = res.attempts
    for d in res.instances:
        report.add(_verify_record(args.family, d, args.family, args.cap_exact))


def cmd_sweep(args) -> Report:
    # exhaustive sweeps have fixed sizes and never read --max-n
    if args.family in EXHAUSTIVE_FAMILIES:
        report = Report("sweep", _config(args, family=args.family))
        _sweep_exhaustive(args, report)
    else:
        report = Report("sweep", _config(args, family=args.family, max_n=args.max_n))
        _sweep_predicate(args, report)
    return report


def cmd_gen(args) -> int:
    d, _ = _build_spec(args.spec)
    _write(emit_instance(d), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cap-exact", type=int, default=_env_default("cap_exact", 15),
        help=f"max n for the exact median solver (default 15, at most {MAX_EXACT_CAP})",
    )
    common.add_argument(
        "--seed", type=int, default=_env_default("seed", 0),
        help="seed for randomized commands (default 0)",
    )
    common.add_argument(
        "--budget", type=int, default=_env_default("budget", 1000),
        help="iteration budget for searches and sedimentation (default 1000)",
    )
    common.add_argument(
        "--format", choices=FORMATS,
        default=_env_default("format", "human"),
        help="report format (default human)",
    )
    common.add_argument(
        "--out", default=_env_default("out", None) or None,
        help="write output to this path instead of stdout",
    )
    common.add_argument(
        "--jobs", type=int, default=_env_default("jobs", 1),
        help=f"worker processes for exhaustive sweeps (default 1, at most {MAX_JOBS})",
    )

    parser = argparse.ArgumentParser(
        prog="seymour",
        description="second neighborhood workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", parents=[common], help="brute-force snp set")
    p.add_argument("instance", help="file path, fixture name, or instance spec")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("median", parents=[common], help="median order + analysis")
    p.add_argument("instance")
    p.set_defaults(handler=cmd_median)

    p = sub.add_parser("sediment", parents=[common], help="sedimentation trace")
    p.add_argument("instance")
    p.add_argument("--order", help="initial order, e.g. '0,1,2' (default identity)")
    p.set_defaults(handler=cmd_sediment)

    p = sub.add_parser("delta", parents=[common], help="dependency digraph report")
    p.add_argument("instance")
    p.set_defaults(handler=cmd_delta)

    p = sub.add_parser("verify", parents=[common], help="run a theorem procedure")
    p.add_argument("theorem_id", choices=THEOREM_IDS)
    p.add_argument("instance")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("sweep", parents=[common], help="exhaustive or filtered runs")
    p.add_argument("family", choices=SWEEP_FAMILIES)
    p.add_argument(
        "--max-n", type=int, default=12,
        help=(
            f"largest instance size for filtered sweeps (default 12, at least "
            f"{forge.MIN_SEARCH_N}, or {forge.search_floor('three-stars')} for kings-stars, "
            f"three-stars and three-stars-two; exhaustive sweeps ignore it)"
        ),
    )
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("gen", parents=[common], help="emit an instance file")
    p.add_argument("spec", nargs="+", help="kind key=value ...")
    p.set_defaults(handler=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format not in FORMATS:
        parser.error(f"{ENV_PREFIX}FORMAT {args.format!r} is not one of {', '.join(FORMATS)}")
    if args.cap_exact < 1 or args.budget < 1 or args.jobs < 1:
        parser.exit(2, "caps, budgets, and jobs must be >= 1\n")
    if args.cap_exact > MAX_EXACT_CAP:
        parser.error(
            f"--cap-exact {args.cap_exact} exceeds the exact solver's ceiling {MAX_EXACT_CAP}"
        )
    if args.jobs > MAX_JOBS:
        parser.error(f"--jobs {args.jobs} exceeds the ceiling {MAX_JOBS}")
    if hasattr(args, "max_n") and args.family not in EXHAUSTIVE_FAMILIES:
        floor = forge.search_floor(args.family)
        if args.max_n < floor:
            parser.error(
                f"--max-n {args.max_n} is below the filtered search's floor {floor}"
                f" for {args.family}"
            )
    try:
        result = args.handler(args)
    except (ParseError, UsageError) as exc:
        print(f"seymour: {exc}", file=sys.stderr)
        return 2
    except (SeymourError, ValueError) as exc:
        print(f"seymour: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, int):
        return result
    _write(emit_report(result, args.format), args.out)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
