"""Command-line workbench.

Commands: oracle, median, sediment, delta, verify, sweep, gen.  Instances
come from a file path, a fixture name, or an inline instance spec
(`kind key=value ...`).  Flags can be preset through environment variables
with the SNCWB_ prefix (SNCWB_CAP_EXACT, SNCWB_SEED, SNCWB_BUDGET,
SNCWB_FORMAT, SNCWB_OUT, SNCWB_JOBS); explicit flags win, and a bad
preset is a usage error like a bad flag.

The single-instance commands (oracle, median, sediment, delta, verify) are
functions of (args, digraph, weights) returning (status, detail, findings),
set as `run` by their subparsers, with `echo` naming any extra config key.
`run_instance` loads the instance, builds the report and adds the record
that `_add_timed` times; a filtered sweep adds each instance's record
through the same `_add_timed`, the one place that reads the clock.

Exit codes: 0 = all verified or gated, 1 = oracle or consistency failure
or any other internal fault, 2 = usage or parse error (including an
instance-spec key its kind does not read, an instance file or stdin that
cannot be read or is not UTF-8 text, an --out path that cannot be
written, and a median order of more vertices than the local repair's
cap MAX_LOCAL_N).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import Callable

from . import forge
from .dependency import Analysis, good_edges
from .digraph import Digraph, Weighting
from .errors import ExactBoundExceededError, HypothesisFailedError, ParseError, SeymourError
from .instfile import emit_instance, parse_instance
from .orders import (
    DEFAULT_EXACT_CAP,
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

# what a single-instance command returns: (status, detail, findings)
Outcome = tuple[str, dict, tuple[str, ...]]


class UsageError(Exception):
    """A bad command line, instance spec or path; exits 2."""


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


def _read_text(name: str, read: Callable[[], str]) -> str:
    """The text read() returns; a usage error unless it is readable UTF-8."""
    try:
        text = read()
        # stdin may decode a bad byte to a lone surrogate instead of raising
        text.encode("utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read {name}: {exc.strerror or exc}") from None
    except UnicodeError:
        raise UsageError(f"cannot read {name}: not UTF-8 text") from None
    return text


def _load_instance(source: str) -> tuple[Digraph, Weighting | None, str]:
    """Resolve a file path, a fixture name, or an inline instance spec."""
    if source == "-":
        return (*parse_instance(_read_text("<stdin>", sys.stdin.read)), "<stdin>")
    if os.path.exists(source):

        def read() -> str:
            with open(source, encoding="utf-8") as fh:
                return fh.read()

        return (*parse_instance(_read_text(source, read)), source)
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
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _config(args, **extra) -> dict:
    return {
        "cap-exact": args.cap_exact,
        "seed": args.seed,
        "budget": args.budget,
        "jobs": args.jobs,
        **extra,
    }


def _add_timed(report: Report, d: Digraph, source: str, run, *inputs) -> None:
    """Add the record of run(*inputs) -> Outcome, timed: the CLI's one clock."""
    start = time.perf_counter()
    status, detail, findings = run(*inputs)
    report.add(InstanceRecord(
        d.fingerprint(), source, status, detail, findings, time.perf_counter() - start,
    ))


def run_instance(args) -> Report:
    """Run one single-instance command: its subparser sets `run` and `echo`."""
    d, w, source = _load_instance(args.instance)
    echo = {key: getattr(args, attr) for key, attr in args.echo.items()}
    report = Report(args.command, _config(args, **echo, instance=source))
    _add_timed(report, d, source, args.run, args, d, w)
    return report


# ---------------------------------------------------------------------------
# single-instance commands: (args, digraph, weights) -> (status, detail, findings)


def _oracle(args, d: Digraph, w: Weighting | None) -> Outcome:
    winners = snp_set(d, w)
    detail = {
        "n": d.n,
        "snp-set": list(winners),
        "out-degrees": [d.degree(v) for v in range(d.n)],
        "second-degrees": [d.second_degree(v) for v in range(d.n)],
    }
    # a digraph without vertices has no vertex that could violate the conjecture
    if d.n and not winners:
        return VERIFIED, detail, ("empty snp set: potential conjecture counterexample",)
    return VERIFIED, detail, ()


def _median(args, d: Digraph, w: Weighting | None) -> Outcome:
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
    return (VERIFIED if fb.ok else FAILED), detail, ()


def _sediment(args, d: Digraph, w: Weighting | None) -> Outcome:
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
    return (VERIFIED if out.kind in ("stable", "periodic") else FAILED), detail, ()


def _delta(args, d: Digraph, w: Weighting | None) -> Outcome:
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
    return (VERIFIED, detail, ()) if stars else (GATED, detail, (analysis.dec_error,))


def _prove(theorem_id: str, d: Digraph, w: Weighting | None, cap: int) -> Outcome:
    """A theorem procedure's outcome; a weighted instance gets a finding."""
    try:
        cert = THEOREMS[theorem_id](d, cap=cap)
    except HypothesisFailedError as exc:
        status, findings = GATED, ()
        detail = {"theorem": theorem_id, "clause": exc.clause, "evidence": exc.evidence}
    except ExactBoundExceededError:
        # an instance above --cap-exact is a usage error: main exits 2
        raise
    except SeymourError as exc:
        status, findings = FAILED, ()
        detail = {"theorem": theorem_id, "error": f"{type(exc).__name__}: {exc}"}
    else:
        status, findings = VERIFIED, cert.findings
        detail = {
            "theorem": theorem_id,
            "witnesses": list(cert.witnesses),
            "verdicts": [
                {"vertex": v.vertex, "d+": v.out_degree, "d++": v.second_degree}
                for v in cert.verdicts
            ],
            "trace": list(cert.trace),
        }
    if w is not None:
        findings += (WEIGHTS_IGNORED,)
    return status, detail, findings


def _verify(args, d: Digraph, w: Weighting | None) -> Outcome:
    return _prove(args.theorem_id, d, w, args.cap_exact)


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
        _add_timed(report, d, args.family, _prove, args.family, d, None, args.cap_exact)


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
        "--cap-exact", type=int, default=_env_default("cap_exact", DEFAULT_EXACT_CAP),
        help=(
            f"max n for the exact median solver (default {DEFAULT_EXACT_CAP}, "
            f"at most {MAX_EXACT_CAP})"
        ),
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
    p.set_defaults(handler=run_instance, run=_oracle, echo={})

    p = sub.add_parser("median", parents=[common], help="median order + analysis")
    p.add_argument("instance")
    p.set_defaults(handler=run_instance, run=_median, echo={})

    p = sub.add_parser("sediment", parents=[common], help="sedimentation trace")
    p.add_argument("instance")
    p.add_argument("--order", help="initial order, e.g. '0,1,2' (default identity)")
    p.set_defaults(handler=run_instance, run=_sediment, echo={})

    p = sub.add_parser("delta", parents=[common], help="dependency digraph report")
    p.add_argument("instance")
    p.set_defaults(handler=run_instance, run=_delta, echo={})

    p = sub.add_parser("verify", parents=[common], help="run a theorem procedure")
    p.add_argument("theorem_id", choices=THEOREM_IDS)
    p.add_argument("instance")
    p.set_defaults(handler=run_instance, run=_verify, echo={"theorem": "theorem_id"})

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
        if isinstance(result, int):
            return result
        _write(emit_report(result, args.format), args.out)
    # a size cap reaching here is --cap-exact under `verify` or a filtered
    # sweep, or `median`'s local repair cap
    except (ParseError, UsageError, ExactBoundExceededError) as exc:
        print(f"seymour: {exc}", file=sys.stderr)
        return 2
    except (SeymourError, ValueError) as exc:
        print(f"seymour: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
