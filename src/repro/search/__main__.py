"""CLI for the eviction-policy search: run/resume/report/replay-best.

``run`` starts a fresh search and writes ``BENCH_search.json``;
``resume`` continues a checkpointed one bit-identically; ``report``
rebuilds the report from the latest checkpoint without simulating
anything; ``replay-best`` re-validates a report's winner through the
ordinary replay simulator under the invariant checker.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.sweepcache import Store
from repro.core.invariants import CHECK_LEVELS
from repro.search.driver import (
    DEFAULT_BENCHMARKS,
    SearchConfig,
    SearchError,
    build_report,
    default_search_root,
    load_state,
    replay_best,
    run_search,
)
from repro.workloads.multiprogram import scenario_names


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("search configuration")
    group.add_argument("--benchmarks", nargs="+", metavar="NAME",
                       default=list(DEFAULT_BENCHMARKS),
                       help="fitness-set benchmarks "
                            f"(default: {' '.join(DEFAULT_BENCHMARKS)})")
    group.add_argument("--scenarios", nargs="*", metavar="NAME", default=[],
                       help="hostile scenarios to add to the fitness set "
                            f"(known: {', '.join(scenario_names())})")
    group.add_argument("--scale", type=float, default=0.5,
                       help="workload population scale (default: 0.5)")
    group.add_argument("--trace-accesses", type=int, default=8000,
                       help="trace length per workload (default: 8000)")
    group.add_argument("--pressure", type=float, default=10.0,
                       help="pressure factor for fitness (default: 10)")
    group.add_argument("--population", type=int, default=12,
                       help="candidates per generation (default: 12)")
    group.add_argument("--elites", type=int, default=3,
                       help="elites carried per generation (default: 3)")
    group.add_argument("--seed", type=int, default=2004,
                       help="master search seed (default: 2004)")
    group.add_argument("--baseline-units", type=int, default=8,
                       help="FIFO-unit count of the baseline the winner "
                            "must beat (default: 8)")


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    _add_config_arguments(parser)
    parser.add_argument("--generations", type=int, default=6,
                        help="completed generations to reach (default: 6)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for candidate evaluation "
                             "(default: auto)")
    parser.add_argument("--root", type=Path, default=None,
                        help="checkpoint directory "
                             f"(default: {default_search_root()})")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_search.json"),
                        help="report path (default: BENCH_search.json)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-generation progress lines")


def _config_from_args(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(
        benchmarks=tuple(args.benchmarks),
        scenarios=tuple(args.scenarios),
        scale=args.scale,
        trace_accesses=args.trace_accesses,
        pressure=args.pressure,
        population=args.population,
        elites=args.elites,
        seed=args.seed,
        baseline_units=args.baseline_units,
    )


def _write_report(report: dict, output: Path) -> None:
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


def _cmd_search(args: argparse.Namespace, resume: bool) -> int:
    progress = None if args.quiet else (
        lambda line: print(line, file=sys.stderr))
    report = run_search(
        _config_from_args(args),
        generations=args.generations,
        root=args.root,
        jobs=args.jobs,
        resume=resume,
        progress=progress,
    )
    _write_report(report, args.output)
    best = report["search"]["best"]
    print(f"best {best['name']}: {best['expression_text']}")
    print(f"  miss rate {best['miss_rate']:.4f} vs baseline "
          f"{report['search']['baseline']['miss_rate']:.4f} "
          f"-> beats_fifo8={report['beats_fifo8']}")
    print(f"report written to {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = Store(args.root if args.root is not None
                  else default_search_root())
    config = _config_from_args(args)
    state = load_state(store, config)
    if state is None:
        print(f"no checkpoint for config {config.key()} under {store.root}",
              file=sys.stderr)
        return 1
    report = build_report(state)
    if args.output is not None:
        _write_report(report, args.output)
        print(f"report written to {args.output}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_replay_best(args: argparse.Namespace) -> int:
    try:
        report = json.loads(args.report.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read report {args.report}: {exc}", file=sys.stderr)
        return 1
    verdict = replay_best(report, check_level=args.check,
                          tolerance=args.tolerance)
    print(json.dumps(verdict, indent=2, sort_keys=True))
    if not verdict["ok"]:
        print("replay-best FAILED: winner did not reproduce",
              file=sys.stderr)
        return 1
    print(f"replay-best ok: {verdict['policy']} reproduced "
          f"miss rate {verdict['miss_rate']:.4f} under "
          f"--check {args.check}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.search",
        description="Automated eviction-policy search over priority "
                    "functions, scored by the sweep engine.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="start a fresh search and write BENCH_search.json")
    _add_run_arguments(run_parser)

    resume_parser = sub.add_parser(
        "resume", help="continue a checkpointed search bit-identically")
    _add_run_arguments(resume_parser)

    report_parser = sub.add_parser(
        "report", help="rebuild the report from the latest checkpoint")
    _add_config_arguments(report_parser)
    report_parser.add_argument("--root", type=Path, default=None,
                               help="checkpoint directory "
                                    f"(default: {default_search_root()})")
    report_parser.add_argument("--output", type=Path, default=None,
                               help="write the report here instead of "
                                    "printing it")

    replay_parser = sub.add_parser(
        "replay-best",
        help="re-validate a report's winner through the replay simulator")
    replay_parser.add_argument("--report", type=Path,
                               default=Path("BENCH_search.json"),
                               help="report to validate "
                                    "(default: BENCH_search.json)")
    replay_parser.add_argument("--check", choices=CHECK_LEVELS,
                               default="light",
                               help="invariant check level for the replay "
                                    "(default: light)")
    replay_parser.add_argument("--tolerance", type=float, default=1e-12,
                               help="allowed |miss rate - recorded| "
                                    "(default: 1e-12)")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_search(args, resume=False)
        if args.command == "resume":
            return _cmd_search(args, resume=True)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_replay_best(args)
    except SearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
