"""Command-line artifact regeneration: ``python -m repro.analysis``.

Regenerates any of the paper's tables and figures from the library and
prints the rendered result.  Examples::

    python -m repro.analysis --list
    python -m repro.analysis table1 figure12
    python -m repro.analysis figure6 --scale 0.25 --pressures 2 10
    python -m repro.analysis all --scale 0.1 --trace-accesses 5000
    python -m repro.analysis figure7 --jobs 0        # sweep on all cores
    python -m repro.analysis figure7 --no-cache      # no sweep store I/O
    python -m repro.analysis figure7 --jobs 4 --task-timeout 600  # re-run
                                     # a pooled task past 600 s in process
    python -m repro.analysis cache-stats             # inspect the sweep store
    python -m repro.analysis cache-clear             # drop stored slabs
    python -m repro.analysis figure6 --check paranoid  # sweep under the
                                                       # invariant checker
    python -m repro.analysis diff-check --scale 0.25 # production vs
                                                     # reference simulator
    python -m repro.analysis bench-gate              # fresh bench JSON vs
                                                     # committed baselines

Simulation figures share one sweep per invocation, so asking for
several of them costs little more than asking for one; each benchmark's
slab of the sweep is also kept on disk (see
:mod:`repro.analysis.sweepcache`), so later invocations skip the
simulation and an interrupted one resumes, unless ``--no-cache`` is
given.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

from repro.analysis import benchgate, diffcheck, experiments, sweep, sweepcache
from repro.core.invariants import CHECK_LEVELS, ENV_CHECK_LEVEL

_DRIVERS = {fn.__name__: fn for fn in experiments.ALL_EXPERIMENTS}
_ALIASES = {
    "section51": "section51_backpointer_memory",
    "section53": "section53_execution_time",
}

#: Maintenance commands for the on-disk sweep store, usable anywhere
#: an artifact name is (``python -m repro.analysis cache-stats``).
_CACHE_COMMANDS = ("cache-stats", "cache-clear")

#: Sanitizer commands (see repro.core.invariants / repro.analysis.diffcheck).
_SANITY_COMMANDS = ("diff-check", "kernel-check")

#: The benchmark-regression gate (see repro.analysis.benchgate).
_GATE_COMMANDS = ("bench-gate",)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Regenerate tables and figures from Hazelwood & Smith, "
                    "CGO 2004.",
    )
    parser.add_argument(
        "artifacts", nargs="*",
        help="artifact names (e.g. table1 figure6 table2), or 'all'",
    )
    parser.add_argument("--list", action="store_true",
                        help="list available artifacts and exit")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--trace-accesses", type=int, default=None,
                        help="override per-benchmark trace length")
    parser.add_argument("--pressures", type=float, nargs="+",
                        default=None,
                        help="cache pressure factors for sweep figures "
                             "(default: 2 4 6 8 10; diff-check defaults "
                             "to 2 10)")
    parser.add_argument("--samples", type=int, default=10_000,
                        help="samples for the calibration figures")
    parser.add_argument("--table2-budget", type=int, default=4_000_000,
                        help="guest instructions per Table 2 run")
    parser.add_argument("--precision", type=int, default=4,
                        help="decimal places in rendered tables")
    parser.add_argument("--jobs", type=int, default=None,
                        help="sweep worker processes (0 = all cores; "
                             "default: REPRO_SWEEP_JOBS or serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither load nor store sweep slabs in the "
                             "on-disk store (REPRO_SWEEP_CACHE_DIR) for "
                             "this run")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="abandon a pooled sweep task after this "
                             "many seconds and re-run it in process "
                             "(default: REPRO_SWEEP_TIMEOUT or no "
                             "timeout)")
    parser.add_argument("--check", choices=CHECK_LEVELS, default=None,
                        help="run simulations under the invariant "
                             "checker at this level (default: "
                             f"{ENV_CHECK_LEVEL} or off)")
    parser.add_argument("--diff-benchmarks", nargs="+", metavar="NAME",
                        default=list(diffcheck.DEFAULT_BENCHMARKS),
                        help="benchmarks the diff-check and kernel-check "
                             "commands replay (default: %(default)s)")
    parser.add_argument("--diff-lru", action="store_true",
                        help="extend diff-check's ladder with the "
                             "Section 3.3 LRU arena policy")
    parser.add_argument("--diff-preempt", action="store_true",
                        help="extend diff-check's ladder with Dynamo's "
                             "preemptive-flush policy")
    parser.add_argument("--diff-priority", action="store_true",
                        help="extend diff-check with the policy search's "
                             "seed priority functions and the committed "
                             "winner")
    parser.add_argument("--baselines", default=benchgate.DEFAULT_BASELINES,
                        help="bench-gate baselines file "
                             "(default: %(default)s)")
    parser.add_argument("--bench-dir", default=".",
                        help="directory bench-gate reads the fresh "
                             "BENCH_*.json reports from (default: .)")
    parser.add_argument("--write-baselines", action="store_true",
                        help="refresh the baselines file from the "
                             "current bench reports instead of gating")
    return parser


def _sweep_options(args: argparse.Namespace,
                   parser: argparse.ArgumentParser) -> sweep.SweepOptions:
    """The environment's sweep options with the command line's engine
    flags laid over them; a value either source gets wrong exits with
    a usage error naming that flag or variable."""
    try:
        options = sweep.SweepOptions.from_env()
    except ValueError as error:
        parser.error(str(error))
    for flag, name, value in (
            ("--jobs", "jobs", args.jobs),
            ("--no-cache", "use_cache", False if args.no_cache else None),
            ("--task-timeout", "task_timeout", args.task_timeout)):
        if value is not None:
            try:
                options = dataclasses.replace(options, **{name: value})
            except ValueError as error:
                parser.error(f"{flag}: {error}")
    return options


def _call_driver(name: str, args: argparse.Namespace,
                 options: sweep.SweepOptions):
    driver = _DRIVERS[name]
    parameters = inspect.signature(driver).parameters
    kwargs = {}
    if "options" in parameters:
        kwargs["options"] = options
    if "scale" in parameters:
        kwargs["scale"] = args.scale
    if "trace_accesses" in parameters:
        kwargs["trace_accesses"] = args.trace_accesses
    if "pressures" in parameters:
        kwargs["pressures"] = tuple(
            args.pressures if args.pressures is not None
            else (2, 4, 6, 8, 10)
        )
    if "samples" in parameters:
        kwargs["samples"] = args.samples
    if "max_guest_instructions" in parameters:
        kwargs["max_guest_instructions"] = args.table2_budget
    return driver(**kwargs)


def _cache_stats_text() -> str:
    """Render the sweep store's contents and this process's counters."""
    store = sweepcache.default_store()
    rows = store.entries()
    counts = sweepcache.counters()
    total_bytes = sum(path.stat().st_size for path in rows)
    return "\n".join([
        f"sweep store: {store.root}",
        f"  entries: {len(rows)}   total: {total_bytes / 1024:.1f} KiB   "
        f"quarantined: {len(store.quarantined_entries())}",
        f"  this process: {counts['hits']} hit(s), "
        f"{counts['misses']} miss(es), {counts['stores']} store(s), "
        f"{counts['store_failures']} store failure(s), "
        f"{counts['quarantines']} quarantine(s)",
    ])


def _run_cache_command(name: str) -> None:
    if name == "cache-stats":
        print(_cache_stats_text())
    else:  # cache-clear
        removed = sweepcache.clear()
        print(f"removed {removed} file(s) from {sweepcache.cache_dir()}")


def _run_diff_check(args: argparse.Namespace) -> bool:
    """Run the differential oracle; print its report; True on pass."""
    pressures = tuple(
        args.pressures if args.pressures is not None
        else diffcheck.DEFAULT_PRESSURES
    )
    report = diffcheck.diff_check(
        benchmarks=tuple(args.diff_benchmarks),
        scale=args.scale,
        trace_accesses=args.trace_accesses,
        pressures=pressures,
        include_lru=args.diff_lru,
        include_preempt=args.diff_preempt,
        priority_expressions=(diffcheck.priority_panel()
                              if args.diff_priority else ()),
        check_level=args.check,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print(report.render(precision=args.precision))
    return report.ok


def _run_kernel_check(args: argparse.Namespace) -> bool:
    """Run kernel-vs-replay equivalence; print its report; True on pass."""
    pressures = tuple(
        args.pressures if args.pressures is not None
        else diffcheck.DEFAULT_PRESSURES
    )
    report = diffcheck.kernel_check(
        benchmarks=tuple(args.diff_benchmarks),
        scale=args.scale,
        trace_accesses=args.trace_accesses,
        pressures=pressures,
        progress=lambda line: print(f"  {line}", file=sys.stderr),
    )
    print(report.render(precision=args.precision))
    return report.ok


def _run_bench_gate(args: argparse.Namespace,
                    parser: argparse.ArgumentParser) -> bool:
    """Run (or refresh) the benchmark-regression gate; True on pass.
    A baselines file that will not load is a usage error: one line
    naming the file and why, exit 2."""
    try:
        if args.write_baselines:
            outcome = benchgate.write_baselines(args.baselines,
                                                args.bench_dir)
        else:
            report = benchgate.run_gate(args.baselines, args.bench_dir)
    except (benchgate.GateError, OSError) as error:
        reason = (f"{error.filename or args.baselines}: "
                  f"{error.strerror or error}"
                  if isinstance(error, OSError) else str(error))
        parser.exit(2, f"{parser.prog}: error: bench-gate: {reason}\n")
    if args.write_baselines:
        print(f"refreshed {len(outcome['updated'])} baseline(s) in "
              f"{args.baselines}: {', '.join(outcome['updated']) or '-'}")
        if outcome["missing"]:
            print("unreadable (left untouched): "
                  + ", ".join(outcome["missing"]))
            return False
        return True
    print(benchgate.render(report))
    return report["ok"]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list or not args.artifacts:
        print("Available artifacts:")
        for name in _DRIVERS:
            print(f"  {name}")
        for name in _CACHE_COMMANDS + _SANITY_COMMANDS + _GATE_COMMANDS:
            print(f"  {name}")
        return 0
    if args.scale <= 0:
        parser.error(f"--scale must be positive, got {args.scale}")
    if args.trace_accesses is not None and args.trace_accesses < 1:
        parser.error(f"--trace-accesses must be >= 1, "
                     f"got {args.trace_accesses}")
    if args.pressures is not None and min(args.pressures) < 1:
        parser.error("--pressures must all be >= 1 (a pressure factor "
                     "divides maxCache)")
    if args.samples < 1:
        parser.error(f"--samples must be >= 1, got {args.samples}")
    if args.table2_budget < 1:
        parser.error(f"--table2-budget must be >= 1, "
                     f"got {args.table2_budget}")
    if args.precision < 0:
        parser.error(f"--precision must be >= 0, got {args.precision}")
    options = _sweep_options(args, parser)
    if args.check is not None:
        # Publish the level in the environment so both the serial engine
        # and pool workers (which build their own simulators) observe it.
        os.environ[ENV_CHECK_LEVEL] = args.check
    requested = []
    for raw in args.artifacts:
        name = _ALIASES.get(raw, raw)
        if raw == "all":
            requested = [
                n for n in requested
                if n in _CACHE_COMMANDS + _SANITY_COMMANDS + _GATE_COMMANDS
            ]
            requested += list(_DRIVERS)
            break
        if (name not in _DRIVERS and name not in _CACHE_COMMANDS
                and name not in _SANITY_COMMANDS
                and name not in _GATE_COMMANDS):
            parser.error(
                f"unknown artifact {raw!r}; use --list to see choices"
            )
        requested.append(name)
    failed = False
    for index, name in enumerate(requested):
        if index:
            print()
        if name in _CACHE_COMMANDS:
            _run_cache_command(name)
            continue
        if name in _SANITY_COMMANDS:
            runner = (_run_kernel_check if name == "kernel-check"
                      else _run_diff_check)
            if not runner(args):
                failed = True
            continue
        if name in _GATE_COMMANDS:
            if not _run_bench_gate(args, parser):
                failed = True
            continue
        result = _call_driver(name, args, options)
        print(result.render(precision=args.precision))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
