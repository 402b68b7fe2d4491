"""Trace-replay driver: ``python -m repro.core``.

Replays a saved DBT verbose log (see ``python -m repro.dbt ...
--save-log``) through the code cache simulator across a ladder of
eviction policies — the paper's exact methodology, from the command
line::

    python -m repro.dbt gzip --max-guest 500000 --save-log run.dbtlog
    python -m repro.core run.dbtlog --pressure 4
    python -m repro.core run.dbtlog --capacity 16384 --units 1 8 fifo
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import format_table
from repro.core.cache import ConfigurationError
from repro.core.invariants import CHECK_LEVELS, ENV_CHECK_LEVEL
from repro.core.policies import SHORTHAND_FORMS, policy_from_spec
from repro.core.pressure import pressured_capacity
from repro.core.simulator import simulate
from repro.dbt.logio import load_log


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core",
        description="Replay a saved DBT event log through the code cache "
                    "simulator.",
    )
    parser.add_argument("log", help="event log saved by python -m repro.dbt")
    parser.add_argument("--units", nargs="+",
                        default=["1", "2", "4", "8", "16", "fifo"],
                        help=f"policy ladder, each entry one of "
                             f"{SHORTHAND_FORMS} (default: 1 2 4 8 16 fifo)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--capacity", type=int, default=None,
                       help="cache capacity in bytes")
    group.add_argument("--pressure", type=float, default=3.0,
                       help="size the cache at maxCache/PRESSURE "
                            "(default 3)")
    parser.add_argument("--no-links", action="store_true",
                        help="skip link tracking and Equation 4 charges")
    parser.add_argument("--check", choices=CHECK_LEVELS, default=None,
                        help="replay under the invariant checker at this "
                             f"level (default: {ENV_CHECK_LEVEL} or off)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        policies = [policy_from_spec(token) for token in args.units]
    except ConfigurationError as exc:
        raise SystemExit(f"error: --units: {exc}")
    if args.capacity is not None and args.capacity < 1:
        raise SystemExit(
            f"error: --capacity must be >= 1, got {args.capacity}"
        )
    if args.pressure < 1:
        raise SystemExit(
            f"error: --pressure must be >= 1, got {args.pressure:g}"
        )
    log = load_log(args.log)
    population = log.superblock_set()
    trace = log.access_trace()
    if len(trace) == 0:
        raise SystemExit(
            "error: the log has no cache accesses (was the run saved "
            "with record_entries enabled?)"
        )
    if args.capacity is not None:
        capacity = args.capacity
    else:
        capacity = pressured_capacity(population, args.pressure)
    capacity = max(capacity, population.max_block_bytes)
    print(f"Replaying {args.log}: {len(population)} superblocks, "
          f"{len(trace)} accesses, cache = {capacity} bytes")
    rows = []
    for policy in policies:
        stats = simulate(
            population, policy, capacity, trace,
            track_links=not args.no_links,
            check_level=args.check,
            check_context={"log": args.log},
        )
        rows.append((
            policy.name,
            stats.miss_rate,
            stats.eviction_invocations,
            stats.links_removed,
            round(stats.total_overhead),
        ))
    print(format_table(
        ("Policy", "Miss rate", "Evictions", "Links unpatched",
         "Overhead (instr)"),
        rows,
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
