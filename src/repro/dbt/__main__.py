"""Command-line DBT driver: ``python -m repro.dbt``.

Runs a guest program under the dynamic binary translator and reports
what the runtime did — like launching a binary under DynamoRIO with
verbose statistics.  The program can be an assembly file, the built-in
``demo``, or one of the Table 2 benchmark stand-ins::

    python -m repro.dbt demo
    python -m repro.dbt gzip --no-chaining
    python -m repro.dbt my_program.asm --entry main --cache-bytes 8192 \\
        --units 8 --save-log run.dbtlog
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.report import format_table
from repro.core.cache import ConfigurationError
from repro.core.policies import LADDER_KINDS, policy_from_spec, policy_spec
from repro.dbt.logio import save_log
from repro.dbt.runtime import DBTRuntime
from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble
from repro.workloads.generator import TABLE2_SPECS, demo_program, table2_program


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dbt",
        description="Run a guest program under the dynamic binary "
                    "translator.",
    )
    parser.add_argument(
        "program",
        help="assembly file path, 'demo', or a Table 2 benchmark name "
             f"({', '.join(spec.name for spec in TABLE2_SPECS)})",
    )
    parser.add_argument("--entry", default=None,
                        help="entry label for assembly files")
    parser.add_argument("--max-guest", type=int, default=2_000_000,
                        help="guest instruction budget (default 2M)")
    parser.add_argument("--cache-bytes", type=int, default=None,
                        help="code cache capacity (default: unbounded)")
    parser.add_argument("--units", default="flush",
                        help="eviction policy: 'flush', 'fifo', or a "
                             "unit count like 8 / 8-unit (default flush)")
    parser.add_argument("--hot-threshold", type=int, default=50,
                        help="superblock hotness threshold (default 50)")
    parser.add_argument("--no-chaining", action="store_true",
                        help="disable superblock chaining (Table 2 mode)")
    parser.add_argument("--no-memprotect", action="store_true",
                        help="disable memory-protection toggles")
    parser.add_argument("--no-bb-cache", action="store_true",
                        help="disable the basic-block cache")
    parser.add_argument("--save-log", default=None, metavar="FILE",
                        help="save the verbose event log for later replay")
    parser.add_argument("--dump-asm", action="store_true",
                        help="print the program's disassembly and exit")
    return parser


def _load_program(name: str, entry: str | None):
    if name == "demo":
        return demo_program()
    for spec in TABLE2_SPECS:
        if spec.name == name:
            return table2_program(name)
    path = Path(name)
    if not path.exists():
        raise SystemExit(f"error: no such program or file: {name!r}")
    return assemble(path.read_text(), entry=entry, name=path.stem)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = policy_spec(args.units)
    except ConfigurationError as exc:
        raise SystemExit(f"error: --units: {exc}")
    if spec["kind"] not in LADDER_KINDS:
        # The runtime never calls on_access, so only the ladder runs.
        raise SystemExit(
            f"error: --units must be 'flush', 'fifo' or a unit count, "
            f"got {args.units!r}"
        )
    program = _load_program(args.program, args.entry)
    if args.dump_asm:
        print(disassemble(program, addresses=True), end="")
        return 0
    runtime = DBTRuntime(
        program,
        policy=policy_from_spec(spec),
        cache_capacity=args.cache_bytes,
        chaining_enabled=not args.no_chaining,
        memory_protection=not args.no_memprotect,
        hot_threshold=args.hot_threshold,
        bb_cache=not args.no_bb_cache,
        record_entries=args.save_log is not None,
    )
    result = runtime.run(max_guest_instructions=args.max_guest)

    print(f"Program: {program.name} ({len(program)} instructions, "
          f"{program.size_bytes} bytes)")
    rows = [
        ("guest instructions", result.guest_instructions),
        ("run to completion", result.halted),
        ("  interpreted", result.interpreted_instructions),
        ("  from basic-block cache", result.bb_instructions),
        ("  from superblock cache", result.native_instructions),
        ("superblocks formed", result.superblocks_formed),
        ("cache entries", result.cache_entries),
        ("chained transitions", result.chained_transitions),
        ("unchained exits", result.unchained_exits),
        ("eviction invocations", result.eviction_invocations),
        ("superblocks evicted", result.evicted_blocks),
        ("basic blocks cached", result.bb_blocks),
        ("bb cache bytes", result.bb_cache_bytes),
        ("total simulated work", round(result.total_work)),
        ("simulated seconds @2.4GHz", f"{result.seconds():.4f}"),
    ]
    print(format_table(("Metric", "Value"), rows, title="Run summary"))
    print()
    breakdown = sorted(result.work.items(), key=lambda item: -item[1])
    print(format_table(
        ("Work category", "Units", "Share"),
        [(category, round(units),
          f"{units / result.total_work * 100:.1f}%")
         for category, units in breakdown],
        title="Work breakdown",
    ))
    if args.save_log:
        lines = save_log(result.event_log, args.save_log)
        print(f"\nSaved {lines} event records to {args.save_log}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
