"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-ladder --seed 1 \\
        --seconds 30 --trace 0

``--workload`` picks what is measured (see ``perfbench/README.md``):

* ``sweep-ladder`` — the paper's granularity x pressure grid through
  the one-pass kernel, workload build to cache round trip;
* ``service-fleet`` — access batches over real TCP through the router
  into a two-worker fleet;
* ``search-eval`` — a fixed population of policies scored over the
  policy search's fitness set through the sweep engine.

``--seed`` makes the inputs (the same seed gives the same inputs),
``--seconds`` is the measuring window, and ``--trace 1`` records
per-layer spans instead of the end-to-end numbers.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

Everything the run writes — the compiled sweep kernel, sweep-cache
entries, worker snapshots and write-ahead logs — stays under
``.bench_build/perfbench`` in the checkout.  Without the ``src/repro``
sources next to this directory the run exits with code 2 and prints no
result.

The run, and every process it starts, is pinned to one CPU.  Every
workload keeps one operation in flight, so one CPU is all they use; on
a VM, a hop between processes on two CPUs instead wakes an idle vCPU,
whose latency depends on the host's load (it doubled the fleet's batch
round trip on a two-vCPU Xeon VM, and made it drift from run to run).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "sweep-ladder": "wl_sweep",
    "service-fleet": "wl_service",
    "search-eval": "wl_search",
}


def _pin_to_one_cpu() -> None:
    """Run on the last CPU this process may use; children inherit it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _prepare_environment() -> Path | None:
    """Point every artifact at the checkout and make ``repro`` importable.

    Returns the scratch directory, or ``None`` when the sources are
    missing.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    scratch = ROOT / ".bench_build" / "perfbench"
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Knobs from the calling shell (fault plans, check levels, engine
    # overrides) would change what is measured; every run starts clean.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    # The C kernel compiles into the temp directory on first use; keep
    # it (and every other temp file) inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["REPRO_SWEEP_CACHE_DIR"] = str(scratch / "sweep-cache")
    path = os.environ.get("PYTHONPATH", "")
    os.environ["PYTHONPATH"] = (f"{src}{os.pathsep}{path}" if path
                                else str(src))
    sys.path.insert(0, str(src))
    return scratch


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Measure one workload and print a JSON result line.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    scratch = _prepare_environment()
    if scratch is None:
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    module = importlib.import_module(WORKLOADS[args.workload])
    result = module.run(seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace),
                        scratch=scratch / args.workload)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
