"""Sweep-engine speed bench: replay vs one-pass vs parallel runs.

Runs the full 20-benchmark grid at a small fixed scale through four
engines — the serial replay engine (``one_pass=False``; the PR-5
baseline), the serial one-pass kernel engine, the parallel engine (one
task per benchmark, worker count picked by ``plan_jobs``, one-pass on),
and parallel runs against a cold and then a warm sweep store —
verifies they all produce identical statistics, and records the
wall-clock numbers in ``BENCH_sweep.json`` at the repo root so the
one-pass speedup, the parallel speedup, and the store's overhead are
tracked across PRs.

Run directly (``python benchmarks/bench_sweep_speed.py``) or through
pytest (``pytest benchmarks/bench_sweep_speed.py``).  The headline
gates: ``one_pass_speedup`` (serial replay over serial one-pass on the
same grid) must be >= 10x, and ``speedup`` (serial replay over the
parallel entry point) must never drop below 1.0 — on boxes where a
pool cannot win, ``plan_jobs`` degrades the parallel engine to the
inline one-pass path instead of regressing.  The store-overhead
assertion holds a cold-store run (every slab stored) to ~5 % over the
plain parallel run (plus a small absolute grace for timer noise), and
the warm-store run (every slab loaded) must beat it outright.

The bench also times the invariant checker: serial sweeps at
``--check light`` and ``--check paranoid`` are compared against the
plain replay run (checking always forces replay — the kernel has no
invariant hooks), the grids are asserted identical, and the light-mode
overhead is held to ~10 % (plus the same absolute grace).  Plain and
light replay are timed in alternation, best of at least three each, so
a host that slows down between two single runs cannot fail that bound.

Knobs: ``REPRO_BENCH_JOBS`` (default 4; the *requested* pool size
before ``plan_jobs`` has its say) and ``REPRO_BENCH_REPEATS``
(default 1; best-of-N timing, at least 3 for the alternating replay
pair).
"""

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path

from repro.analysis import ckernel
from repro.analysis.parallel import (
    estimate_task_accesses,
    plan_jobs,
    plan_tasks,
    usable_cpus,
)
from repro.analysis.sweep import (
    ladder_policy_factories,
    run_sweep,
    run_sweep_parallel,
)
from repro.analysis.sweepcache import Store
from repro.workloads.registry import all_benchmarks, build_suite

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Reduced-scale grid: big enough that simulation dominates process
#: startup, small enough for CI.
SCALE = 0.08
TRACE_ACCESSES = 12_000
UNIT_COUNTS = (1, 8, 64)
PRESSURES = (2, 10)
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "4"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "1"))


def _grids_identical(serial, parallel) -> bool:
    if set(serial.stats) != set(parallel.stats):
        return False
    return all(
        dataclasses.asdict(parallel.stats[point])
        == dataclasses.asdict(record)
        for point, record in serial.stats.items()
    )


def run_bench() -> dict:
    specs = all_benchmarks()
    # Pay the C kernel's compile-and-load outside every timed region so
    # the one-pass numbers measure simulation, not gcc.  Without a
    # kernel the one-pass run replays too.
    kernel_engine = "c" if ckernel.available() else "replay"

    # The parallel entry point mirrors full_sweep: one task per
    # benchmark, with plan_jobs degrading the pool to the inline engine
    # when it cannot win (single CPU, or tiny per-task work).
    ladder = ladder_policy_factories(UNIT_COUNTS)
    planned = plan_tasks(specs, ladder, scale=SCALE,
                         trace_accesses=TRACE_ACCESSES, pressures=PRESSURES)
    per_task = (sum(estimate_task_accesses(task) for task in planned)
                // len(planned))
    effective_jobs = plan_jobs(JOBS, task_count=len(planned),
                               per_task_accesses=per_task)

    def serial_once(check_level=None, one_pass=False):
        workloads = build_suite(specs, scale=SCALE,
                                trace_accesses=TRACE_ACCESSES)
        started = time.perf_counter()
        result = run_sweep(workloads, ladder, pressures=PRESSURES,
                           check_level=check_level, one_pass=one_pass)
        return time.perf_counter() - started, result

    def parallel_once(checkpoints=None):
        started = time.perf_counter()
        result = run_sweep_parallel(specs, ladder, scale=SCALE,
                                    trace_accesses=TRACE_ACCESSES,
                                    pressures=PRESSURES,
                                    jobs=effective_jobs,
                                    checkpoints=checkpoints,
                                    one_pass=True)
        return time.perf_counter() - started, result

    def cold_store_once(root):
        """One run against an empty store: every slab is stored."""
        store = Store(root)
        store.clear()
        return parallel_once(checkpoints=store)

    def warm_store_once(root):
        """One run against a full store: every slab is loaded."""
        return parallel_once(checkpoints=Store(root))

    # Plain and light replay alternate, so drift on a shared host
    # weighs on both sides of the light-overhead bound alike.
    serial_runs, light_runs = [], []
    for _ in range(max(REPEATS, 3)):
        serial_runs.append(serial_once())
        light_runs.append(serial_once("light"))
    serial_seconds, serial_result = min(serial_runs,
                                        key=lambda pair: pair[0])
    light_seconds, light_result = min(light_runs, key=lambda pair: pair[0])
    one_pass_seconds, one_pass_result = min(
        (serial_once(one_pass=True) for _ in range(REPEATS)),
        key=lambda pair: pair[0]
    )
    parallel_seconds, parallel_result = min(
        (parallel_once() for _ in range(REPEATS)), key=lambda pair: pair[0]
    )
    with tempfile.TemporaryDirectory(prefix="bench-store-") as tmp:
        cold_seconds, cold_result = min(
            (cold_store_once(tmp) for _ in range(REPEATS)),
            key=lambda pair: pair[0]
        )
        # The last cold run left the store fully populated, so the
        # warm runs measure pure slab-load time.
        warm_seconds, warm_result = min(
            (warm_store_once(tmp) for _ in range(REPEATS)),
            key=lambda pair: pair[0]
        )
    paranoid_seconds, paranoid_result = min(
        (serial_once("paranoid") for _ in range(REPEATS)),
        key=lambda pair: pair[0]
    )
    # Every engine pays workload construction inside its timed region
    # (pool workers rebuild from specs), so the comparisons stay
    # symmetric.
    total_accesses = sum(
        record.accesses for record in serial_result.stats.values()
    )
    report = {
        "bench": "sweep_speed",
        "scale": SCALE,
        "trace_accesses": TRACE_ACCESSES,
        "unit_counts": list(UNIT_COUNTS),
        "pressures": list(PRESSURES),
        "benchmarks": len(serial_result.benchmark_names),
        "grid_points": len(serial_result.stats),
        "total_accesses": total_accesses,
        "jobs": JOBS,
        "effective_jobs": effective_jobs,
        "cpus": usable_cpus(),
        "kernel_engine": kernel_engine,
        "serial_seconds": round(serial_seconds, 3),
        "one_pass_seconds": round(one_pass_seconds, 3),
        "one_pass_speedup": round(serial_seconds / one_pass_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 3),
        "store_cold_seconds": round(cold_seconds, 3),
        "store_overhead": round(cold_seconds / parallel_seconds - 1.0, 4),
        "store_warm_seconds": round(warm_seconds, 3),
        "loaded_tasks": len(warm_result.fault_report.resumed),
        "check_light_seconds": round(light_seconds, 3),
        "check_light_overhead": round(
            light_seconds / serial_seconds - 1.0, 4
        ),
        "check_paranoid_seconds": round(paranoid_seconds, 3),
        "check_paranoid_overhead": round(
            paranoid_seconds / serial_seconds - 1.0, 4
        ),
        "accesses_per_second_serial": round(total_accesses / serial_seconds),
        "accesses_per_second_one_pass": round(
            total_accesses / one_pass_seconds
        ),
        "accesses_per_second_parallel": round(
            total_accesses / parallel_seconds
        ),
        "grids_identical": (
            _grids_identical(serial_result, one_pass_result)
            and _grids_identical(serial_result, parallel_result)
            and _grids_identical(serial_result, cold_result)
            and _grids_identical(serial_result, warm_result)
        ),
        "grids_identical_under_checking": (
            _grids_identical(serial_result, light_result)
            and _grids_identical(serial_result, paranoid_result)
        ),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_sweep_speed():
    report = run_bench()
    assert report["grids_identical"]
    assert report["serial_seconds"] > 0 and report["parallel_seconds"] > 0
    # The headline gate: one trace traversal for the whole unit ladder
    # must beat 6 replays by an order of magnitude on the same grid.
    assert report["one_pass_speedup"] >= 10.0, report
    # The parallel entry point must never regress below the serial
    # replay baseline: either the pool wins, or plan_jobs has degraded
    # it to the inline one-pass engine.
    assert report["speedup"] >= 1.0, report
    if (os.cpu_count() or 1) >= 4:
        assert report["speedup"] >= 2.0, report
    # Storing every slab must stay cheap: within ~5 % of the plain
    # parallel run, plus a small absolute grace so timer noise on
    # loaded CI boxes can't fail the build.
    assert (report["store_cold_seconds"]
            <= report["parallel_seconds"] * 1.05 + 0.75), report
    # A full store serves every benchmark's slab instead of simulating
    # it, so the warm run must beat the cold one outright.
    assert report["loaded_tasks"] == report["benchmarks"], report
    assert report["store_warm_seconds"] < report["store_cold_seconds"], report
    # Checking must never change the science: grids at light and
    # paranoid are byte-identical to the unchecked run.
    assert report["grids_identical_under_checking"], report
    # Light mode is meant to be left on: hold it to ~10 % over the
    # unchecked serial run, with the same absolute grace as above.
    assert (report["check_light_seconds"]
            <= report["serial_seconds"] * 1.10 + 0.75), report


if __name__ == "__main__":
    print(json.dumps(run_bench(), indent=2))
