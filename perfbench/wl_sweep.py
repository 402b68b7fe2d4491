"""sweep-ladder: the paper's whole granularity x pressure grid.

One operation is what a cold ``full_sweep`` does for the figure CLI:
build all twenty Table 1 workloads (seeded from ``--seed``), simulate
the full FLUSH / N-unit / FIFO ladder at every standard pressure
through the one-pass kernel, and round-trip the grid through the
on-disk sweep cache.

Traced runs split each operation into the sweep layers: workload
build, marshalling (geometry resolution and the C-side arrays), the
native kernel call, the fold of kernel output into stats records, and
cache I/O.  Set-up is a cold CLI start: a fresh interpreter importing
the sweep stack and loading the compiled kernel, sampled at even
intervals through the window so that the median spans the run.
Untraced runs report reference times: every operation and cold start
is scaled by the calibration slices on either side of it.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import traceback

from layers import layer_metrics
from timing import (Deadline, ReferenceClock, Spans, clock, median,
                    metric)

from repro.analysis import ckernel, sweepcache
from repro.analysis import sweep as sweep_module
from repro.analysis.sweep import ladder_policy_factories, run_sweep
from repro.core.policies import STANDARD_UNIT_COUNTS
from repro.core.pressure import STANDARD_PRESSURE_FACTORS
from repro.workloads.registry import all_benchmarks, build_workload

SCALE = 0.08
TRACE_ACCESSES = 12_000
SETUP_SAMPLES = 9
#: The replay cross-check: one small benchmark at the pressure extremes.
CHECK_BENCHMARK = "mcf"
CHECK_PRESSURES = (2, 10)

_COLD_START = (
    "import sys\n"
    "from repro.analysis import ckernel, sweep\n"
    "sys.exit(0 if ckernel.available() else 3)\n"
)


def _seeded_specs(seed: int) -> list:
    return [(spec, spec.seed * 1009 + seed) for spec in all_benchmarks()]


def _build(seeded) -> list:
    return [build_workload(spec, scale=SCALE, trace_accesses=TRACE_ACCESSES,
                           seed=workload_seed)
            for spec, workload_seed in seeded]


def _sweep(workloads):
    return run_sweep(workloads,
                     ladder_policy_factories(STANDARD_UNIT_COUNTS),
                     pressures=STANDARD_PRESSURE_FACTORS, one_pass=True)


def _grid(result) -> dict:
    return {point: dataclasses.asdict(record)
            for point, record in result.stats.items()}


def _well_formed(result) -> bool:
    expected = (len(all_benchmarks()) * (len(STANDARD_UNIT_COUNTS) + 1)
                * len(STANDARD_PRESSURE_FACTORS))
    if len(result.stats) != expected:
        return False
    return all(
        record.accesses == TRACE_ACCESSES
        and record.hits + record.misses == record.accesses
        and 0 < record.misses <= record.accesses
        for record in result.stats.values()
    )


def _replay_agrees(workloads, reference: dict) -> bool:
    """The kernel's contract: field-identical to per-cell replay."""
    workload = next(w for w in workloads if w.name == CHECK_BENCHMARK)
    replay = run_sweep([workload],
                       ladder_policy_factories(STANDARD_UNIT_COUNTS),
                       pressures=CHECK_PRESSURES, one_pass=False)
    return all(reference[point] == record
               for point, record in _grid(replay).items())


def _cold_start() -> tuple[float, bool]:
    started = clock()
    completed = subprocess.run([sys.executable, "-c", _COLD_START],
                               capture_output=True, timeout=120)
    # Exit 3 means no C compiler: the pure-Python engine still serves.
    return clock() - started, completed.returncode in (0, 3)


class _KernelHooks:
    """Charge ``one_pass_grid`` time to marshal / kernel / fold spans.

    Wraps three seams for the length of a traced run: the grid entry
    point ``run_sweep`` calls, the C-path ``run_geometries``, and the
    loaded library's ``one_pass``.  Kernel time is the native call;
    fold is everything after it until the stats records are built;
    marshalling is the rest of the grid call.  A seam the code does
    not have is left alone, and its time stays under marshalling.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.native_end: float | None = None
        self.geometries_end: float | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name, None)
        if original is not None:
            self._saved.append((owner, name, original))
            setattr(owner, name, make(original))

    def install(self) -> None:
        spans = self.spans
        hooks = self

        class TimedLibrary:
            def __init__(self, lib) -> None:
                self._lib = lib

            def __getattr__(self, name):
                return getattr(self._lib, name)

            def one_pass(self, *args):
                started = clock()
                status = self._lib.one_pass(*args)
                hooks.native_end = clock()
                spans.add("sweep.kernel", hooks.native_end - started)
                return status

        def wrap_load(original):
            def load():
                lib = original()
                return None if lib is None else TimedLibrary(lib)
            return load

        def wrap_geometries(original):
            def run_geometries(*args, **kwargs):
                hooks.native_end = None
                result = original(*args, **kwargs)
                hooks.geometries_end = clock()
                if hooks.native_end is not None:
                    spans.add("sweep.fold",
                              hooks.geometries_end - hooks.native_end)
                return result
            return run_geometries

        def wrap_grid(original):
            def one_pass_grid(*args, **kwargs):
                hooks.geometries_end = None
                started = clock()
                result = original(*args, **kwargs)
                ended = clock()
                if hooks.geometries_end is not None:
                    spans.add("sweep.fold", ended - hooks.geometries_end)
                spans.add("sweep.grid", ended - started)
                return result
            return one_pass_grid

        self._patch(ckernel, "load", wrap_load)
        self._patch(ckernel, "run_geometries", wrap_geometries)
        self._patch(sweep_module, "one_pass_grid", wrap_grid)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def run(seed: int, seconds: float, trace: bool, scratch) -> dict:
    seeded = _seeded_specs(seed)
    key = f"perfbench-sweep-ladder-{seed}"
    checks: list[bool] = []
    errors = 0

    setups: list[float] = []
    reference = ReferenceClock()

    def sample_setup() -> None:
        elapsed, ok = _cold_start()
        setups.append(elapsed * reference.factor())
        checks.append(ok)

    # Warm-up operation, outside the window: it compiles and loads the
    # kernel and yields the grid every timed operation must reproduce.
    workloads = _build(seeded)
    warm_result = _sweep(workloads)
    expected = _grid(warm_result)
    checks.append(_well_formed(warm_result))
    checks.append(_replay_agrees(workloads, expected))
    del workloads

    spans = Spans()
    hooks = _KernelHooks(spans)
    if trace:
        hooks.install()
    op_seconds: list[float] = []
    rates: list[float] = []
    window_start = clock()
    deadline = Deadline(seconds)
    reference.mark()
    try:
        while not deadline.expired() or not op_seconds:
            if (len(setups) < SETUP_SAMPLES and clock() >= window_start
                    + seconds * len(setups) / SETUP_SAMPLES):
                sample_setup()
            started = clock()
            try:
                with spans.op():
                    with spans.span("sweep.build"):
                        workloads = _build(seeded)
                    result = _sweep(workloads)
                    with spans.span("sweep.cache_io"):
                        sweepcache.store(key, result)
                        loaded = sweepcache.load(key)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                errors += 1
                op_seconds.append(clock() - started)
                reference.mark()
                continue
            op_seconds.append((clock() - started) * reference.factor())
            rates.append(sum(r.accesses for r in result.stats.values())
                         / op_seconds[-1])
            grid = _grid(result)
            checks.append(grid == expected)
            checks.append(loaded is not None and _grid(loaded) == grid)
    finally:
        hooks.remove()
        sweepcache.clear()
    reference.mark()
    while len(setups) < SETUP_SAMPLES:
        sample_setup()

    correct = errors == 0 and all(checks)
    if trace:
        per_op = {name: spans.per_op(name) for name in
                  ("sweep.grid", "sweep.kernel", "sweep.fold")}
        marshal = [grid - kernel - fold for grid, kernel, fold in
                   zip(per_op["sweep.grid"], per_op["sweep.kernel"],
                       per_op["sweep.fold"])]
        metrics = layer_metrics({
            "sweep.build_ms": spans.median_ms("sweep.build"),
            "sweep.marshal_ms": median(marshal) * 1e3,
            "sweep.kernel_ms": spans.median_ms("sweep.kernel"),
            "sweep.fold_ms": spans.median_ms("sweep.fold"),
            "sweep.cache_io_ms": spans.median_ms("sweep.cache_io"),
            "sweep.grid_cells": len(expected),
        })
    else:
        metrics = {
            "op_ms": metric(median(op_seconds) * 1e3, "ms"),
            "accesses_per_s": metric(median(rates), "1/s"),
            "setup_s": metric(median(setups), "s"),
        }
    return {"correct": correct, "attempted": len(op_seconds),
            "failed": errors, "metrics": metrics}
