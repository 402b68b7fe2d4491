"""Timing helpers shared by the perfbench workloads.

:class:`Spans` holds what the per-layer numbers come from: the time
each operation spent in each layer, summed over the spans recorded
while that operation was open, so a layer is summarised as a median
over operations.  Only traced runs (``--trace 1``) hook into the
program's layers; an untraced run records nothing beyond the spans
the benchmark itself opens, two clock reads each.

End-to-end times are reference times (:class:`ReferenceClock`).  On a
shared host the CPU's speed drifts with other tenants' load: a fixed
pure-Python loop ran 112 ms in quiet stretches and up to 380 ms in
loaded ones, in stretches of seconds to minutes, with no steal time
reported.  Wall time then says more about when a run ran than about
the program.  So each stretch of timed work is bracketed by two slices
of a fixed calibration loop, and its wall time is scaled by how much
slower than on an undisturbed machine those slices ran.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

clock = time.perf_counter

#: Iterations of the calibration loop in one slice.
CALIBRATION_ITERATIONS = 500_000
#: One slice's wall time on the reference machine: the fastest of 400
#: slices on a two-vCPU Xeon VM under CPython 3.11.
REFERENCE_SLICE_SECONDS = 0.035


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def calibration_slice() -> float:
    """Wall seconds one run of the calibration loop takes now."""
    started = clock()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return clock() - started


class ReferenceClock:
    """Wall time converted to time on the reference machine.

    ``mark()`` times a calibration slice; ``factor()`` times another and
    returns the reference seconds per wall second over the stretch
    between the two, so work timed in that stretch is scaled by its
    host's speed at the time.  The slice ``factor()`` times also opens
    the next stretch, so back-to-back stretches share it.
    """

    def __init__(self) -> None:
        self._last: float | None = None

    def mark(self) -> None:
        self._last = calibration_slice()

    def factor(self) -> float:
        if self._last is None:
            raise RuntimeError("ReferenceClock.factor() before mark()")
        before, self._last = self._last, calibration_slice()
        return 2 * REFERENCE_SLICE_SECONDS / (before + self._last)


class Spans:
    """Per-operation layer times.

    ``op()`` opens one operation (a sweep, one access batch);
    ``span(name)`` and ``add(name, seconds)`` charge time to a layer of
    the currently open operation.  Time charged while no
    operation is open is dropped.
    """

    def __init__(self) -> None:
        self.ops: list[dict[str, float]] = []
        self._current: dict[str, float] | None = None

    def begin(self) -> None:
        """Open an operation (for callers that only see its edges)."""
        self._current = {}

    def end(self, keep: bool = True) -> None:
        if self._current is not None and keep:
            self.ops.append(self._current)
        self._current = None

    @contextmanager
    def op(self):
        self.begin()
        try:
            yield
        finally:
            self.end()

    def add(self, name: str, seconds: float) -> None:
        if self._current is not None:
            self._current[name] = self._current.get(name, 0.0) + seconds

    @contextmanager
    def span(self, name: str):
        started = clock()
        try:
            yield
        finally:
            self.add(name, clock() - started)

    def per_op(self, name: str) -> list[float]:
        """Seconds spent in layer *name* by each recorded operation."""
        return [record.get(name, 0.0) for record in self.ops]

    def median_ms(self, name: str) -> float:
        return median(self.per_op(name)) * 1e3


class Deadline:
    """The measuring window of one run."""

    def __init__(self, seconds: float) -> None:
        self.ends = clock() + seconds

    def expired(self) -> bool:
        return clock() >= self.ends


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
