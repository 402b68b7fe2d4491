"""Sensitivity of the paper's conclusion to workload parameters.

Our substrate is synthetic, so an honest reproduction must ask: does the
central result — medium-grained eviction beating both extremes under
pressure — survive across the locality/phase parameter space, or did we
tune our way into it?  This module sweeps trace-model parameters around
the defaults and records, for each configuration, which granularity
minimizes total overhead and how the extremes compare.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.metrics import repriced_overhead
from repro.core.overhead import PAPER_MODEL, LinearCost, OverheadModel
from repro.core.policies import UnitFifoPolicy, granularity_ladder
from repro.core.pressure import pressured_capacity
from repro.core.simulator import simulate
from repro.workloads.registry import BenchmarkSpec, build_workload
from repro.workloads.traces import TraceConfig, generate_trace

#: The trace parameters varied, with the values tried for each (the
#: middle value of each triple is near the suite defaults).
DEFAULT_VARIATIONS = {
    "zipf_exponent": (1.1, 1.4, 1.8),
    "sweep_fraction": (0.2, 0.4, 0.55),
    "phase_count": (4, 8, 16),
    "overlap": (0.25, 0.5, 0.7),
}


@dataclass(frozen=True)
class SensitivityPoint:
    """One trace configuration and the granularity contest's outcome."""

    parameter: str
    value: float
    winner: str
    flush_relative: float  # FLUSH overhead / winner overhead
    fifo_relative: float   # fine FIFO overhead / winner overhead
    medium_wins: bool      # a 2..64-unit policy is within 2% of the best


@dataclass(frozen=True)
class SensitivityReport:
    """Outcomes across the whole parameter sweep."""

    benchmark: str
    pressure: float
    points: tuple[SensitivityPoint, ...]

    @property
    def medium_win_fraction(self) -> float:
        wins = sum(1 for point in self.points if point.medium_wins)
        return wins / len(self.points)

    def worst_case_for_medium(self) -> SensitivityPoint:
        """The configuration where medium grains look worst."""
        return min(
            self.points,
            key=lambda point: min(point.flush_relative,
                                  point.fifo_relative),
        )


_MEDIUM_NAMES = frozenset(
    UnitFifoPolicy(count).name for count in (2, 4, 8, 16, 32, 64)
)


def _contest(spec: BenchmarkSpec, config: TraceConfig, pressure: float,
             unit_counts: Sequence[int], seed: int) -> tuple[str, dict]:
    workload = build_workload(spec)
    rng = np.random.default_rng(seed)
    trace = generate_trace(len(workload.superblocks), config, rng)
    blocks = workload.superblocks
    capacity = pressured_capacity(blocks, pressure)
    overheads: dict[str, float] = {}
    for policy in granularity_ladder(unit_counts=tuple(unit_counts)):
        stats = simulate(blocks, policy, capacity, trace)
        overheads[policy.name] = stats.total_overhead
    winner = min(overheads, key=overheads.get)
    return winner, overheads


def sweep_sensitivity(
    spec: BenchmarkSpec,
    pressure: float = 10,
    variations: dict[str, Sequence[float]] | None = None,
    unit_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    trace_accesses: int | None = None,
    seed: int = 1234,
) -> SensitivityReport:
    """Vary one trace parameter at a time and record each contest.

    ``trace_accesses`` defaults to the spec's usual trace length.
    """
    variations = variations if variations is not None else DEFAULT_VARIATIONS
    base = spec.trace_profile
    if trace_accesses is None:
        from repro.workloads.registry import default_trace_accesses
        count = spec.superblock_count
        trace_accesses = default_trace_accesses(count)
    base = replace(base, accesses=trace_accesses)
    points: list[SensitivityPoint] = []
    for parameter, values in variations.items():
        for value in values:
            config = replace(base, **{parameter: value})
            winner, overheads = _contest(
                spec, config, pressure, unit_counts, seed
            )
            best = overheads[winner]
            medium_best = min(
                overheads[name] for name in overheads
                if name in _MEDIUM_NAMES
            )
            points.append(SensitivityPoint(
                parameter=parameter,
                value=value,
                winner=winner,
                flush_relative=overheads["FLUSH"] / best,
                fifo_relative=overheads["FIFO"] / best,
                medium_wins=medium_best <= best * 1.02,
            ))
    return SensitivityReport(
        benchmark=spec.name,
        pressure=pressure,
        points=tuple(points),
    )


# -- Overhead-model sensitivity ------------------------------------------------


def scaled_model(miss_scale: float = 1.0, eviction_fixed_scale: float = 1.0,
                 unlink_scale: float = 1.0,
                 base: OverheadModel = PAPER_MODEL) -> OverheadModel:
    """A copy of *base* with selected coefficient groups scaled.

    ``eviction_fixed_scale`` scales only the eviction intercept — the
    paper's key constant (the ~3k-instruction invocation cost that makes
    coarse eviction attractive).
    """
    return OverheadModel(
        miss=LinearCost(base.miss.slope * miss_scale,
                        base.miss.intercept * miss_scale),
        eviction=LinearCost(base.eviction.slope,
                            base.eviction.intercept * eviction_fixed_scale),
        unlink=LinearCost(base.unlink.slope * unlink_scale,
                          base.unlink.intercept * unlink_scale),
    )


@dataclass(frozen=True)
class ModelSensitivityPoint:
    """The granularity contest re-priced under one coefficient scaling."""

    label: str
    winner: str
    flush_relative: float
    fifo_relative: float
    medium_wins: bool


def overhead_model_sensitivity(
    per_policy_stats: dict[str, list],
    scalings: Sequence[tuple[str, OverheadModel]] | None = None,
) -> list[ModelSensitivityPoint]:
    """Re-price recorded runs under alternative overhead models.

    ``per_policy_stats`` maps policy name -> list of SimulationStats
    (e.g. one per benchmark).  Because overhead attribution is linear in
    the recorded counters, no re-simulation happens — the same runs are
    simply re-costed, exactly.
    """
    if scalings is None:
        scalings = (
            ("paper", PAPER_MODEL),
            ("eviction fixed cost x0.5",
             scaled_model(eviction_fixed_scale=0.5)),
            ("eviction fixed cost x2", scaled_model(eviction_fixed_scale=2.0)),
            ("miss cost x0.5", scaled_model(miss_scale=0.5)),
            ("miss cost x2", scaled_model(miss_scale=2.0)),
            ("unlink cost x2", scaled_model(unlink_scale=2.0)),
        )
    points: list[ModelSensitivityPoint] = []
    for label, model in scalings:
        totals = {
            policy: sum(repriced_overhead(stats, model)
                        for stats in records)
            for policy, records in per_policy_stats.items()
        }
        winner = min(totals, key=totals.get)
        best = totals[winner]
        medium_best = min(
            value for name, value in totals.items()
            if name in _MEDIUM_NAMES
        )
        points.append(ModelSensitivityPoint(
            label=label,
            winner=winner,
            flush_relative=totals["FLUSH"] / best,
            fifo_relative=totals["FIFO"] / best,
            medium_wins=medium_best <= best * 1.02,
        ))
    return points
