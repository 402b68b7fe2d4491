"""Time-resolved simulation: watching cache behaviour across phases.

The headline experiments aggregate whole runs; this module slices a
trace into windows and records per-window statistics, which is how the
phase structure of a workload — and each policy's reaction to it —
becomes visible (miss-rate spikes at phase boundaries, the sawtooth of
FLUSH refills, the back-pointer table breathing with occupancy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.metrics import SimulationStats
from repro.core.overhead import OverheadModel, PAPER_MODEL
from repro.core.policies import EvictionPolicy
from repro.core.simulator import CodeCacheSimulator
from repro.core.superblock import SuperblockSet


@dataclass(frozen=True)
class TimelinePoint:
    """Statistics for one window of the trace."""

    start_access: int
    accesses: int
    miss_rate: float
    eviction_invocations: int
    evicted_blocks: int
    resident_blocks: int
    live_links: int
    backpointer_bytes: int

    @property
    def end_access(self) -> int:
        return self.start_access + self.accesses


@dataclass(frozen=True)
class Timeline:
    """A windowed view of one simulation run."""

    policy_name: str
    window: int
    points: tuple[TimelinePoint, ...]
    totals: SimulationStats

    def miss_rates(self) -> list[float]:
        return [point.miss_rate for point in self.points]

    def peak_miss_window(self) -> TimelinePoint:
        return max(self.points, key=lambda point: point.miss_rate)

    def __len__(self) -> int:
        return len(self.points)


def record_timeline(
    superblocks: SuperblockSet,
    policy: EvictionPolicy,
    capacity_bytes: int,
    trace: Sequence[int] | np.ndarray,
    window: int = 2000,
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
) -> Timeline:
    """Simulate *trace* in windows of *window* accesses.

    The simulator's cache state persists across windows (one continuous
    run); only the statistics are sliced.
    """
    if window < 1:
        raise ValueError("window must be positive")
    if hasattr(trace, "tolist"):
        trace = trace.tolist()
    simulator = CodeCacheSimulator(
        superblocks, policy, capacity_bytes,
        overhead_model=overhead_model, track_links=track_links,
    )
    points: list[TimelinePoint] = []
    totals = SimulationStats(policy_name=policy.name,
                             overhead_model=overhead_model)
    cursor = 0
    while cursor < len(trace):
        chunk = trace[cursor:cursor + window]
        stats = simulator.process(chunk)
        links = simulator.links
        points.append(TimelinePoint(
            start_access=cursor,
            accesses=len(chunk),
            miss_rate=stats.miss_rate,
            eviction_invocations=stats.eviction_invocations,
            evicted_blocks=stats.evicted_blocks,
            resident_blocks=len(policy.resident_ids()),
            live_links=links.live_link_count if links else 0,
            backpointer_bytes=(
                links.backpointer_table_bytes if links else 0
            ),
        ))
        totals = totals.merged_with(stats)
        cursor += len(chunk)
    totals.policy_name = policy.name
    return Timeline(
        policy_name=policy.name,
        window=window,
        points=tuple(points),
        totals=totals,
    )
