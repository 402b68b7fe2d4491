"""Simulation statistics and the paper's aggregate metrics.

One :class:`SimulationStats` accumulates everything a single simulation
run produces; module functions combine per-benchmark stats into the
paper's suite-level numbers — notably the unified miss rate of
Equation 1 (total misses over total accesses, i.e. weighted by access
count) and the relative series of Figures 8, 10, 11, 14 and 15.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.overhead import OverheadModel, PAPER_MODEL


@dataclass
class SimulationStats:
    """Integer counters for one simulation run, plus the overhead model
    that prices them.

    The three overheads (Equations 2-4) are not accumulated: each model
    is linear, so a run's total is ``slope * quantity + intercept *
    count`` over the counters below, whatever order the run charged its
    events in.  Every engine therefore reports the same overheads
    exactly when it reports the same counters, and re-pricing a finished
    run under another model is ``dataclasses.replace(stats,
    overhead_model=other)``.
    """

    policy_name: str = ""
    benchmark: str = ""
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    inserted_bytes: int = 0
    eviction_invocations: int = 0
    evicted_blocks: int = 0
    evicted_bytes: int = 0
    unlink_operations: int = 0
    links_removed: int = 0
    links_established_intra: int = 0
    links_established_inter: int = 0
    peak_backpointer_bytes: int = 0
    preemptive_flushes: int = 0
    overhead_model: OverheadModel = PAPER_MODEL

    def __setstate__(self, state: dict) -> None:
        # Records pickled before the overheads became derived carry them
        # as float fields and name no model; the counters are the run,
        # and the paper's model priced every such record.
        for name in ("miss_overhead", "eviction_overhead",
                     "unlink_overhead"):
            state.pop(name, None)
        state.setdefault("overhead_model", PAPER_MODEL)
        self.__dict__.update(state)

    # -- Derived metrics -----------------------------------------------------

    @property
    def miss_overhead(self) -> float:
        """Equation 3 over every miss: regeneration plus insertion."""
        return self.overhead_model.miss.total(self.inserted_bytes,
                                              self.misses)

    @property
    def eviction_overhead(self) -> float:
        """Equation 2 over every eviction invocation."""
        return self.overhead_model.eviction.total(self.evicted_bytes,
                                                  self.eviction_invocations)

    @property
    def unlink_overhead(self) -> float:
        """Equation 4 over every unlink operation."""
        return self.overhead_model.unlink.total(self.links_removed,
                                                self.unlink_operations)

    @property
    def miss_rate(self) -> float:
        """Misses over accesses; zero for an empty run."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def management_overhead(self) -> float:
        """Total management instructions, excluding link maintenance
        (the Figure 10/11 accounting)."""
        return self.miss_overhead + self.eviction_overhead

    @property
    def total_overhead(self) -> float:
        """Total management instructions including link maintenance
        (the Figure 14/15 accounting)."""
        return self.management_overhead + self.unlink_overhead

    @property
    def links_established(self) -> int:
        return self.links_established_intra + self.links_established_inter

    @property
    def inter_unit_link_fraction(self) -> float:
        """Fraction of established links spanning unit boundaries
        (the Figure 13 metric); zero when no links were established."""
        established = self.links_established
        if established == 0:
            return 0.0
        return self.links_established_inter / established

    @property
    def mean_blocks_per_eviction(self) -> float:
        if self.eviction_invocations == 0:
            return 0.0
        return self.evicted_blocks / self.eviction_invocations

    # -- Combination -----------------------------------------------------------

    def merged_with(self, other: "SimulationStats") -> "SimulationStats":
        """Return the sum of two stats records (labels kept from ``self``
        unless empty).  Both must be priced under the same model."""
        if self.overhead_model != other.overhead_model:
            raise ValueError(
                "cannot merge stats priced under different overhead "
                f"models: {self.overhead_model} vs {other.overhead_model}"
            )
        merged = SimulationStats(
            policy_name=self.policy_name or other.policy_name,
            benchmark=self.benchmark or other.benchmark,
            overhead_model=self.overhead_model,
        )
        for name in _SUMMABLE_FIELDS:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        merged.peak_backpointer_bytes = max(
            self.peak_backpointer_bytes, other.peak_backpointer_bytes
        )
        return merged

    def to_dict(self) -> dict:
        """A flat dict of raw and derived values, for reports."""
        return {
            "policy": self.policy_name,
            "benchmark": self.benchmark,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "eviction_invocations": self.eviction_invocations,
            "evicted_blocks": self.evicted_blocks,
            "evicted_bytes": self.evicted_bytes,
            "unlink_operations": self.unlink_operations,
            "links_removed": self.links_removed,
            "inter_unit_link_fraction": self.inter_unit_link_fraction,
            "miss_overhead": self.miss_overhead,
            "eviction_overhead": self.eviction_overhead,
            "unlink_overhead": self.unlink_overhead,
            "total_overhead": self.total_overhead,
            "peak_backpointer_bytes": self.peak_backpointer_bytes,
        }


_SUMMABLE_FIELDS = (
    "accesses",
    "hits",
    "misses",
    "inserted_bytes",
    "eviction_invocations",
    "evicted_blocks",
    "evicted_bytes",
    "unlink_operations",
    "links_removed",
    "links_established_intra",
    "links_established_inter",
    "preemptive_flushes",
)


def repriced_overhead(stats: SimulationStats, model: OverheadModel,
                      include_links: bool = True) -> float:
    """Re-price a finished run's management overhead under a different
    :class:`~repro.core.overhead.OverheadModel`.

    The overheads are derived from the run's counters (misses and
    inserted bytes, eviction invocations and evicted bytes, unlink
    operations and links removed), so re-pricing is the same formula
    under another model — exact, with no re-simulation.  It is the
    basis of the overhead-model sensitivity study.
    """
    repriced = dataclasses.replace(stats, overhead_model=model)
    if include_links:
        return repriced.total_overhead
    return repriced.management_overhead


def unified_miss_rate(stats: Iterable[SimulationStats]) -> float:
    """Equation 1: the access-weighted miss rate across benchmarks."""
    total_misses = 0
    total_accesses = 0
    for record in stats:
        total_misses += record.misses
        total_accesses += record.accesses
    if total_accesses == 0:
        return 0.0
    return total_misses / total_accesses


def merge_all(stats: Iterable[SimulationStats]) -> SimulationStats:
    """Sum a sequence of stats records into a suite-level record."""
    records = list(stats)
    if not records:
        raise ValueError("merge_all needs at least one stats record")
    merged = records[0]
    for record in records[1:]:
        merged = merged.merged_with(record)
    return merged


def relative_series(values: Mapping[str, float],
                    baseline: str) -> dict[str, float]:
    """Normalize a per-policy series to the named baseline = 1.0
    (how Figures 8, 10, 11, 14 and 15 present their data)."""
    if baseline not in values:
        raise KeyError(f"baseline {baseline!r} not in series")
    base = values[baseline]
    if base == 0:
        raise ValueError(f"baseline {baseline!r} value is zero")
    return {name: value / base for name, value in values.items()}


def mean_relative_across_benchmarks(
    per_benchmark: Mapping[str, Mapping[str, float]],
    baseline: str,
) -> dict[str, float]:
    """Average each policy's per-benchmark ratio to the baseline policy.

    This is the unweighted-mean normalization (each benchmark counts
    equally), used for Figure 8 where a handful of very large interactive
    applications would otherwise dominate the aggregate.  ``per_benchmark``
    maps benchmark -> {policy -> value}.
    """
    policies: list[str] = []
    for series in per_benchmark.values():
        for policy in series:
            if policy not in policies:
                policies.append(policy)
    averaged: dict[str, float] = {}
    for policy in policies:
        ratios = []
        for benchmark, series in per_benchmark.items():
            if baseline not in series or policy not in series:
                continue
            base = series[baseline]
            if base > 0:
                ratios.append(series[policy] / base)
        if ratios:
            averaged[policy] = sum(ratios) / len(ratios)
    return averaged
