"""Analytical overhead models: the paper's Equations 2-4 and the
execution-time conversion of Section 5.3.

The paper instruments DynamoRIO's management routines with PAPI counters
and fits linear models; the fitted coefficients then drive the trace
simulator.  ``PAPER_MODEL`` carries the published coefficients; the
:mod:`repro.papi` package re-derives a comparable model from our DBT
substrate, which can be plugged in instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinearCost:
    """A cost of the form ``slope * quantity + intercept`` instructions."""

    slope: float
    intercept: float

    def __call__(self, quantity: float) -> float:
        if quantity < 0:
            raise ValueError(f"cost quantity must be non-negative: {quantity}")
        return self.slope * quantity + self.intercept

    def total(self, quantity: int, count: int) -> float:
        """The summed cost of *count* charges whose quantities add up
        to *quantity* — exact by linearity, whatever the per-charge
        split."""
        return self.slope * quantity + self.intercept * count


@dataclass(frozen=True)
class OverheadModel:
    """The instruction-count cost of the three cache-management activities.

    Attributes
    ----------
    miss:
        Regenerating and inserting a superblock of ``sizeBytes``
        (Equation 3: save state, re-translate, store, update tables,
        restore state — there is no backing store).
    eviction:
        One invocation of the eviction mechanism reclaiming ``sizeBytes``
        in total (Equation 2; note the dominant fixed cost).
    unlink:
        Removing ``numLinks`` incoming links from one eviction candidate
        via the back-pointer table (Equation 4).
    """

    miss: LinearCost
    eviction: LinearCost
    unlink: LinearCost

    def miss_cost(self, size_bytes: int) -> float:
        return self.miss(size_bytes)

    def eviction_cost(self, size_bytes: int) -> float:
        return self.eviction(size_bytes)

    def unlink_cost(self, num_links: int) -> float:
        return self.unlink(num_links)


#: The coefficients published in the paper (CGO 2004, Equations 2-4).
PAPER_MODEL = OverheadModel(
    miss=LinearCost(slope=75.4, intercept=1922.0),
    eviction=LinearCost(slope=2.77, intercept=3055.0),
    unlink=LinearCost(slope=296.5, intercept=95.7),
)

#: A zero-cost model, useful for counting-only simulations and tests.
FREE_MODEL = OverheadModel(
    miss=LinearCost(0.0, 0.0),
    eviction=LinearCost(0.0, 0.0),
    unlink=LinearCost(0.0, 0.0),
)


@dataclass(frozen=True)
class ExecutionTimeModel:
    """Convert instruction overheads into wall-clock terms (Section 5.3).

    The paper combines "the calculated instruction overheads, the
    measured CPI, and the processor clock frequency" to estimate the
    impact on final execution time.  The reference machine was a 2.4 GHz
    Xeon; CPI defaults to 1.0 (the exact value cancels in the relative
    reductions the paper reports).
    """

    cpi: float = 1.0
    clock_hz: float = 2.4e9

    def __post_init__(self) -> None:
        if self.cpi <= 0 or self.clock_hz <= 0:
            raise ValueError("cpi and clock_hz must be positive")

    def seconds(self, instructions: float) -> float:
        """Wall-clock seconds to execute *instructions*."""
        return instructions * self.cpi / self.clock_hz

    def total_seconds(self, base_instructions: float,
                      overhead_instructions: float) -> float:
        """Execution time of a program with *base_instructions* of useful
        work plus *overhead_instructions* of cache management."""
        return self.seconds(base_instructions + overhead_instructions)

    def percent_reduction(self, base_instructions: float,
                          overhead_before: float,
                          overhead_after: float) -> float:
        """Percentage reduction in total execution time from lowering the
        management overhead (the Section 5.3 headline metric)."""
        before = base_instructions + overhead_before
        after = base_instructions + overhead_after
        if before <= 0:
            raise ValueError("total instruction count must be positive")
        return 100.0 * (before - after) / before
