"""The paper's primary contribution: code cache eviction at every grain.

This package contains the bounded code cache, the eviction-policy ladder
from full FLUSH through medium-grained unit FIFO to per-block FIFO, the
superblock chaining/link machinery with its back-pointer table, the
analytical overhead model (Equations 2-4), and the trace-driven
simulator that ties them together.
"""

from repro.core.superblock import Superblock, SuperblockSet
from repro.core.units import CacheUnit, UnitOverflowError, make_units
from repro.core.cache import (
    CircularBlockBuffer,
    ConfigurationError,
    EvictionEvent,
    UnitCache,
)
from repro.core.policies import (
    STANDARD_UNIT_COUNTS,
    EvictionPolicy,
    FineGrainedFifoPolicy,
    FlushPolicy,
    GenerationalPolicy,
    PreemptiveFlushPolicy,
    UnitFifoPolicy,
    granularity_ladder,
    ladder_specs,
    policy_from_spec,
)
from repro.core.links import (
    BACKPOINTER_ENTRY_BYTES,
    LinkManager,
    UnlinkRecord,
)
from repro.core.overhead import (
    FREE_MODEL,
    PAPER_MODEL,
    ExecutionTimeModel,
    LinearCost,
    OverheadModel,
)
from repro.core.metrics import (
    SimulationStats,
    repriced_overhead,
    mean_relative_across_benchmarks,
    merge_all,
    relative_series,
    unified_miss_rate,
)
from repro.core.pressure import (
    STANDARD_PRESSURE_FACTORS,
    pressure_sweep,
    pressured_capacity,
)
from repro.core.simulator import CodeCacheSimulator, simulate
from repro.core.invariants import (
    CHECK_LEVELS,
    ENV_CHECK_LEVEL,
    InvariantChecker,
    InvariantViolation,
    resolve_check_level,
)
from repro.core.refmodel import (
    AccessOutcome,
    ReferenceResult,
    ReferenceSimulator,
    reference_ladder,
)
from repro.core.adaptive import AdaptiveUnitPolicy, DEFAULT_SCHEDULE
from repro.core.placement import LinkAwarePlacementPolicy
from repro.core.lru import LruPolicy

__all__ = [
    "Superblock",
    "SuperblockSet",
    "CacheUnit",
    "UnitOverflowError",
    "make_units",
    "CircularBlockBuffer",
    "ConfigurationError",
    "EvictionEvent",
    "UnitCache",
    "STANDARD_UNIT_COUNTS",
    "EvictionPolicy",
    "FineGrainedFifoPolicy",
    "FlushPolicy",
    "GenerationalPolicy",
    "PreemptiveFlushPolicy",
    "UnitFifoPolicy",
    "granularity_ladder",
    "ladder_specs",
    "policy_from_spec",
    "BACKPOINTER_ENTRY_BYTES",
    "LinkManager",
    "UnlinkRecord",
    "FREE_MODEL",
    "PAPER_MODEL",
    "ExecutionTimeModel",
    "LinearCost",
    "OverheadModel",
    "SimulationStats",
    "repriced_overhead",
    "mean_relative_across_benchmarks",
    "merge_all",
    "relative_series",
    "unified_miss_rate",
    "STANDARD_PRESSURE_FACTORS",
    "pressure_sweep",
    "pressured_capacity",
    "CodeCacheSimulator",
    "simulate",
    "CHECK_LEVELS",
    "ENV_CHECK_LEVEL",
    "InvariantChecker",
    "InvariantViolation",
    "resolve_check_level",
    "AccessOutcome",
    "ReferenceResult",
    "ReferenceSimulator",
    "reference_ladder",
    "AdaptiveUnitPolicy",
    "DEFAULT_SCHEDULE",
    "LinkAwarePlacementPolicy",
    "LruPolicy",
]
