"""The granularity x pressure sweep engine behind Figures 6-15.

One sweep simulates every (benchmark, policy, pressure) combination once
and keeps the full per-run statistics; all of the paper's simulation
figures are different projections of that grid (miss rates for
Figures 6-7, eviction counts for Figure 8, overheads without link costs
for Figures 10-11, link fractions for Figure 13, overheads with link
costs for Figures 14-15).  Because the grid is expensive, results are
reused aggressively: a module-level cache shares one grid between figure
functions within a process, and :func:`full_sweep` keeps every
benchmark's slab in the on-disk sweep store
(:mod:`repro.analysis.sweepcache`), so fresh processes and CI runs load
what an earlier run simulated and an interrupted sweep resumes.  The
executor (:mod:`repro.analysis.parallel`) runs the slabs inline or
fans them out across worker processes; both produce field-for-field
the grid :func:`run_sweep` computes from built workloads.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.analysis import sweepcache
from repro.analysis.kernel import KernelConfig, one_pass_grid
from repro.analysis.parallel import (
    GridRecord,
    SweepFailure,
    check_timeout,
    estimate_task_accesses,
    imap_tasks,
    plan_jobs,
    plan_tasks,
    resolve_jobs,
)
from repro.analysis.sweepcache import Store
from repro.core.invariants import resolve_check_level
from repro.core.metrics import SimulationStats, unified_miss_rate
from repro.core.overhead import PAPER_MODEL, OverheadModel
from repro.core.policies import (
    STANDARD_UNIT_COUNTS,
    FineGrainedFifoPolicy,
    FlushPolicy,
    PolicySpec,
    ladder_specs,
    policy_from_spec,
)
from repro.core.pressure import STANDARD_PRESSURE_FACTORS, pressured_capacity
from repro.core.simulator import CodeCacheSimulator
from repro.workloads.registry import BenchmarkSpec, Workload, all_benchmarks

#: Grid names of the coarsest and finest rungs.
FLUSH_NAME = FlushPolicy().name
FINE_NAME = FineGrainedFifoPolicy().name


def ladder_policy_factories(
    unit_counts: Sequence[int] = STANDARD_UNIT_COUNTS,
    include_fine: bool = True,
    include_lru: bool = False,
    include_preempt: bool = False,
) -> list[dict]:
    """Policy specs for the standard ladder, as the sweep engines take
    them (the name is kept for existing callers).

    ``include_lru`` appends the Section 3.3 LRU arena last (off by
    default: it is a fragmentation study policy, not a rung of the
    paper's granularity ladder); ``include_preempt`` likewise appends
    Dynamo's preemptive flush with its default detector.
    """
    specs = ladder_specs(tuple(unit_counts), include_fine)
    if include_lru:
        specs.append({"kind": "lru"})
    if include_preempt:
        specs.append({"kind": "preempt"})
    return specs


def policy_names(policy_specs: Sequence[PolicySpec]) -> tuple[str, ...]:
    """The grid name of each spec: its built policy's name, which a
    spec's ``name`` overrides.  Two specs may not share a name, since
    they would share one grid cell."""
    names = tuple(policy_from_spec(spec).name for spec in policy_specs)
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(
            f"policy specs must carry unique names; repeated: "
            f"{', '.join(repeated)}"
        )
    return names


@dataclass
class SweepResult:
    """The stats grid of one sweep, with the projections the figures use."""

    policy_names: tuple[str, ...]
    pressures: tuple[float, ...]
    benchmark_names: tuple[str, ...]
    stats: dict[tuple[str, str, float], SimulationStats]
    elapsed_seconds: float = 0.0
    #: What the fault-tolerant executor had to recover from and which
    #: slabs it loaded (None for :func:`run_sweep` grids).
    fault_report: SweepFailure | None = None

    def get(self, benchmark: str, policy: str, pressure: float) -> SimulationStats:
        return self.stats[(benchmark, policy, pressure)]

    def records(self, policy: str, pressure: float) -> list[SimulationStats]:
        """All per-benchmark stats for one (policy, pressure) point."""
        return [
            self.stats[(benchmark, policy, pressure)]
            for benchmark in self.benchmark_names
        ]

    # -- Projections -------------------------------------------------------

    def unified_miss_rates(self, pressure: float) -> dict[str, float]:
        """Equation 1 miss rate per policy at one pressure (Figures 6-7)."""
        return {
            policy: unified_miss_rate(self.records(policy, pressure))
            for policy in self.policy_names
        }

    def total(self, attribute: str, policy: str, pressure: float) -> float:
        """Sum an attribute over benchmarks at one grid point."""
        return sum(
            getattr(record, attribute)
            for record in self.records(policy, pressure)
        )

    def totals_by_policy(self, attribute: str,
                         pressure: float) -> dict[str, float]:
        return {
            policy: self.total(attribute, policy, pressure)
            for policy in self.policy_names
        }

    def per_benchmark(self, attribute: str,
                      pressure: float) -> dict[str, dict[str, float]]:
        """benchmark -> {policy -> attribute} at one pressure (the input
        to unweighted-mean normalizations like Figure 8)."""
        table: dict[str, dict[str, float]] = {}
        for benchmark in self.benchmark_names:
            table[benchmark] = {
                policy: getattr(self.stats[(benchmark, policy, pressure)],
                                attribute)
                for policy in self.policy_names
            }
        return table

    def inter_unit_fractions(self, pressure: float) -> dict[str, float]:
        """Suite-level fraction of established links that were inter-unit
        (Figure 13)."""
        fractions = {}
        for policy in self.policy_names:
            records = self.records(policy, pressure)
            inter = sum(r.links_established_inter for r in records)
            total = inter + sum(r.links_established_intra for r in records)
            fractions[policy] = inter / total if total else 0.0
        return fractions


def kernel_configs(
        policy_specs: Sequence[PolicySpec]) -> dict[int, KernelConfig]:
    """The kernel cell of every spec the one-pass kernel can run
    (:meth:`KernelConfig.from_spec`), by spec index; the other specs
    replay.  Each resolution builds the spec's policy, and a priority
    spec re-parses its expression, so the sweep engines resolve a spec
    list once, not once per workload."""
    configs: dict[int, KernelConfig] = {}
    for index, spec in enumerate(policy_specs):
        config = KernelConfig.from_spec(spec)
        if config is not None:
            configs[index] = config
    return configs


def simulate_slab(
    workload: Workload,
    policy_specs: Sequence[PolicySpec],
    pressures: Sequence[float],
    configs: dict[int, KernelConfig],
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    check_level: str | None = None,
) -> list[GridRecord]:
    """Simulate one workload's (pressure x policy) slab — the code both
    sweep engines run.

    *configs* holds the kernel cell of each spec the caller routes
    through the one-pass kernel, by spec index (:func:`kernel_configs`;
    ``{}`` replays every spec).  Those cells are evaluated by
    :func:`repro.analysis.kernel.one_pass_grid` — the ladder in a
    single trace traversal, the priority cells in one more C call; every
    other spec replays through :class:`CodeCacheSimulator` with the
    workload's superblocks bound, one fresh policy per pressure.  The
    kernel is field-identical to replay, but it has no invariant hooks,
    so an active check level (``None`` defers to
    ``REPRO_CHECK_LEVEL``) replays every spec.  Records come out
    pressure-outer, spec-order inner.
    """
    superblocks = workload.superblocks
    capacities = [pressured_capacity(superblocks, pressure)
                  for pressure in pressures]
    if resolve_check_level(check_level) != "off":
        configs = {}
    cells: list[dict[str, SimulationStats]] = [{} for _ in capacities]
    if configs:
        cells = one_pass_grid(superblocks, workload.trace, capacities,
                              list(configs.values()),
                              overhead_model=overhead_model,
                              track_links=track_links,
                              benchmark=workload.name)
    records: list[GridRecord] = []
    for pressure, capacity, cell in zip(pressures, capacities, cells):
        for index, spec in enumerate(policy_specs):
            if index in configs:
                record = cell[configs[index].name]
            else:
                simulator = CodeCacheSimulator(
                    superblocks,
                    policy_from_spec(spec, superblocks),
                    capacity,
                    overhead_model=overhead_model,
                    track_links=track_links,
                    check_level=check_level,
                    check_context={
                        "benchmark": workload.name,
                        "pressure": pressure,
                        "seed": workload.spec.seed,
                    },
                )
                record = simulator.process(workload.trace,
                                           benchmark=workload.name)
            records.append((workload.name, record.policy_name, pressure,
                            record))
    return records


def run_sweep(
    workloads: Sequence[Workload],
    policy_specs: Sequence[PolicySpec],
    pressures: Iterable[float] = STANDARD_PRESSURE_FACTORS,
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    progress: Callable[[str], None] | None = None,
    check_level: str | None = None,
    one_pass: bool = True,
) -> SweepResult:
    """Simulate every (workload, policy, pressure) combination.

    *policy_specs* are policy specs or their shorthand (see
    :func:`repro.core.policies.policy_from_spec`), each built afresh
    per cell with the workload's superblocks bound.  ``progress`` (if
    given) receives one line per completed benchmark.
    ``check_level`` runs every simulation under the invariant checker
    (:mod:`repro.core.invariants`); ``None`` defers to
    ``REPRO_CHECK_LEVEL`` (default ``off``), which is also how pool
    workers of the parallel engine pick the level up.  Slabs loaded
    from the sweep store were validated when first simulated, not per
    load.  ``one_pass`` routes the specs the one-pass kernel can
    express (:meth:`KernelConfig.from_spec`: the ladder kinds and
    priority functions, none when the C kernel cannot load) through it;
    the result is the same either way, and ``False`` forces replay for
    A/B checks.  Each spec is resolved once per call, not per workload.
    """
    pressures = tuple(pressures)
    started = time.perf_counter()
    names = policy_names(policy_specs)
    configs = kernel_configs(policy_specs) if one_pass else {}
    stats: dict[tuple[str, str, float], SimulationStats] = {}
    for workload in workloads:
        for benchmark, policy, pressure, record in simulate_slab(
                workload, policy_specs, pressures, configs,
                overhead_model=overhead_model, track_links=track_links,
                check_level=check_level):
            stats[(benchmark, policy, pressure)] = record
        if progress is not None:
            progress(f"swept {workload.name}")
    return SweepResult(
        policy_names=names,
        pressures=pressures,
        benchmark_names=tuple(w.name for w in workloads),
        stats=stats,
        elapsed_seconds=time.perf_counter() - started,
    )


def run_sweep_parallel(
    specs: Sequence[BenchmarkSpec],
    policy_specs: Sequence[PolicySpec],
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: Iterable[float] = STANDARD_PRESSURE_FACTORS,
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    jobs: int = 0,
    progress: Callable[[str], None] | None = None,
    task_timeout: float | None = None,
    checkpoints: Store | None = None,
    one_pass: bool = True,
) -> SweepResult:
    """Parallel counterpart of :func:`run_sweep`, over registry *specs*.

    One task per benchmark slab is sharded across a process pool
    (``jobs=0`` means one worker per core, ``jobs<=1`` runs inline).
    Workers rebuild their workload from the spec's seed rather than
    receiving a pickled trace, and simulate their slab with
    :func:`simulate_slab`, so the resulting grid is field-for-field
    identical to :func:`run_sweep`'s on the same specs.  The policy
    specs travel as canonical JSON and are part of each slab's key.

    Each task gets at most two attempts: a first attempt that fails,
    or that a pool worker runs past *task_timeout* seconds, is re-run
    once in this process (see :mod:`repro.analysis.parallel`).  When
    *checkpoints* (a :class:`~repro.analysis.sweepcache.Store`) is
    given, slabs it holds are loaded instead of simulated and each
    simulated slab is stored there as it completes.  The returned
    grid's ``fault_report`` records what timed out, was re-run in
    process, or was loaded.
    """
    pressures = tuple(pressures)
    started = time.perf_counter()
    names = policy_names(policy_specs)
    tasks = plan_tasks(
        specs,
        policy_specs,
        scale=scale,
        trace_accesses=trace_accesses,
        pressures=pressures,
        overhead_model=overhead_model,
        track_links=track_links,
        one_pass=one_pass,
    )
    failure = SweepFailure()
    stats: dict[tuple[str, str, float], SimulationStats] = {}
    batches = imap_tasks(tasks, jobs, task_timeout=task_timeout,
                         checkpoints=checkpoints, failure=failure)
    for task, batch in zip(tasks, batches):
        for benchmark, policy, pressure, record in batch:
            stats[(benchmark, policy, pressure)] = record
        if progress is not None:
            progress(f"swept {task.spec.name}")
    return SweepResult(
        policy_names=names,
        pressures=pressures,
        benchmark_names=tuple(task.spec.name for task in tasks),
        stats=stats,
        elapsed_seconds=time.perf_counter() - started,
        fault_report=failure,
    )


# -- Shared, memoized full-suite sweep ---------------------------------------

_SWEEP_CACHE: dict[tuple, SweepResult] = {}


def _parse_flag(raw: str) -> bool:
    text = raw.lower()
    if text in ("1", "on", "true", "yes"):
        return True
    if text in ("0", "off", "false", "no"):
        return False
    raise ValueError("expected 1/0, on/off, true/false or yes/no")


#: The environment variable behind each :class:`SweepOptions` field,
#: and how its text parses.
_ENVIRONMENT = {
    "jobs": ("REPRO_SWEEP_JOBS", int),
    "use_cache": ("REPRO_SWEEP_CACHE", _parse_flag),
    "task_timeout": ("REPRO_SWEEP_TIMEOUT", float),
}


@dataclass(frozen=True)
class SweepOptions:
    """:func:`full_sweep`'s engine knobs, resolved once by the caller.

    ``jobs`` is the worker count (``None``/1 inline, 0 all cores, N
    workers, capped by :func:`~repro.analysis.parallel.plan_jobs`),
    ``use_cache`` the on-disk sweep store (off: no disk I/O at all),
    and ``task_timeout`` the seconds a pooled first attempt may run
    before it is abandoned and re-run in process (``None``: no
    timeout).  None of them changes the grid.
    """

    jobs: int | None = None
    use_cache: bool = True
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        # The range rules live with the engine that applies them.
        resolve_jobs(self.jobs)
        check_timeout(self.task_timeout)

    @classmethod
    def from_env(cls) -> SweepOptions:
        """The options ``REPRO_SWEEP_JOBS``, ``REPRO_SWEEP_CACHE`` and
        ``REPRO_SWEEP_TIMEOUT`` set, the rest at their defaults; the
        one reader of those variables.  A blank variable means the
        default; ``REPRO_SWEEP_CACHE`` takes 1/0, on/off, true/false or
        yes/no in any case.  Anything else raises ``ValueError`` naming
        the variable.
        """
        options = cls()
        for name, (variable, parse) in _ENVIRONMENT.items():
            raw = os.environ.get(variable, "").strip()
            if raw:
                try:
                    options = replace(options, **{name: parse(raw)})
                except ValueError as error:
                    raise ValueError(f"{variable}={raw!r}: {error}") from None
        return options


def full_sweep(
    scale: float = 1.0,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    trace_accesses: int | None = None,
    unit_counts: tuple[int, ...] = STANDARD_UNIT_COUNTS,
    options: SweepOptions | None = None,
) -> SweepResult:
    """The all-benchmarks, all-policies grid, cached per configuration.

    Every simulation figure of the paper is a projection of this grid,
    so figure functions share one run (links are tracked; the dynamics
    are identical with or without link accounting, only the overhead
    attribution differs).  An in-process memo makes repeated figure
    functions free.  *options* carries the engine knobs
    (:class:`SweepOptions`; ``None`` means :meth:`SweepOptions.from_env`).

    The grid is one task per benchmark, run by one
    :func:`run_sweep_parallel` call at the worker count
    :func:`~repro.analysis.parallel.plan_jobs` picks (inline on one
    CPU or for tiny tasks).  With ``use_cache`` each benchmark's slab
    is loaded from the sweep store under
    :func:`~repro.analysis.sweepcache.cache_dir` when present and
    stored there when simulated, so a second process loads the whole
    grid and an interrupted sweep re-simulates only its unfinished
    benchmarks.  A task whose first attempt fails (or passes
    ``task_timeout`` in a pool worker) is re-run once in process; if
    that fails too, :class:`~repro.analysis.parallel.SweepError` is
    raised and rerunning resumes from the stored slabs.  The ladder
    runs on the one-pass kernel unless a check level is active or the
    C kernel cannot load.
    """
    pressures = tuple(pressures)
    unit_counts = tuple(unit_counts)
    key = (scale, pressures, trace_accesses, unit_counts)
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    if options is None:
        options = SweepOptions.from_env()
    specs = all_benchmarks()
    ladder = ladder_policy_factories(unit_counts)
    planned = plan_tasks(specs, ladder, scale=scale,
                         trace_accesses=trace_accesses, pressures=pressures)
    per_task = (sum(estimate_task_accesses(task) for task in planned)
                // len(planned)) if planned else None
    result = run_sweep_parallel(
        specs,
        ladder,
        scale=scale,
        trace_accesses=trace_accesses,
        pressures=pressures,
        jobs=plan_jobs(options.jobs, task_count=len(planned),
                       per_task_accesses=per_task),
        task_timeout=options.task_timeout,
        checkpoints=(sweepcache.default_store() if options.use_cache
                     else None),
    )
    _SWEEP_CACHE[key] = result
    return result


def clear_sweep_cache() -> None:
    """Drop in-process memoized sweeps (tests use this to keep runs
    independent; the on-disk store is managed by
    :mod:`repro.analysis.sweepcache` and the CLI's ``cache-clear``)."""
    _SWEEP_CACHE.clear()
