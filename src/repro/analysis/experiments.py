"""One driver per paper artifact: every table, figure and headline claim.

Each function regenerates the corresponding result from our substrate
and returns an :class:`~repro.analysis.report.ExperimentResult` whose
``rows`` mirror what the paper printed and whose ``series`` carry the
raw numbers for programmatic checks.  Simulation figures share one
memoized granularity x pressure sweep (see
:func:`repro.analysis.sweep.full_sweep`), and take its engine knobs as
one ``options`` (a :class:`~repro.analysis.sweep.SweepOptions`;
``None`` reads them from the environment).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.report import ExperimentResult
from repro.analysis.sweep import (
    FINE_NAME,
    FLUSH_NAME,
    SweepOptions,
    SweepResult,
    full_sweep,
)
from repro.core.metrics import (
    mean_relative_across_benchmarks,
    relative_series,
)
from repro.core.overhead import ExecutionTimeModel
from repro.core.pressure import STANDARD_PRESSURE_FACTORS, pressured_capacity
from repro.dbt.runtime import DBTRuntime
from repro.papi.calibration import (
    CalibrationResult,
    calibrate_eviction,
    calibrate_regeneration,
    calibrate_unlinking,
)
from repro.workloads.distributions import median_of, size_histogram
from repro.workloads.generator import TABLE2_SPECS, generate_program
from repro.workloads.registry import (
    all_benchmarks,
    build_workload,
)

#: Paper-published Table 2 slowdowns, for side-by-side reporting.
PAPER_TABLE2_SLOWDOWNS = {
    "gzip": 3357.0,
    "vpr": 643.0,
    "gcc": 1494.0,
    "mcf": 447.0,
    "crafty": 1550.0,
    "parser": 1841.0,
    "perlbmk": 1967.0,
    "gap": 2070.0,
    "vortex": 1119.0,
    "bzip2": 1396.0,
    "twolf": 886.0,
}

#: Mean guest-instruction encoding, used to convert executed bytes into
#: base instructions for the Section 5.3 execution-time estimates.
MEAN_INSTRUCTION_BYTES = 3.84

#: Each simulated cache access stands for many consecutive executions of
#: the same superblock (intra-block looping changes no cache state), so
#: base work is amplified relative to the trace length.
BASE_WORK_AMPLIFICATION = 10.0


def _sweep(scale: float, pressures: tuple[float, ...],
           trace_accesses: int | None,
           options: SweepOptions | None) -> SweepResult:
    return full_sweep(scale=scale, pressures=pressures,
                      trace_accesses=trace_accesses, options=options)


# -- Table 1 -------------------------------------------------------------------


def table1() -> ExperimentResult:
    """Table 1: the benchmarks and their hot-superblock populations."""
    rows = [
        (spec.name, spec.superblock_count, spec.description)
        for spec in all_benchmarks()
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Benchmarks and hot superblock counts",
        columns=("Name", "Superblocks", "Description"),
        rows=rows,
        series={spec.name: spec.superblock_count for spec in all_benchmarks()},
    )


# -- Figures 3-4: superblock sizes ------------------------------------------


def figure3(scale: float = 1.0) -> ExperimentResult:
    """Figure 3: size distribution of superblocks, per suite."""
    histograms: dict[str, list[tuple[str, float]]] = {}
    for suite in ("spec", "windows"):
        sizes = np.concatenate([
            np.array(
                [b.size_bytes
                 for b in build_workload(spec, scale=scale).superblocks]
            )
            for spec in all_benchmarks()
            if spec.suite == suite
        ])
        histograms[suite] = size_histogram(sizes)
    labels = [label for label, _ in histograms["spec"]]
    rows = [
        (
            label,
            histograms["spec"][i][1],
            histograms["windows"][i][1],
        )
        for i, label in enumerate(labels)
    ]
    return ExperimentResult(
        experiment_id="figure3",
        title="Superblock size distribution (fraction of blocks per bin)",
        columns=("Size (bytes)", "SPECint2000", "Windows"),
        rows=rows,
        series={suite: dict(bins) for suite, bins in histograms.items()},
        notes="Windows tail is heavier, as in the paper's lower histogram.",
    )


def figure4(scale: float = 1.0) -> ExperimentResult:
    """Figure 4: median superblock size per benchmark."""
    rows = []
    series: dict[str, float] = {}
    for spec in all_benchmarks():
        workload = build_workload(spec, scale=scale)
        sizes = np.array([b.size_bytes for b in workload.superblocks])
        sampled = median_of(sizes)
        rows.append((spec.name, spec.suite, sampled, spec.median_bytes))
        series[spec.name] = sampled
    return ExperimentResult(
        experiment_id="figure4",
        title="Median superblock size (bytes)",
        columns=("Benchmark", "Suite", "Measured median", "Configured median"),
        rows=rows,
        series=series,
    )


# -- Figures 6-8: miss rates and eviction counts -------------------------------


def figure6(
    pressure: float = 2,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Figure 6: unified miss rate (Eq. 1) per eviction granularity."""
    sweep = _sweep(scale, pressures, trace_accesses, options)
    rates = sweep.unified_miss_rates(pressure)
    rows = [(policy, rate) for policy, rate in rates.items()]
    return ExperimentResult(
        experiment_id="figure6",
        title=f"Unified miss rate vs eviction granularity "
              f"(cache = maxCache/{pressure:g})",
        columns=("Policy", "Miss rate"),
        rows=rows,
        series=rates,
        notes="Miss rates decline from FLUSH toward finer grains; "
              "fine-grained FIFO is lowest.",
    )


def figure7(
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Figure 7: miss rate per granularity as cache pressure increases."""
    sweep = _sweep(scale, pressures, trace_accesses, options)
    series = {
        pressure: sweep.unified_miss_rates(pressure) for pressure in pressures
    }
    rows = [
        (policy, *(series[pressure][policy] for pressure in pressures))
        for policy in sweep.policy_names
    ]
    return ExperimentResult(
        experiment_id="figure7",
        title="Unified miss rate vs granularity as pressure increases",
        columns=("Policy", *(f"maxCache/{p:g}" for p in pressures)),
        rows=rows,
        series=series,
        notes="Absolute miss-rate differences grow with pressure.",
    )


def figure8(
    pressure: float = 2,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Figure 8: eviction invocations relative to finest-grained FIFO."""
    sweep = _sweep(scale, pressures, trace_accesses, options)
    per_benchmark = sweep.per_benchmark("eviction_invocations", pressure)
    relative = mean_relative_across_benchmarks(per_benchmark, FINE_NAME)
    rows = [(policy, value * 100.0) for policy, value in relative.items()]
    return ExperimentResult(
        experiment_id="figure8",
        title="Eviction invocations relative to finest-grained FIFO (%)",
        columns=("Policy", "Relative evictions (%)"),
        rows=rows,
        series=relative,
        notes="Unweighted mean of per-benchmark ratios (each benchmark "
              "counts equally); the ladder saturates for small benchmarks "
              "whose units must hold the largest superblock.",
    )


# -- Figure 9 and Equations 2-4: calibration ---------------------------------


def _calibration_result(calibration: CalibrationResult,
                        experiment_id: str) -> ExperimentResult:
    fit = calibration.fit
    rows = [
        ("slope", fit.slope, calibration.paper.slope),
        ("intercept", fit.intercept, calibration.paper.intercept),
        ("R^2", fit.r_squared, 1.0),
        ("samples", float(fit.sample_count), 10000.0),
    ]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=calibration.name,
        columns=("Quantity", "Measured", "Paper"),
        rows=rows,
        series={
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "paper_slope": calibration.paper.slope,
            "paper_intercept": calibration.paper.intercept,
        },
    )


def figure9(samples: int = 10_000, seed: int = 42) -> ExperimentResult:
    """Figure 9 / Equation 2: eviction overhead regression."""
    return _calibration_result(
        calibrate_eviction(invocations=samples, seed=seed), "figure9"
    )


def equation3(samples: int = 10_000, seed: int = 43) -> ExperimentResult:
    """Equation 3: miss (regeneration) overhead regression."""
    return _calibration_result(
        calibrate_regeneration(samples=samples, seed=seed), "equation3"
    )


def equation4(samples: int = 10_000, seed: int = 44) -> ExperimentResult:
    """Equation 4: unlinking overhead regression."""
    return _calibration_result(
        calibrate_unlinking(samples=samples, seed=seed), "equation4"
    )


# -- Figures 10-11: overhead without link maintenance --------------------------


def _overhead_figure(
    experiment_id: str,
    attribute: str,
    pressure: float,
    scale: float,
    trace_accesses: int | None,
    pressures: tuple[float, ...],
    options: SweepOptions | None,
    title: str,
    notes: str = "",
) -> ExperimentResult:
    sweep = _sweep(scale, pressures, trace_accesses, options)
    totals = sweep.totals_by_policy(attribute, pressure)
    relative = relative_series(totals, FLUSH_NAME)
    rows = [(policy, value) for policy, value in relative.items()]
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        columns=("Policy", "Overhead relative to FLUSH"),
        rows=rows,
        series=relative,
        notes=notes,
    )


def figure10(
    pressure: float = 10,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Figure 10: miss + eviction overhead, relative to FLUSH."""
    return _overhead_figure(
        "figure10",
        "management_overhead",
        pressure,
        scale,
        trace_accesses,
        pressures,
        options,
        title=f"Relative overhead (miss + eviction penalties), "
              f"cache = maxCache/{pressure:g}",
        notes="Medium granularities minimize total overhead.",
    )


def figure11(
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Figure 11: miss + eviction overhead vs pressure, rel. FLUSH."""
    sweep = _sweep(scale, pressures, trace_accesses, options)
    series = {}
    for pressure in pressures:
        totals = sweep.totals_by_policy("management_overhead", pressure)
        series[pressure] = relative_series(totals, FLUSH_NAME)
    rows = [
        (policy, *(series[pressure][policy] for pressure in pressures))
        for policy in sweep.policy_names
    ]
    return ExperimentResult(
        experiment_id="figure11",
        title="Relative overhead (miss + eviction) as pressure increases",
        columns=("Policy", *(f"maxCache/{p:g}" for p in pressures)),
        rows=rows,
        series=series,
        notes="Fine-grained FIFO's advantage over FLUSH shrinks as "
              "pressure grows.",
    )


# -- Figure 12: outbound links ----------------------------------------------


def figure12(scale: float = 1.0) -> ExperimentResult:
    """Figure 12: average outbound links per superblock (~1.7)."""
    rows = []
    series: dict[str, float] = {}
    for spec in all_benchmarks():
        workload = build_workload(spec, scale=scale)
        degree = workload.superblocks.mean_out_degree
        rows.append((spec.name, degree))
        series[spec.name] = degree
    average = float(np.mean(list(series.values())))
    rows.append(("AVERAGE", average))
    series["AVERAGE"] = average
    return ExperimentResult(
        experiment_id="figure12",
        title="Average outbound links per superblock",
        columns=("Benchmark", "Mean out-degree"),
        rows=rows,
        series=series,
        notes="Paper reports an average of ~1.7 links per superblock.",
    )


# -- Figure 13: inter-unit links ----------------------------------------------


def figure13(
    pressure: float = 2,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Figure 13: fraction of links that span cache-unit boundaries."""
    sweep = _sweep(scale, pressures, trace_accesses, options)
    fractions = sweep.inter_unit_fractions(pressure)
    rows = [(policy, value * 100.0) for policy, value in fractions.items()]
    return ExperimentResult(
        experiment_id="figure13",
        title="Inter-unit superblock links (%)",
        columns=("Policy", "Inter-unit links (%)"),
        rows=rows,
        series=fractions,
        notes="FLUSH has none (single unit); FIFO stays below 100% "
              "because superblocks link to themselves.",
    )


# -- Figures 14-15: overhead including link maintenance ------------------------


def figure14(
    pressure: float = 10,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Figure 14: overhead including Equation 4 link maintenance."""
    return _overhead_figure(
        "figure14",
        "total_overhead",
        pressure,
        scale,
        trace_accesses,
        pressures,
        options,
        title=f"Relative overhead incl. link maintenance, "
              f"cache = maxCache/{pressure:g}",
        notes="Link-removal penalties move all finer-grained policies "
              "closer to FLUSH.",
    )


def figure15(
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Figure 15: overhead incl. link maintenance vs pressure."""
    sweep = _sweep(scale, pressures, trace_accesses, options)
    series = {}
    for pressure in pressures:
        totals = sweep.totals_by_policy("total_overhead", pressure)
        series[pressure] = relative_series(totals, FLUSH_NAME)
    rows = [
        (policy, *(series[pressure][policy] for pressure in pressures))
        for policy in sweep.policy_names
    ]
    return ExperimentResult(
        experiment_id="figure15",
        title="Relative overhead incl. link maintenance vs pressure",
        columns=("Policy", *(f"maxCache/{p:g}" for p in pressures)),
        rows=rows,
        series=series,
    )


# -- Table 2: chaining slowdowns ---------------------------------------------


def table2(
    max_guest_instructions: int = 4_000_000,
    benchmarks: Sequence[str] | None = None,
) -> ExperimentResult:
    """Table 2: slowdown from disabling superblock chaining."""
    names = list(benchmarks) if benchmarks is not None else [
        spec.name for spec in TABLE2_SPECS
    ]
    time_model = ExecutionTimeModel()
    rows = []
    series: dict[str, float] = {}
    for name in names:
        spec = next(s for s in TABLE2_SPECS if s.name == name)
        program = generate_program(spec)
        runtime_kwargs = dict(
            max_trace_blocks=64, max_trace_bytes=4096, record_entries=False
        )
        enabled = DBTRuntime(program, chaining_enabled=True,
                             **runtime_kwargs).run(max_guest_instructions)
        disabled = DBTRuntime(program, chaining_enabled=False,
                              **runtime_kwargs).run(max_guest_instructions)
        slowdown = (disabled.total_work / enabled.total_work - 1.0) * 100.0
        rows.append(
            (
                name,
                enabled.seconds(time_model),
                disabled.seconds(time_model),
                slowdown,
                PAPER_TABLE2_SLOWDOWNS[name],
            )
        )
        series[name] = slowdown
    return ExperimentResult(
        experiment_id="table2",
        title="Slowdown from disabling superblock chaining",
        columns=("Benchmark", "Linking enabled (s)", "Linking disabled (s)",
                 "Slowdown (%)", "Paper (%)"),
        rows=rows,
        series=series,
        notes="Cost is dominated by memory-protection toggles on every "
              "unchained cache exit, per the paper's analysis.",
    )


# -- Section 5.1: back-pointer memory ----------------------------------------


def section51_backpointer_memory(
    pressure: float = 2,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    policy: str = FINE_NAME,
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Section 5.1: a complete back-pointer table costs ~11.5 % of the
    code cache (16 bytes per link, ~1.7 links per superblock)."""
    sweep = _sweep(scale, pressures, trace_accesses, options)
    rows = []
    series: dict[str, float] = {}
    for benchmark in sweep.benchmark_names:
        record = sweep.get(benchmark, policy, pressure)
        spec = next(s for s in all_benchmarks() if s.name == benchmark)
        workload = build_workload(spec, scale=scale)
        capacity = pressured_capacity(workload.superblocks, pressure)
        fraction = record.peak_backpointer_bytes / capacity
        rows.append((benchmark, record.peak_backpointer_bytes, capacity,
                     fraction * 100.0))
        series[benchmark] = fraction
    average = float(np.mean(list(series.values())))
    rows.append(("AVERAGE", 0, 0, average * 100.0))
    series["AVERAGE"] = average
    return ExperimentResult(
        experiment_id="section5.1",
        title="Back-pointer table memory as % of code cache "
              f"({policy}, cache = maxCache/{pressure:g})",
        columns=("Benchmark", "Peak table bytes", "Cache bytes", "% of cache"),
        rows=rows,
        series=series,
        notes="Paper estimates ~11.5 % for a complete table.",
    )


# -- Section 5.3: execution-time impact ----------------------------------------


def section53_execution_time(
    pressure: float = 10,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    pressures: tuple[float, ...] = STANDARD_PRESSURE_FACTORS,
    from_policy: str = FLUSH_NAME,
    to_policy: str = "8-unit",
    highlight: Sequence[str] = ("crafty", "twolf"),
    options: SweepOptions | None = None,
) -> ExperimentResult:
    """Section 5.3: % reduction in execution time from changing the
    eviction granularity (paper: crafty 19.33 %, twolf 19.79 % for
    FLUSH -> 8-unit FIFO at pressure 10)."""
    sweep = _sweep(scale, pressures, trace_accesses, options)
    time_model = ExecutionTimeModel()
    rows = []
    series: dict[str, float] = {}
    for benchmark in sweep.benchmark_names:
        spec = next(s for s in all_benchmarks() if s.name == benchmark)
        workload = build_workload(spec, scale=scale,
                                  trace_accesses=trace_accesses)
        size_map = workload.superblocks.sizes()
        size_lookup = np.zeros(max(size_map) + 1, dtype=np.float64)
        for sid, size in size_map.items():
            size_lookup[sid] = size
        executed_bytes = float(size_lookup[workload.trace].sum())
        base = (
            executed_bytes / MEAN_INSTRUCTION_BYTES * BASE_WORK_AMPLIFICATION
        )
        before = sweep.get(benchmark, from_policy, pressure).total_overhead
        after = sweep.get(benchmark, to_policy, pressure).total_overhead
        reduction = time_model.percent_reduction(base, before, after)
        rows.append((benchmark, reduction))
        series[benchmark] = reduction
    rows.sort(key=lambda row: -row[1])
    return ExperimentResult(
        experiment_id="section5.3",
        title=f"Execution-time reduction, {from_policy} -> {to_policy} "
              f"(cache = maxCache/{pressure:g})",
        columns=("Benchmark", "Reduction (%)"),
        rows=rows,
        series=series,
        notes="Paper highlights crafty (19.33 %) and twolf (19.79 %); "
              f"our substrate gives {', '.join(highlight)} = "
              + ", ".join(f"{series.get(name, float('nan')):.1f}%"
                          for name in highlight),
    )


#: All regenerable artifacts, for `python -m repro.analysis.experiments`.
ALL_EXPERIMENTS = (
    table1,
    figure3,
    figure4,
    figure6,
    figure7,
    figure8,
    figure9,
    equation3,
    equation4,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    table2,
    section51_backpointer_memory,
    section53_execution_time,
)
