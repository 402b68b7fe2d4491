"""Experiment harness: sweeps, per-figure drivers and text rendering."""

from repro.analysis.report import (
    ExperimentResult,
    format_bar_chart,
    format_table,
)
from repro.analysis.parallel import (
    SweepError,
    SweepFailure,
    SweepTask,
)
from repro.analysis.sweep import (
    FINE_NAME,
    FLUSH_NAME,
    SweepOptions,
    SweepResult,
    clear_sweep_cache,
    full_sweep,
    ladder_policy_factories,
    run_sweep,
    run_sweep_parallel,
)
from repro.analysis.sweepcache import Store
from repro.analysis.connectivity import (
    ConnectivitySummary,
    PlacementHeadroom,
    connectivity_summary,
    fifo_assignment,
    inter_unit_fraction,
    link_graph,
    partition_lower_bound,
    partition_units,
    placement_headroom,
)
from repro.analysis.sensitivity import (
    DEFAULT_VARIATIONS,
    SensitivityPoint,
    SensitivityReport,
    sweep_sensitivity,
)
from repro.analysis.timeline import Timeline, TimelinePoint, record_timeline
from repro.analysis.visualize import (
    render_link_matrix,
    render_occupancy,
    render_timeline,
    render_timelines,
    sparkline,
)
from repro.analysis import experiments

__all__ = [
    "ExperimentResult",
    "format_bar_chart",
    "format_table",
    "Store",
    "SweepError",
    "SweepFailure",
    "SweepTask",
    "FINE_NAME",
    "FLUSH_NAME",
    "SweepOptions",
    "SweepResult",
    "clear_sweep_cache",
    "full_sweep",
    "ladder_policy_factories",
    "run_sweep",
    "run_sweep_parallel",
    "experiments",
    "ConnectivitySummary",
    "PlacementHeadroom",
    "connectivity_summary",
    "fifo_assignment",
    "inter_unit_fraction",
    "link_graph",
    "partition_lower_bound",
    "partition_units",
    "placement_headroom",
    "Timeline",
    "TimelinePoint",
    "record_timeline",
    "render_link_matrix",
    "render_occupancy",
    "render_timeline",
    "render_timelines",
    "sparkline",
    "DEFAULT_VARIATIONS",
    "SensitivityPoint",
    "SensitivityReport",
    "sweep_sensitivity",
]
