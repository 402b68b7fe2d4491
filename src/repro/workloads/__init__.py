"""Synthetic workloads standing in for SPECint2000 + Windows applications.

The registry reproduces Table 1's populations; the distribution, link
graph and trace modules materialize each benchmark with the statistical
properties the paper's results depend on (sizes, chaining structure,
locality and phase behaviour).  The program generator builds actual
guest-ISA programs for experiments that need a running DBT.
"""

from repro.workloads.distributions import (
    FIGURE3_BIN_EDGES,
    LogNormalSizeDistribution,
    median_of,
    size_histogram,
)
from repro.workloads.linkgraph import (
    generate_link_columns,
    generate_links,
    mean_out_degree,
    self_loop_fraction,
)
from repro.workloads.traces import (
    TraceConfig,
    generate_trace,
    loop_trace,
    scan_trace,
)
from repro.workloads.export import export_workload, workload_to_event_log
from repro.workloads.generator import (
    TABLE2_SPECS,
    GuestProgramSpec,
    demo_program,
    generate_program,
    table2_program,
)
from repro.workloads.multiprogram import (
    combine_workloads,
    multiprogram_pressure,
)
from repro.workloads.registry import (
    SPEC_SIGMA,
    WINDOWS_SIGMA,
    BenchmarkSpec,
    Workload,
    all_benchmarks,
    build_suite,
    build_workload,
    default_trace_accesses,
    get_benchmark,
    spec_benchmarks,
    windows_benchmarks,
)

__all__ = [
    "export_workload",
    "workload_to_event_log",
    "TABLE2_SPECS",
    "GuestProgramSpec",
    "demo_program",
    "generate_program",
    "table2_program",
    "combine_workloads",
    "multiprogram_pressure",
    "FIGURE3_BIN_EDGES",
    "LogNormalSizeDistribution",
    "median_of",
    "size_histogram",
    "generate_link_columns",
    "generate_links",
    "mean_out_degree",
    "self_loop_fraction",
    "TraceConfig",
    "generate_trace",
    "loop_trace",
    "scan_trace",
    "SPEC_SIGMA",
    "WINDOWS_SIGMA",
    "BenchmarkSpec",
    "Workload",
    "all_benchmarks",
    "build_suite",
    "build_workload",
    "default_trace_accesses",
    "get_benchmark",
    "spec_benchmarks",
    "windows_benchmarks",
]
