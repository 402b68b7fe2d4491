"""The benchmark registry: Table 1's twenty workloads.

The paper evaluates all 12 SPECint2000 benchmarks (run under DynamoRIO
on Linux) and eight interactive Windows applications (driven by manual
user interaction).  The middle column of Table 1 — the number of hot
superblocks each produces, i.e. the population the code cache must
manage — is reproduced here verbatim.  Per-benchmark size medians follow
Figure 4; the log-normal shape parameters are chosen so the unbounded
cache footprints match the paper's quoted endpoints (``maxCache`` of
171 KB for gzip through 34.2 MB for word).

Because the original binaries and DynamoRIO logs are unavailable, a
:class:`Workload` materializes each spec synthetically: sizes from the
distribution, links from the locality graph model, and an access trace
with the suite's phase/locality profile.  See DESIGN.md for the full
substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.cache import ConfigurationError
from repro.core.superblock import SuperblockSet
from repro.workloads.distributions import LogNormalSizeDistribution
from repro.workloads.linkgraph import generate_links
from repro.workloads.traces import TraceConfig, generate_trace

#: Log-normal shapes calibrated against the paper's maxCache endpoints:
#: gzip (301 blocks, median 244 B) -> ~171 KB needs sigma ~= 1.30;
#: word (18043 blocks, median 219 B) -> ~34.2 MB needs sigma ~= 2.10.
SPEC_SIGMA = 1.30
WINDOWS_SIGMA = 2.10


@dataclass(frozen=True)
class BenchmarkSpec:
    """Static description of one Table 1 benchmark."""

    name: str
    suite: str  # "spec" or "windows"
    superblock_count: int
    description: str
    median_bytes: float
    mean_out_degree: float = 1.7
    sigma: float | None = None  # default chosen by suite
    seed: int = 0

    def __post_init__(self) -> None:
        if self.suite not in ("spec", "windows"):
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.superblock_count < 1:
            raise ValueError("superblock_count must be positive")

    def cache_token(self) -> tuple:
        """Stable identity tuple for content-addressed sweep caching.

        Covers every field that affects the materialized workload (the
        suite selects the sigma default, the clipping bound and the trace
        profile), so any registry change invalidates cached sweep
        results.  ``description`` is presentation-only and excluded.
        """
        return (
            self.name,
            self.suite,
            self.superblock_count,
            self.median_bytes,
            self.mean_out_degree,
            self.sigma,
            self.seed,
        )

    @property
    def size_distribution(self) -> LogNormalSizeDistribution:
        sigma = self.sigma
        if sigma is None:
            sigma = SPEC_SIGMA if self.suite == "spec" else WINDOWS_SIGMA
        # Clipping bounds: translated superblocks top out around a few KB;
        # the Windows tail is heavier (Figure 3's lower histogram).  The
        # clip trades a little unbounded-footprint fidelity for units that
        # can always hold several blocks, as the paper's Figure 5 assumes.
        max_bytes = 2048 if self.suite == "spec" else 8192
        return LogNormalSizeDistribution(self.median_bytes, sigma,
                                         max_bytes=max_bytes)

    @property
    def trace_profile(self) -> TraceConfig:
        """The suite's locality/phase profile (trace length filled later).

        Interactive Windows applications churn through more phases with
        less overlap — the behaviour the paper says "tests the limits of
        code cache management systems".
        """
        if self.suite == "spec":
            return TraceConfig(
                accesses=1,
                phase_count=5,
                working_fraction=0.30,
                zipf_exponent=1.50,
                overlap=0.55,
                sweep_fraction=0.38,
                global_fraction=0.10,
                global_set_fraction=0.02,
            )
        return TraceConfig(
            accesses=1,
            phase_count=8,
            working_fraction=0.30,
            zipf_exponent=1.35,
            overlap=0.50,
            sweep_fraction=0.42,
            global_fraction=0.12,
            global_set_fraction=0.015,
        )


# Table 1, verbatim: (name, suite, hot superblocks, description),
# plus the Figure 4 size medians and a Figure 12-spread out-degree.
_SPECS = (
    BenchmarkSpec("gzip", "spec", 301, "Compression", 244.0, 1.5, seed=101),
    BenchmarkSpec("vpr", "spec", 449, "FPGA Place+Route", 242.0, 1.6, seed=102),
    BenchmarkSpec("gcc", "spec", 8751, "C Compiler", 190.0, 1.9, seed=103),
    BenchmarkSpec("mcf", "spec", 158, "Combinatorial Optimization", 237.0, 1.4,
                  seed=104),
    BenchmarkSpec("crafty", "spec", 1488, "Chess Game", 233.0, 1.8, seed=105),
    BenchmarkSpec("parser", "spec", 2418, "Word Processing", 223.0, 1.7,
                  seed=106),
    BenchmarkSpec("eon", "spec", 448, "Computer Visualization", 225.0, 1.6,
                  seed=107),
    BenchmarkSpec("perlbmk", "spec", 2144, "PERL Language", 225.0, 1.8,
                  seed=108),
    BenchmarkSpec("gap", "spec", 667, "Group Theory Interpreter", 224.0, 1.7,
                  seed=109),
    BenchmarkSpec("vortex", "spec", 1985, "Object-Oriented Database", 220.0,
                  1.9, seed=110),
    BenchmarkSpec("bzip2", "spec", 224, "Compression", 213.0, 1.4, seed=111),
    BenchmarkSpec("twolf", "spec", 574, "Place+Route", 230.0, 1.6, seed=112),
    BenchmarkSpec("iexplore", "windows", 14846, "Web Browser", 205.0, 1.8,
                  seed=201),
    BenchmarkSpec("outlook", "windows", 13233, "E-Mail App", 196.0, 1.7,
                  seed=202),
    BenchmarkSpec("photoshop", "windows", 9434, "Photo Editor", 228.0, 1.7,
                  seed=203),
    BenchmarkSpec("pinball", "windows", 1086, "3D Game Demo", 248.0, 1.5,
                  seed=204),
    BenchmarkSpec("powerpoint", "windows", 14475, "Presentation", 184.0, 1.8,
                  seed=205),
    BenchmarkSpec("visualstudio", "windows", 7063, "Development Env", 240.0,
                  1.9, seed=206),
    BenchmarkSpec("winzip", "windows", 3198, "Compression", 210.0, 1.6,
                  seed=207),
    BenchmarkSpec("word", "windows", 18043, "Word Processor", 219.0, 1.8,
                  seed=208),
)

_BY_NAME = {spec.name: spec for spec in _SPECS}


def all_benchmarks() -> tuple[BenchmarkSpec, ...]:
    """All twenty Table 1 benchmarks, SPEC first, in the paper's order."""
    return _SPECS


def spec_benchmarks() -> tuple[BenchmarkSpec, ...]:
    return tuple(spec for spec in _SPECS if spec.suite == "spec")


def windows_benchmarks() -> tuple[BenchmarkSpec, ...]:
    return tuple(spec for spec in _SPECS if spec.suite == "windows")


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(_BY_NAME)}"
        )


def benchmarks_by_names(names) -> tuple[BenchmarkSpec, ...]:
    """Resolve an ordered, duplicate-free slice of the registry.

    The validated front door for callers that take benchmark names from
    the outside (the search fitness set, CLI ``--benchmarks`` flags):
    unknown names raise the usual :func:`get_benchmark` error, and
    duplicates are rejected so a fitness set can't double-weight a
    benchmark by accident.
    """
    names = tuple(names)
    if not names:
        raise ValueError("at least one benchmark name is required")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate benchmark names in {names}")
    return tuple(get_benchmark(name) for name in names)


def default_trace_accesses(block_count: int) -> int:
    """A trace length that exercises the cache without taking forever:
    ~50 accesses per superblock, clamped to [20k, 250k]."""
    return min(max(50 * block_count, 20_000), 250_000)


@dataclass(frozen=True)
class Workload:
    """A materialized benchmark: superblocks, links and an access trace."""

    spec: BenchmarkSpec
    superblocks: SuperblockSet
    trace: np.ndarray

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def max_cache_bytes(self) -> int:
        """The paper's ``maxCache``: the unbounded-cache footprint."""
        return self.superblocks.total_bytes


def build_workload(
    spec: BenchmarkSpec,
    scale: float = 1.0,
    trace_accesses: int | None = None,
    seed: int | None = None,
) -> Workload:
    """Materialize *spec* into sizes, links and a trace.

    Parameters
    ----------
    scale:
        Scales the superblock population (and, proportionally, the
        default trace length).  Tests use small scales; the paper-shape
        benches use 1.0.
    trace_accesses:
        Override the default trace length.
    seed:
        Override the spec's deterministic seed.
    """
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    if trace_accesses is not None and trace_accesses < 1:
        raise ConfigurationError(
            f"a workload trace needs at least one access, "
            f"got trace_accesses={trace_accesses}"
        )
    count = max(16, round(spec.superblock_count * scale))
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    sizes = spec.size_distribution.sample(count, rng)
    links = generate_links(
        count,
        rng,
        mean_out_degree=spec.mean_out_degree,
        self_loop_prob=0.30,
        locality_scale=max(8.0, count * 0.015),
    )
    superblocks = SuperblockSet.from_arrays(sizes, links)
    if trace_accesses is None:
        trace_accesses = default_trace_accesses(count)
    config = replace(spec.trace_profile, accesses=trace_accesses)
    trace = generate_trace(count, config, rng)
    return Workload(spec=spec, superblocks=superblocks, trace=trace)


def build_suite(
    specs: tuple[BenchmarkSpec, ...] | None = None,
    scale: float = 1.0,
    trace_accesses: int | None = None,
) -> list[Workload]:
    """Materialize a whole suite (defaults to all twenty benchmarks)."""
    if specs is None:
        specs = all_benchmarks()
    return [
        build_workload(spec, scale=scale, trace_accesses=trace_accesses)
        for spec in specs
    ]
