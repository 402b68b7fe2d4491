"""Superblock access-trace generation with locality and phase behaviour.

The paper replays the access stream a real program presents to its code
cache.  Four properties of such streams drive the results:

* **Temporal locality** — a few hot superblocks take most accesses
  (loops).  Modeled with a Zipf law over the current working set.
* **Sequential sweeps** — code regions are also executed in order
  (straight-line phases, initialization paths, iteration over large
  routine bodies).  Sweep reuse distances are the size of the whole
  working set, so once the cache is smaller than the working set these
  accesses miss under *any* replacement policy — they are what makes
  miss rates converge in relative terms under heavy pressure while the
  absolute gaps keep growing (Figures 7 vs 11).
* **Phase behaviour** — the working set migrates through the code over
  time; interactive applications churn through far more code than SPEC
  (the paper's motivation for including them).  Modeled as a window
  sliding through superblock-id space, with configurable overlap.
* **A persistent core** — some code (dispatch loops, library routines)
  stays hot across phases.  Modeled as a global hot set that takes a
  fixed fraction of accesses in every phase.

Ids are assigned in formation order, so the sliding window also means
new phases touch *newly formed* blocks — which is what makes eviction
granularity matter.

A trace is a function of the seeded draw sequence, which every sweep
grid, figure and sweep-store key depends on.  :func:`generate_trace`
takes a fixed sequence of vectorized draws per phase and samples each
Zipf law through one CDF built per trace, the CDF and the draws
``Generator.choice(p=)`` would use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TraceConfig:
    """Shape parameters of a phased access trace.

    Attributes
    ----------
    accesses:
        Total trace length.
    phase_count:
        Number of program phases the trace walks through.
    working_fraction:
        Fraction of all superblocks in a single phase's working set.
    zipf_exponent:
        Skew of intra-phase popularity (1.0-1.4 is typical of code).
    overlap:
        Fraction of a phase window shared with its predecessor.
    sweep_fraction:
        Fraction of accesses that sweep sequentially through the phase
        working set (working-set-sized reuse distances).
    global_fraction:
        Fraction of accesses that go to the persistent global hot set.
    global_set_fraction:
        Size of that global hot set, as a fraction of all blocks.
    """

    accesses: int
    phase_count: int = 8
    working_fraction: float = 0.30
    zipf_exponent: float = 1.2
    overlap: float = 0.4
    sweep_fraction: float = 0.3
    global_fraction: float = 0.1
    global_set_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.accesses < 1:
            raise ValueError("accesses must be positive")
        if self.phase_count < 1:
            raise ValueError("phase_count must be positive")
        if not 0.0 < self.working_fraction <= 1.0:
            raise ValueError("working_fraction must be in (0, 1]")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must be in [0, 1)")
        if not 0.0 <= self.sweep_fraction < 1.0:
            raise ValueError("sweep_fraction must be in [0, 1)")
        if not 0.0 <= self.global_fraction < 1.0:
            raise ValueError("global_fraction must be in [0, 1)")
        if self.sweep_fraction + self.global_fraction >= 1.0:
            raise ValueError("sweep + global fractions must leave room "
                             "for the Zipf component")
        if not 0.0 < self.global_set_fraction <= 1.0:
            raise ValueError("global_set_fraction must be in (0, 1]")


def _zipf_pmf(size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _zipf_cdf(size: int, exponent: float) -> np.ndarray:
    """The CDF ``Generator.choice(size, p=pmf)`` samples through: the
    pmf's cumulative sum, normalised by its last element."""
    cdf = _zipf_pmf(size, exponent).cumsum()
    cdf /= cdf[-1]
    return cdf


def generate_trace(block_count: int, config: TraceConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """Generate an access trace over blocks ``0..block_count-1``.

    Returns an ``int64`` array of length ``config.accesses``.

    Each phase takes its draws in one fixed order: one uniform per
    access picking its component, the Zipf offsets, the phase's window
    permutation, then the global-set picks.  A Zipf or global pick is
    ``cdf.searchsorted(rng.random(n), side="right")`` over a CDF built
    once per trace, the draw and the search ``rng.choice(k, n, p=pmf)``
    makes, without re-validating the pmf per phase.
    """
    if block_count < 1:
        raise ValueError("block_count must be positive")

    window = max(1, round(config.working_fraction * block_count))
    window = min(window, block_count)
    stride = max(1, round(window * (1.0 - config.overlap)))
    zipf_cdf = _zipf_cdf(window, config.zipf_exponent)

    global_size = max(1, round(config.global_set_fraction * block_count))
    global_size = min(global_size, block_count)
    # The global hot set: blocks spread across the id space (library code
    # is formed throughout the run, not all at once).
    global_ids = rng.choice(block_count, size=global_size, replace=False)
    global_cdf = _zipf_cdf(global_size, config.zipf_exponent)
    # Which component serves an access: global below the first edge,
    # sweep below the second, Zipf from there on.
    global_edge = config.global_fraction
    sweep_edge = config.global_fraction + config.sweep_fraction

    trace = np.empty(config.accesses, dtype=np.int64)
    phase_start = 0
    start = 0
    sweep_cursor = 0
    for length in _phase_lengths(config.accesses, config.phase_count):
        if length == 0:
            continue
        ids = trace[phase_start:phase_start + length]
        phase_start += length
        draw = rng.random(length)
        at_zipf = np.flatnonzero(draw >= sweep_edge)
        if len(at_zipf):
            offsets = zipf_cdf.searchsorted(rng.random(len(at_zipf)),
                                            side="right")
            # Per-phase permutation: which blocks in the window are hot
            # changes from phase to phase, while staying spatially local.
            permutation = rng.permutation(window)
            ids[at_zipf] = (start + permutation[offsets]) % block_count
        at_sweep = np.flatnonzero((draw >= global_edge)
                                  & (draw < sweep_edge))
        if len(at_sweep):
            positions = (sweep_cursor + np.arange(len(at_sweep))) % window
            ids[at_sweep] = (start + positions) % block_count
            sweep_cursor = (sweep_cursor + len(at_sweep)) % window
        at_global = np.flatnonzero(draw < global_edge)
        if len(at_global):
            picks = global_cdf.searchsorted(rng.random(len(at_global)),
                                            side="right")
            ids[at_global] = global_ids[picks]
        start = (start + stride) % block_count
    return trace


def _phase_lengths(accesses: int, phase_count: int) -> list[int]:
    """Split *accesses* into *phase_count* near-equal chunks."""
    base = accesses // phase_count
    remainder = accesses % phase_count
    return [base + (1 if i < remainder else 0) for i in range(phase_count)]


def loop_trace(block_ids: list[int], repetitions: int) -> np.ndarray:
    """A perfectly regular loop over *block_ids* (best case for caching)."""
    if not block_ids or repetitions < 1:
        raise ValueError("need at least one block and one repetition")
    return np.tile(np.asarray(block_ids, dtype=np.int64), repetitions)


def scan_trace(block_count: int, sweeps: int) -> np.ndarray:
    """A cyclic scan over all blocks (worst case for any FIFO cache that
    cannot hold them all)."""
    if block_count < 1 or sweeps < 1:
        raise ValueError("need at least one block and one sweep")
    return np.tile(np.arange(block_count, dtype=np.int64), sweeps)
