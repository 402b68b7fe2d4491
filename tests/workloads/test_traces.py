"""Unit tests for the access-trace generator."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads.traces import (
    TraceConfig,
    _phase_lengths,
    _zipf_pmf,
    generate_trace,
    loop_trace,
    scan_trace,
)


def _config(**overrides):
    defaults = dict(accesses=20_000, phase_count=4, working_fraction=0.3,
                    zipf_exponent=1.2, overlap=0.4, sweep_fraction=0.3,
                    global_fraction=0.1, global_set_fraction=0.02)
    defaults.update(overrides)
    return TraceConfig(**defaults)


class TestGenerateTrace:
    def test_length_and_bounds(self):
        trace = generate_trace(500, _config(), np.random.default_rng(1))
        assert len(trace) == 20_000
        assert trace.min() >= 0
        assert trace.max() < 500

    def test_deterministic_for_a_seed(self):
        a = generate_trace(300, _config(), np.random.default_rng(7))
        b = generate_trace(300, _config(), np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_trace(300, _config(), np.random.default_rng(1))
        b = generate_trace(300, _config(), np.random.default_rng(2))
        assert not np.array_equal(a, b)

    def test_temporal_locality_exists(self):
        # The hottest block should take far more than a uniform share.
        trace = generate_trace(1000, _config(), np.random.default_rng(3))
        _, counts = np.unique(trace, return_counts=True)
        assert counts.max() > 20 * (len(trace) / 1000)

    def test_phases_shift_the_working_set(self):
        config = _config(accesses=40_000, phase_count=8, overlap=0.0,
                         working_fraction=0.1, global_fraction=0.0)
        trace = generate_trace(4000, config, np.random.default_rng(4))
        first = set(trace[:5000].tolist())
        last = set(trace[-5000:].tolist())
        shared = len(first & last) / max(1, len(first))
        assert shared < 0.5  # working sets migrated

    def test_single_phase_stays_in_window(self):
        config = _config(accesses=5000, phase_count=1,
                         working_fraction=0.1, global_fraction=0.0)
        trace = generate_trace(1000, config, np.random.default_rng(5))
        assert len(set(trace.tolist())) <= 100

    def test_sweep_component_covers_the_window(self):
        config = _config(accesses=30_000, phase_count=1,
                         working_fraction=0.2, sweep_fraction=0.5,
                         zipf_exponent=2.5, global_fraction=0.0)
        trace = generate_trace(1000, config, np.random.default_rng(6))
        # With heavy Zipf skew, broad coverage can only come from the
        # sweep: all 200 window blocks must appear.
        assert len(set(trace.tolist())) == 200

    def test_more_blocks_than_accesses(self):
        config = _config(accesses=100, phase_count=2)
        trace = generate_trace(10_000, config, np.random.default_rng(8))
        assert len(trace) == 100

    def test_tiny_population(self):
        trace = generate_trace(1, _config(accesses=50),
                               np.random.default_rng(9))
        assert set(trace.tolist()) == {0}


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        dict(accesses=0),
        dict(phase_count=0),
        dict(working_fraction=0.0),
        dict(working_fraction=1.5),
        dict(zipf_exponent=0.0),
        dict(overlap=1.0),
        dict(overlap=-0.1),
        dict(sweep_fraction=1.0),
        dict(global_fraction=-0.1),
        dict(sweep_fraction=0.6, global_fraction=0.5),
        dict(global_set_fraction=0.0),
    ])
    def test_bad_configs_rejected(self, overrides):
        with pytest.raises(ValueError):
            _config(**overrides)


class TestSimpleTraces:
    def test_loop_trace(self):
        trace = loop_trace([3, 1, 2], 4)
        assert list(trace) == [3, 1, 2] * 4

    def test_scan_trace(self):
        trace = scan_trace(4, 3)
        assert list(trace) == [0, 1, 2, 3] * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            loop_trace([], 3)
        with pytest.raises(ValueError):
            loop_trace([1], 0)
        with pytest.raises(ValueError):
            scan_trace(0, 1)


def _reference_trace(block_count: int, config: TraceConfig,
                     rng: np.random.Generator) -> np.ndarray:
    """The trace generator as it was before it sampled through one CDF
    per trace, kept verbatim: ``rng.choice(p=)`` per phase and three
    boolean masks per phase."""
    if block_count < 1:
        raise ValueError("block_count must be positive")

    window = max(1, round(config.working_fraction * block_count))
    window = min(window, block_count)
    stride = max(1, round(window * (1.0 - config.overlap)))
    zipf_pmf = _zipf_pmf(window, config.zipf_exponent)

    global_size = max(1, round(config.global_set_fraction * block_count))
    global_size = min(global_size, block_count)
    # The global hot set: blocks spread across the id space (library code
    # is formed throughout the run, not all at once).
    global_ids = rng.choice(block_count, size=global_size, replace=False)
    global_pmf = _zipf_pmf(global_size, config.zipf_exponent)

    lengths = _phase_lengths(config.accesses, config.phase_count)
    pieces: list[np.ndarray] = []
    start = 0
    sweep_cursor = 0
    for length in lengths:
        if length == 0:
            continue
        # Which component serves each access: 0 = Zipf, 1 = sweep, 2 = global.
        draw = rng.random(length)
        is_global = draw < config.global_fraction
        is_sweep = (~is_global) & (
            draw < config.global_fraction + config.sweep_fraction
        )
        is_zipf = ~(is_global | is_sweep)

        ids = np.empty(length, dtype=np.int64)
        n_zipf = int(is_zipf.sum())
        if n_zipf:
            offsets = rng.choice(window, size=n_zipf, p=zipf_pmf)
            # Per-phase permutation: which blocks in the window are hot
            # changes from phase to phase, while staying spatially local.
            permutation = rng.permutation(window)
            ids[is_zipf] = (start + permutation[offsets]) % block_count
        n_sweep = int(is_sweep.sum())
        if n_sweep:
            positions = (sweep_cursor + np.arange(n_sweep)) % window
            ids[is_sweep] = (start + positions) % block_count
            sweep_cursor = (sweep_cursor + n_sweep) % window
        n_global = int(is_global.sum())
        if n_global:
            picks = rng.choice(global_size, size=n_global, p=global_pmf)
            ids[is_global] = global_ids[picks]
        pieces.append(ids)
        start = (start + stride) % block_count
    return np.concatenate(pieces)


@st.composite
def _trace_configs(draw):
    sweep = draw(st.floats(0.0, 0.95))
    return TraceConfig(
        accesses=draw(st.integers(1, 3000)),
        phase_count=draw(st.integers(1, 12)),
        working_fraction=draw(st.floats(0.001, 1.0)),
        zipf_exponent=draw(st.floats(0.1, 3.0)),
        overlap=draw(st.floats(0.0, 0.99)),
        sweep_fraction=sweep,
        global_fraction=draw(st.floats(0.0, 0.99 - sweep)),
        global_set_fraction=draw(st.floats(0.001, 1.0)),
    )


class TestOneCdfPerTrace:
    """Sampling through one CDF per trace takes ``rng.choice``'s draws:
    the same trace and the same generator state afterwards."""

    @given(block_count=st.integers(1, 2000), config=_trace_configs(),
           seed=st.integers(0, 2**32 - 1))
    # Zero-length phases (fewer accesses than phases), a one-block
    # window and a one-block global set.
    @example(block_count=50, config=_config(accesses=3, phase_count=8),
             seed=1)
    @example(block_count=40, config=_config(working_fraction=0.01,
                                            accesses=500), seed=2)
    @example(block_count=1, config=_config(accesses=64), seed=3)
    @example(block_count=300, config=_config(global_set_fraction=0.001,
                                             global_fraction=0.5,
                                             sweep_fraction=0.0), seed=4)
    @settings(max_examples=80, deadline=None)
    def test_trace_equals_the_per_phase_choice(self, block_count, config,
                                               seed):
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        trace = generate_trace(block_count, config, rng)
        want = _reference_trace(block_count, config, reference_rng)
        assert trace.dtype == want.dtype == np.int64
        assert np.array_equal(trace, want)
        assert rng.random() == reference_rng.random()

    @given(weights=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=60),
           draws=st.integers(0, 500), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_searchsorted_is_what_choice_draws(self, weights, draws, seed):
        # A numpy whose choice(p=) samples differently fails here first.
        pmf = np.asarray(weights) / sum(weights)
        cdf = pmf.cumsum()
        cdf /= cdf[-1]
        rng = np.random.default_rng(seed)
        choice_rng = np.random.default_rng(seed)
        picks = cdf.searchsorted(rng.random(draws), side="right")
        want = choice_rng.choice(len(pmf), size=draws, p=pmf)
        assert picks.tolist() == want.tolist()
        assert rng.random() == choice_rng.random()
