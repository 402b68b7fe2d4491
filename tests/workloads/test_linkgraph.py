"""Unit tests for the synthetic link-graph generator."""

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import native
from repro.workloads import linkgraph
from repro.workloads.linkgraph import (
    generate_link_columns,
    generate_links,
    mean_out_degree,
    self_loop_fraction,
)
from repro.workloads.registry import build_workload, get_benchmark

_NEEDS_C = pytest.mark.skipif(linkgraph.load_error() is not None,
                              reason="C link draw unavailable")

_BIT_GENERATORS = {"PCG64": np.random.PCG64, "MT19937": np.random.MT19937}


def _python_loop():
    """Run the generator on its per-link Python loop."""
    return mock.patch.object(linkgraph, "_load", lambda: None)


class TestGenerateLinks:
    def test_mean_out_degree_near_target(self):
        links = generate_links(5000, np.random.default_rng(1),
                               mean_out_degree=1.7)
        # Deduplication and edge reflection shave a little off the target.
        assert mean_out_degree(links) == pytest.approx(1.7, abs=0.15)

    def test_self_loop_fraction_near_target(self):
        links = generate_links(5000, np.random.default_rng(2),
                               self_loop_prob=0.3)
        assert self_loop_fraction(links) == pytest.approx(0.3, abs=0.03)

    def test_targets_in_range(self):
        links = generate_links(100, np.random.default_rng(3))
        for targets in links:
            for target in targets:
                assert 0 <= target < 100

    def test_no_duplicate_targets(self):
        links = generate_links(500, np.random.default_rng(4))
        for targets in links:
            assert len(targets) == len(set(targets))

    def test_locality(self):
        links = generate_links(2000, np.random.default_rng(5),
                               locality_scale=5.0)
        distances = [
            abs(target - sid)
            for sid, targets in enumerate(links)
            for target in targets
            if target != sid
        ]
        assert np.mean(distances) < 20

    def test_larger_scale_spreads_links(self):
        rng1 = np.random.default_rng(6)
        rng2 = np.random.default_rng(6)
        near = generate_links(2000, rng1, locality_scale=4.0)
        far = generate_links(2000, rng2, locality_scale=100.0)

        def mean_distance(links):
            distances = [
                abs(t - s)
                for s, targets in enumerate(links)
                for t in targets if t != s
            ]
            return np.mean(distances)

        assert mean_distance(far) > mean_distance(near)

    def test_single_block_graph(self):
        links = generate_links(1, np.random.default_rng(7),
                               mean_out_degree=1.0, self_loop_prob=1.0)
        assert links[0] == (0,)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_links(0, rng)
        with pytest.raises(ValueError):
            generate_links(10, rng, self_loop_prob=1.5)
        with pytest.raises(ValueError):
            generate_links(10, rng, mean_out_degree=0.1, self_loop_prob=0.5)
        with pytest.raises(ValueError):
            generate_links(10, rng, locality_scale=0)
        with pytest.raises(ValueError):
            mean_out_degree([])
        with pytest.raises(ValueError):
            self_loop_fraction([])

    @given(
        count=st.integers(1, 300),
        degree=st.floats(0.5, 3.0),
        self_prob=st.floats(0.0, 0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_generated_graphs_are_always_wellformed(self, count, degree,
                                                    self_prob):
        links = generate_links(count, np.random.default_rng(11),
                               mean_out_degree=degree,
                               self_loop_prob=self_prob)
        assert len(links) == count
        for sid, targets in enumerate(links):
            assert len(set(targets)) == len(targets)
            assert all(0 <= t < count for t in targets)


class TestNativeDraw:
    """The C draw loop takes the Python loop's draws: the same CSR
    columns and the same generator state afterwards, for any graph
    shape and for distances past every integer limit."""

    @_NEEDS_C
    @given(
        count=st.integers(1, 3000),
        self_prob=st.floats(0.0, 1.0),
        extra_degree=st.floats(0.0, 4.0),
        locality=st.one_of(st.floats(1.0, 4.0), st.floats(1.0, 1e20),
                           st.sampled_from((1.0, 3.0, 1e19, 1e20))),
        seed=st.integers(0, 2**32 - 1),
        bit_generator=st.sampled_from(sorted(_BIT_GENERATORS)),
    )
    @example(count=3000, self_prob=0.3, extra_degree=1.4, locality=2.0,
             seed=1, bit_generator="PCG64")
    @example(count=3000, self_prob=0.0, extra_degree=4.0, locality=1e20,
             seed=2, bit_generator="MT19937")
    @settings(max_examples=60, deadline=None)
    def test_c_draw_equals_the_python_loop(self, count, self_prob,
                                           extra_degree, locality, seed,
                                           bit_generator):
        make = _BIT_GENERATORS[bit_generator]
        native_rng = np.random.Generator(make(seed))
        python_rng = np.random.Generator(make(seed))
        shape = dict(mean_out_degree=self_prob + extra_degree,
                     self_loop_prob=self_prob, locality_scale=locality)
        offsets, targets = generate_link_columns(count, native_rng, **shape)
        with _python_loop():
            want_offsets, want_targets = generate_link_columns(
                count, python_rng, **shape)
        assert offsets.dtype == targets.dtype == np.int64
        assert offsets.tolist() == want_offsets.tolist()
        assert targets.tolist() == want_targets.tolist()
        assert native_rng.random() == python_rng.random()

    @_NEEDS_C
    def test_capped_distances_reflect_to_block_zero(self):
        # numpy caps a distance drawn at p = 1e-20 at INT64_MAX; the
        # Python loop reflects it to block 0, and so must C.
        offsets, targets = generate_link_columns(
            50, np.random.default_rng(3), self_loop_prob=0.0,
            locality_scale=1e20)
        assert set(targets.tolist()) == {0}
        assert offsets[-1] == len(targets) > 0

    def test_rows_are_the_link_tuples(self):
        links = generate_links(400, np.random.default_rng(9))
        offsets, targets = generate_link_columns(
            400, np.random.default_rng(9))
        assert [len(row) for row in links] == np.diff(offsets).tolist()
        assert [t for row in links for t in row] == targets.tolist()

    @pytest.mark.parametrize("locality", (0.5, float("nan")))
    def test_rejected_p_raises_as_numpy_does(self, locality):
        # p = 1/locality_scale outside (0, 1] never reaches C: the
        # Python loop raises numpy's own error at the first draw.
        with mock.patch.object(linkgraph, "_load") as load:
            with pytest.raises(ValueError, match="p > 1"):
                generate_link_columns(50, np.random.default_rng(0),
                                      locality_scale=locality)
        load.assert_not_called()

    def test_unbuildable_c_loop_falls_back_to_python(self, monkeypatch,
                                                     tmp_path):
        # A broken compiler: the load error names it, the workload
        # build runs the Python loop, and the workload is the same.
        spec = get_benchmark("crafty")
        want = build_workload(spec, scale=0.2, trace_accesses=2000)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.delitem(native._loaded, "linkdraw", raising=False)
        monkeypatch.setenv("REPRO_KERNEL_CC", str(tmp_path / "no-such-cc"))
        got = build_workload(spec, scale=0.2, trace_accesses=2000)
        assert "no-such-cc" in linkgraph.load_error()
        assert not list(tmp_path.glob("repro-linkdraw-*.so"))
        assert got.superblocks.link_column == want.superblocks.link_column
        assert got.superblocks.size_column == want.superblocks.size_column
        assert np.array_equal(got.trace, want.trace)
