"""Unit tests for windowed simulation and terminal visualization."""

import numpy as np
import pytest

from repro.analysis.timeline import Timeline, record_timeline
from repro.analysis.visualize import (
    render_link_matrix,
    render_occupancy,
    render_timeline,
    render_timelines,
    sparkline,
)
from repro.core.policies import FlushPolicy, UnitFifoPolicy, policy_from_spec
from repro.core.simulator import simulate
from repro.core.superblock import Superblock, SuperblockSet
from repro.workloads.registry import build_workload, get_benchmark


@pytest.fixture(scope="module")
def workload():
    return build_workload(get_benchmark("gzip"), trace_accesses=8000)


class TestRecordTimeline:
    def test_windows_cover_the_trace(self, workload):
        blocks = workload.superblocks
        timeline = record_timeline(
            blocks, UnitFifoPolicy(8), blocks.total_bytes // 4,
            workload.trace, window=1000,
        )
        assert len(timeline) == 8
        assert timeline.points[0].start_access == 0
        assert timeline.points[-1].end_access == 8000
        assert sum(point.accesses for point in timeline.points) == 8000

    def test_totals_match_a_plain_run(self, workload):
        # Each window's record counts only its own accesses, link
        # establishments included, so the windows sum to a plain run.
        blocks = workload.superblocks
        capacity = blocks.total_bytes // 4
        for spec in ("8-unit", "fifo", "flush", "preempt"):
            timeline = record_timeline(blocks, policy_from_spec(spec),
                                       capacity, workload.trace, window=750)
            plain = simulate(blocks, policy_from_spec(spec), capacity,
                             workload.trace)
            assert plain.links_established > 0
            assert timeline.totals.to_dict() == plain.to_dict(), spec
            assert timeline.totals == plain, spec

    def test_first_window_has_the_cold_misses(self, workload):
        blocks = workload.superblocks
        timeline = record_timeline(
            blocks, FlushPolicy(), blocks.total_bytes // 3,
            workload.trace, window=500,
        )
        rates = timeline.miss_rates()
        assert rates[0] > np.mean(rates[1:])

    def test_resident_blocks_reported(self, workload):
        blocks = workload.superblocks
        timeline = record_timeline(
            blocks, UnitFifoPolicy(4), blocks.total_bytes // 4,
            workload.trace, window=2000,
        )
        assert all(point.resident_blocks > 0 for point in timeline.points)
        assert all(point.live_links >= 0 for point in timeline.points)

    def test_window_validation(self, workload):
        blocks = workload.superblocks
        with pytest.raises(ValueError):
            record_timeline(blocks, FlushPolicy(), 10_000,
                            workload.trace, window=0)


class TestSparkline:
    def test_levels_scale_to_peak(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == " "
        assert line[2] == "█"

    def test_explicit_maximum(self):
        assert sparkline([1.0], maximum=2.0) == "▄"

    def test_all_zero_series(self):
        assert sparkline([0.0, 0.0]) == "  "

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])


class TestRendering:
    def test_render_timeline_panel(self, workload):
        blocks = workload.superblocks
        timeline = record_timeline(
            blocks, UnitFifoPolicy(8), blocks.total_bytes // 4,
            workload.trace, window=400,
        )
        text = render_timeline(timeline, width=30)
        assert "8-unit" in text
        assert "overall miss rate" in text

    def test_render_timelines_share_scale(self, workload):
        blocks = workload.superblocks
        capacity = blocks.total_bytes // 4
        timelines = [
            record_timeline(blocks, policy, capacity, workload.trace,
                            window=1000)
            for policy in (FlushPolicy(), UnitFifoPolicy(8))
        ]
        text = render_timelines(timelines)
        assert "FLUSH" in text and "8-unit" in text
        with pytest.raises(ValueError):
            render_timelines([])

    def test_render_occupancy(self):
        policy = UnitFifoPolicy(4)
        policy.configure(4000, 500)
        for sid in range(6):
            policy.insert(sid, 450)
        blocks = SuperblockSet([Superblock(i, 450) for i in range(6)])
        text = render_occupancy(policy, blocks)
        assert "unit   0" in text
        assert "blocks" in text

    def test_render_occupancy_requires_configuration(self):
        blocks = SuperblockSet([Superblock(0, 10)])
        with pytest.raises(ValueError):
            render_occupancy(UnitFifoPolicy(4), blocks)

    def test_render_link_matrix(self):
        blocks = SuperblockSet([
            Superblock(0, 10, links=(1, 0)),
            Superblock(1, 10, links=(2,)),
            Superblock(2, 10, links=(0,)),
        ])
        assignment = {0: 0, 1: 0, 2: 1}
        text = render_link_matrix(blocks, assignment, unit_count=2)
        assert "u0" in text and "u1" in text
        assert "intra-unit: 2/4" in text
