"""Link-accounting consistency between the simulator and manual replay.

The Equation 4 charges, back-pointer footprints and Figure 13 fractions
all come from the LinkManager; these tests re-derive them independently
and check the simulator's books against the recomputation.
"""

import pytest

from repro.core.links import BACKPOINTER_ENTRY_BYTES, LinkManager
from repro.core.overhead import PAPER_MODEL
from repro.core.policies import UnitFifoPolicy
from repro.core.simulator import CodeCacheSimulator
from repro.workloads.registry import build_workload, get_benchmark


@pytest.fixture(scope="module")
def run():
    workload = build_workload(get_benchmark("vpr"), scale=0.6,
                              trace_accesses=15_000)
    blocks = workload.superblocks
    capacity = blocks.total_bytes // 5
    simulator = CodeCacheSimulator(blocks, UnitFifoPolicy(8), capacity)
    stats = simulator.process(workload.trace, benchmark="vpr")
    return workload, simulator, stats


class TestLinkAccounting:
    def test_unlink_overhead_matches_equation_4_exactly(self, run):
        _, _, stats = run
        # unlink_overhead must equal Eq. 4 summed over the recorded
        # unlink operations: slope * links + intercept per operation.
        expected = (PAPER_MODEL.unlink.slope * stats.links_removed
                    + PAPER_MODEL.unlink.intercept * stats.unlink_operations)
        assert stats.unlink_overhead == expected

    def test_backpointer_tables_are_consistent(self, run):
        _, simulator, stats = run
        links: LinkManager = simulator.links
        assert links.backpointer_table_bytes == (
            BACKPOINTER_ENTRY_BYTES * links.live_link_count
        )
        assert links.inter_unit_backpointer_bytes <= (
            links.backpointer_table_bytes
        )
        assert stats.peak_backpointer_bytes >= links.backpointer_table_bytes

    def test_established_counts_cover_live_links(self, run):
        _, simulator, stats = run
        links: LinkManager = simulator.links
        # Cumulative establishment is at least the currently live count.
        assert stats.links_established >= links.live_link_count
        assert stats.links_established_inter >= links.live_inter_count

    def test_live_links_connect_resident_blocks_only(self, run):
        _, simulator, _ = run
        resident = simulator.policy.resident_ids()
        for source, target in simulator.links.live_links():
            assert source in resident
            assert target in resident

    def test_inter_unit_fraction_matches_counters(self, run):
        _, _, stats = run
        fraction = stats.inter_unit_link_fraction
        assert fraction == pytest.approx(
            stats.links_established_inter / stats.links_established
        )
        assert 0.0 < fraction < 1.0

    def test_eviction_overhead_matches_equation_2_exactly(self, run):
        _, _, stats = run
        expected = (PAPER_MODEL.eviction.slope * stats.evicted_bytes
                    + PAPER_MODEL.eviction.intercept
                    * stats.eviction_invocations)
        assert stats.eviction_overhead == expected

    def test_miss_overhead_matches_equation_3_exactly(self, run):
        workload, _, stats = run
        expected = (PAPER_MODEL.miss.slope * stats.inserted_bytes
                    + PAPER_MODEL.miss.intercept * stats.misses)
        assert stats.miss_overhead == expected
