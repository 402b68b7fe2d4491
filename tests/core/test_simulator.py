"""Unit tests for the trace-driven code cache simulator."""

import pytest

from repro.core.metrics import SimulationStats
from repro.core.overhead import FREE_MODEL, PAPER_MODEL
from repro.core.policies import (
    FineGrainedFifoPolicy,
    FlushPolicy,
    PreemptiveFlushPolicy,
    UnitFifoPolicy,
    policy_from_spec,
    registered_policy_kinds,
)
from repro.core.pressure import pressured_capacity
from repro.core.simulator import CodeCacheSimulator, simulate
from repro.core.superblock import Superblock, SuperblockSet
from repro.search import expr as expr_mod
from repro.search.expr import Binary, Feature, Unary
from repro.workloads.registry import build_workload, get_benchmark
from repro.workloads.traces import loop_trace, scan_trace


def _uniform_blocks(count=10, size=100, self_loops=False):
    return SuperblockSet([
        Superblock(sid, size, links=((sid,) if self_loops else ()))
        for sid in range(count)
    ])


class TestHitMissAccounting:
    def test_loop_that_fits_misses_once_per_block(self):
        blocks = _uniform_blocks(4)
        stats = simulate(blocks, FlushPolicy(), 400,
                         loop_trace([0, 1, 2, 3], 50))
        assert stats.accesses == 200
        assert stats.misses == 4
        assert stats.hits == 196
        assert stats.eviction_invocations == 0

    def test_cyclic_scan_thrashes_every_policy(self):
        # The classic FIFO pathology: loop over more blocks than fit.
        blocks = _uniform_blocks(6)
        for policy in (FlushPolicy(), UnitFifoPolicy(2),
                       FineGrainedFifoPolicy()):
            stats = simulate(blocks, policy, 400, scan_trace(6, 30))
            assert stats.miss_rate == 1.0

    def test_hits_plus_misses_equals_accesses(self):
        blocks = _uniform_blocks(8)
        stats = simulate(blocks, UnitFifoPolicy(2), 500, scan_trace(8, 10))
        assert stats.hits + stats.misses == stats.accesses

    def test_stats_labels(self):
        blocks = _uniform_blocks(2)
        stats = simulate(blocks, FlushPolicy(), 400, [0, 1],
                         benchmark="toy")
        assert stats.benchmark == "toy"
        assert stats.policy_name == "FLUSH"


class TestOverheadCharging:
    def test_miss_overhead_exact(self):
        blocks = _uniform_blocks(1, size=230)
        stats = simulate(blocks, FlushPolicy(), 400, [0, 0, 0])
        assert stats.miss_overhead == PAPER_MODEL.miss_cost(230)
        assert stats.eviction_overhead == 0.0

    def test_eviction_overhead_exact(self):
        blocks = _uniform_blocks(3, size=100)
        # Capacity 200: inserting block 2 flushes blocks 0 and 1.
        stats = simulate(blocks, FlushPolicy(), 200, [0, 1, 2])
        assert stats.eviction_invocations == 1
        assert stats.evicted_bytes == 200
        assert stats.eviction_overhead == PAPER_MODEL.eviction_cost(200)

    def test_unlink_overhead_charged_for_surviving_sources(self):
        blocks = SuperblockSet([
            Superblock(0, 100, links=(1,)),
            Superblock(1, 100),
            Superblock(2, 100),
        ])
        policy = UnitFifoPolicy(2)
        stats = simulate(blocks, policy, 200, [0, 1, 2])
        # Units of 100 bytes: 0 in unit0, 1 in unit1, inserting 2 evicts
        # unit 0... the link 0->1 has source 0 evicted, so no unlink cost;
        # arrange the reverse instead.
        blocks2 = SuperblockSet([
            Superblock(0, 100),
            Superblock(1, 100, links=(0,)),
            Superblock(2, 100),
        ])
        stats2 = simulate(blocks2, UnitFifoPolicy(2), 200, [0, 1, 2])
        assert stats2.unlink_operations == 1
        assert stats2.links_removed == 1
        assert stats2.unlink_overhead == PAPER_MODEL.unlink_cost(1)
        assert stats.unlink_overhead == 0.0

    def test_free_model_charges_nothing(self):
        blocks = _uniform_blocks(6)
        stats = simulate(blocks, FlushPolicy(), 300, scan_trace(6, 5),
                         overhead_model=FREE_MODEL)
        assert stats.total_overhead == 0.0
        assert stats.misses > 0

    def test_track_links_off_skips_link_accounting(self):
        blocks = SuperblockSet([
            Superblock(0, 100, links=(1,)),
            Superblock(1, 100, links=(0,)),
            Superblock(2, 100),
        ])
        stats = simulate(blocks, UnitFifoPolicy(2), 200, [0, 1, 2, 0, 1],
                         track_links=False)
        assert stats.links_established == 0
        assert stats.unlink_overhead == 0.0
        assert stats.peak_backpointer_bytes == 0


class TestPolicyBehaviourDifferences:
    def test_fine_fifo_beats_flush_on_skewed_trace(self):
        # A hot head plus a cold scan: FLUSH repeatedly kills the hot
        # block, fine FIFO keeps it longer.
        blocks = _uniform_blocks(12)
        trace = []
        for i in range(600):
            trace.append(0)
            trace.append(1 + (i % 11))
        flush = simulate(blocks, FlushPolicy(), 500, trace)
        fine = simulate(blocks, FineGrainedFifoPolicy(), 500, trace)
        assert fine.misses < flush.misses

    def test_coarser_units_mean_fewer_invocations(self):
        blocks = _uniform_blocks(20)
        trace = scan_trace(20, 20)
        flush = simulate(blocks, FlushPolicy(), 1000, trace)
        medium = simulate(blocks, UnitFifoPolicy(5), 1000, trace)
        fine = simulate(blocks, FineGrainedFifoPolicy(), 1000, trace)
        assert flush.eviction_invocations < medium.eviction_invocations
        assert medium.eviction_invocations < fine.eviction_invocations

    def test_preemptive_policy_reports_flushes(self):
        blocks = _uniform_blocks(30)
        policy = PreemptiveFlushPolicy(fast_alpha=0.2, slow_alpha=0.001,
                                       spike_ratio=1.5,
                                       min_fill_fraction=0.2,
                                       warmup_accesses=20,
                                       cooldown_accesses=20)
        stats = simulate(blocks, policy, 1500, scan_trace(30, 20))
        assert stats.preemptive_flushes == policy.preemptive_flushes
        assert stats.preemptive_flushes > 0


class TestSimulatorConstruction:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            CodeCacheSimulator(_uniform_blocks(2), FlushPolicy(), 0)

    def test_simulator_reuse_accumulates_cache_state(self):
        blocks = _uniform_blocks(4)
        simulator = CodeCacheSimulator(blocks, FlushPolicy(), 400)
        first = simulator.process([0, 1, 2, 3])
        second = simulator.process([0, 1, 2, 3])
        assert first.misses == 4
        assert second.misses == 0  # still resident from the first pass


#: One spec per registered policy kind.  The priority expression reads
#: per-access state (hotness), age and size.
_KIND_SPECS = {
    "flush": "flush",
    "unit": "8-unit",
    "fifo": "fifo",
    "preempt": "preempt",
    "gen": "gen",
    "lru": "lru",
    "priority": {"kind": "priority", "expression": expr_mod.to_dict(
        Binary("sub", Feature("hotness"), Unary("log1p", Binary(
            "mul", Feature("age"), Feature("size")))))},
}

#: Fields only ``process()`` fills in when links are tracked.
_PROCESS_ONLY = ("links_established_intra", "links_established_inter",
                 "peak_backpointer_bytes")


@pytest.fixture(scope="module")
def gzip_workload():
    return build_workload(get_benchmark("gzip"), scale=0.5,
                          trace_accesses=3000)


class TestProcessMatchesStep:
    """``process()`` and ``step()`` are the simulator's two per-access
    bodies; over one trace they must keep the same record."""

    def test_every_registered_kind_is_covered(self):
        assert set(_KIND_SPECS) == set(registered_policy_kinds())

    @pytest.mark.parametrize("level", ["off", "light", "paranoid"])
    @pytest.mark.parametrize("track_links", [False, True])
    @pytest.mark.parametrize("kind", sorted(_KIND_SPECS))
    def test_process_matches_step(self, gzip_workload, kind, track_links,
                                  level):
        blocks = gzip_workload.superblocks
        trace = gzip_workload.trace.tolist()
        records = []
        # PREEMPT flushes preemptively at pressure 2 only.
        for pressure in (2.0, 6.0):
            def simulator():
                return CodeCacheSimulator(
                    blocks, policy_from_spec(_KIND_SPECS[kind], blocks),
                    pressured_capacity(blocks, pressure),
                    track_links=track_links, check_level=level)

            replayed = simulator().process(trace)
            hits = []
            observed = simulator().process(
                trace, observer=lambda index, sid, hit, evictions, removed:
                    hits.append(hit))
            streaming = simulator()
            streamed = SimulationStats(policy_name=streaming.policy.name)
            stepped = [streaming.step(sid, streamed)[0] for sid in trace]

            assert observed == replayed
            assert hits == stepped
            want, got = vars(replayed).copy(), vars(streamed).copy()
            if track_links:
                assert replayed.links_established > 0
                for name in _PROCESS_ONLY:
                    del want[name], got[name]
            assert got == want, pressure
            records.append(replayed)
        assert records[-1].eviction_invocations > 0
        if kind == "preempt":
            assert records[0].preemptive_flushes > 0
