"""The reference simulator: hand-computed semantics and geometry parity
with the production policies."""

import pytest

from repro.core.cache import ConfigurationError
from repro.core.policies import UnitFifoPolicy
from repro.core.refmodel import ReferenceSimulator, reference_ladder
from repro.core.superblock import Superblock, SuperblockSet


def _population(sizes, links=None):
    links = links or {}
    return SuperblockSet(
        Superblock(sid, size, links=tuple(links.get(sid, ())))
        for sid, size in sizes.items()
    )


class TestUnitSemantics:
    def test_flush_evicts_everything_in_one_invocation(self):
        blocks = _population({0: 40, 1: 40, 2: 40})
        ref = ReferenceSimulator.for_unit_policy(blocks, 100, 1,
                                                 track_links=False)
        result = ref.run([0, 1, 2])
        # 0 and 1 fit (80 <= 100); 2 overflows -> whole cache flushed.
        assert [o.hit for o in result.outcomes] == [False, False, False]
        assert result.outcomes[2].evictions == ((0, 1),)
        assert result.stats.eviction_invocations == 1
        assert result.stats.evicted_bytes == 80

    def test_unit_rotation_advances_once_and_evicts_whole_unit(self):
        blocks = _population({0: 40, 1: 40, 2: 40, 3: 40})
        ref = ReferenceSimulator.for_unit_policy(blocks, 160, 2,
                                                 track_links=False)
        result = ref.run([0, 1, 2, 3, 0])
        # Unit capacity 80: {0,1} fill unit 0, {2,3} fill unit 1; with
        # nothing evicted yet, re-accessing 0 is a hit.
        assert [o.hit for o in result.outcomes] == [
            False, False, False, False, True,
        ]
        assert result.stats.eviction_invocations == 0

    def test_unit_eviction_on_wraparound(self):
        blocks = _population({0: 60, 1: 60, 2: 60, 3: 60, 4: 60})
        ref = ReferenceSimulator.for_unit_policy(blocks, 160, 2,
                                                 track_links=False)
        result = ref.run([0, 1, 2, 3, 4])
        # Units of 80 hold one 60 B block plus 20 B slack: 0 -> unit 0,
        # 1 overflows -> advance to unit 1 (empty), 2 -> evict unit 0
        # ({0}), 3 -> evict unit 1 ({1}), 4 -> evict unit 0 ({2}).
        assert result.outcomes[2].evictions == ((0,),)
        assert result.outcomes[3].evictions == ((1,),)
        assert result.outcomes[4].evictions == ((2,),)

    def test_fine_fifo_evicts_oldest_one_event_each(self):
        blocks = _population({0: 50, 1: 50, 2: 50, 3: 120})
        ref = ReferenceSimulator.for_fine_fifo(blocks, 150,
                                               track_links=False)
        result = ref.run([0, 1, 2, 3])
        # 3 needs 120 B: evict 0 (50 free+50) then 1 (100+50 > 150...
        # after evicting 0: used 100, +120 > 150 -> evict 1; used 50,
        # +120 > 150 -> evict 2; then place.
        assert result.outcomes[3].evictions == ((0,), (1,), (2,))
        assert result.stats.eviction_invocations == 3

    def test_double_insert_guard(self):
        blocks = _population({0: 10, 1: 10})
        ref = ReferenceSimulator.for_unit_policy(blocks, 100, 1)
        result = ref.run([0, 0, 1])
        assert result.stats.hits == 1
        assert result.stats.misses == 2


class TestLinkSemantics:
    def test_self_loop_is_intra_and_counts(self):
        blocks = _population({0: 10}, links={0: (0,)})
        ref = ReferenceSimulator.for_unit_policy(blocks, 100, 1)
        result = ref.run([0])
        assert result.stats.links_established_intra == 1
        assert result.stats.links_established_inter == 0

    def test_unlink_only_charged_for_surviving_sources(self):
        # 0 -> 1 both ways; co-evicting them in one flush charges nothing.
        blocks = _population({0: 40, 1: 40, 2: 80},
                             links={0: (1,), 1: (0,)})
        ref = ReferenceSimulator.for_unit_policy(blocks, 100, 1)
        result = ref.run([0, 1, 2])
        # 2 (80 B) forces a flush of {0, 1}: their links die for free.
        assert result.outcomes[2].evictions == ((0, 1),)
        assert result.stats.unlink_operations == 0
        assert result.stats.links_removed == 0

    def test_unlink_charged_when_source_survives(self):
        blocks = _population({0: 60, 1: 60, 2: 60},
                             links={1: (0,)})
        ref = ReferenceSimulator.for_unit_policy(blocks, 160, 2)
        result = ref.run([0, 1, 2])
        # Units of 80: 0 -> unit 0, 1 -> unit 1 (advance), 2 evicts
        # unit 0 ({0}); 1 survives with its 1 -> 0 link -> one unlink.
        assert result.outcomes[2].evictions == ((0,),)
        assert result.stats.unlink_operations == 1
        assert result.stats.links_removed == 1

    def test_peak_backpointer_counts_live_links(self):
        blocks = _population({0: 10, 1: 10}, links={0: (1,), 1: (0,)})
        ref = ReferenceSimulator.for_unit_policy(blocks, 100, 1)
        result = ref.run([0, 1])
        assert result.stats.peak_backpointer_bytes == 2 * 16


class TestGeometryParity:
    @pytest.mark.parametrize("requested", (1, 2, 4, 8, 64, 512))
    def test_unit_clamp_matches_production_policy(self, requested):
        blocks = _population({sid: 100 + sid for sid in range(8)})
        capacity = 700
        policy = UnitFifoPolicy(requested)
        policy.configure(capacity, blocks.max_block_bytes)
        ref = ReferenceSimulator.for_unit_policy(blocks, capacity, requested)
        assert len(ref.store.units) == policy.effective_unit_count
        assert ref.store.unit_capacity == \
            policy.internal_caches()[0].unit_capacity_bytes

    def test_ladder_names_match_production(self):
        from repro.analysis.sweep import ladder_policy_factories, policy_names
        ref_names = [name for name, _ in reference_ladder()]
        prod_names = list(policy_names(ladder_policy_factories()))
        assert ref_names == prod_names

    def test_invalid_capacity_rejected(self):
        blocks = _population({0: 10})
        with pytest.raises(ConfigurationError):
            ReferenceSimulator.for_unit_policy(blocks, 0, 1)
        with pytest.raises(ConfigurationError):
            ReferenceSimulator.for_fine_fifo(blocks, 5)


class TestLruSemantics:
    def test_true_lru_victim_order(self):
        blocks = _population({0: 50, 1: 50, 2: 50, 3: 50})
        ref = ReferenceSimulator.for_lru(blocks, 150, track_links=False)
        result = ref.run([0, 1, 2, 0, 3])
        # 0,1,2 fill the arena (150 B); the hit on 0 refreshes it, so
        # inserting 3 evicts the least-recent survivor: 1.
        assert [o.hit for o in result.outcomes] == [
            False, False, False, True, False,
        ]
        assert result.outcomes[4].evictions == ((1,),)

    def test_fragmentation_forces_extra_eviction(self):
        # Arena 100: 40 + 30 + 30 placed at offsets 0/40/70.  Evicting
        # block 1 (30 B at offset 40) leaves a hole too small for a
        # 40 B insertion even though free space (30) grows to 60 after
        # the next eviction; first-fit then places at offset 0.
        blocks = _population({0: 40, 1: 30, 2: 30, 3: 40})
        ref = ReferenceSimulator.for_lru(blocks, 100, track_links=False)
        result = ref.run([0, 1, 2, 3])
        # 3 (40 B) cannot fit: evict 0 (LRU) -> hole (0, 40) fits.
        assert result.outcomes[3].evictions == ((0,),)
        result2 = ReferenceSimulator.for_lru(
            blocks, 100, track_links=False).run([1, 0, 2, 3])
        # Now 1 (30 B at offset 0) is LRU: evicting it leaves a 30 B
        # hole that cannot take 40 B, so a second eviction (0) must
        # follow -- the Section 3.3 fragmentation effect.
        assert result2.outcomes[3].evictions == ((1,), (0,))

    def test_lru_geometry_rejections_match_production(self):
        blocks = _population({0: 200})
        with pytest.raises(ConfigurationError):
            ReferenceSimulator.for_lru(blocks, 100)
        with pytest.raises(ConfigurationError):
            ReferenceSimulator.for_lru(blocks, 0)

    def test_ladder_with_lru_matches_production(self):
        from repro.analysis.sweep import ladder_policy_factories, policy_names
        ref_names = [name for name, _ in reference_ladder(include_lru=True)]
        prod_names = list(policy_names(
            ladder_policy_factories(include_lru=True)))
        assert ref_names == prod_names
        assert ref_names[-1] == "LRU"


class TestPreemptSemantics:
    """The PREEMPT reference: detector arithmetic mirrored op for op,
    with preemptive flushes diffed against the production policy."""

    def _run_pair(self, blocks, trace, capacity, **detector):
        from repro.core.policies import PreemptiveFlushPolicy
        from repro.core.simulator import CodeCacheSimulator

        outcomes = []
        simulator = CodeCacheSimulator(
            blocks, PreemptiveFlushPolicy(**detector), capacity,
            track_links=True)
        stats = simulator.process(
            trace, benchmark="preempt",
            observer=lambda index, sid, hit, evictions, links_removed:
                outcomes.append((index, sid, hit, evictions,
                                 links_removed)),
        )
        ref = ReferenceSimulator.for_preempt(blocks, capacity, **detector)
        result = ref.run(trace, benchmark="preempt")
        ref_outcomes = [(o.index, o.sid, o.hit, o.evictions,
                         o.links_removed) for o in result.outcomes]
        return stats, outcomes, result.stats, ref_outcomes

    def test_preemptive_flush_fires_and_matches_production(self):
        blocks = _population({sid: 40 for sid in range(10)},
                             links={0: (1,), 1: (2,), 5: (6,)})
        # Warm phase on blocks 0-4, then a phase change to 5-9; a tiny
        # warmup/cooldown makes the detector fire within the trace.
        trace = [sid % 5 for sid in range(200)]
        trace += [5 + (sid % 5) for sid in range(200)]
        stats, outcomes, ref_stats, ref_outcomes = self._run_pair(
            blocks, trace, capacity=400,
            warmup_accesses=20, cooldown_accesses=20,
            fast_alpha=0.2, slow_alpha=0.01)
        assert stats.preemptive_flushes >= 1, \
            "detector never fired; the scenario is not exercising PREEMPT"
        assert stats.preemptive_flushes == ref_stats.preemptive_flushes
        assert outcomes == ref_outcomes
        assert stats.to_dict() == ref_stats.to_dict()

    def test_quiet_trace_never_flushes(self):
        blocks = _population({sid: 40 for sid in range(4)})
        trace = [0, 1, 2, 3] * 50
        stats, outcomes, ref_stats, ref_outcomes = self._run_pair(
            blocks, trace, capacity=400,
            warmup_accesses=10, cooldown_accesses=10,
            fast_alpha=0.2, slow_alpha=0.01)
        assert stats.preemptive_flushes == 0
        assert ref_stats.preemptive_flushes == 0
        assert outcomes == ref_outcomes

    def test_ladder_with_preempt_matches_production_names(self):
        from repro.analysis.sweep import ladder_policy_factories, policy_names
        ref_names = [name for name, _ in
                     reference_ladder(include_preempt=True)]
        prod_names = list(policy_names(
            ladder_policy_factories(include_preempt=True)))
        assert ref_names == prod_names
        assert ref_names[-1] == "PREEMPT"

    def test_invalid_capacity_rejected(self):
        blocks = _population({0: 100})
        with pytest.raises(ConfigurationError):
            ReferenceSimulator.for_preempt(blocks, 0)
        with pytest.raises(ConfigurationError):
            ReferenceSimulator.for_preempt(blocks, 50)


class TestPrioritySemantics:
    """``for_priority``: interpreter-scored victims over from-scratch
    feature vectors, ties on insertion order."""

    def test_hits_refresh_recency(self):
        from repro.search.expr import Feature, Unary

        blocks = _population({0: 50, 1: 50, 2: 50, 3: 50})
        trace = [0, 1, 2, 0, 3]
        # At the fifth access the recencies are 0 -> 1, 1 -> 3, 2 -> 2:
        # scoring recency evicts the hit block, -recency the stalest.
        mru = ReferenceSimulator.for_priority(
            blocks, 150, Feature("recency"), track_links=False)
        assert mru.run(trace).outcomes[4].evictions == ((0,),)
        lru = ReferenceSimulator.for_priority(
            blocks, 150, Unary("neg", Feature("recency")),
            track_links=False)
        assert lru.run(trace).outcomes[4].evictions == ((1,),)

    def test_constant_score_is_fine_grained_fifo(self):
        from repro.search.expr import Const

        blocks = _population({0: 40, 1: 70, 2: 30, 3: 60, 4: 50},
                             links={0: (1, 2), 3: (0,), 4: (4,)})
        trace = [0, 1, 2, 3, 0, 4, 1, 2, 4, 3, 0]
        fifo = ReferenceSimulator.for_fine_fifo(blocks, 150).run(trace)
        flat = ReferenceSimulator.for_priority(
            blocks, 150, Const(0.0), name="FIFO").run(trace)
        assert flat.outcomes == fifo.outcomes
        assert flat.stats == fifo.stats

    def test_invalid_capacity_rejected(self):
        from repro.search.expr import Const

        blocks = _population({0: 100})
        with pytest.raises(ConfigurationError):
            ReferenceSimulator.for_priority(blocks, 0, Const(0.0))
        with pytest.raises(ConfigurationError):
            ReferenceSimulator.for_priority(blocks, 50, Const(0.0))
