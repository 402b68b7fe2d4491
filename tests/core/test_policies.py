"""Unit tests for the eviction-policy ladder."""

import pytest

from repro.analysis import ckernel
from repro.analysis.kernel import KernelConfig
from repro.core.lru import LruPolicy
from repro.core.policies import (
    SHORTHAND_FORMS,
    STANDARD_UNIT_COUNTS,
    EvictionPolicy,
    FineGrainedFifoPolicy,
    FlushPolicy,
    GenerationalPolicy,
    PreemptiveFlushPolicy,
    UnitFifoPolicy,
    granularity_ladder,
    policy_from_spec,
    policy_spec,
    registered_policy_kinds,
)
from repro.core.cache import ConfigurationError
from repro.search.priority import PriorityFunctionPolicy


class TestLadderConstruction:
    def test_standard_ladder(self):
        ladder = granularity_ladder()
        names = [policy.name for policy in ladder]
        assert names[0] == "FLUSH"
        assert names[-1] == "FIFO"
        assert "8-unit" in names
        assert len(ladder) == len(STANDARD_UNIT_COUNTS) + 1

    def test_ladder_without_fine(self):
        ladder = granularity_ladder(include_fine=False)
        assert all(policy.name != "FIFO" for policy in ladder)

    def test_custom_unit_counts(self):
        ladder = granularity_ladder(unit_counts=(1, 4))
        assert [p.name for p in ladder] == ["FLUSH", "4-unit", "FIFO"]


#: (spec, built type, built name).  The strings are the shorthand the
#: three CLIs share, pinned to what their old parsers built: worker
#: snapshot fingerprints compare ``policy.name``.  The mappings cover
#: every registered kind.
_VOCABULARY = (
    ("flush", FlushPolicy, "FLUSH"),
    ("1", FlushPolicy, "FLUSH"),
    ("1-unit", FlushPolicy, "FLUSH"),
    ("fifo", FineGrainedFifoPolicy, "FIFO"),
    ("64", UnitFifoPolicy, "64-unit"),
    ("64-unit", UnitFifoPolicy, "64-unit"),
    (" 64-UNIT ", UnitFifoPolicy, "64-unit"),
    ("preempt", PreemptiveFlushPolicy, "PREEMPT"),
    ("gen", GenerationalPolicy, "GEN"),
    ("lru", LruPolicy, "LRU"),
    ({"kind": "flush"}, FlushPolicy, "FLUSH"),
    ({"kind": "unit", "unit_count": 1}, UnitFifoPolicy, "FLUSH"),
    ({"kind": "unit", "unit_count": 8, "name": "8u"}, UnitFifoPolicy, "8u"),
    ({"kind": "fifo", "name": "fine"}, FineGrainedFifoPolicy, "fine"),
    ({"kind": "preempt"}, PreemptiveFlushPolicy, "PREEMPT"),
    ({"kind": "gen"}, GenerationalPolicy, "GEN"),
    ({"kind": "lru"}, LruPolicy, "LRU"),
    ({"kind": "priority", "name": "p",
      "expression": {"kind": "feature", "name": "age"}},
     PriorityFunctionPolicy, "p"),
)

#: The exact-type rule the one-pass kernel used before eligibility was
#: read from the spec kind, plus priority functions, which the C
#: kernel's expression VM serves.  All of them replay when the kernel
#: cannot load.
_KERNEL_TYPES = (FlushPolicy, UnitFifoPolicy, FineGrainedFifoPolicy,
                 PriorityFunctionPolicy)


class TestPolicyVocabulary:
    @pytest.mark.parametrize("spec,kind,name", _VOCABULARY)
    def test_spec_builds_and_classifies_like_the_old_paths(self, spec, kind,
                                                           name):
        policy = policy_from_spec(spec)
        assert type(policy) is kind
        assert policy.name == name
        config = KernelConfig.from_spec(spec)
        eligible = type(policy) in _KERNEL_TYPES and ckernel.available()
        assert (config is not None) == eligible
        if config is not None:
            assert config.name == name

    def test_every_registered_kind_is_pinned(self):
        kinds = {policy_spec(spec)["kind"] for spec, _, _ in _VOCABULARY}
        assert kinds == set(registered_policy_kinds())

    @pytest.mark.parametrize("token", (
        "0", "-4", "1.5", "", "  ", "x-unit", "lru?", "unit", "priority",
        "many",
    ))
    def test_shorthand_rejects_with_the_accepted_forms(self, token):
        with pytest.raises(ConfigurationError) as raised:
            policy_from_spec(token)
        assert SHORTHAND_FORMS in str(raised.value)

    def test_non_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping or a string"):
            policy_from_spec(8)


class TestUnitFifoPolicy:
    def test_flush_is_one_unit(self):
        policy = FlushPolicy()
        policy.configure(1000, 100)
        assert policy.effective_unit_count == 1
        assert not policy.needs_backpointer_table

    def test_multi_unit_needs_backpointers(self):
        policy = UnitFifoPolicy(4)
        policy.configure(1000, 100)
        assert policy.needs_backpointer_table

    def test_clamping_to_feasible_unit_count(self):
        policy = UnitFifoPolicy(64)
        policy.configure(1000, 100)  # at most 10 units can hold a 100B block
        assert policy.effective_unit_count == 10

    def test_requested_count_preserved(self):
        policy = UnitFifoPolicy(64)
        assert policy.requested_unit_count == 64
        assert policy.name == "64-unit"

    def test_insert_and_residency(self):
        policy = UnitFifoPolicy(2)
        policy.configure(200, 100)
        policy.insert(1, 90)
        assert policy.contains(1)
        assert policy.resident_ids() == {1}
        assert policy.unit_of(1) == 0

    def test_unconfigured_use_rejected(self):
        policy = UnitFifoPolicy(2)
        with pytest.raises(RuntimeError):
            policy.insert(1, 10)

    def test_invalid_unit_count_rejected(self):
        with pytest.raises(ValueError):
            UnitFifoPolicy(0)

    def test_on_access_default_is_noop(self):
        policy = UnitFifoPolicy(2)
        policy.configure(200, 100)
        assert policy.on_access(1, hit=False) == []


class TestFineGrainedPolicy:
    def test_name_and_backpointers(self):
        policy = FineGrainedFifoPolicy()
        policy.configure(1000, 100)
        assert policy.name == "FIFO"
        assert policy.needs_backpointer_table

    def test_per_block_eviction_events(self):
        policy = FineGrainedFifoPolicy()
        policy.configure(100, 100)
        policy.insert(1, 40)
        policy.insert(2, 40)
        events = policy.insert(3, 80)
        assert len(events) == 2
        assert all(event.block_count == 1 for event in events)

    def test_unit_of_distinct_per_block(self):
        policy = FineGrainedFifoPolicy()
        policy.configure(1000, 100)
        policy.insert(1, 10)
        policy.insert(2, 10)
        assert policy.unit_of(1) != policy.unit_of(2)


class TestPreemptiveFlushPolicy:
    @staticmethod
    def _policy(**overrides):
        defaults = dict(fast_alpha=0.2, slow_alpha=0.001, spike_ratio=1.5,
                        min_fill_fraction=0.1, warmup_accesses=10,
                        cooldown_accesses=10)
        defaults.update(overrides)
        return PreemptiveFlushPolicy(**defaults)

    def test_flushes_on_miss_spike_when_full_enough(self):
        policy = self._policy()
        policy.configure(1000, 100)
        for sid in range(5):
            policy.insert(sid, 90)
        # A warm, quiet baseline...
        for _ in range(50):
            policy.on_access(0, hit=True)
        # ...followed by a burst of misses: a phase change.
        events = []
        for i in range(30):
            events.extend(policy.on_access(100 + i, hit=False))
        assert policy.preemptive_flushes == 1
        assert len(events) == 1
        assert policy.resident_ids() == set()

    def test_no_flush_when_hits_dominate(self):
        policy = self._policy()
        policy.configure(1000, 100)
        policy.insert(0, 200)
        for _ in range(200):
            assert policy.on_access(0, hit=True) == []
        assert policy.preemptive_flushes == 0

    def test_no_flush_when_cache_nearly_empty(self):
        policy = self._policy(min_fill_fraction=0.9)
        policy.configure(1000, 100)
        policy.insert(0, 10)
        for i in range(100):
            policy.on_access(i, hit=False)
        assert policy.preemptive_flushes == 0

    def test_no_flush_during_warmup(self):
        policy = self._policy(warmup_accesses=1000)
        policy.configure(1000, 100)
        for sid in range(5):
            policy.insert(sid, 90)
        for i in range(500):
            policy.on_access(100 + i, hit=False)
        assert policy.preemptive_flushes == 0

    def test_cooldown_prevents_immediate_retrigger(self):
        policy = self._policy(cooldown_accesses=10_000)
        policy.configure(1000, 100)
        for sid in range(5):
            policy.insert(sid, 90)
        for _ in range(50):
            policy.on_access(0, hit=True)
        for i in range(200):
            policy.on_access(100 + i, hit=False)
            if policy.preemptive_flushes:
                # Refill so fill-fraction is no obstacle.
                for sid in range(200, 205):
                    if not policy.contains(sid):
                        policy.insert(sid, 90)
                break
        for i in range(500, 700):
            policy.on_access(i, hit=False)
        assert policy.preemptive_flushes == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PreemptiveFlushPolicy(spike_ratio=1.0)
        with pytest.raises(ValueError):
            PreemptiveFlushPolicy(fast_alpha=0.1, slow_alpha=0.2)
        with pytest.raises(ValueError):
            PreemptiveFlushPolicy(warmup_accesses=0)


class TestGenerationalPolicy:
    def test_promotion_after_repeat_eviction(self):
        policy = GenerationalPolicy(nursery_fraction=0.5, nursery_units=2,
                                    persistent_units=1, promote_after=1)
        policy.configure(4000, 500)
        policy.insert(1, 450)
        # Churn the nursery until block 1 is evicted.
        sid = 100
        while policy.contains(1):
            policy.insert(sid, 450)
            sid += 1
        policy.insert(1, 450)  # re-miss: promoted to the persistent region
        assert policy.promotions == 1
        nursery_units = policy._nursery.unit_count
        assert policy.unit_of(1) >= nursery_units

    def test_promotion_triggers_after_exactly_promote_after_evictions(self):
        policy = GenerationalPolicy(nursery_fraction=0.5, nursery_units=1,
                                    persistent_units=1, promote_after=2)
        policy.configure(4000, 500)

        def churn_out(block):
            sid = 1000
            while policy.contains(block):
                policy.insert(sid, 450)
                sid += 1

        policy.insert(1, 450)
        churn_out(1)          # eviction count 1 < promote_after
        policy.insert(1, 450)
        assert policy.promotions == 0
        churn_out(1)          # eviction count 2 == promote_after
        policy.insert(1, 450)
        assert policy.promotions == 1
        # Promoted into the persistent region, past the nursery's units.
        assert policy.unit_of(1) >= policy._nursery.unit_count

    def test_effective_unit_count_spans_generations(self):
        policy = GenerationalPolicy(nursery_units=2, persistent_units=2)
        policy.configure(8000, 500)
        assert policy.effective_unit_count == 4

    def test_too_small_generation_rejected(self):
        policy = GenerationalPolicy(nursery_fraction=0.5)
        with pytest.raises(ConfigurationError):
            policy.configure(700, 500)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GenerationalPolicy(nursery_fraction=1.5)
        with pytest.raises(ValueError):
            GenerationalPolicy(promote_after=0)


class TestPolicyInterface:
    @pytest.mark.parametrize("policy_factory", [
        FlushPolicy,
        lambda: UnitFifoPolicy(4),
        FineGrainedFifoPolicy,
        PreemptiveFlushPolicy,
        GenerationalPolicy,
    ])
    def test_common_surface(self, policy_factory):
        policy = policy_factory()
        assert isinstance(policy, EvictionPolicy)
        policy.configure(8000, 500)
        policy.insert(1, 100)
        assert policy.contains(1)
        assert 1 in policy.resident_ids()
        policy.unit_of(1)
        assert policy.effective_unit_count >= 1
        assert "name=" in repr(policy)
