"""The shared arena: namespacing, per-tenant accounting, quotas, and
Memshare-style pressure reclaim — all under invariant checking."""

import random

import pytest

from repro.core.cache import ConfigurationError
from repro.core.overhead import LinearCost, OverheadModel
from repro.core.policies import (
    EvictionPolicy,
    FineGrainedFifoPolicy,
    FlushPolicy,
    GenerationalPolicy,
    PreemptiveFlushPolicy,
    UnitFifoPolicy,
    policy_from_spec,
)
from repro.service.tenancy import (
    NAMESPACE_STRIDE,
    SharedArena,
    TenantQuota,
)


def _sizes(count, seed=0, low=64, high=2048):
    rng = random.Random(seed)
    return [rng.randrange(low, high) for _ in range(count)]


def _arena(policy=None, capacity=64 * 1024, **kwargs):
    return SharedArena(policy or UnitFifoPolicy(8), capacity, **kwargs)


class TestMakePolicy:
    """``--policy`` strings build through the spec registry's shorthand."""

    @pytest.mark.parametrize("spec,kind", (
        ("flush", FlushPolicy),
        ("fifo", FineGrainedFifoPolicy),
        ("preempt", PreemptiveFlushPolicy),
        ("gen", GenerationalPolicy),
        ("8-unit", UnitFifoPolicy),
        ("64", UnitFifoPolicy),
        (" FIFO ", FineGrainedFifoPolicy),
    ))
    def test_known_specs(self, spec, kind):
        assert isinstance(policy_from_spec(spec), kind)

    def test_unit_count_parsed(self):
        assert policy_from_spec("16-unit").requested_unit_count == 16

    @pytest.mark.parametrize("spec", ("lru?", "", "0", "-3", "x-unit"))
    def test_unknown_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            policy_from_spec(spec)


class TestAttachment:
    def test_rejects_duplicate_tenant(self):
        arena = _arena()
        arena.attach("a", _sizes(10))
        with pytest.raises(ConfigurationError, match="already attached"):
            arena.attach("a", _sizes(10))

    def test_rejects_empty_population(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            _arena().attach("a", [])

    def test_rejects_oversized_block(self):
        with pytest.raises(ConfigurationError, match="max_block_bytes"):
            _arena().attach("a", [16 * 1024])

    def test_rejects_quota_below_largest_block(self):
        with pytest.raises(ConfigurationError, match="largest block"):
            _arena().attach("a", [4096], TenantQuota(quota_bytes=1024))

    def test_rejects_policy_without_targeted_eviction(self):
        class Bespoke(UnitFifoPolicy):
            def internal_caches(self):
                return ()

        with pytest.raises(ConfigurationError, match="targeted eviction"):
            _arena(policy=Bespoke(4))

    def test_quota_validation(self):
        with pytest.raises(ConfigurationError):
            TenantQuota(quota_bytes=0)
        with pytest.raises(ConfigurationError):
            TenantQuota(quota_bytes=1024, weight=0)

    def test_namespaces_are_disjoint(self):
        arena = _arena()
        a = arena.attach("a", _sizes(50, seed=1))
        b = arena.attach("b", _sizes(50, seed=2))
        assert a.offset == 0
        assert b.offset == NAMESPACE_STRIDE

    def test_same_local_sids_do_not_collide(self):
        """Two tenants replaying identical local ids each miss once —
        proof the shared cache sees distinct global blocks."""
        arena = _arena()
        arena.attach("a", [512] * 4)
        arena.attach("b", [512] * 4)
        for name in ("a", "b"):
            for sid in range(4):
                assert arena.access(name, sid) is False
            for sid in range(4):
                assert arena.access(name, sid) is True

    def test_unknown_tenant_and_sid_rejected(self):
        arena = _arena()
        arena.attach("a", _sizes(5))
        with pytest.raises(KeyError, match="no attached tenant"):
            arena.access("ghost", 0)
        with pytest.raises(KeyError, match="no superblock"):
            arena.access("a", 5)


@pytest.mark.parametrize("policy_spec",
                         ("flush", "8-unit", "fifo", "preempt", "gen"))
class TestPerTenantAccounting:
    def test_conservation_and_unified(self, policy_spec):
        arena = _arena(policy_from_spec(policy_spec), capacity=48 * 1024,
                       check_level="paranoid")
        arena.checker.cadence = 128
        rng = random.Random(11)
        for name, seed in (("a", 1), ("b", 2), ("c", 3)):
            arena.attach(name, _sizes(120, seed=seed, high=1024))
        for _ in range(6000):
            arena.access(rng.choice("abc"), rng.randrange(120))
        total_accesses = 0
        for tenant in arena.tenants():
            stats = tenant.stats
            assert stats.accesses == stats.hits + stats.misses
            assert (stats.inserted_bytes - stats.evicted_bytes
                    == tenant.resident_bytes)
            total_accesses += stats.accesses
        assert total_accesses == 6000
        unified = arena.unified_stats()
        assert unified.accesses == 6000
        assert (unified.inserted_bytes - unified.evicted_bytes
                == arena.resident_bytes)
        arena.check_now()  # a clean final paranoid pass

    def test_tenant_eq2_costs_sum_to_unified(self, policy_spec):
        """Each tenant's Equation 2 cost is priced from its own counters
        (the invocations its inserts triggered, the bytes it lost) under
        the arena's model; together they are the service's cost."""
        model = OverheadModel(miss=LinearCost(70.0, 2000.0),
                              eviction=LinearCost(3.0, 3000.0),
                              unlink=LinearCost(300.0, 100.0))
        arena = _arena(policy_from_spec(policy_spec), capacity=48 * 1024,
                       overhead_model=model)
        rng = random.Random(7)
        for name, seed in (("a", 1), ("b", 2), ("c", 3)):
            arena.attach(name, _sizes(120, seed=seed, high=1024))
        for _ in range(4000):
            arena.access(rng.choice("abc"), rng.randrange(120))
        arena.detach("c")
        unified = arena.unified_stats()
        assert unified.overhead_model == model
        assert unified.eviction_invocations > 0
        assert unified.eviction_overhead == (
            3.0 * unified.evicted_bytes
            + 3000.0 * unified.eviction_invocations)
        tenants = arena.tenants()
        for tenant in tenants:
            stats = tenant.stats
            assert stats.eviction_overhead == (
                3.0 * stats.evicted_bytes
                + 3000.0 * stats.eviction_invocations)
        assert sum(t.stats.eviction_overhead for t in tenants) == (
            pytest.approx(unified.eviction_overhead, rel=1e-12))

    def test_detach_preserves_unified_conservation(self, policy_spec):
        arena = _arena(policy_from_spec(policy_spec), capacity=48 * 1024,
                       check_level="light")
        rng = random.Random(5)
        arena.attach("a", _sizes(80, seed=1, high=1024))
        arena.attach("b", _sizes(80, seed=2, high=1024))
        for _ in range(3000):
            arena.access(rng.choice("ab"), rng.randrange(80))
        final = arena.detach("a")
        # Detaching evicts every resident block the tenant owned.
        assert final.inserted_bytes == final.evicted_bytes
        unified = arena.unified_stats()
        assert unified.accesses == 3000
        assert (unified.inserted_bytes - unified.evicted_bytes
                == arena.resident_bytes)
        arena.check_now()


class TestQuotas:
    def test_quota_is_a_hard_cap(self):
        arena = _arena(capacity=64 * 1024)
        quota = TenantQuota(quota_bytes=8 * 1024)
        arena.attach("capped", _sizes(100, seed=3), quota)
        arena.attach("free", _sizes(100, seed=4))
        rng = random.Random(9)
        for _ in range(5000):
            name = "capped" if rng.random() < 0.5 else "free"
            arena.access(name, rng.randrange(100))
            capped = arena.tenants()[0]
            assert capped.resident_bytes <= quota.quota_bytes
        assert arena.tenants()[0].quota_reclaims > 0
        # The uncapped neighbour was never quota-reclaimed.
        assert arena.tenants()[1].quota_reclaims == 0

    def test_quota_reclaim_evicts_own_oldest_first(self):
        arena = _arena(capacity=64 * 1024)
        arena.attach("t", [1024] * 32, TenantQuota(quota_bytes=4 * 1024))
        for sid in range(5):  # the fifth insert breaches the 4-block quota
            arena.access("t", sid)
        tenant = arena.tenants()[0]
        assert tenant.offset + 0 not in tenant.resident  # oldest gone
        assert tenant.offset + 4 in tenant.resident

    def test_quota_reclaim_attributed_to_owner(self):
        arena = _arena(capacity=64 * 1024, check_level="light")
        arena.attach("t", [1024] * 32, TenantQuota(quota_bytes=4 * 1024))
        for sid in range(12):
            arena.access("t", sid)
        stats = arena.tenant_stats("t")
        assert stats.evicted_bytes == 8 * 1024
        assert stats.inserted_bytes - stats.evicted_bytes == 4 * 1024
        arena.check_now()


class TestPressureReclaim:
    def test_over_share_tenant_donates(self):
        # Fine-grained FIFO so the shared policy itself never evicts
        # (pressure reclaim keeps occupancy below capacity); any byte
        # the mouse loses would have to come from pressure reclaim.
        arena = _arena(policy_from_spec("fifo"), capacity=32 * 1024,
                       pressure_threshold=0.75,
                       reclaim_fraction=0.5, check_level="light")
        arena.attach("hog", [1024] * 64, TenantQuota(32 * 1024, weight=1.0))
        arena.attach("mouse", [512] * 4, TenantQuota(32 * 1024, weight=1.0))
        for sid in range(4):
            arena.access("mouse", sid)
        mouse_resident = arena.tenants()[1].resident_bytes
        for sid in range(64):
            arena.access("hog", sid)
        assert arena.pressure_reclaims > 0
        assert arena.resident_bytes <= 0.75 * arena.capacity_bytes
        # The under-share tenant kept everything; the hog paid.
        assert arena.tenants()[1].resident_bytes == mouse_resident
        assert arena.tenants()[0].stats.evicted_bytes > 0
        arena.check_now()

    def test_no_reclaim_below_threshold(self):
        arena = _arena(capacity=64 * 1024, pressure_threshold=0.9)
        arena.attach("t", [512] * 8)
        for sid in range(8):
            arena.access("t", sid)
        assert arena.pressure_reclaims == 0

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError, match="pressure_threshold"):
            _arena(pressure_threshold=1.5)
        with pytest.raises(ConfigurationError, match="reclaim_fraction"):
            _arena(pressure_threshold=0.5, reclaim_fraction=0.9)


class TestCheckLevelPlumbing:
    def test_bad_explicit_level_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown check level"):
            _arena(check_level="extreme")

    def test_bad_env_level_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_LEVEL", "bogus")
        with pytest.raises(ConfigurationError, match="unknown check level"):
            _arena()

    def test_env_level_used(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_LEVEL", "light")
        arena = _arena()
        assert arena.check_level == "light"
        assert arena.checker is not None

    def test_off_builds_no_checker(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_LEVEL", raising=False)
        arena = _arena()
        assert arena.checker is None
