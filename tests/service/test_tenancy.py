"""The shared arena: private entries, per-tenant accounting, quotas,
and Memshare-style pressure reclaim — all under invariant checking."""

import pickle
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
from repro.service.tenancy import SharedArena, TenantQuota
from repro.workloads.registry import build_workload, get_benchmark


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
        assert a.block_map == list(range(50))
        assert b.block_map == list(range(50, 100))

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
        assert tenant.block_map[0] not in tenant.resident  # oldest gone
        assert tenant.block_map[4] in tenant.resident

    def test_reinserted_block_is_reclaimed_once(self):
        """A block the policy evicted and the tenant re-inserted sits
        twice in the tenant's FIFO order.  Quota reclaim must count its
        bytes once: counted twice, it frees too little and leaves the
        arena over its pressure threshold."""
        arena = _arena(capacity=8 * 1024, pressure_threshold=0.9,
                       reclaim_fraction=0.85, check_level="paranoid")
        quota = TenantQuota(quota_bytes=4915)
        arena.attach("t0", [1871, 1370, 369, 68, 598], quota)
        arena.attach("t1", [647, 1922, 1830, 808, 200, 1754, 1841], quota)
        for t, sid in ((0, 2), (0, 4), (1, 3), (0, 1), (1, 2), (1, 6),
                       (1, 3), (0, 0), (0, 4), (1, 4), (1, 3), (1, 5),
                       (1, 1), (1, 2)):
            arena.access(f"t{t}", sid)
        t1 = arena.tenants()[1]
        assert t1.quota_reclaims == 1
        assert t1.quota_reclaimed_bytes == 2762
        assert arena.pressure_reclaims == 0
        arena.check_now()

    def test_reclaim_releases_a_reinserted_block_at_its_latest_position(
            self):
        """A block the policy evicted and the tenant inserted again is
        the tenant's newest claim: quota reclaim releases older ones
        first."""
        arena = _arena(policy_from_spec("fifo"), capacity=8 * 1024,
                       check_level="paranoid")
        arena.attach("t", [1024] * 4, TenantQuota(quota_bytes=3 * 1024))
        arena.attach("hog", [1024] * 6)
        for sid in range(3):
            arena.access("t", sid)
        for sid in range(6):  # the ninth KiB evicts t's oldest block
            arena.access("hog", sid)
        tenant = arena.tenants()[0]
        a, b, c, d = tenant.block_map
        assert set(tenant.resident) == {b, c}
        assert tenant.stats.evicted_blocks == 1
        arena.detach("hog")
        arena.access("t", 0)  # back in, at quota: nothing reclaimed
        assert tenant.quota_reclaims == 0
        arena.access("t", 3)  # over quota by one block
        assert tenant.quota_reclaims == 1
        assert b not in tenant.resident and a in tenant.resident
        assert list(tenant.resident) == [c, a, d]
        arena.check_now()

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


class TestResidencyOrder:
    """``TenantState.resident`` is exactly the gids the tenant owns, in
    the order each last entered: the order reclaim walks."""

    @pytest.mark.parametrize("sharing", ("off", "common"))
    @pytest.mark.parametrize("policy_spec", ("8-unit", "fifo", "gen"))
    def test_resident_is_owned_gids_in_entry_order(self, policy_spec,
                                                   sharing):
        arena = SharedArena(policy_from_spec(policy_spec), 128 * 1024,
                            sharing=sharing != "off", check_level="off",
                            pressure_threshold=0.9)
        common = _sizes(30, seed=21, high=4096)
        for index, name in enumerate("abcd"):
            digests = None
            if sharing == "common":
                digests = ([f"common/{i}" for i in range(30)]
                           + [f"{name}/{i}" for i in range(30)])
            arena.attach(name, common + _sizes(30, seed=index, high=4096),
                         TenantQuota(40 * 1024), block_digests=digests)
        tenants = arena.tenants()
        entered: dict[str, dict[int, int]] = {t.name: {} for t in tenants}
        reentries = 0
        rng = random.Random(13)
        for step in range(3000):
            # Tenant a alone runs into its quota; then all four push
            # the arena past its pressure threshold.
            name = "a" if step < 800 else rng.choice("abcd")
            before = {t.name: dict(t.resident) for t in tenants}
            arena.access(name, rng.randrange(60))
            owned: dict[int, set[int]] = {t.slot: set() for t in tenants}
            for gid, owners in enumerate(arena.table.owners):
                for slot in owners:
                    owned[slot].add(gid)
            for tenant in tenants:
                assert set(tenant.resident) == owned[tenant.slot]
                entries = entered[tenant.name]
                for gid in tenant.resident:
                    if gid not in before[tenant.name]:
                        reentries += gid in entries
                        entries[gid] = step
                order = [entries[gid] for gid in tenant.resident]
                assert order == sorted(order)
        assert reentries > 0
        assert sum(t.quota_reclaims for t in tenants) > 0
        assert arena.pressure_reclaims > 0
        if sharing == "common":
            assert arena.table.shared_joins > 0

    def test_snapshot_stays_bounded_by_resident_blocks(self):
        """Three passes of the same traffic leave the resident set, and
        so the pickled snapshot, about where one pass left them."""
        tenants = []
        for index, name in enumerate(("gzip", "gcc")):
            workload = build_workload(get_benchmark(name), scale=0.25,
                                      trace_accesses=48_000,
                                      seed=5 * 1009 + index)
            sizes = workload.superblocks.sizes()
            tenants.append((name, [sizes[s] for s in range(len(sizes))],
                            workload.trace.tolist()))
        arena = SharedArena(policy_from_spec("8-unit"), 256 * 1024,
                            check_level="off")
        for name, sizes, _ in tenants:
            arena.attach(name, sizes)
        snapshot_bytes = []
        for _ in range(3):
            for start in range(0, 48_000, 256):
                for name, _, trace in tenants:
                    arena.access_many(name, trace[start:start + 256])
            snapshot_bytes.append(len(pickle.dumps(
                arena.snapshot_state(), protocol=pickle.HIGHEST_PROTOCOL)))
        first, _, third = snapshot_bytes
        assert abs(third - first) <= 0.05 * first, snapshot_bytes


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
