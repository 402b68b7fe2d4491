"""Cross-tenant superblock sharing: content-keyed dedup, refcounted
residency, fractional attribution, deferred eviction — all under the
paranoid checker, plus durability and wire-shape coverage."""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ConfigurationError
from repro.core.policies import UnitFifoPolicy, policy_from_spec
from repro.service.persist import ArenaPersister, recover_arena
from repro.service.server import benchmark_population
from repro.service.tenancy import (
    SharedArena,
    TenantQuota,
    content_digests,
)


def _arena(capacity=64 * 1024, sharing=True, **kwargs):
    return SharedArena(UnitFifoPolicy(8), capacity, sharing=sharing,
                       **kwargs)


def _population(count, seed=0, low=64, high=2048, tag="w"):
    rng = random.Random(seed)
    sizes = [rng.randrange(low, high) for _ in range(count)]
    digests = [f"{tag}:{seed}:{i}:{size}" for i, size in enumerate(sizes)]
    return sizes, digests


class TestDedupMapping:
    def test_identical_digests_map_to_one_gid(self):
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(12)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        a = arena._tenants["a"]
        b = arena._tenants["b"]
        assert a.block_map == b.block_map == list(range(12))
        assert len(arena.table.by_digest) == 12
        arena.check_now()

    def test_disjoint_digests_stay_disjoint(self):
        arena = _arena(check_level="paranoid")
        sizes_a, digests_a = _population(8, seed=1, tag="a")
        sizes_b, digests_b = _population(8, seed=2, tag="b")
        arena.attach("a", sizes_a, block_digests=digests_a)
        arena.attach("b", sizes_b, block_digests=digests_b)
        a = arena._tenants["a"]
        b = arena._tenants["b"]
        assert not set(a.block_map) & set(b.block_map)
        assert len(arena.table.by_digest) == 16
        arena.check_now()

    def test_missing_digests_degrade_to_private_namespace(self):
        """Sharing on, no digests: tenants get private entries —
        exactly what an unshared arena gives every tenant."""
        arena = _arena(check_level="paranoid")
        sizes = [512] * 8
        arena.attach("a", sizes)
        arena.attach("b", sizes)
        a = arena._tenants["a"]
        b = arena._tenants["b"]
        assert not set(a.block_map) & set(b.block_map)
        assert not arena.table.by_digest
        arena.check_now()

    def test_second_tenant_hit_joins_without_a_miss(self):
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(4)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        assert not arena.access("a", 0)          # cold: a misses
        assert arena.access("b", 0)              # warm join: b hits
        assert arena.tenant_stats("b").misses == 0
        assert arena.tenant_stats("b").inserted_bytes == 0
        assert arena.to_dict()["sharing_stats"]["shared_joins"] == 1
        # Both hold the block; only one physical copy exists.
        assert arena.to_dict()["logical_bytes"] == 2 * sizes[0]
        assert arena.to_dict()["resident_bytes"] == sizes[0]
        arena.check_now()


class TestAttachValidation:
    def test_duplicate_digests_rejected(self):
        arena = _arena()
        with pytest.raises(ConfigurationError, match="duplicate"):
            arena.attach("a", [512, 512], block_digests=["d", "d"])

    def test_length_mismatch_rejected(self):
        arena = _arena()
        with pytest.raises(ConfigurationError, match="digests"):
            arena.attach("a", [512, 512], block_digests=["d"])

    def test_size_collision_rejected(self):
        arena = _arena()
        arena.attach("a", [512], block_digests=["d"])
        with pytest.raises(ConfigurationError, match="collision"):
            arena.attach("b", [1024], block_digests=["d"])

    def test_digests_without_sharing_rejected(self):
        arena = _arena(sharing=False)
        with pytest.raises(ConfigurationError, match="sharing"):
            arena.attach("a", [512], block_digests=["d"])


class TestAttribution:
    def test_join_halves_attribution(self):
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(1, low=1000, high=1001)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        arena.access("a", 0)
        assert arena._tenants["a"].attributed_bytes == sizes[0]
        arena.access("b", 0)
        assert arena._tenants["a"].attributed_bytes == sizes[0] / 2
        assert arena._tenants["b"].attributed_bytes == sizes[0] / 2
        arena.check_now()

    def test_policy_eviction_splits_bytes_exactly(self):
        """Largest-remainder split: the per-owner eviction shares are
        integers that sum to the block size even when it does not
        divide evenly."""
        arena = _arena(capacity=8 * 1024, max_block_bytes=1024,
                       check_level="paranoid")
        # One shared block of odd size, three owners, then enough
        # private inserts to force it out.
        arena.attach("a", [1001], block_digests=["shared"])
        arena.attach("b", [1001], block_digests=["shared"])
        arena.attach("c", [1001], block_digests=["shared"])
        filler_sizes, filler_digests = _population(
            16, seed=9, low=900, high=1000, tag="filler"
        )
        arena.attach("filler", filler_sizes,
                     block_digests=filler_digests)
        for name in ("a", "b", "c"):
            arena.access(name, 0)
        for sid in range(16):
            arena.access("filler", sid)
        evicted = sum(arena.tenant_stats(n).evicted_bytes
                      for n in ("a", "b", "c"))
        assert evicted in (0, 1001)
        if evicted:
            shares = sorted(arena.tenant_stats(n).evicted_bytes
                            for n in ("a", "b", "c"))
            assert shares in ([333, 334, 334], [0, 0, 0])
            assert arena.to_dict()["sharing_stats"][
                "shared_policy_evictions"] >= 1
        arena.check_now()

    def test_deferred_release_until_last_owner(self):
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(6, low=500, high=600)
        total = sum(sizes)
        for name in ("a", "b", "c"):
            arena.attach(name, sizes, block_digests=digests)
            for sid in range(6):
                arena.access(name, sid)
        # Co-owner departures charge no eviction anywhere.
        first = arena.detach("a")
        assert first.evicted_bytes == 0
        second = arena.detach("b")
        assert second.evicted_bytes == 0
        assert arena.resident_bytes == total
        stats = arena.to_dict()["sharing_stats"]
        assert stats["deferred_releases"] == 12
        # The last owner pays for the physical eviction.
        last = arena.detach("c")
        assert last.evicted_bytes == total
        assert arena.resident_bytes == 0
        assert arena.to_dict()["logical_bytes"] == 0
        arena.check_now()

    def test_quota_reclaim_uses_fractional_held_bytes(self):
        """A tenant holding only half of every shared block stays
        under a quota that its full resident footprint would bust."""
        arena = _arena(check_level="paranoid")
        sizes, digests = _population(8, low=500, high=600)
        footprint = sum(sizes)
        arena.attach("a", sizes, block_digests=digests)
        quota = TenantQuota(quota_bytes=(footprint // 2) + 600)
        arena.attach("b", sizes, block_digests=digests, quota=quota)
        for sid in range(8):
            arena.access("a", sid)
        for sid in range(8):
            arena.access("b", sid)
        b = arena._tenants["b"]
        # All joins: b's attributed share is half its resident bytes.
        assert b.resident_bytes == footprint
        assert b.attributed_bytes == pytest.approx(footprint / 2)
        assert arena.tenant_stats("b").evicted_bytes == 0
        arena.check_now()


class TestChurn:
    @pytest.mark.parametrize("tenants", (2, 4))
    def test_paranoid_random_churn_stays_conservation_clean(self, tenants):
        arena = _arena(capacity=16 * 1024, check_level="paranoid",
                       pressure_threshold=0.9, reclaim_fraction=0.7)
        sizes, digests = _population(24, seed=3, low=200, high=1500)
        names = [f"t{i}" for i in range(tenants)]
        for name in names:
            arena.attach(name, sizes, block_digests=digests)
        rng = random.Random(7)
        for _ in range(600):
            arena.access(rng.choice(names), rng.randrange(24))
        arena.check_now()
        merged = arena.unified_stats()
        assert (merged.inserted_bytes - merged.evicted_bytes
                == arena.resident_bytes)
        report = arena.to_dict()
        assert report["sharing_stats"]["dedup_ratio"] >= 1.0
        for name in list(names):
            arena.detach(name)
        arena.check_now()
        assert arena.resident_bytes == 0
        assert arena.to_dict()["logical_bytes"] == 0


class TestDurability:
    def test_sharing_state_round_trips_through_snapshot(self, tmp_path):
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, report = recover_arena(
            persister, policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192, sharing=True,
        )
        assert not report["recovered"]
        sizes, digests = _population(8, low=500, high=600)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        arena.access_many("a", list(range(8)), tseq=1)
        arena.access_many("b", list(range(8)), tseq=1)
        assert arena.snapshot_now()
        persister.close()

        restarted_persister = ArenaPersister(
            tmp_path, snapshot_interval=10**9
        )
        restored, report = recover_arena(
            restarted_persister, policy="8-unit",
            capacity_bytes=64 * 1024, max_block_bytes=8192, sharing=True,
        )
        assert report["recovered"] and report["snapshot_loaded"]
        assert restored.sharing_enabled
        assert restored.resident_bytes == arena.resident_bytes
        for name in ("a", "b"):
            assert restored.tenant_stats(name) == arena.tenant_stats(name)
            assert (restored._tenants[name].block_map
                    == arena._tenants[name].block_map)
            assert (restored._tenants[name].attributed_bytes
                    == pytest.approx(
                        arena._tenants[name].attributed_bytes))

        def entries(a):
            sizes = a._blocks.sizes()
            return {d: (gid, sizes[gid], a.table.owners[gid])
                    for d, gid in a.table.by_digest.items()}

        assert entries(restored) == entries(arena)
        assert (restored.to_dict()["sharing_stats"]
                == arena.to_dict()["sharing_stats"])
        restored.check_now()
        restarted_persister.close()

    def test_wal_replay_reproduces_shared_joins(self, tmp_path):
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, _ = recover_arena(
            persister, policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192, sharing=True,
        )
        sizes, digests = _population(8, low=500, high=600)
        arena.attach("a", sizes, block_digests=digests)
        arena.attach("b", sizes, block_digests=digests)
        arena.access_many("a", list(range(8)), tseq=1)
        arena.access_many("b", list(range(8)), tseq=1)
        reference = {n: arena.tenant_stats(n) for n in ("a", "b")}
        joins = arena.to_dict()["sharing_stats"]["shared_joins"]
        assert joins == 8
        persister.close()  # no snapshot: recovery is WAL-only

        restarted_persister = ArenaPersister(
            tmp_path, snapshot_interval=10**9
        )
        restored, report = recover_arena(
            restarted_persister, policy="8-unit",
            capacity_bytes=64 * 1024, max_block_bytes=8192, sharing=True,
        )
        assert report["recovered"] and not report["snapshot_loaded"]
        for name in ("a", "b"):
            assert restored.tenant_stats(name) == reference[name]
        assert restored.to_dict()["sharing_stats"]["shared_joins"] == joins
        restored.check_now()
        restarted_persister.close()

    def test_fingerprint_separates_sharing_modes(self, tmp_path):
        """A sharing arena's snapshot must not load into an unshared
        worker (and vice versa) — the fingerprint carries the mode."""
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, _ = recover_arena(
            persister, policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192, sharing=True,
        )
        sizes, digests = _population(4)
        arena.attach("a", sizes, block_digests=digests)
        arena.access_many("a", [0], tseq=1)
        assert arena.snapshot_now()
        persister.close()

        legacy_persister = ArenaPersister(tmp_path,
                                          snapshot_interval=10**9)
        with pytest.warns(RuntimeWarning):
            _, report = recover_arena(
                legacy_persister, policy="8-unit",
                capacity_bytes=64 * 1024, max_block_bytes=8192,
                sharing=False,
            )
        assert not report["snapshot_loaded"]
        record = legacy_persister.last_quarantine_record
        assert record["expected_fingerprint"]["sharing"] is False
        assert record["actual_fingerprint"]["sharing"] is True
        legacy_persister.close()


class TestServerIntegration:
    def test_benchmark_population_is_deterministic(self):
        sizes_a, digests_a = benchmark_population("gzip", 0.25)
        sizes_b, digests_b = benchmark_population("gzip", 0.25)
        assert sizes_a == sizes_b and digests_a == digests_b
        assert len(sizes_a) == len(digests_a)
        # Different benchmark or scale means different content.
        _, other = benchmark_population("gcc", 0.25)
        assert set(digests_a).isdisjoint(other)

    def test_content_digests_depend_on_seed(self):
        sizes, digests = benchmark_population("gzip", 0.25)
        from repro.workloads.registry import build_workload, get_benchmark
        spec = get_benchmark("gzip")
        workload = build_workload(spec, 0.25, 64, seed=spec.seed + 1)
        reseeded = content_digests(
            "gzip", 0.25, spec.seed + 1, workload.superblocks
        )
        assert digests != reseeded

    def test_sessions_share_one_copy_over_tcp(self):
        async def scenario():
            from repro.service.client import ServiceClient
            from repro.service.server import CacheService, ServiceConfig
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=256 * 1024,
                check_level="paranoid", sharing=True,
            ))
            await service.start()
            clients, blocks = [], None
            for name in ("a", "b"):
                client = await ServiceClient.connect(
                    "127.0.0.1", service.port
                )
                greeting = await client.hello(
                    name, benchmark="gzip", scale=0.1
                )
                assert greeting["sharing"] is True
                blocks = greeting["blocks"]
                clients.append(client)
            sids = list(range(min(24, blocks)))
            for client in clients:
                reply = await client.access(sids, sync=True)
                assert reply["ok"]
            report = service.arena.to_dict()
            assert report["sharing_stats"]["shared_joins"] == len(sids)
            assert report["logical_bytes"] == 2 * report["resident_bytes"]
            for client in clients:
                await client.close_session()
                await client.aclose()
            await service.drain()

        asyncio.run(scenario())


class TestDisjointNoOpProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_sharing_is_noop_without_common_content(self, seed):
        """On disjoint-content workloads, tenants keyed by content
        digests produce the per-tenant stats, reclaim counters and
        arena counters of tenants with private entries replaying the
        same interleaving — at any granularity, with or without quotas
        and pressure reclaim.

        The configuration is drawn uniformly from a seeded generator.
        Hypothesis's own draws favour small edge values and almost
        never reach a reclaim that walks past a block the policy
        evicted and the tenant re-inserted; uniform draws reach one in
        about 2% of configurations.
        """
        rng = random.Random(seed)
        policy = rng.choice(("2-unit", "4-unit", "8-unit", "fifo"))
        quota = rng.choice((None, rng.randint(2048, 8192)))
        pressure = rng.choice((None, rng.uniform(0.5, 1.0)))
        populations = [
            [rng.randint(64, 2048) for _ in range(rng.randint(2, 8))]
            for _ in range(rng.randint(2, 3))
        ]
        steps = [(rng.randrange(len(populations)), rng.randrange(64))
                 for _ in range(rng.randint(1, 120))]

        arenas = []
        for sharing in (True, False):
            arena = SharedArena(
                policy_from_spec(policy), 8 * 1024, sharing=sharing,
                pressure_threshold=pressure,
                reclaim_fraction=0.85 * (pressure or 1.0),
                check_level="paranoid",
            )
            for t, sizes in enumerate(populations):
                digests = [f"tenant{t}/block{i}" for i in range(len(sizes))]
                arena.attach(
                    f"t{t}", sizes,
                    None if quota is None else TenantQuota(quota),
                    block_digests=digests if sharing else None,
                )
            arenas.append(arena)
        shared, private = arenas
        for t, raw_sid in steps:
            sid = raw_sid % len(populations[t])
            assert (shared.access(f"t{t}", sid)
                    == private.access(f"t{t}", sid))

        def counters(arena):
            report = arena.to_dict()
            del report["sharing"]
            report.pop("sharing_stats", None)
            tenants = [(t.stats, t.resident_bytes, t.quota_reclaims,
                        t.quota_reclaimed_bytes)
                       for t in arena.tenants()]
            return report, tenants

        assert counters(shared) == counters(private)
        assert (shared.to_dict()["sharing_stats"]["shared_joins"] == 0)
        shared.check_now()
        private.check_now()
