"""The arena's owned-hit fast path and the sync batch's one thread hop.

``SharedArena.access_many`` counts an access to an entry the tenant
already owns as a plain hit without calling ``step()``.  The
differential test below drives one arena through ``access_many`` and a
twin access by access through ``_access_locked`` (the full ``step()``
path) and requires every counter to be equal.  Both arenas run
unchecked: the checker turns the fast path off, and its entry check
resyncs ``attributed_bytes``, so a checked twin would not be a
bit-exact reference under sharing.
"""

import asyncio
import contextlib
import random

import pytest

from repro import faults
from repro.core.policies import policy_from_spec
from repro.service import protocol
from repro.service.server import CacheService, ServiceConfig
from repro.service.tenancy import SharedArena, TenantQuota

POLICIES = ("flush", "2-unit", "8-unit", "64-unit", "fifo", "gen",
            "preempt")
CAPACITY = 32 * 1024
MAX_BLOCK = 512
QUOTA = 10 * 1024
COMMON_BLOCKS = 60
PRIVATE_BLOCKS = 50
TENANTS = ("t0", "t1", "t2")
BATCHES = 120
BATCH = 48


def _populations(sharing: str, seed: int):
    """Per-tenant (sizes, digests).  Under ``common`` the first
    ``COMMON_BLOCKS`` of every tenant are the same content."""
    rng = random.Random(seed)
    common = [rng.randint(64, MAX_BLOCK) for _ in range(COMMON_BLOCKS)]
    populations = []
    for name in TENANTS:
        private = [rng.randint(64, MAX_BLOCK) for _ in range(PRIVATE_BLOCKS)]
        sizes = common + private
        if sharing == "off":
            digests = None
        elif sharing == "private":
            digests = [f"{name}/{i}" for i in range(len(sizes))]
        else:
            digests = ([f"common/{i}" for i in range(COMMON_BLOCKS)]
                       + [f"{name}/{i}" for i in range(PRIVATE_BLOCKS)])
        populations.append((sizes, digests))
    return populations


def _batches(seed: int):
    """(tenant, sids) in sending order.  Each tenant walks a sliding
    window over its population, so most accesses hit what it owns."""
    rng = random.Random(seed + 1)
    population = COMMON_BLOCKS + PRIVATE_BLOCKS
    windows = {name: rng.randrange(population) for name in TENANTS}
    for _ in range(BATCHES):
        name = rng.choice(TENANTS)
        start = windows[name]
        windows[name] = (start + rng.randrange(8)) % population
        yield name, [(start + rng.randrange(24)) % population
                     for _ in range(BATCH)]


def _arena(policy: str, sharing: str, pressure: bool) -> SharedArena:
    return SharedArena(
        policy_from_spec(policy), CAPACITY, max_block_bytes=MAX_BLOCK,
        sharing=sharing != "off",
        pressure_threshold=0.7 if pressure else None,
        reclaim_fraction=0.6, check_level="off",
    )


def _tenant_state(arena: SharedArena) -> list[tuple]:
    return [(t.name, t.stats, t.resident, t.attributed_bytes,
             t.resident_bytes, list(t.resident), t.quota_reclaims,
             t.quota_reclaimed_bytes) for t in arena.tenants()]


class TestOwnedHitFastPath:
    @pytest.mark.parametrize("sharing", ("off", "private", "common"))
    @pytest.mark.parametrize("pressure", (False, True))
    @pytest.mark.parametrize("quota", (False, True))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_batched_equals_access_by_access(self, policy, quota,
                                             pressure, sharing):
        seed = POLICIES.index(policy)
        fast = _arena(policy, sharing, pressure)
        full = _arena(policy, sharing, pressure)
        for arena in (fast, full):
            for weight, name, (sizes, digests) in zip(
                    (1.0, 2.0, 1.0), TENANTS, _populations(sharing, seed)):
                arena.attach(name, sizes, block_digests=digests,
                             quota=TenantQuota(QUOTA if quota else CAPACITY,
                                               weight))
        for name, sids in _batches(seed):
            tenant = full._tenants[name]
            with full._lock:
                want = sum(full._access_locked(tenant, sid) for sid in sids)
            assert fast.access_many(name, sids) == want
            assert _tenant_state(fast) == _tenant_state(full)
        assert fast.to_dict() == full.to_dict()
        assert fast.unified_stats() == full.unified_stats()
        assert fast.policy.resident_ids() == full.policy.resident_ids()
        for name in TENANTS:
            assert fast.detach(name) == full.detach(name)
        assert fast.to_dict() == full.to_dict()

        # The grid must reach what the fast path has to get right.
        report = full.to_dict()
        merged = full.unified_stats()
        assert merged.hits > merged.misses > 0
        assert merged.evicted_blocks > 0
        if sharing == "common":
            assert report["sharing_stats"]["shared_joins"] > 0
        if quota:
            assert sum(t.quota_reclaims for t in full.tenants()) > 0
        if pressure:
            assert report["pressure_reclaims"] > 0


class TestSyncBatchThreadHops:
    @pytest.mark.parametrize("armed, hops", ((False, 1), (True, 2)))
    def test_sync_access_hops_once_unless_a_plan_is_armed(
            self, monkeypatch, armed, hops):
        """The consumer's apply always runs in a worker thread; the
        ``service.flush`` fault point needs one only when a plan is
        armed (an armed ``hang`` must sleep off the event loop)."""
        calls = []
        to_thread = asyncio.to_thread

        async def counted(func, *args, **kwargs):
            calls.append(func)
            return await to_thread(func, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", counted)

        async def scenario():
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=64 * 1024))
            reply, _ = await service._dispatch_line(protocol.encode(
                {"op": "hello", "tenant": "t", "block_sizes": [512] * 4}
            ), None)
            assert reply["ok"]
            session = service.sessions["t"]
            calls.clear()
            reply, _ = await service._dispatch_line(protocol.encode(
                {"op": "access", "sids": [0, 1, 0], "seq": 1, "sync": True}
            ), session)
            assert reply["ok"] and reply["queued_batches"] == 0
            assert len(calls) == hops
            assert session.hits == 1
            await session.close()

        assert faults.active_plan() is None
        # Armed for another point: the flush still hops, fires nothing.
        plan = (faults.plan(faults.FaultSpec(point="service.accept",
                                             keys=("nobody",)))
                if armed else contextlib.nullcontext())
        with plan:
            asyncio.run(scenario())
