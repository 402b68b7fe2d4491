"""The arena's owned-hit fast path and the sync batch's inline apply.

``SharedArena.access_many`` counts an access to an entry the tenant
already owns as a plain hit without calling ``step()``.  The
differential test below drives one arena through ``access_many`` and a
twin access by access through ``_access_locked`` (the full ``step()``
path) and requires every counter to be equal.  Both arenas run
unchecked: the checker turns the fast path off, and its entry check
resyncs ``attributed_bytes``, so a checked twin would not be a
bit-exact reference under sharing.

A sync batch is applied on its connection's task when nothing is queued
and no fault plan is armed, and goes through the queue otherwise; the
tests below hold the two paths to the same order, backpressure and
failure behaviour.
"""

import asyncio
import contextlib
import random
import threading

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


async def _hello(service: CacheService, tenant: str = "t", blocks: int = 4):
    reply, _ = await service._dispatch_line(protocol.encode(
        {"op": "hello", "tenant": tenant, "block_sizes": [512] * blocks}
    ), None)
    assert reply["ok"], reply
    return service.sessions[tenant]


#: Armed for a point nothing here reaches: the plan forces the queued
#: path, and fires nothing.
IDLE_PLAN = faults.FaultSpec(point="service.accept", keys=("nobody",))


def _armed(armed: bool):
    return faults.plan(IDLE_PLAN) if armed else contextlib.nullcontext()


class TestSyncBatchThreadHops:
    @pytest.mark.parametrize("armed, hops", ((False, 0), (True, 2)))
    def test_sync_access_hops_only_when_a_plan_is_armed(
            self, monkeypatch, armed, hops):
        """Unarmed, a sync batch is applied on the connection's task.
        Armed, it takes the queue: the consumer's apply runs in a
        worker thread, and so does the ``service.flush`` fault point
        (an armed ``hang`` must sleep off the event loop)."""
        calls = []
        to_thread = asyncio.to_thread

        async def counted(func, *args, **kwargs):
            calls.append(func)
            return await to_thread(func, *args, **kwargs)

        monkeypatch.setattr(asyncio, "to_thread", counted)

        async def scenario():
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=64 * 1024))
            session = await _hello(service)
            calls.clear()
            reply, _ = await service._dispatch_line(protocol.encode(
                {"op": "access", "sids": [0, 1, 0], "seq": 1, "sync": True}
            ), session)
            assert reply["ok"] and reply["queued_batches"] == 0
            assert len(calls) == hops
            assert session.hits == 1
            assert session.batches_applied == 1
            await session.close()

        assert faults.active_plan() is None
        with _armed(armed):
            asyncio.run(scenario())


class TestInlineSyncApply:
    def test_sync_batch_waits_for_the_async_batch_in_flight(
            self, monkeypatch):
        """The consumer is mid-batch (the queue is empty): the inline
        apply waits for it, then runs on the event loop's thread."""
        entered, release = threading.Event(), threading.Event()
        applied = []
        access_many = SharedArena.access_many

        def gated(arena, name, sids, tseq=None):
            if not applied:
                entered.set()
                release.wait(10)
            applied.append((tseq, threading.current_thread()))
            return access_many(arena, name, sids, tseq=tseq)

        monkeypatch.setattr(SharedArena, "access_many", gated)

        async def scenario():
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=64 * 1024))
            session = await _hello(service)
            reply, _ = await service._dispatch_line(protocol.encode(
                {"op": "access", "sids": [0, 1], "seq": 1}), session)
            assert reply["ok"] and reply["queued_batches"] == 1
            while not entered.is_set():
                await asyncio.sleep(0.001)
            assert session._queue.empty()
            sync = asyncio.ensure_future(service._dispatch_line(protocol.encode(
                {"op": "access", "sids": [1, 2], "seq": 2, "sync": True}
            ), session))
            await asyncio.sleep(0.05)
            assert not sync.done()
            release.set()
            reply, _ = await sync
            assert reply["ok"] and reply["queued_batches"] == 0
            assert [seq for seq, _ in applied] == [1, 2]
            assert applied[0][1] is not threading.main_thread()
            assert applied[1][1] is threading.main_thread()
            assert session.hits == 1 and session.batches_applied == 2
            await session.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("armed", (False, True))
    def test_mixed_traffic_applies_in_sending_order(self, armed):
        """Async batches, then a sync one, then more of both: the stats
        equal one in-process replay in sending order."""
        rng = random.Random(7)
        traffic = [([rng.randrange(40) for _ in range(16)], rng.random() < 0.4)
                   for _ in range(60)]

        async def scenario():
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=8 * 1024,
                check_level="light"))
            session = await _hello(service, blocks=40)
            for seq, (sids, sync) in enumerate(traffic, start=1):
                message = {"op": "access", "sids": sids, "seq": seq}
                if sync:
                    message["sync"] = True
                reply, _ = await service._dispatch_line(protocol.encode(message),
                                                        session)
                assert reply["ok"], reply
                if seq % 7 == 0:
                    await asyncio.sleep(0)  # let the consumer run
            return await session.stats()

        with _armed(armed):
            served = asyncio.run(scenario())
        reference = SharedArena(policy_from_spec("8-unit"), 8 * 1024,
                                check_level="light")
        reference.attach("t", [512] * 40)
        for seq, (sids, _) in enumerate(traffic, start=1):
            reference.access_many("t", sids, tseq=seq)
        assert served == reference.tenant_stats("t").to_dict()

    def test_sync_batch_behind_a_full_queue_gets_backpressure(self):
        async def scenario():
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=64 * 1024,
                queue_batches=2))
            session = await _hello(service)
            for seq in (1, 2):
                reply, _ = await service._dispatch_line(protocol.encode(
                    {"op": "access", "sids": [0], "seq": seq}), session)
                assert reply["ok"]
            reply, done = await service._dispatch_line(protocol.encode(
                {"op": "access", "sids": [1], "seq": 3, "sync": True}
            ), session)
            assert reply["error"] == protocol.ERR_BACKPRESSURE
            assert reply["retry_after"] > 0 and not done
            await session.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("armed", (False, True))
    def test_out_of_range_sid_fails_the_session(self, tmp_path, armed):
        """Both paths fail a bad sync batch alike: ``session-failed``
        (never ``bad-request``), the tenant detached, no access record
        logged for the batch, and the consumer task ended."""
        async def scenario():
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=64 * 1024,
                snapshot_dir=str(tmp_path), snapshot_interval=10**9))
            session = await _hello(service)
            reply, _ = await service._dispatch_line(protocol.encode(
                {"op": "access", "sids": [0, 1], "seq": 1, "sync": True}
            ), session)
            assert reply["ok"]
            reply, done = await service._dispatch_line(protocol.encode(
                {"op": "access", "sids": [0, 9], "seq": 2, "sync": True}
            ), session)
            assert reply["error"] == protocol.ERR_SESSION_FAILED
            assert done
            assert "superblock 9" in session.failure
            assert not service.arena.has_tenant("t")
            await asyncio.sleep(0)
            assert session._consumer.done()
            records = service.persister.read_wal()
            assert [(r["type"], r.get("tseq")) for r in records] == [
                ("attach", None), ("access", 1), ("detach", None)]
            reply, _ = await service._dispatch_line(protocol.encode(
                {"op": "access", "sids": [0], "seq": 3, "sync": True}
            ), session)
            assert reply["error"] == protocol.ERR_SESSION_FAILED
            service.persister.close()

        with _armed(armed):
            asyncio.run(scenario())

    def test_armed_plan_fires_the_flush_point_once_per_sync_batch(
            self, monkeypatch):
        fired = []
        fire = faults.fire

        def counted(point, *args, **kwargs):
            fired.append(point)
            return fire(point, *args, **kwargs)

        monkeypatch.setattr(faults, "fire", counted)

        async def scenario():
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=64 * 1024))
            session = await _hello(service)
            fired.clear()
            for seq in range(1, 6):
                reply, _ = await service._dispatch_line(protocol.encode(
                    {"op": "access", "sids": [seq % 4], "seq": seq,
                     "sync": True}), session)
                assert reply["ok"]
            assert fired.count("service.flush") == 5
            assert fired.count("service.session") == 5
            await session.close()

        with _armed(True):
            asyncio.run(scenario())
