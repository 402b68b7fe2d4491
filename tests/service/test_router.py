"""The router tier: ring placement math, breaker state machine, and
end-to-end proxying over live in-process shard services."""

import asyncio

import pytest

from repro import faults
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.router import (
    CircuitBreaker,
    HashRing,
    RouterConfig,
    ServiceRouter,
)
from repro.service.server import CacheService, ServiceConfig

KEYS = [f"tenant-{i}" for i in range(2000)]


class TestHashRing:
    def test_lookup_is_deterministic(self):
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s2", "s0", "s1"])  # insertion order must not matter
        for key in KEYS[:200]:
            assert a.lookup(key) == b.lookup(key)

    def test_all_nodes_get_keys(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        owners = {ring.lookup(key) for key in KEYS}
        assert owners == {"s0", "s1", "s2", "s3"}

    def test_add_remaps_about_one_over_n(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        before = {key: ring.lookup(key) for key in KEYS}
        ring.add("s4")
        after = {key: ring.lookup(key) for key in KEYS}
        moved = [key for key in KEYS if after[key] != before[key]]
        # Ideal is 1/5 of the space; allow generous slack for vnode noise
        # but stay well below the 1/2 a naive mod-N rehash would move.
        assert 0.05 < len(moved) / len(KEYS) < 0.40
        # Every moved key moved *onto* the new node, nowhere else.
        assert all(after[key] == "s4" for key in moved)

    def test_remove_only_moves_the_dead_nodes_keys(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        before = {key: ring.lookup(key) for key in KEYS}
        ring.remove("s2")
        for key in KEYS:
            after = ring.lookup(key)
            if before[key] != "s2":
                assert after == before[key]
            else:
                assert after != "s2"

    def test_add_is_idempotent_and_remove_unknown_is_noop(self):
        ring = HashRing(["s0"], vnodes=8)
        ring.add("s0")
        ring.remove("ghost")
        assert len(ring) == 1 and "s0" in ring
        assert len(ring._points) == 8

    def test_empty_ring_raises(self):
        with pytest.raises(KeyError):
            HashRing().lookup("anyone")
        with pytest.raises(ValueError):
            HashRing(vnodes=0)


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        self.now = 0.0
        return CircuitBreaker(clock=lambda: self.now, **kwargs)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = self._breaker(threshold=3, reset_after=10.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_run(self):
        breaker = self._breaker(threshold=2, reset_after=10.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_then_close(self):
        breaker = self._breaker(threshold=1, reset_after=5.0)
        breaker.record_failure()
        assert breaker.state == "open"
        self.now = 5.0
        assert breaker.state == "half-open" and breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.failures == 0

    def test_failed_probe_rearms_the_window(self):
        breaker = self._breaker(threshold=1, reset_after=5.0)
        breaker.record_failure()
        self.now = 5.0
        assert breaker.state == "half-open"
        breaker.record_failure()
        assert breaker.state == "open"
        self.now = 9.9
        assert breaker.state == "open"
        self.now = 10.0
        assert breaker.state == "half-open"

    def test_force_open_latches_across_the_reset_window(self):
        breaker = self._breaker(threshold=3, reset_after=5.0)
        breaker.force_open()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1
        # The reset window elapsing must NOT half-open a forced breaker:
        # a shard mid-restart gets no probe traffic.
        self.now = 50.0
        assert breaker.state == "open" and not breaker.allow()

    def test_success_does_not_clear_a_forced_breaker(self):
        # A concurrent health check recording a success (e.g. the probe
        # that raced the crash) must not un-latch the supervisor's hold.
        breaker = self._breaker(threshold=1, reset_after=1.0)
        breaker.force_open()
        breaker.record_success()
        assert breaker.state == "open" and breaker.forced
        breaker.force_close()
        assert breaker.state == "closed" and not breaker.forced
        assert breaker.failures == 0

    def test_force_open_is_idempotent_and_counts_one_trip(self):
        breaker = self._breaker()
        breaker.force_open()
        breaker.force_close()
        breaker.force_open()
        breaker.force_open()
        assert breaker.trips == 2
        assert breaker.to_dict()["forced"] is True

    def test_force_close_reopens_on_fresh_failures(self):
        breaker = self._breaker(threshold=2, reset_after=5.0)
        breaker.force_open()
        breaker.force_close()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"


def _shard_config(**overrides) -> ServiceConfig:
    defaults = dict(policy="8-unit", capacity_bytes=64 * 1024,
                    retry_after=0.01, check_level="light")
    defaults.update(overrides)
    return ServiceConfig(**defaults)


async def _fleet(count: int):
    """Start *count* in-process shard services plus a router over them."""
    shards = []
    for _ in range(count):
        service = CacheService(_shard_config())
        await service.start()
        shards.append(service)
    router = ServiceRouter(RouterConfig(
        shards={f"shard-{i}": ("127.0.0.1", shard.port)
                for i, shard in enumerate(shards)},
        breaker_threshold=2, breaker_reset=0.2, retry_after=0.01,
    ))
    await router.start()
    return router, shards


async def _teardown(router, shards):
    await router.aclose()
    for shard in shards:
        await shard.drain()


class TestRouterProxy:
    def test_tenants_land_on_their_ring_shard(self):
        async def scenario():
            router, shards = await _fleet(2)
            try:
                tenants = [f"tenant-{i}" for i in range(6)]
                for tenant in tenants:
                    client = await ServiceClient.connect(
                        "127.0.0.1", router.port
                    )
                    greeting = await client.hello(
                        tenant, block_sizes=[512] * 16
                    )
                    assert greeting["ok"], greeting
                    assert (await client.access(list(range(16))))["ok"]
                    stats = await client.stats()
                    assert stats["tenant"]["accesses"] == 16
                    assert (await client.close_session())["ok"]
                    await client.aclose()
                # Each tenant's session ran on exactly the shard the
                # ring names — no shard saw a tenant it does not own.
                for index, shard in enumerate(shards):
                    expected = {t for t in tenants
                                if router.route(t) == f"shard-{index}"}
                    seen = {s.name for s in shard.arena.tenants()}
                    assert seen == expected
                assert router.routed_connections == len(tenants)
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_ping_is_answered_locally_with_topology(self):
        async def scenario():
            router, shards = await _fleet(2)
            try:
                client = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                reply = await client.ping()
                assert reply["ok"]
                assert set(reply["router"]["shards"]) == {
                    "shard-0", "shard-1"
                }
                await client.aclose()
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_non_hello_before_routing_is_rejected(self):
        async def scenario():
            router, shards = await _fleet(1)
            try:
                client = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                reply = await client.request(
                    {"op": "access", "sids": [1]}
                )
                assert reply["error"] == protocol.ERR_NO_SESSION
                await client.aclose()
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_access_lines_relay_undecoded_and_others_decoded(self):
        """A line with the access prefix is relayed as it is, so a
        malformed one gets the worker's ``bad-request`` and the session
        carries on; a hand-ordered access line, which lacks the prefix,
        is decoded by the router and relayed too."""
        async def scenario():
            router, shards = await _fleet(1)
            try:
                client = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                assert (await client.hello(
                    "t", block_sizes=[512] * 4))["ok"]

                async def raw(line: bytes) -> dict:
                    client._writer.write(line)
                    await client._writer.drain()
                    return protocol.decode_line(
                        await client._reader.readline())

                reply = await raw(protocol.ACCESS_PREFIX + b'"sids":[0,\n')
                assert reply["error"] == protocol.ERR_BAD_REQUEST
                assert "undecodable" in reply["detail"]
                reply = await raw(
                    b'{"sids":[0],"op":"access","seq":1,"sync":true}\n')
                assert reply == protocol.ok("access", queued_batches=0)
                reply = await client.access([1, 0], seq=2, sync=True)
                assert reply["ok"]
                stats = await client.stats()
                assert stats["tenant"]["accesses"] == 3
                assert stats["tenant"]["hits"] == 1
                assert router.relay_failures == 0
                await client.aclose()
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_dead_shard_fails_fast_and_opens_breaker(self):
        async def scenario():
            router, shards = await _fleet(2)
            try:
                tenant = "tenant-0"
                target = router.route(tenant)
                victim = shards[int(target.split("-")[1])]
                await victim.drain()  # the worker dies

                async def try_hello() -> dict:
                    client = await ServiceClient.connect(
                        "127.0.0.1", router.port
                    )
                    try:
                        return await client.hello(
                            tenant, block_sizes=[512] * 4
                        )
                    finally:
                        await client.aclose()

                first = await try_hello()
                assert first["error"] == protocol.ERR_SHARD_UNAVAILABLE
                assert first["retry_after"] > 0
                second = await try_hello()
                assert second["error"] == protocol.ERR_SHARD_UNAVAILABLE
                assert router.breakers[target].state == "open"
                # With the circuit open the rejection is immediate —
                # no connect attempt — but the same error shape.
                third = await try_hello()
                assert "circuit open" in third["detail"]
                assert router.rejected_connections == 3
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_health_check_feeds_breakers(self):
        async def scenario():
            router, shards = await _fleet(2)
            try:
                health = await router.check_shards()
                assert health == {"shard-0": True, "shard-1": True}
                await shards[1].drain()
                health = await router.check_shards()
                assert health["shard-0"] and not health["shard-1"]
                assert router.breakers["shard-1"].failures == 1
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_route_fault_surfaces_as_shard_unavailable(self):
        async def scenario():
            router, shards = await _fleet(1)
            try:
                with faults.plan(faults.FaultSpec(point="router.route",
                                                  keys=("tenant-0",))):
                    client = await ServiceClient.connect(
                        "127.0.0.1", router.port
                    )
                    reply = await client.hello(
                        "tenant-0", block_sizes=[512] * 4
                    )
                    await client.aclose()
                assert reply["error"] == protocol.ERR_SHARD_UNAVAILABLE
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_shard_death_mid_request_reports_shard_unavailable(self):
        async def scenario():
            # A shard that greets, then dies without answering the next
            # request — the torn-mid-request case a graceful drain never
            # produces.
            async def half_dead(reader, writer):
                line = await reader.readline()
                if line:
                    message = protocol.decode_line(line)
                    writer.write(protocol.encode(protocol.ok(
                        "hello", tenant=message.get("tenant")
                    )))
                    await writer.drain()
                await reader.readline()
                writer.close()

            shard = await asyncio.start_server(
                half_dead, "127.0.0.1", 0
            )
            port = shard.sockets[0].getsockname()[1]
            router = ServiceRouter(RouterConfig(
                shards={"shard-0": ("127.0.0.1", port)},
                breaker_threshold=2, retry_after=0.01,
            ))
            await router.start()
            try:
                client = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                greeting = await client.hello(
                    "tenant-0", block_sizes=[512] * 8
                )
                assert greeting["ok"]
                reply = await client.stats()
                assert reply["error"] == protocol.ERR_SHARD_UNAVAILABLE
                assert "mid-request" in reply["detail"]
                assert reply["retry_after"] > 0
                assert router.relay_failures == 1
                assert router.breakers["shard-0"].failures == 1
                await client.aclose()
            finally:
                await router.aclose()
                shard.close()
                await shard.wait_closed()

        asyncio.run(scenario())


class TestAdminOp:
    def test_topology_and_health_answer_locally(self):
        async def scenario():
            router, shards = await _fleet(2)
            try:
                client = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                reply = await client.request(
                    {"op": "admin", "action": "topology"}
                )
                assert reply["ok"]
                assert set(reply["router"]["shards"]) == {
                    "shard-0", "shard-1"
                }
                reply = await client.request(
                    {"op": "admin", "action": "health"}
                )
                assert reply["ok"]
                assert reply["health"] == {"shard-0": True,
                                           "shard-1": True}
                assert router.admin_requests == 2
                await client.aclose()
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_unknown_action_and_bad_remove_are_rejected(self):
        async def scenario():
            router, shards = await _fleet(1)
            try:
                client = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                reply = await client.request(
                    {"op": "admin", "action": "explode"}
                )
                assert reply["error"] == protocol.ERR_BAD_REQUEST
                reply = await client.request(
                    {"op": "admin", "action": "remove-shard",
                     "shard": "ghost"}
                )
                assert reply["error"] == protocol.ERR_BAD_REQUEST
                await client.aclose()
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())

    def test_add_shard_with_explicit_endpoint_joins_the_ring(self):
        async def scenario():
            router, shards = await _fleet(1)
            extra = CacheService(_shard_config())
            await extra.start()
            try:
                client = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                reply = await client.request(
                    {"op": "admin", "action": "add-shard",
                     "shard": "shard-1", "host": "127.0.0.1",
                     "port": extra.port}
                )
                assert reply["ok"], reply
                assert reply["shards"] == ["shard-0", "shard-1"]
                assert "shard-1" in router.ring
                assert "shard-1" in router.breakers
                dup = await client.request(
                    {"op": "admin", "action": "add-shard",
                     "shard": "shard-1", "host": "127.0.0.1",
                     "port": extra.port}
                )
                assert dup["error"] == protocol.ERR_BAD_REQUEST
                await client.aclose()
            finally:
                await _teardown(router, shards)
                await extra.drain()

        asyncio.run(scenario())

    def test_live_remove_drains_and_redirects_the_pinned_session(self):
        async def scenario():
            router, shards = await _fleet(2)
            try:
                # Find a tenant on each shard so the removal moves one.
                by_shard = {}
                for key in KEYS:
                    by_shard.setdefault(router.route(key), key)
                    if len(by_shard) == 2:
                        break
                moved = by_shard["shard-1"]
                client = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                greeting = await client.hello(
                    moved, block_sizes=[512] * 16
                )
                assert greeting["ok"]
                assert (await client.access(list(range(16))))["ok"]

                admin = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                reply = await admin.request(
                    {"op": "admin", "action": "remove-shard",
                     "shard": "shard-1"}
                )
                assert reply["ok"] and reply["shards"] == ["shard-0"]
                await admin.aclose()

                # The pinned session's next request is redirected, and
                # the old shard flushed + detached the tenant (drained).
                bounced = await client.request(
                    {"op": "access", "sids": [0]}
                )
                assert bounced["error"] == protocol.ERR_SHARD_MOVED
                assert bounced["retry_after"] > 0
                assert router.redirected_sessions == 1
                assert all(s.name != moved or s.detached
                           for s in shards[1].arena.tenants())

                # Reconnecting through the router reaches the new owner.
                retry = await ServiceClient.connect(
                    "127.0.0.1", router.port
                )
                again = await retry.hello(moved, block_sizes=[512] * 16)
                assert again["ok"]
                assert {s.name for s in shards[0].arena.tenants()} >= {
                    moved
                }
                await retry.aclose()
                await client.aclose()
            finally:
                await _teardown(router, shards)

        asyncio.run(scenario())


class TestTopologyChanges:
    def test_add_and_remove_shard_keep_ring_consistent(self):
        router = ServiceRouter(RouterConfig(
            shards={"s0": ("127.0.0.1", 1), "s1": ("127.0.0.1", 2)}
        ))
        before = {key: router.route(key) for key in KEYS[:500]}
        router.add_shard("s2", "127.0.0.1", 3)
        moved = sum(1 for key in KEYS[:500]
                    if router.route(key) != before[key])
        assert 0 < moved < 250  # ~1/3 expected, far below 1/2
        assert "s2" in router.breakers
        router.remove_shard("s2")
        assert "s2" not in router.breakers
        assert all(router.route(key) == before[key]
                   for key in KEYS[:500])
