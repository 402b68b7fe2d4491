"""ShardSupervisor: probe rounds, WAL heartbeats, breaker-bracketed
auto-restart, and the skip rules (retired shards, external endpoints).

Most tests drive ``check_once`` against in-process ``CacheService``
endpoints behind a fake pool — the supervisor only sees ``workers``,
``alive`` and ``restart`` — so the probe/threshold/breaker logic is
exercised without subprocess latency.  One integration test SIGKILLs a
real worker and watches the supervisor bring it back through recovery.
"""

import asyncio

from repro.service.pool import WorkerPool
from repro.service.router import RouterConfig, ServiceRouter
from repro.service.server import CacheService, ServiceConfig
from repro.service.supervisor import ShardSupervisor


class FakeHandle:
    def __init__(self, host: str, port: int, alive: bool = True) -> None:
        self.host = host
        self.port = port
        self.alive = alive


class FakePool:
    """Just enough pool for the supervisor: workers + restart."""

    def __init__(self) -> None:
        self.workers: dict[str, FakeHandle] = {}
        self.restarted: list[str] = []
        self.breaker_state_during_restart: list[str] = []
        self.router: ServiceRouter | None = None
        self.fail_restarts = False

    async def restart(self, shard_id: str) -> None:
        self.restarted.append(shard_id)
        if self.router is not None:
            self.breaker_state_during_restart.append(
                self.router.breakers[shard_id].state
            )
        if self.fail_restarts:
            raise RuntimeError("replacement never came up")
        self.workers[shard_id].alive = True


async def _shard_service(tmp_path, name: str) -> CacheService:
    service = CacheService(ServiceConfig(
        policy="8-unit", capacity_bytes=64 * 1024, retry_after=0.01,
        check_level="light", snapshot_dir=str(tmp_path / name),
    ))
    await service.start()
    return service


async def _fleet(tmp_path, shard_ids, **supervisor_options):
    """(services, pool, router, supervisor) over in-process shards."""
    services = {}
    pool = FakePool()
    for shard_id in shard_ids:
        service = await _shard_service(tmp_path, shard_id)
        services[shard_id] = service
        pool.workers[shard_id] = FakeHandle("127.0.0.1", service.port)
    router = ServiceRouter(RouterConfig(shards={
        shard: (handle.host, handle.port)
        for shard, handle in pool.workers.items()
    }))
    pool.router = router
    supervisor = ShardSupervisor(pool, router, **supervisor_options)
    return services, pool, router, supervisor


class TestProbeRound:
    def test_healthy_round_records_wal_heartbeats(self, tmp_path):
        async def scenario():
            services, pool, router, supervisor = await _fleet(
                tmp_path, ["shard-0", "shard-1"]
            )
            session = services["shard-0"].open_session(
                "t", block_sizes=[512] * 8
            )
            session.submit([0, 1, 2], seq=1)
            await session.flush()
            health = await supervisor.check_once()
            assert health == {"shard-0": True, "shard-1": True}
            assert supervisor.restarts == 0
            beats = supervisor.heartbeats
            # The heartbeat carries the durability watermark: the
            # streamed shard's WAL moved (attach + access), the idle
            # shard's did not.
            assert (beats["shard-0"]["wal_seq"]
                    == services["shard-0"].persister.wal_seq > 0)
            assert beats["shard-1"]["wal_seq"] == 0
            for service in services.values():
                await service.drain()

        asyncio.run(scenario())

    def test_external_endpoints_are_not_supervised(self, tmp_path):
        async def scenario():
            services, pool, router, supervisor = await _fleet(
                tmp_path, ["shard-0"]
            )
            # A routed shard the pool does not own (an externally
            # managed endpoint) is probed by nobody.
            router.add_shard("external", "127.0.0.1", 1)
            health = await supervisor.check_once()
            assert health == {"shard-0": True}
            assert supervisor.restarts == 0
            await services["shard-0"].drain()

        asyncio.run(scenario())

    def test_retired_shard_is_skipped_not_restarted(self, tmp_path):
        async def scenario():
            services, pool, router, supervisor = await _fleet(
                tmp_path, ["shard-0", "shard-1"]
            )
            # Live remove-shard retired shard-1; its worker going away
            # is expected, not a crash to heal.
            router.remove_shard("shard-1")
            pool.workers["shard-1"].alive = False
            health = await supervisor.check_once()
            assert health == {"shard-0": True}
            assert pool.restarted == []
            for service in services.values():
                await service.drain()

        asyncio.run(scenario())


class TestHealing:
    def test_dead_process_restarts_immediately_with_breaker_bracket(
            self, tmp_path):
        async def scenario():
            services, pool, router, supervisor = await _fleet(
                tmp_path, ["shard-0", "shard-1"], fail_threshold=5
            )
            pool.workers["shard-0"].alive = False
            health = await supervisor.check_once()
            # Dead process: no fail_threshold grace, restarted in the
            # same round, with the breaker forced open throughout the
            # restart and closed again after.
            assert health["shard-0"] is False
            assert pool.restarted == ["shard-0"]
            assert pool.breaker_state_during_restart == ["open"]
            assert router.breakers["shard-0"].state == "closed"
            assert supervisor.restarts == 1
            assert supervisor.events[-1]["event"] == "restarted"
            assert supervisor.events[-1]["seconds"] >= 0
            for service in services.values():
                await service.drain()

        asyncio.run(scenario())

    def test_mute_but_live_shard_needs_consecutive_failures(
            self, tmp_path):
        async def scenario():
            # A server that accepts connections and never answers: the
            # process is alive, the event loop is (as far as the probe
            # can tell) hung.
            async def mute(reader, writer):
                await reader.read()

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            pool = FakePool()
            pool.workers["shard-0"] = FakeHandle("127.0.0.1", port)
            router = ServiceRouter(RouterConfig(
                shards={"shard-0": ("127.0.0.1", port)}
            ))
            pool.router = router
            supervisor = ShardSupervisor(pool, router,
                                         probe_timeout=0.1,
                                         fail_threshold=2)
            assert (await supervisor.check_once()) == {"shard-0": False}
            assert pool.restarted == []  # one miss is not a verdict
            assert (await supervisor.check_once()) == {"shard-0": False}
            assert pool.restarted == ["shard-0"]
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_failed_restart_leaves_the_breaker_forced_open(
            self, tmp_path):
        async def scenario():
            services, pool, router, supervisor = await _fleet(
                tmp_path, ["shard-0"]
            )
            pool.workers["shard-0"].alive = False
            pool.fail_restarts = True
            await supervisor.check_once()
            # The shard could not come back: clients must keep getting
            # fast rejections, and the failure is on the record.
            assert supervisor.restart_failures == 1
            assert supervisor.restarts == 0
            assert router.breakers["shard-0"].state == "open"
            assert supervisor.events[-1]["event"] == "restart-failed"
            # The next round tries again; this time it heals and the
            # forced breaker is released.
            pool.fail_restarts = False
            await supervisor.check_once()
            assert supervisor.restarts == 1
            assert router.breakers["shard-0"].state == "closed"
            await services["shard-0"].drain()

        asyncio.run(scenario())


class TestLifecycle:
    def test_stop_ends_the_loop_despite_a_swallowed_cancellation(self):
        async def scenario():
            supervisor = ShardSupervisor(FakePool(), None, interval=0.01)
            probing = asyncio.Event()
            swallowed = []

            async def probe_round():
                probing.set()
                try:
                    await asyncio.sleep(3600)
                except asyncio.CancelledError:
                    # What asyncio.wait_for does before Python 3.12 when
                    # the cancel lands as a probe completes.
                    if swallowed:
                        raise
                    swallowed.append(True)
                return {}

            supervisor.check_once = probe_round
            await supervisor.start()
            task = supervisor._task
            await probing.wait()
            # asyncio.wait, unlike wait_for, never cancels the stop()
            # it waits on, so a stop() that hangs shows as not done.
            stopping = asyncio.ensure_future(supervisor.stop())
            done, _ = await asyncio.wait({stopping}, timeout=2.0)
            assert stopping in done, "stop() hung after a swallowed cancel"
            assert swallowed
            assert task.done()

        asyncio.run(scenario())


class TestRealWorkerIntegration:
    def test_sigkilled_worker_is_healed_through_recovery(self, tmp_path):
        async def scenario():
            pool = WorkerPool(1, tmp_path / "fleet",
                              capacity_bytes=64 * 1024)
            await pool.start()
            router = ServiceRouter(RouterConfig(shards=pool.endpoints()))
            supervisor = ShardSupervisor(pool, router)
            try:
                assert (await supervisor.check_once()) == {
                    "shard-0": True
                }
                port_before = pool.workers["shard-0"].port
                await pool.kill("shard-0")
                await supervisor.check_once()
                assert supervisor.restarts == 1
                handle = pool.workers["shard-0"]
                assert handle.alive
                # Healed in place: same address, answering probes.
                assert handle.port == port_before
                assert (await supervisor.check_once()) == {
                    "shard-0": True
                }
                assert router.breakers["shard-0"].state == "closed"
            finally:
                await pool.stop()

        asyncio.run(scenario())
