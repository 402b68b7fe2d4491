"""Client-side survival: retry/backoff honouring ``retry_after``,
endpoint failover, exactly-once resend decisions, and riding through a
real worker kill-and-restart."""

import asyncio
import time

import pytest

from repro.core.cache import ConfigurationError
from repro.service import protocol
from repro.service.client import (
    ResilientClient,
    ServiceClient,
    ServiceUnavailable,
)
from repro.service.pool import WorkerPool
from repro.service.server import CacheService, ServiceConfig, TokenBucket


def _service(**overrides) -> CacheService:
    defaults = dict(policy="8-unit", capacity_bytes=64 * 1024,
                    retry_after=0.01, check_level="light")
    defaults.update(overrides)
    return CacheService(ServiceConfig(**defaults))


async def _dead_port() -> int:
    """A port that was just freed — connecting to it is refused."""
    server = await asyncio.start_server(
        lambda r, w: None, "127.0.0.1", 0
    )
    port = server.sockets[0].getsockname()[1]
    server.close()
    await server.wait_closed()
    return port


class ScriptedShard:
    """A shard whose per-connection behaviour is a script: each entry
    is a list of steps for one connection, each step an ``(expect_op,
    reply_or_None)`` pair — ``None`` means slam the connection shut."""

    def __init__(self, script):
        self.script = list(script)
        self.connection = 0
        self.requests: list[dict] = []
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self):
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer):
        steps = self.script[self.connection % len(self.script)]
        self.connection += 1
        for expect_op, reply in steps:
            line = await reader.readline()
            if not line:
                break
            message = protocol.decode_line(line)
            self.requests.append(message)
            assert message.get("op") == expect_op, message
            if reply is None:
                break  # crash mid-request: no response at all
            writer.write(protocol.encode(reply))
            await writer.drain()
        writer.close()


def _ok_hello(applied_seq=0, resumed=False):
    return protocol.ok("hello", tenant="t", resumed=resumed,
                       applied_seq=applied_seq)


class TestTokenBucket:
    def test_burst_then_refill_math(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.take(5) == 0.0
        wait = bucket.take(5)
        assert 0.4 < wait <= 0.5  # (5 - ~0) / 10
        time.sleep(0.25)
        assert bucket.take(2) == 0.0  # ~2.5 tokens refilled

    def test_bucket_never_exceeds_burst(self):
        bucket = TokenBucket(rate=1000.0, burst=4.0)
        time.sleep(0.02)  # would be 20 tokens uncapped
        assert bucket.take(4) == 0.0
        assert bucket.take(4) > 0.0

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=5.0, burst=-1.0)


class TestRateLimiting:
    def test_over_budget_batch_rejected_with_retry_after(self):
        async def scenario():
            service = _service(rate_limit=50.0, rate_burst=32.0)
            await service.start()
            client = await ServiceClient.connect(
                "127.0.0.1", service.port
            )
            assert (await client.hello(
                "t", block_sizes=[512] * 32))["ok"]
            assert (await client.request(
                {"op": "access", "sids": list(range(32))}))["ok"]
            reply = await client.request(
                {"op": "access", "sids": list(range(32))}
            )
            assert reply["error"] == protocol.ERR_RATE_LIMITED
            assert reply["retry_after"] > 0
            assert service.rate_limited_batches == 1
            assert service.describe()["rate_limited_batches"] == 1
            await client.aclose()
            await service.drain()

        asyncio.run(scenario())

    def test_client_retry_honours_retry_after(self):
        async def scenario():
            service = _service(rate_limit=400.0, rate_burst=64.0)
            await service.start()
            client = ResilientClient(
                [("127.0.0.1", service.port)], "t",
                block_sizes=[512] * 64,
            )
            assert (await client.connect())["ok"]
            started = time.monotonic()
            assert (await client.access(list(range(64))))["ok"]
            reply = await client.access(list(range(64)))
            elapsed = time.monotonic() - started
            assert reply["ok"]
            assert client.retried_requests >= 1
            # The second batch had to wait out the bucket: 64 tokens at
            # 400/s is 160ms of refill it cannot skip.
            assert elapsed >= 0.1
            await client.aclose()
            await service.drain()

        asyncio.run(scenario())


class TestFailover:
    def test_walks_past_dead_endpoint(self):
        async def scenario():
            dead = await _dead_port()
            service = _service()
            await service.start()
            client = ResilientClient(
                [("127.0.0.1", dead), ("127.0.0.1", service.port)],
                "t", block_sizes=[512] * 8, reconnect_backoff=0.01,
            )
            greeting = await client.connect()
            assert greeting["ok"]
            assert client.endpoint == ("127.0.0.1", service.port)
            assert (await client.access(list(range(8))))["ok"]
            farewell = await client.close_session()
            assert farewell["tenant"]["accesses"] == 8
            await service.drain()

        asyncio.run(scenario())

    def test_all_endpoints_dead_exhausts_into_service_unavailable(self):
        async def scenario():
            ports = [await _dead_port(), await _dead_port()]
            client = ResilientClient(
                [("127.0.0.1", port) for port in ports], "t",
                block_sizes=[512] * 4, max_retries=4,
                reconnect_backoff=0.01,
            )
            with pytest.raises(ServiceUnavailable, match="4 attempts"):
                await client.connect()

        asyncio.run(scenario())

    def test_access_exhaustion_raises_service_unavailable(self):
        async def scenario():
            # Every connection greets, then rejects the batch as
            # rate-limited forever: the per-request retry budget must
            # eventually give up rather than spin.
            shard = ScriptedShard([[
                ("hello", _ok_hello()),
                ("access", protocol.error(
                    "access", protocol.ERR_RATE_LIMITED, "always",
                    retry_after=0.001)),
                ("access", protocol.error(
                    "access", protocol.ERR_RATE_LIMITED, "always",
                    retry_after=0.001)),
                ("access", protocol.error(
                    "access", protocol.ERR_RATE_LIMITED, "always",
                    retry_after=0.001)),
            ]])
            port = await shard.start()
            client = ResilientClient(
                [("127.0.0.1", port)], "t", block_sizes=[512] * 4,
                max_retries=3, reconnect_backoff=0.01,
            )
            await client.connect()
            with pytest.raises(ServiceUnavailable, match="seq=1"):
                await client.access([0, 1])
            assert client.retried_requests >= 3
            await client.aclose()
            await shard.aclose()

        asyncio.run(scenario())


class TestRetryBudget:
    """One failure budget per public call: failures spend it, successful
    round trips do not."""

    @pytest.mark.parametrize("budget", [3, 8])
    def test_connect_sends_one_hello_per_attempt(self, budget):
        async def scenario():
            # A server that keeps the connection open and rejects every
            # hello as overloaded, however often it is asked.
            overloaded = protocol.error(
                "hello", protocol.ERR_OVERLOADED, "full",
                retry_after=0.001)
            shard = ScriptedShard([[("hello", overloaded)] * 100])
            port = await shard.start()
            client = ResilientClient(
                [("127.0.0.1", port)], "t", block_sizes=[512] * 4,
                max_retries=budget, reconnect_backoff=0.001,
            )
            with pytest.raises(ServiceUnavailable,
                               match=f" {budget} attempts"):
                await client.connect()
            await shard.aclose()
            assert [m["op"] for m in shard.requests] == ["hello"] * budget
            assert client.retried_requests == budget

        asyncio.run(scenario())

    def test_history_longer_than_the_budget_replays_in_full(self):
        async def scenario():
            # Five acked batches, then the connection dies with the
            # sixth in flight; the shard comes back fresh.  Rebuilding
            # takes five successful round trips, more than the budget
            # of three, and must spend none of it.
            acked = ("access", protocol.ok("access", queued_batches=0))
            shard = ScriptedShard([
                [("hello", _ok_hello())] + [acked] * 5 + [("access", None)],
                [("hello", _ok_hello(applied_seq=0, resumed=False))]
                + [acked] * 6,
            ])
            port = await shard.start()
            client = ResilientClient(
                [("127.0.0.1", port)], "t", block_sizes=[512] * 8,
                max_retries=3, reconnect_backoff=0.01,
            )
            await client.connect()
            for index in range(6):
                assert (await client.access([index]))["ok"]
            assert client.replayed_batches == 5
            assert client.reconnects == 1
            sent = [m["seq"] for m in shard.requests if m["op"] == "access"]
            assert sent == [1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6]
            await client.aclose()
            await shard.aclose()

        asyncio.run(scenario())


class TestExactlyOnceClient:
    def test_acked_batch_lost_ack_is_not_resent(self):
        async def scenario():
            # Connection 1: greet, then die on the access without
            # acking.  Connection 2: the resumed hello reports the
            # batch already applied — the client must skip the resend.
            shard = ScriptedShard([
                [("hello", _ok_hello()), ("access", None)],
                [("hello", _ok_hello(applied_seq=1, resumed=True))],
            ])
            port = await shard.start()
            client = ResilientClient(
                [("127.0.0.1", port)], "t", block_sizes=[512] * 4,
                reconnect_backoff=0.01,
            )
            await client.connect()
            response = await client.access([0, 1, 2])
            assert response.get("deduped")
            assert client.resends_skipped == 1
            assert client.reconnects == 1
            assert client.applied_seq == 1
            await client.aclose()
            # Both hellos asked to resume.
            hellos = [m for m in shard.requests if m["op"] == "hello"]
            assert all(m.get("resume") for m in hellos)
            await shard.aclose()

        asyncio.run(scenario())

    def test_unacked_unlogged_batch_is_resent(self):
        async def scenario():
            # The crash ate the batch before the WAL saw it: the resumed
            # watermark is still 0, so the client must resend seq=1.
            shard = ScriptedShard([
                [("hello", _ok_hello()), ("access", None)],
                [("hello", _ok_hello()),
                 ("access", protocol.ok("access", queued_batches=0))],
            ])
            port = await shard.start()
            client = ResilientClient(
                [("127.0.0.1", port)], "t", block_sizes=[512] * 4,
                reconnect_backoff=0.01,
            )
            await client.connect()
            response = await client.access([0, 1, 2])
            assert response["ok"] and not response.get("deduped")
            assert client.resends_skipped == 0
            assert client.reconnects == 1
            sent = [m for m in shard.requests if m["op"] == "access"]
            assert [m["seq"] for m in sent] == [1, 1]  # original + resend
            await client.aclose()
            await shard.aclose()

        asyncio.run(scenario())

    def test_parked_session_error_triggers_reconnect(self):
        async def scenario():
            # The server parked the session after a loss the client
            # never saw: no-session on access must mean reconnect and
            # resume, not failure.
            shard = ScriptedShard([
                [("hello", _ok_hello()),
                 ("access", protocol.error(
                     "access", protocol.ERR_NO_SESSION, "parked"))],
                [("hello", _ok_hello(resumed=True)),
                 ("access", protocol.ok("access", queued_batches=0))],
            ])
            port = await shard.start()
            client = ResilientClient(
                [("127.0.0.1", port)], "t", block_sizes=[512] * 4,
                reconnect_backoff=0.01,
            )
            await client.connect()
            assert (await client.access([0]))["ok"]
            assert client.reconnects == 1
            await client.aclose()
            await shard.aclose()

        asyncio.run(scenario())


class TestHistoryReplay:
    def test_fresh_reattach_replays_acked_history(self):
        async def scenario():
            # The shard comes back with its durable state gone (total
            # storage loss): the replacement greets *fresh*, not
            # resumed.  The client must rebuild it — replay every acked
            # batch, then resend the one in flight.
            shard = ScriptedShard([
                [("hello", _ok_hello()),
                 ("access", protocol.ok("access", queued_batches=0)),
                 ("access", None)],
                [("hello", _ok_hello(applied_seq=0, resumed=False)),
                 ("access", protocol.ok("access", queued_batches=0)),
                 ("access", protocol.ok("access", queued_batches=0))],
            ])
            port = await shard.start()
            client = ResilientClient(
                [("127.0.0.1", port)], "t", block_sizes=[512] * 4,
                reconnect_backoff=0.01,
            )
            await client.connect()
            assert (await client.access([0, 1]))["ok"]
            assert (await client.access([2, 3]))["ok"]
            assert client.reconnects == 1
            assert client.replayed_batches == 1
            sent = [(m["seq"], m["sids"]) for m in shard.requests
                    if m["op"] == "access"]
            # seq=1 acked, seq=2 lost, then the replayed seq=1 and the
            # retried seq=2 — in order, on the fresh attachment.
            assert sent == [(1, [0, 1]), (2, [2, 3]),
                            (1, [0, 1]), (2, [2, 3])]
            await client.aclose()
            await shard.aclose()

        asyncio.run(scenario())

    def test_replay_needing_trimmed_history_refuses_loudly(self):
        async def scenario():
            # history_limit=1 keeps only the newest acked batch.  After
            # a fresh re-attach the rebuild would need seq=1, which was
            # trimmed — silently continuing would fabricate a tenant
            # whose stats are missing a batch, so the client refuses.
            shard = ScriptedShard([
                [("hello", _ok_hello()),
                 ("access", protocol.ok("access", queued_batches=0)),
                 ("access", protocol.ok("access", queued_batches=0)),
                 ("access", None)],
                [("hello", _ok_hello(applied_seq=0, resumed=False))],
            ])
            port = await shard.start()
            client = ResilientClient(
                [("127.0.0.1", port)], "t", block_sizes=[512] * 4,
                reconnect_backoff=0.01, history_limit=1,
            )
            await client.connect()
            assert (await client.access([0]))["ok"]
            assert (await client.access([1]))["ok"]
            with pytest.raises(ServiceUnavailable,
                               match="trimmed below seq 2"):
                await client.access([2])
            await client.aclose()
            await shard.aclose()

        asyncio.run(scenario())


class TestKillRestartRideThrough:
    """The satellite's acceptance test against a *real* worker process:
    SIGKILL it mid-stream, restart it over its snapshot + WAL, and the
    resilient client's stream must come out field-identical to an
    uninterrupted run."""

    def test_stream_survives_worker_sigkill(self, tmp_path):
        async def run_stream(root, kill_mid_stream: bool):
            pool = WorkerPool(1, root, capacity_bytes=64 * 1024,
                              snapshot_interval=400)
            await pool.start()
            try:
                endpoint = pool.endpoints()["shard-0"]
                client = ResilientClient(
                    [endpoint], "t", block_sizes=[512] * 32,
                    sync=True, reconnect_backoff=0.05,
                )
                await client.connect()
                batches = [
                    [(i * 7 + j) % 32 for j in range(64)]
                    for i in range(30)
                ]
                for index, batch in enumerate(batches):
                    if kill_mid_stream and index == 12:
                        await pool.kill("shard-0")
                        restart = asyncio.get_running_loop().create_task(
                            pool.restart("shard-0")
                        )
                    await client.access(batch)
                if kill_mid_stream:
                    await restart
                farewell = await client.close_session()
                return farewell["tenant"], client
            finally:
                await pool.stop()

        async def scenario():
            reference, _ = await run_stream(
                tmp_path / "reference", kill_mid_stream=False
            )
            survived, client = await run_stream(
                tmp_path / "drill", kill_mid_stream=True
            )
            assert client.reconnects >= 1
            assert survived == reference

        asyncio.run(scenario())
