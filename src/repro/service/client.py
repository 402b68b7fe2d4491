"""The service clients and the multi-tenant load harness.

:class:`ServiceClient` is a bare transport: one TCP connection, one
protocol session, one request/response round trip per call.  It never
retries; a rejection comes back as the server's error reply.

:class:`ResilientClient` is the one place that retries.  Every access
batch carries a monotonically-increasing per-tenant sequence number,
and when the connection dies (worker killed, shard restarted or
retired) the client walks its endpoint list, reconnects, re-hellos
with ``resume``, learns the server's ``applied_seq`` watermark from the
greeting, and resends the in-flight batch only if the crash actually
lost it; a greeting that comes back fresh instead of resumed makes it
replay its acknowledged history first.  Combined with the
server-side write-ahead log this is exactly-once end to end: a batch
the worker logged before dying is skipped on resend, and one it never
saw is replayed.  One retry loop with one error table does all of it,
under one failure budget per public call.

:func:`run_load` is the harness behind ``python -m repro.service load``:
N concurrent tenants, each replaying a registry benchmark's access
trace through its own connection into the shared arena, then reporting
per-tenant and unified miss rates plus throughput into
``BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.analysis.parallel import usable_cpus
from repro.service import protocol
from repro.workloads.registry import (
    build_workload,
    get_benchmark,
    spec_benchmarks,
)

DEFAULT_BATCH = 256
DEFAULT_RETRIES = 64


class ServiceUnavailable(RuntimeError):
    """The server kept rejecting after the retry budget was spent."""


class ServiceClient:
    """One protocol session over one TCP connection: a bare transport.

    Every method is exactly one round trip.  Retrying a rejection is
    :class:`ResilientClient`'s job.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    @classmethod
    async def request_once(cls, host: str, port: int,
                           message: dict) -> dict:
        """Connect, make one round trip, close (admin ops, pings)."""
        client = await cls.connect(host, port)
        try:
            return await client.request(message)
        finally:
            await client.aclose()

    async def request(self, message: dict) -> dict:
        """One request/response round trip."""
        self._writer.write(protocol.encode(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode_line(line)

    async def hello(self, tenant: str, benchmark: str | None = None,
                    block_sizes: list[int] | None = None,
                    scale: float | None = None,
                    quota_bytes: int | None = None,
                    weight: float | None = None,
                    resume: bool | None = None,
                    block_digests: list[str] | None = None) -> dict:
        message = {"op": "hello", "tenant": tenant}
        for key, value in (("benchmark", benchmark),
                           ("block_sizes", block_sizes), ("scale", scale),
                           ("quota_bytes", quota_bytes), ("weight", weight),
                           ("resume", resume),
                           ("block_digests", block_digests)):
            if value is not None:
                message[key] = value
        return await self.request(message)

    async def access(self, sids: list[int], seq: int | None = None,
                     sync: bool | None = None) -> dict:
        message = {"op": "access", "sids": list(sids)}
        if seq is not None:
            message["seq"] = seq
        if sync is not None:
            message["sync"] = sync
        return await self.request(message)

    async def stats(self) -> dict:
        return await self.request({"op": "stats"})

    async def close_session(self) -> dict:
        return await self.request({"op": "close"})

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass


#: The one error table: each rejection token the retry loop retries,
#: mapped to whether the retry also drops the connection and re-hellos
#: (the session or its shard is gone; through a router the new hello
#: reaches the tenant's current owner).  Any other rejection is the
#: call's answer — except a rejected hello, which is always retried on
#: the next endpoint.
_RETRY = {
    protocol.ERR_OVERLOADED: False,
    protocol.ERR_DRAINING: False,
    protocol.ERR_BACKPRESSURE: False,
    protocol.ERR_RATE_LIMITED: False,
    protocol.ERR_SHARD_UNAVAILABLE: True,
    protocol.ERR_SHARD_MOVED: True,
    protocol.ERR_NO_SESSION: True,
}


class _Failure(Exception):
    """One failed attempt: spends one retry, then backs off."""

    def __init__(self, detail: str, drop: bool,
                 wait: float | None = None) -> None:
        super().__init__(detail)
        self.drop = drop
        self.wait = wait


class ResilientClient:
    """One tenant's session that survives worker restarts and failover.

    *endpoints* is an ordered list of ``(host, port)`` pairs — shard
    workers, or routers fronting them.  The client sticks to one
    endpoint until it fails, then walks the list with backoff.  After
    every (re)connect it hellos with ``resume``: a persistence-enabled
    worker that recovered (or parked) the tenant re-adopts it and
    reports its ``applied_seq`` watermark, which decides whether the
    batch in flight when the connection died must be resent or was
    already applied and write-ahead logged.  The server deduplicates by
    sequence number regardless, so a conservative resend is safe.

    On top of crash resume the client keeps a *history* of every
    acknowledged batch.  When a greeting comes back **not** resumed —
    the tenant was attached fresh, which is what happens after a live
    ``remove-shard`` redirects the session to a new owner that has none
    of its state — the client replays its history past the new
    watermark before continuing, rebuilding the tenant's cache state
    and stats batch for batch.  ``history_limit``
    bounds the buffer (``None`` keeps everything); a replay that needs
    trimmed batches raises :class:`ServiceUnavailable` instead of
    silently rebuilding partial state.

    Each public call has one failure budget: every refused connect,
    lost connection or retryable rejection spends one of
    ``max_retries`` and backs off (the server's ``retry_after`` hint,
    else ``reconnect_backoff`` times the failures so far, capped at
    8×); successful round trips, replayed batches included, spend
    nothing.  The call raises :class:`ServiceUnavailable` when the
    budget runs out.
    """

    def __init__(self, endpoints: list[tuple[str, int]], tenant: str,
                 block_sizes: list[int] | None = None,
                 benchmark: str | None = None, scale: float | None = None,
                 quota_bytes: int | None = None,
                 weight: float | None = None,
                 max_retries: int = DEFAULT_RETRIES,
                 reconnect_backoff: float = 0.05,
                 sync: bool = False,
                 block_digests: list[str] | None = None,
                 history_limit: int | None = None) -> None:
        if not endpoints:
            raise ValueError("ResilientClient needs at least one endpoint")
        self.endpoints = list(endpoints)
        self.tenant = tenant
        self.block_sizes = block_sizes
        self.block_digests = block_digests
        self.benchmark = benchmark
        self.scale = scale
        self.quota_bytes = quota_bytes
        self.weight = weight
        self.max_retries = max_retries
        self.reconnect_backoff = reconnect_backoff
        self.sync = sync
        self.next_seq = 1
        #: The server-confirmed exactly-once watermark.
        self.applied_seq = 0
        self.reconnects = 0
        self.resends_skipped = 0
        self.replayed_batches = 0
        #: Requests the server rejected with a retryable error.
        self.retried_requests = 0
        self.endpoint: tuple[str, int] | None = None
        self._client: ServiceClient | None = None
        self._endpoint_index = 0
        self.history_limit = history_limit
        #: Every acknowledged ``(seq, sids)`` batch, oldest first —
        #: the replay source after a fresh (non-resumed) re-attach.
        self._history: list[tuple[int, list[int]]] = []
        #: Highest seq dropped from history by ``history_limit``.
        self._trimmed_below = 0
        #: History a fresh greeting's watermark left unapplied.
        self._owed: list[tuple[int, list[int]]] = []

    async def connect(self) -> dict:
        """Connect (or reconnect) and open/resume the session."""
        if self._client is not None:
            return {"ok": True, "op": "hello", "cached": True}
        return await self._call(None, "connect")

    async def access(self, sids: list[int]) -> dict:
        """Send one sequenced batch, riding through crashes."""
        seq = self.next_seq
        self.next_seq += 1
        response = await self._call(self._access_message(seq, sids),
                                    f"access batch seq={seq}")
        if not response.get("ok"):
            raise ServiceUnavailable(
                f"access rejected ({response.get('error')}): "
                f"{response.get('detail')}"
            )
        self._remember(seq, sids)
        return response

    async def stats(self) -> dict:
        return await self._call({"op": "stats"}, "stats")

    async def close_session(self) -> dict:
        response = await self._call({"op": "close"}, "close")
        await self.aclose()
        return response

    async def aclose(self) -> None:
        if self._client is not None:
            await self._client.aclose()
            self._client = None

    async def _call(self, message: dict | None, what: str) -> dict:
        """The retry loop behind every public call.

        Opens a session when there is none, replays owed history, then
        sends *message* and returns its reply (the greeting when
        *message* is ``None``).  A rejection the error table does not
        retry is returned as the reply.
        """
        failures = 0
        greeting = None
        while True:
            try:
                if self._client is None:
                    greeting = await self._open()
                await self._replay()
                if message is None:
                    return greeting
                seq = message.get("seq")
                if (greeting is not None and seq is not None
                        and self.applied_seq >= seq):
                    # The worker logged this batch before dying; the
                    # ack was what the crash ate.  Resending would be
                    # deduplicated server-side anyway, so skip it.
                    self.resends_skipped += 1
                    return {"ok": True, "op": "access", "deduped": True}
                return await self._send(message)
            except _Failure as failure:
                failures += 1
                if failures >= self.max_retries:
                    raise ServiceUnavailable(
                        f"tenant {self.tenant!r}: {what} still failing "
                        f"after {self.max_retries} attempts over "
                        f"{len(self.endpoints)} endpoint(s): {failure}"
                    ) from None
                if failure.drop:
                    await self._drop()
                await asyncio.sleep(
                    failure.wait if failure.wait is not None
                    else self.reconnect_backoff * min(failures, 8)
                )

    async def _open(self) -> dict:
        """Connect to the current endpoint and hello with ``resume``."""
        host, port = self.endpoints[
            self._endpoint_index % len(self.endpoints)
        ]
        try:
            client = await ServiceClient.connect(host, port)
        except OSError as error:
            raise _Failure(f"connect to {host}:{port} failed: {error}",
                           drop=True) from None
        try:
            greeting = await client.hello(
                self.tenant, benchmark=self.benchmark,
                block_sizes=self.block_sizes, scale=self.scale,
                quota_bytes=self.quota_bytes, weight=self.weight,
                resume=True, block_digests=self.block_digests,
            )
        except OSError as error:
            await client.aclose()
            raise _Failure(f"hello to {host}:{port} lost: {error}",
                           drop=True) from None
        if not greeting.get("ok"):
            await client.aclose()
            self.retried_requests += 1
            raise _Failure(
                f"hello rejected ({greeting.get('error')}): "
                f"{greeting.get('detail')}",
                drop=True, wait=greeting.get("retry_after"),
            )
        self._client = client
        self.endpoint = (host, port)
        if greeting.get("resumed"):
            # Same logical tenant state: the watermark can only have
            # advanced past what we last heard.
            self.applied_seq = max(self.applied_seq,
                                   greeting.get("applied_seq", 0))
            self._owed = []
            return greeting
        # Fresh attach — a new shard (redirect after a live reshard) or
        # a server that lost the state.  The server's watermark is the
        # truth now; our acknowledged history past it is owed.
        self.applied_seq = greeting.get("applied_seq", 0)
        self._owed = [(seq, sids) for seq, sids in self._history
                      if seq > self.applied_seq]
        if self._owed and self.applied_seq + 1 < self._trimmed_below:
            raise ServiceUnavailable(
                f"tenant {self.tenant!r} needs batches from seq "
                f"{self.applied_seq + 1} but history was trimmed below "
                f"seq {self._trimmed_below}; raise history_limit"
            )
        return greeting

    async def _replay(self) -> None:
        """Resend the owed history, oldest first, on the new session."""
        while self._owed:
            seq, sids = self._owed[0]
            response = await self._send(self._access_message(seq, sids))
            if not response.get("ok"):
                raise ServiceUnavailable(
                    f"history replay of batch seq={seq} rejected "
                    f"({response.get('error')}): "
                    f"{response.get('detail')}"
                )
            self._owed.pop(0)
            self.replayed_batches += 1
            self.applied_seq = max(self.applied_seq, seq)

    async def _send(self, message: dict) -> dict:
        """One round trip on the session, classified by the error
        table: a retryable outcome raises :class:`_Failure`."""
        try:
            response = await self._client.request(message)
        except OSError as error:
            raise _Failure(f"connection lost: {error}",
                           drop=True) from None
        error = response.get("error")
        if response.get("ok") or error not in _RETRY:
            return response
        self.retried_requests += 1
        raise _Failure(f"{error}: {response.get('detail')}",
                       drop=_RETRY[error], wait=response.get("retry_after"))

    async def _drop(self) -> None:
        """Abandon the current endpoint: close its session, if any, and
        move on to the next endpoint in the list."""
        self._endpoint_index += 1
        if self._client is not None:
            await self._client.aclose()
            self._client = None
            self.reconnects += 1

    def _access_message(self, seq: int, sids: list[int]) -> dict:
        message = {"op": "access", "sids": list(sids), "seq": seq}
        if self.sync:
            message["sync"] = True
        return message

    def _remember(self, seq: int, sids: list[int]) -> None:
        """Record an acknowledged batch as replayable history."""
        self._history.append((seq, list(sids)))
        if self.history_limit is not None:
            while len(self._history) > self.history_limit:
                trimmed_seq, _ = self._history.pop(0)
                self._trimmed_below = max(self._trimmed_below,
                                          trimmed_seq + 1)


def tenant_benchmarks(benchmarks: list[str] | None) -> list[str]:
    """The benchmarks tenants cycle through: *benchmarks*, or the SPEC
    suite when none are named."""
    if benchmarks:
        return list(benchmarks)
    return [spec.name for spec in spec_benchmarks()]


def tenant_spec(tenant: str, benchmark: str, scale: float, accesses: int,
                seed: int | None = None,
                share_content: bool = False) -> dict:
    """One seeded tenant workload: block sizes and access trace.

    The seed drives sizes and links as well as the trace, so tenants
    that share a seed and benchmark run the *same* workload
    (``None`` means the benchmark's own seed).  ``share_content`` adds
    content digests derived from the workload identity, so a
    sharing-enabled server dedups identical populations across tenants.
    """
    from repro.service.tenancy import content_digests

    registered = get_benchmark(benchmark)
    seed = registered.seed if seed is None else seed
    workload = build_workload(registered, scale=scale,
                              trace_accesses=accesses, seed=seed)
    sizes = workload.superblocks.sizes()
    spec = {
        "tenant": tenant,
        "benchmark": benchmark,
        "seed": seed,
        "block_sizes": [sizes[sid] for sid in range(len(sizes))],
        "trace": workload.trace.tolist(),
    }
    if share_content:
        spec["block_digests"] = content_digests(benchmark, scale, seed,
                                                workload.superblocks)
    return spec


async def run_tenant(host: str, port: int, tenant: str, benchmark: str,
                     scale: float, accesses: int, batch: int,
                     quota_bytes: int | None = None,
                     weight: float = 1.0, seed: int | None = None,
                     endpoints: list[tuple[str, int]] | None = None,
                     sync: bool = False,
                     share_content: bool = False) -> dict:
    """One load-generator tenant: replay a registry trace end to end.

    Runs on the resilient client, so a worker kill-and-restart mid-run
    is ridden through: the sequence numbers plus the server's WAL make
    the replay exactly-once despite the reconnects.  *endpoints* (when
    given) supersedes ``host``/``port`` as the failover list.
    """
    spec = tenant_spec(tenant, benchmark, scale, accesses, seed=seed,
                       share_content=share_content)
    client = ResilientClient(
        endpoints or [(host, port)], tenant,
        block_sizes=spec["block_sizes"], quota_bytes=quota_bytes,
        weight=weight, sync=sync, block_digests=spec.get("block_digests"),
    )
    try:
        await client.connect()
        trace = spec["trace"]
        for start in range(0, len(trace), batch):
            await client.access(trace[start:start + batch])
        farewell = await client.close_session()
        if not farewell.get("ok"):
            raise ServiceUnavailable(
                f"close rejected: {farewell.get('detail')}"
            )
        return {
            "tenant": tenant,
            "benchmark": benchmark,
            "accesses": len(trace),
            "stats": farewell["tenant"],
            "unified_after": farewell["unified"],
            "retried_requests": client.retried_requests,
            "reconnects": client.reconnects,
            "resends_skipped": client.resends_skipped,
            "replayed_batches": client.replayed_batches,
        }
    finally:
        await client.aclose()


async def run_load(host: str, port: int, tenants: int,
                   benchmarks: list[str] | None = None,
                   scale: float = 0.25, accesses: int = 20_000,
                   batch: int = DEFAULT_BATCH,
                   quota_bytes: int | None = None,
                   endpoints: list[tuple[str, int]] | None = None,
                   sync: bool = False,
                   share_content: bool = False,
                   common_seed: int | None = None) -> dict:
    """Drive *tenants* concurrent sessions; returns the load report.

    ``common_seed`` gives every tenant the *same* workload (sizes,
    links and trace all derive from the seed) — the identical-tenant
    fleet the dedup bench measures; the default per-tenant seeds keep
    workloads distinct.  ``share_content`` sends content digests so a
    sharing server can dedup.
    """
    suite = tenant_benchmarks(benchmarks)
    names = [suite[i % len(suite)] for i in range(tenants)]
    started = time.monotonic()
    results = await asyncio.gather(*(
        run_tenant(host, port, f"tenant-{i}:{names[i]}", names[i],
                   scale=scale, accesses=accesses, batch=batch,
                   quota_bytes=quota_bytes,
                   seed=common_seed if common_seed is not None
                   else 1000 + i,
                   endpoints=endpoints, sync=sync,
                   share_content=share_content)
        for i in range(tenants)
    ))
    elapsed = time.monotonic() - started
    total_accesses = sum(r["accesses"] for r in results)
    unified = results[-1]["unified_after"]
    return {
        "harness": "repro.service load",
        # The rate depends on the hardware, as in every fleet section.
        "cpu_count": usable_cpus(),
        "tenants": tenants,
        "scale": scale,
        "accesses_per_tenant": accesses,
        "batch": batch,
        "quota_bytes": quota_bytes,
        "share_content": share_content,
        "elapsed_seconds": elapsed,
        "total_accesses": total_accesses,
        "accesses_per_second": (
            total_accesses / elapsed if elapsed > 0 else 0.0
        ),
        "unified": unified,
        "reconnects": sum(r["reconnects"] for r in results),
        "resends_skipped": sum(r["resends_skipped"] for r in results),
        "replayed_batches": sum(r["replayed_batches"] for r in results),
        "per_tenant": [
            {
                "tenant": r["tenant"],
                "benchmark": r["benchmark"],
                "accesses": r["accesses"],
                "miss_rate": r["stats"]["miss_rate"],
                "evicted_bytes": r["stats"]["evicted_bytes"],
                "retried_requests": r["retried_requests"],
            }
            for r in results
        ],
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
