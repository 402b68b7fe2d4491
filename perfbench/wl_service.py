"""service-fleet: access batches over real TCP through the router.

A fleet is two ``repro.service serve`` worker processes (snapshot +
write-ahead log on) behind an in-process router.  Four tenants, each
replaying a seeded registry trace, connect through the router with
resilient clients in ``sync`` mode (the worker applies a batch before
acknowledging it).  One loop sends one batch at a time, round-robin
across tenants — a closed loop with one request in flight — so every
shard applies batches in one fixed order.  One operation is one
batch's round trip.

Each run starts, drives and stops fleets over and over, each with the
same traffic: set-up is fleet start (spawn and handshake the workers,
start the router, open every session).  Every fleet's final per-tenant
stats must equal an in-process replay of the same batches on one arena
per shard.  Untraced runs report reference times: a fleet's set-up and
its traffic are each scaled by the calibration slices on either side.

Traced runs add per-layer spans.  The router's wait on its worker is
timed at the router's shard connection; the rest of the round trip is
client and router work (``svc.router_relay_us``).  The in-process
replay times, per batch, the codec and validation of the same request
and reply, the arena ``step`` and the WAL append.  What those worker
stages leave of the router's wait is ``svc.worker_other_us``: queue
hand-off, worker-thread hops and the loopback hop.
"""

from __future__ import annotations

import asyncio
import shutil
import sys
import tempfile
import traceback

from layers import layer_metrics
from timing import (Deadline, ReferenceClock, Spans, clock, median,
                    metric)

from repro.service import protocol
from repro.service import router as router_module
from repro.service.client import ResilientClient
from repro.service.pool import WorkerPool
from repro.service.router import RouterConfig, ServiceRouter
from repro.service.server import CacheService, ServiceConfig
from repro.workloads.registry import build_workload, get_benchmark

SHARDS = 2
TENANT_BENCHMARKS = ("gzip", "vpr", "gcc", "crafty")
SCALE = 0.25
ACCESSES = 48_000
BATCH = 256
POLICY = "8-unit"
CAPACITY_BYTES = 256 * 1024
SNAPSHOT_INTERVAL = 50_000
MIN_FLEETS = 3


def _tenants(seed: int) -> list[dict]:
    tenants = []
    for index, name in enumerate(TENANT_BENCHMARKS):
        workload = build_workload(get_benchmark(name), scale=SCALE,
                                  trace_accesses=ACCESSES,
                                  seed=seed * 1009 + index)
        sizes = workload.superblocks.sizes()
        tenants.append({
            "tenant": f"tenant-{index}:{name}",
            "block_sizes": [sizes[sid] for sid in range(len(sizes))],
            "trace": workload.trace.tolist(),
        })
    return tenants


def _batches(tenants: list[dict]):
    """(tenant index, seq, sids) in sending order: round-robin."""
    for seq, start in enumerate(range(0, ACCESSES, BATCH), start=1):
        for index, tenant in enumerate(tenants):
            yield index, seq, tenant["trace"][start:start + BATCH]


class _TimedShardReader:
    """The router's shard-side stream, timing each reply wait."""

    def __init__(self, reader, spans: Spans) -> None:
        self._reader = reader
        self._spans = spans

    def __getattr__(self, name):
        return getattr(self._reader, name)

    async def readline(self):
        started = clock()
        try:
            return await self._reader.readline()
        finally:
            self._spans.add("svc.shard_wait", clock() - started)


class _RouterAsyncio:
    """``asyncio`` as the router module sees it in a traced run."""

    def __init__(self, spans: Spans) -> None:
        self._spans = spans

    def __getattr__(self, name):
        return getattr(asyncio, name)

    async def open_connection(self, *args, **kwargs):
        reader, writer = await asyncio.open_connection(*args, **kwargs)
        return _TimedShardReader(reader, self._spans), writer


async def _fleet(root, tenants: list[dict], spans: Spans) -> dict:
    """Start one fleet, push every batch through it, stop it."""
    # Calibration slices block the event loop, so they run only where
    # no batch is in flight: before set-up, after it, after the traffic.
    reference = ReferenceClock()
    reference.mark()
    started = clock()
    pool = WorkerPool(SHARDS, root, policy=POLICY,
                      capacity_bytes=CAPACITY_BYTES,
                      snapshot_interval=SNAPSHOT_INTERVAL)
    router = None
    clients: list[ResilientClient] = []
    try:
        await pool.start()
        router = ServiceRouter(RouterConfig(shards=pool.endpoints()),
                               pool=pool)
        await router.start()
        endpoint = ("127.0.0.1", router.port)
        clients = [ResilientClient([endpoint], tenant["tenant"],
                                   block_sizes=tenant["block_sizes"],
                                   sync=True)
                   for tenant in tenants]
        for client in clients:
            await client.connect()
        setup = (clock() - started) * reference.factor()
        placement = {tenant["tenant"]: router.ring.lookup(tenant["tenant"])
                     for tenant in tenants}

        rtts: list[float] = []
        failed = 0
        for index, _seq, sids in _batches(tenants):
            sent = clock()
            with spans.op():
                try:
                    reply = await clients[index].access(sids)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    reply = {"ok": False}
            rtts.append(clock() - sent)
            failed += 0 if reply.get("ok") else 1
        scale = reference.factor()
        stats = {}
        for client in clients:
            farewell = await client.close_session()
            stats[client.tenant] = farewell.get("tenant")
        retries = sum(c.retried_requests + c.reconnects for c in clients)
    finally:
        for client in clients:
            await client.aclose()
        if router is not None:
            await router.aclose()
        await pool.stop()
    return {"setup": setup, "rtts": rtts, "scale": scale, "failed": failed,
            "stats": stats, "placement": placement, "retries": retries}


def _replay(tenants: list[dict], placement: dict, scratch,
            trace: bool) -> tuple[dict, list[dict]]:
    """Apply the fleet's batches in-process, one arena per shard.

    Returns the final per-tenant stats and, for traced runs, the
    per-batch layer costs in sending order.
    """
    services = {}
    for shard in sorted(set(placement.values())):
        directory = tempfile.mkdtemp(prefix=f"replay-{shard}-",
                                     dir=str(scratch))
        services[shard] = CacheService(ServiceConfig(
            policy=POLICY, capacity_bytes=CAPACITY_BYTES,
            snapshot_dir=directory, snapshot_interval=SNAPSHOT_INTERVAL))
    durable = {"seconds": 0.0}
    if trace:
        for service in services.values():
            persister = service.arena.persister
            for name in ("log_access", "write_snapshot"):
                original = getattr(persister, name)

                def timed(*args, original=original, **kwargs):
                    began = clock()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        durable["seconds"] += clock() - began
                setattr(persister, name, timed)
    arenas = [services[placement[t["tenant"]]].arena for t in tenants]
    for tenant, arena in zip(tenants, arenas):
        arena.attach(tenant["tenant"], tenant["block_sizes"])
    costs: list[dict] = []
    for index, seq, sids in _batches(tenants):
        name = tenants[index]["tenant"]
        if not trace:
            arenas[index].access_many(name, sids, tseq=seq)
            continue
        request = {"op": "access", "sids": list(sids), "seq": seq,
                   "sync": True}
        began = clock()
        line = protocol.encode(request)
        encoded = clock()
        message = protocol.decode_line(line)
        decoded = clock()
        protocol.validate_request(message)
        validated = clock()
        durable["seconds"] = 0.0
        arenas[index].access_many(name, message["sids"],
                                  tseq=message["seq"])
        applied = clock()
        reply = protocol.encode(protocol.ok("access", queued_batches=0))
        reply_encoded = clock()
        protocol.decode_line(reply)
        reply_decoded = clock()
        costs.append({
            "encode_request": encoded - began,
            "decode_request": decoded - encoded,
            "validate": validated - decoded,
            "wal": durable["seconds"],
            "step": applied - validated - durable["seconds"],
            "encode_reply": reply_encoded - applied,
            "decode_reply": reply_decoded - reply_encoded,
        })
    stats = {t["tenant"]: arena.detach(t["tenant"]).to_dict()
             for t, arena in zip(tenants, arenas)}
    for service in services.values():
        if service.persister is not None:
            service.persister.close()
    return stats, costs


def run(seed: int, seconds: float, trace: bool, scratch) -> dict:
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    tenants = _tenants(seed)
    spans = Spans()
    saved_asyncio = router_module.asyncio
    if trace:
        router_module.asyncio = _RouterAsyncio(spans)
    fleets: list[dict] = []
    errors = 0
    deadline = Deadline(seconds)
    try:
        while len(fleets) < MIN_FLEETS or not deadline.expired():
            root = tempfile.mkdtemp(prefix="fleet-", dir=str(scratch))
            try:
                fleets.append(asyncio.run(_fleet(root, tenants, spans)))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                errors += 1
                if errors >= MIN_FLEETS:
                    break
            finally:
                shutil.rmtree(root, ignore_errors=True)
    finally:
        router_module.asyncio = saved_asyncio

    checks = [bool(fleets)]
    costs: list[dict] = []
    if fleets:
        placement = fleets[0]["placement"]
        expected, costs = _replay(tenants, placement, scratch, trace)
        for fleet in fleets:
            checks.append(fleet["placement"] == placement)
            checks.append(fleet["stats"] == expected)
    shutil.rmtree(scratch, ignore_errors=True)

    rtts = [rtt for fleet in fleets for rtt in fleet["rtts"]]
    failed = errors + sum(fleet["failed"] for fleet in fleets)
    correct = failed == 0 and all(checks)
    if trace:
        waits = spans.per_op("svc.shard_wait")
        # Every fleet sends the same batches, so wait i pairs with the
        # replay's batch i modulo one fleet's traffic.
        worker_stages = [c["decode_request"] + c["validate"] + c["step"]
                         + c["wal"] + c["encode_reply"] for c in costs]
        worker_other = [wait - worker_stages[i % len(worker_stages)]
                        for i, wait in enumerate(waits)]
        metrics = layer_metrics({
            "svc.encode_us": median(
                c["encode_request"] + c["encode_reply"] for c in costs) * 1e6,
            "svc.decode_us": median(
                c["decode_request"] + c["decode_reply"] for c in costs) * 1e6,
            "svc.validate_us": median(c["validate"] for c in costs) * 1e6,
            "svc.step_us": median(c["step"] for c in costs) * 1e6,
            "svc.wal_us": median(c["wal"] for c in costs) * 1e6,
            "svc.shard_wait_us": median(waits) * 1e6,
            "svc.router_relay_us": median(
                rtt - wait for rtt, wait in zip(rtts, waits)) * 1e6,
            "svc.worker_other_us": median(worker_other) * 1e6,
            "svc.retries": sum(fleet["retries"] for fleet in fleets),
        })
    else:
        # A fleet's traffic is one window, scaled by the host's speed
        # around it; every fleet sends the same batches.
        metrics = {
            "op_ms": metric(median(
                median(fleet["rtts"]) * fleet["scale"]
                for fleet in fleets) * 1e3, "ms"),
            "accesses_per_s": metric(median(
                len(tenants) * ACCESSES / (sum(fleet["rtts"]) * fleet["scale"])
                for fleet in fleets), "1/s"),
            "setup_s": metric(median(f["setup"] for f in fleets), "s"),
        }
    return {"correct": correct, "attempted": max(len(rtts) + errors, 1),
            "failed": failed, "metrics": metrics}
