"""Fleet benchmarks: shard scaling, the chaos drill, dedup A/B.

Two fleet harnesses, both running *real* worker processes from
:class:`~repro.service.pool.WorkerPool`:

* :func:`run_scale_bench` — weak scaling: N shards serve N×T tenants
  (balanced round-robin placement, so the measurement is worker
  throughput rather than hash-ring luck on a handful of names) and the
  aggregate accesses/second is compared against the 1-shard baseline.
  Near-linear speedup is the point of sharding: every worker owns its
  arena outright, so there is no cross-shard lock to serialize on.
* :func:`run_chaos_bench` — the crash drill: a supervised,
  standby-replicated, router-fronted fleet with two tenants on every
  shard takes a scripted beating (worker SIGKILL, whole-WAL-directory
  destruction, corrupt-at-flush and slow-shard fault injections, plus
  a live ``remove-shard`` with drain-and-redirect) while a reference
  fleet runs the *same* admin schedule uninterrupted.  The acceptance
  bar is per-tenant *field-identical* Equation 1 stats — with zero
  manual restarts: the supervisor and the standby failover do all the
  healing, and every faulted shard must recover two interleaved
  tenants (co-owned entries included, under ``sharing``) from its
  snapshot + write-ahead log.

Plus one in-process harness: :func:`run_dedup_bench`, the ShareJIT A/B
— N tenants replaying one identical seeded workload against a sharing
arena and an unshared one (every tenant on private entries), reporting
dedup ratio, peak bytes saved and the unified miss-rate delta (the
``dedup`` section of ``BENCH_service.json``).

Determinism note: the chaos drill and the dedup A/B send batches in
``sync`` mode, round-robin across tenants from a single task
(:func:`_drive_round_robin`), so every arena applies batches in one
fixed interleaving.  That is what makes the chaos drill's
field-identical comparison meaningful and the dedup numbers exact —
and it is exactly the interleaving the write-ahead log re-creates on
replay.
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import time
from dataclasses import replace
from pathlib import Path

from repro import faults
from repro.analysis.parallel import usable_cpus
from repro.service import protocol
from repro.service.client import (
    ResilientClient,
    ServiceClient,
    tenant_benchmarks,
    tenant_spec,
)
from repro.service.pool import WorkerPool
from repro.service.router import HashRing, RouterConfig, ServiceRouter
from repro.service.server import CacheService, ServiceConfig
from repro.service.supervisor import ShardSupervisor

DEFAULT_SHARD_COUNTS = (1, 2, 4)

#: Tenants the chaos drill places on every shard, so each faulted
#: shard must recover two interleaved tenants from its durable state.
CHAOS_TENANTS_PER_SHARD = 2


def _tenant_traces(tenants: int, benchmarks: list[str] | None,
                   scale: float, accesses: int) -> list[dict]:
    """Seeded per-tenant traces; identical across harness runs."""
    names = tenant_benchmarks(benchmarks)
    specs = []
    for index in range(tenants):
        benchmark = names[index % len(names)]
        specs.append(tenant_spec(f"tenant-{index}:{benchmark}", benchmark,
                                 scale, accesses, seed=1000 + index))
    return specs


async def run_scale_bench(root: str | Path, config: ServiceConfig,
                          shard_counts=DEFAULT_SHARD_COUNTS,
                          tenants_per_shard: int = 4,
                          accesses: int = 20_000, scale: float = 0.25,
                          batch: int = 256,
                          benchmarks: list[str] | None = None) -> dict:
    """Weak-scaling sweep; returns rows plus speedup vs one shard.
    Every worker of every fleet serves *config*."""
    root = Path(root)
    rows = []
    for count in shard_counts:
        pool = WorkerPool(count, root / f"scale-{count}", config)
        await pool.start()
        try:
            shard_ids = sorted(pool.workers)
            endpoints = pool.endpoints()
            tenants = count * tenants_per_shard
            specs = _tenant_traces(tenants, benchmarks, scale, accesses)

            async def drive(index: int, spec: dict) -> dict:
                shard = shard_ids[index % len(shard_ids)]
                client = ResilientClient(
                    [endpoints[shard]], spec["tenant"],
                    block_sizes=spec["block_sizes"],
                )
                try:
                    await client.connect()
                    trace = spec["trace"]
                    for start in range(0, len(trace), batch):
                        await client.access(trace[start:start + batch])
                    farewell = await client.close_session()
                    return {"accesses": len(trace),
                            "stats": farewell["tenant"]}
                finally:
                    await client.aclose()

            started = time.monotonic()
            results = await asyncio.gather(*(
                drive(i, spec) for i, spec in enumerate(specs)
            ))
            elapsed = time.monotonic() - started
        finally:
            await pool.stop()
        total = sum(r["accesses"] for r in results)
        rows.append({
            "shards": count,
            "tenants": tenants,
            "total_accesses": total,
            "elapsed_seconds": elapsed,
            "accesses_per_second": total / elapsed if elapsed else 0.0,
        })
    baseline = rows[0]["accesses_per_second"] or 1.0
    for row in rows:
        row["speedup"] = row["accesses_per_second"] / baseline
    return {
        "harness": "repro.service scale",
        # Worker processes only run in parallel up to the core count;
        # on a 1-core box this sweep measures fleet overhead, not
        # scaling, so record the hardware the numbers came from.
        "cpu_count": usable_cpus(),
        "policy": config.policy,
        "capacity_bytes": config.capacity_bytes,
        "tenants_per_shard": tenants_per_shard,
        "accesses_per_tenant": accesses,
        "batch": batch,
        "rows": rows,
    }


async def _drive_round_robin(clients: list[ResilientClient],
                             traces: list[list[int]], batch: int,
                             events: dict[int, list] | None = None) -> None:
    """Send each client's trace in *batch*-access chunks, one chunk per
    client per round in client order, all from this one task.

    With sync clients every arena then applies the batches in one fixed
    interleaving — the one its write-ahead log re-creates on replay —
    so two runs of the same traffic give the same stats.  *events* maps
    a round number to callbacks awaited before that round's chunks.
    """
    events = events or {}
    longest = max(len(trace) for trace in traces)
    for batch_round, start in enumerate(range(0, longest, batch)):
        for callback in events.get(batch_round, ()):
            await callback()
        for client, trace in zip(clients, traces):
            chunk = trace[start:start + batch]
            if chunk:
                await client.access(chunk)


async def _run_dedup_side(config: ServiceConfig, tenants: int,
                          benchmark: str, scale: float, accesses: int,
                          batch: int) -> dict:
    """One side of the dedup A/B: an in-process server on *config*, N
    tenants all replaying the *same* seeded workload (common seed —
    sizes, links and trace identical), sharing as *config* says, driven
    round-robin in sync mode so the side's stats are deterministic."""
    spec = tenant_spec(f"tenant-0:{benchmark}", benchmark, scale, accesses,
                       seed=1000, share_content=config.sharing)
    names = [f"tenant-{index}:{benchmark}" for index in range(tenants)]
    service = CacheService(config)
    await service.start()
    clients = [
        ResilientClient([(config.host, service.port)], name,
                        block_sizes=spec["block_sizes"], sync=True,
                        block_digests=spec.get("block_digests"))
        for name in names
    ]
    try:
        for client in clients:
            await client.connect()
        started = time.monotonic()
        await _drive_round_robin(clients, [spec["trace"]] * tenants, batch)
        farewells = [await client.close_session() for client in clients]
        elapsed = time.monotonic() - started
    finally:
        for client in clients:
            await client.aclose()
        await service.wait_disconnected()
        await service.drain()
    arena = service.arena.to_dict()
    total = tenants * len(spec["trace"])
    return {
        "elapsed_seconds": elapsed,
        "accesses_per_second": total / elapsed if elapsed > 0 else 0.0,
        "unified_miss_rate": farewells[-1]["unified"]["miss_rate"],
        "peak_resident_bytes": arena["peak_resident_bytes"],
        "peak_logical_bytes": arena["peak_logical_bytes"],
        "per_tenant": [
            {
                "tenant": name,
                "benchmark": benchmark,
                "accesses": len(spec["trace"]),
                "miss_rate": farewell["tenant"]["miss_rate"],
                "evicted_bytes": farewell["tenant"]["evicted_bytes"],
                "retried_requests": client.retried_requests,
            }
            for name, client, farewell in zip(names, clients, farewells)
        ],
        "arena": arena,
    }


async def run_dedup_bench(config: ServiceConfig, tenants: int = 4,
                          benchmark: str = "gcc", scale: float = 0.25,
                          accesses: int = 20_000,
                          batch: int = 256) -> dict:
    """The ShareJIT A/B: N identical-workload tenants with sharing off
    (N private copies fighting over the arena) vs on (one refcounted
    copy).  Reports the dedup ratio (peak logical over peak physical
    bytes), the physical bytes saved at peak, and the unified miss-rate
    delta the dedup buys back.

    Both sides serve *config*, each with its own ``sharing`` and at
    least two sessions per tenant admitted.
    """
    off, on = [
        await _run_dedup_side(
            replace(config, sharing=sharing,
                    max_sessions=max(config.max_sessions, 2 * tenants)),
            tenants, benchmark, scale, accesses, batch,
        )
        for sharing in (False, True)
    ]
    return {
        "harness": "repro.service dedup",
        "cpu_count": usable_cpus(),
        "tenants": tenants,
        "benchmark": benchmark,
        "scale": scale,
        "accesses_per_tenant": accesses,
        "batch": batch,
        "policy": config.policy,
        "capacity_bytes": config.capacity_bytes,
        "check_level": config.check_level,
        "sharing_off": off,
        "sharing_on": on,
        "dedup_ratio": (on["peak_logical_bytes"]
                        / max(1, on["peak_resident_bytes"])),
        "bytes_saved": (off["peak_resident_bytes"]
                        - on["peak_resident_bytes"]),
        "miss_rate_delta": (off["unified_miss_rate"]
                            - on["unified_miss_rate"]),
    }


# -- The chaos drill ---------------------------------------------------------


def _chaos_specs(shard_ids: list[str], benchmarks: list[str] | None,
                 scale: float, accesses: int, sharing: bool,
                 vnodes: int) -> list[dict]:
    """Two seeded tenants per shard, chosen by scanning tenant names
    until the ring assigns every shard exactly two — so each fault in
    the drill hits known, distinct victims.  Under *sharing* every
    tenant runs one common seed, so tenants of the same benchmark share
    content and a faulted shard must recover co-owned entries."""
    names = tenant_benchmarks(benchmarks)
    ring = HashRing(shard_ids, vnodes=vnodes)
    chosen: dict[str, list[tuple[int, str]]] = {
        shard: [] for shard in shard_ids
    }
    for index in range(4096):
        benchmark = names[index % len(names)]
        owned = chosen[ring.lookup(f"tenant-{index}:{benchmark}")]
        if len(owned) < CHAOS_TENANTS_PER_SHARD:
            owned.append((index, benchmark))
            if all(len(tenants) == CHAOS_TENANTS_PER_SHARD
                   for tenants in chosen.values()):
                break
    else:  # pragma: no cover - md5 would have to be absurdly skewed
        raise RuntimeError("could not give every shard its tenants")
    specs = []
    for shard in sorted(shard_ids):
        for index, benchmark in chosen[shard]:
            spec = tenant_spec(f"tenant-{index}:{benchmark}", benchmark,
                               scale, accesses,
                               seed=1000 if sharing else 1000 + index,
                               share_content=sharing)
            spec["shard"] = shard
            specs.append(spec)
    return specs


async def _run_chaos_fleet(root: Path, config: ServiceConfig, shards: int,
                           specs: list[dict], batch: int, schedule: dict,
                           chaos: bool) -> dict:
    """One run of the chaos fleet: supervised pool of *config* workers
    + standby replicas + router, driven round-robin through the
    scripted event schedule.

    Both the reference and the drill run the *admin* events (the live
    ``remove-shard`` and the eventual process stop); only the drill
    (``chaos=True``) runs the destructive ones.  Nothing here ever
    calls ``pool.restart`` — healing is the supervisor's job.
    """
    pool = WorkerPool(shards, root / "primary", config,
                      standby_root=root / "standby")
    await pool.start()
    router = ServiceRouter(RouterConfig(shards=pool.endpoints()),
                           pool=pool)
    await router.start()
    supervisor = ShardSupervisor(pool, router, interval=0.25)
    await supervisor.start()
    clients: list[ResilientClient] = []
    try:
        endpoint = ("127.0.0.1", router.port)
        clients = [
            ResilientClient(
                [endpoint], spec["tenant"],
                block_sizes=spec["block_sizes"], sync=True,
                block_digests=spec.get("block_digests"),
                max_retries=256,
            )
            for spec in specs
        ]
        for client in clients:
            await client.connect()

        async def kill_worker() -> None:
            await pool.kill(schedule["kill_shard"])

        async def destroy_wal() -> None:
            # rmtree first (synchronous — no event-loop yield for the
            # supervisor's restart to race against), then the kill.
            handle = pool.workers[schedule["destroy_shard"]]
            shutil.rmtree(handle.snapshot_dir, ignore_errors=True)
            await pool.kill(schedule["destroy_shard"])

        async def retire_shard() -> None:
            reply = await ServiceClient.request_once(*endpoint, {
                "op": "admin", "action": "remove-shard",
                "shard": schedule["retire_shard"],
            })
            if not reply.get("ok"):
                raise RuntimeError(
                    f"remove-shard rejected: {reply.get('detail')}"
                )

        async def stop_retired() -> None:
            if schedule["retire_shard"] in pool.workers:
                await pool.stop_shard(schedule["retire_shard"])

        events: dict[int, list] = {}
        events.setdefault(schedule["retire_round"],
                          []).append(retire_shard)
        events.setdefault(schedule["stop_round"],
                          []).append(stop_retired)
        if chaos:
            events.setdefault(schedule["kill_round"],
                              []).append(kill_worker)
            events.setdefault(schedule["destroy_round"],
                              []).append(destroy_wal)

        started = time.monotonic()
        await _drive_round_robin(clients, [spec["trace"] for spec in specs],
                                 batch, events)

        stats = {}
        reconnects = resends_skipped = replayed_batches = 0
        for client, spec in zip(clients, specs):
            farewell = await client.close_session()
            stats[spec["tenant"]] = farewell["tenant"]
            reconnects += client.reconnects
            resends_skipped += client.resends_skipped
            replayed_batches += client.replayed_batches
        elapsed = time.monotonic() - started

        # Each faulted shard's own recovery report, from its last
        # restart (a shard that never restarted reports its startup).
        recoveries = {}
        for shard in (schedule["kill_shard"], schedule["destroy_shard"]):
            handle = pool.workers.get(shard)
            recoveries[shard] = {}
            if handle is None or not handle.alive:
                continue
            with contextlib.suppress(OSError, protocol.ProtocolError):
                reply = await ServiceClient.request_once(
                    handle.host, handle.port, {"op": "ping"}
                )
                recoveries[shard] = (reply.get("service") or {}).get(
                    "recovery") or {}
        return {
            "stats": stats,
            "elapsed_seconds": elapsed,
            "reconnects": reconnects,
            "resends_skipped": resends_skipped,
            "replayed_batches": replayed_batches,
            "recoveries": recoveries,
            "supervisor": supervisor.describe(),
            "router": {
                "redirected_sessions": router.redirected_sessions,
                "admin_requests": router.admin_requests,
            },
        }
    finally:
        await supervisor.stop()
        for client in clients:
            await client.aclose()
        await router.aclose()
        await pool.stop()


async def run_chaos_bench(root: str | Path, config: ServiceConfig,
                          shards: int = 4, accesses: int = 12_000,
                          scale: float = 0.25, batch: int = 256,
                          benchmarks: list[str] | None = None) -> dict:
    """The self-healing drill: a scripted beating vs a clean reference.

    Two tenants per shard.  The drill's schedule, in batch rounds:

    * ``rounds // 4`` — SIGKILL ``shard-0``; the supervisor must
      restart it through snapshot + WAL recovery, no drill help, and
      the worker's recovery report must list both its tenants.
    * ``rounds // 2`` — destroy ``shard-1``'s *entire* persistence
      directory, then SIGKILL it; the supervisor's restart must fail
      over to the standby replica (promotion is verified in the
      worker's own recovery report).
    * ``3 * rounds // 4`` — live ``remove-shard shard-2`` through the
      router's admin op (both runs); its tenants drain, redirect, and
      rebuild via client history replay on the new owner.  Two rounds
      later the retired worker process is stopped (both runs).

    On top the drill arms corrupt-at-flush against the last shard's
    first tenant (its close-time stats payload is damaged once — the
    digest guard must quarantine and recover it), a slow-shard hang on
    the first moved tenant's consumer, and a torn line in ``shard-0``'s
    standby WAL (which nothing may ever read).  Field-identical per-tenant
    stats vs the reference — which ran the same admin schedule with no
    faults at all — is the acceptance bar.  Both runs' workers serve
    *config*; under its ``sharing`` every tenant runs one common seed.
    """
    root = Path(root)
    if shards < 4:
        raise ValueError("the chaos drill needs at least 4 shards")
    shard_ids = [f"shard-{i}" for i in range(shards)]
    specs = _chaos_specs(shard_ids, benchmarks, scale, accesses,
                         config.sharing, vnodes=RouterConfig().vnodes)
    rounds = (accesses + batch - 1) // batch
    if rounds < 8:
        raise ValueError("the chaos schedule needs >= 8 batch rounds")
    schedule = {
        "kill_shard": "shard-0",
        "kill_round": max(1, rounds // 4),
        "destroy_shard": "shard-1",
        "destroy_round": max(2, rounds // 2),
        "retire_shard": "shard-2",
        "retire_round": max(3, (3 * rounds) // 4),
        "stop_round": min(rounds - 1, (3 * rounds) // 4 + 2),
    }
    placement: dict[str, list[str]] = {}
    first: dict[str, dict] = {}  # each fault's victim, per shard
    for spec in specs:
        placement.setdefault(spec["shard"], []).append(spec["tenant"])
        first.setdefault(spec["shard"], spec)
    corrupt_spec = first[shard_ids[-1]]
    corrupt_batches = (len(corrupt_spec["trace"]) + batch - 1) // batch
    drill_faults = (
        # The corrupt target's B sync flushes fire with no payload;
        # fire B+1 is the close-time stats payload, which the digest
        # guard must quarantine and recover on the retry at B+2.
        faults.FaultSpec(point="service.flush", mode="corrupt",
                         times=corrupt_batches + 1,
                         keys=(corrupt_spec["tenant"],)),
        faults.FaultSpec(point="service.session", mode="hang",
                         times=2, hang_seconds=0.1,
                         keys=(first[schedule["retire_shard"]]
                               ["tenant"],)),
        faults.FaultSpec(point="service.standby", mode="corrupt",
                         times=1,
                         keys=(first[schedule["kill_shard"]]
                               ["tenant"],)),
    )
    reference = await _run_chaos_fleet(
        root / "reference", config, shards, specs, batch, schedule,
        chaos=False,
    )
    with faults.plan(*drill_faults):
        drill = await _run_chaos_fleet(
            root / "drill", config, shards, specs, batch, schedule,
            chaos=True,
        )
    mismatches = [
        spec["tenant"] for spec in specs
        if reference["stats"][spec["tenant"]]
        != drill["stats"][spec["tenant"]]
    ]
    restart_seconds = [
        event["seconds"] for event in drill["supervisor"]["events"]
        if event["event"] == "restarted"
    ]
    return {
        "harness": "repro.service chaos",
        "cpu_count": usable_cpus(),
        "sharing": config.sharing,
        "check_level": config.check_level,
        "shards": shards,
        "tenants": [spec["tenant"] for spec in specs],
        "placement": placement,
        "accesses_per_tenant": accesses,
        "batch": batch,
        "rounds": rounds,
        "snapshot_interval": config.snapshot_interval,
        "schedule": schedule,
        "supervisor_restarts": drill["supervisor"]["restarts"],
        "restart_seconds": restart_seconds,
        "redirected_sessions": drill["router"]["redirected_sessions"],
        "standby_promoted": bool(
            drill["recoveries"][schedule["destroy_shard"]]
            .get("standby_promoted")
        ),
        "recoveries": drill["recoveries"],
        "reconnects": drill["reconnects"],
        "resends_skipped": drill["resends_skipped"],
        "replayed_batches": drill["replayed_batches"],
        "reference_redirected_sessions": (
            reference["router"]["redirected_sessions"]
        ),
        "reference_seconds": reference["elapsed_seconds"],
        "drill_seconds": drill["elapsed_seconds"],
        "supervisor_events": drill["supervisor"]["events"],
        "field_identical": not mismatches,
        "mismatched_tenants": mismatches,
    }
