"""The shard supervisor: health checks, auto-restart, breaker control.

The router contains failures (circuit breakers, fast rejections) but
repairs nothing; the pool can restart a worker but only when a harness
asks it to.  :class:`ShardSupervisor` closes the loop: a background
task probes every routed shard on a fixed cadence and, when one is
dead or unresponsive, restarts it through the pool's ordinary
snapshot + WAL recovery path — zero manual intervention.

Each probe round checks two things per shard:

* **Liveness** — the worker process is alive *and* answers a protocol
  ``ping`` within ``probe_timeout``.  A dead process triggers an
  immediate restart; a live-but-unresponsive one (hung event loop,
  saturated accept queue) must fail ``fail_threshold`` consecutive
  probes first, so one slow ping under load does not bounce a healthy
  shard.
* **WAL-append heartbeat** — the ping reply carries the worker's
  persistence counters; the supervisor records the last-seen
  ``wal_seq`` per shard (:attr:`heartbeats`), the durability signal an
  operator dashboard would alarm on if it stopped advancing.

The restart protocol brackets the pool restart with the shard's
circuit breaker: ``force_open`` first (clients get fast
``shard-unavailable`` rejections with ``retry_after`` instead of
connect timeouts, and no half-open probe leaks traffic into the
half-recovered worker), then ``pool.restart`` — which blocks until the
replacement finished snapshot + WAL recovery and answers pings — then
``force_close``.  Sessions that were pinned to the dead shard were
parked server-side the moment their connections died; their resilient
clients retry against the breaker until it closes, re-``hello`` with
``resume``, learn their ``applied_seq`` watermark back, and replay
exactly the batches the crash lost.

Shards the router no longer routes (a live ``remove-shard``) are
skipped entirely — a retired worker is not a crashed one.
"""

from __future__ import annotations

import asyncio
import time

from repro.service import protocol
from repro.service.client import ServiceClient

#: Seconds between probe rounds.
DEFAULT_INTERVAL = 0.5

#: Seconds a shard gets to answer one ping.
DEFAULT_PROBE_TIMEOUT = 1.0

#: Consecutive failed probes of a *live* process before restart.
DEFAULT_FAIL_THRESHOLD = 2


class ShardSupervisor:
    """Watches a router's shards and heals them through the pool."""

    def __init__(self, pool, router,
                 interval: float = DEFAULT_INTERVAL,
                 probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
                 fail_threshold: int = DEFAULT_FAIL_THRESHOLD) -> None:
        self.pool = pool
        self.router = router
        self.interval = interval
        self.probe_timeout = probe_timeout
        self.fail_threshold = max(1, int(fail_threshold))
        self.checks = 0
        self.restarts = 0
        self.restart_failures = 0
        #: ``{shard_id: {"wal_seq": int | None, "at": monotonic}}`` —
        #: the last successful probe's WAL watermark per shard.
        self.heartbeats: dict[str, dict] = {}
        #: Restart/probe-failure event log (bounded) for reports.
        self.events: list[dict] = []
        self._fails: dict[str, int] = {}
        self._restarting: set[str] = set()
        self._task: asyncio.Task | None = None

    # -- Lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="shard-supervisor"
            )

    async def stop(self) -> None:
        task, self._task = self._task, None
        # Before Python 3.12, ``asyncio.wait_for`` drops a cancellation
        # that lands as its inner await completes, so a cancel during a
        # probe can leave the loop running: cancel until it has ended.
        while task is not None and not task.done():
            task.cancel()
            await asyncio.wait({task}, timeout=self.interval)

    async def _run(self) -> None:
        while True:
            try:
                await self.check_once()
            except asyncio.CancelledError:
                raise
            except Exception as error:  # pragma: no cover - last resort
                self._event("supervisor-error", None, error=str(error))
            await asyncio.sleep(self.interval)

    # -- One probe round -----------------------------------------------------

    async def check_once(self) -> dict:
        """Probe every routed shard once; heal the unhealthy ones.

        Returns ``{shard_id: healthy_bool}`` for the shards probed
        this round (restarting shards are reported unhealthy).
        """
        self.checks += 1
        health: dict[str, bool] = {}
        for shard_id in sorted(self.router.shards):
            handle = self.pool.workers.get(shard_id)
            if handle is None:
                continue  # not ours to supervise (external endpoint)
            if shard_id in self._restarting:
                health[shard_id] = False
                continue
            healthy = await self._probe(shard_id, handle)
            health[shard_id] = healthy
            if healthy:
                self._fails[shard_id] = 0
                continue
            fails = self._fails.get(shard_id, 0) + 1
            self._fails[shard_id] = fails
            # A dead process needs no second opinion; a live-but-mute
            # one must miss fail_threshold probes in a row.
            if not handle.alive or fails >= self.fail_threshold:
                await self._restart(shard_id)
        return health

    async def _probe(self, shard_id: str, handle) -> bool:
        """One liveness + heartbeat probe of one shard."""
        if not handle.alive:
            return False
        try:
            reply = await ServiceClient.request_once(
                handle.host, handle.port, {"op": "ping"},
                timeout=self.probe_timeout,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError,
                protocol.ProtocolError):
            return False
        if not reply.get("ok"):
            return False
        persistence = (reply.get("service") or {}).get("persistence")
        self.heartbeats[shard_id] = {
            "wal_seq": (persistence or {}).get("wal_seq"),
            "at": time.monotonic(),
        }
        return True

    # -- The healing path ----------------------------------------------------

    async def _restart(self, shard_id: str) -> None:
        """Trip the breaker, restart through recovery, clear it."""
        self._restarting.add(shard_id)
        breaker = self.router.breakers.get(shard_id)
        started = time.monotonic()
        if breaker is not None:
            breaker.force_open()
        try:
            await self.pool.restart(shard_id)
        except Exception as error:
            # Leave the breaker forced open: a shard that cannot come
            # back must keep failing fast, and the next probe round
            # tries again.
            self.restart_failures += 1
            self._event("restart-failed", shard_id, error=str(error))
            return
        finally:
            self._restarting.discard(shard_id)
        if breaker is not None:
            breaker.force_close()
        self._fails[shard_id] = 0
        self.restarts += 1
        self._event("restarted", shard_id,
                    seconds=time.monotonic() - started)

    def _event(self, kind: str, shard_id: str | None, **fields) -> None:
        if len(self.events) >= 256:
            del self.events[:128]
        self.events.append({"event": kind, "shard": shard_id, **fields})

    def describe(self) -> dict:
        return {
            "interval": self.interval,
            "probe_timeout": self.probe_timeout,
            "fail_threshold": self.fail_threshold,
            "checks": self.checks,
            "restarts": self.restarts,
            "restart_failures": self.restart_failures,
            "heartbeats": {
                shard: dict(beat)
                for shard, beat in sorted(self.heartbeats.items())
            },
            "events": list(self.events),
        }
