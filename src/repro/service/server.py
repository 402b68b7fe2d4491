"""The cache service: admission control, dispatch, graceful drain.

:class:`CacheService` owns one :class:`~repro.service.tenancy.SharedArena`
and exposes it two ways:

* **In process** — :meth:`CacheService.open_session` returns a
  :class:`~repro.service.session.Session` directly; tests and embedded
  callers drive it without sockets.
* **Over TCP** — :meth:`CacheService.start` binds an asyncio server
  speaking the :mod:`repro.service.protocol` JSON-lines protocol; every
  connection runs one session.

Admission control is two-layered: the service rejects new sessions over
``max_sessions`` (or while draining) with a ``retry_after`` hint, and
each admitted session's bounded queue pushes back on over-eager clients
batch by batch.  :func:`repro.faults.fire` points cover the accept path
(``service.accept``), the per-batch simulation path
(``service.session``) and flush (``service.flush``), so the fault-
injection suite can prove a dying or hanging session never corrupts its
neighbours.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import time
from dataclasses import dataclass, field

from repro import faults
from repro.core.cache import ConfigurationError
from repro.core.invariants import CHECK_LEVELS
from repro.core.policies import policy_from_spec
from repro.service import protocol
from repro.service.persist import (
    DEFAULT_SNAPSHOT_INTERVAL,
    ArenaPersister,
    recover_arena,
)
from repro.service.session import (
    DEFAULT_QUEUE_BATCHES,
    Session,
    SessionError,
)
from repro.service.tenancy import SharedArena, TenantQuota, content_digests
from repro.workloads.registry import build_workload, get_benchmark


@dataclass
class ServiceConfig:
    """Everything a service instance needs, CLI-mappable."""

    policy: str = "8-unit"
    capacity_bytes: int = 256 * 1024
    max_block_bytes: int = 8192
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read CacheService.port after start
    max_sessions: int = 16
    queue_batches: int = DEFAULT_QUEUE_BATCHES
    retry_after: float = 0.05
    pressure_threshold: float | None = None
    reclaim_fraction: float = 0.85
    check_level: str | None = None
    check_context: dict = field(default_factory=dict)
    #: Directory for arena snapshots + write-ahead log; ``None``
    #: disables persistence (and crash recovery) entirely.
    snapshot_dir: str | None = None
    #: Standby replica directory: every WAL append and verified
    #: snapshot is mirrored there, and recovery promotes it when the
    #: primary is quarantined or gone.  ``None`` disables replication.
    standby_dir: str | None = None
    #: Arena accesses between snapshots.
    snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL
    #: Per-tenant token-bucket rate limit in accesses/second; ``None``
    #: disables rate limiting.
    rate_limit: float | None = None
    #: Bucket depth in accesses; defaults to one second's worth.
    rate_burst: float | None = None
    #: ShareJIT-style content-hash dedup across tenants
    #: (``--sharing`` / ``--no-sharing`` on the CLI).
    sharing: bool = False


#: The ``serve`` flag of every ServiceConfig field the CLI sets, with
#: its argparse options (its default is the config's own); the rest
#: (``max_block_bytes``, ``retry_after``, ``reclaim_fraction``,
#: ``check_context``) keep their defaults in a CLI-built config.
SERVE_FLAGS = {
    "policy": ("--policy", dict(
        help="eviction policy: flush, fifo, preempt, gen, or a unit "
             "count like 64 (default: %(default)s)")),
    "capacity_bytes": ("--capacity", dict(
        type=int, metavar="BYTES",
        help="arena capacity in bytes (default: %(default)s)")),
    "host": ("--host", dict(help="address to bind (default: %(default)s)")),
    "port": ("--port", dict(
        type=int,
        help="port to bind; 0 picks a free one (default: %(default)s)")),
    "max_sessions": ("--max-sessions", dict(
        type=int, help="admission limit (default: %(default)s)")),
    "queue_batches": ("--queue-batches", dict(
        type=int,
        help="per-session queue bound in batches (default: %(default)s)")),
    "pressure_threshold": ("--pressure", dict(
        type=float, metavar="FRACTION",
        help="occupancy fraction that triggers cross-tenant reclaim "
             "(default: off)")),
    "check_level": ("--check", dict(
        choices=CHECK_LEVELS,
        help="invariant check level (default: REPRO_CHECK_LEVEL or off)")),
    "snapshot_dir": ("--snapshot-dir", dict(
        help="arena snapshot + write-ahead-log directory; enables crash "
             "recovery (default: off)")),
    "snapshot_interval": ("--snapshot-interval", dict(
        type=int,
        help="arena accesses between snapshots (default: %(default)s)")),
    "standby_dir": ("--standby-dir", dict(
        help="standby replica directory: every WAL append is mirrored "
             "and every verified snapshot copied there, for failover "
             "when the primary dies (default: off)")),
    "rate_limit": ("--rate-limit", dict(
        type=float,
        help="per-tenant token-bucket rate in accesses/s (default: off)")),
    "rate_burst": ("--rate-burst", dict(
        type=float,
        help="token-bucket depth in accesses (default: one second's "
             "worth)")),
    "sharing": ("--sharing", dict(
        action=argparse.BooleanOptionalAction,
        help="content-hash superblock dedup across tenants (default: "
             "off)")),
}


def serve_arguments(config: ServiceConfig) -> list[str]:
    """The ``serve`` arguments that rebuild *config* in a worker
    process: the inverse of the CLI's ``_config``.  Every set field is
    spelled out, so a worker runs exactly *config* whatever the CLI's
    defaults; a ``None`` field is left out, which its flag's ``None``
    default restores."""
    arguments = []
    for name, (flag, _) in SERVE_FLAGS.items():
        value = getattr(config, name)
        if isinstance(value, bool):
            arguments.append(flag if value else f"--no-{flag[2:]}")
        elif value is not None:
            arguments.append(f"{flag}={value}")
    return arguments


class TokenBucket:
    """A per-tenant access budget: *rate* tokens/s, *burst* deep."""

    def __init__(self, rate: float, burst: float | None = None) -> None:
        if rate <= 0:
            raise ConfigurationError("rate_limit must be positive")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else float(rate)
        if self.burst <= 0:
            raise ConfigurationError("rate_burst must be positive")
        self.tokens = self.burst
        self._refilled = time.monotonic()

    def take(self, cost: int) -> float:
        """Spend *cost* tokens; 0.0 on success, else seconds until the
        bucket will hold them (the ``retry_after`` hint)."""
        now = time.monotonic()
        self.tokens = min(self.burst,
                          self.tokens + (now - self._refilled) * self.rate)
        self._refilled = now
        if cost <= self.tokens:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate


class CacheService:
    """A multi-tenant code-cache server over one shared arena."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.persister: ArenaPersister | None = None
        self.recovery: dict | None = None
        arena_kwargs = dict(
            max_block_bytes=self.config.max_block_bytes,
            pressure_threshold=self.config.pressure_threshold,
            reclaim_fraction=self.config.reclaim_fraction,
            check_level=self.config.check_level,
            check_context=self.config.check_context,
            sharing=self.config.sharing,
        )
        if self.config.snapshot_dir is not None:
            self.persister = ArenaPersister(
                self.config.snapshot_dir,
                snapshot_interval=self.config.snapshot_interval,
                standby_root=self.config.standby_dir,
            )
            self.arena, self.recovery = recover_arena(
                self.persister,
                policy=self.config.policy,
                capacity_bytes=self.config.capacity_bytes,
                **arena_kwargs,
            )
        else:
            self.arena = SharedArena(
                policy_from_spec(self.config.policy),
                self.config.capacity_bytes,
                **arena_kwargs,
            )
        self.sessions: dict[str, Session] = {}
        self.buckets: dict[str, TokenBucket] = {}
        self.rate_limited_batches = 0
        self.draining = False
        self.sessions_admitted = 0
        self.sessions_rejected = 0
        self._server: asyncio.Server | None = None
        #: Live connection handlers (see :meth:`wait_disconnected`).
        self._handlers: set[asyncio.Task] = set()

    # -- Admission ----------------------------------------------------------

    def open_session(
        self,
        tenant: str,
        block_sizes: list[int] | None = None,
        benchmark: str | None = None,
        scale: float = 1.0,
        quota_bytes: int | None = None,
        weight: float = 1.0,
        resume: bool = False,
        block_digests: list[str] | None = None,
    ) -> Session:
        """Admit *tenant* and attach it to the arena.

        With ``resume``, a tenant the arena already holds — recovered
        from snapshot + WAL replay, or parked when its connection was
        lost — is re-adopted with its residency, stats and exactly-once
        watermark intact instead of being attached fresh.

        ``block_digests`` are per-block content digests for a sharing
        arena; a benchmark-named tenant on a sharing server derives
        them automatically, so identical registry populations dedup
        without client cooperation.

        Raises :class:`~repro.service.session.SessionError` with
        ``draining`` / ``overloaded`` (both carrying ``retry_after``)
        when admission fails, and :class:`ConfigurationError` for bad
        tenant parameters.
        """
        faults.fire("service.accept", key=tenant)
        if self.draining:
            self.sessions_rejected += 1
            raise SessionError(
                protocol.ERR_DRAINING,
                "service is draining; no new sessions",
                retry_after=self.config.retry_after,
            )
        if len(self.sessions) >= self.config.max_sessions:
            self.sessions_rejected += 1
            raise SessionError(
                protocol.ERR_OVERLOADED,
                f"service at its {self.config.max_sessions}-session "
                f"admission limit",
                retry_after=self.config.retry_after,
            )
        if tenant in self.sessions:
            raise SessionError(
                protocol.ERR_BAD_REQUEST,
                f"tenant {tenant!r} already has a session",
            )
        resumed = resume and self.arena.has_tenant(tenant)
        if not resumed:
            if block_sizes is None:
                if benchmark is None:
                    raise ConfigurationError(
                        "a session needs block_sizes or a benchmark name"
                    )
                if (self.arena.sharing_enabled
                        and block_digests is None):
                    block_sizes, block_digests = benchmark_population(
                        benchmark, scale
                    )
                else:
                    block_sizes = benchmark_sizes(benchmark, scale)
            quota = None
            if quota_bytes is not None:
                quota = TenantQuota(quota_bytes=quota_bytes, weight=weight)
            elif weight != 1.0:
                quota = TenantQuota(
                    quota_bytes=self.config.capacity_bytes, weight=weight
                )
            self.arena.attach(tenant, block_sizes, quota,
                              block_digests=block_digests)
        session = Session(
            self.arena, tenant,
            queue_batches=self.config.queue_batches,
            retry_after=self.config.retry_after,
        )
        session.resumed = resumed
        try:
            session.start()
        except BaseException:
            if not resumed:
                self.arena.detach(tenant)
            raise
        self.sessions[tenant] = session
        if self.config.rate_limit is not None and tenant not in self.buckets:
            self.buckets[tenant] = TokenBucket(
                self.config.rate_limit, self.config.rate_burst
            )
        self.sessions_admitted += 1
        return session

    def _release(self, session: Session) -> None:
        current = self.sessions.get(session.tenant)
        if current is session:
            del self.sessions[session.tenant]

    # -- The TCP face -------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: reject new sessions, flush and close the
        live ones, then stop the listener."""
        self.draining = True
        for session in list(self.sessions.values()):
            with contextlib.suppress(SessionError):
                await session.close()
            self._release(session)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.persister is not None:
            self.arena.snapshot_now()
        self.arena.check_now()

    async def wait_disconnected(self) -> None:
        """Return once every connection handler has ended: for an
        in-process harness whose clients have all hung up, so that its
        event loop's shutdown never cancels a handler still closing its
        transport (Python 3.11 logs that as an error)."""
        if self._handlers:
            await asyncio.wait(set(self._handlers))

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)
        session: Session | None = None
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                response, done = await self._dispatch_line(line, session)
                if response.get("op") == "hello" and response.get("ok"):
                    session = self.sessions.get(response["tenant"])
                writer.write(protocol.encode(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                if done:
                    # Closed or failed: either way its tenant is
                    # detached, and the name and the admission slot
                    # are free again.
                    self._release(session)
                    session = None
        finally:
            if session is not None:
                if self.persister is not None:
                    # Park, don't detach: the tenant's arena state stays
                    # live so a reconnecting client can hello(resume).
                    await session.park()
                else:
                    await session.abort()
                self._release(session)
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    async def _dispatch_line(self, line: bytes,
                             session: Session | None) -> tuple[dict, bool]:
        """Handle one request line; returns (response, session_done)."""
        try:
            message = protocol.decode_line(line)
            op = protocol.validate_request(message)
        except protocol.ProtocolError as error:
            return protocol.error("?", protocol.ERR_BAD_REQUEST,
                                  str(error)), False
        try:
            return await self._dispatch(op, message, session)
        except SessionError as error:
            done = error.token == protocol.ERR_SESSION_FAILED
            return protocol.error(op, error.token, error.detail,
                                  retry_after=error.retry_after), done
        except (ConfigurationError, KeyError) as error:
            return protocol.error(op, protocol.ERR_BAD_REQUEST,
                                  str(error)), False
        except faults.InjectedFault as error:
            return protocol.error(op, protocol.ERR_FAULT,
                                  str(error)), False

    async def _dispatch(self, op: str, message: dict,
                        session: Session | None) -> tuple[dict, bool]:
        if op == "ping":
            return protocol.ok("ping", version=protocol.PROTOCOL_VERSION,
                               service=self.describe()), False
        if op == "hello":
            if session is not None:
                return protocol.error(
                    op, protocol.ERR_BAD_REQUEST,
                    f"connection already serves tenant "
                    f"{session.tenant!r}",
                ), False
            opened = self.open_session(
                message["tenant"],
                block_sizes=message.get("block_sizes"),
                benchmark=message.get("benchmark"),
                scale=message.get("scale", 1.0),
                quota_bytes=message.get("quota_bytes"),
                weight=message.get("weight", 1.0),
                resume=message.get("resume", False),
                block_digests=message.get("block_digests"),
            )
            return protocol.ok(
                "hello", tenant=opened.tenant,
                version=protocol.PROTOCOL_VERSION,
                blocks=len_blocks(self.arena, opened.tenant),
                policy=self.arena.policy.name,
                capacity_bytes=self.arena.capacity_bytes,
                resumed=opened.resumed,
                applied_seq=self.arena.applied_seq(opened.tenant),
                sharing=self.arena.sharing_enabled,
            ), False
        if session is None:
            return protocol.error(
                op, protocol.ERR_NO_SESSION,
                "no session on this connection; send hello first",
            ), False
        if op == "access":
            sids = message["sids"]
            bucket = self.buckets.get(session.tenant)
            if bucket is not None:
                wait = bucket.take(len(sids))
                if wait > 0:
                    self.rate_limited_batches += 1
                    return protocol.error(
                        op, protocol.ERR_RATE_LIMITED,
                        f"tenant {session.tenant!r} over its "
                        f"{bucket.rate:g} accesses/s budget",
                        retry_after=wait,
                    ), False
            if message.get("sync"):
                await session.apply(sids, message.get("seq"))
                return protocol.ok("access", queued_batches=0), False
            queued = session.submit(sids, seq=message.get("seq"))
            return protocol.ok("access", queued_batches=queued), False
        if op == "stats":
            tenant_stats = await session.stats()
            return protocol.ok(
                "stats", tenant=tenant_stats,
                unified=self.arena.unified_stats().to_dict(),
                arena=self.arena.to_dict(),
            ), False
        # op == "close"
        final = await session.close()
        self._release(session)
        return protocol.ok(
            "close", tenant=final,
            unified=self.arena.unified_stats().to_dict(),
        ), True

    def describe(self) -> dict:
        record = {
            "draining": self.draining,
            "sessions": sorted(self.sessions),
            "sessions_admitted": self.sessions_admitted,
            "sessions_rejected": self.sessions_rejected,
            "rate_limited_batches": self.rate_limited_batches,
            "max_sessions": self.config.max_sessions,
            "arena": self.arena.to_dict(),
        }
        if self.persister is not None:
            record["persistence"] = self.persister.to_dict()
            record["recovery"] = self.recovery
        return record


def benchmark_sizes(name: str, scale: float = 1.0) -> list[int]:
    """Superblock sizes for a registry benchmark, in local-sid order."""
    workload = build_workload(get_benchmark(name), scale=scale,
                              trace_accesses=1)
    sizes = workload.superblocks.sizes()
    return [sizes[sid] for sid in range(len(sizes))]


def benchmark_population(name: str,
                         scale: float = 1.0) -> tuple[list[int], list[str]]:
    """Sizes plus content digests for a registry benchmark — what a
    sharing server derives when a hello names a benchmark without
    sending digests.  The digest seed is the spec's own, matching what
    ``build_workload`` uses when no override is given."""
    spec = get_benchmark(name)
    workload = build_workload(spec, scale=scale, trace_accesses=1)
    sizes = workload.superblocks.sizes()
    digests = content_digests(name, scale, spec.seed,
                              workload.superblocks)
    return [sizes[sid] for sid in range(len(sizes))], digests


def len_blocks(arena: SharedArena, tenant: str) -> int:
    for state in arena.tenants():
        if state.name == tenant:
            return state.block_count
    raise KeyError(tenant)
