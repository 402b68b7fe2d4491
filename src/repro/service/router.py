"""The front-end router: consistent hashing, proxying, circuit breaking.

One cache worker owns one arena; scaling past a single process means a
fleet of workers (shards) with tenants partitioned across them.  The
:class:`ServiceRouter` is the piece clients actually talk to:

* **Placement** — a :class:`HashRing` (consistent hashing with virtual
  nodes) maps each tenant name onto a shard.  Adding or removing a
  shard remaps only ~1/N of the tenant space, so a scale-out does not
  stampede every tenant's cache state onto new workers.
* **Proxying** — the router speaks the same JSON-lines protocol as the
  workers.  The first ``hello`` on a connection picks the shard; from
  then on every line is relayed verbatim (one request in, one response
  out — the protocol's strict ordering makes the relay loop trivial
  and keeps the router stateless per connection).  An access line that
  starts with :data:`~repro.service.protocol.ACCESS_PREFIX` is relayed
  without being decoded; the worker parses it anyway.
* **Failure containment** — a per-shard :class:`CircuitBreaker` opens
  after consecutive connect/relay failures, so a dead worker costs its
  clients one fast ``shard-unavailable`` rejection (with a
  ``retry_after``) instead of a connect timeout each; the breaker
  half-opens after its reset window and closes again on the first
  success.  :meth:`ServiceRouter.check_shards` is the health probe the
  CLI and the worker pool poll.

The ``router.route`` fault point fires on every placement decision, so
the fault suite can prove a misrouted or unroutable tenant surfaces as
a clean protocol error rather than a hung connection.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import time
from dataclasses import dataclass, field

from repro import faults
from repro.service import protocol
from repro.service.client import ServiceClient

#: Virtual nodes per shard on the ring; more → smoother balance.
DEFAULT_VNODES = 64

#: Consecutive failures that open a shard's breaker.
DEFAULT_BREAKER_THRESHOLD = 3

#: Seconds an open breaker waits before letting a probe through.
DEFAULT_BREAKER_RESET = 1.0


class HashRing:
    """Consistent hashing with virtual nodes.

    Each node is hashed at ``vnodes`` ring positions; a key maps to the
    first node position at or after its own hash (wrapping).  Removing
    a node hands only that node's arcs to its successors — the ~1/N
    remap property the router's scale-out story depends on.
    """

    def __init__(self, nodes=(), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.md5(key.encode("utf-8")).digest()[:8], "big"
        )

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.vnodes):
            bisect.insort(self._points, (self._hash(f"{node}#{i}"), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    def lookup(self, key: str) -> str:
        """The node responsible for *key*."""
        if not self._points:
            raise KeyError("hash ring is empty")
        index = bisect.bisect_right(self._points, (self._hash(key), ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def nodes(self) -> set[str]:
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes


class CircuitBreaker:
    """Per-shard failure gate: closed → open → half-open → closed.

    The supervisor adds a *forced* mode on top: :meth:`force_open`
    latches the breaker open across reset windows (no half-open probes
    leak traffic into a shard that is mid-restart) until
    :meth:`force_close` releases it — ordinary successes recorded by
    health probes do not un-force it.
    """

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 reset_after: float = DEFAULT_BREAKER_RESET,
                 clock=None) -> None:
        self.threshold = max(1, threshold)
        self.reset_after = reset_after
        self._clock = clock or time.monotonic
        self.failures = 0
        self.opened_at: float | None = None
        self.trips = 0
        self.forced = False

    @property
    def state(self) -> str:
        if self.forced:
            return "open"
        if self.opened_at is None:
            return "closed"
        if self._clock() - self.opened_at >= self.reset_after:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a request try this shard right now?"""
        return self.state != "open"

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold and self.opened_at is None:
            self.opened_at = self._clock()
            self.trips += 1
        elif self.opened_at is not None:
            # A half-open probe failed: re-arm the full reset window.
            self.opened_at = self._clock()

    def record_success(self) -> None:
        self.failures = 0
        if not self.forced:
            self.opened_at = None

    def force_open(self) -> None:
        """Latch open (supervisor: a restart is in progress)."""
        if not self.forced:
            self.forced = True
            self.trips += 1
        if self.opened_at is None:
            self.opened_at = self._clock()

    def force_close(self) -> None:
        """Release the latch and close (supervisor: restart done)."""
        self.forced = False
        self.failures = 0
        self.opened_at = None

    def to_dict(self) -> dict:
        return {"state": self.state, "failures": self.failures,
                "trips": self.trips, "forced": self.forced}


@dataclass
class RouterConfig:
    """Everything the router needs, CLI-mappable."""

    host: str = "127.0.0.1"
    port: int = 0
    #: ``{shard_id: (host, port)}`` — shard_id is the ring node name.
    shards: dict = field(default_factory=dict)
    vnodes: int = DEFAULT_VNODES
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    breaker_reset: float = DEFAULT_BREAKER_RESET
    retry_after: float = 0.05


class ServiceRouter:
    """A stateless-per-connection proxy over a shard fleet.

    Per connection the router remembers exactly two things: the shard
    the ``hello`` pinned and the tenant that pinned it.  Before every
    relay it re-checks ring ownership, so a live ``add-shard`` /
    ``remove-shard`` (the ``admin`` op) drains moved sessions instead
    of stranding them: the old shard gets a proxied ``close`` (flush +
    detach), the client gets ``shard-moved`` and reconnects through the
    router to the tenant's new owner.  When built over a
    :class:`~repro.service.pool.WorkerPool`, ``add-shard`` can also
    spawn the new worker itself.
    """

    def __init__(self, config: RouterConfig | None = None,
                 pool=None) -> None:
        self.config = config or RouterConfig()
        self.shards: dict[str, tuple[str, int]] = dict(self.config.shards)
        self.ring = HashRing(self.shards, vnodes=self.config.vnodes)
        self.breakers: dict[str, CircuitBreaker] = {
            shard: self._breaker() for shard in self.shards
        }
        #: Optional WorkerPool behind this router: lets the ``admin``
        #: op spawn/stop real worker processes, not just re-ring.
        self.pool = pool
        self.routed_connections = 0
        self.rejected_connections = 0
        self.relay_failures = 0
        self.redirected_sessions = 0
        self.admin_requests = 0
        self._server: asyncio.Server | None = None

    def _breaker(self) -> CircuitBreaker:
        return CircuitBreaker(self.config.breaker_threshold,
                              self.config.breaker_reset)

    # -- Topology ------------------------------------------------------------

    def add_shard(self, shard_id: str, host: str, port: int) -> None:
        """Join a shard; ~1/N of the tenant space remaps onto it."""
        self.shards[shard_id] = (host, port)
        self.breakers.setdefault(shard_id, self._breaker())
        self.ring.add(shard_id)

    def remove_shard(self, shard_id: str) -> None:
        """Leave a shard; its arcs fall to the ring successors."""
        self.shards.pop(shard_id, None)
        self.breakers.pop(shard_id, None)
        self.ring.remove(shard_id)

    def route(self, tenant: str) -> str:
        """The shard id serving *tenant* (fires ``router.route``)."""
        faults.fire("router.route", key=tenant)
        return self.ring.lookup(tenant)

    # -- The TCP face --------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("router not started")
        return self._server.sockets[0].getsockname()[1]

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        shard_id: str | None = None
        shard_reader: asyncio.StreamReader | None = None
        shard_writer: asyncio.StreamWriter | None = None
        tenant: str | None = None

        async def respond(message: dict) -> bool:
            writer.write(protocol.encode(message))
            try:
                await writer.drain()
            except ConnectionError:
                return False
            return True

        async def drop_shard() -> None:
            nonlocal shard_id, shard_reader, shard_writer
            if shard_writer is not None:
                shard_writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await shard_writer.wait_closed()
            shard_id = shard_reader = shard_writer = None

        async def drain_moved_session() -> None:
            # The ring no longer maps this tenant here: flush and
            # detach it on the old shard (a proxied close) so its state
            # leaves cleanly, then cut the pinned connection.  Best
            # effort — the old shard may already be gone.
            with contextlib.suppress(ConnectionError, OSError,
                                     asyncio.TimeoutError):
                shard_writer.write(protocol.encode({"op": "close"}))
                await shard_writer.drain()
                await asyncio.wait_for(shard_reader.readline(), 2.0)
            await drop_shard()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if line.startswith(protocol.ACCESS_PREFIX):
                    # The hot path: relayed unparsed; a malformed line
                    # gets the worker's bad-request.
                    op = "access"
                else:
                    try:
                        message = protocol.decode_line(line)
                        op = message.get("op")
                    except protocol.ProtocolError as error:
                        if not await respond(protocol.error(
                                "?", protocol.ERR_BAD_REQUEST,
                                str(error))):
                            break
                        continue
                if op == "admin":
                    if not await respond(await self._admin(message)):
                        break
                    continue
                if shard_writer is not None and tenant is not None:
                    # Live-resharding check: does the ring still map
                    # this connection's tenant to its pinned shard?
                    # (ring.lookup directly — a re-check is not a new
                    # placement decision, so no router.route fault.)
                    try:
                        owner = self.ring.lookup(tenant)
                    except KeyError:
                        owner = None
                    if owner != shard_id:
                        await drain_moved_session()
                        self.redirected_sessions += 1
                        if not await respond(protocol.error(
                                op or "?", protocol.ERR_SHARD_MOVED,
                                f"tenant {tenant!r} moved to "
                                f"{owner!r}; reconnect to reach it",
                                retry_after=self.config.retry_after)):
                            break
                        continue
                if shard_writer is None:
                    if op == "ping":
                        if not await respond(protocol.ok(
                                "ping",
                                version=protocol.PROTOCOL_VERSION,
                                router=self.describe())):
                            break
                        continue
                    if op != "hello":
                        if not await respond(protocol.error(
                                op or "?", protocol.ERR_NO_SESSION,
                                "no shard on this connection; "
                                "send hello first")):
                            break
                        continue
                    tenant = message.get("tenant")
                    if not isinstance(tenant, str) or not tenant:
                        if not await respond(protocol.error(
                                op, protocol.ERR_BAD_REQUEST,
                                "hello needs a non-empty string "
                                "'tenant'")):
                            break
                        continue
                    try:
                        target = self.route(tenant)
                    except (KeyError, faults.InjectedFault) as error:
                        self.rejected_connections += 1
                        if not await respond(protocol.error(
                                op, protocol.ERR_SHARD_UNAVAILABLE,
                                f"no shard for tenant {tenant!r}: "
                                f"{error}",
                                retry_after=self.config.retry_after)):
                            break
                        continue
                    breaker = self.breakers[target]
                    if not breaker.allow():
                        self.rejected_connections += 1
                        if not await respond(protocol.error(
                                op, protocol.ERR_SHARD_UNAVAILABLE,
                                f"shard {target!r} circuit open",
                                retry_after=breaker.reset_after)):
                            break
                        continue
                    host, port = self.shards[target]
                    try:
                        shard_reader, shard_writer = (
                            await asyncio.open_connection(
                                host, port,
                                limit=protocol.MAX_LINE_BYTES,
                            )
                        )
                    except (ConnectionError, OSError) as error:
                        breaker.record_failure()
                        self.rejected_connections += 1
                        if not await respond(protocol.error(
                                op, protocol.ERR_SHARD_UNAVAILABLE,
                                f"shard {target!r} unreachable: {error}",
                                retry_after=self.config.retry_after)):
                            break
                        continue
                    shard_id = target
                    self.routed_connections += 1
                # Relay: one request in, one response out, in order.
                try:
                    shard_writer.write(line)
                    await shard_writer.drain()
                    reply = await shard_reader.readline()
                    if not reply:
                        raise ConnectionError("shard closed mid-request")
                except (ConnectionError, OSError) as error:
                    failed = shard_id
                    self.breakers[failed].record_failure()
                    self.relay_failures += 1
                    await drop_shard()
                    if not await respond(protocol.error(
                            op or "?", protocol.ERR_SHARD_UNAVAILABLE,
                            f"shard {failed!r} failed mid-request: "
                            f"{error}",
                            retry_after=self.config.retry_after)):
                        break
                    continue
                self.breakers[shard_id].record_success()
                writer.write(reply)
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            await drop_shard()
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    # -- Admin: live topology control ----------------------------------------

    async def _admin(self, message: dict) -> dict:
        """Handle one ``admin`` request locally (never relayed).

        Actions: ``topology`` (describe), ``health`` (probe every
        shard), ``add-shard`` (an explicit ``host``/``port`` endpoint,
        or a fresh worker spawned from the pool), ``remove-shard``
        (drop from the ring; with ``"stop": true`` and a pool, also
        stop the worker process — normally the caller waits for the
        drain-and-redirect to finish first).
        """
        self.admin_requests += 1
        action = message.get("action")
        if action not in protocol.ADMIN_ACTIONS:
            return protocol.error(
                "admin", protocol.ERR_BAD_REQUEST,
                f"unknown admin action {action!r}; expected one of "
                f"{', '.join(protocol.ADMIN_ACTIONS)}",
            )
        if action == "topology":
            return protocol.ok("admin", action=action,
                               router=self.describe())
        if action == "health":
            health = await self.check_shards()
            return protocol.ok("admin", action=action, health=health,
                               router=self.describe())
        shard = message.get("shard")
        if action == "add-shard":
            host, port = message.get("host"), message.get("port")
            if host is not None or port is not None:
                if (not isinstance(host, str) or not host
                        or not isinstance(port, int) or port < 1):
                    return protocol.error(
                        "admin", protocol.ERR_BAD_REQUEST,
                        "add-shard needs a string 'host' and a "
                        "positive int 'port' (or a pool to spawn from)",
                    )
                if shard is None:
                    shard = f"shard-{len(self.shards)}"
                if shard in self.shards:
                    return protocol.error(
                        "admin", protocol.ERR_BAD_REQUEST,
                        f"shard {shard!r} already routed",
                    )
                self.add_shard(shard, host, port)
            elif self.pool is not None:
                try:
                    handle = await self.pool.spawn_shard(shard)
                except Exception as error:
                    return protocol.error(
                        "admin", protocol.ERR_SHARD_UNAVAILABLE,
                        f"could not spawn a new worker: {error}",
                    )
                shard = handle.shard_id
                self.add_shard(shard, *handle.endpoint)
            else:
                return protocol.error(
                    "admin", protocol.ERR_BAD_REQUEST,
                    "add-shard needs 'host'/'port' when the router "
                    "has no worker pool",
                )
            host, port = self.shards[shard]
            return protocol.ok("admin", action=action, shard=shard,
                               endpoint=f"{host}:{port}",
                               shards=sorted(self.shards))
        # action == "remove-shard"
        if not isinstance(shard, str) or shard not in self.shards:
            return protocol.error(
                "admin", protocol.ERR_BAD_REQUEST,
                f"remove-shard needs a routed 'shard' id, got "
                f"{shard!r}",
            )
        self.remove_shard(shard)
        stopped = False
        if message.get("stop") and self.pool is not None \
                and shard in getattr(self.pool, "workers", {}):
            await self.pool.stop_shard(shard)
            stopped = True
        return protocol.ok("admin", action=action, shard=shard,
                           stopped=stopped, shards=sorted(self.shards))

    # -- Health and reporting ------------------------------------------------

    async def check_shards(self, timeout: float = 1.0) -> dict:
        """Ping every shard; returns ``{shard_id: healthy_bool}`` and
        feeds the circuit breakers."""
        health: dict[str, bool] = {}
        for shard_id, (host, port) in sorted(self.shards.items()):
            try:
                reply = await ServiceClient.request_once(
                    host, port, {"op": "ping"}, timeout=timeout
                )
                healthy = bool(reply.get("ok"))
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    protocol.ProtocolError):
                healthy = False
            breaker = self.breakers.get(shard_id)
            if breaker is not None:
                if healthy:
                    breaker.record_success()
                else:
                    breaker.record_failure()
            health[shard_id] = healthy
        return health

    def describe(self) -> dict:
        return {
            "shards": {
                shard: {"endpoint": f"{host}:{port}",
                        "breaker": self.breakers[shard].to_dict()}
                for shard, (host, port) in sorted(self.shards.items())
            },
            "vnodes": self.config.vnodes,
            "routed_connections": self.routed_connections,
            "rejected_connections": self.rejected_connections,
            "relay_failures": self.relay_failures,
            "redirected_sessions": self.redirected_sessions,
            "admin_requests": self.admin_requests,
        }
