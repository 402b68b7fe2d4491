"""The worker pool: real shard processes under one supervisor.

A shard is one ``python -m repro.service serve`` process with its own
arena and its own snapshot + write-ahead-log directory.  The
:class:`WorkerPool` spawns N of them, waits for each one's ready
handshake, and exposes the endpoint map a
:class:`~repro.service.router.ServiceRouter` is built from.

Workers bind port 0 and report the actual bound port on stdout as a
one-line JSON ready handshake — there is no free-port probe to race
against (the classic TOCTOU where a probed port is stolen before the
worker binds it).  A *restarted* worker is the one exception: it must
come back on the port its clients already hold, so the replacement
binds the learned port explicitly.

The pool is also the crash lever the recovery harness pulls:
:meth:`WorkerPool.kill` SIGKILLs a worker mid-run (no drain, no final
snapshot — the honest failure mode), and :meth:`WorkerPool.restart`
brings a fresh process up on the *same* port over the *same* snapshot
directory, so recovery is exercised exactly the way an operator's
process supervisor would: the replacement worker replays its WAL and
resumed clients reconnect to the address they already know.
:meth:`spawn_shard` / :meth:`stop_shard` are the live-resharding half:
they grow or shrink the fleet under a running router, which then
drains and redirects the sessions the ring moved.

Every worker runs the pool's one :class:`~repro.service.server.
ServiceConfig`, with its own port and snapshot directory: the pool
renders its ``serve`` command from that config through
:func:`~repro.service.server.serve_arguments`, so every setting the
config carries reaches every worker.  With ``standby_root`` every
worker also gets a per-shard standby replica directory
(``--standby-dir``), so a shard whose primary persistence directory
dies can fail over to the replica on restart.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from repro.service import protocol
from repro.service.server import ServiceConfig, serve_arguments

#: Seconds to wait for a spawned worker to answer its first ping.
DEFAULT_READY_TIMEOUT = 20.0

#: Admission limit of a pool's workers unless its config says
#: otherwise: room for the several tenants per shard the fleet
#: benches place.
DEFAULT_MAX_SESSIONS = 64


class WorkerError(RuntimeError):
    """A worker process failed to start or never became ready."""


class WorkerHandle:
    """One shard process: its identity, endpoint, durable roots."""

    def __init__(self, shard_id: str, host: str, port: int,
                 snapshot_dir: Path,
                 standby_dir: Path | None = None) -> None:
        self.shard_id = shard_id
        self.host = host
        #: 0 until the first ready handshake reports the bound port;
        #: afterwards pinned so restarts reuse the same address.
        self.port = port
        self.snapshot_dir = snapshot_dir
        self.standby_dir = standby_dir
        self.process: asyncio.subprocess.Process | None = None
        self.restarts = 0
        self._drain_task: asyncio.Task | None = None

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None


class WorkerPool:
    """N shard processes with durable roots, ready-checked and killable.

    *config* is what every worker serves (default: a
    :class:`~repro.service.server.ServiceConfig` admitting
    :data:`DEFAULT_MAX_SESSIONS`), with *settings* laid over its
    fields (``policy=``, ``capacity_bytes=``, ...).  The pool gives
    each worker its own port and snapshot (and standby) directory, so
    the config's ``port``, ``snapshot_dir`` and ``standby_dir`` are
    not used; its ``host`` is where every worker binds.
    """

    def __init__(self, shards: int, root: str | Path,
                 config: ServiceConfig | None = None, *,
                 standby_root: str | Path | None = None,
                 ready_timeout: float = DEFAULT_READY_TIMEOUT,
                 **settings) -> None:
        if shards < 1:
            raise ValueError("a pool needs at least one shard")
        self.root = Path(root)
        self.config = replace(
            config or ServiceConfig(max_sessions=DEFAULT_MAX_SESSIONS),
            **settings,
        )
        self.ready_timeout = ready_timeout
        self.standby_root = Path(standby_root) if standby_root else None
        self.workers: dict[str, WorkerHandle] = {}
        self._next_index = 0
        for _ in range(shards):
            self._new_handle()

    def _new_handle(self, shard_id: str | None = None) -> WorkerHandle:
        if shard_id is None:
            shard_id = f"shard-{self._next_index}"
        self._next_index += 1
        handle = WorkerHandle(
            shard_id, self.config.host, 0,
            self.root / shard_id,
            (self.standby_root / shard_id
             if self.standby_root is not None else None),
        )
        self.workers[shard_id] = handle
        return handle

    def endpoints(self) -> dict[str, tuple[str, int]]:
        """The ``{shard_id: (host, port)}`` map the router consumes."""
        return {shard: handle.endpoint
                for shard, handle in self.workers.items()}

    def _command(self, handle: WorkerHandle) -> list[str]:
        config = replace(
            self.config, host=handle.host, port=handle.port,
            snapshot_dir=str(handle.snapshot_dir),
            standby_dir=(str(handle.standby_dir)
                         if handle.standby_dir is not None else None),
        )
        return [sys.executable, "-m", "repro.service", "serve",
                *serve_arguments(config)]

    async def start(self) -> None:
        """Spawn every worker and wait until each answers a ping."""
        for handle in self.workers.values():
            await self._spawn(handle)
        for handle in self.workers.values():
            await self._wait_ready(handle)

    async def _spawn(self, handle: WorkerHandle) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        path = env.get("PYTHONPATH", "")
        if src not in path.split(os.pathsep):
            env["PYTHONPATH"] = (f"{src}{os.pathsep}{path}" if path
                                 else src)
        handle.process = await asyncio.create_subprocess_exec(
            *self._command(handle), env=env,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.DEVNULL,
        )
        await self._handshake(handle)
        # Keep draining stdout so the worker never blocks on a full
        # pipe; the task ends at EOF when the process exits.
        handle._drain_task = asyncio.get_running_loop().create_task(
            self._drain_stdout(handle.process.stdout),
            name=f"stdout:{handle.shard_id}",
        )

    async def _handshake(self, handle: WorkerHandle) -> None:
        """Read the worker's JSON ready line and learn its bound port."""
        deadline = asyncio.get_running_loop().time() + self.ready_timeout
        while True:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise WorkerError(
                    f"{handle.shard_id} sent no ready handshake within "
                    f"{self.ready_timeout}s"
                )
            try:
                line = await asyncio.wait_for(
                    handle.process.stdout.readline(), remaining
                )
            except asyncio.TimeoutError:
                raise WorkerError(
                    f"{handle.shard_id} sent no ready handshake within "
                    f"{self.ready_timeout}s"
                ) from None
            if not line:
                raise WorkerError(
                    f"{handle.shard_id} exited with code "
                    f"{handle.process.returncode} before its ready "
                    f"handshake"
                )
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue  # tolerate human-readable banner lines
            if isinstance(message, dict) and message.get("ready"):
                port = message.get("port")
                if not isinstance(port, int) or port < 1:
                    raise WorkerError(
                        f"{handle.shard_id} handshake reported a bad "
                        f"port: {port!r}"
                    )
                handle.port = port
                return

    @staticmethod
    async def _drain_stdout(stream: asyncio.StreamReader) -> None:
        with contextlib.suppress(Exception):
            while await stream.readline():
                pass

    async def _wait_ready(self, handle: WorkerHandle) -> None:
        deadline = (asyncio.get_running_loop().time()
                    + self.ready_timeout)
        while True:
            if not handle.alive:
                raise WorkerError(
                    f"{handle.shard_id} exited with code "
                    f"{handle.process.returncode} before becoming ready"
                )
            try:
                reader, writer = await asyncio.open_connection(
                    handle.host, handle.port
                )
                writer.write(protocol.encode({"op": "ping"}))
                await writer.drain()
                reply = protocol.decode_line(await reader.readline())
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                if reply.get("ok"):
                    return
            except (ConnectionError, OSError, protocol.ProtocolError):
                pass
            if asyncio.get_running_loop().time() >= deadline:
                raise WorkerError(
                    f"{handle.shard_id} not ready on "
                    f"{handle.host}:{handle.port} within "
                    f"{self.ready_timeout}s"
                )
            await asyncio.sleep(0.05)

    async def kill(self, shard_id: str) -> None:
        """SIGKILL a worker — the crash the recovery story is for."""
        handle = self.workers[shard_id]
        if handle.process is not None and handle.alive:
            handle.process.kill()
            await handle.process.wait()

    async def restart(self, shard_id: str) -> None:
        """Bring a (killed or dead) worker back on its original port
        and snapshot directory; blocks until it answers a ping —
        i.e. until recovery (snapshot load + WAL replay) finished."""
        handle = self.workers[shard_id]
        if handle.alive:
            await self.kill(shard_id)
        handle.restarts += 1
        await self._spawn(handle)
        await self._wait_ready(handle)

    async def spawn_shard(self,
                          shard_id: str | None = None) -> WorkerHandle:
        """Grow the fleet by one worker (live resharding's add half).

        Spawns a fresh process with its own snapshot (and standby)
        directory, waits until it is ready, and returns its handle —
        the caller adds it to the router's ring.
        """
        if shard_id is not None and shard_id in self.workers:
            raise WorkerError(f"shard {shard_id!r} already exists")
        handle = self._new_handle(shard_id)
        try:
            await self._spawn(handle)
            await self._wait_ready(handle)
        except BaseException:
            self.workers.pop(handle.shard_id, None)
            raise
        return handle

    async def stop_shard(self, shard_id: str) -> WorkerHandle:
        """Retire one worker (live resharding's remove half).

        The caller removes the shard from the router's ring *first* and
        lets the moved sessions drain-and-redirect; stopping the
        process is the final step.  Terminates politely, then SIGKILLs.
        """
        handle = self.workers.pop(shard_id)
        if handle.process is not None:
            if handle.alive:
                handle.process.terminate()
            try:
                await asyncio.wait_for(handle.process.wait(), 5.0)
            except asyncio.TimeoutError:
                handle.process.kill()
                await handle.process.wait()
        return handle

    async def stop(self) -> None:
        """Terminate the fleet (politely first, then SIGKILL)."""
        for handle in self.workers.values():
            if handle.alive:
                handle.process.terminate()
        for handle in self.workers.values():
            if handle.process is not None:
                try:
                    await asyncio.wait_for(handle.process.wait(), 5.0)
                except asyncio.TimeoutError:
                    handle.process.kill()
                    await handle.process.wait()

    def describe(self) -> dict:
        return {
            shard: {
                "endpoint": f"{handle.host}:{handle.port}",
                "alive": handle.alive,
                "restarts": handle.restarts,
                "snapshot_dir": str(handle.snapshot_dir),
                "standby_dir": (str(handle.standby_dir)
                                if handle.standby_dir else None),
            }
            for shard, handle in sorted(self.workers.items())
        }
