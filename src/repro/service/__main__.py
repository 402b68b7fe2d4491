"""The service CLI: ``python -m repro.service {serve,load,route,admin,scale,dedup,chaos}``.

``serve`` runs one worker in the foreground until interrupted (then
drains gracefully — with ``--snapshot-dir`` that includes a final
snapshot, and startup includes snapshot + write-ahead-log recovery);
its first stdout line is a machine-readable JSON ready handshake
carrying the actual bound port.  ``load`` drives N concurrent tenants
against a server.  ``route`` spawns a shard fleet plus the
consistent-hashing router in front of it — with ``--supervise`` a
:class:`~repro.service.supervisor.ShardSupervisor` health-checks and
auto-restarts the workers, and ``--standby-root`` gives every shard a
standby WAL/snapshot replica for failover.  ``admin`` sends one live
topology command (``add-shard``, ``remove-shard``, ``health``,
``topology``) to a running router.  ``scale``, ``dedup`` and ``chaos``
are the fleet benchmarks: weak scaling across shard counts, the
cross-tenant sharing A/B, and the crash drill (two tenants per shard
through a worker SIGKILL, WAL destruction with standby failover and a
live resharding — all healed by the supervisor, all field-identical
vs a clean reference); all three merge their sections into
``BENCH_service.json``.

Every subcommand that runs a server turns its server flags into one
:class:`~repro.service.server.ServiceConfig` (``_config``) and hands it
on whole: to the in-process server (``serve``, ``load``), to every
pool worker (``route``, ``scale``, ``chaos``; the pool renders each
worker's ``serve`` flags back from it), or to both sides of the dedup
A/B.  A subcommand registers only the server flags that reach its
servers.  ``route`` takes all but ``--host``, ``--port``,
``--snapshot-dir`` and ``--standby-dir`` (the pool picks each
worker's).  The fleet benches take only the settings their runs vary
and fix the rest: ``scale`` takes ``--policy`` and ``--capacity``
(64 sessions per worker, a snapshot every 1,000,000 accesses),
``dedup`` those and ``--check`` (each side sets its own sharing and
runs without persistence), ``chaos`` those and
``--snapshot-interval`` and ``--sharing`` (64 sessions per worker).
``route --connect-shards`` and ``load --connect`` start no server, so
a server flag there is a parser error, except ``load``'s ``--sharing``,
which makes the client send content digests.
No setting is read from the environment except the check level
(``REPRO_CHECK_LEVEL``, the default of ``--check``).

Examples::

    python -m repro.service serve --policy 8-unit --port 7401 \
        --snapshot-dir /var/tmp/shard-0 --standby-dir /var/tmp/standby-0
    python -m repro.service load --tenants 4 --accesses 20000
    python -m repro.service route --shards 2 --supervise \
        --snapshot-root /var/tmp/fleet --standby-root /var/tmp/standby
    python -m repro.service admin --connect 127.0.0.1:7400 remove-shard \
        --shard shard-1 --stop
    python -m repro.service scale --shard-counts 1 2 4
    python -m repro.service dedup --tenants 4 --benchmark gcc
    python -m repro.service chaos --shards 4 --accesses 12000 --sharing
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile

from repro.service.bench import (
    run_chaos_bench,
    run_dedup_bench,
    run_scale_bench,
)
from repro.service.client import ServiceClient, run_load, write_report
from repro.service.pool import DEFAULT_MAX_SESSIONS, WorkerPool
from repro.service.router import RouterConfig, ServiceRouter
from repro.service.server import SERVE_FLAGS, CacheService, ServiceConfig
from repro.service.supervisor import ShardSupervisor

#: Server flags a worker pool sets per worker itself.
_PER_WORKER = ("host", "port", "snapshot_dir", "standby_dir")


def _add_server_options(parser: argparse.ArgumentParser,
                        fields=tuple(SERVE_FLAGS), **settings) -> None:
    """Register the server flags of *fields*, each storing into its
    ServiceConfig field; *settings* set a field's default, or fix a
    field the subcommand takes no flag for.  A flag left off the command
    line and not in *settings* stays out of the parsed namespace, so
    :func:`_config` gives it the config's default and
    :func:`_reject_unused_server_flags` can tell it was not given."""
    base = ServiceConfig()
    for name in fields:
        flag, options = SERVE_FLAGS[name]
        default = settings.get(name, getattr(base, name))
        parser.add_argument(flag, dest=name, default=argparse.SUPPRESS,
                            **dict(options, help=options["help"]
                                   % {"default": default}))
    parser.set_defaults(**settings)


def _config(args: argparse.Namespace) -> ServiceConfig:
    """The ServiceConfig the parsed server flags describe; a field its
    subcommand neither flags nor fixes keeps the config's default."""
    given = vars(args)
    return ServiceConfig(**{name: given[name] for name in SERVE_FLAGS
                            if name in given})


#: Subcommands that can front servers someone else started: the
#: option that selects that mode, its flag, and the server flags the
#: mode still reads (``load --connect --sharing`` makes the client send
#: content digests).
_CONNECT_MODES = {
    "route": ("connect_shards", "--connect-shards", ()),
    "load": ("connect", "--connect", ("--sharing",)),
}


def _reject_unused_server_flags(parser: argparse.ArgumentParser,
                                args: argparse.Namespace) -> None:
    """Fail on a server flag given with a connect mode, which starts no
    server that could take it."""
    if args.command not in _CONNECT_MODES:
        return
    dest, option, kept = _CONNECT_MODES[args.command]
    if getattr(args, dest) is None:
        return
    given = vars(args)
    unused = [flag for name, (flag, _) in SERVE_FLAGS.items()
              if name in given and flag not in kept]
    if unused:
        parser.error(f"{args.command} {option} starts no server, so "
                     f"{', '.join(unused)} would have no effect")


def _merge_section(path: str, section: str, report: dict) -> None:
    """Fold *report* into ``path`` under *section*, keeping the rest."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        if not isinstance(existing, dict):
            existing = {}
    except (FileNotFoundError, json.JSONDecodeError):
        existing = {}
    existing[section] = report
    write_report(existing, path)


async def _serve(args: argparse.Namespace) -> int:
    config = _config(args)
    service = CacheService(config)
    await service.start()
    # Machine-readable ready handshake FIRST: the pool parses this line
    # to learn the port a bind-port-0 worker actually got.
    print(json.dumps({"ready": True, "host": config.host,
                      "port": service.port}), flush=True)
    line = (f"serving on {config.host}:{service.port} "
            f"(policy={service.arena.policy.name}, "
            f"capacity={service.arena.capacity_bytes} B, "
            f"check={service.arena.check_level}")
    if service.persister is not None:
        line += (f", snapshots={service.persister.root}, "
                 f"recovered={service.recovery['recovered']}")
    print(line + ")", flush=True)
    try:
        await service.serve_forever()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await service.drain()
        print("drained:", json.dumps(service.describe()["arena"]))
    return 0


async def _load(args: argparse.Namespace) -> int:
    config = _config(args)
    service = None
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        host, port = host or "127.0.0.1", int(port_text)
    else:
        service = CacheService(config)
        await service.start()
        host, port = "127.0.0.1", service.port
    try:
        report = await run_load(
            host, port, args.tenants,
            benchmarks=args.benchmarks, scale=args.scale,
            accesses=args.accesses, batch=args.batch,
            quota_bytes=args.quota_bytes,
            share_content=config.sharing,
            common_seed=1000 if config.sharing else None,
        )
    finally:
        if service is not None:
            await service.drain()
    if service is not None:
        report["server"] = "in-process"
        report["policy"] = service.arena.policy.name
        report["capacity_bytes"] = service.arena.capacity_bytes
        report["arena"] = service.arena.to_dict()
    else:
        report["server"] = f"{host}:{port}"
    # Keep the fleet-benchmark sections a previous run merged in.
    try:
        with open(args.output, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        for section in ("scaling", "dedup", "chaos"):
            if isinstance(existing, dict) and section in existing:
                report[section] = existing[section]
    except (FileNotFoundError, json.JSONDecodeError):
        pass
    write_report(report, args.output)
    unified = report["unified"]
    print(f"{args.tenants} tenants, {report['total_accesses']} accesses "
          f"in {report['elapsed_seconds']:.2f}s "
          f"({report['accesses_per_second']:.0f}/s)")
    print(f"unified miss rate {unified['miss_rate']:.4f}; per tenant:")
    for row in report["per_tenant"]:
        print(f"  {row['tenant']:<24} miss_rate={row['miss_rate']:.4f} "
              f"retries={row['retried_requests']}")
    print(f"report written to {args.output}")
    return 0


async def _route(args: argparse.Namespace) -> int:
    pool = None
    if args.connect_shards:
        shards = {}
        for index, spec in enumerate(args.connect_shards.split(",")):
            host, _, port_text = spec.strip().rpartition(":")
            shards[f"shard-{index}"] = (host or "127.0.0.1",
                                        int(port_text))
    else:
        root = args.snapshot_root or tempfile.mkdtemp(
            prefix="repro-fleet-"
        )
        pool = WorkerPool(args.shards, root, _config(args),
                          standby_root=args.standby_root)
        await pool.start()
        shards = pool.endpoints()
        print(f"pool of {args.shards} worker(s) under {root}:")
        for shard, (host, port) in sorted(shards.items()):
            print(f"  {shard} on {host}:{port}")
    router = ServiceRouter(RouterConfig(
        host=args.router_host, port=args.router_port, shards=shards,
    ), pool=pool)
    await router.start()
    supervisor = None
    if args.supervise:
        if pool is None:
            raise SystemExit("--supervise needs a spawned pool "
                             "(it restarts workers through it), not "
                             "--connect-shards")
        supervisor = ShardSupervisor(
            pool, router, interval=args.health_interval,
            probe_timeout=args.health_timeout,
            fail_threshold=args.health_fails,
        )
        await supervisor.start()
        print(f"supervising every {supervisor.interval}s "
              f"(timeout {supervisor.probe_timeout}s, "
              f"{supervisor.fail_threshold} fails to restart)")
    print(f"routing on {args.router_host}:{router.port} "
          f"({len(shards)} shard(s))", flush=True)
    try:
        await router.serve_forever()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        if supervisor is not None:
            await supervisor.stop()
        await router.aclose()
        if pool is not None:
            await pool.stop()
        print("router stopped:", json.dumps(router.describe()))
    return 0


async def _admin(args: argparse.Namespace) -> int:
    host, _, port_text = args.connect.rpartition(":")
    message = {"op": "admin", "action": args.action}
    if args.shard is not None:
        message["shard"] = args.shard
    if args.shard_host is not None:
        message["host"] = args.shard_host
    if args.shard_port is not None:
        message["port"] = args.shard_port
    if args.stop:
        message["stop"] = True
    reply = await ServiceClient.request_once(host or "127.0.0.1",
                                             int(port_text), message)
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0 if reply.get("ok") else 1


async def _scale(args: argparse.Namespace) -> int:
    root = args.snapshot_root or tempfile.mkdtemp(prefix="repro-scale-")
    report = await run_scale_bench(
        root, _config(args), shard_counts=tuple(args.shard_counts),
        tenants_per_shard=args.tenants_per_shard,
        accesses=args.accesses, scale=args.scale, batch=args.batch,
        benchmarks=args.benchmarks,
    )
    _merge_section(args.output, "scaling", report)
    for row in report["rows"]:
        print(f"{row['shards']} shard(s): {row['tenants']} tenants, "
              f"{row['accesses_per_second']:.0f}/s "
              f"(speedup {row['speedup']:.2f}x)")
    cores = report["cpu_count"] or 1
    if cores < max(args.shard_counts):
        print(f"note: only {cores} core(s) — worker processes "
              f"serialize past that, so speedups are bounded by the "
              f"hardware, not the fleet")
    print(f"scaling section merged into {args.output}")
    return 0


async def _dedup(args: argparse.Namespace) -> int:
    report = await run_dedup_bench(
        _config(args), tenants=args.tenants, benchmark=args.benchmark,
        scale=args.scale, accesses=args.accesses, batch=args.batch,
    )
    _merge_section(args.output, "dedup", report)
    on, off = report["sharing_on"], report["sharing_off"]
    print(f"{args.tenants} identical {args.benchmark} tenants: "
          f"dedup ratio {report['dedup_ratio']:.2f}x, "
          f"{report['bytes_saved']} peak bytes saved")
    print(f"miss rate {off['unified_miss_rate']:.4f} -> "
          f"{on['unified_miss_rate']:.4f} "
          f"(delta {report['miss_rate_delta']:+.4f})")
    print(f"dedup section merged into {args.output}")
    return 0


async def _chaos(args: argparse.Namespace) -> int:
    root = args.snapshot_root or tempfile.mkdtemp(prefix="repro-chaos-")
    report = await run_chaos_bench(
        root, _config(args), shards=args.shards, accesses=args.accesses,
        scale=args.scale, batch=args.batch, benchmarks=args.benchmarks,
    )
    _merge_section(args.output, "chaos", report)
    verdict = ("field-identical" if report["field_identical"]
               else f"MISMATCH on {report['mismatched_tenants']}")
    restarts = ", ".join(f"{s:.2f}s" for s in report["restart_seconds"])
    print(f"chaos drill over {report['shards']} shard(s): "
          f"{report['supervisor_restarts']} supervised restart(s) "
          f"({restarts or 'none'}), standby "
          f"{'promoted' if report['standby_promoted'] else 'UNUSED'}, "
          f"{report['redirected_sessions']} session(s) redirected, "
          f"{report['replayed_batches']} batch(es) replayed")
    for shard, recovery in sorted(report["recoveries"].items()):
        print(f"  {shard} recovered {len(recovery.get('tenants', []))} "
              f"of its {len(report['placement'][shard])} tenant(s), "
              f"{recovery.get('records_replayed', 0)} WAL record(s) "
              f"replayed")
    print(f"drill stats {verdict} vs the clean reference")
    print(f"chaos section merged into {args.output}")
    return 0 if report["field_identical"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Multi-tenant code-cache service, router and "
                    "fleet harnesses.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run one worker in the foreground"
    )
    _add_server_options(serve, port=7401)

    load = commands.add_parser(
        "load", help="drive N concurrent tenants and report"
    )
    _add_server_options(load, [name for name in SERVE_FLAGS
                               if name not in ("host", "port")])
    load.add_argument("--tenants", type=int, default=4)
    load.add_argument("--connect", default=None, metavar="HOST:PORT",
                      help="use a running server instead of an "
                           "in-process one")
    load.add_argument("--benchmarks", nargs="*", default=None,
                      help="registry benchmarks to cycle through "
                           "(default: the SPEC suite)")
    load.add_argument("--scale", type=float, default=0.25,
                      help="benchmark population scale (default: 0.25)")
    load.add_argument("--accesses", type=int, default=20_000,
                      help="trace length per tenant (default: 20000)")
    load.add_argument("--batch", type=int, default=256,
                      help="accesses per protocol message (default: 256)")
    load.add_argument("--quota-bytes", type=int, default=None,
                      help="per-tenant resident-byte quota (default: "
                           "uncapped)")
    load.add_argument("--output", default="BENCH_service.json",
                      help="report path (default: BENCH_service.json)")

    route = commands.add_parser(
        "route", help="run the consistent-hashing router (spawning a "
                      "worker pool unless --connect-shards)"
    )
    _add_server_options(route, [name for name in SERVE_FLAGS
                                if name not in _PER_WORKER])
    route.add_argument("--host", dest="router_host", default="127.0.0.1",
                       metavar="HOST",
                       help="address the router binds (default: "
                            "%(default)s)")
    route.add_argument("--port", dest="router_port", type=int,
                       default=7400, metavar="PORT",
                       help="port the router binds (default: "
                            "%(default)s)")
    route.add_argument("--shards", type=int, default=2,
                       help="workers to spawn (default: %(default)s)")
    route.add_argument("--snapshot-root", default=None,
                       help="parent directory for per-shard snapshot "
                            "dirs (default: a temp dir)")
    route.add_argument("--connect-shards", default=None,
                       metavar="HOST:PORT,...",
                       help="front already-running workers instead of "
                            "spawning a pool")
    route.add_argument("--standby-root", default=None,
                       help="parent directory for per-shard standby "
                            "replicas (default: off)")
    route.add_argument("--supervise", action="store_true",
                       help="health-check the workers and auto-restart "
                            "crashed or unresponsive ones")
    route.add_argument("--health-interval", type=float, default=0.5,
                       help="seconds between supervisor probe rounds "
                            "(default: %(default)s)")
    route.add_argument("--health-timeout", type=float, default=1.0,
                       help="seconds a shard gets to answer one probe "
                            "(default: %(default)s)")
    route.add_argument("--health-fails", type=int, default=2,
                       help="consecutive failed probes of a live "
                            "process before restart (default: "
                            "%(default)s)")

    admin = commands.add_parser(
        "admin", help="send one live topology command to a router"
    )
    admin.add_argument("action",
                       choices=("add-shard", "remove-shard", "health",
                                "topology"))
    admin.add_argument("--connect", required=True, metavar="HOST:PORT",
                       help="the router's endpoint")
    admin.add_argument("--shard", default=None,
                       help="shard id (required for remove-shard; "
                            "optional for add-shard)")
    admin.add_argument("--shard-host", default=None,
                       help="add-shard: endpoint host of an existing "
                            "worker (omit to spawn from the router's "
                            "pool)")
    admin.add_argument("--shard-port", type=int, default=None,
                       help="add-shard: endpoint port of an existing "
                            "worker")
    admin.add_argument("--stop", action="store_true",
                       help="remove-shard: also stop the worker "
                            "process (after the ring update)")

    scale = commands.add_parser(
        "scale", help="weak-scaling benchmark across shard counts"
    )
    _add_server_options(scale, ("policy", "capacity_bytes"),
                        max_sessions=DEFAULT_MAX_SESSIONS,
                        snapshot_interval=1_000_000)
    scale.add_argument("--shard-counts", type=int, nargs="+",
                       default=[1, 2, 4])
    scale.add_argument("--tenants-per-shard", type=int, default=4)
    scale.add_argument("--benchmarks", nargs="*", default=None)
    scale.add_argument("--scale", type=float, default=0.25)
    scale.add_argument("--accesses", type=int, default=20_000)
    scale.add_argument("--batch", type=int, default=256)
    scale.add_argument("--snapshot-root", default=None)
    scale.add_argument("--output", default="BENCH_service.json")

    dedup = commands.add_parser(
        "dedup", help="cross-tenant sharing A/B: identical tenants "
                      "with dedup on vs off"
    )
    # Each side of the A/B sets its own sharing and runs without
    # persistence (one directory would let the second side recover the
    # first's arena).
    _add_server_options(dedup, ("policy", "capacity_bytes", "check_level"))
    dedup.add_argument("--tenants", type=int, default=4)
    dedup.add_argument("--benchmark", default="gcc",
                       help="registry benchmark every tenant replays "
                            "(default: gcc)")
    dedup.add_argument("--scale", type=float, default=0.25)
    dedup.add_argument("--accesses", type=int, default=20_000)
    dedup.add_argument("--batch", type=int, default=256)
    dedup.add_argument("--output", default="BENCH_service.json")

    chaos = commands.add_parser(
        "chaos", help="crash drill: supervised restarts, standby "
                      "failover and live resharding, two tenants per "
                      "shard, vs a clean reference"
    )
    _add_server_options(chaos, ("policy", "capacity_bytes", "check_level",
                                "snapshot_interval", "sharing"),
                        max_sessions=DEFAULT_MAX_SESSIONS)
    chaos.add_argument("--shards", type=int, default=4)
    chaos.add_argument("--benchmarks", nargs="*", default=None)
    chaos.add_argument("--scale", type=float, default=0.25)
    chaos.add_argument("--accesses", type=int, default=12_000)
    chaos.add_argument("--batch", type=int, default=256)
    chaos.add_argument("--snapshot-root", default=None)
    chaos.add_argument("--output", default="BENCH_service.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _reject_unused_server_flags(parser, args)
    runner = {
        "serve": _serve,
        "load": _load,
        "route": _route,
        "admin": _admin,
        "scale": _scale,
        "dedup": _dedup,
        "chaos": _chaos,
    }[args.command]
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
