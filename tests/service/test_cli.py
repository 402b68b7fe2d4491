"""The service CLI builds one ServiceConfig and hands it on whole.

Spawn-free: pool workers are never started.  ``WorkerPool.start`` is
replaced by a recorder that keeps each worker's ``serve`` command and
stops the run, and each command is parsed back through ``serve``'s own
parser and ``_config`` — exactly what the worker process would do.
"""

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invariants import CHECK_LEVELS
from repro.service import __main__ as cli
from repro.service import bench
from repro.service.__main__ import _build_parser, _config, main
from repro.service.pool import WorkerPool
from repro.service.server import (
    SERVE_FLAGS,
    ServiceConfig,
    serve_arguments,
)

#: ServiceConfig fields no ``serve`` flag sets.
NON_CLI_FIELDS = {"max_block_bytes", "retry_after", "reclaim_fraction",
                  "check_context"}

#: Every server flag at a non-default value, and the value it sets.
FLAG_VALUES = {
    "policy": (["--policy", "fifo"], "fifo"),
    "capacity_bytes": (["--capacity", "65536"], 65536),
    "host": (["--host", "127.0.0.2"], "127.0.0.2"),
    "port": (["--port", "7999"], 7999),
    "max_sessions": (["--max-sessions", "3"], 3),
    "queue_batches": (["--queue-batches", "8"], 8),
    "pressure_threshold": (["--pressure", "0.9"], 0.9),
    "check_level": (["--check", "light"], "light"),
    "snapshot_dir": (["--snapshot-dir", "snapshots"], "snapshots"),
    "snapshot_interval": (["--snapshot-interval", "77"], 77),
    "standby_dir": (["--standby-dir", "standby"], "standby"),
    "rate_limit": (["--rate-limit", "1000"], 1000.0),
    "rate_burst": (["--rate-burst", "50"], 50.0),
    "sharing": (["--sharing"], True),
}

#: The server fields each subcommand takes a flag for: ``route`` all
#: but the ones the pool sets per worker, the fleet benches only the
#: settings their runs vary.
TAKES = {
    "route": set(SERVE_FLAGS) - {"host", "port", "snapshot_dir",
                                 "standby_dir"},
    "scale": {"policy", "capacity_bytes"},
    "dedup": {"policy", "capacity_bytes", "check_level"},
    "chaos": {"policy", "capacity_bytes", "check_level",
              "snapshot_interval", "sharing"},
}

#: What the workers of each fleet subcommand run at its defaults.
FLEET_DEFAULTS = {
    "route": ServiceConfig(max_sessions=16, snapshot_interval=50_000),
    "scale": ServiceConfig(max_sessions=64, snapshot_interval=1_000_000),
    "chaos": ServiceConfig(max_sessions=64, snapshot_interval=50_000),
}

#: Fleet subcommands, with the arguments that keep their set-up small.
FLEETS = {
    "route": ["--shards", "2"],
    "scale": ["--shard-counts", "2"],
    "chaos": ["--accesses", "2560", "--batch", "256",
              "--benchmarks", "gzip"],
}


def _flags(command):
    """Every server flag *command* takes, at its FLAG_VALUES value."""
    return [arg for name in sorted(TAKES[command])
            for arg in FLAG_VALUES[name][0]]


def _flagged(config, command):
    """*config* with every field *command* takes a flag for set to its
    FLAG_VALUES value."""
    return dataclasses.replace(config, **{
        name: FLAG_VALUES[name][1] for name in TAKES[command]
    })


class _Stopped(Exception):
    """Raised in place of spawning the first pool's workers."""


@pytest.fixture
def worker_configs(monkeypatch):
    """The ServiceConfig each worker of the first pool started would
    run, parsed from its ``serve`` command."""
    configs = []

    async def start(pool):
        parser = _build_parser()
        for handle in pool.workers.values():
            command = pool._command(handle)
            assert command[:4] == [sys.executable, "-m", "repro.service",
                                   "serve"]
            configs.append(_config(parser.parse_args(command[3:])))
        raise _Stopped

    monkeypatch.setattr(WorkerPool, "start", start)
    return configs


def _run_fleet(command, flags, tmp_path):
    with pytest.raises(_Stopped):
        main([command, *FLEETS[command], *flags,
              "--snapshot-root", str(tmp_path / "roots"),
              *([] if command == "route"
                else ["--output", str(tmp_path / "BENCH.json")])])


def _shared_part(config):
    return dataclasses.replace(config, port=0, snapshot_dir=None,
                               standby_dir=None)


_TEXT = st.text(max_size=12)
_BY_TYPE = {
    "str": _TEXT,
    "str | None": st.none() | _TEXT,
    "int": st.integers(),
    "float | None": st.none() | st.floats(allow_nan=False),
    "bool": st.booleans(),
}


def _strategy(field):
    if field.name == "check_level":
        return st.sampled_from((None, *CHECK_LEVELS))
    return _BY_TYPE[field.type]


class TestServeArguments:
    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({
        field.name: _strategy(field)
        for field in dataclasses.fields(ServiceConfig)
        if field.name not in NON_CLI_FIELDS
    }))
    def test_rendered_arguments_parse_back_to_the_config(self, values):
        config = ServiceConfig(**values)
        args = _build_parser().parse_args(["serve",
                                           *serve_arguments(config)])
        assert _config(args) == config


class TestFleetWorkersRunTheCliConfig:
    @pytest.mark.parametrize("command", sorted(FLEETS))
    def test_every_server_flag_reaches_every_worker(
            self, command, tmp_path, worker_configs):
        _run_fleet(command, _flags(command), tmp_path)
        assert len(worker_configs) >= 2
        for config in worker_configs:
            assert _shared_part(config) == _flagged(
                FLEET_DEFAULTS[command], command)
            assert config.snapshot_dir is not None

    @pytest.mark.parametrize("command", sorted(FLEETS))
    def test_defaults_are_unchanged(self, command, tmp_path,
                                    worker_configs):
        _run_fleet(command, [], tmp_path)
        for config in worker_configs:
            assert _shared_part(config) == FLEET_DEFAULTS[command]

    def test_stale_service_environment_is_ignored(
            self, tmp_path, monkeypatch, worker_configs):
        monkeypatch.setenv("REPRO_SERVICE_SHARING", "on")
        monkeypatch.setenv("REPRO_SERVICE_STANDBY_DIR", "/x")
        with pytest.raises(_Stopped):
            main(["route", "--no-sharing", "--shards", "3",
                  "--snapshot-root", str(tmp_path)])
        assert len(worker_configs) == 3
        for shard, config in enumerate(worker_configs):
            assert config.sharing is False
            assert config.standby_dir is None
            assert config.snapshot_dir == str(tmp_path / f"shard-{shard}")

    def test_standby_root_gives_each_worker_its_own_replica(
            self, tmp_path, worker_configs):
        with pytest.raises(_Stopped):
            main(["route", "--snapshot-root", str(tmp_path / "primary"),
                  "--standby-root", str(tmp_path / "standby")])
        assert [config.standby_dir for config in worker_configs] == [
            str(tmp_path / "standby" / f"shard-{i}") for i in range(2)
        ]

    @pytest.mark.parametrize("command,name", [
        (command, name) for command in sorted(TAKES)
        for name in SERVE_FLAGS
        if name not in TAKES[command]
        # route's own --host/--port are the router's address.
        and not (command == "route" and name in ("host", "port"))
    ])
    def test_flags_no_server_would_see_are_not_registered(self, command,
                                                          name):
        argv = FLAG_VALUES[name][0]
        _build_parser().parse_args(["serve", *argv])  # well-formed
        with pytest.raises(SystemExit) as excinfo:
            _build_parser().parse_args([command, *argv])
        assert excinfo.value.code == 2


class TestDedupSidesRunTheCliConfig:
    @pytest.fixture
    def side_configs(self, monkeypatch):
        configs = []

        async def side(config, *args):
            configs.append(config)
            return {"peak_logical_bytes": 2, "peak_resident_bytes": 1,
                    "unified_miss_rate": 0.0}

        monkeypatch.setattr(bench, "_run_dedup_side", side)
        return configs

    def test_every_server_flag_reaches_both_sides(self, tmp_path,
                                                  side_configs):
        assert main(["dedup", *_flags("dedup"),
                     "--output", str(tmp_path / "BENCH.json")]) == 0
        # Each side still picks its own sharing and admits at least
        # two sessions per tenant (four tenants by default).
        assert side_configs == [
            _flagged(ServiceConfig(sharing=sharing), "dedup")
            for sharing in (False, True)
        ]

    @pytest.mark.parametrize("tenants,max_sessions", ((4, 16), (12, 24)))
    def test_defaults_are_unchanged(self, tenants, max_sessions, tmp_path,
                                    side_configs):
        assert main(["dedup", "--tenants", str(tenants),
                     "--output", str(tmp_path / "BENCH.json")]) == 0
        assert side_configs == [
            ServiceConfig(sharing=sharing, max_sessions=max_sessions)
            for sharing in (False, True)
        ]


class TestConnectModesTakeNoServerFlags:
    """``route --connect-shards`` and ``load --connect`` start no
    server, so a server flag there fails the parse instead of silently
    changing nothing.  ``load --connect --sharing`` stays: it makes
    the client send content digests."""

    CONNECT = {
        "route": ["route", "--connect-shards", "127.0.0.1:9"],
        "load": ["load", "--connect", "127.0.0.1:9"],
    }
    LOAD_FLAGS = set(SERVE_FLAGS) - {"host", "port", "sharing"}

    @pytest.mark.parametrize("command,name", [
        *(("route", name) for name in sorted(TAKES["route"])),
        *(("load", name) for name in sorted(LOAD_FLAGS)),
    ])
    def test_server_flag_is_a_parser_error(self, command, name, capsys):
        argv = FLAG_VALUES[name][0]
        with pytest.raises(SystemExit) as excinfo:
            main([*self.CONNECT[command], *argv])
        assert excinfo.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_route_names_every_ignored_flag(self, capsys):
        with pytest.raises(SystemExit):
            main([*self.CONNECT["route"], "--sharing", "--policy", "fifo"])
        error = capsys.readouterr().err
        assert "--sharing" in error and "--policy" in error

    def test_route_without_server_flags_starts_the_router(self,
                                                          monkeypatch):
        async def start(router):
            raise _Stopped

        monkeypatch.setattr(cli.ServiceRouter, "start", start)
        with pytest.raises(_Stopped):
            main(self.CONNECT["route"])

    @pytest.mark.parametrize("flags,sharing", (
        ([], False), (["--sharing"], True), (["--no-sharing"], False)))
    def test_load_keeps_sharing(self, flags, sharing, tmp_path,
                                monkeypatch):
        calls = []

        async def run_load(host, port, tenants, **options):
            calls.append((host, port, options["share_content"]))
            return {"unified": {"miss_rate": 0.0}, "per_tenant": [],
                    "total_accesses": 0, "elapsed_seconds": 0.0,
                    "accesses_per_second": 0.0}

        monkeypatch.setattr(cli, "run_load", run_load)
        assert main([*self.CONNECT["load"], *flags,
                     "--output", str(tmp_path / "BENCH.json")]) == 0
        assert calls == [("127.0.0.1", 9, sharing)]
