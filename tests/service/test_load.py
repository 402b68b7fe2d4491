"""The load harness end to end: N tenants over real TCP, the
BENCH_service.json report, and its rendering."""

import asyncio
import json

from repro.analysis.parallel import usable_cpus
from repro.analysis.report import render_service_report
from repro.service.client import run_load, write_report
from repro.service.server import CacheService, ServiceConfig
from repro.service.__main__ import main as service_main


def _run(tenants=3, **config_overrides):
    async def scenario():
        config = ServiceConfig(policy="8-unit",
                               capacity_bytes=128 * 1024,
                               check_level="light",
                               **config_overrides)
        service = CacheService(config)
        await service.start()
        try:
            return await run_load(
                "127.0.0.1", service.port, tenants,
                scale=0.25, accesses=2000, batch=128,
            ), service
        finally:
            await service.drain()

    return asyncio.run(scenario())


class TestRunLoad:
    def test_report_shape_and_accounting(self):
        report, service = _run(tenants=3)
        assert report["tenants"] == 3
        assert report["cpu_count"] == usable_cpus()
        assert report["total_accesses"] == 3 * 2000
        assert len(report["per_tenant"]) == 3
        for row in report["per_tenant"]:
            assert 0.0 <= row["miss_rate"] <= 1.0
            assert row["accesses"] == 2000
        # Every tenant closed, so the unified record covers everything.
        unified = report["unified"]
        assert unified["accesses"] == 6000
        assert unified["miss_rate"] == (
            unified["misses"] / unified["accesses"]
        )
        assert service.arena.to_dict()["tenants"] == 0
        assert service.arena.to_dict()["closed_tenants"] == 3

    def test_distinct_benchmarks_cycle(self):
        report, _ = _run(tenants=2)
        names = {row["benchmark"] for row in report["per_tenant"]}
        assert len(names) == 2

    def test_admission_contention_retries_through(self):
        # More tenants than admission slots: latecomers must retry on
        # `overloaded` until a slot frees, and all must finish.
        report, service = _run(tenants=4, max_sessions=2)
        assert report["total_accesses"] == 4 * 2000
        assert service.sessions_rejected > 0

    def test_write_and_render_report(self, tmp_path):
        report, _ = _run(tenants=2)
        path = tmp_path / "BENCH_service.json"
        write_report(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["tenants"] == 2
        text = render_service_report(loaded)
        assert "unified (Eq. 1)" in text
        for row in loaded["per_tenant"]:
            assert row["tenant"] in text

    def test_render_reports_the_crash_drill(self):
        report, _ = _run(tenants=2)
        report["chaos"] = {
            "shards": 4, "supervisor_restarts": 2,
            "standby_promoted": True, "redirected_sessions": 2,
            "field_identical": True, "mismatched_tenants": [],
            "sharing": True,
        }
        text = render_service_report(report)
        assert ("crash drill: 4 shards, 2 supervised restart(s), standby "
                "promoted, 2 session(s) redirected; drill stats "
                "field-identical (cross-tenant sharing on)") in text
        report["chaos"].update(field_identical=False,
                               mismatched_tenants=["tenant-0:gzip"])
        assert "MISMATCH: ['tenant-0:gzip']" in render_service_report(
            report)


class TestCli:
    def test_load_command_in_process(self, tmp_path, capsys):
        out = tmp_path / "BENCH_service.json"
        code = service_main([
            "load", "--tenants", "2", "--policy", "fifo",
            "--accesses", "1500", "--scale", "0.25",
            "--check", "light", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["server"] == "in-process"
        assert report["policy"] == "FIFO"
        assert report["total_accesses"] == 3000
        assert report["arena"]["tenants"] == 0
        printed = capsys.readouterr().out
        assert "unified miss rate" in printed

    def test_chaos_command_hands_its_check_level_to_the_drill(
            self, tmp_path, monkeypatch):
        seen = {}

        async def drill(root, config, **kwargs):
            seen["config"] = config
            return {"field_identical": True, "restart_seconds": [],
                    "shards": 4, "supervisor_restarts": 0,
                    "standby_promoted": False, "redirected_sessions": 0,
                    "replayed_batches": 0, "recoveries": {},
                    "placement": {}}

        monkeypatch.setattr("repro.service.__main__.run_chaos_bench",
                            drill)
        code = service_main([
            "chaos", "--check", "light",
            "--snapshot-root", str(tmp_path / "roots"),
            "--output", str(tmp_path / "BENCH_chaos.json"),
        ])
        assert code == 0
        assert seen["config"].check_level == "light"

    def test_load_against_external_server(self, tmp_path):
        async def scenario():
            service = CacheService(ServiceConfig(policy="4-unit",
                                                 capacity_bytes=64 * 1024))
            await service.start()
            port = service.port
            out = tmp_path / "report.json"
            code = await asyncio.to_thread(service_main, [
                "load", "--tenants", "2", "--connect",
                f"127.0.0.1:{port}", "--accesses", "1000",
                "--scale", "0.25", "--output", str(out),
            ])
            await service.drain()
            return code, json.loads(out.read_text())

        code, report = asyncio.run(scenario())
        assert code == 0
        assert report["server"].startswith("127.0.0.1:")
        assert report["total_accesses"] == 2000
