"""Tests for the ``python -m repro.core`` replay driver."""

import pytest

from repro.core.__main__ import main as replay_main
from repro.dbt.logio import save_log
from repro.dbt.runtime import DBTRuntime
from repro.workloads.generator import demo_program


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    result = DBTRuntime(demo_program()).run(400_000)
    path = tmp_path_factory.mktemp("logs") / "demo.dbtlog"
    save_log(result.event_log, path)
    return str(path)


class TestReplayCli:
    def test_default_ladder(self, log_path, capsys):
        assert replay_main([log_path]) == 0
        output = capsys.readouterr().out
        assert "Replaying" in output
        assert "FLUSH" in output
        assert "FIFO" in output

    def test_explicit_capacity_and_units(self, log_path, capsys):
        assert replay_main([
            log_path, "--capacity", "2048", "--units", "2", "8",
        ]) == 0
        output = capsys.readouterr().out
        assert "2-unit" in output
        assert "8-unit" in output
        assert "FIFO" not in output

    def test_pressure_sizing(self, log_path, capsys):
        assert replay_main([log_path, "--pressure", "2"]) == 0
        assert "cache =" in capsys.readouterr().out

    def test_no_links_flag(self, log_path, capsys):
        assert replay_main([log_path, "--no-links"]) == 0
        output = capsys.readouterr().out
        # No link tracking: the unpatched column is all zeros.
        assert "Links unpatched" in output

    def test_units_take_the_shared_shorthand(self, log_path, capsys):
        assert replay_main([
            log_path, "--pressure", "2", "--units", "flush", "8-unit",
            "preempt", "lru",
        ]) == 0
        output = capsys.readouterr().out
        for name in ("FLUSH", "8-unit", "PREEMPT", "LRU"):
            assert name in output

    def test_bad_units_token(self, log_path):
        with pytest.raises(SystemExit):
            replay_main([log_path, "--units", "lots"])

    def test_log_without_entries_rejected(self, tmp_path):
        result = DBTRuntime(demo_program(),
                            record_entries=False).run(100_000)
        path = tmp_path / "empty.dbtlog"
        save_log(result.event_log, path)
        with pytest.raises(SystemExit):
            replay_main([str(path)])
