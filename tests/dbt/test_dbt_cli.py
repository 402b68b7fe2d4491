"""Tests for the ``python -m repro.dbt`` command-line driver."""

import pytest

from repro.dbt.__main__ import main as dbt_main
from repro.dbt.logio import load_log


class TestDbtCli:
    def test_demo_run(self, capsys):
        assert dbt_main(["demo", "--max-guest", "50000"]) == 0
        output = capsys.readouterr().out
        assert "Run summary" in output
        assert "Work breakdown" in output
        assert "superblocks formed" in output

    def test_table2_benchmark_by_name(self, capsys):
        assert dbt_main(["gzip", "--max-guest", "30000"]) == 0
        assert "gzip" in capsys.readouterr().out

    def test_assembly_file(self, tmp_path, capsys):
        source = tmp_path / "prog.asm"
        source.write_text(
            "start:\n  movi r1, 120\n"
            "loop:\n  add r2, r2, 1\n  sub r1, r1, 1\n"
            "  bne r1, r0, loop\n  halt\n"
        )
        assert dbt_main([str(source), "--entry", "start"]) == 0
        output = capsys.readouterr().out
        assert "prog" in output

    def test_missing_file(self):
        with pytest.raises(SystemExit):
            dbt_main(["/nonexistent/prog.asm"])

    def test_bad_units(self):
        with pytest.raises(SystemExit):
            dbt_main(["demo", "--units", "many"])

    @pytest.mark.parametrize("units", ("preempt", "gen", "lru"))
    def test_non_ladder_kinds_refused(self, units):
        # The runtime never calls on_access: only the ladder kinds run.
        with pytest.raises(SystemExit, match="'flush', 'fifo' or a unit"):
            dbt_main(["demo", "--units", units])

    def test_unit_shorthand(self, capsys):
        assert dbt_main([
            "demo", "--cache-bytes", "4096", "--units", "4-unit",
            "--max-guest", "30000",
        ]) == 0

    def test_bounded_cache_with_units(self, capsys):
        assert dbt_main([
            "demo", "--cache-bytes", "4096", "--units", "4",
            "--max-guest", "50000",
        ]) == 0

    def test_fifo_units(self, capsys):
        assert dbt_main([
            "demo", "--units", "fifo", "--max-guest", "30000",
        ]) == 0

    def test_no_chaining_flag(self, capsys):
        assert dbt_main([
            "demo", "--no-chaining", "--max-guest", "30000",
        ]) == 0
        output = capsys.readouterr().out
        assert "chained transitions    |      0" in output.replace(
            "chained transitions |", "chained transitions    |"
        ) or "chained transitions" in output

    def test_save_log_round_trips(self, tmp_path, capsys):
        log_path = tmp_path / "run.dbtlog"
        assert dbt_main([
            "demo", "--max-guest", "50000", "--save-log", str(log_path),
        ]) == 0
        log = load_log(log_path)
        assert log.formed_count > 0
        assert len(log.access_trace()) > 0
