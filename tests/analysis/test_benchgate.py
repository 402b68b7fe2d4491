"""The benchmark-regression gate: baselines schema, thresholds, path
resolution, CLI exit codes — a gate that cannot fail is no gate."""

import json

import pytest

from repro.analysis import benchgate
from repro.analysis.__main__ import main as analysis_main


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return path


def _baselines(tmp_path, metrics):
    return _write(tmp_path / "baselines.json", {"metrics": metrics})


class TestSchema:
    def test_missing_metrics_rejected(self, tmp_path):
        path = _write(tmp_path / "b.json", {"metrics": {}})
        with pytest.raises(benchgate.GateError, match="non-empty"):
            benchgate.load_baselines(path)

    def test_metric_without_file_rejected(self, tmp_path):
        path = _baselines(tmp_path, {"m": {"path": "x", "floor": 1}})
        with pytest.raises(benchgate.GateError, match="file"):
            benchgate.load_baselines(path)

    def test_bad_direction_rejected(self, tmp_path):
        path = _baselines(tmp_path, {"m": {
            "file": "f.json", "path": "x", "direction": "sideways",
            "floor": 1,
        }})
        with pytest.raises(benchgate.GateError, match="direction"):
            benchgate.load_baselines(path)

    def test_unbounded_metric_rejected(self, tmp_path):
        path = _baselines(tmp_path, {"m": {"file": "f.json", "path": "x"}})
        with pytest.raises(benchgate.GateError, match="gates nothing"):
            benchgate.load_baselines(path)


class TestResolvePath:
    def test_nested_and_list_segments(self):
        data = {"rows": [{"v": 1}, {"v": 2}]}
        assert benchgate.resolve_path(data, "rows.1.v") == 2
        assert benchgate.resolve_path(data, "rows.-1.v") == 2

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            benchgate.resolve_path({"a": 1}, "b")

    def test_descending_into_scalar_raises(self):
        with pytest.raises(KeyError):
            benchgate.resolve_path({"a": 1}, "a.b")


class TestThresholds:
    def test_higher_takes_max_of_floor_and_relative(self):
        spec = benchgate.MetricSpec(
            name="m", file="f", path="p", direction="higher",
            baseline=100.0, rel_tolerance=0.2, floor=50.0,
        )
        assert benchgate.threshold_for(spec) == 80.0
        spec.floor = 90.0
        assert benchgate.threshold_for(spec) == 90.0

    def test_lower_takes_min_of_ceiling_and_relative(self):
        spec = benchgate.MetricSpec(
            name="m", file="f", path="p", direction="lower",
            baseline=10.0, rel_tolerance=0.5, ceiling=20.0,
        )
        assert benchgate.threshold_for(spec) == 15.0

    def test_floor_only_metric(self):
        spec = benchgate.MetricSpec(
            name="m", file="f", path="p", direction="higher", floor=2.0,
        )
        assert benchgate.threshold_for(spec) == 2.0


class TestGate:
    def _setup(self, tmp_path, value, floor=2.0):
        _write(tmp_path / "BENCH.json", {"metric": value,
                                         "flag": True})
        return _baselines(tmp_path, {
            "rate": {"file": "BENCH.json", "path": "metric",
                     "direction": "higher", "floor": floor},
            "flag": {"file": "BENCH.json", "path": "flag",
                     "equals": True},
        })

    def test_passing_gate(self, tmp_path):
        baselines = self._setup(tmp_path, value=5.0)
        report = benchgate.run_gate(baselines, tmp_path)
        assert report["ok"] and report["failed"] == []

    def test_regression_fails(self, tmp_path):
        baselines = self._setup(tmp_path, value=1.0)
        report = benchgate.run_gate(baselines, tmp_path)
        assert not report["ok"]
        assert report["failed"] == ["rate"]
        assert "below" in benchgate.render(report)

    def test_exact_mismatch_fails(self, tmp_path):
        _write(tmp_path / "BENCH.json", {"metric": 5.0, "flag": False})
        baselines = _baselines(tmp_path, {
            "flag": {"file": "BENCH.json", "path": "flag",
                     "equals": True},
        })
        report = benchgate.run_gate(baselines, tmp_path)
        assert report["failed"] == ["flag"]

    def test_missing_report_fails_not_skips(self, tmp_path):
        baselines = _baselines(tmp_path, {
            "rate": {"file": "ABSENT.json", "path": "metric",
                     "direction": "higher", "floor": 1.0},
        })
        report = benchgate.run_gate(baselines, tmp_path)
        assert report["failed"] == ["rate"]
        assert "missing bench report" in report["results"][0]["detail"]

    def test_missing_path_fails_not_skips(self, tmp_path):
        _write(tmp_path / "BENCH.json", {"other": 1})
        baselines = _baselines(tmp_path, {
            "rate": {"file": "BENCH.json", "path": "metric",
                     "direction": "higher", "floor": 1.0},
        })
        report = benchgate.run_gate(baselines, tmp_path)
        assert report["failed"] == ["rate"]

    def test_non_numeric_value_fails(self, tmp_path):
        _write(tmp_path / "BENCH.json", {"metric": "fast"})
        baselines = _baselines(tmp_path, {
            "rate": {"file": "BENCH.json", "path": "metric",
                     "direction": "higher", "floor": 1.0},
        })
        report = benchgate.run_gate(baselines, tmp_path)
        assert report["failed"] == ["rate"]


class TestWriteBaselines:
    def test_refresh_updates_only_levels(self, tmp_path):
        _write(tmp_path / "BENCH.json", {"metric": 7.5, "flag": True})
        baselines = _baselines(tmp_path, {
            "rate": {"file": "BENCH.json", "path": "metric",
                     "direction": "higher", "baseline": 5.0,
                     "rel_tolerance": 0.2, "floor": 1.0},
            "flag": {"file": "BENCH.json", "path": "flag",
                     "equals": True},
        })
        outcome = benchgate.write_baselines(baselines, tmp_path)
        assert outcome["updated"] == ["rate"]
        refreshed = json.loads(baselines.read_text())
        assert refreshed["metrics"]["rate"]["baseline"] == 7.5
        assert refreshed["metrics"]["rate"]["rel_tolerance"] == 0.2
        assert refreshed["metrics"]["flag"] == {
            "file": "BENCH.json", "path": "flag", "equals": True,
        }

    def test_unreadable_metric_reported(self, tmp_path):
        baselines = _baselines(tmp_path, {
            "rate": {"file": "ABSENT.json", "path": "metric",
                     "direction": "higher", "baseline": 5.0,
                     "floor": 1.0},
        })
        outcome = benchgate.write_baselines(baselines, tmp_path)
        assert outcome["missing"] == ["rate"]


class TestCli:
    def test_cli_pass_and_fail_exit_codes(self, tmp_path, capsys):
        _write(tmp_path / "BENCH.json", {"metric": 5.0})
        baselines = _baselines(tmp_path, {
            "rate": {"file": "BENCH.json", "path": "metric",
                     "direction": "higher", "floor": 2.0},
        })
        assert analysis_main([
            "bench-gate", "--baselines", str(baselines),
            "--bench-dir", str(tmp_path),
        ]) == 0
        assert "gate PASSED" in capsys.readouterr().out

        _write(tmp_path / "BENCH.json", {"metric": 1.0})
        assert analysis_main([
            "bench-gate", "--baselines", str(baselines),
            "--bench-dir", str(tmp_path),
        ]) == 1
        assert "gate FAILED" in capsys.readouterr().out

    def test_cli_write_baselines(self, tmp_path, capsys):
        _write(tmp_path / "BENCH.json", {"metric": 9.0})
        baselines = _baselines(tmp_path, {
            "rate": {"file": "BENCH.json", "path": "metric",
                     "direction": "higher", "baseline": 5.0,
                     "floor": 2.0},
        })
        assert analysis_main([
            "bench-gate", "--baselines", str(baselines),
            "--bench-dir", str(tmp_path), "--write-baselines",
        ]) == 0
        refreshed = json.loads(baselines.read_text())
        assert refreshed["metrics"]["rate"]["baseline"] == 9.0

    @pytest.mark.parametrize("write", (False, True))
    def test_missing_baselines_is_a_one_line_usage_error(
            self, tmp_path, monkeypatch, capsys, write):
        # The default path is cwd-relative; from elsewhere it is absent.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["bench-gate", "--bench-dir", str(tmp_path)]
                          + ["--write-baselines"] * write)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert benchgate.DEFAULT_BASELINES in err
        assert "No such file" in err

    @pytest.mark.parametrize("write", (False, True))
    @pytest.mark.parametrize("content,reason", (
        ('{"metrics": {}}', "non-empty"),
        ("not json", "not JSON"),
    ))
    def test_malformed_baselines_is_a_one_line_usage_error(
            self, tmp_path, capsys, write, content, reason):
        baselines = tmp_path / "baselines.json"
        baselines.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["bench-gate", "--baselines", str(baselines),
                           "--bench-dir", str(tmp_path)]
                          + ["--write-baselines"] * write)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(baselines) in err and reason in err
        assert baselines.read_text() == content

    def test_committed_baselines_parse(self):
        specs = benchgate.load_baselines("benchmarks/baselines.json")
        names = {spec.name for spec in specs}
        assert "service_dedup_ratio" in names
        assert "sweep_one_pass_speedup" in names
