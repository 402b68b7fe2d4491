"""Parallel sweep engine: exact equivalence with the serial engine."""

import dataclasses

import pytest

from repro.analysis import sweep
from repro.analysis.parallel import (
    SweepTask,
    canonical_specs,
    imap_tasks,
    resolve_jobs,
    simulate_task,
)
from repro.analysis.sweep import (
    SweepOptions,
    ladder_policy_factories,
    run_sweep,
    run_sweep_parallel,
)
from repro.workloads.registry import build_suite, spec_benchmarks

SPECS = spec_benchmarks()[:3]
UNIT_COUNTS = (1, 4)
LADDER = ladder_policy_factories(UNIT_COUNTS)
LADDER_JSON = canonical_specs(LADDER)
PRESSURES = (2, 6)
BUILD_KWARGS = dict(scale=0.15, trace_accesses=2500)


def _serial_reference():
    workloads = build_suite(SPECS, **BUILD_KWARGS)
    return run_sweep(workloads, LADDER, pressures=PRESSURES)


def _assert_grids_identical(serial, parallel):
    assert parallel.policy_names == serial.policy_names
    assert parallel.benchmark_names == serial.benchmark_names
    assert parallel.pressures == serial.pressures
    assert set(parallel.stats) == set(serial.stats)
    for point, record in serial.stats.items():
        # Field-for-field: every counter and float accumulator must
        # match exactly, not approximately.
        assert (dataclasses.asdict(parallel.stats[point])
                == dataclasses.asdict(record)), point


class TestResolveJobs:
    def test_none_and_one_mean_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_explicit_count_passes_through(self):
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_task_count_caps_the_worker_count(self):
        assert resolve_jobs(8, task_count=3) == 3
        assert resolve_jobs(2, task_count=5) == 2
        assert resolve_jobs(0, task_count=1) == 1
        assert resolve_jobs(None, task_count=0) == 1


class TestEnvKnobs:
    def test_unset_env_means_none(self, monkeypatch):
        for name in ("REPRO_SWEEP_JOBS", "REPRO_SWEEP_TIMEOUT"):
            monkeypatch.delenv(name, raising=False)
        options = SweepOptions.from_env()
        assert options.jobs is None
        assert options.task_timeout is None

    def test_valid_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "4")
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "2.5")
        options = SweepOptions.from_env()
        assert options.jobs == 4
        assert options.task_timeout == 2.5

    def test_only_the_three_sweep_variables_are_read(self, monkeypatch):
        read = []

        class Environ(dict):
            def get(self, name, default=None):
                read.append(name)
                return super().get(name, default)

        monkeypatch.setattr(sweep.os, "environ", Environ())
        assert SweepOptions.from_env() == SweepOptions()
        assert sorted(read) == ["REPRO_SWEEP_CACHE", "REPRO_SWEEP_JOBS",
                                "REPRO_SWEEP_TIMEOUT"]
        assert [field.name for field in dataclasses.fields(SweepOptions)
                ] == ["jobs", "use_cache", "task_timeout"]

    def test_bad_jobs_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_SWEEP_JOBS"):
            SweepOptions.from_env()
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "-2")
        with pytest.raises(ValueError, match="REPRO_SWEEP_JOBS"):
            SweepOptions.from_env()

    def test_bad_timeout_names_its_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SWEEP_TIMEOUT"):
            SweepOptions.from_env()
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="REPRO_SWEEP_TIMEOUT"):
            SweepOptions.from_env()

    def test_constructor_holds_the_range_checks(self):
        for bad in ({"jobs": -1}, {"task_timeout": 0}):
            with pytest.raises(ValueError, match=next(iter(bad))):
                SweepOptions(**bad)


class TestSimulateTask:
    def test_task_payload_has_no_materialized_trace(self):
        task = SweepTask(spec=SPECS[0], policy_specs=LADDER_JSON,
                         pressures=PRESSURES, **BUILD_KWARGS)
        field_names = {f.name for f in dataclasses.fields(task)}
        assert "trace" not in field_names
        assert "superblocks" not in field_names

    def test_slab_matches_serial_grid_points(self):
        serial = _serial_reference()
        task = SweepTask(spec=SPECS[0], policy_specs=LADDER_JSON,
                         pressures=PRESSURES, **BUILD_KWARGS)
        records = simulate_task(task)
        assert len(records) == len(PRESSURES) * 3  # FLUSH, 4-unit, FIFO
        for benchmark, policy, pressure, record in records:
            expected = serial.stats[(benchmark, policy, pressure)]
            assert (dataclasses.asdict(record)
                    == dataclasses.asdict(expected))


class TestParallelEquivalence:
    def test_process_pool_grid_is_identical(self):
        serial = _serial_reference()
        parallel = run_sweep_parallel(SPECS, LADDER, pressures=PRESSURES,
                                      jobs=2, **BUILD_KWARGS)
        _assert_grids_identical(serial, parallel)

    def test_inline_engine_is_identical(self):
        serial = _serial_reference()
        inline = run_sweep_parallel(SPECS, LADDER, pressures=PRESSURES,
                                    jobs=1, **BUILD_KWARGS)
        _assert_grids_identical(serial, inline)

    def test_progress_callback_fires_per_benchmark(self):
        lines = []
        run_sweep_parallel(SPECS, ["flush"], pressures=(2,), jobs=2,
                           progress=lines.append, **BUILD_KWARGS)
        assert lines == [f"swept {spec.name}" for spec in SPECS]

    def test_imap_preserves_task_order(self):
        tasks = [
            SweepTask(spec=spec, policy_specs=canonical_specs(["flush"]),
                      pressures=(2,), **BUILD_KWARGS)
            for spec in SPECS
        ]
        batches = list(imap_tasks(tasks, jobs=2))
        names = [batch[0][0] for batch in batches]
        assert names == [spec.name for spec in SPECS]
