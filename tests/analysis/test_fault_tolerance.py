"""Fault-tolerant sweep execution: retries, timeouts, degradation, resume.

These are the acceptance tests for the robustness layer: under every
injected failure the sweep must still produce a grid field-for-field
identical to the serial engine's, and an interrupted sweep must resume
from its stored slabs re-simulating only the missing ones (verified by
the fault report's simulated/resumed split).
"""

import dataclasses

import pytest

from repro import faults
from repro.analysis import sweepcache
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.parallel import (
    FaultTolerance,
    SweepError,
    SweepFailure,
    SweepTask,
    canonical_specs,
    imap_tasks,
    plan_tasks,
    task_key,
)
from repro.analysis.sweep import (
    SweepOptions,
    clear_sweep_cache,
    full_sweep,
    ladder_policy_factories,
    run_sweep,
    run_sweep_parallel,
)
from repro.analysis.sweepcache import Store
from repro.workloads.registry import (
    all_benchmarks,
    build_suite,
    spec_benchmarks,
)

SPECS = spec_benchmarks()[:3]
UNIT_COUNTS = (1, 4)
LADDER = ladder_policy_factories(UNIT_COUNTS)
LADDER_JSON = canonical_specs(LADDER)
PRESSURES = (2, 6)
BUILD_KWARGS = dict(scale=0.15, trace_accesses=2500)
#: No-backoff tolerance so retry tests don't sleep.
FAST = dict(backoff_base=0.0, backoff_cap=0.0)


@pytest.fixture(autouse=True)
def _disarm():
    sweepcache.reset_counters()
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def serial_grid():
    workloads = build_suite(SPECS, **BUILD_KWARGS)
    return run_sweep(workloads, LADDER, pressures=PRESSURES)


def _parallel(jobs=2, **kwargs):
    return run_sweep_parallel(SPECS, LADDER, pressures=PRESSURES,
                              jobs=jobs, **BUILD_KWARGS, **kwargs)


def _assert_identical(serial, other):
    assert set(other.stats) == set(serial.stats)
    for point, record in serial.stats.items():
        assert (dataclasses.asdict(other.stats[point])
                == dataclasses.asdict(record)), point


class TestRetries:
    def test_worker_raising_on_first_attempt_recovers(self, serial_grid):
        """Acceptance: one injected worker death per task, jobs=4, and
        the grid still equals the serial engine's field for field."""
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            result = _parallel(jobs=4, max_retries=2)
        _assert_identical(serial_grid, result)
        report = result.fault_report
        assert report.retried == {spec.name: 1 for spec in SPECS}
        assert not report.degraded
        assert sweepcache.counters()["retries"] == len(SPECS)

    def test_inline_engine_retries_identically(self, serial_grid):
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            result = _parallel(jobs=1, max_retries=2)
        _assert_identical(serial_grid, result)
        assert result.fault_report.retried == {
            spec.name: 1 for spec in SPECS
        }

    def test_single_task_fault_is_isolated(self, serial_grid):
        """Only the targeted task retries; the rest run clean."""
        from repro.analysis.parallel import task_key
        target = SweepTask(spec=SPECS[1], policy_specs=LADDER_JSON,
                           pressures=PRESSURES, **BUILD_KWARGS)
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1,
                                          keys=(task_key(target),))):
            result = _parallel(jobs=2, max_retries=2)
        _assert_identical(serial_grid, result)
        assert result.fault_report.retried == {SPECS[1].name: 1}

    def test_exhausted_retries_raise_sweep_error_with_report(self):
        # times is large enough to outlast every pool attempt AND the
        # in-process fallback, so the sweep legitimately cannot finish.
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=99)):
            with pytest.warns(RuntimeWarning, match="degrading"):
                with pytest.raises(SweepError) as info:
                    _parallel(jobs=2, max_retries=1)
        assert isinstance(info.value.failure, SweepFailure)
        assert info.value.failure.retried  # pool retries happened first


class TestTimeouts:
    def test_hung_worker_times_out_and_degrades_to_serial(self,
                                                          serial_grid):
        """A straggler that never returns trips the per-task timeout on
        every pool attempt, then the task degrades to in-process serial
        execution — and the grid is still exact."""
        hang = faults.FaultSpec(point="sweep.worker", mode="hang",
                                times=2, hang_seconds=30.0)
        with faults.plan(hang):
            with pytest.warns(RuntimeWarning, match="degrading"):
                result = _parallel(jobs=2, task_timeout=1.0, max_retries=1)
        _assert_identical(serial_grid, result)
        report = result.fault_report
        assert sorted(report.degraded) == sorted(s.name for s in SPECS)
        assert all(count == 2 for count in report.timeouts.values())

    def test_clean_run_reports_clean(self, serial_grid):
        result = _parallel(jobs=2, task_timeout=600.0)
        _assert_identical(serial_grid, result)
        assert result.fault_report.clean
        assert "3 simulated" in result.fault_report.summary()


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_missing_tasks_only(
            self, tmp_path, serial_grid):
        """Acceptance: a sweep interrupted mid-grid resumes from its
        stored slabs, re-simulating only unfinished tasks (probed via
        the fault report's simulated/resumed split)."""
        store = Store(tmp_path / "ckpt")
        # "Interrupt" after two of three benchmarks by running a
        # truncated grid against the same store.
        partial = run_sweep_parallel(SPECS[:2], LADDER,
                                     pressures=PRESSURES, jobs=2,
                                     checkpoints=store, **BUILD_KWARGS)
        assert partial.fault_report.simulated == [
            spec.name for spec in SPECS[:2]
        ]
        resumed = _parallel(jobs=2, checkpoints=Store(store.root))
        _assert_identical(serial_grid, resumed)
        report = resumed.fault_report
        assert report.resumed == [spec.name for spec in SPECS[:2]]
        assert report.simulated == [SPECS[2].name]

    def test_fully_checkpointed_sweep_simulates_nothing(self, tmp_path,
                                                        serial_grid):
        store = Store(tmp_path / "ckpt")
        _parallel(jobs=2, checkpoints=store)
        warm = _parallel(jobs=2, checkpoints=Store(store.root))
        _assert_identical(serial_grid, warm)
        assert warm.fault_report.simulated == []
        assert warm.fault_report.resumed == [spec.name for spec in SPECS]

    def test_corrupt_checkpoint_is_quarantined_and_resimulated(
            self, tmp_path, serial_grid):
        store = Store(tmp_path / "ckpt")
        _parallel(jobs=2, checkpoints=store)
        # Tear one slab file; its slab must be re-simulated and the
        # evidence moved into quarantine.
        victim = task_key(SweepTask(spec=SPECS[0], policy_specs=LADDER_JSON,
                                    pressures=PRESSURES, **BUILD_KWARGS))
        fresh = Store(store.root)
        fresh.path(f"{victim}.pkl").write_bytes(b"half a pickle")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result = _parallel(jobs=2, checkpoints=fresh)
        _assert_identical(serial_grid, result)
        assert result.fault_report.simulated == [SPECS[0].name]
        assert sorted(result.fault_report.resumed) == sorted(
            spec.name for spec in SPECS[1:]
        )
        quarantine = store.root / "quarantine"
        assert list(quarantine.glob("*.pkl"))
        # The re-simulated slab was stored again.
        assert fresh.load(victim) is not None

    def test_checkpoints_compose_with_injected_failures(self, tmp_path,
                                                        serial_grid):
        """Resume + one worker death per task at once: still exact."""
        store = Store(tmp_path / "ckpt")
        run_sweep_parallel(SPECS[:1], LADDER, pressures=PRESSURES, jobs=2,
                           checkpoints=store, **BUILD_KWARGS)
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            result = _parallel(jobs=2, max_retries=2,
                               checkpoints=Store(store.root))
        _assert_identical(serial_grid, result)
        report = result.fault_report
        assert report.resumed == [SPECS[0].name]
        # Only the two simulated tasks had an attempt to kill.
        assert report.retried == {spec.name: 1 for spec in SPECS[1:]}


class TestImapTasksContract:
    def test_order_preserved_with_failures(self):
        tasks = [
            SweepTask(spec=spec, policy_specs=canonical_specs(["flush"]),
                      pressures=(2,), **BUILD_KWARGS)
            for spec in SPECS
        ]
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            batches = list(imap_tasks(
                tasks, jobs=2, tolerance=FaultTolerance(**FAST)))
        assert [batch[0][0] for batch in batches] == [
            spec.name for spec in SPECS
        ]

    def test_caller_supplied_failure_report_is_filled(self):
        tasks = [
            SweepTask(spec=spec, policy_specs=canonical_specs(["flush"]),
                      pressures=(2,), **BUILD_KWARGS)
            for spec in SPECS[:2]
        ]
        report = SweepFailure()
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            list(imap_tasks(tasks, jobs=2,
                            tolerance=FaultTolerance(**FAST),
                            failure=report))
        assert report.retried
        assert not report.clean


class TestFullSweepIntegration:
    FULL_KWARGS = dict(scale=0.02, pressures=(2,), trace_accesses=500,
                       unit_counts=(1, 2))

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sweepcache.ENV_CACHE_DIR, str(tmp_path))
        clear_sweep_cache()
        yield tmp_path
        clear_sweep_cache()

    def test_full_sweep_survives_worker_faults(self, cache_dir):
        serial = full_sweep(options=SweepOptions(use_cache=False),
                            **self.FULL_KWARGS)
        clear_sweep_cache()
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            faulted = full_sweep(
                options=SweepOptions(jobs=4, use_cache=False,
                                     max_retries=2),
                **self.FULL_KWARGS)
        for point, record in serial.stats.items():
            assert (dataclasses.asdict(faulted.stats[point])
                    == dataclasses.asdict(record)), point

    def test_killed_serial_sweep_resumes(self, cache_dir, capsys):
        """A figure sweep on one worker keeps each slab as it finishes:
        killed at the third benchmark, the rerun loads the first two
        and simulates the rest; cache-stats then counts every slab and
        cache-clear removes them all."""
        options = SweepOptions(jobs=1, use_cache=True, max_retries=0)
        specs = all_benchmarks()
        tasks = plan_tasks(
            specs, ladder_policy_factories(self.FULL_KWARGS["unit_counts"]),
            scale=self.FULL_KWARGS["scale"],
            trace_accesses=self.FULL_KWARGS["trace_accesses"],
            pressures=self.FULL_KWARGS["pressures"])
        with faults.plan(faults.FaultSpec(point="sweep.worker", mode="raise",
                                          times=99,
                                          keys=(task_key(tasks[2]),))):
            with pytest.raises(SweepError, match=specs[2].name):
                full_sweep(options=options, **self.FULL_KWARGS)
        resumed = full_sweep(options=options, **self.FULL_KWARGS)
        report = resumed.fault_report
        assert report.resumed == [spec.name for spec in specs[:2]]
        assert report.simulated == [spec.name for spec in specs[2:]]
        clear_sweep_cache()
        fresh = full_sweep(options=SweepOptions(use_cache=False),
                           **self.FULL_KWARGS)
        assert resumed.stats == fresh.stats
        assert resumed.benchmark_names == fresh.benchmark_names

        capsys.readouterr()
        assert analysis_main(["cache-stats"]) == 0
        assert f"entries: {len(specs)} " in capsys.readouterr().out
        assert analysis_main(["cache-clear"]) == 0
        assert list(cache_dir.rglob("*.pkl")) == []
