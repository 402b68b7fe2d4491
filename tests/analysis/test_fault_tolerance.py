"""Fault-tolerant sweep execution: re-runs, timeouts, resume.

These are the acceptance tests for the robustness layer: every task
gets at most two attempts, and under every injected failure the first
attempt can survive, the sweep must still produce a grid field-for-field
identical to the serial engine's.  An interrupted sweep must resume
from its stored slabs re-simulating only the missing ones (verified by
the fault report's simulated/resumed split).
"""

import dataclasses
import os

import pytest

from repro import faults
from repro.analysis import parallel, sweepcache
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.parallel import (
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


@pytest.fixture(autouse=True)
def _disarm():
    sweepcache.reset_counters()
    yield
    faults.disarm()


@pytest.fixture(scope="module")
def serial_grid():
    workloads = build_suite(SPECS, **BUILD_KWARGS)
    return run_sweep(workloads, LADDER, pressures=PRESSURES)


@pytest.fixture
def pools(monkeypatch):
    """Count the process pools the executor builds."""
    built = []

    class CountedPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountedPool)
    return built


def _parallel(jobs=2, specs=SPECS, **kwargs):
    return run_sweep_parallel(specs, LADDER, pressures=PRESSURES,
                              jobs=jobs, **BUILD_KWARGS, **kwargs)


def _assert_identical(serial, other):
    assert set(other.stats) == set(serial.stats)
    for point, record in serial.stats.items():
        assert (dataclasses.asdict(other.stats[point])
                == dataclasses.asdict(record)), point


_ATTEMPT = parallel._attempt_task


def _attempt_killing_vpr_worker(task, key, attempt):
    """An attempt whose process dies on vpr's first try, breaking the
    pool (picklable by name, so pool workers run it too)."""
    if attempt == 1 and task.spec.name == "vpr":
        os._exit(3)
    return _ATTEMPT(task, key, attempt)


class TestRetries:
    def test_worker_raising_on_first_attempt_recovers(self, serial_grid,
                                                      pools):
        """Acceptance: one injected worker failure per task, jobs=4, and
        the grid still equals the serial engine's field for field: each
        task is re-run once in process, and the pool is never rebuilt."""
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            with pytest.warns(RuntimeWarning, match="re-running it in "
                                                    "process"):
                result = _parallel(jobs=4)
        _assert_identical(serial_grid, result)
        report = result.fault_report
        assert sorted(report.degraded) == sorted(s.name for s in SPECS)
        assert set(report.errors) == {spec.name for spec in SPECS}
        assert not report.timeouts
        assert len(pools) == 1

    def test_inline_engine_retries_identically(self, serial_grid, pools):
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            with pytest.warns(RuntimeWarning, match="re-running"):
                result = _parallel(jobs=1)
        _assert_identical(serial_grid, result)
        assert result.fault_report.degraded == [spec.name for spec in SPECS]
        assert pools == []

    def test_single_task_fault_is_isolated(self, serial_grid):
        """Only the targeted task is re-run; the rest run clean."""
        target = SweepTask(spec=SPECS[1], policy_specs=LADDER_JSON,
                           pressures=PRESSURES, **BUILD_KWARGS)
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1,
                                          keys=(task_key(target),))):
            with pytest.warns(RuntimeWarning, match=SPECS[1].name):
                result = _parallel(jobs=2)
        _assert_identical(serial_grid, result)
        assert result.fault_report.degraded == [SPECS[1].name]
        assert list(result.fault_report.errors) == [SPECS[1].name]

    def test_exhausted_retries_raise_sweep_error_with_report(self):
        # Both attempts fail, so the sweep legitimately cannot finish.
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=2)):
            with pytest.warns(RuntimeWarning, match="re-running"):
                with pytest.raises(SweepError,
                                   match=f"{SPECS[0].name}.*both") as info:
                    _parallel(jobs=2)
        report = info.value.failure
        assert isinstance(report, SweepFailure)
        assert report.degraded == [SPECS[0].name]
        assert "#2" in report.errors[SPECS[0].name]

    def test_broken_pool_reruns_every_unfinished_task_in_process(
            self, serial_grid, pools, monkeypatch):
        """A worker that dies breaks the pool: it is not rebuilt, and
        every task that had not finished runs in process instead."""
        monkeypatch.setattr(parallel, "_attempt_task",
                            _attempt_killing_vpr_worker)
        with pytest.warns(RuntimeWarning, match="re-running"):
            result = _parallel(jobs=2)
        _assert_identical(serial_grid, result)
        report = result.fault_report
        assert SPECS[1].name in report.degraded
        assert "BrokenProcessPool" in report.errors[SPECS[1].name]
        assert not report.timeouts
        assert len(pools) == 1


class TestTimeouts:
    def test_hung_worker_times_out_and_degrades_to_serial(self,
                                                          serial_grid):
        """A straggler that hangs trips the per-task timeout once; its
        pool is put down and every unfinished task is re-run in
        process, where the fault lets the second attempt through — and
        the grid is still exact."""
        hang = faults.FaultSpec(point="sweep.worker", mode="hang",
                                times=1, hang_seconds=30.0)
        with faults.plan(hang):
            with pytest.warns(RuntimeWarning, match="re-running"):
                result = _parallel(jobs=2, task_timeout=1.0)
        _assert_identical(serial_grid, result)
        report = result.fault_report
        assert sorted(report.degraded) == sorted(s.name for s in SPECS)
        # Only the first two tasks ever reached a worker, and a task
        # times out at most once.
        assert report.timeouts
        assert len(set(report.timeouts)) == len(report.timeouts)
        assert set(report.timeouts) <= {s.name for s in SPECS[:2]}
        assert all("timed out" in report.errors[name]
                   for name in report.timeouts)

    def test_queued_task_deadline_starts_when_a_worker_is_free(self):
        """Eight slowed first attempts on two workers: each attempt
        takes 0.4 s, well inside its 1 s timeout, but the last ones wait
        longer than that for a worker.  Waiting does not count, so
        nothing times out or is re-run."""
        specs = spec_benchmarks()[:8]
        serial = run_sweep(build_suite(specs, **BUILD_KWARGS), LADDER,
                           pressures=PRESSURES)
        slow = faults.FaultSpec(point="sweep.worker", mode="hang",
                                times=1, hang_seconds=0.4)
        with faults.plan(slow):
            result = _parallel(jobs=2, specs=specs, task_timeout=1.0)
        report = result.fault_report
        assert report.timeouts == []
        assert report.degraded == []
        assert result.stats == serial.stats

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
            with pytest.warns(RuntimeWarning, match="re-running"):
                result = _parallel(jobs=2, checkpoints=Store(store.root))
        _assert_identical(serial_grid, result)
        report = result.fault_report
        assert report.resumed == [SPECS[0].name]
        # Only the two simulated tasks had an attempt to kill.
        assert sorted(report.degraded) == sorted(s.name for s in SPECS[1:])


class TestImapTasksContract:
    def test_order_preserved_with_failures(self):
        tasks = [
            SweepTask(spec=spec, policy_specs=canonical_specs(["flush"]),
                      pressures=(2,), **BUILD_KWARGS)
            for spec in SPECS
        ]
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            with pytest.warns(RuntimeWarning, match="re-running"):
                batches = list(imap_tasks(tasks, jobs=2))
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
            with pytest.warns(RuntimeWarning, match="re-running"):
                list(imap_tasks(tasks, jobs=2, failure=report))
        assert sorted(report.degraded) == sorted(s.name for s in SPECS[:2])
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

    def test_full_sweep_survives_worker_faults(self, cache_dir, pools,
                                               monkeypatch):
        """Tasks big enough for ``plan_jobs`` to fan out (on any host),
        each failing its first attempt in a pool worker: one pool runs,
        every task is re-run in process, and the grid is unchanged."""
        kwargs = dict(self.FULL_KWARGS, trace_accesses=34_000)
        specs = all_benchmarks()
        tasks = plan_tasks(
            specs, ladder_policy_factories(kwargs["unit_counts"]),
            scale=kwargs["scale"], trace_accesses=kwargs["trace_accesses"],
            pressures=kwargs["pressures"])
        assert all(parallel.estimate_task_accesses(task)
                   >= parallel.MIN_ACCESSES_PER_TASK for task in tasks)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        serial = full_sweep(options=SweepOptions(use_cache=False), **kwargs)
        assert pools == []
        clear_sweep_cache()
        with faults.plan(faults.FaultSpec(point="sweep.worker",
                                          mode="raise", times=1)):
            with pytest.warns(RuntimeWarning, match="re-running"):
                faulted = full_sweep(
                    options=SweepOptions(jobs=4, use_cache=False),
                    **kwargs)
        assert len(pools) == 1
        assert faulted.fault_report.degraded == [spec.name
                                                 for spec in specs]
        assert faulted.stats == serial.stats

    def test_killed_serial_sweep_resumes(self, cache_dir, capsys):
        """A figure sweep on one worker keeps each slab as it finishes:
        killed at the third benchmark, the rerun loads the first two
        and simulates the rest; cache-stats then counts every slab and
        cache-clear removes them all."""
        options = SweepOptions(jobs=1, use_cache=True)
        specs = all_benchmarks()
        tasks = plan_tasks(
            specs, ladder_policy_factories(self.FULL_KWARGS["unit_counts"]),
            scale=self.FULL_KWARGS["scale"],
            trace_accesses=self.FULL_KWARGS["trace_accesses"],
            pressures=self.FULL_KWARGS["pressures"])
        with faults.plan(faults.FaultSpec(point="sweep.worker", mode="raise",
                                          times=2,
                                          keys=(task_key(tasks[2]),))):
            with pytest.warns(RuntimeWarning, match=specs[2].name):
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
