"""Tests for sweep planning: one task per benchmark, and worker-count
selection.

``plan_tasks``/``plan_jobs`` decide how a sweep is cut up and whether a
process pool is worth paying for; ``estimate_task_accesses`` feeds the
latter.  The key regression pinned here: a pool that cannot win (single
CPU, or tiny tasks) degrades to the inline engine instead of shipping
overhead-dominated work to workers.
"""

import pytest

from repro.analysis import parallel
from repro.analysis.parallel import (
    MIN_ACCESSES_PER_TASK,
    SweepTask,
    canonical_specs,
    estimate_task_accesses,
    plan_jobs,
    plan_tasks,
    resolve_jobs,
    task_key,
    usable_cpus,
)
from repro.core.policies import ladder_specs
from repro.workloads.registry import default_trace_accesses, spec_benchmarks

SPECS = spec_benchmarks()[:3]
LADDER = ladder_specs()


class TestPlanTasks:
    def test_benchmark_shard_is_whole_slab(self):
        tasks = plan_tasks(SPECS, LADDER, pressures=(2.0, 10.0))
        assert len(tasks) == len(SPECS)
        assert all(task.pressures == (2.0, 10.0) for task in tasks)
        assert [task.spec.name for task in tasks] == [
            spec.name for spec in SPECS
        ]

    def test_execution_hints_do_not_change_task_key(self):
        base = plan_tasks(SPECS, LADDER, pressures=(2.0, 10.0))
        hinted = plan_tasks(SPECS, LADDER, pressures=(2.0, 10.0),
                            one_pass=False)
        assert [task_key(t) for t in base] == [task_key(t) for t in hinted]


class TestEstimate:
    def test_explicit_trace_length(self):
        task = SweepTask(spec=SPECS[0],
                         policy_specs=canonical_specs(ladder_specs((1, 8))),
                         trace_accesses=1000, pressures=(2.0, 10.0))
        assert estimate_task_accesses(task) == 1000 * 2 * 3

    def test_default_trace_length_mirrors_registry(self):
        task = SweepTask(spec=SPECS[0], policy_specs=canonical_specs(["1"]),
                         scale=0.5, pressures=(2.0,))
        blocks = max(1, round(SPECS[0].superblock_count * 0.5))
        assert estimate_task_accesses(task) == default_trace_accesses(blocks)


class TestPlanJobs:
    def test_serial_requests_stay_serial(self):
        assert plan_jobs(None) == 1
        assert plan_jobs(1, cpus=16) == 1

    def test_single_cpu_degrades_to_inline(self):
        assert plan_jobs(8, cpus=1, per_task_accesses=10**9) == 1

    def test_tiny_tasks_degrade_to_inline(self):
        assert plan_jobs(8, cpus=16,
                         per_task_accesses=MIN_ACCESSES_PER_TASK - 1) == 1

    def test_worthwhile_pool_fans_out(self):
        assert plan_jobs(8, cpus=16,
                         per_task_accesses=MIN_ACCESSES_PER_TASK) == 8

    def test_task_count_cap_matches_resolve_jobs(self):
        assert plan_jobs(8, task_count=3, cpus=16,
                         per_task_accesses=10**6) == resolve_jobs(8, 3)

    def test_unknown_estimate_trusts_the_caller(self):
        assert plan_jobs(4, cpus=16) == 4


class TestUsableCpus:
    """Worker counts follow the affinity mask, not the host's CPUs."""

    @pytest.fixture
    def one_cpu(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 8)

    def test_pinned_process_counts_one_cpu(self, one_cpu):
        assert usable_cpus() == 1
        assert resolve_jobs(0) == 1
        assert plan_jobs(8, per_task_accesses=10**9) == 1

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        assert resolve_jobs(0) == 3
