"""Cross-package integration tests.

These exercise the seams the paper's methodology depends on: guest
programs through the DBT, DBT event logs into the simulator, calibrated
overhead models into simulations, and the CLI over the experiment
drivers.
"""

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.sweep import SweepOptions
from repro.core import (
    FineGrainedFifoPolicy,
    FlushPolicy,
    UnitFifoPolicy,
    pressured_capacity,
    simulate,
    unified_miss_rate,
)
from repro.dbt import DBTRuntime
from repro.papi import calibrated_overhead_model
from repro.workloads import build_workload, get_benchmark, spec_benchmarks
from repro.workloads.generator import GuestProgramSpec, generate_program


class TestDbtSimulatorConsistency:
    """The DBT with a bounded cache and the simulator replaying the
    DBT's own log must agree on cache behaviour."""

    @pytest.fixture(scope="class")
    def dbt_run(self):
        spec = GuestProgramSpec(
            "consistency", functions=8, body_blocks=3,
            instructions_per_block=8, inner_iterations=70,
            outer_iterations=25, side_exit_mask=3, seed=99,
        )
        program = generate_program(spec)
        policy = UnitFifoPolicy(4)
        capacity = 4096
        runtime = DBTRuntime(
            program, policy=policy, cache_capacity=capacity,
            max_trace_blocks=8, max_trace_bytes=512,
        )
        result = runtime.run(max_guest_instructions=900_000)
        return result, capacity

    def test_replay_reproduces_the_dbt_eviction_count(self, dbt_run):
        result, capacity = dbt_run
        population = result.event_log.superblock_set()
        trace = result.event_log.access_trace()
        # Replay under the same policy and capacity.  The formed/evicted
        # dynamics match the live run because the simulator misses on
        # exactly the accesses whose blocks the DBT had evicted; each
        # first-touch in the log corresponds to a live formation.
        stats = simulate(population, UnitFifoPolicy(4), capacity, trace)
        assert stats.accesses == result.cache_entries
        # Every distinct superblock in the log missed at least once.
        assert stats.misses >= len(population)

    def test_exported_population_is_well_formed(self, dbt_run):
        result, _ = dbt_run
        population = result.event_log.superblock_set()
        assert len(population) == result.superblocks_formed
        for block in population:
            assert block.size_bytes > 0
            for target in block.links:
                assert target in population


class TestCalibratedModelEndToEnd:
    def test_calibrated_and_paper_models_agree_on_policy_ranking(self):
        model = calibrated_overhead_model(samples=1200)
        workload = build_workload(get_benchmark("gap"), scale=0.4,
                                  trace_accesses=8000)
        blocks = workload.superblocks
        capacity = pressured_capacity(blocks, 6)
        rankings = {}
        for name, overhead_model in (("calibrated", model),):
            overheads = {}
            for policy in (FlushPolicy(), UnitFifoPolicy(8),
                           FineGrainedFifoPolicy()):
                stats = simulate(blocks, policy, capacity, workload.trace,
                                 overhead_model=overhead_model)
                overheads[policy.name] = stats.total_overhead
            rankings[name] = sorted(overheads, key=overheads.get)
        paper_overheads = {}
        for policy in (FlushPolicy(), UnitFifoPolicy(8),
                       FineGrainedFifoPolicy()):
            stats = simulate(blocks, policy, capacity, workload.trace)
            paper_overheads[policy.name] = stats.total_overhead
        paper_ranking = sorted(paper_overheads, key=paper_overheads.get)
        assert rankings["calibrated"] == paper_ranking


class TestSuiteLevelAggregation:
    def test_unified_miss_rate_over_a_mini_suite(self):
        records = []
        for spec in spec_benchmarks()[:3]:
            workload = build_workload(spec, scale=0.2, trace_accesses=4000)
            capacity = pressured_capacity(workload.superblocks, 4)
            records.append(
                simulate(workload.superblocks, UnitFifoPolicy(8),
                         capacity, workload.trace, benchmark=spec.name)
            )
        rate = unified_miss_rate(records)
        assert 0.0 < rate < 1.0
        total_accesses = sum(r.accesses for r in records)
        total_misses = sum(r.misses for r in records)
        assert rate == total_misses / total_accesses


class TestDeterminism:
    def test_full_pipeline_is_reproducible(self):
        def run():
            workload = build_workload(get_benchmark("twolf"), scale=0.3,
                                      trace_accesses=5000)
            capacity = pressured_capacity(workload.superblocks, 5)
            stats = simulate(workload.superblocks, UnitFifoPolicy(4),
                             capacity, workload.trace)
            return stats.to_dict()

        first = run()
        second = run()
        assert first == second


class TestCli:
    def test_list(self, capsys):
        assert analysis_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "figure6" in output
        assert "table2" in output

    def test_regenerate_table1(self, capsys):
        assert analysis_main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "word" in output
        assert "18043" in output

    def test_regenerate_simulation_figure_small(self, capsys):
        code = analysis_main([
            "figure6", "--scale", "0.05", "--trace-accesses", "1500",
            "--pressures", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "[figure6]" in output
        assert "FLUSH" in output

    def test_alias(self, capsys):
        code = analysis_main([
            "section51", "--scale", "0.05", "--trace-accesses", "1500",
            "--pressures", "2",
        ])
        assert code == 0
        assert "Back-pointer" in capsys.readouterr().out

    def test_unknown_artifact(self):
        with pytest.raises(SystemExit):
            analysis_main(["figure99"])

    def test_sweep_flags_overlay_the_environment(self, monkeypatch):
        class Swept(Exception):
            pass

        seen = {}

        def full_sweep(**kwargs):
            seen.update(kwargs)
            raise Swept

        monkeypatch.setattr(experiments, "full_sweep", full_sweep)
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        monkeypatch.setenv("REPRO_SWEEP_TIMEOUT", "5")
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "on")
        with pytest.raises(Swept):
            analysis_main(["figure7", "--task-timeout", "9", "--no-cache"])
        assert seen["options"] == SweepOptions(
            jobs=3, use_cache=False, task_timeout=9.0)

    @pytest.mark.parametrize("argv,env,named", (
        (["--jobs", "-1"], {}, "--jobs"),
        (["--task-timeout", "0"], {}, "--task-timeout"),
        (["--task-timeout", "-2.5"], {}, "--task-timeout"),
        ([], {"REPRO_SWEEP_JOBS": "many"}, "REPRO_SWEEP_JOBS"),
        ([], {"REPRO_SWEEP_TIMEOUT": "-1"}, "REPRO_SWEEP_TIMEOUT"),
        ([], {"REPRO_SWEEP_TIMEOUT": "soon"}, "REPRO_SWEEP_TIMEOUT"),
        ([], {"REPRO_SWEEP_JOBS": "-2"}, "REPRO_SWEEP_JOBS"),
        ([], {"REPRO_SWEEP_CACHE": "disabled"}, "REPRO_SWEEP_CACHE"),
    ))
    def test_bad_sweep_option_names_its_source(self, capsys, monkeypatch,
                                               argv, env, named):
        for variable, value in env.items():
            monkeypatch.setenv(variable, value)
        with pytest.raises(SystemExit) as excinfo:
            analysis_main(["figure6", *argv])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err


class TestTraceStatisticsFeedSimulation:
    def test_windows_workloads_stress_harder_than_spec(self):
        spec_workload = build_workload(get_benchmark("gzip"), scale=1.0,
                                       trace_accesses=10_000)
        windows_workload = build_workload(get_benchmark("pinball"),
                                          scale=0.28,
                                          trace_accesses=10_000)
        results = {}
        for workload in (spec_workload, windows_workload):
            blocks = workload.superblocks
            capacity = pressured_capacity(blocks, 4)
            stats = simulate(blocks, FlushPolicy(), capacity,
                             workload.trace)
            results[workload.name] = stats.miss_rate
        # Interactive applications churn more code per access (more
        # phases, less overlap) — the premise of the paper's workload
        # selection.
        assert results["pinball"] > results["gzip"] * 0.8
