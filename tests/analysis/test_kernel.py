"""Unit tests for the one-pass multi-granularity kernel's API surface.

Bit-level equivalence with replay is covered by the property suite
(test_kernel_property) and the kernel-check CLI; these tests pin the
contract around it: eligibility classification, geometry handling,
engine selection and fallback, error mirroring, and the sweep-layer
``one_pass`` routing.
"""

import dataclasses

import pytest

from repro.analysis import ckernel
from repro.analysis.kernel import (
    KernelConfig,
    one_pass_grid,
    one_pass_sweep,
)
from repro.analysis.sweep import (
    ladder_policy_factories,
    policy_names,
    run_sweep,
)
from repro.core.cache import ConfigurationError
from repro.core.policies import granularity_ladder, ladder_specs
from repro.core.pressure import pressured_capacity
from repro.core.simulator import CodeCacheSimulator
from repro.core.superblock import Superblock, SuperblockSet
from repro.workloads.registry import (
    build_workload,
    get_benchmark,
    spec_benchmarks,
)


def _population(count=12, size=48, sparse=False):
    step = 7 if sparse else 1
    sids = [3 + i * step for i in range(count)]
    blocks = [
        Superblock(sid, size + (i % 3) * 8,
                   links=(sids[(i + 1) % count], sid))
        for i, sid in enumerate(sids)
    ]
    return SuperblockSet(blocks), sids


def _trace(sids, length=300):
    return [sids[(i * 5 + i // 3) % len(sids)] for i in range(length)]


def _ladder_configs(unit_counts, include_fine=True):
    return [KernelConfig.from_spec(spec)
            for spec in ladder_specs(unit_counts, include_fine)]


class TestClassification:
    def test_ladder_policies_are_eligible(self):
        assert KernelConfig.from_spec("flush") == KernelConfig(
            name="FLUSH", kind="unit", unit_count=1)
        config = KernelConfig.from_spec({"kind": "unit", "unit_count": 8})
        assert (config.name, config.kind, config.unit_count) == (
            "8-unit", "unit", 8)
        assert KernelConfig.from_spec({"kind": "fifo"}).kind == "fifo"

    def test_stateful_policies_need_replay(self):
        assert KernelConfig.from_spec("lru") is None
        assert KernelConfig.from_spec({"kind": "gen"}) is None

    def test_ladder_configs_match_factory_names(self):
        configs = _ladder_configs((1, 4, 64))
        names = policy_names(ladder_policy_factories((1, 4, 64)))
        assert tuple(c.name for c in configs) == names

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(name="x", kind="lru")
        with pytest.raises(ValueError):
            KernelConfig(name="x", kind="unit", unit_count=0)


class TestGridSemantics:
    def _replay(self, population, trace, capacity, unit_counts,
                track_links=True):
        out = {}
        for policy in granularity_ladder(unit_counts=unit_counts):
            simulator = CodeCacheSimulator(population, policy, capacity,
                                           track_links=track_links)
            record = simulator.process(trace)
            record.policy_name = policy.name
            out[policy.name] = dataclasses.asdict(record)
        return out

    def test_sweep_wrapper_equals_grid_row(self):
        population, sids = _population()
        trace = _trace(sids)
        configs = _ladder_configs((1, 4))
        capacity = population.total_bytes // 2
        solo = one_pass_sweep(population, trace, capacity, configs)
        grid = one_pass_grid(population, trace, [capacity], configs)
        for name in solo:
            assert (dataclasses.asdict(solo[name])
                    == dataclasses.asdict(grid[0][name]))

    def test_sparse_sid_population_matches_replay(self):
        population, sids = _population(sparse=True)
        trace = _trace(sids)
        capacity = population.total_bytes // 3
        grid = one_pass_grid(population, trace, [capacity],
                             _ladder_configs((1, 4)), engine="py")
        assert grid[0] | {} == grid[0]  # sanity: dict of stats
        want = self._replay(population, trace, capacity, (1, 4))
        for name, record in want.items():
            assert dataclasses.asdict(grid[0][name]) == record

    def test_configuration_errors_mirror_replay(self):
        population, sids = _population(size=64)
        configs = _ladder_configs((1,), include_fine=True)
        with pytest.raises(ConfigurationError):
            one_pass_grid(population, _trace(sids), [8], configs)
        # Unit capacity too small for the largest block at high counts
        # is clamped, exactly like UnitFifoPolicy, so it does NOT raise.
        big = population.total_bytes
        grid = one_pass_grid(population, _trace(sids), [big],
                             _ladder_configs((512,),
                                                   include_fine=False))
        assert "512-unit" in grid[0]

    def test_empty_configs_yield_empty_cells(self):
        population, sids = _population()
        assert one_pass_grid(population, _trace(sids), [1024], []) == [{}]


class TestEngines:
    def test_unknown_engine_rejected(self):
        population, sids = _population()
        with pytest.raises(ValueError):
            one_pass_grid(population, _trace(sids), [1024],
                          _ladder_configs((1,)), engine="bogus")

    def test_env_engine_rejected_when_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_ENGINE", "vectorized")
        population, sids = _population()
        with pytest.raises(ValueError):
            one_pass_grid(population, _trace(sids), [1024],
                          _ladder_configs((1,)))

    def test_forced_c_engine_unavailable_raises(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_lib_loaded", True)
        monkeypatch.setattr(ckernel, "_lib_error", "no compiler")
        population, sids = _population()
        with pytest.raises(RuntimeError, match="no compiler"):
            one_pass_grid(population, _trace(sids), [1024],
                          _ladder_configs((1,)), engine="c")

    def test_auto_engine_falls_back_to_python(self, monkeypatch):
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_lib_loaded", True)
        monkeypatch.setattr(ckernel, "_lib_error", "no compiler")
        population, sids = _population()
        trace = _trace(sids)
        capacity = population.total_bytes // 2
        configs = _ladder_configs((1, 4))
        auto = one_pass_grid(population, trace, [capacity], configs,
                             engine="auto")
        py = one_pass_grid(population, trace, [capacity], configs,
                           engine="py")
        for name in py[0]:
            assert (dataclasses.asdict(auto[0][name])
                    == dataclasses.asdict(py[0][name]))

    @pytest.mark.skipif(not ckernel.available(),
                        reason="C kernel unavailable")
    def test_c_engine_matches_python(self):
        population, sids = _population()
        trace = _trace(sids)
        capacities = [population.total_bytes // 3,
                      population.total_bytes // 2]
        configs = _ladder_configs((1, 3, 8))
        for track_links in (True, False):
            c = one_pass_grid(population, trace, capacities, configs,
                              track_links=track_links, engine="c")
            py = one_pass_grid(population, trace, capacities, configs,
                               track_links=track_links, engine="py")
            for c_cell, py_cell in zip(c, py):
                for name in py_cell:
                    assert (dataclasses.asdict(c_cell[name])
                            == dataclasses.asdict(py_cell[name]))

    def test_wide_grids_split_past_c_geometry_cap(self):
        # 17 distinct unit counts x 2 capacities = 34 geometries, past
        # the C engine's 31-geometry residency mask; the grid must split
        # by capacity and still match the pure-Python engine.
        blocks = [Superblock(i, 32, links=(i,)) for i in range(40)]
        population = SuperblockSet(blocks)
        trace = [i % 40 for i in range(400)]
        counts = tuple(range(1, 18))
        configs = _ladder_configs(counts, include_fine=False)
        capacities = [32 * 20, 32 * 23]
        auto = one_pass_grid(population, trace, capacities, configs,
                             engine="auto")
        py = one_pass_grid(population, trace, capacities, configs,
                           engine="py")
        for auto_cell, py_cell in zip(auto, py):
            for name in py_cell:
                assert (dataclasses.asdict(auto_cell[name])
                        == dataclasses.asdict(py_cell[name]))


    @pytest.mark.skipif(not ckernel.available(),
                        reason="C kernel unavailable")
    def test_c_engine_splits_configs_past_geometry_cap(self):
        # One capacity with 39 rungs that all resolve to distinct unit
        # counts: more geometries than one C residency mask holds, and
        # no capacity axis left to split, so the config axis splits.
        workload = build_workload(get_benchmark("gcc"), scale=0.25,
                                  trace_accesses=3000)
        blocks = workload.superblocks
        capacity = pressured_capacity(blocks, 2)
        configs = _ladder_configs(tuple(range(1, 40)))
        c = one_pass_grid(blocks, workload.trace, [capacity], configs,
                          engine="c")
        py = one_pass_grid(blocks, workload.trace, [capacity], configs,
                           engine="py")
        assert list(c[0]) == [config.name for config in configs]
        assert c == py


class TestSweepRouting:
    @pytest.fixture(scope="class")
    def workload(self):
        spec = spec_benchmarks()[0]
        return build_workload(spec, scale=0.1, trace_accesses=2000)

    def test_run_sweep_one_pass_identity(self, workload):
        factories = ladder_policy_factories((1, 4, 64))
        on = run_sweep([workload], factories, pressures=(2, 10),
                       one_pass=True)
        off = run_sweep([workload], factories, pressures=(2, 10),
                        one_pass=False)
        assert on.stats.keys() == off.stats.keys()
        for point in on.stats:
            assert (dataclasses.asdict(on.stats[point])
                    == dataclasses.asdict(off.stats[point])), point

    def test_run_sweep_mixed_ladder_replays_stateful_rungs(self, workload):
        factories = ladder_policy_factories((1, 4)) + ["lru"]
        result = run_sweep([workload], factories, pressures=(2,),
                           one_pass=True)
        assert result.policy_names == ("FLUSH", "4-unit", "FIFO", "LRU")
        replay = run_sweep([workload], factories, pressures=(2,),
                           one_pass=False)
        for point in result.stats:
            assert (dataclasses.asdict(result.stats[point])
                    == dataclasses.asdict(replay.stats[point]))

    def test_active_check_level_forces_replay(self, workload, monkeypatch):
        # Under checking the kernel is bypassed; the sweep still works
        # and produces the same counters.
        factories = ladder_policy_factories((1, 4))
        checked = run_sweep([workload], factories, pressures=(2,),
                            check_level="light", one_pass=True)
        plain = run_sweep([workload], factories, pressures=(2,),
                          one_pass=True)
        for point in plain.stats:
            assert (checked.stats[point].misses
                    == plain.stats[point].misses)
