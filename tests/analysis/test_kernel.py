"""Unit tests for the one-pass multi-granularity kernel's API surface.

Bit-level equivalence with replay is covered by the property suite
(test_kernel_property) and the kernel-check CLI; these tests pin the
contract around it: eligibility classification, geometry handling,
engine selection and fallback, error mirroring, and the sweep-layer
``one_pass`` routing.
"""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ckernel
from repro.analysis.kernel import (
    KernelConfig,
    _Population,
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
from repro.search.expr import Binary, Const, Feature, Unary
from repro.search.expr import to_dict as expr_to_dict
from repro.search.priority import PriorityFunctionPolicy
from repro.workloads.registry import (
    build_workload,
    get_benchmark,
    spec_benchmarks,
)
from tests.core.test_superblock import _columns, _from_arrays, _from_objects


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


_AGE = Feature("age")


def _unload(monkeypatch):
    """Make the C kernel look unbuildable for one test."""
    monkeypatch.setattr(ckernel, "_lib", None)
    monkeypatch.setattr(ckernel, "_lib_loaded", True)
    monkeypatch.setattr(ckernel, "_lib_error", "no compiler")


def _priority_replay(population, trace, capacity, name, tree,
                     track_links=True):
    policy = PriorityFunctionPolicy(tree, population, name=name)
    return CodeCacheSimulator(population, policy, capacity,
                              track_links=track_links).process(trace)


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
        with pytest.raises(ValueError):
            KernelConfig(name="x", kind="priority")
        with pytest.raises(ValueError):
            KernelConfig(name="x", kind="fifo", expression=_AGE)

    def test_priority_specs_follow_the_c_engine(self, monkeypatch):
        spec = {"kind": "priority", "name": "p",
                "expression": {"kind": "feature", "name": "age"}}
        monkeypatch.setenv("REPRO_KERNEL_ENGINE", "c")
        assert KernelConfig.from_spec(spec) == KernelConfig(
            name="p", kind="priority", expression=_AGE)
        monkeypatch.setenv("REPRO_KERNEL_ENGINE", "py")
        assert KernelConfig.from_spec(spec) is None
        monkeypatch.setenv("REPRO_KERNEL_ENGINE", "auto")
        _unload(monkeypatch)
        assert KernelConfig.from_spec(spec) is None
        # Ladder kinds keep the Python engine to fall back on.
        assert KernelConfig.from_spec("fifo") is not None


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
        _unload(monkeypatch)
        population, sids = _population()
        with pytest.raises(RuntimeError, match="no compiler"):
            one_pass_grid(population, _trace(sids), [1024],
                          _ladder_configs((1,)), engine="c")

    def test_auto_engine_falls_back_to_python(self, monkeypatch):
        _unload(monkeypatch)
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


_NEEDS_C = pytest.mark.skipif(not ckernel.available(),
                              reason="C kernel unavailable")


class TestPriorityCells:
    """The C engine's priority entry point, as the grid routes it."""

    _TREES = {
        "fifo-like": Unary("neg", _AGE),
        "linky": Binary("sub", Binary("add", Feature("in_degree"),
                                      Feature("out_degree")),
                        Binary("mul", Const(0.05), _AGE)),
        "lru-like": Feature("recency"),
        # Occupancy falls between the victims of one miss, and this
        # score's order moves with it.
        "occupancy-aged": Binary("sub", Binary("mul", Feature("occupancy"),
                                               _AGE), Feature("recency")),
    }

    def _configs(self):
        return [KernelConfig(name, "priority", expression=tree)
                for name, tree in self._TREES.items()]

    def test_python_engine_has_no_priority_body(self):
        population, sids = _population()
        with pytest.raises(RuntimeError, match="no priority body"):
            one_pass_grid(population, _trace(sids), [1024],
                          self._configs(), engine="py")

    def test_unbuildable_kernel_refuses_priority_cells(self, monkeypatch):
        _unload(monkeypatch)
        population, sids = _population()
        with pytest.raises(RuntimeError, match="no compiler"):
            one_pass_grid(population, _trace(sids), [1024],
                          self._configs(), engine="auto")

    def test_capacity_errors_mirror_replay(self):
        population, sids = _population(size=64)
        configs = self._configs()
        with pytest.raises(ConfigurationError) as kernel_error:
            one_pass_grid(population, _trace(sids), [60], configs)
        with pytest.raises(ConfigurationError) as replay_error:
            _priority_replay(population, _trace(sids), 60, "p", _AGE)
        assert str(kernel_error.value) == str(replay_error.value)

    @_NEEDS_C
    def test_mixed_grid_matches_replay(self):
        # Sparse sids exercise the remapped trace; ladder and priority
        # configs share one grid and come back in config order.
        population, sids = _population(sparse=True)
        trace = _trace(sids)
        capacities = [population.total_bytes // 3,
                      population.total_bytes // 2]
        configs = _ladder_configs((1, 4)) + self._configs()
        for track_links in (True, False):
            grid = one_pass_grid(population, trace, capacities, configs,
                                 track_links=track_links, engine="c")
            for cell, capacity in zip(grid, capacities):
                assert list(cell) == [config.name for config in configs]
                for name, tree in self._TREES.items():
                    assert cell[name] == _priority_replay(
                        population, trace, capacity, name, tree,
                        track_links)

    @_NEEDS_C
    def test_sweep_serves_priority_cells_without_replay(self, monkeypatch):
        workload = build_workload(spec_benchmarks()[0], scale=0.1,
                                  trace_accesses=1500)
        specs = [{"kind": "priority", "name": name,
                  "expression": expr_to_dict(tree)}
                 for name, tree in self._TREES.items()] + ["fifo"]
        replay = run_sweep([workload], specs, pressures=(2, 10),
                           one_pass=False)

        def no_replay(policy):
            raise AssertionError("a priority cell replayed")

        monkeypatch.setattr(PriorityFunctionPolicy, "_choose_victim",
                            no_replay)
        kernel = run_sweep([workload], specs, pressures=(2, 10),
                           one_pass=True)
        assert kernel.stats == replay.stats


class TestTraceValidation:
    """Ids outside the population raise KeyError on the C engine too,
    instead of aliasing a block or reading past the arrays."""

    @staticmethod
    def _remapped():
        return SuperblockSet([Superblock(sid, 100) for sid in (10, 20, 30)])

    @_NEEDS_C
    def test_remapped_population_rejects_unknown_ids(self):
        population = self._remapped()
        fifo = [KernelConfig.from_spec("fifo")]
        for engine in ("c", "py"):
            with pytest.raises(KeyError) as raised:
                one_pass_grid(population, [10, 15, 20, 15], [250], fifo,
                              engine=engine)
            assert raised.value.args == (15,), engine

    @_NEEDS_C
    def test_dense_population_rejects_ids_past_its_end(self):
        blocks = SuperblockSet([Superblock(sid, 100) for sid in range(3)])
        fifo = [KernelConfig.from_spec("fifo")]
        for trace, bad in (([0, 1, 7, 2], 7), ([0, -1], -1)):
            with pytest.raises(KeyError) as raised:
                one_pass_grid(blocks, trace, [250], fifo, engine="c")
            assert raised.value.args == (bad,)

    @_NEEDS_C
    def test_priority_cells_reject_unknown_ids(self):
        population = self._remapped()
        config = KernelConfig("p", "priority", expression=_AGE)
        with pytest.raises(KeyError) as raised:
            one_pass_grid(population, [30, 10, 40], [250], [config])
        assert raised.value.args == (40,)


class TestCLoader:
    @_NEEDS_C
    def test_build_is_keyed_by_the_compile_command(self, monkeypatch,
                                                   tmp_path):
        # Fresh loader state and a private cache directory: build once
        # with the default compiler, then a broken compiler must be
        # tried (and reported) instead of loading the cached object.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_lib_loaded", False)
        monkeypatch.setattr(ckernel, "_lib_error", None)
        monkeypatch.delenv("REPRO_KERNEL_CC", raising=False)
        assert ckernel.available()
        assert len(list(tmp_path.glob("repro-onepass-*.so"))) == 1

        monkeypatch.setattr(ckernel, "_lib_loaded", False)
        monkeypatch.setenv("REPRO_KERNEL_CC", str(tmp_path / "no-such-cc"))
        assert not ckernel.available()
        assert "no-such-cc" in ckernel.load_error()


def _reference_adjacency(superblocks):
    """The per-block loop the population's numpy arrays replace: per
    dense index, the incoming sources and outgoing targets without
    self-loops or repeats, the self-loop flag, and the raw degrees
    ``len(incoming)`` and ``len(outgoing)``."""
    index_of = {sid: index for index, sid in enumerate(superblocks.sids)}
    rows = []
    for index, sid in enumerate(superblocks.sids):
        outgoing = [index_of[t] for t in superblocks.outgoing(sid)]
        incoming = superblocks.incoming(sid)
        rows.append(({index_of[s] for s in incoming if s != sid},
                     {t for t in outgoing if t != index},
                     int(index in outgoing), len(incoming), len(outgoing)))
    return rows


def _row(offsets, data, index):
    return data[offsets[index]:offsets[index + 1]].tolist()


class TestPopulationArrays:
    """The kernel's numpy marshalling against the per-block loop."""

    @given(_columns(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_arrays_match_the_per_block_loop(self, columns, objects):
        blocks = (_from_objects if objects else _from_arrays)(*columns)
        population = _Population(blocks)
        population.ensure_links(blocks)
        assert population.sizes.dtype == np.int64
        assert population.sizes.tolist() == [blocks.size_of(sid)
                                              for sid in blocks.sids]
        for name in ("in_idx", "in_dat", "on_idx", "on_dat", "in_degree",
                     "out_degree"):
            assert getattr(population, name).dtype == np.int32, name
        assert population.self_flags.dtype == np.uint8
        for index, (incoming, outgoing, flag, in_degree, out_degree) in (
                enumerate(_reference_adjacency(blocks))):
            in_row = _row(population.in_idx, population.in_dat, index)
            out_row = _row(population.on_idx, population.on_dat, index)
            assert sorted(in_row) == sorted(incoming)
            assert sorted(out_row) == sorted(outgoing)
            assert population.self_flags[index] == flag
            assert population.in_degree[index] == in_degree
            assert population.out_degree[index] == out_degree


class TestKernelPathIsLazy:
    """A freshly built workload reaches the one-pass kernel as columns:
    sweeping it builds no Superblock and no reverse adjacency."""

    @pytest.mark.parametrize("engine", ("c", "py"))
    def test_sweep_builds_no_superblock_objects(self, engine,
                                                monkeypatch):
        if engine == "c" and not ckernel.available():
            pytest.skip("C kernel unavailable")
        monkeypatch.setenv("REPRO_KERNEL_ENGINE", engine)
        built, reversed_ = [], []
        post_init = Superblock.__post_init__
        build_incoming = SuperblockSet._build_incoming

        def spy_post_init(block):
            built.append(block.sid)
            post_init(block)

        def spy_build_incoming(blocks):
            reversed_.append(len(blocks))
            return build_incoming(blocks)

        monkeypatch.setattr(Superblock, "__post_init__", spy_post_init)
        monkeypatch.setattr(SuperblockSet, "_build_incoming",
                            spy_build_incoming)
        specs = ladder_policy_factories((1, 2, 8, 64))
        if engine == "c":
            specs.append({"kind": "priority", "name": "linky",
                          "expression": expr_to_dict(
                              TestPriorityCells._TREES["linky"])})
        workload = build_workload(get_benchmark("crafty"), scale=0.1,
                                  trace_accesses=3000)
        result = run_sweep([workload], specs, pressures=(2, 10),
                           one_pass=True, check_level="off")
        assert len(result.stats) == 2 * len(specs)
        assert built == [] and reversed_ == []
        # The spies see the objects and the adjacency once asked for.
        workload.superblocks.incoming(0)
        assert len(list(workload.superblocks)) == len(built) > 0
        assert reversed_ == [len(built)]
