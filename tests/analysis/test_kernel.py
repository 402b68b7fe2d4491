"""Unit tests for the one-pass multi-granularity kernel's API surface.

Bit-level equivalence with replay is covered by the property suite
(test_kernel_property) and the kernel-check CLI; these tests pin the
contract around it: eligibility classification, geometry handling and
grid splitting, the replay path of hosts without a C kernel, error
mirroring, and the sweep-layer ``one_pass`` routing.
"""

import dataclasses
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.analysis import ckernel
from repro.analysis import sweep as sweep_module
from repro.analysis.kernel import KernelConfig, _Population, one_pass_grid
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
from tests.core.test_superblock import _columns, _from_csr, _from_objects


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


def _replay(population, trace, capacity, unit_counts, track_links=True,
            include_fine=True):
    """``{policy name: record}`` of replaying each ladder rung."""
    out = {}
    for policy in granularity_ladder(unit_counts=unit_counts,
                                     include_fine=include_fine):
        simulator = CodeCacheSimulator(population, policy, capacity,
                                       track_links=track_links)
        record = simulator.process(trace)
        record.policy_name = policy.name
        out[policy.name] = record
    return out


_AGE = Feature("age")
_AGE_SPEC = {"kind": "priority", "name": "p",
             "expression": {"kind": "feature", "name": "age"}}

_NEEDS_C = pytest.mark.skipif(not ckernel.available(),
                              reason="C kernel unavailable")


def _unload(monkeypatch):
    """Make the C kernel look unbuildable for one test."""
    monkeypatch.setitem(native._loaded, "onepass", (None, "no compiler"))


def _small_workload():
    return build_workload(spec_benchmarks()[0], scale=0.1,
                          trace_accesses=1500)


def _forbid_kernel(monkeypatch):
    """Fail the test if the sweep calls the kernel."""
    def no_kernel(*args, **kwargs):
        raise AssertionError("one_pass_grid called")
    monkeypatch.setattr(sweep_module, "one_pass_grid", no_kernel)


def _priority_replay(population, trace, capacity, name, tree,
                     track_links=True):
    policy = PriorityFunctionPolicy(tree, population, name=name)
    return CodeCacheSimulator(population, policy, capacity,
                              track_links=track_links).process(trace)


class TestClassification:
    @_NEEDS_C
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

    @_NEEDS_C
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
        if ckernel.available():
            assert KernelConfig.from_spec(_AGE_SPEC) == KernelConfig(
                name="p", kind="priority", expression=_AGE)
        _unload(monkeypatch)
        # Without a kernel every spec replays, the ladder kinds too.
        assert KernelConfig.from_spec(_AGE_SPEC) is None
        assert KernelConfig.from_spec("fifo") is None


class TestGridSemantics:
    @_NEEDS_C
    def test_sweep_wrapper_equals_grid_row(self):
        workload = _small_workload()
        blocks = workload.superblocks
        pressures = (2, 10)
        sweep = run_sweep([workload], ladder_policy_factories((1, 4)),
                          pressures=pressures, one_pass=True)
        grid = one_pass_grid(blocks, workload.trace,
                             [pressured_capacity(blocks, pressure)
                              for pressure in pressures],
                             _ladder_configs((1, 4)),
                             benchmark=workload.name)
        assert len(sweep.stats) == sum(map(len, grid)) == 6
        for pressure, row in zip(pressures, grid):
            for name, record in row.items():
                assert sweep.stats[(workload.name, name, pressure)] == record

    @_NEEDS_C
    def test_sparse_sid_population_matches_replay(self):
        population, sids = _population(sparse=True)
        trace = _trace(sids)
        capacity = population.total_bytes // 3
        grid = one_pass_grid(population, trace, [capacity],
                             _ladder_configs((1, 4)))
        assert grid[0] == _replay(population, trace, capacity, (1, 4))

    @_NEEDS_C
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
    """The C kernel is the one engine; without it sweeps replay."""

    def test_unknown_engine_rejected(self):
        population, sids = _population()
        with pytest.raises(TypeError):
            one_pass_grid(population, _trace(sids), [1024],
                          [KernelConfig("FLUSH", "unit")], engine="bogus")

    @_NEEDS_C
    def test_env_engine_rejected_when_unknown(self, monkeypatch):
        # The engine selector earlier versions read (its name is split
        # so that no live code or doc spells it): a stale setting must
        # not move any cell off the kernel.
        monkeypatch.setenv("REPRO_KERNEL_" + "ENGINE", "py")
        specs = ladder_policy_factories((1, 4)) + [_AGE_SPEC]
        served = []

        def spy(superblocks, trace, capacities, configs, **kwargs):
            served.extend(config.name for config in configs)
            return one_pass_grid(superblocks, trace, capacities, configs,
                                 **kwargs)

        monkeypatch.setattr(sweep_module, "one_pass_grid", spy)
        result = run_sweep([_small_workload()], specs, pressures=(2,),
                           one_pass=True)
        assert served == list(result.policy_names) == [
            "FLUSH", "4-unit", "FIFO", "p"]

    def test_forced_c_engine_unavailable_raises(self, monkeypatch):
        _unload(monkeypatch)
        population, sids = _population()
        with pytest.raises(RuntimeError,
                           match="C kernel engine unavailable: no compiler"):
            one_pass_grid(population, _trace(sids), [1024],
                          [KernelConfig("FLUSH", "unit"),
                           KernelConfig("FIFO", "fifo")])

    def test_auto_engine_falls_back_to_python(self, monkeypatch):
        # Without a loadable kernel the sweep replays every cell: the
        # same grid, and no kernel call.
        _unload(monkeypatch)
        _forbid_kernel(monkeypatch)
        workload = _small_workload()
        specs = ladder_policy_factories((1, 4)) + [_AGE_SPEC]
        on = run_sweep([workload], specs, pressures=(2, 10), one_pass=True)
        off = run_sweep([workload], specs, pressures=(2, 10),
                        one_pass=False)
        assert on.stats == off.stats

    def test_failing_kernel_call_raises(self, monkeypatch):
        # A non-zero one_pass status (-3: allocation failure) raises
        # instead of yielding numbers from anywhere else.
        class FailingLibrary:
            def one_pass(self, *args):
                return -3

        monkeypatch.setattr(ckernel, "load", lambda: FailingLibrary())
        population, sids = _population()
        with pytest.raises(RuntimeError, match="status -3"):
            one_pass_grid(population, _trace(sids), [1024],
                          [KernelConfig("FLUSH", "unit")])

    @_NEEDS_C
    def test_c_engine_matches_python(self):
        population, sids = _population()
        trace = _trace(sids)
        capacities = [population.total_bytes // 3,
                      population.total_bytes // 2]
        configs = _ladder_configs((1, 3, 8))
        for track_links in (True, False):
            grid = one_pass_grid(population, trace, capacities, configs,
                                 track_links=track_links)
            for cell, capacity in zip(grid, capacities):
                assert cell == _replay(population, trace, capacity,
                                       (1, 3, 8), track_links)

    @staticmethod
    def _count_traversals(monkeypatch):
        calls = []
        run_geometries = ckernel.run_geometries

        def spy(*args, **kwargs):
            calls.append(len(args[2]))
            return run_geometries(*args, **kwargs)

        monkeypatch.setattr(ckernel, "run_geometries", spy)
        return calls

    @_NEEDS_C
    def test_wide_grids_split_past_c_geometry_cap(self, monkeypatch):
        # 17 distinct unit counts x 2 capacities = 34 geometries fit one
        # 64-bit residency word: one traversal.  At 4 capacities the 68
        # geometries are past it, so they run in chunks of 64 and 4.
        # Both must match replay.
        blocks = [Superblock(i, 32, links=(i,)) for i in range(40)]
        population = SuperblockSet(blocks)
        trace = [i % 40 for i in range(400)]
        counts = tuple(range(1, 18))
        configs = _ladder_configs(counts, include_fine=False)
        traversals = self._count_traversals(monkeypatch)
        for capacities, want in (([32 * 20, 32 * 23], [34]),
                                 ([32 * 20, 32 * 23, 32 * 26, 32 * 29],
                                  [64, 4])):
            traversals.clear()
            grid = one_pass_grid(population, trace, capacities, configs)
            assert traversals == want
            for cell, capacity in zip(grid, capacities):
                assert cell == _replay(population, trace, capacity, counts,
                                       include_fine=False)

    @_NEEDS_C
    def test_c_engine_splits_configs_past_geometry_cap(self, monkeypatch):
        # One capacity with 39 rungs that all resolve to distinct unit
        # counts, plus fine FIFO: 40 geometries, one traversal.
        workload = build_workload(get_benchmark("gcc"), scale=0.25,
                                  trace_accesses=3000)
        blocks = workload.superblocks
        capacity = pressured_capacity(blocks, 2)
        counts = tuple(range(1, 40))
        configs = _ladder_configs(counts)
        traversals = self._count_traversals(monkeypatch)
        grid = one_pass_grid(blocks, workload.trace, [capacity], configs)
        assert traversals == [40]
        assert list(grid[0]) == [config.name for config in configs]
        assert grid[0] == _replay(blocks, workload.trace, capacity, counts)

        # 69 distinct unit counts plus fine FIFO at one capacity: more
        # geometries than one residency word holds, so they run in
        # chunks of 64 and 6.
        population, sids = _population(count=120, size=16)
        # A 90-block working set that shifts every 270 accesses.
        trace = [sids[(i % 90 + 13 * (i // 270)) % 120]
                 for i in range(1200)]
        capacity = 2400
        counts = tuple(range(1, 70))
        configs = _ladder_configs(counts)
        traversals.clear()
        grid = one_pass_grid(population, trace, [capacity], configs)
        assert traversals == [64, 6]
        assert list(grid[0]) == [config.name for config in configs]
        assert grid[0] == _replay(population, trace, capacity, counts)


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
        # Fixed per block, so scored once per block and only loaded by
        # the victim scan.
        "hoisted": Unary("neg", Binary("mul", Feature("size"), Unary(
            "log1p", Binary("sub", Feature("out_degree"),
                            Feature("size"))))),
        # A hoisted value past the score limit reaches its parent
        # unclamped: every score clamps to the limit and ties, so the
        # first resident goes, where a clamped 1e18 would pick the
        # least recently touched.
        "hoisted-unclamped": Binary("div", Binary(
            "max", Feature("size"), Const(1e300)), Feature("recency")),
    }

    def _configs(self):
        return [KernelConfig(name, "priority", expression=tree)
                for name, tree in self._TREES.items()]

    def _specs(self):
        return [{"kind": "priority", "name": name,
                 "expression": expr_to_dict(tree)}
                for name, tree in self._TREES.items()] + ["fifo"]

    @_NEEDS_C
    def test_python_engine_has_no_priority_body(self, monkeypatch):
        # Without a kernel the priority cells replay, and they score
        # exactly as the kernel's expression VM does.
        workload = _small_workload()
        kernel = run_sweep([workload], self._specs(), pressures=(2, 10),
                           one_pass=True)
        _unload(monkeypatch)
        _forbid_kernel(monkeypatch)
        replayed = run_sweep([workload], self._specs(), pressures=(2, 10),
                             one_pass=True)
        assert replayed.stats == kernel.stats

    def test_unbuildable_kernel_refuses_priority_cells(self, monkeypatch):
        _unload(monkeypatch)
        population, sids = _population()
        with pytest.raises(RuntimeError, match="no compiler"):
            one_pass_grid(population, _trace(sids), [1024],
                          self._configs())

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
                                 track_links=track_links)
            for cell, capacity in zip(grid, capacities):
                assert list(cell) == [config.name for config in configs]
                for name, tree in self._TREES.items():
                    assert cell[name] == _priority_replay(
                        population, trace, capacity, name, tree,
                        track_links)

    @_NEEDS_C
    def test_sweep_serves_priority_cells_without_replay(self, monkeypatch):
        workload = _small_workload()
        specs = self._specs()
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
    """Ids outside the population raise KeyError(<first bad id>) on the
    C kernel too, as replay does, instead of aliasing a block or
    reading past the arrays."""

    @staticmethod
    def _remapped():
        return SuperblockSet([Superblock(sid, 100) for sid in (10, 20, 30)])

    @_NEEDS_C
    def test_remapped_population_rejects_unknown_ids(self):
        population = self._remapped()
        fifo = [KernelConfig.from_spec("fifo")]
        for trace, bad in (([10, 15, 20, 15], 15), ([10, 15, 40], 15),
                           ([10, 40, 15], 40), ([20, -1, 15], -1)):
            with pytest.raises(KeyError) as raised:
                one_pass_grid(population, trace, [250], fifo)
            assert raised.value.args == (bad,), trace

    @_NEEDS_C
    def test_dense_population_rejects_ids_past_its_end(self):
        blocks = SuperblockSet([Superblock(sid, 100) for sid in range(3)])
        fifo = [KernelConfig.from_spec("fifo")]
        for trace, bad in (([0, 1, 7, 2], 7), ([0, -1], -1)):
            with pytest.raises(KeyError) as raised:
                one_pass_grid(blocks, trace, [250], fifo)
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
        monkeypatch.delitem(native._loaded, "onepass", raising=False)
        monkeypatch.delenv("REPRO_KERNEL_CC", raising=False)
        assert ckernel.available()
        assert len(list(tmp_path.glob("repro-onepass-*.so"))) == 1

        del native._loaded["onepass"]
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


class TestPopulationArrays:
    """The kernel's numpy marshalling against the per-block loop."""

    @given(_columns())
    @settings(max_examples=100, deadline=None)
    def test_arrays_match_the_per_block_loop(self, columns):
        # CSR sets have ids 0..n-1; the object constructor takes any.
        dense = columns[0] == list(range(len(columns[0])))
        for build in (_from_objects, _from_csr) if dense else (
                _from_objects,):
            self._check_population(build(*columns))

    def _check_population(self, blocks):
        population = _Population(blocks)
        population.ensure_links(blocks)
        index_of = {sid: index for index, sid in enumerate(blocks.sids)}
        dense = blocks.sids == tuple(range(len(blocks.sids)))
        assert (population.index_of is None) == dense
        if not dense:
            assert population.index_of.dtype == np.int32
            assert {sid: index for sid, index
                    in enumerate(population.index_of.tolist())
                    if index >= 0} == index_of
        assert population.sizes.dtype == np.int64
        assert population.sizes.tolist() == [blocks.size_of(sid)
                                              for sid in blocks.sids]
        for name in ("nb_idx", "nb_split", "nb_dat", "in_degree",
                     "out_degree"):
            assert getattr(population, name).dtype == np.int32, name
        assert population.self_flags.dtype == np.uint8
        assert len(population.nb_idx) == len(blocks.sids) + 1
        for index, (incoming, outgoing, flag, in_degree, out_degree) in (
                enumerate(_reference_adjacency(blocks))):
            start, split, end = (population.nb_idx[index],
                                 population.nb_split[index],
                                 population.nb_idx[index + 1])
            assert start <= split <= end
            out_row = population.nb_dat[start:split].tolist()
            in_row = population.nb_dat[split:end].tolist()
            assert sorted(out_row) == sorted(outgoing)
            assert sorted(in_row) == sorted(incoming)
            assert population.self_flags[index] == flag
            assert population.in_degree[index] == in_degree
            assert population.out_degree[index] == out_degree


class TestKernelPathIsLazy:
    """A freshly built workload reaches the one-pass kernel as array
    columns: sweeping it builds no Superblock, no link tuple and no
    reverse adjacency."""

    @_NEEDS_C
    def test_sweep_builds_no_superblock_objects(self, monkeypatch):
        built, reversed_, tupled = [], [], []
        post_init = Superblock.__post_init__
        build_incoming = SuperblockSet._build_incoming
        build_links = SuperblockSet._build_links

        def spy_post_init(block):
            built.append(block.sid)
            post_init(block)

        def spy_build_incoming(blocks):
            reversed_.append(len(blocks))
            return build_incoming(blocks)

        def spy_build_links(blocks):
            tupled.append(len(blocks))
            return build_links(blocks)

        monkeypatch.setattr(Superblock, "__post_init__", spy_post_init)
        monkeypatch.setattr(SuperblockSet, "_build_incoming",
                            spy_build_incoming)
        monkeypatch.setattr(SuperblockSet, "_build_links", spy_build_links)
        specs = ladder_policy_factories((1, 2, 8, 64)) + [
            {"kind": "priority", "name": "linky",
             "expression": expr_to_dict(TestPriorityCells._TREES["linky"])}]
        workload = build_workload(get_benchmark("crafty"), scale=0.1,
                                  trace_accesses=3000)
        result = run_sweep([workload], specs, pressures=(2, 10),
                           one_pass=True, check_level="off")
        assert len(result.stats) == 2 * len(specs)
        assert built == [] and reversed_ == [] and tupled == []
        # The spies see the objects and the adjacency once asked for.
        workload.superblocks.incoming(0)
        assert len(list(workload.superblocks)) == len(built) > 0
        assert reversed_ == tupled == [len(built)]
