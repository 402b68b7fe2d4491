"""Unit tests for the sweep engine."""

import pytest

from repro.analysis import ckernel, parallel
from repro.analysis import kernel as kernel_module
from repro.analysis import sweep as sweep_module
from repro.analysis.sweep import (
    FINE_NAME,
    FLUSH_NAME,
    clear_sweep_cache,
    full_sweep,
    ladder_policy_factories,
    policy_names,
    run_sweep,
    run_sweep_parallel,
)
from repro.core.policies import policy_from_spec
from repro.workloads.registry import (
    all_benchmarks,
    benchmarks_by_names,
    build_suite,
    spec_benchmarks,
)


def _tiny_workloads():
    return build_suite(spec_benchmarks()[:2], scale=0.2,
                       trace_accesses=3000)


def _tiny_factories():
    return ladder_policy_factories(unit_counts=(1, 4))


class TestLadderFactories:
    def test_names_and_freshness(self):
        specs = ladder_policy_factories(unit_counts=(1, 2, 8))
        assert policy_names(specs) == (FLUSH_NAME, "2-unit", "8-unit",
                                       FINE_NAME)
        # Specs must build fresh, unconfigured policies each call.
        assert policy_from_spec(specs[1]) is not policy_from_spec(specs[1])

    def test_without_fine(self):
        specs = ladder_policy_factories(unit_counts=(1,),
                                        include_fine=False)
        assert policy_names(specs) == (FLUSH_NAME,)


class TestRunSweep:
    def test_grid_is_complete(self):
        workloads = _tiny_workloads()
        result = run_sweep(workloads, _tiny_factories(), pressures=(2, 6))
        assert result.benchmark_names == ("gzip", "vpr")
        assert result.pressures == (2, 6)
        assert len(result.stats) == 2 * 3 * 2
        record = result.get("gzip", FLUSH_NAME, 2)
        assert record.accesses == 3000

    def test_projections(self):
        result = run_sweep(_tiny_workloads(), _tiny_factories(),
                           pressures=(4,))
        rates = result.unified_miss_rates(4)
        assert set(rates) == {FLUSH_NAME, "4-unit", FINE_NAME}
        assert all(0.0 <= rate <= 1.0 for rate in rates.values())
        totals = result.totals_by_policy("management_overhead", 4)
        assert all(total > 0 for total in totals.values())
        table = result.per_benchmark("eviction_invocations", 4)
        assert set(table) == {"gzip", "vpr"}

    def test_inter_unit_fractions(self):
        result = run_sweep(_tiny_workloads(), _tiny_factories(),
                           pressures=(4,))
        fractions = result.inter_unit_fractions(4)
        assert fractions[FLUSH_NAME] == 0.0
        assert fractions[FINE_NAME] > fractions["4-unit"]

    def test_progress_callback(self):
        lines = []
        run_sweep(_tiny_workloads(), _tiny_factories(), pressures=(4,),
                  progress=lines.append)
        assert len(lines) == 2

    def test_records_listing(self):
        result = run_sweep(_tiny_workloads(), _tiny_factories(),
                           pressures=(4,))
        records = result.records(FLUSH_NAME, 4)
        assert [r.benchmark for r in records] == ["gzip", "vpr"]


class TestSpecResolution:
    """A sweep builds each spec's policy to resolve its kernel cell once
    per call (and once per process for its tasks), not per workload."""

    _SPECS = ladder_policy_factories((1, 2, 8, 64)) + [
        {"kind": "priority", "name": "age",
         "expression": {"kind": "feature", "name": "age"}}]

    def _count_builds(self, monkeypatch):
        calls = []

        def counting(spec, superblocks=None):
            calls.append(spec)
            return policy_from_spec(spec, superblocks)

        for module in (sweep_module, kernel_module):
            monkeypatch.setattr(module, "policy_from_spec", counting)
        return calls

    @pytest.mark.skipif(not ckernel.available(),
                        reason="C kernel unavailable")
    def test_specs_resolve_once_per_sweep(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        specs = benchmarks_by_names([spec.name for spec in all_benchmarks()])
        workloads = build_suite(specs, scale=0.02, trace_accesses=200)
        result = run_sweep(workloads, self._SPECS, pressures=(2, 10))
        assert len(result.stats) == 20 * 2 * len(self._SPECS)
        # Naming the cells, then resolving the kernel cells.
        assert len(calls) == 2 * len(self._SPECS)

        calls.clear()
        monkeypatch.setattr(parallel, "_SPEC_MEMO", {})
        for _ in range(2):
            result = run_sweep_parallel(specs, self._SPECS, scale=0.02,
                                        trace_accesses=200,
                                        pressures=(2, 10), jobs=1)
        assert len(result.stats) == 20 * 2 * len(self._SPECS)
        # Two calls name their cells; the process resolves once.
        assert len(calls) == 3 * len(self._SPECS)


class TestSpecNaming:
    """Every engine names a cell by its built policy (a spec's ``name``
    overrides it) and refuses two specs that would share a cell."""

    def test_unnamed_spec_is_named_by_its_policy(self):
        result = run_sweep_parallel(
            benchmarks_by_names(("gzip",)),
            [{"kind": "unit", "unit_count": 8}, "fifo"],
            scale=0.1, trace_accesses=500, pressures=(4,), jobs=1)
        assert result.policy_names == ("8-unit", FINE_NAME)
        assert set(result.unified_miss_rates(4)) == {"8-unit", FINE_NAME}

    def test_distinct_unnamed_specs_are_not_duplicates(self):
        specs = [{"kind": "unit", "unit_count": 2},
                 {"kind": "unit", "unit_count": 4}]
        result = run_sweep_parallel(benchmarks_by_names(("gzip",)), specs,
                                    scale=0.1, trace_accesses=500,
                                    pressures=(4,), jobs=1)
        assert result.policy_names == ("2-unit", "4-unit")

    def test_run_sweep_rejects_repeated_names(self):
        specs = [{"kind": "unit", "unit_count": 2, "name": "x"},
                 {"kind": "fifo", "name": "x"}]
        with pytest.raises(ValueError, match="unique names"):
            run_sweep(_tiny_workloads()[:1], specs, pressures=(4,))

    def test_repeated_shorthand_is_a_repeated_name(self):
        with pytest.raises(ValueError, match="unique names"):
            policy_names(["8", "8-unit"])


class TestFullSweepCache:
    def test_same_configuration_is_cached(self):
        clear_sweep_cache()
        try:
            first = full_sweep(scale=0.02, pressures=(2,),
                               trace_accesses=500, unit_counts=(1, 2))
            second = full_sweep(scale=0.02, pressures=(2,),
                                trace_accesses=500, unit_counts=(1, 2))
            assert first is second
        finally:
            clear_sweep_cache()

    def test_different_configuration_is_not_cached(self):
        clear_sweep_cache()
        try:
            first = full_sweep(scale=0.02, pressures=(2,),
                               trace_accesses=500, unit_counts=(1, 2))
            second = full_sweep(scale=0.02, pressures=(4,),
                                trace_accesses=500, unit_counts=(1, 2))
            assert first is not second
        finally:
            clear_sweep_cache()
