"""Unit tests for the sweep engine."""

import pytest

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
