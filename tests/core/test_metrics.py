"""Unit tests for simulation statistics and aggregate metrics."""

import pytest

from repro.core.metrics import (
    SimulationStats,
    mean_relative_across_benchmarks,
    merge_all,
    relative_series,
    unified_miss_rate,
)
from repro.core.overhead import (
    FREE_MODEL,
    PAPER_MODEL,
    LinearCost,
    OverheadModel,
)


def _stats(accesses, misses, **kwargs):
    stats = SimulationStats(accesses=accesses, misses=misses,
                            hits=accesses - misses, **kwargs)
    return stats


class TestDerivedMetrics:
    def test_miss_rate(self):
        assert _stats(100, 25).miss_rate == 0.25

    def test_miss_rate_of_empty_run(self):
        assert SimulationStats().miss_rate == 0.0

    def test_overhead_views(self):
        model = OverheadModel(miss=LinearCost(2.0, 3.0),
                              eviction=LinearCost(1.0, 4.0),
                              unlink=LinearCost(0.5, 1.0))
        stats = SimulationStats(misses=2, inserted_bytes=2,
                                eviction_invocations=1, evicted_bytes=1,
                                unlink_operations=1, links_removed=2,
                                overhead_model=model)
        assert stats.miss_overhead == 10.0
        assert stats.eviction_overhead == 5.0
        assert stats.unlink_overhead == 2.0
        assert stats.management_overhead == 15.0
        assert stats.total_overhead == 17.0

    def test_overheads_are_priced_from_counters(self):
        stats = SimulationStats(misses=3, inserted_bytes=700,
                                eviction_invocations=2, evicted_bytes=500,
                                unlink_operations=4, links_removed=9)
        assert stats.overhead_model == PAPER_MODEL
        assert stats.miss_overhead == 75.4 * 700 + 1922.0 * 3
        assert stats.eviction_overhead == 2.77 * 500 + 3055.0 * 2
        assert stats.unlink_overhead == 296.5 * 9 + 95.7 * 4
        assert SimulationStats(overhead_model=FREE_MODEL).total_overhead == 0

    def test_inter_unit_fraction(self):
        stats = SimulationStats(links_established_intra=3,
                                links_established_inter=1)
        assert stats.inter_unit_link_fraction == 0.25
        assert SimulationStats().inter_unit_link_fraction == 0.0

    def test_mean_blocks_per_eviction(self):
        stats = SimulationStats(eviction_invocations=4, evicted_blocks=12)
        assert stats.mean_blocks_per_eviction == 3.0
        assert SimulationStats().mean_blocks_per_eviction == 0.0

    def test_to_dict_round_trip(self):
        stats = _stats(10, 2, policy_name="FLUSH", benchmark="gzip")
        data = stats.to_dict()
        assert data["policy"] == "FLUSH"
        assert data["benchmark"] == "gzip"
        assert data["miss_rate"] == 0.2


class TestMerging:
    def test_merged_with_sums_counters(self):
        merged = _stats(100, 10).merged_with(_stats(50, 20))
        assert merged.accesses == 150
        assert merged.misses == 30
        assert merged.hits == 120

    def test_merged_peak_is_max(self):
        a = SimulationStats(peak_backpointer_bytes=100)
        b = SimulationStats(peak_backpointer_bytes=300)
        assert a.merged_with(b).peak_backpointer_bytes == 300

    def test_merge_all(self):
        merged = merge_all([_stats(10, 1), _stats(20, 2), _stats(30, 3)])
        assert merged.accesses == 60
        assert merged.misses == 6

    def test_merge_all_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_all([])

    def test_merged_keeps_the_shared_model(self):
        a = _stats(10, 2, overhead_model=FREE_MODEL)
        b = _stats(20, 4, overhead_model=FREE_MODEL)
        assert a.merged_with(b).overhead_model == FREE_MODEL

    def test_merging_across_models_is_refused(self):
        with pytest.raises(ValueError, match="overhead models"):
            _stats(10, 2).merged_with(
                _stats(10, 2, overhead_model=FREE_MODEL))


class TestUnifiedMissRate:
    def test_equation_1_weighting(self):
        # One benchmark with many accesses dominates, exactly as the
        # paper's weighted average (Equation 1) requires.
        small = _stats(100, 50)     # 50 % miss rate
        large = _stats(10_000, 100)  # 1 % miss rate
        rate = unified_miss_rate([small, large])
        assert rate == pytest.approx(150 / 10_100)

    def test_empty_iterable(self):
        assert unified_miss_rate([]) == 0.0


class TestRelativeSeries:
    def test_normalization(self):
        series = relative_series({"FLUSH": 10.0, "FIFO": 5.0}, "FLUSH")
        assert series == {"FLUSH": 1.0, "FIFO": 0.5}

    def test_missing_baseline(self):
        with pytest.raises(KeyError):
            relative_series({"a": 1.0}, "b")

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_series({"a": 0.0}, "a")

    def test_mean_relative_across_benchmarks(self):
        per_benchmark = {
            "gzip": {"FLUSH": 2.0, "FIFO": 4.0},
            "word": {"FLUSH": 100.0, "FIFO": 400.0},
        }
        averaged = mean_relative_across_benchmarks(per_benchmark, "FIFO")
        # gzip: 0.5, word: 0.25 -> mean 0.375.
        assert averaged["FLUSH"] == pytest.approx(0.375)
        assert averaged["FIFO"] == pytest.approx(1.0)

    def test_mean_relative_skips_zero_baselines(self):
        per_benchmark = {
            "a": {"FLUSH": 2.0, "FIFO": 4.0},
            "b": {"FLUSH": 5.0, "FIFO": 0.0},
        }
        averaged = mean_relative_across_benchmarks(per_benchmark, "FIFO")
        assert averaged["FLUSH"] == pytest.approx(0.5)
