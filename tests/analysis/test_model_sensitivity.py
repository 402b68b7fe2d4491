"""Tests for overhead repricing and model sensitivity."""

import pytest

from repro.analysis.sensitivity import (
    ModelSensitivityPoint,
    overhead_model_sensitivity,
    scaled_model,
)
from repro.core.metrics import repriced_overhead
from repro.core.overhead import PAPER_MODEL
from repro.core.policies import granularity_ladder
from repro.core.pressure import pressured_capacity
from repro.core.simulator import simulate
from repro.workloads.registry import build_workload, get_benchmark


@pytest.fixture(scope="module")
def per_policy_stats():
    workload = build_workload(get_benchmark("gap"), scale=0.5,
                              trace_accesses=10_000)
    blocks = workload.superblocks
    capacity = pressured_capacity(blocks, 8)
    stats = {}
    for policy in granularity_ladder(unit_counts=(1, 2, 4, 8, 16)):
        stats[policy.name] = [
            simulate(blocks, policy, capacity, workload.trace)
        ]
    return stats


class TestRepricing:
    def test_paper_model_reprices_exactly(self, per_policy_stats):
        for records in per_policy_stats.values():
            for stats in records:
                assert (repriced_overhead(stats, PAPER_MODEL)
                        == stats.total_overhead)

    def test_without_links_matches_management_overhead(self,
                                                       per_policy_stats):
        for records in per_policy_stats.values():
            for stats in records:
                assert repriced_overhead(
                    stats, PAPER_MODEL, include_links=False
                ) == stats.management_overhead

    def test_scaling_is_linear(self, per_policy_stats):
        stats = per_policy_stats["FLUSH"][0]
        doubled = scaled_model(miss_scale=2.0)
        # Doubling both coefficients doubles every product exactly.
        assert repriced_overhead(stats, doubled) == (
            stats.miss_overhead * 2 + stats.eviction_overhead
            + stats.unlink_overhead
        )


class TestScaledModel:
    def test_eviction_fixed_scale_only_touches_the_intercept(self):
        model = scaled_model(eviction_fixed_scale=2.0)
        assert model.eviction.intercept == PAPER_MODEL.eviction.intercept * 2
        assert model.eviction.slope == PAPER_MODEL.eviction.slope
        assert model.miss.slope == PAPER_MODEL.miss.slope

    def test_identity_scaling(self):
        model = scaled_model()
        assert model.miss_cost(230) == PAPER_MODEL.miss_cost(230)


class TestModelSensitivity:
    def test_default_scalings_cover_the_key_coefficients(self,
                                                         per_policy_stats):
        points = overhead_model_sensitivity(per_policy_stats)
        labels = [point.label for point in points]
        assert "paper" in labels
        assert any("eviction fixed" in label for label in labels)
        assert any("miss cost" in label for label in labels)
        for point in points:
            assert isinstance(point, ModelSensitivityPoint)
            assert point.flush_relative >= 1.0
            assert point.fifo_relative >= 1.0

    def test_conclusion_robust_under_default_scalings(self,
                                                      per_policy_stats):
        points = overhead_model_sensitivity(per_policy_stats)
        medium_wins = sum(1 for point in points if point.medium_wins)
        # Under pressure, medium grains stay competitive across 2x
        # swings of the calibration constants.
        assert medium_wins >= len(points) - 1

    def test_custom_scalings(self, per_policy_stats):
        points = overhead_model_sensitivity(
            per_policy_stats,
            scalings=(("custom", scaled_model(unlink_scale=5.0)),),
        )
        assert len(points) == 1
        assert points[0].label == "custom"
