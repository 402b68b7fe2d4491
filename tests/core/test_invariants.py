"""The invariant checker: level plumbing, clean runs, and the
fault-injection self-test (every planted corruption must be caught)."""

import json

import pytest

from repro import faults
from repro.analysis.timeline import record_timeline
from repro.core.cache import ConfigurationError
from repro.core.invariants import (
    CHECK_LEVELS,
    ENV_CHECK_LEVEL,
    LIGHT_CADENCE,
    PARANOID_CADENCE,
    InvariantChecker,
    InvariantViolation,
    resolve_check_level,
)
from repro.core.lru import LruPolicy
from repro.core.placement import LinkAwarePlacementPolicy
from repro.core.policies import (
    FineGrainedFifoPolicy,
    GenerationalPolicy,
    UnitFifoPolicy,
    granularity_ladder,
)
from repro.core.pressure import pressured_capacity
from repro.core.simulator import CodeCacheSimulator
from repro.workloads.registry import all_benchmarks, build_workload

GZIP = next(spec for spec in all_benchmarks() if spec.name == "gzip")


@pytest.fixture()
def workload():
    return build_workload(GZIP, scale=0.25, trace_accesses=2500)


def _simulator(workload, policy, level, pressure=4.0, cadence=None,
               track_links=True):
    capacity = pressured_capacity(workload.superblocks, pressure)
    simulator = CodeCacheSimulator(
        workload.superblocks, policy, capacity,
        track_links=track_links, check_level=level,
        check_context={"benchmark": workload.name, "seed": workload.spec.seed},
    )
    if cadence is not None and simulator.checker is not None:
        simulator.checker.cadence = cadence
    return simulator


class TestLevelResolution:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(ENV_CHECK_LEVEL, raising=False)
        assert resolve_check_level() == "off"

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_CHECK_LEVEL, "paranoid")
        assert resolve_check_level("light") == "light"

    def test_env_level_used_when_no_explicit(self, monkeypatch):
        monkeypatch.setenv(ENV_CHECK_LEVEL, "light")
        assert resolve_check_level() == "light"

    def test_case_and_whitespace_forgiven(self, monkeypatch):
        monkeypatch.setenv(ENV_CHECK_LEVEL, "  Paranoid ")
        assert resolve_check_level() == "paranoid"

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown check level"):
            resolve_check_level("extreme")

    def test_unknown_env_level_rejected(self, monkeypatch, workload):
        monkeypatch.setenv(ENV_CHECK_LEVEL, "bogus")
        with pytest.raises(ConfigurationError):
            _simulator(workload, UnitFifoPolicy(8), level=None)

    def test_off_builds_no_checker(self, workload):
        simulator = _simulator(workload, UnitFifoPolicy(8), level="off")
        assert simulator.checker is None

    def test_levels_tuple_is_closed(self):
        assert CHECK_LEVELS == ("off", "light", "paranoid")

    def test_cadence_defaults_per_level(self, workload):
        light = _simulator(workload, UnitFifoPolicy(8), "light")
        paranoid = _simulator(workload, UnitFifoPolicy(8), "paranoid")
        assert light.checker.cadence == LIGHT_CADENCE
        assert paranoid.checker.cadence == PARANOID_CADENCE

    def test_checker_rejects_off_and_bad_cadence(self, workload):
        with pytest.raises(ConfigurationError):
            InvariantChecker(UnitFifoPolicy(8), workload.superblocks,
                             1024, level="off")
        with pytest.raises(ConfigurationError):
            InvariantChecker(UnitFifoPolicy(8), workload.superblocks,
                             1024, level="light", cadence=0)


class TestCleanRuns:
    @pytest.mark.parametrize("policy_index",
                             range(len(granularity_ladder())))
    def test_ladder_clean_under_paranoid(self, workload, policy_index):
        policy = granularity_ladder()[policy_index]
        simulator = _simulator(workload, policy, "paranoid", cadence=16)
        stats = simulator.process(workload.trace, benchmark="gzip")
        assert stats.accesses == len(workload.trace)
        assert simulator.checker.checks_run > 0

    def test_placement_clean_under_paranoid(self, workload):
        policy = LinkAwarePlacementPolicy(workload.superblocks, 8)
        simulator = _simulator(workload, policy, "paranoid", cadence=16,
                               pressure=8.0)
        stats = simulator.process(workload.trace, benchmark="gzip")
        assert stats.accesses == len(workload.trace)
        assert simulator.checker.checks_run > 0

    def test_results_identical_with_and_without_checking(self, workload):
        baseline = _simulator(workload, UnitFifoPolicy(8), "off")
        checked = _simulator(workload, UnitFifoPolicy(8), "paranoid",
                             cadence=1)
        a = baseline.process(workload.trace, benchmark="gzip")
        b = checked.process(workload.trace, benchmark="gzip")
        assert a.to_dict() == b.to_dict()

    def test_final_check_runs_even_below_cadence(self, workload):
        simulator = _simulator(workload, UnitFifoPolicy(8), "light")
        simulator.process(workload.trace[:100], benchmark="gzip")
        assert simulator.checker.checks_run >= 1

    def test_light_checks_without_links(self, workload):
        simulator = _simulator(workload, FineGrainedFifoPolicy(), "light",
                               cadence=8, track_links=False)
        simulator.process(workload.trace, benchmark="gzip")
        assert simulator.checker.checks_run > 0


class TestRecordsAcrossCalls:
    """A simulator replayed in several ``process()`` calls starts each
    call's stats record with the blocks earlier calls left resident;
    byte conservation must count from there (gzip, 8-unit, a quarter
    of the population's bytes)."""

    @pytest.fixture()
    def long_workload(self):
        return build_workload(GZIP, scale=0.25, trace_accesses=8000)

    @staticmethod
    def _capacity(workload):
        return workload.superblocks.total_bytes // 4

    @pytest.mark.parametrize("level", ("light", "paranoid"))
    def test_second_process_call_is_clean(self, long_workload, level):
        superblocks, trace = long_workload.superblocks, long_workload.trace
        checked = CodeCacheSimulator(superblocks, UnitFifoPolicy(8),
                                     self._capacity(long_workload),
                                     check_level=level)
        first = checked.process(trace[:750], benchmark="gzip")
        second = checked.process(trace[750:], benchmark="gzip")
        whole = CodeCacheSimulator(superblocks, UnitFifoPolicy(8),
                                   self._capacity(long_workload),
                                   check_level="off").process(trace)
        for field in ("accesses", "misses", "inserted_bytes",
                      "evicted_bytes", "eviction_invocations"):
            assert (getattr(first, field) + getattr(second, field)
                    == getattr(whole, field)), field

    def test_windowed_timeline_is_clean_under_light(self, long_workload,
                                                    monkeypatch):
        monkeypatch.setenv(ENV_CHECK_LEVEL, "light")
        timeline = record_timeline(long_workload.superblocks,
                                   UnitFifoPolicy(8),
                                   self._capacity(long_workload),
                                   long_workload.trace, window=750)
        assert timeline.totals.accesses == len(long_workload.trace)

    def test_byte_break_in_a_later_call_is_caught(self, long_workload):
        simulator = CodeCacheSimulator(long_workload.superblocks,
                                       UnitFifoPolicy(8),
                                       self._capacity(long_workload),
                                       check_level="light")
        simulator.process(long_workload.trace[:750], benchmark="gzip")
        stats = simulator.process(long_workload.trace[750:],
                                  benchmark="gzip")
        stats.inserted_bytes += 1
        with pytest.raises(InvariantViolation,
                           match="byte conservation broken"):
            simulator.checker.run_checks(stats)


class TestCorruptionSelfTest:
    """Arming a ``cache.*`` fault must make the checker corrupt the live
    state — and then catch its own corruption."""

    @pytest.mark.parametrize("point", faults.STATE_POINTS)
    def test_paranoid_detects_every_state_corruption(self, workload, point):
        # The generational, arena and placement corruptions only have
        # meaning for their own policies; every other point uses the
        # ladder rung.
        policy = (
            GenerationalPolicy() if point == "cache.generation"
            else LruPolicy() if point == "cache.arena"
            else LinkAwarePlacementPolicy(workload.superblocks, 8)
            if point == "cache.placement"
            else UnitFifoPolicy(8)
        )
        with faults.plan(faults.FaultSpec(point=point)):
            simulator = _simulator(workload, policy, "paranoid",
                                   cadence=64)
            with pytest.raises(InvariantViolation) as excinfo:
                simulator.process(workload.trace, benchmark="gzip")
        assert excinfo.value.violations

    @pytest.mark.parametrize("point", ("cache.occupancy", "cache.metrics"))
    def test_light_detects_conservation_corruptions(self, workload, point):
        with faults.plan(faults.FaultSpec(point=point)):
            simulator = _simulator(workload, UnitFifoPolicy(8), "light",
                                   cadence=64)
            with pytest.raises(InvariantViolation):
                simulator.process(workload.trace, benchmark="gzip")

    @pytest.mark.parametrize(
        "point",
        tuple(p for p in faults.STATE_POINTS
              if p not in ("cache.generation", "cache.arena",
                           "cache.placement")),
    )
    def test_fine_fifo_detects_state_corruption(self, workload, point):
        with faults.plan(faults.FaultSpec(point=point)):
            simulator = _simulator(workload, FineGrainedFifoPolicy(),
                                   "paranoid", cadence=64, pressure=8.0)
            with pytest.raises(InvariantViolation):
                simulator.process(workload.trace, benchmark="gzip")

    def test_off_ignores_armed_corruption(self, workload):
        with faults.plan(faults.FaultSpec(point="cache.metrics")):
            simulator = _simulator(workload, UnitFifoPolicy(8), "off")
            assert simulator.checker is None
            stats = simulator.process(workload.trace, benchmark="gzip")
        assert stats.hits + stats.misses == stats.accesses

    def test_violation_carries_usable_repro_bundle(self, workload):
        with faults.plan(faults.FaultSpec(point="cache.occupancy")):
            simulator = _simulator(workload, UnitFifoPolicy(8), "paranoid",
                                   cadence=32)
            with pytest.raises(InvariantViolation) as excinfo:
                simulator.process(workload.trace, benchmark="gzip")
        bundle = excinfo.value.bundle
        assert bundle["check_level"] == "paranoid"
        assert bundle["access_index"] is not None
        assert bundle["workload"]["benchmark"] == "gzip"
        assert bundle["workload"]["seed"] == GZIP.seed
        assert bundle["workload"]["policy"] == "8-unit"
        assert bundle["state"]["resident"]["count"] >= 1
        assert bundle["stats"]["accesses"] > 0
        # The bundle must serialize: it is the repro artifact.
        decoded = json.loads(excinfo.value.bundle_json)
        assert decoded["violations"] == bundle["violations"]


class TestDirectChecks:
    """Hand-corrupted state caught without the fault registry."""

    def test_occupancy_drift_caught(self, workload):
        simulator = _simulator(workload, UnitFifoPolicy(4), "light")
        simulator.process(workload.trace[:500], benchmark="gzip")
        cache = simulator.policy.internal_caches()[0]
        occupied = [u for u in cache.units if u.blocks]
        occupied[0].used_bytes += 7
        with pytest.raises(InvariantViolation, match="occupancy drift"):
            simulator.checker.run_checks()

    def test_dangling_link_caught(self, workload):
        simulator = _simulator(workload, UnitFifoPolicy(4), "paranoid")
        simulator.process(workload.trace[:500], benchmark="gzip")
        links = simulator.links
        resident = simulator.policy.resident_ids()
        ghost = max(resident) + 1
        victim = next(iter(resident))
        links._live_out.setdefault(ghost, set()).add(victim)
        links._live_in.setdefault(victim, set()).add(ghost)
        links._live_count += 1
        with pytest.raises(InvariantViolation, match="dangling link"):
            simulator.checker.run_checks()

    def test_metrics_conservation_caught(self, workload):
        simulator = _simulator(workload, UnitFifoPolicy(4), "light")
        stats = simulator.process(workload.trace[:500], benchmark="gzip")
        stats.misses += 3
        with pytest.raises(InvariantViolation, match="accesses"):
            simulator.checker.run_checks(stats)

    def _generational_simulator(self, workload):
        simulator = _simulator(workload, GenerationalPolicy(), "paranoid",
                               pressure=8.0)
        simulator.process(workload.trace, benchmark="gzip")
        return simulator

    def test_demoted_persistent_block_caught(self, workload):
        simulator = self._generational_simulator(workload)
        policy = simulator.policy
        victim = min(policy._persistent.resident_ids())
        policy._evict_counts[victim] = 0
        with pytest.raises(InvariantViolation,
                           match="below.*promote_after"):
            simulator.checker.run_checks()

    def test_unpromoted_nursery_block_caught(self, workload):
        simulator = self._generational_simulator(workload)
        policy = simulator.policy
        victim = min(policy._nursery.resident_ids())
        policy._evict_counts[victim] = policy.promote_after
        with pytest.raises(InvariantViolation,
                           match="promotion threshold"):
            simulator.checker.run_checks()

    def test_understated_promotions_counter_caught(self, workload):
        simulator = self._generational_simulator(workload)
        simulator.policy.promotions = 0
        with pytest.raises(InvariantViolation,
                           match="promotions counter"):
            simulator.checker.run_checks()

    def _lru_simulator(self, workload):
        simulator = _simulator(workload, LruPolicy(), "paranoid",
                               pressure=4.0, track_links=False)
        simulator.process(workload.trace[:1500], benchmark="gzip")
        return simulator

    def test_lru_clean_under_paranoid(self, workload):
        simulator = self._lru_simulator(workload)
        simulator.checker.run_checks()  # no violation on honest state
        assert simulator.checker.checks_run > 0

    def test_uncoalesced_free_list_caught(self, workload):
        simulator = self._lru_simulator(workload)
        arena = simulator.policy._arena
        sid, (offset, size) = next(
            (s, p) for s, p in arena.placed.items() if p[1] > 1
        )
        # Free a block by hand without coalescing: two adjacent holes.
        del arena.placed[sid]
        simulator.policy._recency.pop(sid)
        arena.holes.append((offset, 1))
        arena.holes.append((offset + 1, size - 1))
        arena.holes.sort()
        with pytest.raises(InvariantViolation, match="not coalesced"):
            simulator.checker.run_checks()

    def test_arena_partition_break_caught(self, workload):
        simulator = self._lru_simulator(workload)
        arena = simulator.policy._arena
        sid = next(iter(arena.placed))
        offset, size = arena.placed[sid]
        arena.placed[sid] = (offset, size + 1)
        with pytest.raises(InvariantViolation, match="arena"):
            simulator.checker.run_checks()

    def test_arena_recency_divergence_caught(self, workload):
        simulator = self._lru_simulator(workload)
        policy = simulator.policy
        ghost = max(policy._recency) + 1
        policy._recency[ghost] = None
        with pytest.raises(InvariantViolation,
                           match="placement and LRU recency"):
            simulator.checker.run_checks()
