"""The on-disk sweep store: round-trip, keying, invalidation."""

import dataclasses

import pytest

from repro import faults
from repro.analysis import sweepcache
from repro.analysis.parallel import plan_tasks, task_key
from repro.analysis.sweep import (
    SweepOptions,
    clear_sweep_cache,
    full_sweep,
    ladder_policy_factories,
    run_sweep,
)
from repro.core.overhead import FREE_MODEL, PAPER_MODEL
from repro.workloads.registry import build_suite, spec_benchmarks

SPECS = spec_benchmarks()[:2]
UNIT_COUNTS = (1, 4)
PRESSURES = (2, 6)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(sweepcache.ENV_CACHE_DIR, str(tmp_path))
    sweepcache.reset_counters()
    return tmp_path


def _small_sweep():
    workloads = build_suite(SPECS, scale=0.1, trace_accesses=1500)
    return run_sweep(workloads, ladder_policy_factories(UNIT_COUNTS),
                     pressures=PRESSURES)


def _keys(specs=SPECS, unit_counts=UNIT_COUNTS, include_fine=True,
          **overrides):
    """The store keys of a sweep's slabs, one per benchmark."""
    kwargs = dict(scale=0.1, trace_accesses=1500, pressures=PRESSURES,
                  overhead_model=PAPER_MODEL, track_links=True)
    kwargs.update(overrides)
    ladder = ladder_policy_factories(unit_counts, include_fine=include_fine)
    return tuple(task_key(task)
                 for task in plan_tasks(specs, ladder, **kwargs))


def _key(**overrides):
    return _keys(**overrides)[0]


class TestKeying:
    def test_key_is_deterministic(self):
        assert _key() == _key()

    def test_changed_pressures_change_the_key(self):
        assert _key() != _key(pressures=(2, 4))

    def test_every_input_is_keyed(self):
        base = _keys()
        assert len(set(base)) == len(SPECS)
        for other in (_keys(scale=0.2), _keys(trace_accesses=2000),
                      _keys(unit_counts=(1, 8)), _keys(include_fine=False),
                      _keys(overhead_model=FREE_MODEL),
                      _keys(track_links=False)):
            assert not set(base) & set(other)
        assert _keys(specs=SPECS[:1]) == base[:1]


class TestRoundTrip:
    def test_store_then_load_in_fresh_lookup(self, cache_dir):
        result = _small_sweep()
        key = _key()
        sweepcache.store(key, result)
        # A fresh keyed lookup (recomputed key, new load) must return an
        # equal grid.
        reloaded = sweepcache.load(_key())
        assert reloaded is not None
        assert reloaded.policy_names == result.policy_names
        assert reloaded.benchmark_names == result.benchmark_names
        assert reloaded.pressures == result.pressures
        for point, record in result.stats.items():
            assert (dataclasses.asdict(reloaded.stats[point])
                    == dataclasses.asdict(record))
        counts = sweepcache.counters()
        assert counts["stores"] == 1
        assert counts["hits"] == 1

    def test_changed_pressure_tuple_misses(self, cache_dir):
        sweepcache.store(_key(), _small_sweep())
        assert sweepcache.load(_key(pressures=(2, 4))) is None
        assert sweepcache.counters()["misses"] == 1

    def test_no_temp_files_left_behind(self, cache_dir):
        sweepcache.store(_key(), _small_sweep())
        assert not list(cache_dir.glob("*.tmp"))
        assert [path.name for path in cache_dir.iterdir()] == [
            f"{_key()}.pkl"]

    def test_corrupt_entry_is_a_miss_and_quarantined(self, cache_dir):
        key = _key()
        sweepcache.store(key, _small_sweep())
        (cache_dir / f"{key}.pkl").write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert sweepcache.load(key) is None
        # The bad entry is moved aside for inspection, not deleted.
        assert not (cache_dir / f"{key}.pkl").exists()
        quarantined = sweepcache.default_store().quarantined_entries()
        assert [path.name for path in quarantined] == [f"{key}.pkl"]
        assert quarantined[0].read_bytes() == b"not a pickle"
        assert sweepcache.counters()["quarantines"] == 1
        # A later identical sweep can re-store under the same key.
        sweepcache.store(key, _small_sweep())
        assert sweepcache.load(key) is not None


class TestHardening:
    """Faults around the cache must degrade it, never the sweep."""

    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        faults.disarm()

    def test_corrupt_bytes_on_load_are_quarantined(self, cache_dir):
        key = _key()
        sweepcache.store(key, _small_sweep())
        with faults.plan(faults.FaultSpec(point="cache.load",
                                          mode="corrupt")):
            with pytest.warns(RuntimeWarning, match="quarantined"):
                assert sweepcache.load(key) is None
        assert sweepcache.counters()["quarantines"] == 1
        # On-disk bytes were fine; only the (injected) read was dirty —
        # but the conservative response is the same: miss + quarantine.
        assert len(sweepcache.default_store().quarantined_entries()) == 1

    def test_store_failure_warns_and_returns_none(self, cache_dir):
        with faults.plan(faults.FaultSpec(point="cache.store",
                                          mode="raise")):
            with pytest.warns(RuntimeWarning, match="continuing without"):
                assert sweepcache.store(_key(), _small_sweep()) is None
        assert sweepcache.counters()["store_failures"] == 1
        assert sweepcache.default_store().entries() == []
        # The next (healthy) store succeeds.
        assert sweepcache.store(_key(), _small_sweep()) is not None

    def test_store_verifies_round_trip_before_publish(self, cache_dir):
        # Corrupt the pickled bytes between dumps and write: the
        # round-trip check must reject them, so no entry is published.
        with faults.plan(faults.FaultSpec(point="cache.store",
                                          mode="corrupt")):
            with pytest.warns(RuntimeWarning, match="failed"):
                assert sweepcache.store(_key(), _small_sweep()) is None
        assert not list(cache_dir.glob("*.pkl"))
        assert sweepcache.counters()["store_failures"] == 1


class TestMaintenance:
    def test_entries_and_clear(self, cache_dir):
        sweepcache.store(_key(), _small_sweep())
        sweepcache.store(_key(pressures=(2,)), _small_sweep())
        assert len(sweepcache.default_store().entries()) == 2
        assert sweepcache.clear() == 2
        assert sweepcache.default_store().entries() == []
        assert sweepcache.clear() == 0

    def test_clear_empties_the_quarantine_too(self, cache_dir):
        key = _key()
        sweepcache.store(key, _small_sweep())
        (cache_dir / f"{key}.pkl").write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning):
            sweepcache.load(key)
        assert len(sweepcache.default_store().quarantined_entries()) == 1
        sweepcache.clear()
        assert sweepcache.default_store().quarantined_entries() == []

    def test_cache_dir_env_override(self, cache_dir):
        assert sweepcache.cache_dir() == cache_dir

    def test_cache_enabled_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "0")
        assert not SweepOptions.from_env().use_cache
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "1")
        assert SweepOptions.from_env().use_cache
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "Off")
        assert not SweepOptions.from_env().use_cache
        monkeypatch.setenv("REPRO_SWEEP_CACHE", "")
        assert SweepOptions.from_env().use_cache

    @pytest.mark.parametrize("raw", ("disabled", "none", "fasle", "2"))
    def test_unrecognised_cache_value_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", raw)
        with pytest.raises(ValueError, match="REPRO_SWEEP_CACHE"):
            SweepOptions.from_env()


class TestFullSweepIntegration:
    FULL_KWARGS = dict(scale=0.02, pressures=(2,), trace_accesses=500,
                       unit_counts=(1, 2))

    def test_cold_process_equivalent_hits_disk(self, cache_dir):
        clear_sweep_cache()
        try:
            first = full_sweep(options=SweepOptions(use_cache=True),
                               **self.FULL_KWARGS)
            # Dropping the in-process memo simulates a fresh process:
            # every slab must come back from disk, not simulation.
            clear_sweep_cache()
            second = full_sweep(options=SweepOptions(use_cache=True),
                                **self.FULL_KWARGS)
            assert second is not first
            benchmarks = len(first.benchmark_names)
            counts = sweepcache.counters()
            assert counts["stores"] == benchmarks
            assert counts["hits"] == benchmarks
            assert second.fault_report.simulated == []
            for point, record in first.stats.items():
                assert (dataclasses.asdict(second.stats[point])
                        == dataclasses.asdict(record))
        finally:
            clear_sweep_cache()

    def test_use_cache_false_bypasses_disk(self, cache_dir):
        clear_sweep_cache()
        try:
            full_sweep(options=SweepOptions(use_cache=False),
                       **self.FULL_KWARGS)
            assert sweepcache.default_store().entries() == []
            assert sweepcache.counters()["stores"] == 0
        finally:
            clear_sweep_cache()

    def test_parallel_full_sweep_round_trips(self, cache_dir):
        clear_sweep_cache()
        try:
            first = full_sweep(options=SweepOptions(use_cache=True, jobs=2),
                               **self.FULL_KWARGS)
            clear_sweep_cache()
            serial = full_sweep(options=SweepOptions(use_cache=False),
                                **self.FULL_KWARGS)
            for point, record in serial.stats.items():
                assert (dataclasses.asdict(first.stats[point])
                        == dataclasses.asdict(record))
        finally:
            clear_sweep_cache()
