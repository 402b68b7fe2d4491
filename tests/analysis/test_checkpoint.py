"""Sweep slabs in the store: keying, atomicity, quarantine, the slab
check."""

import dataclasses
import pickle

import pytest

from repro import faults
from repro.analysis import sweepcache
from repro.analysis.parallel import (
    SweepTask,
    _check_slab,
    canonical_specs,
    simulate_task,
    task_key,
)
from repro.analysis.sweepcache import Store
from repro.core.policies import ladder_specs
from repro.workloads.registry import spec_benchmarks

SPECS = spec_benchmarks()[:2]
TASK_KWARGS = dict(policy_specs=canonical_specs(ladder_specs((1, 4))),
                   scale=0.1, trace_accesses=1200, pressures=(2.0,))


def _task(index=0, **overrides):
    kwargs = dict(TASK_KWARGS)
    kwargs.update(overrides)
    return SweepTask(spec=SPECS[index], **kwargs)


def _path(store, task):
    return store.path(f"{task_key(task)}.pkl")


def _load(store, task):
    """A slab load as the executor does it."""
    return store.load(task_key(task), parse=_check_slab)


def _store(store, task, records):
    return store.store(task_key(task), records)


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.disarm()


@pytest.fixture
def store(tmp_path):
    sweepcache.reset_counters()
    return Store(tmp_path / "store")


class TestTaskKey:
    def test_key_is_deterministic(self):
        assert task_key(_task()) == task_key(_task())

    def test_every_grid_parameter_is_keyed(self):
        base = task_key(_task())
        assert base != task_key(_task(index=1))
        assert base != task_key(_task(scale=0.2))
        assert base != task_key(_task(trace_accesses=999))
        assert base != task_key(_task(pressures=(2.0, 6.0)))
        for other in (ladder_specs((1, 8)),
                      ladder_specs((1, 4), include_fine=False),
                      [*ladder_specs((1, 4)), {"kind": "gen"}],
                      [*ladder_specs((1,)), {"kind": "unit", "unit_count": 4,
                                             "name": "four"}, "fifo"]):
            assert base != task_key(_task(policy_specs=canonical_specs(
                other)))
        assert base != task_key(_task(track_links=False))


class TestRoundTrip:
    def test_load_missing_returns_none(self, store):
        assert _load(store, _task()) is None
        assert sweepcache.counters()["misses"] == 1

    def test_store_then_load_round_trips_records(self, store):
        task = _task()
        records = simulate_task(task)
        assert _store(store, task, records) == _path(store, task)
        reloaded = _load(store, task)
        assert reloaded is not None
        assert len(reloaded) == len(records)
        for (expected, actual) in zip(records, reloaded):
            assert expected[:3] == actual[:3]
            assert (dataclasses.asdict(expected[3])
                    == dataclasses.asdict(actual[3]))
        counts = sweepcache.counters()
        assert counts["stores"] == 1 and counts["hits"] == 1

    def test_checkpoints_do_not_cross_tasks(self, store):
        task = _task()
        _store(store, task, simulate_task(task))
        assert _load(store, _task(index=1)) is None
        assert _load(store, _task(scale=0.2)) is None

    def test_no_temp_files_left_behind(self, store):
        task = _task()
        _store(store, task, simulate_task(task))
        assert not list(store.root.glob("*.tmp"))
        assert store.entries() == [_path(store, task)]


class TestQuarantine:
    def test_corrupt_checkpoint_is_quarantined_and_missed(self, store):
        task = _task()
        _store(store, task, simulate_task(task))
        _path(store, task).write_bytes(b"torn write")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert _load(store, task) is None
        assert not _path(store, task).exists()
        moved = store.root / "quarantine" / _path(store, task).name
        assert moved.read_bytes() == b"torn write"
        assert sweepcache.counters()["quarantines"] == 1

    def test_wrong_payload_type_is_quarantined(self, store):
        task = _task()
        store.root.mkdir(parents=True, exist_ok=True)
        _path(store, task).write_bytes(pickle.dumps({"not": "a list"}))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert _load(store, task) is None

    def test_truncated_slab_is_quarantined_and_counted(self, store):
        task = _task()
        _store(store, task, simulate_task(task))
        payload = _path(store, task).read_bytes()
        _path(store, task).write_bytes(payload[:len(payload) // 2])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert _load(store, task) is None
        assert sweepcache.counters()["quarantines"] == 1
        assert len(store.quarantined_entries()) == 1

    def test_malformed_record_shape_is_quarantined(self, store):
        task = _task()
        store.root.mkdir(parents=True, exist_ok=True)
        # A list, but not of (benchmark, policy, pressure, stats) tuples:
        # unpickles fine, must still be rejected before a resume uses it.
        _path(store, task).write_bytes(
            pickle.dumps([("gzip", "FLUSH", 2.0)])
        )
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert _load(store, task) is None
        _path(store, task).write_bytes(
            pickle.dumps([("gzip", "FLUSH", 2.0, "not-stats")])
        )
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert _load(store, task) is None

    def test_quarantined_entries_empty_without_directory(self, store):
        assert store.quarantined_entries() == []

    def test_injected_corruption_on_load(self, store):
        task = _task()
        _store(store, task, simulate_task(task))
        with faults.plan(faults.FaultSpec(point="cache.load",
                                          mode="corrupt")):
            with pytest.warns(RuntimeWarning, match="quarantined"):
                assert _load(store, task) is None

    def test_injected_store_failure_warns_and_continues(self, store):
        task = _task()
        with faults.plan(faults.FaultSpec(point="cache.store",
                                          mode="raise")):
            with pytest.warns(RuntimeWarning, match="continuing without"):
                assert _store(store, task, simulate_task(task)) is None
        assert store.entries() == []
        # Healthy store afterwards still works.
        assert _store(store, task, simulate_task(task)) is not None


class TestMaintenance:
    def test_clear_removes_everything_including_quarantine(self, store):
        task = _task()
        _store(store, task, simulate_task(task))
        _path(store, task).write_bytes(b"bad")
        with pytest.warns(RuntimeWarning):
            _load(store, task)
        _store(store, task, simulate_task(task))
        assert store.clear() == 2  # live entry + quarantined file
        assert store.entries() == []
        assert store.quarantined_entries() == []

    def test_default_store_lives_under_the_cache_dir(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv(sweepcache.ENV_CACHE_DIR, str(tmp_path))
        assert sweepcache.default_store().root == tmp_path
