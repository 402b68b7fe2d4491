"""Snapshot + write-ahead-log recovery: a restarted worker must come
back with field-identical per-tenant stats, degrade gracefully on
corrupt artifacts, and apply every sequenced batch exactly once."""

import asyncio
import copy
import dataclasses
import json

import pytest

from repro import faults
from repro.service import protocol
from repro.service.persist import (
    QUARANTINE_RECORD,
    SNAPSHOT_BLOB,
    WAL_NAME,
    ArenaPersister,
    fingerprint_digest,
    recover_arena,
)
from repro.service.server import CacheService, ServiceConfig
from repro.service.session import PARKED, SessionError
from repro.service.tenancy import SNAPSHOT_VERSION


def _service(tmp_path, **overrides) -> CacheService:
    defaults = dict(policy="8-unit", capacity_bytes=64 * 1024,
                    retry_after=0.01, check_level="light",
                    snapshot_dir=str(tmp_path / "durable"),
                    snapshot_interval=500)
    defaults.update(overrides)
    return CacheService(ServiceConfig(**defaults))


async def _stream(service, tenant, batches, seq_start=1,
                  block_sizes=None, resume=False):
    session = service.open_session(
        tenant, block_sizes=block_sizes or [512] * 32, resume=resume
    )
    seq = seq_start - 1
    for batch in batches:
        seq += 1
        session.submit(batch, seq=seq)
    await session.flush()
    return session, seq


class TestRestartRecovery:
    def test_restart_is_field_identical(self, tmp_path):
        """The acceptance bar: kill (no drain), restart, resume — every
        per-tenant stats field matches the uninterrupted run."""
        batches = [list(range(24)) for _ in range(12)]

        async def crashy():
            service = _service(tmp_path)
            session, seq = await _stream(service, "t", batches)
            before = await session.stats()
            # No drain, no final snapshot: the process just dies.
            restarted = _service(tmp_path)
            assert restarted.recovery["recovered"]
            resumed = restarted.open_session("t", resume=True)
            assert resumed.resumed
            assert restarted.arena.applied_seq("t") == seq
            after = await resumed.stats()
            assert after == before
            await restarted.drain()

        asyncio.run(crashy())

    def test_wal_only_recovery_without_any_snapshot(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, snapshot_interval=10**9)
            session, _ = await _stream(
                service, "t", [list(range(16))] * 4
            )
            reference = await session.stats()
            restarted = _service(tmp_path, snapshot_interval=10**9)
            assert not restarted.recovery["snapshot_loaded"]
            assert restarted.recovery["records_replayed"] == 5  # attach+4
            resumed = restarted.open_session("t", resume=True)
            assert await resumed.stats() == reference
            await restarted.drain()

        asyncio.run(scenario())

    def test_snapshot_skips_covered_records(self, tmp_path):
        """A crash between snapshot-write and WAL deletion must not
        double-apply: replay skips records at or below the snapshot's
        sequence."""
        async def scenario():
            service = _service(tmp_path, snapshot_interval=10**9)
            session, seq = await _stream(
                service, "t", [list(range(16))] * 3
            )
            assert service.arena.snapshot_now()
            # Simulate the torn window: put a pre-snapshot record back
            # in front of the log, as if the unlink never happened.
            persister = service.persister
            covered = persister.snapshot_seq
            session.submit(list(range(16)), seq=seq + 1)
            await session.flush()
            reference = await session.stats()
            wal = persister.wal_path.read_bytes()
            stale = (
                b'{"block_sizes":[1],"seq":1,"tenant":"t",'
                b'"type":"attach"}\n'
            )
            assert covered >= 1
            persister.wal_path.write_bytes(stale + wal)

            restarted = _service(tmp_path, snapshot_interval=10**9)
            assert restarted.recovery["snapshot_loaded"]
            assert restarted.recovery["records_skipped"] == 1
            assert restarted.recovery["records_replayed"] == 1
            resumed = restarted.open_session("t", resume=True)
            assert await resumed.stats() == reference
            await restarted.drain()

        asyncio.run(scenario())

    def test_single_accesses_are_logged(self, tmp_path):
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, _ = recover_arena(persister, policy="8-unit",
                                 capacity_bytes=64 * 1024,
                                 max_block_bytes=8192)
        arena.attach("t", [512] * 8)
        for sid in (0, 1, 0, 2):
            arena.access("t", sid)
        reference = arena.tenant_stats("t")
        persister.close()
        restored, report = recover_arena(
            ArenaPersister(tmp_path, snapshot_interval=10**9),
            policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192)
        assert report["records_replayed"] == 5  # attach + 4 accesses
        assert restored.tenant_stats("t") == reference

    def test_out_of_range_batch_leaves_no_trace(self, tmp_path):
        """A batch naming a block outside the tenant's population is
        rejected before it is logged or applied, so the WAL never holds
        a record replay cannot apply: every other tenant recovers
        field-identically."""
        async def scenario():
            service = _service(tmp_path, snapshot_interval=10**9)
            good, seq = await _stream(service, "good", [list(range(24))])
            bad, _ = await _stream(service, "bad", [])
            bad.submit([0, 1, 2, 32], seq=1)
            with pytest.raises(SessionError):
                await bad.flush()
            assert "no superblock 32" in bad.failure
            assert not service.arena.has_tenant("bad")
            for _ in range(4):
                seq += 1
                good.submit(list(range(24)), seq=seq)
            reference = await good.stats()
            unified = service.arena.unified_stats()

            restarted = _service(tmp_path, snapshot_interval=10**9)
            assert restarted.recovery["replay_quarantined"] == 0
            assert restarted.recovery["tenants"] == ["good"]
            assert restarted.arena.applied_seq("good") == seq
            resumed = restarted.open_session("good", resume=True)
            assert await resumed.stats() == reference
            assert restarted.arena.unified_stats() == unified
            await restarted.drain()

        asyncio.run(scenario())

    def test_recovery_reports_timing_and_tenants(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await _stream(service, "a", [list(range(8))])
            await _stream(service, "b", [list(range(8))])
            restarted = _service(tmp_path)
            report = restarted.recovery
            assert report["tenants"] == ["a", "b"]
            assert report["recovery_seconds"] >= 0.0
            assert "persistence" in restarted.describe()
            await restarted.drain()

        asyncio.run(scenario())


class TestDegradedArtifacts:
    def test_corrupt_snapshot_quarantined_then_wal_replay(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, snapshot_interval=10**9)
            await _stream(service, "t", [list(range(16))] * 2)
            assert service.arena.snapshot_now()
            # Post-snapshot tail so WAL-only recovery has something.
            session = service.sessions["t"]
            session.submit(list(range(16)), seq=3)
            await session.flush()
            with faults.plan(faults.FaultSpec(point="service.snapshot",
                                              mode="corrupt",
                                              keys=("load",))):
                # The orphaned access tail (its attach lived only in the
                # quarantined snapshot) cannot apply either; both blobs
                # end up quarantined and the worker starts degraded but
                # alive.
                with pytest.warns(RuntimeWarning, match="replay stopped"):
                    restarted = _service(
                        tmp_path, snapshot_interval=10**9
                    )
            assert not restarted.recovery["snapshot_loaded"]
            quarantine = restarted.persister.store.root / "quarantine"
            names = [p.name for p in quarantine.iterdir()]
            assert any(SNAPSHOT_BLOB in name for name in names)
            assert not restarted.arena.has_tenant("t")
            fresh = restarted.open_session("t", block_sizes=[512] * 8)
            assert not fresh.resumed
            await restarted.drain()

        asyncio.run(scenario())

    def test_older_snapshot_version_is_quarantined(self, tmp_path):
        """A snapshot in the version-2 layout (its fingerprint carried
        no version) describes another table layout: it is quarantined,
        and the record names both fingerprints."""
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, _ = recover_arena(persister, policy="8-unit",
                                 capacity_bytes=64 * 1024,
                                 max_block_bytes=8192)
        arena.attach("t", [512] * 8)
        arena.access_many("t", list(range(8)), tseq=1)
        state = arena.snapshot_state()
        fingerprint = dict(state["fingerprint"])
        fingerprint.pop("version", None)
        state.update(version=2, fingerprint=fingerprint)
        assert persister.write_snapshot(state, arena.total_accesses)
        persister.close()

        restarted = ArenaPersister(tmp_path, snapshot_interval=10**9)
        with pytest.warns(RuntimeWarning, match="quarantined corrupt"):
            _, report = recover_arena(restarted, policy="8-unit",
                                      capacity_bytes=64 * 1024,
                                      max_block_bytes=8192)
        assert not report["snapshot_loaded"]
        record = restarted.last_quarantine_record
        assert record["expected_fingerprint"] == arena.fingerprint()
        assert record["expected_fingerprint"]["version"] == SNAPSHOT_VERSION
        assert record["actual_fingerprint"] == fingerprint
        restarted.close()

    def test_fingerprint_mismatch_quarantines_snapshot(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await _stream(service, "t", [list(range(16))])
            assert service.arena.snapshot_now()
            restarted = _service(tmp_path, capacity_bytes=32 * 1024)
            assert not restarted.recovery["snapshot_loaded"]
            await restarted.drain()

        asyncio.run(scenario())

    def test_quarantine_record_carries_fingerprint_digests(self, tmp_path):
        """The forensics bar: a fingerprint-mismatch quarantine must
        record both fingerprints *and* their digests, in memory and in
        the JSON sidecar next to the quarantined blob."""
        async def scenario():
            service = _service(tmp_path)
            await _stream(service, "t", [list(range(16))])
            assert service.arena.snapshot_now()
            # The warning is the persister's reason and the blob's
            # name, not a sweep slab's.
            with pytest.warns(RuntimeWarning,
                              match=r"^quarantined corrupt .*: "
                                    r"arena-snapshot\.pkl$") as warned:
                restarted = _service(tmp_path, capacity_bytes=32 * 1024)
            record = restarted.persister.last_quarantine_record
            assert record is not None
            assert record["blob"] == SNAPSHOT_BLOB
            expected = record["expected_fingerprint"]
            actual = record["actual_fingerprint"]
            assert expected["capacity_bytes"] == 32 * 1024
            assert actual["capacity_bytes"] == 64 * 1024
            assert record["expected_digest"] == fingerprint_digest(expected)
            assert record["actual_digest"] == fingerprint_digest(actual)
            assert record["expected_digest"] != record["actual_digest"]
            assert len(record["payload_sha256"]) == 64
            sidecar = (restarted.persister.root / "quarantine"
                       / QUARANTINE_RECORD)
            assert json.loads(sidecar.read_text()) == record
            # The digests also surface in the quarantine warning humans
            # read first.
            messages = [str(w.message) for w in warned]
            assert any(record["expected_digest"] in message
                       and record["actual_digest"] in message
                       for message in messages)
            await restarted.drain()

        asyncio.run(scenario())

    def test_undecodable_snapshot_records_null_actual(self, tmp_path):
        """A blob that will not unpickle has no actual fingerprint:
        the record says so instead of guessing."""
        async def scenario():
            service = _service(tmp_path)
            await _stream(service, "t", [list(range(16))])
            assert service.arena.snapshot_now()
            with faults.plan(faults.FaultSpec(point="service.snapshot",
                                              mode="corrupt",
                                              keys=("load",))):
                with pytest.warns(RuntimeWarning,
                                  match="quarantined corrupt"):
                    restarted = _service(tmp_path)
            record = restarted.persister.last_quarantine_record
            assert record is not None
            assert record["actual_fingerprint"] is None
            assert record["actual_digest"] is None
            assert record["expected_digest"] == fingerprint_digest(
                record["expected_fingerprint"]
            )
            await restarted.drain()

        asyncio.run(scenario())

    def test_torn_wal_tail_is_dropped(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, snapshot_interval=10**9)
            session, _ = await _stream(
                service, "t", [list(range(16))] * 3
            )
            reference = await session.stats()
            with open(service.persister.wal_path, "ab") as handle:
                handle.write(b'{"type":"access","tenant":"t","si')
            restarted = _service(tmp_path, snapshot_interval=10**9)
            assert restarted.recovery["replay_truncated"] == 1
            resumed = restarted.open_session("t", resume=True)
            assert await resumed.stats() == reference
            await restarted.drain()

        asyncio.run(scenario())

    def test_batches_after_a_torn_tail_survive_a_second_crash(self,
                                                                tmp_path):
        """Recovery leaves the log holding exactly the records it
        applied, so nothing appended afterwards sits behind the torn
        line where the next replay would stop."""
        async def scenario():
            service = _service(tmp_path, snapshot_interval=10**9)
            await _stream(service, "t", [list(range(16))] * 3)
            with open(service.persister.wal_path, "ab") as handle:
                handle.write(b'{"type":"access","tenant":"t","si')
            recovered = _service(tmp_path, snapshot_interval=10**9)
            assert recovered.recovery["replay_truncated"] == 1
            session, seq = await _stream(
                recovered, "t", [list(range(16))] * 4, seq_start=4,
                resume=True,
            )
            reference = await session.stats()
            # A second crash, before any snapshot.
            restarted = _service(tmp_path, snapshot_interval=10**9)
            assert restarted.arena.applied_seq("t") == seq == 7
            resumed = restarted.open_session("t", resume=True)
            after = await resumed.stats()
            assert after["accesses"] == 112
            assert after == reference
            assert restarted.recovery["replay_truncated"] == 0
            assert restarted.recovery["records_replayed"] == 8
            await restarted.drain()

        asyncio.run(scenario())

    def test_unreplayable_record_quarantines_wal(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, snapshot_interval=10**9)
            await _stream(service, "t", [list(range(16))] * 3)
            with faults.plan(faults.FaultSpec(point="service.replay",
                                              times=1)):
                with pytest.warns(RuntimeWarning, match="replay stopped"):
                    restarted = _service(
                        tmp_path, snapshot_interval=10**9
                    )
            assert restarted.recovery["replay_quarantined"] == 1
            quarantine = restarted.persister.store.root / "quarantine"
            assert any(WAL_NAME in p.name for p in quarantine.iterdir())
            await restarted.drain()

        asyncio.run(scenario())


class TestExactlyOnce:
    def test_duplicate_batches_are_skipped(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            session, seq = await _stream(
                service, "t", [list(range(16))] * 3
            )
            reference = await session.stats()
            logged = service.persister.records_logged
            # A resend at or below the watermark is acknowledged but
            # neither applied nor re-logged.
            session.submit(list(range(16)), seq=seq)
            session.submit(list(range(16)), seq=seq - 1)
            await session.flush()
            assert await session.stats() == reference
            assert service.persister.records_logged == logged
            await service.drain()

        asyncio.run(scenario())

    def test_unsequenced_batches_always_apply(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            session, _ = await _stream(service, "t", [list(range(16))])
            before = (await session.stats())["accesses"]
            session.submit(list(range(16)))
            session.submit(list(range(16)))
            await session.flush()
            assert (await session.stats())["accesses"] == before + 32
            await service.drain()

        asyncio.run(scenario())


class TestParkAndResume:
    def test_disconnect_parks_instead_of_detaching(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(protocol.encode(
                {"op": "hello", "tenant": "t",
                 "block_sizes": [512] * 8}
            ))
            await writer.drain()
            assert (protocol.decode_line(await reader.readline()))["ok"]
            writer.write(protocol.encode(
                {"op": "access", "sids": list(range(8)), "seq": 1,
                 "sync": True}
            ))
            await writer.drain()
            assert (protocol.decode_line(await reader.readline()))["ok"]
            session = service.sessions["t"]
            writer.close()
            await writer.wait_closed()
            for _ in range(100):
                if session.state == PARKED:
                    break
                await asyncio.sleep(0.01)
            assert session.state == PARKED
            assert service.arena.has_tenant("t")

            # Resume over a fresh connection: watermark intact.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(protocol.encode(
                {"op": "hello", "tenant": "t", "block_sizes": [512] * 8,
                 "resume": True}
            ))
            await writer.drain()
            greeting = protocol.decode_line(await reader.readline())
            assert greeting["ok"] and greeting["resumed"]
            assert greeting["applied_seq"] == 1
            writer.write(protocol.encode({"op": "close"}))
            await writer.drain()
            farewell = protocol.decode_line(await reader.readline())
            assert farewell["ok"]
            assert farewell["tenant"]["accesses"] == 8
            writer.close()
            await writer.wait_closed()
            await service.drain()

        asyncio.run(scenario())

    def test_resume_without_state_attaches_fresh(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            session = service.open_session(
                "new", block_sizes=[512] * 4, resume=True
            )
            assert not session.resumed
            await service.drain()

        asyncio.run(scenario())

    def test_without_persistence_disconnect_still_detaches(self):
        async def scenario():
            service = CacheService(ServiceConfig(
                policy="8-unit", capacity_bytes=64 * 1024
            ))
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(protocol.encode(
                {"op": "hello", "tenant": "t", "block_sizes": [512] * 8}
            ))
            await writer.drain()
            assert (protocol.decode_line(await reader.readline()))["ok"]
            writer.close()
            await writer.wait_closed()
            for _ in range(100):
                if not service.arena.has_tenant("t"):
                    break
                await asyncio.sleep(0.01)
            assert not service.arena.has_tenant("t")
            await service.drain()

        asyncio.run(scenario())


def _to_legacy_layout(stats) -> None:
    """Rewrite *stats* in place into the layout records were pickled
    with before the overheads became derived: three float fields and
    no overhead model.  The floats are deliberately stale — restore
    must re-derive the overheads from the counters, not trust them."""
    state = vars(stats)
    del state["overhead_model"]
    state.update(miss_overhead=-1.0, eviction_overhead=-2.0,
                 unlink_overhead=-3.0)


class TestLegacyStatsLayout:
    def test_snapshot_with_float_overhead_fields_restores(self, tmp_path):
        persister = ArenaPersister(tmp_path, snapshot_interval=10**9)
        arena, _ = recover_arena(persister, policy="8-unit",
                                 capacity_bytes=64 * 1024,
                                 max_block_bytes=8192)
        arena.attach("a", [4096] * 24)
        arena.attach("b", [3000] * 24)
        arena.access_many("a", list(range(24)) * 2, tseq=1)
        arena.access_many("b", list(range(24)) * 2, tseq=1)
        arena.detach("b")
        want = {t.name: dataclasses.replace(t.stats)
                for t in arena.tenants()}
        unified = arena.unified_stats()
        assert unified.eviction_invocations > 0

        state = copy.deepcopy(arena.snapshot_state())
        legacy = {id(record): record for record in
                  [t.stats for t in state["by_slot"]]
                  + state["closed_stats"]}
        for record in legacy.values():
            _to_legacy_layout(record)
        assert persister.write_snapshot(state, arena.total_accesses)
        persister.close()

        restored, report = recover_arena(
            ArenaPersister(tmp_path, snapshot_interval=10**9),
            policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192)
        assert report["snapshot_loaded"]
        assert report["records_replayed"] == 0
        for tenant in restored.tenants():
            stats = tenant.stats
            assert stats == want[tenant.name]
            assert "miss_overhead" not in vars(stats)
            assert stats.to_dict()["eviction_overhead"] == (
                2.77 * stats.evicted_bytes
                + 3055.0 * stats.eviction_invocations)
        assert restored.unified_stats() == unified


class TestPersisterUnit:
    def test_snapshot_interval_gates_writes(self, tmp_path):
        persister = ArenaPersister(tmp_path, snapshot_interval=100)
        assert not persister.snapshot_due(50)
        assert persister.snapshot_due(100)
        persister.replaying = True
        assert not persister.snapshot_due(1000)

    def test_recover_arena_from_empty_directory(self, tmp_path):
        persister = ArenaPersister(tmp_path)
        arena, report = recover_arena(
            persister, policy="8-unit", capacity_bytes=64 * 1024,
            max_block_bytes=8192,
        )
        assert not report["recovered"]
        assert report["tenants"] == []
        assert arena.total_accesses == 0

    def test_access_records_keep_their_bytes(self, tmp_path):
        """The logged sids are the caller's list, and the WAL line is
        byte for byte what the copying encoder wrote."""
        persister = ArenaPersister(tmp_path)
        sids = [3, 0, 3]
        persister.log_access("t", sids, 7)
        persister.log_access("t", [1], None)
        persister.close()
        assert persister.wal_path.read_bytes() == (
            b'{"seq":1,"sids":[3,0,3],"tenant":"t","tseq":7,'
            b'"type":"access"}\n'
            b'{"seq":2,"sids":[1],"tenant":"t","tseq":null,'
            b'"type":"access"}\n'
        )
        assert sids == [3, 0, 3]

    def test_unencodable_batch_raises_before_anything_moves(self,
                                                           tmp_path):
        persister = ArenaPersister(tmp_path, standby_root=tmp_path / "sb")
        persister.log_access("t", [0], 1)
        with pytest.raises(TypeError):
            persister.log_access("t", [1, object()], 2)
        assert persister.wal_seq == persister.records_logged == 1
        persister.log_access("t", [2], 3)
        persister.close()
        assert [r["seq"] for r in persister.read_wal()] == [1, 2]
        assert (persister.standby_wal_path.read_bytes()
                == persister.wal_path.read_bytes())
