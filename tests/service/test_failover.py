"""Standby replication and failover: mirrored WALs, verified snapshot
rotation, and promotion over a dead or quarantined primary — all ending
in field-identical recovered stats or a clean, bounded degradation."""

import asyncio
import shutil

import pytest

from repro import faults
from repro.analysis.sweepcache import Store
from repro.service.persist import SNAPSHOT_BLOB
from repro.service.server import CacheService, ServiceConfig


def _service(tmp_path, **overrides) -> CacheService:
    defaults = dict(policy="8-unit", capacity_bytes=64 * 1024,
                    retry_after=0.01, check_level="light",
                    snapshot_dir=str(tmp_path / "primary"),
                    standby_dir=str(tmp_path / "standby"),
                    snapshot_interval=10**9)
    defaults.update(overrides)
    return CacheService(ServiceConfig(**defaults))


def _refuse_standby_snapshots(monkeypatch, tmp_path) -> None:
    """The standby store refuses every snapshot copy, as a full or
    failing replica volume would; WAL mirroring still works."""
    store_blob = Store.store_blob
    standby = tmp_path / "standby"

    def refusing(self, name, payload):
        if self.root == standby:
            return None
        return store_blob(self, name, payload)

    monkeypatch.setattr(Store, "store_blob", refusing)


async def _stream(service, tenant, batches, seq_start=1):
    session = service.open_session(tenant, block_sizes=[512] * 32,
                                   resume=True)
    seq = seq_start - 1
    for batch in batches:
        seq += 1
        session.submit(batch, seq=seq)
    await session.flush()
    return session, seq


class TestStandbyMirroring:
    def test_every_wal_record_is_mirrored(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            await _stream(service, "t", [list(range(16))] * 4)
            persister = service.persister
            assert persister.standby_records == persister.records_logged
            assert persister.standby_errors == 0
            # Byte-identical mirror: promotion can trust it verbatim.
            assert (persister.standby_wal_path.read_bytes()
                    == persister.wal_path.read_bytes())
            await service.drain()

        asyncio.run(scenario())

    def test_dead_replica_link_never_touches_the_primary(self, tmp_path):
        async def scenario():
            with faults.plan(faults.FaultSpec(point="service.standby",
                                              times=10**9)):
                service = _service(tmp_path)
                session, _ = await _stream(
                    service, "t", [list(range(16))] * 3
                )
                reference = await session.stats()
                persister = service.persister
                assert persister.standby_errors == persister.records_logged
                assert persister.standby_records == 0
            # The primary WAL alone still recovers everything.
            restarted = _service(tmp_path)
            resumed = restarted.open_session("t", resume=True)
            assert await resumed.stats() == reference
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())


class TestVerifiedRotation:
    def test_verified_snapshot_rotates_the_wal_on_both_sides(
            self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            session, seq = await _stream(
                service, "t", [list(range(16))] * 3
            )
            persister = service.persister
            assert persister.wal_path.exists()
            assert service.arena.snapshot_now()
            # The snapshot covers every record: the rotation deletes
            # both logs, primary and standby.
            assert persister.wal_rotations == 1
            assert persister.snapshot_verifications == 1
            assert not persister.wal_path.exists()
            assert not persister.standby_wal_path.exists()
            assert persister.standby_snapshots == 1
            # Post-rotation appends land in fresh logs and still replay.
            session.submit(list(range(16)), seq=seq + 1)
            await session.flush()
            reference = await session.stats()
            restarted = _service(tmp_path)
            assert restarted.recovery["snapshot_loaded"]
            assert restarted.recovery["records_replayed"] == 1
            resumed = restarted.open_session("t", resume=True)
            assert await resumed.stats() == reference
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())

    def test_verified_snapshot_is_read_back_once(self, tmp_path,
                                                 monkeypatch):
        """Verification reads the stored blob back; the standby gets
        those same bytes, not a second read."""
        async def scenario():
            service = _service(tmp_path)
            await _stream(service, "t", [list(range(16))] * 3)
            persister = service.persister
            reads = []
            load_blob = persister.store.load_blob

            def counted(name):
                reads.append(name)
                return load_blob(name)

            monkeypatch.setattr(persister.store, "load_blob", counted)
            assert service.arena.snapshot_now()
            assert reads == [SNAPSHOT_BLOB]
            assert persister.standby_snapshots == 1
            assert ((tmp_path / "standby" / SNAPSHOT_BLOB).read_bytes()
                    == (tmp_path / "primary" / SNAPSHOT_BLOB).read_bytes())
            await service.drain()

        asyncio.run(scenario())

    def test_standby_that_missed_the_snapshot_keeps_its_log(
            self, tmp_path, monkeypatch):
        """A rotation cuts the standby log only when the standby got
        the snapshot: a promotion then still replays every batch."""
        async def scenario():
            _refuse_standby_snapshots(monkeypatch, tmp_path)
            service = _service(tmp_path)
            session, seq = await _stream(
                service, "t", [list(range(16))] * 3
            )
            persister = service.persister
            assert service.arena.snapshot_now()
            assert persister.standby_errors == 1
            assert not persister.wal_path.exists()
            assert persister.standby_wal_path.exists()
            session.submit(list(range(16)), seq=seq + 1)
            await session.flush()
            reference = await session.stats()
            assert reference["accesses"] == 64
            shutil.rmtree(tmp_path / "primary")
            restarted = _service(tmp_path)
            assert restarted.recovery["standby_promoted"]
            assert restarted.recovery["replay_quarantined"] == 0
            assert restarted.recovery["records_replayed"] == 5
            resumed = restarted.open_session("t", resume=True)
            assert resumed.resumed
            assert await resumed.stats() == reference
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())

    @pytest.mark.parametrize("standby_back", (False, True))
    def test_recovery_gives_the_standby_its_snapshot_before_cutting_its_log(
            self, tmp_path, monkeypatch, standby_back):
        """A clean restart between the missed copy and the disk loss:
        the recovery copies the snapshot it loaded to the standby
        before it cuts the standby log, or, while the standby still
        refuses it, leaves that log alone."""
        async def scenario():
            _refuse_standby_snapshots(monkeypatch, tmp_path)
            service = _service(tmp_path)
            session, seq = await _stream(
                service, "t", [list(range(16))] * 3
            )
            assert service.arena.snapshot_now()
            assert service.persister.standby_errors == 1
            session.submit(list(range(16)), seq=seq + 1)
            await session.flush()
            # The client goes away (its tenant parks, as a lost
            # connection does), then the worker drains: one more
            # snapshot, which the standby refuses too.
            await session.park()
            service._release(session)
            await service.drain()
            assert service.persister.standby_errors == 2
            if standby_back:
                monkeypatch.undo()
            restarted = _service(tmp_path)
            assert restarted.recovery["snapshot_loaded"]
            assert restarted.recovery["tenants"] == ["t"]
            assert restarted.persister.standby_snapshots == int(standby_back)
            session, _ = await _stream(restarted, "t", [list(range(16))],
                                       seq_start=seq + 2)
            reference = await session.stats()
            assert reference["accesses"] == 80
            restarted.persister.close()
            shutil.rmtree(tmp_path / "primary")
            promoted = _service(tmp_path)
            assert promoted.recovery["standby_promoted"]
            assert promoted.recovery["snapshot_loaded"] == standby_back
            assert promoted.recovery["replay_quarantined"] == 0
            resumed = promoted.open_session("t", resume=True)
            assert await resumed.stats() == reference
            await promoted.drain()
            await restarted.drain()

        asyncio.run(scenario())

    def test_failed_verification_quarantines_and_keeps_the_wal(
            self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            session, _ = await _stream(
                service, "t", [list(range(16))] * 3
            )
            persister = service.persister
            with faults.plan(faults.FaultSpec(point="service.snapshot",
                                              mode="corrupt",
                                              keys=("store",))):
                assert not service.arena.snapshot_now()
            assert persister.snapshot_verify_failures == 1
            assert persister.snapshots_written == 0
            assert persister.snapshot_seq == 0
            # Nothing trusted, nothing rotated: the full WAL remains
            # and recovery replays it from scratch.
            assert persister.wal_path.exists()
            reference = await session.stats()
            restarted = _service(tmp_path)
            assert not restarted.recovery["snapshot_loaded"]
            resumed = restarted.open_session("t", resume=True)
            assert await resumed.stats() == reference
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())


class TestPromotion:
    def test_destroyed_primary_fails_over_to_the_standby(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, snapshot_interval=40)
            session, seq = await _stream(
                service, "t", [list(range(16))] * 5
            )
            reference = await session.stats()
            # The disk dies: the whole primary directory is gone.
            shutil.rmtree(tmp_path / "primary")
            restarted = _service(tmp_path, snapshot_interval=40)
            assert restarted.recovery["standby_promoted"]
            assert restarted.recovery["recovered"]
            resumed = restarted.open_session("t", resume=True)
            assert resumed.resumed
            assert restarted.arena.applied_seq("t") == seq
            assert await resumed.stats() == reference
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())

    def test_quarantined_primary_snapshot_promotes_the_standby_copy(
            self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            session, _ = await _stream(
                service, "t", [list(range(16))] * 3
            )
            assert service.arena.snapshot_now()
            session.submit(list(range(16)), seq=4)
            await session.flush()
            reference = await session.stats()
            # Damage the primary blob on disk; the standby copy and the
            # primary's post-rotation WAL suffix stay intact.
            blob = tmp_path / "primary" / SNAPSHOT_BLOB
            blob.write_bytes(b"\xff" + blob.read_bytes()[1:])
            restarted = _service(tmp_path)
            assert restarted.recovery["standby_promoted"]
            assert restarted.recovery["snapshot_loaded"]
            resumed = restarted.open_session("t", resume=True)
            assert await resumed.stats() == reference
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())

    def test_corrupt_standby_degrades_like_a_corrupt_primary(
            self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            session, _ = await _stream(
                service, "t", [list(range(16))] * 3
            )
            assert service.arena.snapshot_now()
            session.submit(list(range(16)), seq=4)
            await session.flush()
            # Both copies of the snapshot rot, and the primary dir dies:
            # promotion hands recovery a corrupt blob plus the standby
            # WAL — which only holds the post-rotation suffix, whose
            # access record has no attach to land on once the snapshot
            # is gone.  Both bad artifacts are quarantined with full
            # forensics and the worker still comes up — degraded, never
            # crashed.
            standby_blob = tmp_path / "standby" / SNAPSHOT_BLOB
            standby_blob.write_bytes(
                b"\xff" + standby_blob.read_bytes()[1:]
            )
            shutil.rmtree(tmp_path / "primary")
            restarted = _service(tmp_path)
            assert restarted.recovery["standby_promoted"]
            assert not restarted.recovery["snapshot_loaded"]
            assert restarted.recovery["records_replayed"] == 0
            assert restarted.recovery["replay_quarantined"] == 1
            assert (tmp_path / "primary" / "quarantine").exists()
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())

    def test_torn_standby_wal_line_stops_replay_cleanly(self, tmp_path):
        async def scenario():
            # The first mirrored record (the attach) is torn in flight;
            # after the primary dies, promotion serves a WAL whose very
            # first line is garbage — recovery must come up empty-handed
            # but *up*.
            with faults.plan(faults.FaultSpec(point="service.standby",
                                              mode="corrupt", times=1)):
                service = _service(tmp_path)
                await _stream(service, "t", [list(range(16))] * 2)
            shutil.rmtree(tmp_path / "primary")
            restarted = _service(tmp_path)
            assert restarted.recovery["standby_promoted"]
            assert restarted.recovery["replay_truncated"] == 1
            assert restarted.recovery["records_replayed"] == 0
            assert not restarted.arena.has_tenant("t")
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())

    def test_tenant_attached_after_a_torn_promotion_survives_a_crash(
            self, tmp_path):
        """Recovery after a promotion over a torn first line empties
        both logs, so a tenant attached afterwards is logged from the
        first line on and comes back after the next crash."""
        async def scenario():
            with faults.plan(faults.FaultSpec(point="service.standby",
                                              mode="corrupt", times=1)):
                service = _service(tmp_path)
                await _stream(service, "t", [list(range(16))] * 2)
            shutil.rmtree(tmp_path / "primary")
            promoted = _service(tmp_path)
            assert promoted.recovery["standby_promoted"]
            assert promoted.recovery["replay_truncated"] == 1
            session, seq = await _stream(promoted, "u",
                                         [list(range(16))] * 3)
            reference = await session.stats()
            # A crash before any snapshot.
            restarted = _service(tmp_path)
            assert restarted.arena.has_tenant("u")
            assert restarted.arena.applied_seq("u") == seq == 3
            assert restarted.recovery["replay_truncated"] == 0
            resumed = restarted.open_session("u", resume=True)
            assert await resumed.stats() == reference
            # Recovery re-synced the standby: its log is the primary's.
            persister = restarted.persister
            assert (persister.standby_wal_path.read_bytes()
                    == persister.wal_path.read_bytes())
            await restarted.drain()
            await service.drain()

        asyncio.run(scenario())
