"""Arena persistence: periodic snapshots plus a write-ahead access log.

The service tier used to die with its process: one crash lost every
tenant's arena residency, stats and session state.  This module gives a
worker a durable spine built from two pieces, both flowing through the
sweep engine's :class:`~repro.analysis.sweepcache.Store` (atomic
temp-file-and-replace writes, quarantine instead of silent deletion):

* **Snapshots** — a pickle of the whole arena (the configured policy
  object with its live cache state, the tenant table with per-tenant
  Equation 1 stats and exactly-once watermarks, the unified counters),
  written every ``snapshot_interval`` arena accesses and atomically
  replaced.  A snapshot records the write-ahead-log sequence it covers,
  so replay after a crash between "snapshot written" and "log
  truncated" simply skips the already-covered records.
* **Write-ahead log** — one JSON line per arena mutation (attach,
  access batch, detach), appended and flushed *inside the same critical
  section that applies it*, so the log's record order is exactly the
  arena's apply order and replay reproduces the identical cross-tenant
  interleaving.  A SIGKILL can tear at most the final line; the torn
  tail is detected by the JSON parser and dropped, which is the bounded
  data loss the resumed clients' sequence numbers paper over.

Recovery (:func:`recover_arena`) loads the latest snapshot — verifying
it against the worker's configuration fingerprint, quarantining a
corrupt or mismatched one — then replays the log tail on top.  The
result is an arena whose per-tenant stats are field-identical to the
moment each logged batch was applied; a resumed session learns its
``applied_seq`` watermark from the hello response and resends
everything after it.

**Standby replication** (``standby_root``): every WAL append is
mirrored line-by-line to a per-shard standby directory — a stand-in for
a remote replica volume — and every verified snapshot is copied there
too.  When recovery finds the primary unusable (its snapshot was
quarantined, or the whole directory is gone with the disk), the standby
is *promoted*: its artifacts are copied back into the primary root and
recovery proceeds normally, so the promoted snapshot and WAL still pass
the same fingerprint and torn-tail guards as native primaries.  A
corrupt standby therefore degrades exactly like a corrupt primary —
quarantine and replay what is trustworthy — never crashes the worker.

**Bounded WAL growth**: a snapshot is only trusted after a round-trip
verification (load the stored blob back, re-check the configuration
fingerprint); then the WAL is *rotated* — rewritten atomically keeping
exactly the suffix of records the snapshot does not cover — and the
rotation is mirrored to the standby.  A crash between "snapshot
written" and "log rotated" only means replay skips covered records.

Fault points: ``service.snapshot`` covers the snapshot bytes on both
the store and load sides (``corrupt`` mode damages them, which the
loader must catch and quarantine); ``service.replay`` fires once per
replayed record, so a ``raise`` spec proves a poisoned log is
quarantined rather than half-applied in a loop forever;
``service.standby`` fires on every mirrored WAL line (``corrupt`` mode
damages only the standby copy, ``raise`` mode simulates a dead replica
link — both must leave the primary untouched).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import time
import warnings
from pathlib import Path

from repro import faults
from repro.analysis.sweepcache import QUARANTINE_DIR, Store
from repro.core.policies import policy_from_spec

#: Blob name of the arena snapshot inside the persister's store.
SNAPSHOT_BLOB = "arena-snapshot.pkl"

#: JSON sidecar written next to a quarantined snapshot with the full
#: mismatch forensics (expected vs actual fingerprints and digests).
QUARANTINE_RECORD = "arena-snapshot.quarantine.json"

#: File name of the write-ahead log (JSON lines) next to the snapshot.
WAL_NAME = "arena-wal.jsonl"

#: Default accesses between snapshots.
DEFAULT_SNAPSHOT_INTERVAL = 50_000

#: WAL record types recovery understands.
_RECORD_TYPES = ("attach", "access", "detach")


class RecoveryError(RuntimeError):
    """Recovery could not produce a usable arena at all."""


def fingerprint_digest(fingerprint: dict | None) -> str | None:
    """A short stable digest of a configuration fingerprint, so a
    quarantine record can name the mismatch compactly."""
    if fingerprint is None:
        return None
    payload = json.dumps(fingerprint, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ArenaPersister:
    """One worker's durable spine: a snapshot blob plus a WAL file.

    Thread-safety: every mutating entry point is called by the arena
    while it holds its own lock, so the persister needs none of its own.
    """

    def __init__(self, root: str | Path,
                 snapshot_interval: int = DEFAULT_SNAPSHOT_INTERVAL,
                 standby_root: str | Path | None = None) -> None:
        self.root = Path(root)
        self.store = Store(self.root)
        self.snapshot_interval = max(1, int(snapshot_interval))
        self.wal_path = self.root / WAL_NAME
        self._wal_file = None
        #: Standby replica directory (None disables replication).
        self.standby_root = Path(standby_root) if standby_root else None
        self.standby_store = (Store(self.standby_root)
                              if self.standby_root else None)
        self.standby_wal_path = (self.standby_root / WAL_NAME
                                 if self.standby_root else None)
        self._standby_wal_file = None
        self.standby_records = 0
        self.standby_snapshots = 0
        self.standby_errors = 0
        #: True once recovery copied the standby over a dead primary.
        self.standby_promoted = False
        self.snapshot_verifications = 0
        self.snapshot_verify_failures = 0
        self.wal_rotations = 0
        #: Last global sequence number assigned (or observed in replay).
        self.wal_seq = 0
        #: Sequence covered by the last snapshot; replay skips <= this.
        self.snapshot_seq = 0
        self._accesses_at_snapshot = 0
        #: True while recovery replays the log — suppresses re-logging.
        self.replaying = False
        self.records_logged = 0
        self.snapshots_written = 0
        self.records_replayed = 0
        self.records_skipped = 0
        self.replay_truncated = 0
        self.replay_quarantined = 0
        self.recovered = False
        self.recovery_seconds: float | None = None
        #: Forensics of the last quarantined snapshot (see
        #: :meth:`_quarantine_snapshot`), or None.
        self.last_quarantine_record: dict | None = None

    # -- The write-ahead log -------------------------------------------------

    def _wal(self):
        if self._wal_file is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._wal_file = open(self.wal_path, "ab")
        return self._wal_file

    def _standby_wal(self):
        if self._standby_wal_file is None:
            self.standby_root.mkdir(parents=True, exist_ok=True)
            self._standby_wal_file = open(self.standby_wal_path, "ab")
        return self._standby_wal_file

    def _log(self, record: dict) -> None:
        if self.replaying:
            return
        self.wal_seq += 1
        record["seq"] = self.wal_seq
        line = json.dumps(record, separators=(",", ":"),
                          sort_keys=True).encode("utf-8") + b"\n"
        handle = self._wal()
        handle.write(line)
        # Flush to the OS so a SIGKILLed worker loses nothing it
        # acknowledged as applied; surviving an OS crash would need an
        # fsync here, which the service tier does not promise.
        handle.flush()
        self.records_logged += 1
        if self.standby_root is not None:
            self._mirror(line, record.get("tenant"))

    def _mirror(self, line: bytes, tenant: str | None) -> None:
        """Append one WAL line to the standby replica, best-effort.

        The standby is a safety net, never a dependency: a dead replica
        link (an ``OSError``, or a ``raise``-mode ``service.standby``
        spec) is counted and the primary continues untouched.
        """
        try:
            mirrored = faults.fire("service.standby", key=tenant,
                                   data=line)
            handle = self._standby_wal()
            handle.write(mirrored)
            handle.flush()
        except (OSError, faults.InjectedFault):
            self.standby_errors += 1
            return
        self.standby_records += 1

    def log_attach(self, name: str, block_sizes, quota,
                   block_digests=None) -> None:
        record = {
            "type": "attach",
            "tenant": name,
            "block_sizes": [int(size) for size in block_sizes],
            "quota_bytes": quota.quota_bytes,
            "weight": quota.weight,
        }
        if block_digests is not None:
            # Replay must rebuild the identical digest -> gid mapping,
            # so client digests are part of the durable attach record.
            # Private entries need none: replay re-allocates them in
            # the same order.
            record["block_digests"] = [str(d) for d in block_digests]
        self._log(record)

    def log_access(self, name: str, sids, tseq: int | None) -> None:
        self._log({
            "type": "access",
            "tenant": name,
            "sids": [int(sid) for sid in sids],
            "tseq": tseq,
        })

    def log_detach(self, name: str) -> None:
        self._log({"type": "detach", "tenant": name})

    def read_wal(self) -> list[dict]:
        """Every well-formed WAL record, in order.

        Parsing stops at the first undecodable or structurally-invalid
        line: a crash can tear the final append, and nothing after a
        damaged record can be trusted to be in apply order.
        """
        try:
            raw = self.wal_path.read_bytes()
        except FileNotFoundError:
            return []
        records: list[dict] = []
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if (not isinstance(record, dict)
                        or record.get("type") not in _RECORD_TYPES
                        or not isinstance(record.get("seq"), int)):
                    raise ValueError("malformed WAL record")
            except Exception:
                self.replay_truncated += 1
                break
            records.append(record)
        return records

    # -- Snapshots -----------------------------------------------------------

    def snapshot_due(self, total_accesses: int) -> bool:
        if self.replaying:
            return False
        return (total_accesses - self._accesses_at_snapshot
                >= self.snapshot_interval)

    def write_snapshot(self, state: dict, total_accesses: int) -> bool:
        """Persist *state* atomically; True when the blob was written
        *and verified*.

        The WAL is only rotated after a round-trip verification: the
        stored blob is loaded back, unpickled, and its configuration
        fingerprint re-checked.  A blob that fails verification is
        quarantined and the WAL keeps every record, so the worst a
        torn snapshot write costs is replay time, never data.  On
        success the snapshot is replicated to the standby and the WAL
        rotated down to exactly the suffix the snapshot does not cover
        (normally empty), with the rotation mirrored to the standby.
        """
        state = dict(state)
        state["wal_seq"] = self.wal_seq
        try:
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            warnings.warn(
                f"arena snapshot could not be pickled ({exc!r}); "
                f"continuing on the write-ahead log alone",
                RuntimeWarning, stacklevel=2,
            )
            return False
        payload = faults.fire("service.snapshot", key="store", data=payload)
        if self.store.store_blob(SNAPSHOT_BLOB, payload) is None:
            return False
        if not self._verify_snapshot(state):
            return False
        self.snapshot_seq = self.wal_seq
        self._accesses_at_snapshot = total_accesses
        self.snapshots_written += 1
        if self.standby_store is not None:
            stored = self.store.load_blob(SNAPSHOT_BLOB)
            if (stored is not None and self.standby_store.store_blob(
                    SNAPSHOT_BLOB, stored) is not None):
                self.standby_snapshots += 1
            else:
                self.standby_errors += 1
        self._truncate_wal(keep_after_seq=self.snapshot_seq)
        return True

    def _verify_snapshot(self, state: dict) -> bool:
        """Round-trip the stored blob; quarantine it on any mismatch."""
        self.snapshot_verifications += 1
        stored = self.store.load_blob(SNAPSHOT_BLOB)
        try:
            if stored is None:
                raise ValueError("snapshot blob unreadable after store")
            verified = pickle.loads(stored)
            if not isinstance(verified, dict):
                raise TypeError(
                    f"stored snapshot holds {type(verified).__name__}"
                )
            for field in ("fingerprint", "wal_seq"):
                if verified.get(field) != state.get(field):
                    raise ValueError(
                        f"stored snapshot {field} {verified.get(field)!r} "
                        f"does not match the written {state.get(field)!r}"
                    )
        except Exception as exc:
            self.snapshot_verify_failures += 1
            self.store.quarantine_blob(
                SNAPSHOT_BLOB, f"failed post-write verification ({exc})"
            )
            warnings.warn(
                f"arena snapshot failed post-write verification "
                f"({exc!r}); keeping the full write-ahead log",
                RuntimeWarning, stacklevel=2,
            )
            return False
        return True

    def _truncate_wal(self, keep_after_seq: int) -> None:
        """Rotate the WAL down to records with ``seq > keep_after_seq``.

        The retained suffix is rewritten atomically (temp file and
        replace), and the same suffix is pushed to the standby — which
        doubles as a repair: a standby whose copy diverged (torn line,
        injected corruption) is refreshed from the primary's bytes.
        """
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None
        try:
            raw = self.wal_path.read_bytes()
        except FileNotFoundError:
            raw = b""
        retained: list[bytes] = []
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                seq = record["seq"]
            except Exception:
                continue  # torn tail: never applied, never retained
            if isinstance(seq, int) and seq > keep_after_seq:
                retained.append(line + b"\n")
        suffix = b"".join(retained)
        self._rewrite_wal(self.wal_path, suffix)
        self.wal_rotations += 1
        if self.standby_root is not None:
            if self._standby_wal_file is not None:
                self._standby_wal_file.close()
                self._standby_wal_file = None
            try:
                self.standby_root.mkdir(parents=True, exist_ok=True)
                self._rewrite_wal(self.standby_wal_path, suffix)
            except OSError:
                self.standby_errors += 1

    @staticmethod
    def _rewrite_wal(path: Path, payload: bytes) -> None:
        if not payload:
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            return
        temp = path.with_suffix(".tmp")
        temp.write_bytes(payload)
        temp.replace(path)

    def load_snapshot(self, expected_fingerprint: dict) -> dict | None:
        """The latest snapshot state, or None (quarantining bad blobs).

        A snapshot that cannot be unpickled, has the wrong shape, or
        was taken under a different configuration fingerprint is moved
        into quarantine for post-mortem inspection and reported absent —
        recovery then proceeds from the write-ahead log alone.  The
        quarantine carries the full forensics: expected vs actual
        fingerprints and their digests (actual ``None`` when the blob
        would not even unpickle), both in the quarantine reason and in
        a JSON sidecar next to the quarantined blob.
        """
        payload = self.store.load_blob(SNAPSHOT_BLOB)
        if payload is None:
            return None
        actual_fingerprint: dict | None = None
        try:
            payload = faults.fire("service.snapshot", key="load",
                                  data=payload)
            state = pickle.loads(payload)
            if not isinstance(state, dict) or "by_slot" not in state:
                raise TypeError(
                    f"snapshot holds {type(state).__name__}, expected an "
                    f"arena state dict"
                )
            actual_fingerprint = state.get("fingerprint")
            if actual_fingerprint != expected_fingerprint:
                raise ValueError(
                    f"snapshot fingerprint {actual_fingerprint} does "
                    f"not match this worker's {expected_fingerprint}"
                )
        except Exception as exc:
            self._quarantine_snapshot(payload, exc, expected_fingerprint,
                                      actual_fingerprint)
            return None
        return state

    def _quarantine_snapshot(self, payload: bytes, exc: Exception,
                             expected_fingerprint: dict,
                             actual_fingerprint: dict | None) -> None:
        """Quarantine the snapshot blob with mismatch forensics."""
        expected_digest = fingerprint_digest(expected_fingerprint)
        actual_digest = fingerprint_digest(actual_fingerprint)
        self.last_quarantine_record = {
            "blob": SNAPSHOT_BLOB,
            "reason": str(exc),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "expected_fingerprint": expected_fingerprint,
            "expected_digest": expected_digest,
            "actual_fingerprint": actual_fingerprint,
            "actual_digest": actual_digest,
        }
        self.store.quarantine_blob(
            SNAPSHOT_BLOB,
            f"corrupt ({exc}) [expected fingerprint {expected_digest}, "
            f"actual {actual_digest}]",
        )
        record_path = self.root / QUARANTINE_DIR / QUARANTINE_RECORD
        try:
            record_path.parent.mkdir(parents=True, exist_ok=True)
            record_path.write_text(json.dumps(
                self.last_quarantine_record, indent=2, sort_keys=True,
                default=str,
            ))
        except OSError:  # pragma: no cover - forensics are best-effort
            pass

    # -- Standby failover ----------------------------------------------------

    def has_primary_artifacts(self) -> bool:
        """Does the primary root hold anything recovery could use?"""
        if self.store.load_blob(SNAPSHOT_BLOB) is not None:
            return True
        return self.wal_path.exists()

    def promote_standby(self) -> bool:
        """Copy the standby replica's artifacts over the primary root.

        The failover path for a dead primary disk (or a quarantined
        primary snapshot): the standby snapshot is copied into the
        primary store, and the standby WAL is copied over the primary
        WAL when the primary has none of its own.  Returns True when
        anything was promoted.  The promoted artifacts then flow
        through the ordinary recovery guards — fingerprint check,
        torn-tail detection, quarantine — so a corrupt standby degrades
        instead of crashing the worker.
        """
        if self.standby_store is None:
            return False
        promoted = False
        blob = self.standby_store.load_blob(SNAPSHOT_BLOB)
        if blob is not None:
            if self.store.store_blob(SNAPSHOT_BLOB, blob) is not None:
                promoted = True
        if not self.wal_path.exists():
            try:
                raw = self.standby_wal_path.read_bytes()
            except (FileNotFoundError, OSError):
                raw = None
            if raw is not None:
                try:
                    self.root.mkdir(parents=True, exist_ok=True)
                    self.wal_path.write_bytes(raw)
                    promoted = True
                except OSError:
                    self.standby_errors += 1
        self.standby_promoted = self.standby_promoted or promoted
        return promoted

    def close(self) -> None:
        if self._wal_file is not None:
            self._wal_file.close()
            self._wal_file = None
        if self._standby_wal_file is not None:
            self._standby_wal_file.close()
            self._standby_wal_file = None

    def to_dict(self) -> dict:
        record = {
            "root": str(self.root),
            "snapshot_interval": self.snapshot_interval,
            "wal_seq": self.wal_seq,
            "snapshot_seq": self.snapshot_seq,
            "records_logged": self.records_logged,
            "snapshots_written": self.snapshots_written,
            "snapshot_verifications": self.snapshot_verifications,
            "snapshot_verify_failures": self.snapshot_verify_failures,
            "wal_rotations": self.wal_rotations,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "replay_truncated": self.replay_truncated,
            "replay_quarantined": self.replay_quarantined,
            "recovered": self.recovered,
            "recovery_seconds": self.recovery_seconds,
        }
        if self.standby_root is not None:
            record["standby"] = {
                "root": str(self.standby_root),
                "records": self.standby_records,
                "snapshots": self.standby_snapshots,
                "errors": self.standby_errors,
                "promoted": self.standby_promoted,
            }
        return record


def recover_arena(
    persister: ArenaPersister,
    *,
    policy: str,
    capacity_bytes: int,
    max_block_bytes: int,
    pressure_threshold: float | None = None,
    reclaim_fraction: float = 0.85,
    check_level: str | None = None,
    check_context: dict | None = None,
    sharing: bool = False,
):
    """Build a worker's arena from snapshot + WAL replay (or fresh).

    Returns ``(arena, report)``.  The arena is always usable: a missing
    or quarantined snapshot degrades to WAL-only replay, a damaged WAL
    record stops replay there (the remainder is quarantined with the
    log file), and an empty directory yields a fresh arena.
    """
    from repro.service.tenancy import (
        SharedArena,
        TenantQuota,
        arena_fingerprint,
    )

    started = time.monotonic()
    fresh_policy = policy_from_spec(policy)
    arena_kwargs = dict(
        max_block_bytes=max_block_bytes,
        pressure_threshold=pressure_threshold,
        reclaim_fraction=reclaim_fraction,
        check_level=check_level,
        check_context=check_context,
        persister=persister,
        sharing=sharing,
    )
    expected = arena_fingerprint(fresh_policy.name, capacity_bytes,
                                 max_block_bytes, sharing)
    state = persister.load_snapshot(expected)
    if state is None and persister.standby_root is not None:
        # The failover decision: promote the standby only when the
        # primary is genuinely unusable — its snapshot was quarantined
        # (corrupt / wrong fingerprint) or the whole directory is empty
        # or gone.  A primary that merely lacks a snapshot but still
        # has its WAL recovers from the WAL alone, as before.
        quarantined = persister.last_quarantine_record is not None
        if quarantined or not persister.has_primary_artifacts():
            if persister.promote_standby():
                state = persister.load_snapshot(expected)
    if state is not None:
        arena = SharedArena(state["policy_object"], capacity_bytes,
                            restore_state=state, **arena_kwargs)
        snapshot_seq = int(state.get("wal_seq", 0))
    else:
        arena = SharedArena(fresh_policy, capacity_bytes, **arena_kwargs)
        snapshot_seq = 0
    persister.snapshot_seq = snapshot_seq
    persister._accesses_at_snapshot = arena.total_accesses

    max_seq = snapshot_seq
    persister.replaying = True
    try:
        for record in persister.read_wal():
            seq = record["seq"]
            if seq <= snapshot_seq:
                persister.records_skipped += 1
                continue
            try:
                faults.fire("service.replay", key=record.get("tenant"))
                _apply_record(arena, record, TenantQuota)
            except Exception as exc:
                # Nothing after a record that will not apply can be
                # trusted; keep the state built so far and move the log
                # aside for post-mortem inspection.
                persister.replay_quarantined += 1
                persister.store.quarantine_blob(
                    WAL_NAME, f"unreplayable record seq={seq} ({exc})"
                )
                warnings.warn(
                    f"arena WAL replay stopped at record seq={seq} "
                    f"({exc!r}); the remaining log was quarantined",
                    RuntimeWarning, stacklevel=2,
                )
                break
            persister.records_replayed += 1
            max_seq = seq
    finally:
        persister.replaying = False
    persister.wal_seq = max(max_seq, persister.wal_seq)
    persister.recovered = state is not None or persister.records_replayed > 0
    persister.recovery_seconds = time.monotonic() - started
    report = {
        "recovered": persister.recovered,
        "snapshot_loaded": state is not None,
        "standby_promoted": persister.standby_promoted,
        "records_replayed": persister.records_replayed,
        "records_skipped": persister.records_skipped,
        "replay_truncated": persister.replay_truncated,
        "replay_quarantined": persister.replay_quarantined,
        "recovery_seconds": persister.recovery_seconds,
        "tenants": sorted(t.name for t in arena.tenants()
                          if not t.detached),
    }
    return arena, report


def _apply_record(arena, record: dict, quota_cls) -> None:
    """Re-apply one WAL record to the recovering arena."""
    kind = record["type"]
    tenant = record["tenant"]
    if kind == "attach":
        if not arena.has_tenant(tenant):
            arena.attach(
                tenant, record["block_sizes"],
                quota_cls(quota_bytes=record["quota_bytes"],
                          weight=record["weight"]),
                block_digests=record.get("block_digests"),
            )
    elif kind == "access":
        arena.access_many(tenant, record["sids"], tseq=record.get("tseq"))
    elif kind == "detach":
        if arena.has_tenant(tenant):
            arena.detach(tenant)
