"""Per-task checkpoints so an interrupted sweep resumes, not restarts.

A full-suite sweep is minutes of CPU spread over ~20 independent tasks
(one benchmark slab each).  The persistent sweep cache
(:mod:`repro.analysis.sweepcache`) only helps once a *whole* grid has
finished; a crash, OOM kill, or Ctrl-C halfway through used to discard
every completed slab.  This module closes that gap: the fault-tolerant
executor streams each finished slab into a :class:`CheckpointStore` —
one atomically-written pickle per task, keyed by the task's content
hash (:func:`repro.analysis.parallel.task_key`) — and on the next run
loads whatever is present, re-simulating only the missing tasks.

Because the key covers everything that determines a slab's output
(spec identity, scale, grid parameters, overhead model, cache schema
version), stale checkpoints from a different configuration simply miss;
they can never be served for the wrong sweep.  Unreadable or corrupt
checkpoint files are *quarantined* — moved into a ``quarantine/``
subdirectory for post-mortem inspection rather than silently deleted —
and their slab is re-simulated.

The default store lives under the sweep cache directory
(``<cache_dir>/checkpoints/``) so ``REPRO_SWEEP_CACHE_DIR`` relocates
both together; a sweep run with
:attr:`SweepOptions.resume <repro.analysis.sweep.SweepOptions.resume>`
off (``--no-resume``) writes no checkpoints at all.
"""

from __future__ import annotations

import os
import pickle
import warnings
from pathlib import Path

from repro import faults
from repro.analysis import sweepcache
from repro.analysis.parallel import GridRecord, SweepTask, task_key
from repro.core.metrics import SimulationStats

#: Subdirectory (under the store root) for corrupt checkpoint files.
QUARANTINE_DIR = "quarantine"


class CheckpointStore:
    """Atomic per-task slab files under one root directory.

    The store is deliberately dumb: no index, no manifest.  Each task's
    records live in ``<root>/<task_key>.pkl``; presence of a readable
    file *is* the checkpoint.  That makes concurrent writers safe (the
    write is a temp file + ``os.replace`` of idempotent content) and
    resume logic a plain directory scan.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.quarantined = 0
        self.loaded = 0
        self.stored = 0

    @classmethod
    def default(cls) -> "CheckpointStore":
        """The store co-located with the persistent sweep cache."""
        return cls(sweepcache.cache_dir() / "checkpoints")

    def path(self, task: SweepTask) -> Path:
        return self.root / f"{task_key(task)}.pkl"

    def load(self, task: SweepTask) -> list[GridRecord] | None:
        """The checkpointed slab for *task*, or None when absent.

        A file that exists but cannot be unpickled is moved into the
        quarantine subdirectory and reported as absent, so the slab is
        re-simulated and the evidence survives for inspection.
        """
        path = self.path(task)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(path, _slab_warning(f"unreadable ({exc})",
                                                 path))
            return None
        try:
            payload = faults.fire("checkpoint.load",
                                  key=task_key(task), data=payload)
            records = pickle.loads(payload)
            _validate_records(records)
        except Exception as exc:
            self._quarantine(path, _slab_warning(f"corrupt ({exc})", path))
            return None
        self.loaded += 1
        return records

    def store(self, task: SweepTask, records: list[GridRecord]) -> Path | None:
        """Persist *records* atomically; never raises into the sweep.

        The pickle is round-tripped before the ``os.replace`` so a
        checkpoint that would not load back (corrupted in flight,
        unpicklable object smuggled in) is dropped with a warning
        instead of poisoning a future resume.
        """
        try:
            payload = pickle.dumps(records,
                                   protocol=pickle.HIGHEST_PROTOCOL)
            payload = faults.fire("checkpoint.store",
                                  key=task_key(task), data=payload)
            pickle.loads(payload)  # verify the bytes round-trip
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.path(task)
            sweepcache.atomic_write(path, payload)
        except Exception as exc:
            warnings.warn(
                f"sweep checkpoint for {task.spec.name!r} could not be "
                f"written ({exc!r}); continuing without it",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.stored += 1
        return path

    # -- Named blobs ---------------------------------------------------------
    #
    # The sweep checkpoints above are keyed by task content hash; other
    # subsystems (the service tier's arena snapshots) reuse the same
    # atomic-write and quarantine machinery through a generic named-blob
    # face.  A blob is opaque bytes — validation is the caller's job —
    # but unreadable files still get quarantined, never silently lost.

    def blob_path(self, name: str) -> Path:
        return self.root / name

    def load_blob(self, name: str) -> bytes | None:
        """The raw bytes stored under *name*, or None when absent.

        An unreadable file is quarantined and reported as absent, the
        same contract the task checkpoints honour.
        """
        path = self.blob_path(name)
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._quarantine(path, f"quarantined unreadable ({exc}): {name}")
            return None
        self.loaded += 1
        return payload

    def store_blob(self, name: str, payload: bytes) -> Path | None:
        """Atomically persist *payload* under *name*; never raises.

        Returns the written path, or None (with a warning) when the
        write failed — callers degrade to running without the blob.
        """
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            path = self.blob_path(name)
            sweepcache.atomic_write(path, payload)
        except Exception as exc:
            warnings.warn(
                f"checkpoint blob {name!r} could not be written "
                f"({exc!r}); continuing without it",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.stored += 1
        return path

    def quarantine_blob(self, name: str, reason: str) -> None:
        """Move the blob stored under *name* into quarantine (corrupt
        content detected by the caller's own validation).  The warning
        is the caller's *reason* and the blob's name."""
        path = self.blob_path(name)
        if path.exists():
            self._quarantine(path, f"quarantined {reason}: {name}")

    def _quarantine(self, path: Path, warning: str) -> None:
        """Move a bad file aside instead of silently deleting it, and
        warn with the caller's *warning* text."""
        quarantine = self.root / QUARANTINE_DIR
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / path.name)
        except OSError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - nothing else to do
                pass
        self.quarantined += 1
        sweepcache.note_quarantine()
        warnings.warn(warning, RuntimeWarning, stacklevel=3)

    def discard(self, tasks: list[SweepTask] | tuple[SweepTask, ...]) -> int:
        """Remove the checkpoints for *tasks* (after a completed sweep)."""
        removed = 0
        for task in tasks:
            try:
                self.path(task).unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def clear(self) -> int:
        """Remove every checkpoint (quarantined files included)."""
        removed = 0
        for pattern in ("*.pkl", f"{QUARANTINE_DIR}/*.pkl"):
            for path in self.root.glob(pattern):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    def entries(self) -> list[Path]:
        """Checkpoint files currently on disk (excluding quarantine)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def quarantined_entries(self) -> list[Path]:
        """Quarantined checkpoint files awaiting post-mortem inspection
        (the counterpart of :func:`repro.analysis.sweepcache.
        quarantined_entries`, surfaced by ``cache-stats``)."""
        quarantine = self.root / QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return sorted(quarantine.glob("*.pkl"))


def _slab_warning(reason: str, path: Path) -> str:
    return (f"quarantined {reason} sweep checkpoint {path.name}; "
            "its slab will be re-simulated")


def _validate_records(records) -> None:
    """Reject structurally-wrong checkpoint payloads before they poison
    a resumed grid.  A truncated-then-repadded or hand-edited file can
    unpickle into *something*; presence of a readable file is only a
    checkpoint if that something is a list of well-formed grid records.
    """
    if not isinstance(records, list):
        raise TypeError(
            f"checkpoint holds {type(records).__name__}, expected list"
        )
    for record in records:
        if not (isinstance(record, tuple) and len(record) == 4):
            raise TypeError(
                "checkpoint record is not a "
                "(benchmark, policy, pressure, stats) tuple"
            )
        benchmark, policy, pressure, stats = record
        if not (isinstance(benchmark, str) and isinstance(policy, str)
                and isinstance(pressure, (int, float))
                and isinstance(stats, SimulationStats)):
            raise TypeError("checkpoint record fields have wrong types")
