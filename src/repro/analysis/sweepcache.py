"""The on-disk store behind resumable, cached sweeps.

A sweep's grid is a pure function of (workload specs, policy specs,
pressures, overhead model, simulator version), and the executor
(:mod:`repro.analysis.parallel`) computes it one benchmark *slab* at a
time.  Each slab is kept in one :class:`Store` under :func:`cache_dir`,
keyed by the content hash of everything that determines it
(:func:`repro.analysis.parallel.task_key`).  Presence of a readable
file *is* the entry: a later sweep that needs the same slab loads it
instead of simulating, so a finished sweep is served from disk and an
interrupted one resumes with only its missing slabs left to simulate.

The store is hardened against dirty state and bad disks:

* A value is pickled and its bytes are round-tripped in memory before
  an atomic rename (temp file + ``os.replace``) publishes them, so a
  value that would not load back is never written.
* An entry that exists but will not read, unpickle or pass the caller's
  ``parse`` check is **quarantined** — moved into a ``quarantine/``
  subdirectory for inspection — and treated as a miss.
* A write that fails (disk full, permissions, an unpicklable value)
  warns and returns None; the caller already has its value, so a
  failed store never fails the run.
* One set of process counters (hits, misses, stores, store failures
  and quarantines) backs the CLI's ``cache-stats``.

The policy search and the service tier keep their own state in a
:class:`Store` at their own roots: the search its state and candidate
slabs, the service its arena snapshots through the raw-bytes blob face.

The sweep store lives in ``~/.cache/repro-sweeps/`` unless
``REPRO_SWEEP_CACHE_DIR`` points elsewhere; a sweep run with
:attr:`SweepOptions.use_cache <repro.analysis.sweep.SweepOptions.use_cache>`
off (``--no-cache``, or ``REPRO_SWEEP_CACHE=0``, as the tests set to
stay hermetic) neither reads nor writes it.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Any, Callable

from repro import faults
from repro.core.overhead import OverheadModel

#: Simulator/workload semantics version, part of every slab key.  Bump
#: whenever a code change alters what a sweep produces for the same
#: inputs; old entries then miss instead of silently serving stale
#: numbers.  "2" adds the fault-tolerance report field to SweepResult;
#: "3" stores the overheads as the records' model instead of
#: accumulated floats.
CACHE_VERSION = "3"

ENV_CACHE_DIR = "REPRO_SWEEP_CACHE_DIR"

#: Subdirectory (under a store's root) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

_COUNTERS = {
    "hits": 0,
    "misses": 0,
    "stores": 0,
    "store_failures": 0,
    "quarantines": 0,
}


def cache_dir() -> Path:
    """The sweep store's root (not created until the first store)."""
    override = os.environ.get(ENV_CACHE_DIR, "").strip()
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


def model_token(model: OverheadModel) -> list[float]:
    """The overhead model's identity for content-addressed keys."""
    return [
        model.miss.slope, model.miss.intercept,
        model.eviction.slope, model.eviction.intercept,
        model.unlink.slope, model.unlink.intercept,
    ]


def atomic_write(path: Path, payload: bytes) -> None:
    """Write *payload* so readers never observe a partial file."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Store:
    """Files under one root directory, in two faces.

    The value face (:meth:`load` / :meth:`store`) pickles any value
    under ``<root>/<key>.pkl``; its bytes pass the ``cache.load`` and
    ``cache.store`` fault points.  The blob face (:meth:`load_blob` /
    :meth:`store_blob`) keeps opaque bytes under a file name and leaves
    validation to the caller, who quarantines what it rejects with
    :meth:`quarantine_blob`.  Both faces write atomically and never
    raise into the caller; there is no index, so concurrent writers of
    the same content are safe.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, name: str) -> Path:
        return self.root / name

    def load(self, key: str,
             parse: Callable[[Any], Any] | None = None) -> Any | None:
        """The value stored under *key*, or None on a miss.

        *parse* (if given) receives the unpickled value and returns
        what the caller gets; an entry that will not read, unpickle or
        parse is quarantined and reported as a miss.
        """
        name = f"{key}.pkl"
        payload = self.load_blob(name)
        if payload is None:
            _COUNTERS["misses"] += 1
            return None
        try:
            payload = faults.fire("cache.load", key=key, data=payload)
            value = pickle.loads(payload)
            if parse is not None:
                value = parse(value)
        except Exception as exc:
            _COUNTERS["misses"] += 1
            self.quarantine_blob(name, f"corrupt ({exc!r})")
            return None
        _COUNTERS["hits"] += 1
        return value

    def store(self, key: str, value: Any) -> Path | None:
        """Pickle *value* under *key*; returns the path, or None (with
        a warning) when the bytes would not load back or the write
        failed."""
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            payload = faults.fire("cache.store", key=key, data=payload)
            pickle.loads(payload)  # publish only bytes that load back
        except Exception as exc:
            return self._store_failed(f"{key}.pkl", exc)
        return self.store_blob(f"{key}.pkl", payload)

    def load_blob(self, name: str) -> bytes | None:
        """The bytes stored under *name*, or None when absent; an
        unreadable file is quarantined and reported absent."""
        path = self.path(name)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self.quarantine_blob(name, f"unreadable ({exc})")
            return None

    def store_blob(self, name: str, payload: bytes) -> Path | None:
        """Atomically write *payload* under *name*; returns the path,
        or None (with a warning) when the write failed."""
        path = self.path(name)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write(path, payload)
        except Exception as exc:
            return self._store_failed(name, exc)
        _COUNTERS["stores"] += 1
        return path

    def _store_failed(self, name: str, exc: Exception) -> None:
        _COUNTERS["store_failures"] += 1
        warnings.warn(
            f"store of {name} under {self.root} failed ({exc!r}); "
            "continuing without it",
            RuntimeWarning,
            stacklevel=3,
        )
        return None

    def quarantine_blob(self, name: str, reason: str) -> None:
        """Move the file stored under *name* into ``quarantine/``
        instead of deleting it, and warn with *reason* and the name."""
        path = self.path(name)
        if not path.exists():
            return
        quarantine = self.root / QUARANTINE_DIR
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / name)
        except OSError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - nothing else to do
                pass
        _COUNTERS["quarantines"] += 1
        warnings.warn(f"quarantined {reason}: {name}", RuntimeWarning,
                      stacklevel=3)

    def entries(self) -> list[Path]:
        """The value files on disk (quarantine excluded)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.pkl"))

    def quarantined_entries(self) -> list[Path]:
        """Files waiting in quarantine for post-mortem inspection."""
        quarantine = self.root / QUARANTINE_DIR
        if not quarantine.is_dir():
            return []
        return sorted(path for path in quarantine.iterdir() if path.is_file())

    def clear(self) -> int:
        """Delete every value file and everything in quarantine; returns
        the number of files removed."""
        removed = 0
        for path in self.entries() + self.quarantined_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed


# -- The sweep store at cache_dir() -------------------------------------------


def default_store() -> Store:
    """The sweep store at :func:`cache_dir`."""
    return Store(cache_dir())


def load(key: str) -> Any | None:
    """The value stored under *key* in the sweep store, or None."""
    return default_store().load(key)


def store(key: str, value: Any) -> Path | None:
    """Keep *value* under *key* in the sweep store (see
    :meth:`Store.store`)."""
    return default_store().store(key, value)


def clear() -> int:
    """Empty the sweep store, quarantine included; returns files
    removed.  Other roots under it (the search's) are left alone."""
    return default_store().clear()


def counters() -> dict[str, int]:
    """This process's hit/miss/store/fault counts (a copy)."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    """Zero the process-level counters (tests use this)."""
    for name in _COUNTERS:
        _COUNTERS[name] = 0
