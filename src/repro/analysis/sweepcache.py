"""Persistent on-disk cache for sweep results.

A full granularity x pressure sweep is minutes of CPU at scale 1.0 and
is recomputed from nothing but seeds, so its results are a pure function
of (workload specs, policy ladder, pressures, overhead model, simulator
version).  This module content-addresses that function: the key is a
SHA-256 over a canonical JSON encoding of every input, entries are
pickled :class:`~repro.analysis.sweep.SweepResult` grids written
atomically (temp file + ``os.replace``), and a JSON sidecar per entry
records provenance and a best-effort hit counter for the CLI's
``cache-stats`` command.

The cache is hardened against dirty state and bad disks:

* An entry that exists but will not unpickle is **quarantined** — moved
  into a ``quarantine/`` subdirectory for inspection — and treated as a
  miss, instead of being silently swallowed (or worse, served).
* A store round-trips its pickle in memory before the atomic rename,
  so a grid that would not load back is never published.
* A store that fails for environmental reasons (disk full, permissions)
  warns once and lets the sweep continue; caching is an optimization,
  never a correctness dependency.
* The process-level counters behind ``cache-stats`` track quarantines,
  store failures, and sweep-task retries alongside hits/misses/stores.

The cache lives in ``~/.cache/repro-sweeps/`` unless
``REPRO_SWEEP_CACHE_DIR`` points elsewhere; a sweep run with
:attr:`SweepOptions.use_cache <repro.analysis.sweep.SweepOptions.use_cache>`
off (``--no-cache``, or ``REPRO_SWEEP_CACHE=0``, as the tests set to
stay hermetic) neither reads nor writes it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro import faults
from repro.core.overhead import OverheadModel
from repro.workloads.registry import BenchmarkSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.sweep import SweepResult

#: Simulator/workload semantics version.  Bump whenever a code change
#: alters what a sweep produces for the same inputs; old entries then
#: miss instead of silently serving stale numbers.  "2" adds the
#: fault-tolerance report field to SweepResult; "3" stores the
#: overheads as the records' model instead of accumulated floats.
CACHE_VERSION = "3"

ENV_CACHE_DIR = "REPRO_SWEEP_CACHE_DIR"

#: Subdirectory (under the cache dir) holding quarantined entries.
QUARANTINE_DIR = "quarantine"

_COUNTERS = {
    "hits": 0,
    "misses": 0,
    "stores": 0,
    "store_failures": 0,
    "quarantines": 0,
    "retries": 0,
}


def cache_dir() -> Path:
    """The cache directory (not created until the first store)."""
    override = os.environ.get(ENV_CACHE_DIR, "").strip()
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-sweeps"


def quarantine_dir() -> Path:
    """Where corrupt entries are moved for post-mortem inspection."""
    return cache_dir() / QUARANTINE_DIR


def model_token(model: OverheadModel) -> list[float]:
    """The overhead model's identity for content-addressed keys."""
    return [
        model.miss.slope, model.miss.intercept,
        model.eviction.slope, model.eviction.intercept,
        model.unlink.slope, model.unlink.intercept,
    ]


def sweep_key(
    specs: Sequence[BenchmarkSpec],
    scale: float,
    trace_accesses: int | None,
    unit_counts: Sequence[int],
    include_fine: bool,
    pressures: Sequence[float],
    overhead_model: OverheadModel,
    track_links: bool,
) -> str:
    """Content hash of everything that determines a sweep's output."""
    payload = {
        "version": CACHE_VERSION,
        "workloads": [list(spec.cache_token()) for spec in specs],
        "scale": float(scale),
        "trace_accesses": trace_accesses,
        "unit_counts": [int(count) for count in unit_counts],
        "include_fine": bool(include_fine),
        "pressures": [float(pressure) for pressure in pressures],
        "overhead_model": model_token(overhead_model),
        "track_links": bool(track_links),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _data_path(key: str) -> Path:
    return cache_dir() / f"{key}.pkl"


def _meta_path(key: str) -> Path:
    return cache_dir() / f"{key}.json"


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


def _quarantine_entry(key: str, reason: str) -> None:
    """Move a corrupt entry (data + sidecar) into ``quarantine/``."""
    destination = quarantine_dir()
    moved = False
    for source in (_data_path(key), _meta_path(key)):
        try:
            destination.mkdir(parents=True, exist_ok=True)
            os.replace(source, destination / source.name)
            moved = True
        except OSError:
            try:
                source.unlink()
            except OSError:
                pass
    _COUNTERS["quarantines"] += 1
    if moved:
        warnings.warn(
            f"quarantined {reason} sweep-cache entry {key[:16]}… "
            f"into {destination}",
            RuntimeWarning,
            stacklevel=3,
        )


def load(key: str) -> "SweepResult | None":
    """Return the cached grid for *key*, or None on a miss.

    Unreadable entries (corrupt file, incompatible pickle from an older
    code state) are quarantined and treated as misses.
    """
    path = _data_path(key)
    try:
        payload = path.read_bytes()
    except FileNotFoundError:
        _COUNTERS["misses"] += 1
        return None
    except OSError:
        _COUNTERS["misses"] += 1
        _quarantine_entry(key, "unreadable")
        return None
    try:
        payload = faults.fire("cache.load", key=key, data=payload)
        result = pickle.loads(payload)
    except Exception:
        _COUNTERS["misses"] += 1
        _quarantine_entry(key, "corrupt")
        return None
    _COUNTERS["hits"] += 1
    _bump_meta_hits(key)
    return result


def store(key: str, result: "SweepResult",
          extra_meta: dict | None = None) -> Path | None:
    """Persist *result* under *key*; returns the data path.

    The pickled grid is verified to round-trip in memory before the
    atomic rename publishes it.  Environmental failures (disk full,
    permissions, an unpicklable grid) warn once and return None — the
    sweep that produced *result* already has its answer, so a failed
    store must never crash it.
    """
    path = _data_path(key)
    try:
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        payload = faults.fire("cache.store", key=key, data=payload)
        pickle.loads(payload)  # verify the bytes round-trip before publish
        cache_dir().mkdir(parents=True, exist_ok=True)
        atomic_write(path, payload)
    except Exception as exc:
        _COUNTERS["store_failures"] += 1
        warnings.warn(
            f"sweep cache store for {key[:16]}… failed ({exc!r}); "
            "continuing without caching this sweep",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    meta = {
        "key": key,
        "version": CACHE_VERSION,
        "created": time.time(),
        "benchmarks": list(result.benchmark_names),
        "policies": list(result.policy_names),
        "pressures": list(result.pressures),
        "grid_points": len(result.stats),
        "elapsed_seconds": result.elapsed_seconds,
        "hits": 0,
    }
    if extra_meta:
        meta.update(extra_meta)
    try:
        atomic_write(_meta_path(key), json.dumps(meta, indent=2).encode("utf-8"))
    except OSError:
        pass  # the sidecar is provenance only; the entry itself is live
    _COUNTERS["stores"] += 1
    return path


def note_retry() -> None:
    """Record one sweep-task retry (surfaced by ``cache-stats``)."""
    _COUNTERS["retries"] += 1


def note_quarantine() -> None:
    """Record a quarantine performed by a collaborator (checkpoints)."""
    _COUNTERS["quarantines"] += 1


def _bump_meta_hits(key: str) -> None:
    """Best-effort persistent hit counter (never fails a lookup)."""
    path = _meta_path(key)
    try:
        meta = json.loads(path.read_text())
        meta["hits"] = int(meta.get("hits", 0)) + 1
        atomic_write(path, json.dumps(meta, indent=2).encode("utf-8"))
    except Exception:
        pass


@dataclass(frozen=True)
class CacheEntry:
    """One stored sweep, as shown by ``cache-stats``."""

    key: str
    data_bytes: int
    created: float | None
    hits: int
    benchmarks: int
    policies: int
    pressures: int
    elapsed_seconds: float | None


def entries() -> list[CacheEntry]:
    """All readable entries, newest first."""
    directory = cache_dir()
    if not directory.is_dir():
        return []
    found = []
    for path in sorted(directory.glob("*.pkl")):
        key = path.stem
        try:
            size = path.stat().st_size
        except OSError:
            continue
        meta: dict = {}
        try:
            meta = json.loads(_meta_path(key).read_text())
        except Exception:
            pass
        found.append(CacheEntry(
            key=key,
            data_bytes=size,
            created=meta.get("created"),
            hits=int(meta.get("hits", 0)),
            benchmarks=len(meta.get("benchmarks", ())),
            policies=len(meta.get("policies", ())),
            pressures=len(meta.get("pressures", ())),
            elapsed_seconds=meta.get("elapsed_seconds"),
        ))
    found.sort(key=lambda entry: entry.created or 0.0, reverse=True)
    return found


def quarantined_entries() -> list[Path]:
    """Data files currently sitting in the quarantine directory."""
    directory = quarantine_dir()
    if not directory.is_dir():
        return []
    return sorted(directory.glob("*.pkl"))


def clear() -> int:
    """Delete every entry (quarantined ones too); returns sweeps removed."""
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    removed = 0
    for path in directory.glob("*.pkl"):
        try:
            path.unlink()
            removed += 1
        except OSError:
            continue
        try:
            _meta_path(path.stem).unlink()
        except OSError:
            pass
    for path in quarantine_dir().glob("*"):
        try:
            path.unlink()
        except OSError:
            pass
    return removed


def counters() -> dict[str, int]:
    """This process's hit/miss/store/fault counts (a copy)."""
    return dict(_COUNTERS)


def reset_counters() -> None:
    """Zero the process-level counters (tests use this)."""
    for name in _COUNTERS:
        _COUNTERS[name] = 0
