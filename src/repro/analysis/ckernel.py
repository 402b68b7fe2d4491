"""ctypes loader and marshalling for the one-pass C fast path.

The C kernel (``_onepass.c``) simulates the same geometries as the
generated-Python runner in :mod:`repro.analysis.kernel` and returns the
same integer counters, which equal those of replaying each geometry
through ``CodeCacheSimulator``.  It keeps no floating point: the
overheads of Equations 2-4 are priced from the counters by the stats
records the caller builds, so C and Python agree because the accounting
is exact, not because they share a summation order.

This module compiles the kernel on first use with the system C compiler
(``gcc`` by default, override with ``REPRO_KERNEL_CC``), caches the
shared object in the system temp directory keyed by a source hash, and
falls back cleanly: every entry point degrades to ``None``/``False``
when no compiler is available, and
:func:`repro.analysis.kernel.one_pass_grid` then uses the pure-Python
engine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.core.links import BACKPOINTER_ENTRY_BYTES

#: The C kernel packs residency into a 32-bit mask, one bit per
#: geometry; wider grids are split by the caller.
MAX_GEOMETRIES = 31

KIND_CODES = {"flush": 0, "unit": 1, "fifo": 2}

_SOURCE = Path(__file__).with_name("_onepass.c")

#: The counters the kernel writes per geometry, in order (``N_OUT`` in
#: the C source).  Link counters stay zero when links are untracked;
#: the last slot is the peak live-link count, scaled to bytes here.
_OUT_FIELDS = (
    "misses", "inserted_bytes", "eviction_invocations", "evicted_blocks",
    "evicted_bytes", "unlink_operations", "links_removed",
    "links_established_intra", "links_established_inter",
    "peak_backpointer_bytes",
)

_lib = None
_lib_error: str | None = None
_lib_loaded = False

_EMPTY_I32 = np.zeros(1, dtype=np.int32)


def _so_path(source: bytes) -> Path:
    digest = hashlib.sha256(source).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    return (Path(tempfile.gettempdir())
            / f"repro-onepass-{digest}-{uid}.so")


def _compile(source_path: Path, so_path: Path) -> None:
    compiler = os.environ.get("REPRO_KERNEL_CC", "gcc")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(so_path.parent))
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", tmp,
             str(source_path)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    c_i64 = ctypes.c_longlong
    c_int = ctypes.c_int
    p = ctypes.c_void_p
    lib.one_pass.restype = c_int
    lib.one_pass.argtypes = [
        c_i64, p,                 # n_acc, trace
        c_int, p,                 # n_blocks, sizes
        c_int,                    # track_links
        p, p, p, p, p,            # in_idx, in_dat, on_idx, on_dat, sf
        c_int, p, p, p, p,        # n_geoms, kinds, caps, ucaps, ucounts
        p,                        # out
    ]
    return lib


def load() -> ctypes.CDLL | None:
    """Compile (once per source hash) and load the C kernel, or return
    ``None`` with the failure recorded in :func:`load_error`."""
    global _lib, _lib_error, _lib_loaded
    if _lib_loaded:
        return _lib
    _lib_loaded = True
    try:
        source = _SOURCE.read_bytes()
        so_path = _so_path(source)
        if not so_path.exists():
            _compile(_SOURCE, so_path)
        _lib = _configure(ctypes.CDLL(str(so_path)))
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        _lib = None
        _lib_error = f"{type(exc).__name__}: {exc}"
    return _lib


def load_error() -> str | None:
    """Why the C kernel is unavailable (``None`` when it loaded)."""
    load()
    return _lib_error


def available() -> bool:
    return load() is not None


def _population_arrays(population, track_links):
    """Contiguous C views of the population, memoized per population."""
    data = population.c_data
    if "sizes" not in data:
        data["sizes"] = np.ascontiguousarray(population.sizes,
                                             dtype=np.int64)
        data["sf"] = np.zeros(1, dtype=np.uint8)
    if track_links and "in_idx" not in data:
        def csr(lists):
            idx = np.zeros(population.count + 1, dtype=np.int32)
            idx[1:] = np.cumsum([len(t) for t in lists], dtype=np.int64)
            flat = [t for row in lists for t in row]
            dat = (np.ascontiguousarray(flat, dtype=np.int32)
                   if flat else np.zeros(1, dtype=np.int32))
            return idx, dat
        data["in_idx"], data["in_dat"] = csr(population.in_lists)
        data["on_idx"], data["on_dat"] = csr(population.out_nonself)
        data["sf"] = np.ascontiguousarray(population.self_flags,
                                          dtype=np.uint8)
    return data


def _trace_array(population, trace) -> np.ndarray:
    arr = np.ascontiguousarray(trace, dtype=np.int32)
    if population.remap is not None:
        data = population.c_data
        lut = data.get("lut")
        if lut is None:
            high = max(population.remap) + 1
            lut = np.zeros(high, dtype=np.int32)
            for sid, index in population.remap.items():
                lut[sid] = index
            data["lut"] = lut
        arr = np.ascontiguousarray(lut[arr], dtype=np.int32)
    return arr


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def run_geometries(population, trace, kinds, caps, ucaps, ucounts,
                   track_links):
    """Run the C kernel over one geometry set.

    Returns a list of per-geometry counter dicts keyed by
    :class:`~repro.core.metrics.SimulationStats` field names, or
    ``None`` when the C path is unavailable or refused the shape — the
    caller then falls back to the Python engine.
    """
    lib = load()
    if lib is None or len(kinds) > MAX_GEOMETRIES:
        return None
    data = _population_arrays(population, track_links)
    trace_arr = _trace_array(population, trace)
    n_geoms = len(kinds)
    kind_codes = np.ascontiguousarray(
        [KIND_CODES[kind] for kind in kinds], dtype=np.int32)
    caps_arr = np.ascontiguousarray(caps, dtype=np.int64)
    ucaps_arr = np.ascontiguousarray(ucaps, dtype=np.int64)
    ucounts_arr = np.ascontiguousarray(ucounts, dtype=np.int32)
    out = np.zeros(n_geoms * len(_OUT_FIELDS), dtype=np.int64)
    if track_links:
        in_idx, in_dat = data["in_idx"], data["in_dat"]
        on_idx, on_dat = data["on_idx"], data["on_dat"]
    else:
        in_idx = in_dat = on_idx = on_dat = _EMPTY_I32
    status = lib.one_pass(
        len(trace_arr), _ptr(trace_arr),
        population.count, _ptr(data["sizes"]),
        1 if track_links else 0,
        _ptr(in_idx), _ptr(in_dat), _ptr(on_idx), _ptr(on_dat),
        _ptr(data["sf"]),
        n_geoms, _ptr(kind_codes), _ptr(caps_arr), _ptr(ucaps_arr),
        _ptr(ucounts_arr),
        _ptr(out),
    )
    if status != 0:
        return None

    rows = out.reshape(n_geoms, len(_OUT_FIELDS)).tolist()
    for row in rows:
        row[-1] *= BACKPOINTER_ENTRY_BYTES  # peak live links -> bytes
    return [dict(zip(_OUT_FIELDS, row)) for row in rows]
