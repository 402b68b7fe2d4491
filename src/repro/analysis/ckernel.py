"""ctypes loader and marshalling for the one-pass C fast path.

The C kernel (``_onepass.c``) has two entry points over the same
marshalled trace and CSR links.  ``one_pass`` simulates the same ladder
geometries as the generated-Python runner in
:mod:`repro.analysis.kernel` and returns the same integer counters,
which equal those of replaying each geometry through
``CodeCacheSimulator``; it keeps no floating point, because the
overheads of Equations 2-4 are priced from the counters by the stats
records the caller builds.  ``priority_pass`` simulates one
priority-function cell, scoring victims with a stack VM over the
expression's postfix program (:func:`repro.search.expr.compile_program`)
in IEEE doubles, the same arithmetic as
:func:`repro.search.expr.evaluate`; ``vm_score`` exports the VM itself.

This module compiles the kernel on first use with the system C compiler
(``gcc`` by default, override with ``REPRO_KERNEL_CC``), caches the
shared object in the system temp directory keyed by the source and the
whole compile command, and falls back cleanly: every entry point
degrades to ``None``/``False`` when no compiler is available, and
:func:`repro.analysis.kernel.one_pass_grid` then uses the pure-Python
engine (priority specs then replay, see
:meth:`repro.analysis.kernel.KernelConfig.from_spec`).
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
_EMPTY_U8 = np.zeros(1, dtype=np.uint8)


#: Flags and libraries of every build.  The expression VM's doubles
#: must not be contracted into fused multiply-adds, and libm supplies
#: ``log1p``.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LIBS = ("-lm",)


def _so_path(source: bytes, compiler: str) -> Path:
    """Where the build of *source* by *compiler* lives.  The key covers
    the whole compile command, so a changed compiler or flag builds
    afresh instead of loading an object built another way."""
    recipe = "\0".join((compiler, *_CFLAGS, *_LIBS)).encode()
    digest = hashlib.sha256(source + b"\0" + recipe).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    return (Path(tempfile.gettempdir())
            / f"repro-onepass-{digest}-{uid}.so")


def _compile(compiler: str, source_path: Path, so_path: Path) -> None:
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(so_path.parent))
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, str(source_path), *_LIBS],
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
    lib.priority_pass.restype = c_int
    lib.priority_pass.argtypes = [
        c_i64, p,                 # n_acc, trace
        c_int, p,                 # n_blocks, sizes
        p, p,                     # in_deg, out_deg
        c_int,                    # track_links
        p, p, p, p, p,            # in_idx, in_dat, on_idx, on_dat, sf
        c_i64,                    # cap
        c_int, p, p, c_int,       # n_code, code, imm, depth
        p,                        # out
    ]
    lib.vm_score.restype = ctypes.c_double
    lib.vm_score.argtypes = [
        c_int, p, p,              # n_code, code, imm
        p, p,                     # feat, stack
    ]
    return lib


def load() -> ctypes.CDLL | None:
    """Compile (once per source and compile command) and load the C
    kernel, or return ``None`` with the failure recorded in
    :func:`load_error`."""
    global _lib, _lib_error, _lib_loaded
    if _lib_loaded:
        return _lib
    _lib_loaded = True
    try:
        compiler = os.environ.get("REPRO_KERNEL_CC", "gcc")
        so_path = _so_path(_SOURCE.read_bytes(), compiler)
        if not so_path.exists():
            _compile(compiler, _SOURCE, so_path)
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


def _require() -> ctypes.CDLL:
    lib = load()
    if lib is None:
        raise RuntimeError(f"C kernel engine unavailable: {_lib_error}")
    return lib


def _trace_array(population, trace) -> np.ndarray:
    """The trace as dense int32 block indices.

    An id outside the population raises ``KeyError`` with the first
    such id, as replay and the Python engine do: the C loops index
    their per-block arrays with these values unchecked.
    """
    ids = np.asarray(trace)
    if not ids.size:
        return np.zeros(0, dtype=np.int32)
    remap = population.remap
    if remap is None:
        limit = population.count
    else:
        data = population.c_data
        lut = data.get("lut")
        if lut is None:
            lut = np.full(max(remap) + 1, -1, dtype=np.int32)
            for sid, index in remap.items():
                lut[sid] = index
            data["lut"] = lut
        limit = len(lut)
    if ids.min() < 0 or ids.max() >= limit:
        bad = (ids < 0) | (ids >= limit)
        raise KeyError(int(ids[bad.argmax()]))
    if remap is None:
        return np.ascontiguousarray(ids, dtype=np.int32)
    dense = lut[ids]
    if dense.min() < 0:
        raise KeyError(int(ids[(dense < 0).argmax()]))
    return dense


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
    trace_arr = _trace_array(population, trace)
    n_geoms = len(kinds)
    kind_codes = np.ascontiguousarray(
        [KIND_CODES[kind] for kind in kinds], dtype=np.int32)
    caps_arr = np.ascontiguousarray(caps, dtype=np.int64)
    ucaps_arr = np.ascontiguousarray(ucaps, dtype=np.int64)
    ucounts_arr = np.ascontiguousarray(ucounts, dtype=np.int32)
    out = np.zeros(n_geoms * len(_OUT_FIELDS), dtype=np.int64)
    status = lib.one_pass(
        len(trace_arr), _ptr(trace_arr),
        population.count, _ptr(population.sizes),
        1 if track_links else 0,
        *_link_args(population, track_links),
        n_geoms, _ptr(kind_codes), _ptr(caps_arr), _ptr(ucaps_arr),
        _ptr(ucounts_arr),
        _ptr(out),
    )
    if status != 0:
        return None
    return _counters(out.reshape(n_geoms, len(_OUT_FIELDS)).tolist())


def run_priority(population, trace, cells, track_links):
    """Run priority-function cells over one trace.

    *cells* are ``(capacity, program)`` pairs, each program a
    :class:`repro.search.expr.Program`; every cell is one C call over
    the same marshalled trace and links.  Returns one counter dict per
    cell, like :func:`run_geometries`.  There is no Python engine to
    fall back to, so an unavailable kernel or a failing call raises
    ``RuntimeError``.
    """
    lib = _require()
    trace_arr = _trace_array(population, trace)
    links = _link_args(population, track_links)
    compiled: dict = {}
    rows = []
    for capacity, program in cells:
        arrays = compiled.get(program)
        if arrays is None:
            arrays = compiled[program] = _program_arrays(program)
        code, imm = arrays
        out = np.zeros(len(_OUT_FIELDS), dtype=np.int64)
        status = lib.priority_pass(
            len(trace_arr), _ptr(trace_arr),
            population.count, _ptr(population.sizes),
            _ptr(population.in_degree), _ptr(population.out_degree),
            1 if track_links else 0,
            *links,
            capacity,
            len(code), _ptr(code), _ptr(imm), program.stack_depth,
            _ptr(out),
        )
        if status != 0:
            raise RuntimeError(
                f"C priority kernel failed with status {status}")
        rows.append(out.tolist())
    return _counters(rows)


def score(program, features) -> float:
    """Score one feature vector (values in ``FEATURES`` order) with the
    kernel's VM — the function ``priority_pass`` scores victims with."""
    from repro.search.expr import FEATURES
    lib = _require()
    code, imm = _program_arrays(program)
    feat = np.ascontiguousarray(features, dtype=np.float64)
    if feat.shape != (len(FEATURES),):
        raise ValueError(f"expected {len(FEATURES)} feature values in "
                         f"FEATURES order, got shape {feat.shape}")
    stack = np.zeros(program.stack_depth, dtype=np.float64)
    return lib.vm_score(len(code), _ptr(code), _ptr(imm), _ptr(feat),
                        _ptr(stack))


def _program_arrays(program):
    return (np.ascontiguousarray(program.code, dtype=np.int32),
            np.ascontiguousarray(program.imm, dtype=np.float64))


def _link_args(population, track_links):
    """The CSR link and self-loop arguments both entry points take."""
    if not track_links:
        return (_ptr(_EMPTY_I32),) * 4 + (_ptr(_EMPTY_U8),)
    return tuple(_ptr(getattr(population, name)) for name in
                 ("in_idx", "in_dat", "on_idx", "on_dat", "self_flags"))


def _counters(rows):
    """Counter rows as stats-field dicts, the peak live-link count
    scaled to bytes."""
    for row in rows:
        row[-1] *= BACKPOINTER_ENTRY_BYTES
    return [dict(zip(_OUT_FIELDS, row)) for row in rows]
