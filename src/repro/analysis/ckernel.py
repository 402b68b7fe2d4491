"""ctypes loader and marshalling for the one-pass C kernel.

The C kernel (``_onepass.c``) has two entry points over the same
marshalled trace and per-block neighbour rows (each block's
out-targets, then its in-sources).  ``one_pass`` simulates up to
:data:`MAX_GEOMETRIES` of the ladder geometries
:func:`repro.analysis.kernel.one_pass_grid` resolves in one traversal
and returns integer counters equal to those of replaying each geometry
through ``CodeCacheSimulator``; it keeps no floating point, because
the overheads of Equations 2-4 are priced from the counters by the
stats records the caller builds.  ``priority_pass`` simulates every
priority-function cell of one trace in one call, scoring victims with a
stack VM over each expression's postfix program
(:func:`repro.search.expr.compile_program`) in IEEE doubles, the same
arithmetic as :func:`repro.search.expr.evaluate`.  It scores the
subtrees that read only per-block features once per block, and the
rest column by column over the residents at each victim scan;
``vm_score`` exports the VM itself.

This module compiles the kernel on first use with the system C compiler
(``gcc`` by default, override with ``REPRO_KERNEL_CC``) and caches the
shared object in the system temp directory keyed by the source and the
whole compile command.  When no compiler is available :func:`load`
returns ``None``, :func:`available` is false and every runner raises
``RuntimeError``; :meth:`repro.analysis.kernel.KernelConfig.from_spec`
then admits no spec, so sweeps replay every cell.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

from repro.core.links import BACKPOINTER_ENTRY_BYTES

#: The C kernel packs residency into a 64-bit word per block, one bit
#: per geometry; the caller runs wider grids in chunks of this many.
MAX_GEOMETRIES = 64

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
        p, p, p, p,               # nb_idx, nb_split, nb_dat, sf
        c_int, p, p, p, p,        # n_geoms, kinds, caps, ucaps, ucounts
        p,                        # out
    ]
    lib.priority_pass.restype = c_int
    lib.priority_pass.argtypes = [
        c_i64, p,                 # n_acc, trace
        c_int, p,                 # n_blocks, sizes
        p, p,                     # in_deg, out_deg
        c_int,                    # track_links
        p, p, p, p,               # nb_idx, nb_split, nb_dat, sf
        c_int, p, p, p,           # n_programs, bounds, code, imm
        c_int, p, p,              # n_cells, programs, caps
        p,                        # out
    ]
    lib.vm_score.restype = ctypes.c_double
    lib.vm_score.argtypes = [
        c_int, p, p,              # n_code, code, imm
        c_i64, p, p,              # n_rows, cols, stack
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
    except Exception as exc:  # noqa: BLE001 - any failure means replay
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
    such id in trace order, as replay does: the C loops index their
    per-block arrays with these values unchecked.
    """
    ids = np.asarray(trace)
    if not ids.size:
        return np.zeros(0, dtype=np.int32)
    index_of = population.index_of
    limit = population.count if index_of is None else len(index_of)
    bad = (ids < 0) | (ids >= limit)
    if index_of is None:
        dense = ids
    else:
        dense = index_of[np.where(bad, 0, ids)]
        bad |= dense < 0
    if bad.any():
        raise KeyError(int(ids[bad.argmax()]))
    return np.ascontiguousarray(dense, dtype=np.int32)


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def run_geometries(population, trace, kinds, caps, ucaps, ucounts,
                   track_links):
    """Run the C kernel over one set of at most :data:`MAX_GEOMETRIES`
    geometries.

    Returns a list of per-geometry counter dicts keyed by
    :class:`~repro.core.metrics.SimulationStats` field names.  An
    unavailable kernel or a failing call (status -2: no geometry or
    more than :data:`MAX_GEOMETRIES`, -3: allocation failure) raises
    ``RuntimeError``.
    """
    lib = _require()
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
        raise RuntimeError(f"C one-pass kernel failed with status {status}")
    return _counters(out.reshape(n_geoms, len(_OUT_FIELDS)).tolist())


def run_priority(population, trace, cells, track_links):
    """Run a trace's priority-function cells in one C call.

    *cells* are ``(capacity, program)`` pairs, each program a
    :class:`repro.search.expr.Program`; cells that share a program
    object share its split and its per-block prelude.  Returns one
    counter dict per cell and raises like :func:`run_geometries`
    (status -2 there: a capacity below the largest block).
    """
    lib = _require()
    trace_arr = _trace_array(population, trace)
    index: dict[int, int] = {}
    programs = []
    for _capacity, program in cells:
        if index.setdefault(id(program), len(programs)) == len(programs):
            programs.append(program)
    code = np.fromiter(chain.from_iterable(p.code for p in programs),
                       dtype=np.int32)
    imm = np.fromiter(chain.from_iterable(p.imm for p in programs),
                      dtype=np.float64)
    bounds = np.cumsum([0, *(len(p.code) for p in programs)],
                       dtype=np.int32)
    of_cell = np.fromiter((index[id(program)] for _c, program in cells),
                          dtype=np.int32, count=len(cells))
    caps = np.fromiter((capacity for capacity, _p in cells),
                       dtype=np.int64, count=len(cells))
    out = np.zeros(len(cells) * len(_OUT_FIELDS), dtype=np.int64)
    status = lib.priority_pass(
        len(trace_arr), _ptr(trace_arr),
        population.count, _ptr(population.sizes),
        _ptr(population.in_degree), _ptr(population.out_degree),
        1 if track_links else 0,
        *_link_args(population, track_links),
        len(programs), _ptr(bounds), _ptr(code), _ptr(imm),
        len(cells), _ptr(of_cell), _ptr(caps),
        _ptr(out),
    )
    if status != 0:
        raise RuntimeError(f"C priority kernel failed with status {status}")
    return _counters(out.reshape(len(cells), len(_OUT_FIELDS)).tolist())


def score(program, features) -> float:
    """Score one feature vector (values in ``FEATURES`` order) with the
    kernel's VM — the function ``priority_pass`` scores victims with —
    over a single row."""
    from repro.search.expr import FEATURES
    lib = _require()
    code = np.ascontiguousarray(program.code, dtype=np.int32)
    imm = np.ascontiguousarray(program.imm, dtype=np.float64)
    feat = np.ascontiguousarray(features, dtype=np.float64)
    if feat.shape != (len(FEATURES),):
        raise ValueError(f"expected {len(FEATURES)} feature values in "
                         f"FEATURES order, got shape {feat.shape}")
    # One one-row column per feature.
    cols = feat.ctypes.data + feat.itemsize * np.arange(
        len(FEATURES), dtype=np.uintp)
    stack = np.zeros(program.stack_depth, dtype=np.float64)
    return lib.vm_score(len(code), _ptr(code), _ptr(imm), 1, _ptr(cols),
                        _ptr(stack))


def _link_args(population, track_links):
    """The neighbour-row and self-loop arguments both entry points
    take."""
    if not track_links:
        return (_ptr(_EMPTY_I32),) * 3 + (_ptr(_EMPTY_U8),)
    return tuple(_ptr(getattr(population, name)) for name in
                 ("nb_idx", "nb_split", "nb_dat", "self_flags"))


def _counters(rows):
    """Counter rows as stats-field dicts, the peak live-link count
    scaled to bytes."""
    for row in rows:
        row[-1] *= BACKPOINTER_ENTRY_BYTES
    return [dict(zip(_OUT_FIELDS, row)) for row in rows]
