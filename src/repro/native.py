"""Build and load the package's C sources on first use.

Two pieces of the package are C: the sweep kernel
(``analysis/_onepass.c``) and the link graph's draw loop
(``workloads/_linkdraw.c``).  Neither is built at install time.  The
first caller compiles the source with the system C compiler (``gcc``
by default, override with ``REPRO_KERNEL_CC``) into the system temp
directory and loads it with :mod:`ctypes`.  The object's name is keyed
by the source, the whole compile command and the bytes of every
archive it links, so a changed compiler, flag or linked library builds
afresh instead of loading an object built another way, and later
processes load the cached object without compiling.

:func:`load` builds a piece once per process and memoizes the
outcome: the library, or ``None`` with the failure (no compiler, a
failed compile, an unloadable object) kept for :func:`load_error`.
Callers keep the fallback, their pure-Python path, for ``None``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

#: Flags of every build.  The expression VM's doubles must not be
#: contracted into fused multiply-adds, and libm supplies ``log1p``.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LIBS = ("-lm",)

#: Each piece's load outcome by stem: the library (``None`` when it
#: failed) and the failure.
_loaded: dict[str, tuple[ctypes.CDLL | None, str | None]] = {}


def _so_path(stem: str, source: bytes, recipe: tuple[str, ...],
             archives: tuple[Path, ...]) -> Path:
    """Where the build of *source* by the command *recipe* lives,
    keyed by both and by the bytes of the linked *archives*."""
    digest = hashlib.sha256(source + b"\0" + "\0".join(recipe).encode())
    for archive in archives:
        digest.update(b"\0" + archive.read_bytes())
    uid = getattr(os, "getuid", lambda: 0)()
    return (Path(tempfile.gettempdir())
            / f"repro-{stem}-{digest.hexdigest()[:16]}-{uid}.so")


def build(stem: str, source_path: Path, cflags: tuple[str, ...] = (),
          archives: tuple[Path, ...] = ()) -> ctypes.CDLL:
    """Compile *source_path* (once per source and compile command) and
    load it.  *archives* are static libraries linked after the source,
    ahead of libm.  Raises whatever the compile or the load raises.
    """
    cc = os.environ.get("REPRO_KERNEL_CC", "gcc")
    link = (*map(str, archives), *_LIBS)
    target = _so_path(stem, source_path.read_bytes(),
                      (cc, *_CFLAGS, *cflags, *link), archives)
    if not target.exists():
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(target.parent))
        os.close(fd)
        try:
            subprocess.run(
                [cc, *_CFLAGS, *cflags, "-o", tmp, str(source_path), *link],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(target))


def load(stem: str, source_path: Path, *, cflags: tuple[str, ...] = (),
         archives: tuple[Path, ...] = (),
         declare: Callable[[ctypes.CDLL], None] | None = None,
         ) -> ctypes.CDLL | None:
    """The piece *stem*, built by :func:`build` and passed to *declare*
    (which sets its functions' ctypes signatures) on the first call of
    the process, or ``None`` when either raised; later calls return the
    same outcome."""
    if stem not in _loaded:
        try:
            lib = build(stem, source_path, cflags, archives)
            if declare is not None:
                declare(lib)
            _loaded[stem] = (lib, None)
        except Exception as exc:  # noqa: BLE001 - any failure falls back
            _loaded[stem] = (None, f"{type(exc).__name__}: {exc}")
    return _loaded[stem][0]


def load_error(stem: str) -> str | None:
    """Why :func:`load` of *stem* returned ``None`` (``None`` when it
    loaded or was not tried yet)."""
    return _loaded.get(stem, (None, None))[1]
