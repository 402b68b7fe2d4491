"""Synthetic inter-superblock link graphs (Figure 12's profile).

The paper measured an average of ~1.7 outbound links per cached
superblock, and noted that self-links (a superblock looping back to its
own head) are common enough to matter for Figure 13's FIFO bar.  Links
follow control flow, so they exhibit spatial locality: a superblock
mostly chains to superblocks formed from nearby code, which were also
*created at nearby times* — the property that makes intra-unit links
plausible at all.

We model each block's outbound links as:

* a self-loop with probability ``self_loop_prob`` (hot loops), and
* a Poisson-distributed number of outward links whose targets sit at a
  geometrically-distributed signed distance in superblock-id space
  (ids are assigned in formation order, so id distance models
  creation-time distance).

The Poisson counts and self-loop flags are drawn vectorized; the
per-link draws (a geometric distance, then a uniform for its sign) run
in C (``_linkdraw.c``) through numpy's own geometric sampler and the
Generator's bit generator, the same draws in the same order as the
per-link Python loop, so the graph and the generator's state afterwards
are bit-identical to it.  The C loop is compiled and loaded once per
process by :func:`repro.native.load`, linked with numpy's
``numpy/random/lib/libnpyrandom.a``; where it cannot be built (no
compiler, no archive) the Python loop runs instead and
:func:`load_error` says why.  It also stays as the C loop's test
oracle.  :func:`generate_link_columns` returns the graph as CSR
columns, which :meth:`~repro.core.superblock.SuperblockSet.from_csr`
and the sweep kernel take as they are.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro import native

_SOURCE = Path(__file__).with_name("_linkdraw.c")
#: numpy's C distributions, ``random_geometric`` among them.
_NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _declare(lib: ctypes.CDLL) -> None:
    p = ctypes.c_void_p
    lib.draw_links.restype = ctypes.c_int
    lib.draw_links.argtypes = [
        p, ctypes.c_int64, p, p,  # bitgen, count, self_loops, outward
        ctypes.c_double, p, p,    # p, offsets, targets
    ]


def _load() -> ctypes.CDLL | None:
    """The C draw loop, compiled once per source, compile command and
    numpy archive, or ``None`` with the failure recorded in
    :func:`load_error`."""
    return native.load("linkdraw", _SOURCE, cflags=("-I", np.get_include()),
                       archives=(_NPYRANDOM,), declare=_declare)


def load_error() -> str | None:
    """Why the C draw loop is unavailable (``None`` when it loaded)."""
    _load()
    return native.load_error("linkdraw")


def generate_links(
    count: int,
    rng: np.random.Generator,
    mean_out_degree: float = 1.7,
    self_loop_prob: float = 0.3,
    locality_scale: float = 12.0,
) -> list[tuple[int, ...]]:
    """Generate outbound-link tuples for ``count`` superblocks.

    Parameters
    ----------
    count:
        Number of superblocks (ids ``0..count-1``).
    mean_out_degree:
        Target average links per block, self-loops included.
    self_loop_prob:
        Probability a block links to itself.
    locality_scale:
        Mean absolute id distance of an outward link (geometric law);
        small values mean chains stay within tightly clustered code.

    Returns
    -------
    A list whose ``i``-th entry is block ``i``'s outgoing link tuple,
    deduplicated, targets within ``[0, count)``: the rows of
    :func:`generate_link_columns`.
    """
    offsets, targets = generate_link_columns(
        count, rng, mean_out_degree, self_loop_prob, locality_scale)
    flat = targets.tolist()
    bounds = offsets.tolist()
    return [tuple(flat[start:end])
            for start, end in zip(bounds, bounds[1:])]


def generate_link_columns(
    count: int,
    rng: np.random.Generator,
    mean_out_degree: float = 1.7,
    self_loop_prob: float = 0.3,
    locality_scale: float = 12.0,
) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`generate_links` graph as CSR columns ``(offsets,
    targets)``, both ``int64``: block ``i``'s outgoing targets are
    ``targets[offsets[i]:offsets[i + 1]]``.  Same parameters, same
    draws.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not 0.0 <= self_loop_prob <= 1.0:
        raise ValueError("self_loop_prob must be in [0, 1]")
    if mean_out_degree < self_loop_prob:
        raise ValueError(
            "mean_out_degree cannot be below the self-loop contribution"
        )
    if locality_scale <= 0:
        raise ValueError("locality_scale must be positive")

    outward_mean = mean_out_degree - self_loop_prob
    self_loops = rng.random(count) < self_loop_prob
    outward_counts = rng.poisson(outward_mean, size=count)
    geometric_p = 1.0 / locality_scale
    # A p that rng.geometric rejects raises from the Python loop, at
    # the first draw, exactly as it always has.
    lib = _load() if 0.0 < geometric_p <= 1.0 else None
    if lib is None:
        return _draw_in_python(count, rng, self_loops, outward_counts,
                               geometric_p)
    offsets = np.empty(count + 1, dtype=np.int64)
    targets = np.empty(max(1, int(self_loops.sum())
                           + int(outward_counts.sum())), dtype=np.int64)
    outward_counts = np.ascontiguousarray(outward_counts, dtype=np.int64)
    bit_generator = rng.bit_generator
    # ctypes releases the GIL: hold the lock numpy's own methods take.
    with bit_generator.lock:
        status = lib.draw_links(
            bit_generator.ctypes.bit_generator, count,
            self_loops.ctypes.data, outward_counts.ctypes.data,
            geometric_p, offsets.ctypes.data, targets.ctypes.data)
    if status != 0:
        raise MemoryError(f"C link draw failed with status {status}")
    return offsets, targets[:offsets[-1]]


def _draw_in_python(count, rng, self_loops, outward_counts, geometric_p):
    """The per-link loop, one numpy call per draw: the fallback where
    the C loop cannot load, and its test oracle."""
    offsets = np.zeros(count + 1, dtype=np.int64)
    flat: list[int] = []
    for sid in range(count):
        targets: list[int] = []
        if self_loops[sid]:
            targets.append(sid)
        for _ in range(int(outward_counts[sid])):
            distance = int(rng.geometric(geometric_p))
            sign = 1 if rng.random() < 0.5 else -1
            target = sid + sign * distance
            # Reflect off the ends so border blocks keep local targets.
            if target < 0:
                target = -target
            if target >= count:
                target = max(0, 2 * (count - 1) - target)
            if target != sid:
                targets.append(target)
        # Deduplicate, preserving order.
        flat.extend(dict.fromkeys(targets))
        offsets[sid + 1] = len(flat)
    return offsets, np.array(flat, dtype=np.int64)


def mean_out_degree(links: list[tuple[int, ...]]) -> float:
    """Average outbound links per block — the Figure 12 statistic."""
    if not links:
        raise ValueError("empty link list")
    return sum(len(targets) for targets in links) / len(links)


def self_loop_fraction(links: list[tuple[int, ...]]) -> float:
    """Fraction of blocks with a self link."""
    if not links:
        raise ValueError("empty link list")
    with_self = sum(1 for sid, targets in enumerate(links) if sid in targets)
    return with_self / len(links)
