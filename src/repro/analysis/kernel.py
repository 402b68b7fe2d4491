"""One-pass multi-granularity sweep kernel.

The sweep engine's replay path re-runs the whole trace once per
(policy, pressure) grid point even though every rung of the FIFO/unit
granularity ladder sees the *same* accesses.  Following DEW's
observation for hardware FIFO caches — many geometries can be evaluated
in a single trace traversal — this module replays a trace exactly once
while maintaining:

* a shared residency timeline: one bitmask per superblock, bit *g* set
  iff the block is resident in geometry *g*; and
* per-granularity eviction frontiers: the FIFO fill pointer and unit
  occupancy (``UnitCache`` semantics) or the circular-buffer queue
  (``CircularBlockBuffer`` semantics) for each distinct geometry.

A hit in every geometry costs one list load and one compare; only the
geometries a block is *missing* from pay their miss path.  Hits are
derived (``accesses - misses``) rather than counted.

The hot loop is *generated*: for each geometry shape (kinds × link
tracking) the kernel renders one flat Python function with every miss
body inlined behind its residency-bit test and every counter held in a
local variable, then compiles and memoizes the function.  Compared to
dispatching per-geometry closures this removes all per-miss call
overhead and nonlocal-cell traffic, and the per-access size and
adjacency loads are shared by every geometry that misses on the same
access.  The generated code is batched array code — dense sizes,
deduplicated adjacency, flat per-frontier buffers, no per-access object
churn — and counts neighbour residency with C-speed
``sum(map(bytearray.__getitem__, ...))`` scans.

Equivalence contract
--------------------
Kernel output is *field-identical* to per-point
:class:`~repro.core.simulator.CodeCacheSimulator` replay.  Every field
the kernel produces is an integer counter, and the overheads of
Equations 2-4 are derived from those counters by the stats record under
the model it carries (:class:`~repro.core.metrics.SimulationStats`), so
agreeing on the counters *is* agreeing on the overheads.  Counter sums
do not depend on the order events are counted in, so the kernel is free
to visit victims, events and geometries in whatever order is fastest.

Link accounting needs no per-geometry link maps: with a static link
graph, a link ``(s, t)`` is live in geometry *g* exactly when both
endpoints are resident in *g* (it is established when the later of the
two is inserted and dies when either is evicted), so residency flags
and the precomputed adjacency lists reproduce ``LinkManager``'s
counters.  Two consequences are exploited outright: a single-unit FLUSH
cache never pays unlink work (every live link's endpoints die in the
flush) and never establishes an inter-unit link, and a whole-unit
eviction's in-link survivors can be counted *after* clearing the
victims' flags, which turns the co-victim exclusion into a plain
residency count.  The peak backpointer-table footprint is the running
maximum of the live-link count after an insert (the only time it can
grow), scaled by the entry size at finalize time.

Geometries that clamp to the same shape (small workloads saturate the
unit ladder early) are simulated once and their stats cloned per rung.
"""

from __future__ import annotations

import os
import weakref
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from textwrap import indent
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.analysis import ckernel
from repro.core.cache import ConfigurationError
from repro.core.links import BACKPOINTER_ENTRY_BYTES
from repro.core.metrics import SimulationStats
from repro.core.overhead import OverheadModel, PAPER_MODEL
from repro.core.policies import (
    LADDER_KINDS,
    PolicySpec,
    policy_from_spec,
    policy_spec,
)
from repro.core.superblock import SuperblockSet

if TYPE_CHECKING:
    from repro.search.expr import Expr


@dataclass(frozen=True)
class KernelConfig:
    """One cell shape the kernel can simulate.

    ``kind`` is ``"unit"`` (``UnitCache`` semantics, ``unit_count``
    requested units, clamped exactly like :class:`UnitFifoPolicy`),
    ``"fifo"`` (``CircularBlockBuffer`` semantics) or ``"priority"``
    (:class:`~repro.search.priority.PriorityFunctionPolicy` scoring
    victims with ``expression``; C engine only).
    """

    name: str
    kind: str
    unit_count: int = 1
    expression: "Expr | None" = None

    def __post_init__(self) -> None:
        if self.kind not in ("unit", "fifo", "priority"):
            raise ValueError(f"unknown kernel config kind {self.kind!r}")
        if self.unit_count < 1:
            raise ValueError(
                f"unit count must be >= 1, got {self.unit_count}"
            )
        if (self.kind == "priority") != (self.expression is not None):
            raise ValueError("an expression goes with kind 'priority' "
                             "and only with it")

    @classmethod
    def from_spec(cls, spec: PolicySpec) -> "KernelConfig | None":
        """The cell a policy spec describes, or ``None`` when it needs
        replay.

        Eligibility is the spec's kind.  The ladder kinds
        (:data:`~repro.core.policies.LADDER_KINDS`) always qualify.  A
        priority function qualifies whenever the C engine runs
        (:func:`c_engine_runs`): its victim scan is a C expression VM
        with no generated-Python body.  The other stateful kinds
        (PREEMPT, GEN, LRU) watch accesses or keep extra state and
        replay.  The config carries the built policy's name, so a
        spec's ``name`` overrides it here exactly as in replay.
        """
        spec = policy_spec(spec)
        kind = spec.get("kind")
        if kind == "priority":
            if not c_engine_runs():
                return None
            policy = policy_from_spec(spec)
            return cls(name=policy.name, kind="priority",
                       expression=policy.expression)
        if kind not in LADDER_KINDS:
            return None
        policy = policy_from_spec(spec)
        if kind == "fifo":
            return cls(name=policy.name, kind="fifo")
        return cls(name=policy.name, kind="unit",
                   unit_count=policy.requested_unit_count)


class _Population:
    """Dense per-workload arrays, cached across kernel invocations.

    One workload is swept at many pressures (and, under slice sharding,
    by many tasks in the same worker process), so the flattening work is
    memoized per :class:`SuperblockSet` (weakly, so it dies with the
    workload).  Every array is built with numpy straight from the set's
    columns (:attr:`~SuperblockSet.size_column`,
    :attr:`~SuperblockSet.link_column`), so no :class:`Superblock` object
    and no reverse adjacency is needed; the arrays are contiguous and
    handed to the C engine as they are.
    """

    __slots__ = ("count", "remap", "sizes", "in_idx", "in_dat", "on_idx",
                 "on_dat", "self_flags", "in_degree", "out_degree",
                 "py_links", "c_data", "__weakref__")

    def __init__(self, superblocks: SuperblockSet) -> None:
        sids = superblocks.sids
        self.count = len(sids)
        #: ``sid -> dense index`` when the ids are not ``0..count-1``.
        self.remap = (None if sids == tuple(range(self.count))
                      else {sid: index for index, sid in enumerate(sids)})
        self.sizes = np.fromiter(superblocks.size_column, dtype=np.int64,
                                 count=self.count)
        #: Deduplicated adjacency in dense indices as int32 CSR, built
        #: by :meth:`ensure_links`: incoming sources and outgoing
        #: targets (self-loops excluded from both), plus a uint8
        #: self-loop flag; and the raw int32 degrees the priority
        #: features read.
        self.in_idx = self.in_dat = self.on_idx = self.on_dat = None
        self.self_flags = self.in_degree = self.out_degree = None
        #: The generated-Python runner's link arguments, built on the
        #: first Python-engine run (see :meth:`python_link_args`).
        self.py_links: dict | None = None
        #: ckernel's memo for its trace lookup table.
        self.c_data: dict = {}

    def ensure_links(self, superblocks: SuperblockSet) -> None:
        """Build the CSR adjacency, self flags and raw degrees.

        The raw degrees are ``len(incoming)`` and ``len(outgoing)``,
        which count self-loops and (out-side) repeated links that the
        deduplicated adjacency drops.  In-lists come out ordered by
        source; the kernels only ever sum over them.
        """
        if self.in_idx is not None:
            return
        count = self.count
        links = superblocks.link_column
        out_degree = np.fromiter(map(len, links), dtype=np.int64,
                                 count=count)
        targets = np.fromiter(chain.from_iterable(links), dtype=np.int64,
                              count=int(out_degree.sum()))
        if self.remap is not None:
            ids = np.fromiter(superblocks.sids, dtype=np.int64, count=count)
            order = np.argsort(ids, kind="stable")
            targets = order[np.searchsorted(ids, targets, sorter=order)]
        sources = np.repeat(np.arange(count, dtype=np.int64), out_degree)
        # One key per distinct (source, target) link, ordered by source.
        keys = np.sort(sources * count + targets)
        sources, targets = np.divmod(keys[np.diff(keys, prepend=-1) != 0],
                                     count)
        loops = sources == targets
        self.self_flags = np.zeros(count, dtype=np.uint8)
        self.self_flags[sources[loops]] = 1
        self.in_degree = np.bincount(targets, minlength=count).astype(
            np.int32)
        self.out_degree = out_degree.astype(np.int32)
        sources, targets = sources[~loops], targets[~loops]
        self.on_idx, self.on_dat = _csr(sources, targets, count)
        by_target = np.argsort(targets, kind="stable")
        self.in_idx, self.in_dat = _csr(targets[by_target],
                                        sources[by_target], count)

    def python_link_args(self) -> dict:
        """Prelude rows and precompiled neighbour gathers for the
        generated-Python runner, built from the CSR arrays on its first
        use.

        Residency arrays carry one extra always-zero sentinel slot
        (index ``count``; the unit map's sentinel stays -1), and every
        index tuple is padded with two sentinels so itemgetter always
        returns a tuple and the gathered values sum without any
        per-item dispatch.
        """
        if self.py_links is None:
            in_lists = _rows(self.in_idx, self.in_dat)
            out_nonself = _rows(self.on_idx, self.on_dat)
            self_flags = self.self_flags.tolist()
            pad = (self.count, self.count)
            nbr_all = [out + inc for out, inc in zip(out_nonself, in_lists)]
            self.py_links = dict(
                pre=list(zip(self.sizes.tolist(), nbr_all, self_flags)),
                self_flags=self_flags,
                nbr_get=[itemgetter(*(t + pad)) for t in nbr_all],
                in_get=[itemgetter(*(t + pad)) for t in in_lists],
                outns_get=[itemgetter(*(t + pad)) for t in out_nonself],
                # A self-loop joins the block's own unit: intra-unit.
                unit_nbr_get=[
                    itemgetter(*(t + ((index,) if flag else ()) + pad))
                    for index, (t, flag)
                    in enumerate(zip(nbr_all, self_flags))
                ],
            )
        return self.py_links


def _csr(rows: np.ndarray, columns: np.ndarray,
         count: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 CSR offsets and data for (row, column) pairs sorted by row.
    The data array keeps at least one slot, so its pointer is valid
    even when there are no pairs."""
    offsets = np.zeros(count + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=count), out=offsets[1:])
    data = columns.astype(np.int32) if len(columns) else np.zeros(
        1, dtype=np.int32)
    return offsets, data


def _rows(offsets: np.ndarray, data: np.ndarray) -> list[tuple[int, ...]]:
    """A CSR array pair as one tuple of column indices per row."""
    bounds, values = offsets.tolist(), data.tolist()
    return [tuple(values[start:end])
            for start, end in zip(bounds, bounds[1:])]


_POPULATIONS: "weakref.WeakKeyDictionary[SuperblockSet, _Population]" = (
    weakref.WeakKeyDictionary()
)


def _population(superblocks: SuperblockSet) -> _Population:
    population = _POPULATIONS.get(superblocks)
    if population is None:
        population = _Population(superblocks)
        _POPULATIONS[superblocks] = population
    return population


_ENGINES = ("auto", "c", "py")


def _resolve_engine(engine: str | None) -> str:
    if engine is None:
        engine = os.environ.get("REPRO_KERNEL_ENGINE", "auto")
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown kernel engine {engine!r}; expected one of {_ENGINES}"
        )
    return engine


def c_engine_runs() -> bool:
    """Whether :func:`one_pass_grid` runs the C engine under
    ``REPRO_KERNEL_ENGINE``: always when forced (``"c"``, which raises
    if the kernel cannot load), never under ``"py"``, and under
    ``"auto"`` (the default) when the kernel builds and loads."""
    mode = _resolve_engine(None)
    if mode != "auto":
        return mode == "c"
    return ckernel.available()


def one_pass_sweep(
    superblocks: SuperblockSet,
    trace: Iterable[int],
    capacity_bytes: int,
    configs: Sequence[KernelConfig],
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    benchmark: str = "",
    engine: str | None = None,
) -> dict[str, SimulationStats]:
    """Simulate every config in one trace traversal.

    Returns ``{config.name: stats}`` in *configs* order, field-identical
    to replaying each config through :class:`CodeCacheSimulator`.
    """
    return one_pass_grid(superblocks, trace, (capacity_bytes,), configs,
                         overhead_model=overhead_model,
                         track_links=track_links,
                         benchmark=benchmark,
                         engine=engine)[0]


def one_pass_grid(
    superblocks: SuperblockSet,
    trace: Iterable[int],
    capacities: Sequence[int],
    configs: Sequence[KernelConfig],
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    benchmark: str = "",
    engine: str | None = None,
) -> list[dict[str, SimulationStats]]:
    """Simulate a (capacity x config) grid in one trace traversal.

    This is the full amortisation: one pass over *trace* evaluates
    every pressure rung and every ladder rung simultaneously, each
    geometry keeping its own eviction frontier and residency bit.
    Priority configs are simulated one (capacity, expression) cell per
    C call over the same marshalled trace and links.  Returns a list
    parallel to *capacities*; element ``i`` maps ``config.name`` to
    stats for ``capacities[i]``, field-identical to replaying each
    (capacity, config) cell through :class:`CodeCacheSimulator`.

    *engine* selects the hot-loop implementation: ``"c"`` (the
    compiled fast path in :mod:`repro.analysis.ckernel`), ``"py"`` (the
    generated-Python runner), or ``"auto"`` (C when buildable, Python
    otherwise).  ``None`` defers to the ``REPRO_KERNEL_ENGINE``
    environment variable, defaulting to ``"auto"``.  Both engines are
    bit-identical; the choice only affects speed.  Priority configs
    need the C engine and raise ``RuntimeError`` without it;
    :meth:`KernelConfig.from_spec` only builds them when it runs.
    """
    if not configs or not capacities:
        return [{} for _capacity in capacities]
    max_block = superblocks.max_block_bytes

    # -- Resolve distinct geometries.  Ladder rungs that clamp to the
    #    same shape at the same capacity are simulated once, and so are
    #    equal expressions; the (capacity, config) nesting mirrors
    #    run_sweep's pressure-then-policy iteration so configuration
    #    errors surface in the same order replay would raise them.
    geometries: dict[tuple, None] = {}
    cell_geometry: list[list[tuple]] = []
    for capacity_bytes in capacities:
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        row: list[tuple] = []
        for config in configs:
            if config.kind == "unit":
                most_units = max(1, capacity_bytes // max_block)
                clamped = min(config.unit_count, most_units)
                unit_capacity = capacity_bytes // clamped
                if max_block > unit_capacity:
                    raise ConfigurationError(
                        f"unit capacity {unit_capacity} B cannot hold "
                        f"the largest superblock ({max_block} B); "
                        f"reduce the unit count"
                    )
                key = ("unit", clamped, capacity_bytes)
            else:
                if max_block > capacity_bytes:
                    raise ConfigurationError(
                        f"cache capacity {capacity_bytes} B cannot hold "
                        f"the largest superblock ({max_block} B)"
                    )
                key = (("fifo", capacity_bytes) if config.kind == "fifo"
                       else ("priority", capacity_bytes, config.expression))
            geometries.setdefault(key)
            row.append(key)
        cell_geometry.append(row)
    ladder = [key for key in geometries if key[0] != "priority"]
    scored = [key for key in geometries if key[0] == "priority"]

    mode = _resolve_engine(engine)
    compiled = mode != "py" and ckernel.available()
    if not compiled and (mode == "c" or scored):
        reason = ("the generated-Python engine has no priority body"
                  if mode == "py" else ckernel.load_error())
        raise RuntimeError(f"C kernel engine unavailable: {reason}")
    if compiled and len(ladder) > ckernel.MAX_GEOMETRIES:
        return _split_grid(superblocks, trace, capacities, configs,
                           overhead_model=overhead_model,
                           track_links=track_links,
                           benchmark=benchmark, engine=engine)

    population = _population(superblocks)
    if track_links or scored:
        population.ensure_links(superblocks)
    counters: dict[tuple, dict] = {}
    if ladder:
        counters.update(zip(ladder, _ladder_counters(
            population, trace, ladder, track_links, compiled,
            required=mode == "c")))
    if scored:
        from repro.search.expr import compile_program
        cells = [(capacity_bytes, compile_program(expression))
                 for _kind, capacity_bytes, expression in scored]
        counters.update(zip(scored, ckernel.run_priority(
            population, trace, cells, track_links)))

    accesses = len(trace)
    results: list[dict[str, SimulationStats]] = []
    for row in cell_geometry:
        cell: dict[str, SimulationStats] = {}
        for config, geometry in zip(configs, row):
            stats = SimulationStats(policy_name=config.name,
                                    benchmark=benchmark,
                                    accesses=accesses,
                                    overhead_model=overhead_model,
                                    **counters[geometry])
            stats.hits = accesses - stats.misses
            cell[config.name] = stats
        results.append(cell)
    return results


def _ladder_counters(population, trace, geometries, track_links, compiled,
                     required):
    """Counter dicts for the ladder geometries, in order, from one
    traversal: through the C engine when *compiled*, falling back to
    the generated-Python runner when the C path refuses the shape
    unless the C engine is *required*."""
    # -- Assemble the geometry descriptors.  The FLUSH shape (one
    #    unit) gets its own specialised body in links mode; without
    #    links it is just a one-unit unit cache.  ``caps``/``ucaps``/
    #    ``ucounts`` are the C engine's parallel views of the same
    #    geometries (unused slots stay zero).
    kinds: list[str] = []
    geometry_kwargs: dict[str, int] = {}
    caps = [0] * len(geometries)
    ucaps = [0] * len(geometries)
    ucounts = [0] * len(geometries)
    for index, key in enumerate(geometries):
        if key[0] == "unit":
            unit_count, capacity_bytes = key[1], key[2]
            unit_capacity = capacity_bytes // unit_count
            if track_links and unit_count == 1:
                kinds.append("flush")
                geometry_kwargs[f"cap_{index}"] = unit_capacity
                caps[index] = unit_capacity
            else:
                kinds.append("unit")
                geometry_kwargs[f"ucap_{index}"] = unit_capacity
                geometry_kwargs[f"ucount_{index}"] = unit_count
                ucaps[index] = unit_capacity
                ucounts[index] = unit_count
        else:
            kinds.append("fifo")
            geometry_kwargs[f"cap_{index}"] = key[1]
            caps[index] = key[1]

    if compiled:
        geometry_stats = ckernel.run_geometries(
            population, trace, kinds, caps, ucaps, ucounts, track_links)
        if geometry_stats is not None:
            return geometry_stats
        if required:
            raise RuntimeError(
                f"C kernel engine unavailable: {ckernel.load_error()}")

    runner = _runner(tuple(kinds), track_links)
    if hasattr(trace, "tolist"):
        py_trace = trace.tolist()
    elif isinstance(trace, list):
        py_trace = trace
    else:
        py_trace = list(trace)
    if population.remap is not None:
        remap = population.remap
        py_trace = [remap[sid] for sid in py_trace]

    kwargs = dict(
        trace=py_trace,
        residency=[0] * population.count,
        sizes=population.sizes.tolist(),
        n_blocks=population.count,
        _sum=sum,
        _deque=deque,
        **geometry_kwargs,
    )
    if track_links:
        kwargs.update(bp_bytes=BACKPOINTER_ENTRY_BYTES,
                      **population.python_link_args())
    return runner(**kwargs)


def _split_grid(superblocks, trace, capacities, configs, **shared):
    """Run a grid with too many distinct geometries for one 32-bit C
    residency mask as two half grids: halve the capacity axis, or the
    config axis when only one capacity remains."""
    if len(capacities) > 1:
        half = len(capacities) // 2
        return (one_pass_grid(superblocks, trace, capacities[:half],
                              configs, **shared)
                + one_pass_grid(superblocks, trace, capacities[half:],
                                configs, **shared))
    half = len(configs) // 2
    left = one_pass_grid(superblocks, trace, capacities, configs[:half],
                         **shared)
    right = one_pass_grid(superblocks, trace, capacities, configs[half:],
                          **shared)
    return [{**head, **tail} for head, tail in zip(left, right)]


# -- Generated hot loop ------------------------------------------------------
#
# The templates below are written at zero indent and expanded with
# plain string replacement: ``@i@`` is the geometry index and ``@nb@``
# the complement of its residency bit.  Every temporary is suffixed
# with the geometry index so inlined bodies stay independent.  Mutable
# frontier state is created inside the generated function (fresh per
# call); read-only arrays and capacities arrive as parameters, which
# keeps one compiled function reusable for every capacity that shares
# the same geometry shape.  Only integer counters are kept: the
# overheads are priced from them afterwards.

_SHARED_PARAMS = ("trace", "residency", "sizes", "n_blocks", "_sum",
                  "_deque")
_LINK_PARAMS = ("pre", "bp_bytes", "self_flags", "nbr_get", "in_get",
                "outns_get", "unit_nbr_get")

_UNIT_PARAMS = ("ucap_@i@", "ucount_@i@")
_CAP_PARAMS = ("cap_@i@",)

_COUNTER_INIT = """\
misses_@i@ = 0
ins_@i@ = 0
evB_@i@ = 0
"""

_LINK_COUNTER_INIT = """\
ulops_@i@ = 0
ulrem_@i@ = 0
intra_@i@ = 0
inter_@i@ = 0
live_@i@ = 0
plive_@i@ = 0
res_@i@ = bytearray(n_blocks + 1)
"""

_MISS_PRELUDE = """\
misses_@i@ += 1
ins_@i@ += size
"""

_UNIT_INIT = _COUNTER_INIT + """\
inv_@i@ = 0
evb_@i@ = 0
fill_@i@ = 0
units_@i@ = [[] for _unused in range(ucount_@i@)]
used_@i@ = [0] * ucount_@i@
"""

# UnitCache semantics, links untracked.
_UNIT_BODY = _MISS_PRELUDE + """\
if used_@i@[fill_@i@] + size > ucap_@i@:
    fill_@i@ += 1
    if fill_@i@ == ucount_@i@:
        fill_@i@ = 0
    victims_@i@ = units_@i@[fill_@i@]
    if victims_@i@:
        inv_@i@ += 1
        evb_@i@ += len(victims_@i@)
        evB_@i@ += used_@i@[fill_@i@]
        for v_@i@ in victims_@i@:
            residency[v_@i@] &= @nb@
        units_@i@[fill_@i@] = []
        used_@i@[fill_@i@] = 0
units_@i@[fill_@i@].append(sid)
used_@i@[fill_@i@] += size
"""

_UNIT_RET = """\
dict(misses=misses_@i@, inserted_bytes=ins_@i@,
     eviction_invocations=inv_@i@, evicted_blocks=evb_@i@,
     evicted_bytes=evB_@i@)
"""

_FIFO_INIT = _COUNTER_INIT + """\
nev_@i@ = 0
fused_@i@ = 0
queue_@i@ = _deque()
popleft_@i@ = queue_@i@.popleft
append_@i@ = queue_@i@.append
"""

# CircularBlockBuffer semantics, links untracked.  Every victim is its
# own eviction event, so invocations == evicted blocks (one counter).
_FIFO_BODY = _MISS_PRELUDE + """\
while fused_@i@ + size > cap_@i@:
    v_@i@ = popleft_@i@()
    vs_@i@ = sizes[v_@i@]
    fused_@i@ -= vs_@i@
    nev_@i@ += 1
    evB_@i@ += vs_@i@
    residency[v_@i@] &= @nb@
append_@i@(sid)
fused_@i@ += size
"""

_FIFO_RET = """\
dict(misses=misses_@i@, inserted_bytes=ins_@i@,
     eviction_invocations=nev_@i@, evicted_blocks=nev_@i@,
     evicted_bytes=evB_@i@)
"""

_FLUSH_LINKS_INIT = _COUNTER_INIT + _LINK_COUNTER_INIT + """\
inv_@i@ = 0
evb_@i@ = 0
fused_@i@ = 0
blocks_@i@ = []
bapp_@i@ = blocks_@i@.append
"""

# Single-unit FLUSH with link accounting.  A flush evicts every
# resident block at once, so no live link ever has a surviving
# endpoint: there are no unlink records and the live set zeroes.  With
# one unit every established link is intra-unit.  The peak check only
# runs when the live count grew — it cannot grow anywhere else.
_FLUSH_LINKS_BODY = _MISS_PRELUDE + """\
if fused_@i@ + size > cap_@i@:
    inv_@i@ += 1
    evb_@i@ += len(blocks_@i@)
    evB_@i@ += fused_@i@
    for v_@i@ in blocks_@i@:
        residency[v_@i@] &= @nb@
    res_@i@ = bytearray(n_blocks + 1)
    blocks_@i@ = []
    bapp_@i@ = blocks_@i@.append
    fused_@i@ = 0
    live_@i@ = 0
bapp_@i@(sid)
fused_@i@ += size
res_@i@[sid] = 1
if nbrs:
    ln_@i@ = sf + _sum(nbr_get[sid](res_@i@))
    if ln_@i@:
        intra_@i@ += ln_@i@
        live_@i@ += ln_@i@
        if live_@i@ > plive_@i@:
            plive_@i@ = live_@i@
elif sf:
    intra_@i@ += sf
    live_@i@ += sf
    if live_@i@ > plive_@i@:
        plive_@i@ = live_@i@
"""

_FLUSH_LINKS_RET = """\
dict(misses=misses_@i@, inserted_bytes=ins_@i@,
     eviction_invocations=inv_@i@, evicted_blocks=evb_@i@,
     evicted_bytes=evB_@i@, links_established_intra=intra_@i@,
     peak_backpointer_bytes=plive_@i@ * bp_bytes)
"""

_UNIT_LINKS_INIT = _UNIT_INIT + _LINK_COUNTER_INIT + """\
ua_@i@ = [-1] * (n_blocks + 1)
"""

# Multi-unit UnitCache semantics with LinkManager-equivalent
# accounting.  A unit eviction is one event: the out-side dead-link
# scan runs with every victim still flagged resident (links to
# co-victims are live until the event drops them), the flags then
# clear, and the in-side survivor counts become plain residency sums
# with the co-victim exclusion built in.  ua_@i@[x] is the unit holding
# x, or -1 when absent, answering residency and link classification
# with one load.
_UNIT_LINKS_BODY = _MISS_PRELUDE + """\
if used_@i@[fill_@i@] + size > ucap_@i@:
    fill_@i@ += 1
    if fill_@i@ == ucount_@i@:
        fill_@i@ = 0
    victims_@i@ = units_@i@[fill_@i@]
    if victims_@i@:
        inv_@i@ += 1
        evb_@i@ += len(victims_@i@)
        evB_@i@ += used_@i@[fill_@i@]
        dead_@i@ = 0
        for v_@i@ in victims_@i@:
            dead_@i@ += self_flags[v_@i@] + _sum(
                outns_get[v_@i@](res_@i@))
        for v_@i@ in victims_@i@:
            residency[v_@i@] &= @nb@
            res_@i@[v_@i@] = 0
            ua_@i@[v_@i@] = -1
        for v_@i@ in victims_@i@:
            sur_@i@ = _sum(in_get[v_@i@](res_@i@))
            if sur_@i@:
                ulops_@i@ += 1
                ulrem_@i@ += sur_@i@
                dead_@i@ += sur_@i@
        live_@i@ -= dead_@i@
        units_@i@[fill_@i@] = []
        used_@i@[fill_@i@] = 0
units_@i@[fill_@i@].append(sid)
used_@i@[fill_@i@] += size
f_@i@ = fill_@i@
ua_@i@[sid] = f_@i@
res_@i@[sid] = 1
est_@i@ = sf + _sum(nbr_get[sid](res_@i@))
if est_@i@:
    li_@i@ = unit_nbr_get[sid](ua_@i@).count(f_@i@)
    intra_@i@ += li_@i@
    inter_@i@ += est_@i@ - li_@i@
    live_@i@ += est_@i@
    if live_@i@ > plive_@i@:
        plive_@i@ = live_@i@
"""

_UNIT_LINKS_RET = """\
dict(misses=misses_@i@, inserted_bytes=ins_@i@,
     eviction_invocations=inv_@i@, evicted_blocks=evb_@i@,
     evicted_bytes=evB_@i@, unlink_operations=ulops_@i@,
     links_removed=ulrem_@i@, links_established_intra=intra_@i@,
     links_established_inter=inter_@i@,
     peak_backpointer_bytes=plive_@i@ * bp_bytes)
"""

_FIFO_LINKS_INIT = _FIFO_INIT + _LINK_COUNTER_INIT

# CircularBlockBuffer semantics with link accounting.  Every victim is
# its own event, processed sequentially: a later victim of the same
# miss still counts as a surviving source for an earlier one (its links
# have not dropped yet), which the residency flags reproduce because
# each victim's flag clears only when its event is processed.  Each
# block is its own unit, so only self-loops are intra-unit.
_FIFO_LINKS_BODY = _MISS_PRELUDE + """\
while fused_@i@ + size > cap_@i@:
    v_@i@ = popleft_@i@()
    vs_@i@ = sizes[v_@i@]
    fused_@i@ -= vs_@i@
    nev_@i@ += 1
    evB_@i@ += vs_@i@
    sur_@i@ = _sum(in_get[v_@i@](res_@i@))
    if sur_@i@:
        ulops_@i@ += 1
        ulrem_@i@ += sur_@i@
    live_@i@ -= sur_@i@ + self_flags[v_@i@] + _sum(
        outns_get[v_@i@](res_@i@))
    residency[v_@i@] &= @nb@
    res_@i@[v_@i@] = 0
append_@i@(sid)
fused_@i@ += size
res_@i@[sid] = 1
if nbrs:
    ln_@i@ = _sum(nbr_get[sid](res_@i@))
    if ln_@i@ or sf:
        inter_@i@ += ln_@i@
        intra_@i@ += sf
        live_@i@ += ln_@i@ + sf
        if live_@i@ > plive_@i@:
            plive_@i@ = live_@i@
elif sf:
    intra_@i@ += sf
    live_@i@ += sf
    if live_@i@ > plive_@i@:
        plive_@i@ = live_@i@
"""

_FIFO_LINKS_RET = """\
dict(misses=misses_@i@, inserted_bytes=ins_@i@,
     eviction_invocations=nev_@i@, evicted_blocks=nev_@i@,
     evicted_bytes=evB_@i@, unlink_operations=ulops_@i@,
     links_removed=ulrem_@i@, links_established_intra=intra_@i@,
     links_established_inter=inter_@i@,
     peak_backpointer_bytes=plive_@i@ * bp_bytes)
"""

#: (kind, track_links) -> (extra params, init, body, return expression).
_TEMPLATES = {
    ("unit", False): (_UNIT_PARAMS, _UNIT_INIT, _UNIT_BODY, _UNIT_RET),
    ("fifo", False): (_CAP_PARAMS, _FIFO_INIT, _FIFO_BODY, _FIFO_RET),
    ("flush", True): (_CAP_PARAMS, _FLUSH_LINKS_INIT,
                      _FLUSH_LINKS_BODY, _FLUSH_LINKS_RET),
    ("unit", True): (_UNIT_PARAMS, _UNIT_LINKS_INIT,
                     _UNIT_LINKS_BODY, _UNIT_LINKS_RET),
    ("fifo", True): (_CAP_PARAMS, _FIFO_LINKS_INIT,
                     _FIFO_LINKS_BODY, _FIFO_LINKS_RET),
}

_RUNNERS: dict[tuple, Callable] = {}


def _expand(template: str, index: int) -> str:
    return (template.replace("@i@", str(index))
            .replace("@nb@", str(~(1 << index))))


def render_runner_source(kinds: tuple[str, ...],
                         track_links: bool) -> str:
    """Render the one-pass runner for a geometry shape (public for
    tests and debugging — ``python -m repro.analysis kernel-check``
    exercises the compiled result)."""
    params = list(_SHARED_PARAMS)
    if track_links:
        params.extend(_LINK_PARAMS)
    inits, dispatch, rets = [], [], []
    for index, kind in enumerate(kinds):
        extra, init, body, ret = _TEMPLATES[(kind, track_links)]
        params.extend(_expand(param, index) for param in extra)
        inits.append(indent(_expand(init, index), "    "))
        dispatch.append(f"        if not mask & {1 << index}:\n"
                        + indent(_expand(body, index), "            "))
        rets.append(indent(_expand(ret.rstrip(), index),
                           "        ").lstrip())
    full = (1 << len(kinds)) - 1
    if track_links:
        prelude = ["        size, nbrs, sf = pre[sid]"]
    else:
        prelude = ["        size = sizes[sid]"]
    return "\n".join([
        f"def _kernel_run({', '.join(params)}):",
        "".join(inits),
        "    for sid in trace:",
        "        mask = residency[sid]",
        f"        if mask == {full}:",
        "            continue",
        *prelude,
        "".join(dispatch).rstrip(),
        f"        residency[sid] = {full}",
        "    return (",
        "        " + ",\n        ".join(rets) + ",",
        "    )",
    ])


def _runner(kinds: tuple[str, ...], track_links: bool) -> Callable:
    key = (kinds, track_links)
    runner = _RUNNERS.get(key)
    if runner is None:
        source = render_runner_source(kinds, track_links)
        namespace: dict = {}
        exec(compile(source, "<one-pass-kernel>", "exec"), namespace)
        runner = namespace["_kernel_run"]
        _RUNNERS[key] = runner
    return runner
