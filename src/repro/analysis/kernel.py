"""One-pass multi-granularity sweep kernel.

The sweep engine's replay path re-runs the whole trace once per
(policy, pressure) grid point even though every rung of the FIFO/unit
granularity ladder sees the *same* accesses.  Following DEW's
observation for hardware FIFO caches — many geometries can be evaluated
in a single trace traversal — this module replays a trace exactly once
while maintaining:

* a shared residency timeline: one 64-bit word per superblock, bit *g*
  set iff the block is resident in geometry *g*; and
* per-granularity eviction frontiers: the FIFO fill pointer and unit
  occupancy (``UnitCache`` semantics) or the circular-buffer queue
  (``CircularBlockBuffer`` semantics) for each distinct geometry.

A hit in every geometry costs one word load and one compare; only the
geometries a block is *missing* from pay their miss path, walked kind
by kind over the missing bits.  Hits are derived
(``accesses - misses``) rather than counted.  Up to
:data:`~repro.analysis.ckernel.MAX_GEOMETRIES` geometries share a
traversal, which covers every standard grid; a wider custom grid runs
in chunks of that many, one traversal each.

The traversal itself is C (``_onepass.c``, loaded by
:mod:`repro.analysis.ckernel`).  This module resolves a grid into
distinct geometries, marshals each workload once into flat numpy
arrays, and folds the kernel's counters into stats records.  Without a
loadable kernel :meth:`KernelConfig.from_spec` admits no spec, so the
sweep replays every cell through
:class:`~repro.core.simulator.CodeCacheSimulator` and the grid is the
same.

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
and one precomputed neighbour row per block (its out-targets, then its
in-sources) reproduce ``LinkManager``'s counters.  Two consequences
are exploited outright: a single-unit FLUSH cache never pays unlink
work (every live link's endpoints die in the flush) and never
establishes an inter-unit link, and a whole-unit eviction is one walk
over its victims: each counts every resident neighbour in its row as a
dead link and is then unflagged, so a link between two victims is
counted once, by the first one walked, and the survivors that pay
unlink work are the resident in-sources in other units.  The peak
backpointer-table footprint is the running maximum of the live-link
count after an insert (the only time it can grow), scaled by the entry
size at finalize time.

Geometries that clamp to the same shape (small workloads saturate the
unit ladder early) are simulated once and their stats cloned per rung.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.analysis import ckernel
from repro.core.cache import ConfigurationError
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
    victims with ``expression``).
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

        Eligibility is the spec's kind: the ladder kinds
        (:data:`~repro.core.policies.LADDER_KINDS`) and priority
        functions, whose victim scan is the kernel's expression VM.
        The other stateful kinds (PREEMPT, GEN, LRU) watch accesses or
        keep extra state and replay.  Without a loadable C kernel
        every spec replays.  The config carries the built policy's
        name, so a spec's ``name`` overrides it here exactly as in
        replay.
        """
        spec = policy_spec(spec)
        kind = spec.get("kind")
        if (kind not in (*LADDER_KINDS, "priority")
                or not ckernel.available()):
            return None
        policy = policy_from_spec(spec)
        if kind == "priority":
            return cls(name=policy.name, kind="priority",
                       expression=policy.expression)
        if kind == "fifo":
            return cls(name=policy.name, kind="fifo")
        return cls(name=policy.name, kind="unit",
                   unit_count=policy.requested_unit_count)


class _Population:
    """Dense per-workload arrays, cached across kernel invocations.

    One workload's slab can take several kernel calls (the ladder, its
    priority cells, a grid wider than one traversal), and the policy
    search re-scores the same memoized workloads every generation, so
    the flattening work, the neighbour rows included, is memoized per
    :class:`SuperblockSet` (weakly, so it dies with the workload).
    Every array is built with numpy straight from the set's columns
    (:attr:`~SuperblockSet.size_column`,
    :attr:`~SuperblockSet.link_column`), so no :class:`Superblock`
    object and no reverse adjacency is needed; the arrays are
    contiguous and handed to the C engine as they are.
    """

    __slots__ = ("count", "index_of", "sizes", "nb_idx", "nb_split",
                 "nb_dat", "self_flags", "in_degree", "out_degree",
                 "__weakref__")

    def __init__(self, superblocks: SuperblockSet) -> None:
        sids = superblocks.sids
        self.count = len(sids)
        #: ``sid -> dense index`` as an int32 lookup table holding -1
        #: for ids outside the population, or ``None`` when the ids are
        #: ``0..count-1``.
        self.index_of = None
        if sids != tuple(range(self.count)):
            ids = np.fromiter(sids, dtype=np.int64, count=self.count)
            self.index_of = np.full(int(ids.max()) + 1, -1, dtype=np.int32)
            self.index_of[ids] = np.arange(self.count, dtype=np.int32)
        self.sizes = np.fromiter(superblocks.size_column, dtype=np.int64,
                                 count=self.count)
        #: Deduplicated adjacency in dense indices, built by
        #: :meth:`ensure_links`: one int32 neighbour row per block
        #: (``nb_dat[nb_idx[b]:nb_idx[b + 1]]``) holding its outgoing
        #: targets, then from ``nb_split[b]`` its incoming sources,
        #: self-loops excluded from both; a uint8 self-loop flag; and
        #: the raw int32 degrees the priority features read.
        self.nb_idx = self.nb_split = self.nb_dat = None
        self.self_flags = self.in_degree = self.out_degree = None

    def ensure_links(self, superblocks: SuperblockSet) -> None:
        """Build the neighbour rows, self flags and raw degrees.

        The raw degrees are ``len(incoming)`` and ``len(outgoing)``,
        which count self-loops and (out-side) repeated links that the
        deduplicated adjacency drops.  Within a row, targets and
        sources each come out in index order; the kernels only ever
        sum over them.
        """
        if self.nb_idx is not None:
            return
        count = self.count
        links = superblocks.link_column
        out_degree = np.fromiter(map(len, links), dtype=np.int64,
                                 count=count)
        targets = np.fromiter(chain.from_iterable(links), dtype=np.int64,
                              count=int(out_degree.sum()))
        if self.index_of is not None:
            targets = self.index_of[targets]
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
        # Each link appears in its source's row as a target and in its
        # target's row as a source; a stable sort by row keeps every
        # row's targets ahead of its sources.
        rows = np.concatenate((sources, targets))
        order = np.argsort(rows, kind="stable")
        self.nb_idx = np.zeros(count + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=count), out=self.nb_idx[1:])
        self.nb_split = self.nb_idx[:-1] + np.bincount(
            sources, minlength=count).astype(np.int32)
        # At least one slot, so the pointer is valid without links.
        self.nb_dat = (np.concatenate((targets, sources))[order].astype(
            np.int32) if len(rows) else np.zeros(1, dtype=np.int32))


_POPULATIONS: "weakref.WeakKeyDictionary[SuperblockSet, _Population]" = (
    weakref.WeakKeyDictionary()
)


def _population(superblocks: SuperblockSet) -> _Population:
    population = _POPULATIONS.get(superblocks)
    if population is None:
        population = _Population(superblocks)
        _POPULATIONS[superblocks] = population
    return population


def one_pass_grid(
    superblocks: SuperblockSet,
    trace: Iterable[int],
    capacities: Sequence[int],
    configs: Sequence[KernelConfig],
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    benchmark: str = "",
) -> list[dict[str, SimulationStats]]:
    """Simulate a (capacity x config) grid in one trace traversal.

    This is the full amortisation: one pass over *trace* evaluates
    every pressure rung and every ladder rung simultaneously, each
    geometry keeping its own eviction frontier and residency bit.
    Priority configs are simulated in one more C call over the same
    marshalled trace and links, every (capacity, expression) cell of
    the grid at once.  Returns a list
    parallel to *capacities*; element ``i`` maps ``config.name`` to
    stats for ``capacities[i]``, field-identical to replaying each
    (capacity, config) cell through :class:`CodeCacheSimulator`.

    The grid runs on the C kernel (:mod:`repro.analysis.ckernel`),
    which raises ``RuntimeError`` naming the load error when it cannot
    load; :meth:`KernelConfig.from_spec` admits no spec on such hosts,
    so the sweep replays instead of calling this.
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

    population = _population(superblocks)
    if track_links or scored:
        population.ensure_links(superblocks)
    counters: dict[tuple, dict] = {}
    # One traversal holds MAX_GEOMETRIES residency bits; wider custom
    # grids run in chunks of that many.
    width = ckernel.MAX_GEOMETRIES
    for start in range(0, len(ladder), width):
        chunk = ladder[start:start + width]
        counters.update(zip(chunk, _ladder_counters(
            population, trace, chunk, track_links)))
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


def _ladder_counters(population, trace, geometries, track_links):
    """Counter dicts for the ladder geometries, in order, from one C
    traversal.  The FLUSH shape (one unit) gets its own specialised
    body in links mode; without links it is just a one-unit unit
    cache.  ``caps``/``ucaps``/``ucounts`` are parallel per-geometry
    views (unused slots stay zero)."""
    kinds: list[str] = []
    caps = [0] * len(geometries)
    ucaps = [0] * len(geometries)
    ucounts = [0] * len(geometries)
    for index, key in enumerate(geometries):
        if key[0] == "unit":
            unit_count, capacity_bytes = key[1], key[2]
            unit_capacity = capacity_bytes // unit_count
            if track_links and unit_count == 1:
                kinds.append("flush")
                caps[index] = unit_capacity
            else:
                kinds.append("unit")
                ucaps[index] = unit_capacity
                ucounts[index] = unit_count
        else:
            kinds.append("fifo")
            caps[index] = key[1]
    return ckernel.run_geometries(population, trace, kinds, caps, ucaps,
                                  ucounts, track_links)
