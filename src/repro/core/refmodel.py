"""A slow, obviously-correct reference simulator — the differential oracle.

The production :class:`~repro.core.simulator.CodeCacheSimulator` earns
its speed with incremental bookkeeping: cached size maps, per-unit bump
pointers, dual link maps, a batched hot loop.  Every one of those
optimizations is a place for the two halves of an invariant to drift
apart.  This module re-implements the paper's semantics with none of
them — plain dicts and lists, occupancy recomputed by summation on
every insertion, the live link set rebuilt from first principles — so
that :mod:`repro.analysis.diffcheck` can replay the same trace through
both implementations and compare them access for access.

What is deliberately mirrored from the spec (not from the code):

* Unit caches advance the fill pointer **once** per overflowing
  insertion and evict the unit in the way in its entirety (Figure 5's
  FIFO unit rotation); ``n = 1`` degenerates to FLUSH.
* The fine-grained buffer evicts the minimum number of *oldest* blocks,
  one eviction invocation each (Section 4).
* Links are established in both directions when a block enters the
  cache, classified intra/inter-unit at establishment time, and an
  evicted block is charged Equation 4 unlinking only for incoming links
  from *surviving* blocks.

The reference model covers the paper's granularity ladder (FLUSH,
2..512 units, fine-grained FIFO), the Section 3.3 LRU byte arena,
Dynamo's PREEMPT policy — the phase detector is re-implemented with the
production arithmetic op for op (EMA updates, warmup/cooldown gates,
fill test) over recomputed-from-scratch occupancy, so a drift in either
the detector or the flush bookkeeping shows up as a diff — and the
search's priority-function policies, scored by the expression
language's interpreter (``repro.search.expr.evaluate``) over feature
vectors rebuilt from scratch.  Adaptive and generational policies
remain under the runtime invariant checker only (see ROADMAP open
items).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cache import ConfigurationError
from repro.core.links import BACKPOINTER_ENTRY_BYTES
from repro.core.metrics import SimulationStats
from repro.core.overhead import OverheadModel, PAPER_MODEL
from repro.core.superblock import SuperblockSet


@dataclass(frozen=True)
class AccessOutcome:
    """What one trace access did, in comparable form.

    ``evictions`` holds one tuple of block ids per eviction invocation
    the access triggered, in order; ``links_removed`` counts the links
    unpatched servicing it (0 when links are untracked).
    """

    index: int
    sid: int
    hit: bool
    evictions: tuple[tuple[int, ...], ...] = ()
    links_removed: int = 0


@dataclass
class ReferenceResult:
    """A reference run: final stats plus the per-access outcome log."""

    stats: SimulationStats
    outcomes: list[AccessOutcome] = field(default_factory=list)


class _ReferenceUnitStore:
    """Unit-partitioned FIFO storage, recomputed-from-scratch flavour."""

    def __init__(self, capacity_bytes: int, unit_count: int,
                 sizes: dict[int, int]) -> None:
        self.unit_capacity = capacity_bytes // unit_count
        self.units: list[list[int]] = [[] for _ in range(unit_count)]
        self.fill = 0
        self.sizes = sizes

    def resident(self, sid: int) -> bool:
        return any(sid in unit for unit in self.units)

    def resident_ids(self) -> set[int]:
        return {sid for unit in self.units for sid in unit}

    def touch(self, sid: int) -> None:
        """Unit position is fixed at insertion; recency is ignored."""

    def unit_key(self, sid: int) -> int:
        for idx, unit in enumerate(self.units):
            if sid in unit:
                return idx
        raise KeyError(sid)

    def _unit_used(self, idx: int) -> int:
        return sum(self.sizes[s] for s in self.units[idx])

    def insert(self, sid: int, size: int) -> list[tuple[int, ...]]:
        assert not self.resident(sid), f"double insert of {sid}"
        evictions: list[tuple[int, ...]] = []
        if self._unit_used(self.fill) + size > self.unit_capacity:
            self.fill = (self.fill + 1) % len(self.units)
            victim = self.units[self.fill]
            if victim:
                evictions.append(tuple(victim))
                self.units[self.fill] = []
        self.units[self.fill].append(sid)
        return evictions


class _ReferenceFifoStore:
    """Fine-grained circular buffer, recomputed-from-scratch flavour."""

    def __init__(self, capacity_bytes: int, sizes: dict[int, int]) -> None:
        self.capacity = capacity_bytes
        self.queue: list[int] = []
        self.sizes = sizes

    def resident(self, sid: int) -> bool:
        return sid in self.queue

    def resident_ids(self) -> set[int]:
        return set(self.queue)

    def touch(self, sid: int) -> None:
        """Queue position is fixed at insertion; recency is ignored."""

    def unit_key(self, sid: int) -> int:
        # Every block is its own eviction unit; the id is the unit key.
        if sid not in self.queue:
            raise KeyError(sid)
        return sid

    def _used(self) -> int:
        return sum(self.sizes[s] for s in self.queue)

    def insert(self, sid: int, size: int) -> list[tuple[int, ...]]:
        assert sid not in self.queue, f"double insert of {sid}"
        evictions: list[tuple[int, ...]] = []
        while self._used() + size > self.capacity:
            victim = self.queue.pop(0)
            evictions.append((victim,))
        self.queue.append(sid)
        return evictions


class _ReferencePreemptStore(_ReferenceUnitStore):
    """Dynamo's preemptive-flush policy, recomputed-from-scratch flavour.

    A single FIFO unit (overflow degenerates to FLUSH) plus the phase
    detector of :class:`~repro.core.policies.PreemptiveFlushPolicy`.
    The detector arithmetic mirrors the production policy **op for
    op** — same EMA update order, same warmup/cooldown gating, same
    fill test — because the diff demands float-exact agreement on when
    the preemptive flush fires.  Only the cache bookkeeping underneath
    is the slow, obviously-correct kind.
    """

    def __init__(self, capacity_bytes: int, sizes: dict[int, int],
                 fast_alpha: float, slow_alpha: float, spike_ratio: float,
                 min_fill_fraction: float, warmup_accesses: int,
                 cooldown_accesses: int) -> None:
        super().__init__(capacity_bytes, 1, sizes)
        self.capacity_bytes = capacity_bytes
        self.fast_alpha = fast_alpha
        self.slow_alpha = slow_alpha
        self.spike_ratio = spike_ratio
        self.min_fill_fraction = min_fill_fraction
        self.warmup_accesses = warmup_accesses
        self.cooldown_accesses = cooldown_accesses
        self.fast = 0.0
        self.slow = 0.0
        self.accesses = 0
        self.cooldown_until = 0

    def before_access(self, sid: int, hit: bool) -> list[tuple[int, ...]]:
        """The pre-residency-decision hook: update the detector with the
        hinted hit/miss and flush preemptively on a detected phase
        change.  Returns the eviction invocations it caused."""
        miss = 0.0 if hit else 1.0
        self.fast += self.fast_alpha * (miss - self.fast)
        self.slow += self.slow_alpha * (miss - self.slow)
        self.accesses += 1
        if self.accesses < self.warmup_accesses:
            return []
        if self.accesses < self.cooldown_until:
            return []
        fill = self._unit_used(0) / self.capacity_bytes
        spiking = self.fast > self.spike_ratio * max(self.slow, 0.01)
        if spiking and fill >= self.min_fill_fraction:
            victim = tuple(self.units[0])
            self.units[0] = []
            self.cooldown_until = self.accesses + self.cooldown_accesses
            self.fast = self.slow
            if victim:
                return [victim]
        return []


class _ReferenceLruStore:
    """True-LRU byte arena, recomputed-from-scratch flavour.

    Mirrors the Section 3.3 study's :class:`~repro.core.lru.LruPolicy`
    (without compaction): victims leave in strict least-recently-used
    order, and placement is first-fit over a byte arena, so scattered
    holes can force extra evictions even when enough *total* free space
    exists.  Instead of maintaining a free list incrementally, the hole
    set is re-derived from the block placements on every allocation.
    """

    def __init__(self, capacity_bytes: int, sizes: dict[int, int]) -> None:
        self.capacity = capacity_bytes
        #: Most-recent last; victims pop from the front.
        self.recency: list[int] = []
        #: sid -> (offset, size) placements.
        self.placed: dict[int, tuple[int, int]] = {}
        self.sizes = sizes

    def resident(self, sid: int) -> bool:
        return sid in self.placed

    def resident_ids(self) -> set[int]:
        return set(self.placed)

    def unit_key(self, sid: int) -> int:
        # Every block is its own eviction unit; the id is the unit key.
        if sid not in self.placed:
            raise KeyError(sid)
        return sid

    def touch(self, sid: int) -> None:
        self.recency.remove(sid)
        self.recency.append(sid)

    def _holes(self) -> list[tuple[int, int]]:
        """(offset, size) gaps between placed blocks, in address order."""
        holes: list[tuple[int, int]] = []
        cursor = 0
        for offset, size in sorted(self.placed.values()):
            if offset > cursor:
                holes.append((cursor, offset - cursor))
            cursor = offset + size
        if cursor < self.capacity:
            holes.append((cursor, self.capacity - cursor))
        return holes

    def _allocate(self, sid: int, size: int) -> bool:
        for offset, hole_size in self._holes():
            if hole_size >= size:
                self.placed[sid] = (offset, size)
                return True
        return False

    def insert(self, sid: int, size: int) -> list[tuple[int, ...]]:
        assert sid not in self.placed, f"double insert of {sid}"
        evictions: list[tuple[int, ...]] = []
        while not self._allocate(sid, size):
            victim = self.recency.pop(0)
            del self.placed[victim]
            evictions.append((victim,))
        self.recency.append(sid)
        return evictions


class _ReferencePriorityStore:
    """Priority-function eviction, recomputed-from-scratch flavour.

    Mirrors :class:`~repro.search.priority.PriorityFunctionPolicy` from
    its spec: the per-block clocks advance in the access-watching hook,
    every feature vector is rebuilt from those clocks, the static link
    graph and a summed occupancy, and each victim is the minimum of an
    explicit ``(evaluate(...), insertion sequence, sid)`` key over the
    resident list.  Nothing here runs the production policy's compiled
    chooser.
    """

    def __init__(self, capacity_bytes: int, superblocks: SuperblockSet,
                 expression) -> None:
        from repro.search.expr import evaluate

        self.evaluate = evaluate
        self.expression = expression
        self.capacity = capacity_bytes
        self.superblocks = superblocks
        self.sizes = dict(superblocks.sizes())
        #: Resident blocks, oldest insertion first.
        self.order: list[int] = []
        self.seq: dict[int, int] = {}
        self.next_seq = 0
        self.clock = 0
        self.inserted_at: dict[int, int] = {}
        self.touched_at: dict[int, int] = {}
        self.hits: dict[int, int] = {}

    def resident(self, sid: int) -> bool:
        return sid in self.order

    def unit_key(self, sid: int) -> int:
        # Every block is its own eviction unit; the id is the unit key.
        if sid not in self.order:
            raise KeyError(sid)
        return sid

    def touch(self, sid: int) -> None:
        """Hits are recorded by :meth:`before_access`."""

    def before_access(self, sid: int, hit: bool) -> list[tuple[int, ...]]:
        """Advance the access clock; a hit refreshes *sid*'s recency and
        hotness.  Never evicts."""
        self.clock += 1
        if hit:
            self.touched_at[sid] = self.clock
            self.hits[sid] += 1
        return []

    def _used(self) -> int:
        return sum(self.sizes[s] for s in self.order)

    def features(self, sid: int) -> dict[str, float]:
        return {
            "age": float(self.clock - self.inserted_at[sid]),
            "size": float(self.sizes[sid]),
            "in_degree": float(len(self.superblocks.incoming(sid))),
            "out_degree": float(len(self.superblocks.outgoing(sid))),
            "hotness": float(self.hits[sid]),
            "recency": float(self.clock - self.touched_at[sid]),
            "occupancy": self._used() / self.capacity,
        }

    def _key(self, sid: int) -> tuple[float, int, int]:
        score = self.evaluate(self.expression, self.features(sid))
        return (score, self.seq[sid], sid)

    def insert(self, sid: int, size: int) -> list[tuple[int, ...]]:
        assert sid not in self.order, f"double insert of {sid}"
        evictions: list[tuple[int, ...]] = []
        while self._used() + size > self.capacity:
            victim = min(self.order, key=self._key)
            self.order.remove(victim)
            for clocks in (self.seq, self.inserted_at, self.touched_at,
                           self.hits):
                del clocks[victim]
            evictions.append((victim,))
        self.order.append(sid)
        self.seq[sid] = self.next_seq
        self.next_seq += 1
        self.inserted_at[sid] = self.clock
        self.touched_at[sid] = self.clock
        self.hits[sid] = 0
        return evictions


class ReferenceSimulator:
    """Replays a trace with first-principles bookkeeping.

    Build one with :meth:`for_unit_policy` (``unit_count = 1`` is FLUSH),
    :meth:`for_fine_fifo`, :meth:`for_lru`, :meth:`for_preempt` or
    :meth:`for_priority`, mirroring how the production ladder clamps
    unit counts so both sides simulate the same geometry.
    """

    def __init__(self, superblocks: SuperblockSet, capacity_bytes: int,
                 store, policy_name: str,
                 overhead_model: OverheadModel = PAPER_MODEL,
                 track_links: bool = True) -> None:
        self.superblocks = superblocks
        self.capacity_bytes = capacity_bytes
        self.store = store
        self.policy_name = policy_name
        self.model = overhead_model
        self.track_links = track_links
        self._sizes = dict(superblocks.sizes())
        # Live links as one flat set of (source, target) pairs.
        self._live: set[tuple[int, int]] = set()
        self._intra: set[tuple[int, int]] = set()
        self._established_intra = 0
        self._established_inter = 0
        self._peak_backpointer = 0

    # -- Construction --------------------------------------------------------

    @classmethod
    def for_unit_policy(cls, superblocks: SuperblockSet,
                        capacity_bytes: int, unit_count: int,
                        overhead_model: OverheadModel = PAPER_MODEL,
                        track_links: bool = True) -> "ReferenceSimulator":
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        max_block = superblocks.max_block_bytes
        # Same clamp as UnitFifoPolicy.configure: a unit must always be
        # able to hold the largest superblock.
        clamped = min(unit_count, max(1, capacity_bytes // max_block))
        clamped = max(1, clamped)
        name = "FLUSH" if unit_count == 1 else f"{unit_count}-unit"
        store = _ReferenceUnitStore(capacity_bytes, clamped,
                                    dict(superblocks.sizes()))
        if max_block > store.unit_capacity:
            raise ConfigurationError(
                f"unit capacity {store.unit_capacity} B cannot hold the "
                f"largest superblock ({max_block} B)"
            )
        return cls(superblocks, capacity_bytes, store, name,
                   overhead_model=overhead_model, track_links=track_links)

    @classmethod
    def for_fine_fifo(cls, superblocks: SuperblockSet, capacity_bytes: int,
                      overhead_model: OverheadModel = PAPER_MODEL,
                      track_links: bool = True) -> "ReferenceSimulator":
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        if superblocks.max_block_bytes > capacity_bytes:
            raise ConfigurationError(
                "cache capacity cannot hold the largest superblock"
            )
        store = _ReferenceFifoStore(capacity_bytes, dict(superblocks.sizes()))
        return cls(superblocks, capacity_bytes, store, "FIFO",
                   overhead_model=overhead_model, track_links=track_links)

    @classmethod
    def for_lru(cls, superblocks: SuperblockSet, capacity_bytes: int,
                overhead_model: OverheadModel = PAPER_MODEL,
                track_links: bool = True) -> "ReferenceSimulator":
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        max_block = superblocks.max_block_bytes
        if max_block > capacity_bytes:
            # Same wording as LruPolicy.configure, so both sides reject
            # an impossible geometry identically.
            raise ConfigurationError(
                f"cache capacity {capacity_bytes} B cannot hold the "
                f"largest superblock ({max_block} B)"
            )
        store = _ReferenceLruStore(capacity_bytes, dict(superblocks.sizes()))
        return cls(superblocks, capacity_bytes, store, "LRU",
                   overhead_model=overhead_model, track_links=track_links)

    @classmethod
    def for_preempt(cls, superblocks: SuperblockSet, capacity_bytes: int,
                    fast_alpha: float = 0.01, slow_alpha: float = 0.0005,
                    spike_ratio: float = 1.8,
                    min_fill_fraction: float = 0.5,
                    warmup_accesses: int = 2000,
                    cooldown_accesses: int = 2000,
                    overhead_model: OverheadModel = PAPER_MODEL,
                    track_links: bool = True) -> "ReferenceSimulator":
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        max_block = superblocks.max_block_bytes
        if max_block > capacity_bytes:
            raise ConfigurationError(
                f"unit capacity {capacity_bytes} B cannot hold the "
                f"largest superblock ({max_block} B)"
            )
        store = _ReferencePreemptStore(
            capacity_bytes, dict(superblocks.sizes()),
            fast_alpha=fast_alpha, slow_alpha=slow_alpha,
            spike_ratio=spike_ratio, min_fill_fraction=min_fill_fraction,
            warmup_accesses=warmup_accesses,
            cooldown_accesses=cooldown_accesses,
        )
        return cls(superblocks, capacity_bytes, store, "PREEMPT",
                   overhead_model=overhead_model, track_links=track_links)

    @classmethod
    def for_priority(cls, superblocks: SuperblockSet, capacity_bytes: int,
                     expression, name: str = "priority",
                     overhead_model: OverheadModel = PAPER_MODEL,
                     track_links: bool = True) -> "ReferenceSimulator":
        """Reference for a priority-function policy scoring with
        *expression* (a :mod:`repro.search.expr` tree)."""
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        max_block = superblocks.max_block_bytes
        if max_block > capacity_bytes:
            raise ConfigurationError(
                f"cache capacity {capacity_bytes} B cannot hold the "
                f"largest superblock ({max_block} B)"
            )
        store = _ReferencePriorityStore(capacity_bytes, superblocks,
                                        expression)
        return cls(superblocks, capacity_bytes, store, name,
                   overhead_model=overhead_model, track_links=track_links)

    # -- Link semantics (from the spec, not from LinkManager) ---------------

    def _establish_links(self, sid: int) -> None:
        store = self.store
        new_pairs: list[tuple[int, int]] = []
        for target in self.superblocks.outgoing(sid):
            if target == sid or store.resident(target):
                new_pairs.append((sid, target))
        for source in self.superblocks.incoming(sid):
            if source != sid and store.resident(source):
                new_pairs.append((source, sid))
        for pair in new_pairs:
            if pair in self._live:
                continue
            self._live.add(pair)
            source, target = pair
            if source == target or (
                store.unit_key(source) == store.unit_key(target)
            ):
                self._intra.add(pair)
                self._established_intra += 1
            else:
                self._established_inter += 1
        table = BACKPOINTER_ENTRY_BYTES * len(self._live)
        if table > self._peak_backpointer:
            self._peak_backpointer = table

    def _drop_links(self, evicted: tuple[int, ...]) -> list[tuple[int, int]]:
        """Remove every link touching *evicted*; return ``(sid, surviving
        incoming count)`` records for blocks that needed unpatching."""
        evicted_set = set(evicted)
        records = []
        for sid in evicted:
            surviving = sum(
                1 for (source, target) in self._live
                if target == sid and source not in evicted_set
            )
            if surviving:
                records.append((sid, surviving))
        dead = {
            pair for pair in self._live
            if pair[0] in evicted_set or pair[1] in evicted_set
        }
        self._live -= dead
        self._intra -= dead
        return records

    # -- Replay --------------------------------------------------------------

    def _account_eviction(self, blocks: tuple[int, ...],
                          stats: SimulationStats) -> int:
        """Count one eviction invocation (and its unlinking) into
        *stats*; returns the number of links removed."""
        stats.eviction_invocations += 1
        stats.evicted_blocks += len(blocks)
        stats.evicted_bytes += sum(self._sizes[s] for s in blocks)
        links_removed = 0
        if self.track_links:
            for _, count in self._drop_links(blocks):
                stats.unlink_operations += 1
                stats.links_removed += count
                links_removed += count
        return links_removed

    def run(self, trace, benchmark: str = "") -> ReferenceResult:
        """Replay *trace*; return final stats and the per-access log."""
        if hasattr(trace, "tolist"):
            trace = trace.tolist()
        stats = SimulationStats(policy_name=self.policy_name,
                                benchmark=benchmark,
                                overhead_model=self.model)
        outcomes: list[AccessOutcome] = []
        store = self.store
        # Access-watching stores (PREEMPT, priority) expose a
        # pre-residency-decision hook; the production simulator calls
        # ``policy.on_access`` in the same position, with the pre-hook
        # residency probe as the hint.
        before_access = getattr(store, "before_access", None)
        index = 0
        for sid in trace:
            index += 1
            stats.accesses += 1
            events: list[tuple[int, ...]] = []
            links_removed = 0
            if before_access is not None:
                hinted = store.resident(sid)
                preemptive = before_access(sid, hinted)
                if preemptive:
                    stats.preemptive_flushes += len(preemptive)
                    for blocks in preemptive:
                        events.append(blocks)
                        links_removed += self._account_eviction(blocks, stats)
                    # The hook evicted blocks, so the pre-hook residency
                    # probe is stale for this access only.
                    hit = store.resident(sid)
                else:
                    hit = hinted
            else:
                hit = store.resident(sid)
            if hit:
                stats.hits += 1
                store.touch(sid)
                outcomes.append(AccessOutcome(index, sid, True,
                                              tuple(events), links_removed))
                continue
            stats.misses += 1
            size = self._sizes[sid]
            stats.inserted_bytes += size
            for blocks in store.insert(sid, size):
                events.append(blocks)
                links_removed += self._account_eviction(blocks, stats)
            if self.track_links:
                self._establish_links(sid)
            outcomes.append(
                AccessOutcome(index, sid, False, tuple(events),
                              links_removed)
            )
        if self.track_links:
            stats.links_established_intra = self._established_intra
            stats.links_established_inter = self._established_inter
            stats.peak_backpointer_bytes = self._peak_backpointer
        return ReferenceResult(stats=stats, outcomes=outcomes)


def reference_ladder(include_fine: bool = True,
                     unit_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32,
                                                     64, 128, 256, 512),
                     include_lru: bool = False,
                     include_preempt: bool = False):
    """Factories mirroring :func:`repro.core.policies.granularity_ladder`.

    Returns ``(name, build)`` pairs where ``build(superblocks, capacity,
    model, track_links)`` yields the matching :class:`ReferenceSimulator`;
    names match the production ladder's so results join on policy name.
    ``include_lru`` appends the Section 3.3 LRU arena last (off by
    default: it is a study policy, not a rung of the paper's ladder);
    ``include_preempt`` likewise appends Dynamo's preemptive flush with
    the production defaults.
    """
    rungs = []
    for count in unit_counts:
        name = "FLUSH" if count == 1 else f"{count}-unit"

        def build(superblocks, capacity, model=PAPER_MODEL,
                  track_links=True, count=count):
            return ReferenceSimulator.for_unit_policy(
                superblocks, capacity, count,
                overhead_model=model, track_links=track_links)

        rungs.append((name, build))
    if include_fine:
        def build_fine(superblocks, capacity, model=PAPER_MODEL,
                       track_links=True):
            return ReferenceSimulator.for_fine_fifo(
                superblocks, capacity,
                overhead_model=model, track_links=track_links)

        rungs.append(("FIFO", build_fine))
    if include_lru:
        def build_lru(superblocks, capacity, model=PAPER_MODEL,
                      track_links=True):
            return ReferenceSimulator.for_lru(
                superblocks, capacity,
                overhead_model=model, track_links=track_links)

        rungs.append(("LRU", build_lru))
    if include_preempt:
        def build_preempt(superblocks, capacity, model=PAPER_MODEL,
                          track_links=True):
            return ReferenceSimulator.for_preempt(
                superblocks, capacity,
                overhead_model=model, track_links=track_links)

        rungs.append(("PREEMPT", build_preempt))
    return rungs
