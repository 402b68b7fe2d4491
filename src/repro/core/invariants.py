"""Runtime invariant checking for the code cache simulator.

The paper's conclusions are only as trustworthy as the simulator's
bookkeeping: occupancy accounting (Figures 6-11), FIFO unit ordering
(Figure 8), the inter-unit link graph that drives the Equation 4 unlink
charges (Figures 13-15), and the raw counters Equation 1 is derived
from.  This module is the sanitizer for that bookkeeping — a tiered
:class:`InvariantChecker` the simulator consults while it runs:

``off``
    No checker is constructed at all; the simulator's one replay loop
    skips the cadence countdown and the insertion-order notes.
``light``
    Cheap conservation checks (occupancy vs. the sum of resident
    superblock sizes, hits + misses == accesses, byte conservation,
    Equation 1 re-derivation) every :data:`LIGHT_CADENCE` accesses.
``paranoid``
    Everything ``light`` checks plus per-unit capacity bounds, FIFO age
    ordering inside every unit and circular buffer, stable unit keys,
    bidirectional :class:`~repro.core.links.LinkManager` consistency
    (no dangling links to evicted blocks, every incoming record mirrored
    by an outgoing one), generational promote-count / membership
    consistency, and — for the Section 3.3 LRU study — byte-arena
    free-list soundness (holes sorted, positive, coalesced; placed
    blocks and holes partitioning the capacity exactly; placement,
    recency order and ground-truth sizes all agreeing), every
    :data:`PARANOID_CADENCE` accesses.

The level comes from the ``--check`` CLI flag or the
``REPRO_CHECK_LEVEL`` environment variable (which process-pool sweep
workers inherit); the cadence keeps even ``paranoid`` affordable on long
traces, and a final check always runs when a trace ends.  A violation
raises :class:`InvariantViolation` carrying a serialized repro bundle —
workload identity, seed, access index, and a state snapshot — so a
failure seen once in a million-access sweep can be reproduced exactly.

Self-test: arming a :mod:`repro.faults` ``raise`` spec at one of the
``cache.*`` state points (:data:`repro.faults.STATE_POINTS`) makes the
checker *deterministically corrupt the live state* at its next check
boundary — occupancy drift, a FIFO order scramble, a one-sided link
record, or a conservation-breaking counter bump — which the same check
pass must then detect.  Tests assert every injected corruption is
caught; a checker that can't see planted bugs isn't checking anything.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

from repro import faults
from repro.core.cache import (
    CircularBlockBuffer,
    ConfigurationError,
    UnitCache,
)
from repro.core.metrics import SimulationStats, unified_miss_rate

ENV_CHECK_LEVEL = "REPRO_CHECK_LEVEL"

CHECK_LEVELS = ("off", "light", "paranoid")

#: Accesses between check passes at each level.  ``paranoid`` walks the
#: whole cache/link state each pass, so its cadence is the knob that
#: keeps it usable on long traces; a final pass always runs at trace end.
LIGHT_CADENCE = 4096
PARANOID_CADENCE = 128


def resolve_check_level(explicit: str | None = None) -> str:
    """The effective check level: *explicit*, else ``REPRO_CHECK_LEVEL``,
    else ``off``.  Unknown levels are rejected up front with the valid
    choices spelled out, not deep inside the simulator loop."""
    level = explicit
    if level is None:
        level = os.environ.get(ENV_CHECK_LEVEL, "").strip().lower() or "off"
    level = level.strip().lower()
    if level not in CHECK_LEVELS:
        raise ConfigurationError(
            f"unknown check level {level!r}; expected one of "
            f"{', '.join(CHECK_LEVELS)} (via --check or {ENV_CHECK_LEVEL})"
        )
    return level


def default_cadence(level: str) -> int:
    return LIGHT_CADENCE if level == "light" else PARANOID_CADENCE


class InvariantViolation(AssertionError):
    """The simulator's state broke an invariant.

    Carries a repro ``bundle`` (also serialized as ``bundle_json``):
    what failed, where in the trace, the workload/policy identity
    needed to regenerate the run, and a bounded state snapshot.
    """

    def __init__(self, violations: list[str], bundle: dict) -> None:
        summary = "; ".join(violations[:3])
        if len(violations) > 3:
            summary += f"; ... ({len(violations)} violations total)"
        super().__init__(
            f"simulator invariant violation at access "
            f"{bundle.get('access_index')}: {summary}"
        )
        self.violations = list(violations)
        self.bundle = bundle

    @property
    def bundle_json(self) -> str:
        return json.dumps(self.bundle, indent=2, sort_keys=True,
                          default=str)


def _snapshot_ids(ids, limit: int = 64) -> dict:
    """A bounded view of a block-id collection for the repro bundle."""
    ordered = sorted(ids)
    return {
        "count": len(ordered),
        "first": ordered[:limit],
        "truncated": len(ordered) > limit,
    }


class InvariantChecker:
    """Validates simulator state against its ground truth.

    Parameters
    ----------
    policy:
        The (configured) eviction policy under check.
    superblocks:
        The workload population; its sizes are the ground truth for all
        occupancy accounting.
    capacity_bytes:
        The cache capacity the policy was configured for.
    links:
        The run's :class:`~repro.core.links.LinkManager`, or ``None``
        when links are untracked.
    level:
        ``light`` or ``paranoid`` (an ``off`` checker is never built).
    cadence:
        Accesses between check passes; defaults per level.
    context:
        Extra repro-bundle identity (benchmark name, spec seed, scale,
        ...) merged into every violation's bundle.
    """

    def __init__(
        self,
        policy,
        superblocks,
        capacity_bytes: int,
        links=None,
        level: str = "paranoid",
        cadence: int | None = None,
        context: Mapping | None = None,
    ) -> None:
        if level not in CHECK_LEVELS or level == "off":
            raise ConfigurationError(
                f"an InvariantChecker needs level 'light' or 'paranoid', "
                f"got {level!r}"
            )
        if cadence is not None and cadence < 1:
            raise ConfigurationError(
                f"check cadence must be >= 1, got {cadence}"
            )
        self.policy = policy
        self.superblocks = superblocks
        self.capacity_bytes = capacity_bytes
        self.links = links
        self.level = level
        self.cadence = cadence if cadence is not None else default_cadence(level)
        self.context = dict(context or {})
        self.checks_run = 0
        self._sizes = dict(superblocks.sizes())
        #: Monotonic insertion sequence per block, for FIFO age ordering.
        self._seq: dict[int, int] = {}
        self._next_seq = 0
        #: Bytes resident when the checked stats record started.
        self._start_bytes = 0

    # -- Simulator notifications -------------------------------------------

    def note_insert(self, sid: int) -> None:
        """Record the insertion order of *sid* on a miss; only the
        ``paranoid`` FIFO check reads it."""
        self._next_seq += 1
        self._seq[sid] = self._next_seq

    def start_record(self) -> None:
        """A fresh stats record starts now: byte conservation counts
        its inserted and evicted bytes from the bytes resident now,
        which earlier records (an earlier ``process()`` call on the same
        simulator) may have left behind."""
        self._start_bytes = sum(self._sizes.get(s, 0)
                                for s in self.policy.resident_ids())

    def register_block(self, sid: int, size_bytes: int) -> None:
        """Teach the checker a block's ground-truth size after
        construction.

        The trace-driven simulator knows its whole population up front;
        dynamic producers (the DBT runtime forming superblocks, the
        multi-tenant service attaching tenants) register sizes as blocks
        come into existence instead.
        """
        self._sizes[sid] = size_bytes

    # -- The check pass -----------------------------------------------------

    def run_checks(self, stats: SimulationStats | None = None,
                   access_index: int | None = None,
                   sid: int | None = None) -> None:
        """One full check pass at the current level; raises
        :class:`InvariantViolation` on the first pass that fails."""
        self._apply_armed_corruptions(stats)
        self.checks_run += 1
        violations: list[str] = []
        resident = self.policy.resident_ids()
        self._check_occupancy(resident, violations)
        if stats is not None:
            self._check_metrics(stats, resident, violations)
        if self.level == "paranoid":
            self._check_units(resident, violations)
            self._check_fifo_order(violations)
            self._check_links(resident, violations)
            self._check_generations(violations)
            self._check_arena(resident, violations)
            self._check_placement(resident, violations)
        if violations:
            raise InvariantViolation(
                violations,
                self._bundle(violations, resident, stats,
                             access_index=access_index, sid=sid),
            )

    # Individual invariants ------------------------------------------------

    def _check_occupancy(self, resident: set[int],
                         violations: list[str]) -> None:
        """Occupancy == sum of resident superblock sizes, within bounds."""
        unknown = [s for s in resident if s not in self._sizes]
        if unknown:
            violations.append(
                f"resident blocks unknown to the workload: {sorted(unknown)[:8]}"
            )
            return
        expected = sum(self._sizes[s] for s in resident)
        if expected > self.capacity_bytes:
            violations.append(
                f"resident bytes {expected} exceed capacity "
                f"{self.capacity_bytes}"
            )
        total_cached = 0
        cached_ids: set[int] = set()
        caches = self.policy.internal_caches()
        for cache in caches:
            total_cached += cache.used_bytes
            ids = cache.resident_ids()
            if cached_ids & ids:
                violations.append(
                    f"block(s) resident in two caches: "
                    f"{sorted(cached_ids & ids)[:8]}"
                )
            cached_ids |= ids
        if caches:
            if cached_ids != resident:
                violations.append(
                    f"cache residency ({len(cached_ids)} blocks) disagrees "
                    f"with policy.resident_ids() ({len(resident)} blocks)"
                )
            if total_cached != expected:
                violations.append(
                    f"cache used_bytes {total_cached} != sum of resident "
                    f"superblock sizes {expected} (occupancy drift)"
                )

    def _check_units(self, resident: set[int],
                     violations: list[str]) -> None:
        """Per-unit capacity bounds and internal byte accounting."""
        for cache in self.policy.internal_caches():
            if isinstance(cache, UnitCache):
                for unit in cache.units:
                    unit_bytes = sum(self._sizes.get(s, 0) for s in unit.blocks)
                    if unit.used_bytes != unit_bytes:
                        violations.append(
                            f"unit {unit.index} used_bytes {unit.used_bytes} "
                            f"!= sum of its block sizes {unit_bytes}"
                        )
                    if unit.used_bytes > unit.capacity_bytes:
                        violations.append(
                            f"unit {unit.index} over capacity: "
                            f"{unit.used_bytes} > {unit.capacity_bytes}"
                        )
                    for s in unit.blocks:
                        if s in cache._unit_of and cache._unit_of[s] != unit.index:
                            violations.append(
                                f"block {s} recorded in unit "
                                f"{cache._unit_of[s]} but stored in unit "
                                f"{unit.index}"
                            )
            elif isinstance(cache, CircularBlockBuffer):
                queue = list(cache._queue)
                if len(queue) != len(set(queue)):
                    violations.append("circular buffer queue has duplicates")
                if set(queue) != cache.resident_ids():
                    violations.append(
                        "circular buffer queue disagrees with its size map"
                    )
                if cache.used_bytes > cache.capacity_bytes:
                    violations.append(
                        f"circular buffer over capacity: "
                        f"{cache.used_bytes} > {cache.capacity_bytes}"
                    )

    def _check_fifo_order(self, violations: list[str]) -> None:
        """Blocks inside each FIFO structure must sit in insertion order."""
        for cache in self.policy.internal_caches():
            if isinstance(cache, UnitCache):
                sequences = (unit.blocks for unit in cache.units)
                where = "unit"
            elif isinstance(cache, CircularBlockBuffer):
                sequences = (list(cache._queue),)
                where = "circular buffer"
            else:  # pragma: no cover - no other cache kinds exist today
                continue
            for blocks in sequences:
                ages = [self._seq[s] for s in blocks if s in self._seq]
                if ages != sorted(ages):
                    violations.append(
                        f"FIFO age order broken in {where}: insertion "
                        f"sequence {ages[:12]} is not monotonic"
                    )

    def _check_links(self, resident: set[int],
                     violations: list[str]) -> None:
        """Bidirectional link-map consistency and no dangling endpoints."""
        links = self.links
        if links is None:
            return
        out_pairs = links.live_links()
        in_pairs = links.incoming_pairs()
        if out_pairs != in_pairs:
            one_sided = out_pairs.symmetric_difference(in_pairs)
            violations.append(
                f"link maps disagree: {len(one_sided)} one-sided record(s), "
                f"e.g. {sorted(one_sided)[:4]}"
            )
        for source, target in out_pairs | in_pairs:
            if source not in resident or target not in resident:
                violations.append(
                    f"dangling link ({source} -> {target}): endpoint not "
                    "resident"
                )
                break
        if links.live_link_count != len(out_pairs):
            violations.append(
                f"live_link_count {links.live_link_count} != "
                f"{len(out_pairs)} recorded links"
            )
        if links.live_intra_count < 0 or links.live_inter_count < 0:
            violations.append("negative intra/inter live link count")

    def _check_generations(self, violations: list[str]) -> None:
        """Generational-policy promote-count / membership consistency.

        A block lives in the persistent region iff it was re-inserted
        after at least ``promote_after`` evictions; a resident nursery
        block's evict count cannot reach the threshold (counts only grow
        when a block is evicted), and every persistent resident implies
        a recorded promotion.
        """
        from repro.core.policies import GenerationalPolicy

        policy = self.policy
        if not isinstance(policy, GenerationalPolicy) or \
                policy._nursery is None:
            return
        nursery = policy._nursery.resident_ids()
        persistent = policy._persistent.resident_ids()
        overlap = nursery & persistent
        if overlap:
            violations.append(
                f"block(s) resident in both generations: "
                f"{sorted(overlap)[:8]}"
            )
        counts = policy._evict_counts
        threshold = policy.promote_after
        demoted = [s for s in persistent if counts[s] < threshold]
        if demoted:
            violations.append(
                f"persistent-region block(s) with evict count below "
                f"promote_after={threshold}: {sorted(demoted)[:8]}"
            )
        unpromoted = [s for s in nursery if counts[s] >= threshold]
        if unpromoted:
            violations.append(
                f"nursery block(s) at or past the promotion threshold "
                f"promote_after={threshold}: {sorted(unpromoted)[:8]}"
            )
        if policy.promotions < len(persistent):
            violations.append(
                f"promotions counter {policy.promotions} below the "
                f"{len(persistent)} persistent resident(s) it must cover"
            )

    def _check_arena(self, resident: set[int],
                     violations: list[str]) -> None:
        """LRU byte-arena soundness: free-list shape and fragmentation
        accounting.

        The free list must be sorted by offset with positive,
        non-overlapping, fully-coalesced holes (an uncoalesced pair
        inflates :attr:`~repro.core.lru.LruPolicy.external_fragmentation`
        and can force phantom fragmentation evictions); placed blocks
        plus holes must partition the capacity byte-exactly; and the
        placement map, the LRU recency order and the workload's
        ground-truth sizes must all agree.
        """
        from repro.core.lru import LruPolicy

        policy = self.policy
        if not isinstance(policy, LruPolicy) or policy._arena is None:
            return
        arena = policy._arena
        holes = list(arena.holes)
        if holes != sorted(holes):
            violations.append("arena free list is not sorted by offset")
            holes.sort()
        bad_sizes = [(o, s) for o, s in holes if s <= 0]
        if bad_sizes:
            violations.append(
                f"arena hole(s) with non-positive size: {bad_sizes[:4]}"
            )
        for (o1, s1), (o2, _) in zip(holes, holes[1:]):
            if o1 + s1 > o2:
                violations.append(
                    f"arena holes overlap: ({o1}, {s1}) runs into "
                    f"offset {o2}"
                )
            elif o1 + s1 == o2:
                violations.append(
                    f"adjacent arena holes not coalesced: ({o1}, {s1}) "
                    f"and ({o2}, ...)"
                )
        segments = sorted(
            [(offset, size, f"block {sid}")
             for sid, (offset, size) in arena.placed.items()]
            + [(offset, size, "hole") for offset, size in holes]
        )
        cursor = 0
        for offset, size, what in segments:
            if offset != cursor:
                kind = "gap" if offset > cursor else "overlap"
                violations.append(
                    f"arena {kind} at byte {cursor}: next segment "
                    f"({what}) starts at {offset}"
                )
                break
            cursor = offset + size
        else:
            if cursor != arena.capacity:
                violations.append(
                    f"arena segments cover {cursor} of "
                    f"{arena.capacity} bytes"
                )
        size_drift = [
            (sid, size, self._sizes[sid])
            for sid, (_, size) in arena.placed.items()
            if sid in self._sizes and size != self._sizes[sid]
        ]
        if size_drift:
            violations.append(
                f"arena placement size disagrees with ground truth: "
                f"{size_drift[:4]}"
            )
        placed_ids = set(arena.placed)
        if placed_ids != set(policy._recency):
            drift = placed_ids.symmetric_difference(policy._recency)
            violations.append(
                f"arena placement and LRU recency disagree on "
                f"{sorted(drift)[:8]}"
            )
        if placed_ids != resident:
            drift = placed_ids.symmetric_difference(resident)
            violations.append(
                f"arena placement and resident_ids() disagree on "
                f"{sorted(drift)[:8]}"
            )

    def _check_placement(self, resident: set[int],
                         violations: list[str]) -> None:
        """Link-aware placement soundness: partition assignment.

        Every resident superblock must live in exactly one unit, the
        placement label map (``_unit_of``) must agree with the units'
        physical block lists, and each unit's occupancy counter must
        equal the byte sum of the blocks it holds (within its
        capacity).  Placement scatter makes these easy to break — a
        block relabelled without being moved, or moved without its
        bytes following — and the policy keeps no redundant view the
        occupancy check could catch that through.
        """
        from repro.core.placement import LinkAwarePlacementPolicy

        policy = self.policy
        if not isinstance(policy, LinkAwarePlacementPolicy):
            return
        units = policy._units
        if not units:
            return
        seen: dict[int, int] = {}
        for unit in units:
            for sid in unit.blocks:
                if sid in seen:
                    violations.append(
                        f"block {sid} placed in units {seen[sid]} "
                        f"and {unit.index}"
                    )
                seen[sid] = unit.index
        placed = set(seen)
        if placed != resident:
            drift = placed.symmetric_difference(resident)
            violations.append(
                f"unit placement and resident_ids() disagree on "
                f"{sorted(drift)[:8]}"
            )
        if set(policy._unit_of) != placed:
            drift = set(policy._unit_of).symmetric_difference(placed)
            violations.append(
                f"placement label map and unit contents disagree on "
                f"{sorted(drift)[:8]}"
            )
        mislabeled = [
            (sid, label, seen[sid])
            for sid, label in policy._unit_of.items()
            if sid in seen and label != seen[sid]
        ]
        if mislabeled:
            violations.append(
                f"placement label(s) point at the wrong unit "
                f"(sid, label, actual): {sorted(mislabeled)[:4]}"
            )
        for unit in units:
            expected = sum(policy._sizes.get(s, 0) for s in unit.blocks)
            if unit.used_bytes != expected:
                violations.append(
                    f"unit {unit.index} occupancy {unit.used_bytes} != "
                    f"byte sum {expected} of its {len(unit.blocks)} "
                    f"block(s)"
                )
            if unit.used_bytes > unit.capacity_bytes:
                violations.append(
                    f"unit {unit.index} occupancy {unit.used_bytes} "
                    f"exceeds unit capacity {unit.capacity_bytes}"
                )

    def _check_metrics(self, stats: SimulationStats, resident: set[int],
                       violations: list[str]) -> None:
        """Counter conservation and Equation 1 re-derivability."""
        if stats.hits + stats.misses != stats.accesses:
            violations.append(
                f"hits ({stats.hits}) + misses ({stats.misses}) != "
                f"accesses ({stats.accesses})"
            )
        if min(stats.hits, stats.misses, stats.accesses,
               stats.eviction_invocations, stats.evicted_blocks,
               stats.evicted_bytes, stats.inserted_bytes) < 0:
            violations.append("negative counter in SimulationStats")
        resident_bytes = sum(self._sizes.get(s, 0) for s in resident)
        if (stats.inserted_bytes - stats.evicted_bytes
                != resident_bytes - self._start_bytes):
            violations.append(
                f"byte conservation broken: inserted {stats.inserted_bytes} "
                f"- evicted {stats.evicted_bytes} != resident "
                f"{resident_bytes} - {self._start_bytes} at the record's "
                f"start"
            )
        if stats.accesses:
            eq1 = unified_miss_rate([stats])
            if eq1 != stats.misses / stats.accesses:
                violations.append(
                    "Equation 1 not re-derivable from raw counters: "
                    f"{eq1} != {stats.misses}/{stats.accesses}"
                )

    # -- Repro bundle --------------------------------------------------------

    def _bundle(self, violations: list[str], resident: set[int],
                stats: SimulationStats | None,
                access_index: int | None, sid: int | None) -> dict:
        units = []
        for cache in self.policy.internal_caches():
            if isinstance(cache, UnitCache):
                units.extend(
                    {"index": unit.index, "used_bytes": unit.used_bytes,
                     "capacity_bytes": unit.capacity_bytes,
                     "blocks": _snapshot_ids(unit.blocks)}
                    for unit in cache.units
                )
        bundle = {
            "violations": violations,
            "check_level": self.level,
            "check_cadence": self.cadence,
            "access_index": access_index,
            "access_sid": sid,
            "workload": {
                "policy": getattr(self.policy, "name", "?"),
                "capacity_bytes": self.capacity_bytes,
                "superblock_count": len(self.superblocks),
                **self.context,
            },
            "state": {
                "resident": _snapshot_ids(resident),
                "resident_bytes": sum(
                    self._sizes.get(s, 0) for s in resident
                ),
                "units": units,
                "live_links": (self.links.live_link_count
                               if self.links is not None else None),
            },
        }
        if stats is not None:
            bundle["stats"] = stats.to_dict()
        return bundle

    # -- Fault-injection self-test ------------------------------------------

    def _apply_armed_corruptions(self, stats: SimulationStats | None) -> None:
        """Service any armed ``cache.*`` state-corruption faults.

        For each armed point whose corruption is currently applicable
        (there is state to damage), fire the fault registry; a ``raise``
        spec coming back as :class:`~repro.faults.InjectedFault` means
        "corrupt now", and the damage is applied to the live state just
        before the check pass that must catch it.
        """
        if faults.active_plan() is None:
            return
        key = self.context.get("benchmark")
        for point, find in (
            ("cache.occupancy", self._find_occupancy_corruption),
            ("cache.fifo", self._find_fifo_corruption),
            ("cache.links", self._find_link_corruption),
            ("cache.metrics", lambda: self._find_metrics_corruption(stats)),
            ("cache.generation", self._find_generation_corruption),
            ("cache.arena", self._find_arena_corruption),
            ("cache.placement", self._find_placement_corruption),
        ):
            corrupt = find()
            if corrupt is None:
                continue
            try:
                faults.fire(point, key=key)
            except faults.InjectedFault:
                corrupt()

    def _find_occupancy_corruption(self):
        for cache in self.policy.internal_caches():
            if isinstance(cache, UnitCache):
                for unit in cache.units:
                    if unit.blocks:
                        def corrupt(unit=unit):
                            unit.used_bytes += 1
                        return corrupt
            elif isinstance(cache, CircularBlockBuffer):
                if cache.resident_count:
                    def corrupt(cache=cache):
                        cache._used += 1
                    return corrupt
        return None

    def _find_fifo_corruption(self):
        for cache in self.policy.internal_caches():
            if isinstance(cache, UnitCache):
                for unit in cache.units:
                    if len(unit.blocks) >= 2:
                        def corrupt(unit=unit):
                            unit.blocks[0], unit.blocks[-1] = (
                                unit.blocks[-1], unit.blocks[0]
                            )
                        return corrupt
            elif isinstance(cache, CircularBlockBuffer):
                if cache.resident_count >= 2:
                    def corrupt(cache=cache):
                        cache._queue.rotate(1)
                    return corrupt
        return None

    def _find_link_corruption(self):
        links = self.links
        if links is None:
            return None
        for target, sources in links._live_in.items():
            for source in sources:
                if source != target:
                    def corrupt(target=target, source=source):
                        links._live_in[target].discard(source)
                    return corrupt
        return None

    def _find_metrics_corruption(self, stats: SimulationStats | None):
        if stats is None or not stats.accesses:
            return None

        def corrupt():
            stats.hits += 1
        return corrupt

    def _find_arena_corruption(self):
        from repro.core.lru import LruPolicy

        policy = self.policy
        if not isinstance(policy, LruPolicy) or policy._arena is None:
            return None
        arena = policy._arena
        if arena.holes:
            def corrupt(arena=arena):
                offset, size = arena.holes[0]
                if size > 1:
                    # Split one hole into two adjacent, uncoalesced ones
                    # — total free bytes unchanged, free list malformed.
                    arena.holes[0:1] = [(offset, 1),
                                        (offset + 1, size - 1)]
                else:
                    # Inflate the hole so placed + free no longer
                    # partition the capacity.
                    arena.holes[0] = (offset, size + 1)
            return corrupt
        if arena.placed:
            def corrupt(arena=arena):
                # Stretch one placement past its ground-truth size.
                sid = next(iter(arena.placed))
                offset, size = arena.placed[sid]
                arena.placed[sid] = (offset, size + 1)
            return corrupt
        return None

    def _find_placement_corruption(self):
        from repro.core.placement import LinkAwarePlacementPolicy

        policy = self.policy
        if not isinstance(policy, LinkAwarePlacementPolicy) or \
                not policy._units:
            return None
        if not policy._unit_of:
            return None
        sid = min(policy._unit_of)
        if len(policy._units) >= 2:
            def corrupt(sid=sid):
                # Relabel one block without moving it: the label map and
                # the unit's physical contents now disagree.
                policy._unit_of[sid] = (
                    (policy._unit_of[sid] + 1) % len(policy._units)
                )
            return corrupt

        def corrupt(sid=sid):
            # Single clamped unit: break the byte-sum identity instead.
            policy._units[policy._unit_of[sid]].used_bytes += 1
        return corrupt

    def _find_generation_corruption(self):
        from repro.core.policies import GenerationalPolicy

        policy = self.policy
        if not isinstance(policy, GenerationalPolicy) or \
                policy._persistent is None:
            return None
        persistent = policy._persistent.resident_ids()
        if persistent:
            def corrupt(sid=min(persistent)):
                # A persistent resident whose count forgot its history.
                policy._evict_counts[sid] = 0
            return corrupt
        nursery = policy._nursery.resident_ids()
        if nursery:
            def corrupt(sid=min(nursery)):
                # A nursery block that should have been promoted.
                policy._evict_counts[sid] = policy.promote_after
            return corrupt
        return None
