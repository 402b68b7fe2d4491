"""The trace-driven code cache simulator — the paper's core methodology.

The paper replayed DynamoRIO's verbose logs ("the actual code regions
that a code cache would manage including actual region sizes and
inter-region links") through a code cache simulator, then attached the
analytical overhead penalties of Equations 2-4.  This module is that
simulator: it consumes a stream of superblock accesses, maintains the
cache under a chosen eviction policy, tracks chaining links, and counts
every miss, eviction invocation and unlink operation.  The overheads of
Equations 2-4 are priced from those counts by the stats record (see
:class:`~repro.core.metrics.SimulationStats`).

It has two entry points over the same per-access semantics.
:meth:`CodeCacheSimulator.process` replays a whole trace in one loop:
it is the reference the sweep's one-pass C kernel
(:mod:`repro.analysis.kernel`) is checked against, the engine of checked
runs and the differential oracle, and the sweep's engine on hosts
without a C compiler.  :meth:`CodeCacheSimulator.step` serves one access
at a time to the multi-tenant service.  A test replays every policy
kind through both and compares the records.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.cache import ConfigurationError
from repro.core.invariants import InvariantChecker, resolve_check_level
from repro.core.links import LinkManager
from repro.core.metrics import SimulationStats
from repro.core.overhead import OverheadModel, PAPER_MODEL
from repro.core.policies import EvictionPolicy
from repro.core.superblock import SuperblockSet

#: Per-access observer: ``(index, sid, hit, evictions, links_removed)``
#: where ``evictions`` is a tuple of evicted-block tuples (one per
#: eviction invocation this access triggered) and ``links_removed`` is
#: the number of links unpatched servicing it.  The differential oracle
#: (:mod:`repro.analysis.diffcheck`) uses this to compare per-access
#: outcomes against the reference model.
AccessObserver = Callable[[int, int, bool, tuple, int], None]


class CodeCacheSimulator:
    """Replays a superblock access trace against one policy configuration.

    Parameters
    ----------
    superblocks:
        The workload's superblock population (sizes and link graph).
    policy:
        An (unconfigured) eviction policy; the simulator configures it
        for *capacity_bytes*.
    capacity_bytes:
        The bounded code cache size — typically ``maxCache / n`` for a
        cache pressure factor ``n`` (Section 4.2).
    overhead_model:
        Instruction-cost model; defaults to the paper's coefficients.
    track_links:
        When false, chaining links are ignored entirely: no link
        bookkeeping and no Equation 4 charges.  Figures 6-11 use this
        mode; Figures 13-15 enable it.
    check_level:
        Invariant-checking level (``off``/``light``/``paranoid``); when
        ``None``, ``REPRO_CHECK_LEVEL`` decides (default ``off``).  At
        ``off`` no checker is constructed and replay runs no check
        step.  See :mod:`repro.core.invariants`.
    check_context:
        Extra identity (spec seed, scale, ...) for the repro bundle an
        :class:`~repro.core.invariants.InvariantViolation` carries.
    configure_policy:
        When false, *policy* arrives already configured — the service
        tier's snapshot restore hands over a policy whose cache state
        was deserialized and must not be reset.
    """

    def __init__(
        self,
        superblocks: SuperblockSet,
        policy: EvictionPolicy,
        capacity_bytes: int,
        overhead_model: OverheadModel = PAPER_MODEL,
        track_links: bool = True,
        check_level: str | None = None,
        check_context: Mapping | None = None,
        configure_policy: bool = True,
    ) -> None:
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        self.superblocks = superblocks
        self.policy = policy
        self.capacity_bytes = capacity_bytes
        self.overhead_model = overhead_model
        if configure_policy:
            policy.configure(capacity_bytes, superblocks.max_block_bytes)
        self.links = LinkManager(superblocks, policy) if track_links else None
        level = resolve_check_level(check_level)
        self.check_level = level
        self.checker = None if level == "off" else InvariantChecker(
            policy, superblocks, capacity_bytes, links=self.links,
            level=level, context=check_context,
        )
        #: Cadence countdown for the streaming :meth:`step` entry point.
        self._step_until_check = (
            self.checker.cadence if self.checker is not None else 0
        )

    def process(self, trace: Iterable[int], benchmark: str = "",
                observer: AccessObserver | None = None) -> SimulationStats:
        """Replay *trace* (an iterable of superblock ids); return stats.

        The record counts this call's accesses only, link establishments
        included, so a trace replayed in windows on one simulator (as
        :func:`repro.analysis.timeline.record_timeline` does) sums to
        the whole-trace record; ``peak_backpointer_bytes`` is the link
        table's running peak.

        One loop serves every configuration, and each optional step in
        it runs only when it has work: the policy's ``on_access`` hook
        when the policy defines one, link bookkeeping when links are
        tracked, insertion-order notes at ``paranoid`` (the only level
        that reads them), the check cadence when a checker exists, and
        *observer* when one is passed.  A checked trace always ends with
        a full check pass, whatever the cadence.
        """
        stats = SimulationStats(policy_name=self.policy.name,
                                benchmark=benchmark,
                                overhead_model=self.overhead_model)
        if hasattr(trace, "tolist"):
            # Plain ints hash measurably faster than numpy scalars in
            # the dict lookups that dominate the hot loop.
            trace = trace.tolist()
        policy = self.policy
        links = self.links
        checker = self.checker
        sizes = self.superblocks.sizes()
        contains = policy.contains
        insert = policy.insert
        account = self._account_evictions
        on_access = (None if type(policy).on_access is EvictionPolicy.on_access
                     else policy.on_access)
        on_insert = None if links is None else links.on_insert
        note_insert = None
        cadence = 0
        if checker is not None:
            if benchmark:
                checker.context.setdefault("benchmark", benchmark)
            checker.start_record()
            cadence = checker.cadence
            if checker.level == "paranoid":
                note_insert = checker.note_insert
        until_check = cadence
        if links is not None:
            intra_before = links.established_intra
            inter_before = links.established_inter
        # Hit, miss and byte counts live in locals and reach the record
        # before each check pass and at the end.
        index = hits = misses = inserted_bytes = removed_before = 0
        for index, sid in enumerate(trace, 1):
            if on_access is None:
                hit = contains(sid)
            else:
                hinted = contains(sid)
                preemptive = on_access(sid, hinted)
                if preemptive:
                    stats.preemptive_flushes += len(preemptive)
                    account(preemptive, stats)
                    # The hook evicted blocks (e.g. a preemptive flush),
                    # so the pre-hook residency probe is stale for this
                    # access only.
                    hit = contains(sid)
                else:
                    hit = hinted
            if hit:
                hits += 1
            else:
                misses += 1
                size = sizes[sid]
                inserted_bytes += size
                evicted = insert(sid, size)
                if evicted:
                    account(evicted, stats)
                if note_insert is not None:
                    note_insert(sid)
                if on_insert is not None:
                    on_insert(sid)
            if observer is not None:
                events = [*preemptive] if on_access is not None else []
                if not hit:
                    events += evicted
                observer(index, sid, hit,
                         tuple(event.blocks for event in events),
                         stats.links_removed - removed_before)
                removed_before = stats.links_removed
            if checker is not None:
                until_check -= 1
                if until_check <= 0:
                    until_check = cadence
                    (stats.accesses, stats.hits, stats.misses,
                     stats.inserted_bytes) = (index, hits, misses,
                                              inserted_bytes)
                    checker.run_checks(stats, access_index=index, sid=sid)
        (stats.accesses, stats.hits, stats.misses,
         stats.inserted_bytes) = index, hits, misses, inserted_bytes
        if checker is not None:
            checker.run_checks(stats, access_index=index)
        if links is not None:
            stats.links_established_intra = (links.established_intra
                                             - intra_before)
            stats.links_established_inter = (links.established_inter
                                             - inter_before)
            stats.peak_backpointer_bytes = links.peak_backpointer_bytes
        return stats

    def step(self, sid: int, stats: SimulationStats,
             on_evictions=None, before_insert=None) -> tuple[bool, list]:
        """Process a single access, accumulating into *stats*.

        This is the streaming entry point the multi-tenant service
        (:mod:`repro.service`) builds on: each tenant owns its own
        :class:`SimulationStats` record and the caller decides which one
        each access is charged to.  Returns ``(hit, events)`` where
        *events* are the eviction invocations the insertion triggered.

        Parameters
        ----------
        on_evictions:
            ``(events, stats) -> None`` override for eviction
            accounting.  The default charges everything to *stats*; a
            multi-tenant caller instead attributes each evicted block to
            its owning tenant.
        before_insert:
            ``(sid, size) -> None`` hook called on a miss after the size
            is known but before the policy inserts — the seam where
            tenancy quota reclaim frees the tenant's own space so the
            shared policy does not have to evict other tenants' blocks.

        The checker (when enabled) observes insertions and runs at its
        cadence against *stats*; callers that split stats across tenants
        should construct the simulator with ``check_level='off'`` and
        drive an external checker against merged stats instead.

        Every other counter matches :meth:`process` over the same trace,
        but ``links_established_intra``, ``links_established_inter`` and
        ``peak_backpointer_bytes`` stay untouched: only :meth:`process`
        reports them.
        """
        policy = self.policy
        stats.accesses += 1
        if type(policy).on_access is not EvictionPolicy.on_access:
            hinted = policy.contains(sid)
            preemptive = policy.on_access(sid, hinted)
            if preemptive:
                stats.preemptive_flushes += len(preemptive)
                if on_evictions is None:
                    self._account_evictions(preemptive, stats)
                else:
                    on_evictions(preemptive, stats)
                hit = policy.contains(sid)
            else:
                hit = hinted
        else:
            hit = policy.contains(sid)
        checker = self.checker
        if hit:
            stats.hits += 1
            events: list = []
        else:
            stats.misses += 1
            size = self.superblocks.sizes()[sid]
            if before_insert is not None:
                before_insert(sid, size)
            stats.inserted_bytes += size
            events = policy.insert(sid, size)
            if events:
                if on_evictions is None:
                    self._account_evictions(events, stats)
                else:
                    on_evictions(events, stats)
            if checker is not None:
                checker.note_insert(sid)
            if self.links is not None:
                self.links.on_insert(sid)
        if checker is not None:
            self._step_until_check -= 1
            if self._step_until_check <= 0:
                self._step_until_check = checker.cadence
                checker.run_checks(stats, access_index=stats.accesses,
                                   sid=sid)
        return hit, events

    def _account_evictions(self, events, stats: SimulationStats) -> None:
        """Count a batch of eviction events and their unlinking."""
        links = self.links
        for event in events:
            stats.eviction_invocations += 1
            stats.evicted_blocks += len(event.blocks)
            stats.evicted_bytes += event.bytes_evicted
            if links is not None:
                for record in links.on_evict(event.blocks):
                    stats.unlink_operations += 1
                    stats.links_removed += record.links_removed


def simulate(
    superblocks: SuperblockSet,
    policy: EvictionPolicy,
    capacity_bytes: int,
    trace: Iterable[int],
    overhead_model: OverheadModel = PAPER_MODEL,
    track_links: bool = True,
    benchmark: str = "",
    check_level: str | None = None,
    check_context: Mapping | None = None,
) -> SimulationStats:
    """One-shot convenience wrapper: build a simulator and replay *trace*."""
    simulator = CodeCacheSimulator(
        superblocks,
        policy,
        capacity_bytes,
        overhead_model=overhead_model,
        track_links=track_links,
        check_level=check_level,
        check_context=check_context,
    )
    return simulator.process(trace, benchmark=benchmark)
