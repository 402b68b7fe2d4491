"""Shared-arena tenancy: many tenants, one code cache, arbitrated space.

One :class:`SharedArena` owns a single
:class:`~repro.core.simulator.CodeCacheSimulator` (one policy, one
capacity) and serves every tenant from it:

* **Arena entries** — each of a tenant's local superblock ids maps to
  an arena entry with its own global id.  Without sharing every entry
  is *private* to the tenant that attached it, so two tenants replaying
  the same benchmark never collide in the shared cache.
* **Per-tenant accounting** — every access is charged to its tenant's
  own :class:`~repro.core.metrics.SimulationStats`; evicted blocks are
  attributed to their *owner* (the tenant whose code was evicted), so
  per-tenant byte conservation (inserted − evicted == resident) holds
  tenant by tenant, and Equation 1 is reportable per tenant and unified.
  Each tenant's overheads are priced from its own counters, so its
  Equation 2 cost covers the eviction invocations its inserts triggered
  and the bytes it lost — not the bytes other tenants lost to its
  inserts.  The unified record merges the counters, so its Equation 2
  cost is the whole service's, and the per-tenant costs sum to it up to
  float rounding.
* **Quotas (Memshare-style)** — each tenant has a hard byte quota on
  resident code.  A miss that would push its owner past the quota first
  reclaims the tenant's *own* oldest blocks (targeted eviction through
  :meth:`~repro.core.policies.EvictionPolicy.evict_blocks`), so the
  shared granularity policy never has to evict a neighbour to absorb an
  over-quota tenant.
* **Cross-tenant reclaim on pressure** — when global occupancy crosses
  a pressure threshold, tenants holding more than their *reserved*
  (weight-proportional) share give space back, most-over-share first,
  until occupancy reaches the reclaim target.  Tenants under their
  reserved share are never touched.
* **Content-hash sharing (ShareJIT-style)** — with ``sharing=True``
  a tenant may key its superblocks by stable content digests, and
  identical translations across tenants become *one* refcounted arena
  entry.  A tenant whose content another tenant already inserted joins
  as a co-owner on a plain cache hit (the dedup win: N tenants running
  the same benchmark occupy ~1× the bytes); per-tenant eviction metadata
  (the insertion-ordered ``resident`` map) stays copy-on-write per
  tenant, so reclaim decisions remain tenant-local.
  Eviction of a shared entry is *deferred* until the last owner
  releases it; a policy-driven eviction attributes the physical bytes
  across the owners with an exact largest-remainder split, and the
  continuous fractional attribution (``attributed_bytes`` =
  Σ size/owners over owned entries, Memshare-style) is what quotas and
  pressure reclaim charge against — so the merged Equation 1 byte
  conservation stays exact under the paranoid invariant checker while
  each tenant's stats reflect only its fair share.  A private entry is
  the one-owner case of the same accounting.

The arena serializes all mutation behind one lock: the simulator, the
policies and the caches underneath are single-threaded by design (the
thread-safety audit in DESIGN.md), and the arena is the one place the
service touches them from.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from repro.core.cache import ConfigurationError
from repro.core.invariants import (
    InvariantChecker,
    InvariantViolation,
    resolve_check_level,
)
from repro.core.metrics import SimulationStats, merge_all, unified_miss_rate
from repro.core.overhead import PAPER_MODEL, OverheadModel
from repro.core.policies import EvictionPolicy
from repro.core.simulator import CodeCacheSimulator

#: Largest superblock any tenant may register (the registry clips
#: Windows-suite sizes at 8 KiB).
DEFAULT_MAX_BLOCK_BYTES = 8192

#: Bumped when the snapshot layout changes incompatibly; part of the
#: fingerprint, so an older snapshot is quarantined, not misread.
#: v3: every tenant's blocks are entries of one table.  v4: a tenant's
#: residency is one insertion-ordered map (no separate FIFO deque).
SNAPSHOT_VERSION = 4


def arena_fingerprint(policy: str, capacity_bytes: int,
                      max_block_bytes: int, sharing: bool) -> dict:
    """The configuration identity a snapshot must match to be
    restorable — a snapshot taken under another layout version, policy,
    geometry, or sharing mode describes a different cache and is
    quarantined."""
    return {
        "version": SNAPSHOT_VERSION,
        "policy": policy,
        "capacity_bytes": capacity_bytes,
        "max_block_bytes": max_block_bytes,
        "sharing": sharing,
    }


def content_digests(benchmark: str, scale: float, seed: int,
                    superblocks) -> list[str]:
    """Stable per-superblock content digests for ShareJIT-style dedup.

    We simulate block *identity* rather than literal machine code, so
    the digest covers everything that determines a translation's bytes
    in this model: the workload identity (benchmark, scale, seed — the
    registry derives sizes and links from these), the block's position,
    its translated size, and its outgoing link set.  Two tenants built
    from the same (benchmark, scale, seed) triple therefore share every
    block; any divergence produces disjoint digests.
    """
    sizes = superblocks.sizes()
    digests = []
    for sid in range(len(sizes)):
        links = ",".join(str(t) for t in sorted(superblocks.outgoing(sid)))
        payload = (f"{benchmark}|{scale:g}|{seed}|{sid}|"
                   f"{sizes[sid]}|{links}")
        digests.append(hashlib.sha256(payload.encode()).hexdigest()[:32])
    return digests


class EntryTable:
    """Every arena entry, indexed by gid (gids are dense, handed out in
    attach order): who owns it, the content-addressed entries by
    digest, and the sharing counters.  Entry sizes live in the
    simulator's size map."""

    def __init__(self) -> None:
        #: gid -> slots of the tenants holding the entry resident (the
        #: deferred-eviction refcount).
        self.owners: list[set[int]] = []
        #: Content digest -> gid.  Private entries have no digest.
        self.by_digest: dict[str, int] = {}
        #: A tenant hit a block another tenant already inserted and
        #: became a co-owner (the dedup win: no miss, no new bytes).
        self.shared_joins = 0
        #: A co-owned block was released by a non-last owner: eviction
        #: deferred, refcount decremented, bytes stayed resident.
        self.deferred_releases = 0
        #: A release found the last owner and physically evicted.
        self.last_owner_evictions = 0
        #: The shared policy evicted a co-owned block (bytes split
        #: across owners largest-remainder).
        self.shared_policy_evictions = 0


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's space entitlement in the shared arena.

    ``quota_bytes`` is the hard cap on the tenant's resident code;
    ``weight`` sets its *reserved* share for pressure reclaim (reserved
    = capacity × weight / Σweights).  A tenant above its reserved share
    is a reclaim donor; one at or below is protected.
    """

    quota_bytes: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.quota_bytes <= 0:
            raise ConfigurationError("quota_bytes must be positive")
        if self.weight <= 0:
            raise ConfigurationError("weight must be positive")


class _ArenaBlocks:
    """The arena's live, growing ground-truth size map.

    Stands in for a :class:`~repro.core.superblock.SuperblockSet`: the
    simulator only needs ``sizes()`` and ``max_block_bytes``, and the
    invariant checker learns sizes through ``register_block`` as
    tenants attach.
    """

    def __init__(self, max_block_bytes: int) -> None:
        self.max_block_bytes = max_block_bytes
        self._sizes: dict[int, int] = {}

    def sizes(self) -> dict[int, int]:
        return self._sizes

    def __len__(self) -> int:
        return len(self._sizes)


class TenantState:
    """One attached tenant: its entries, stats, quota and residency."""

    def __init__(self, name: str, slot: int, quota: TenantQuota,
                 overhead_model: OverheadModel) -> None:
        self.name = name
        self.slot = slot
        self.quota = quota
        self.stats = SimulationStats(benchmark=name,
                                     overhead_model=overhead_model)
        self.resident_bytes = 0
        #: The gids the tenant owns, in the order each last entered
        #: (``gid -> None``): the victim order for quota and pressure
        #: reclaim, oldest first, FIFO-faithful.
        self.resident: dict[int, None] = {}
        self.quota_reclaims = 0
        self.quota_reclaimed_bytes = 0
        self.detached = False
        #: Highest client-assigned batch sequence durably applied (and
        #: write-ahead logged) for this tenant — the exactly-once
        #: watermark resumed sessions restart from.
        self.applied_seq = 0
        #: Fractional (Memshare-style) byte attribution: Σ size/owner
        #: count over the entries this tenant owns.  What quotas and
        #: pressure reclaim charge against.
        self.attributed_bytes = 0.0
        #: Local sid -> gid of the tenant's arena entry.
        self.block_map: list[int] = []

    @property
    def block_count(self) -> int:
        return len(self.block_map)

    @property
    def miss_rate(self) -> float:
        return self.stats.miss_rate


class SharedArena:
    """A multi-tenant view over one shared code-cache simulator.

    Parameters
    ----------
    policy:
        The shared eviction policy (any granularity).  Quotas need
        targeted eviction, so the policy must answer
        ``supports_targeted_eviction`` after configuration.
    capacity_bytes:
        Total arena capacity — shared by all tenants.
    max_block_bytes:
        Largest superblock any tenant may register.
    pressure_threshold:
        Occupancy fraction above which cross-tenant reclaim runs;
        ``None`` disables pressure reclaim (quotas still apply).
    reclaim_fraction:
        Occupancy fraction pressure reclaim drives down to.
    check_level:
        Invariant-checking level (explicit, else ``REPRO_CHECK_LEVEL``,
        else off).  The arena drives its own checker against *merged*
        stats — per-tenant records would break conservation checks.
    persister:
        An :class:`~repro.service.persist.ArenaPersister` (or ``None``).
        When set, every attach/access/detach is write-ahead logged
        before it mutates the arena, and a snapshot is taken every
        ``persister.snapshot_interval`` accesses — the recovery story a
        restarted worker replays.
    restore_state:
        A snapshot dict produced by :meth:`snapshot_state`.  When given,
        *policy* must be the snapshot's own (already configured, state-
        bearing) policy object, and the arena grafts the persisted
        tenant table and counters instead of starting empty.
    sharing:
        Honour tenants' ``block_digests``: ShareJIT-style content-hash
        dedup maps identical content onto single refcounted entries
        (see the module docstring).  The flag is part of the
        fingerprint — snapshots do not cross the mode boundary.
    """

    def __init__(
        self,
        policy: EvictionPolicy,
        capacity_bytes: int,
        max_block_bytes: int = DEFAULT_MAX_BLOCK_BYTES,
        overhead_model: OverheadModel = PAPER_MODEL,
        pressure_threshold: float | None = None,
        reclaim_fraction: float = 0.85,
        check_level: str | None = None,
        check_context: dict | None = None,
        persister=None,
        restore_state: dict | None = None,
        sharing: bool = False,
    ) -> None:
        if pressure_threshold is not None and not 0.0 < pressure_threshold <= 1.0:
            raise ConfigurationError(
                f"pressure_threshold must be in (0, 1], got "
                f"{pressure_threshold}"
            )
        if not 0.0 < reclaim_fraction <= 1.0:
            raise ConfigurationError(
                f"reclaim_fraction must be in (0, 1], got {reclaim_fraction}"
            )
        if (pressure_threshold is not None
                and reclaim_fraction > pressure_threshold):
            raise ConfigurationError(
                "reclaim_fraction must not exceed pressure_threshold"
            )
        self._blocks = _ArenaBlocks(max_block_bytes)
        if restore_state is not None:
            self._blocks._sizes = dict(restore_state["sizes"])
        # The arena drives its own checker (against merged stats), so
        # the simulator itself always runs unchecked.  A restored policy
        # arrives with its cache state deserialized; configuring it
        # again would wipe that state.
        self.simulator = CodeCacheSimulator(
            self._blocks, policy, capacity_bytes,
            overhead_model=overhead_model, track_links=False,
            check_level="off",
            configure_policy=restore_state is None,
        )
        self.policy = policy
        self.capacity_bytes = capacity_bytes
        self.pressure_threshold = pressure_threshold
        self.reclaim_fraction = reclaim_fraction
        if not policy.supports_targeted_eviction:
            raise ConfigurationError(
                f"policy {policy.name!r} does not support targeted "
                f"eviction, which tenancy quotas and pressure reclaim "
                f"require"
            )
        level = resolve_check_level(check_level)
        self.check_level = level
        self.checker = None if level == "off" else InvariantChecker(
            policy, self._blocks, capacity_bytes, level=level,
            context={"service": "shared-arena", **(check_context or {})},
        )
        self._until_check = (
            self.checker.cadence if self.checker is not None else 0
        )
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}
        self._by_slot: list[TenantState] = []
        self._closed_stats: list[SimulationStats] = []
        self._resident_bytes = 0
        #: Logical bytes: Σ per-tenant resident_bytes.  Equals the
        #: physical count while no entry has two owners; the gap between
        #: the two is exactly the dedup win.
        self._logical_bytes = 0
        self.peak_resident_bytes = 0
        self.peak_logical_bytes = 0
        self.total_accesses = 0
        self.pressure_reclaims = 0
        self.pressure_reclaimed_bytes = 0
        self.sharing_enabled = sharing
        self.table = EntryTable()
        self.persister = persister
        if restore_state is not None:
            self._restore(restore_state)

    def _restore(self, state: dict) -> None:
        """Graft a snapshot's tenant table and counters (init-time)."""
        self._by_slot = list(state["by_slot"])
        self._tenants = {
            tenant.name: tenant
            for tenant in self._by_slot if not tenant.detached
        }
        self._closed_stats = list(state["closed_stats"])
        self._resident_bytes = state["resident_bytes"]
        self.total_accesses = state["total_accesses"]
        self.pressure_reclaims = state["pressure_reclaims"]
        self.pressure_reclaimed_bytes = state["pressure_reclaimed_bytes"]
        self.table = state["table"]
        self._logical_bytes = state["logical_bytes"]
        self.peak_resident_bytes = state["peak_resident_bytes"]
        self.peak_logical_bytes = state["peak_logical_bytes"]
        if self.checker is not None:
            for gid, size in self._blocks.sizes().items():
                self.checker.register_block(gid, size)

    # -- Snapshot state ------------------------------------------------------

    def fingerprint(self) -> dict:
        """This arena's :func:`arena_fingerprint`."""
        return arena_fingerprint(self.policy.name, self.capacity_bytes,
                                 self._blocks.max_block_bytes,
                                 self.sharing_enabled)

    def snapshot_state(self) -> dict:
        """A picklable snapshot of the whole arena (tenants, policy
        cache state, counters) — everything recovery needs besides the
        write-ahead log tail."""
        with self._lock:
            return self._snapshot_state_locked()

    def _snapshot_state_locked(self) -> dict:
        return {
            "fingerprint": self.fingerprint(),
            "policy_object": self.policy,
            "sizes": dict(self._blocks.sizes()),
            "by_slot": list(self._by_slot),
            "closed_stats": list(self._closed_stats),
            "resident_bytes": self._resident_bytes,
            "total_accesses": self.total_accesses,
            "pressure_reclaims": self.pressure_reclaims,
            "pressure_reclaimed_bytes": self.pressure_reclaimed_bytes,
            "table": self.table,
            "logical_bytes": self._logical_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "peak_logical_bytes": self.peak_logical_bytes,
        }

    def snapshot_now(self) -> bool:
        """Write a snapshot immediately (True when one was written)."""
        if self.persister is None:
            return False
        with self._lock:
            return self.persister.write_snapshot(
                self._snapshot_state_locked(), self.total_accesses
            )

    # -- Tenant lifecycle ---------------------------------------------------

    def attach(self, name: str, block_sizes: list[int],
               quota: TenantQuota | None = None,
               block_digests: list[str] | None = None) -> TenantState:
        """Register *name* with its block population; returns its state.

        ``block_sizes[i]`` is the translated size of the tenant's local
        superblock ``i``.  The default quota is the whole arena (no
        per-tenant cap) at weight 1.  Under sharing,
        ``block_digests[i]`` is the content digest of superblock ``i``
        (see :func:`content_digests`); identical digests across tenants
        map onto one refcounted entry.  Without digests every block gets
        a private entry, so the tenant never dedups.
        """
        with self._lock:
            if name in self._tenants:
                raise ConfigurationError(
                    f"tenant {name!r} is already attached"
                )
            if not block_sizes:
                raise ConfigurationError(
                    f"tenant {name!r} needs at least one superblock"
                )
            largest = max(block_sizes)
            if largest > self._blocks.max_block_bytes:
                raise ConfigurationError(
                    f"tenant {name!r} block of {largest} B exceeds the "
                    f"arena's max_block_bytes "
                    f"({self._blocks.max_block_bytes} B)"
                )
            quota = quota or TenantQuota(quota_bytes=self.capacity_bytes)
            if quota.quota_bytes < largest:
                raise ConfigurationError(
                    f"tenant {name!r} quota of {quota.quota_bytes} B "
                    f"cannot hold its largest block ({largest} B)"
                )
            # Validate digests before anything is WAL-logged or mutated,
            # so a rejected attach leaves no trace to replay.
            if block_digests is not None:
                if not self.sharing_enabled:
                    raise ConfigurationError(
                        f"tenant {name!r} sent block_digests but this "
                        f"arena has sharing disabled"
                    )
                if len(block_digests) != len(block_sizes):
                    raise ConfigurationError(
                        f"tenant {name!r} has {len(block_sizes)} blocks "
                        f"but {len(block_digests)} digests"
                    )
                if any(not isinstance(d, str) or not d
                       for d in block_digests):
                    raise ConfigurationError(
                        f"tenant {name!r} block_digests must be "
                        f"non-empty strings"
                    )
                if len(set(block_digests)) != len(block_digests):
                    raise ConfigurationError(
                        f"tenant {name!r} block_digests contain "
                        f"duplicates"
                    )
                sizes = self._blocks.sizes()
                for digest, size in zip(block_digests, block_sizes):
                    gid = self.table.by_digest.get(digest)
                    if gid is not None and sizes[gid] != size:
                        raise ConfigurationError(
                            f"tenant {name!r} digest {digest!r} maps "
                            f"to {size} B but the arena already "
                            f"holds it at {sizes[gid]} B (content "
                            f"hash collision)"
                        )
            tenant = TenantState(name, len(self._by_slot), quota,
                                 self.simulator.overhead_model)
            if self.persister is not None:
                self.persister.log_attach(name, block_sizes, quota,
                                          block_digests)
            self._map_entries(tenant, block_sizes, block_digests)
            self._tenants[name] = tenant
            self._by_slot.append(tenant)
            return tenant

    def _map_entries(self, tenant: TenantState, block_sizes: list[int],
                     block_digests: list[str] | None) -> None:
        """Build the tenant's local-sid -> gid map, allocating fresh
        entries for private blocks and for digests the arena has never
        seen."""
        table = self.table
        sizes = self._blocks.sizes()
        digests = block_digests or [None] * len(block_sizes)
        for size, digest in zip(block_sizes, digests):
            gid = None if digest is None else table.by_digest.get(digest)
            if gid is None:
                gid = len(table.owners)
                table.owners.append(set())
                if digest is not None:
                    table.by_digest[digest] = gid
                sizes[gid] = size
                if self.checker is not None:
                    self.checker.register_block(gid, size)
            tenant.block_map.append(gid)

    def detach(self, name: str) -> SimulationStats:
        """Close *name*: release its resident blocks, keep its stats.

        The final stats record stays in the unified merge (so Equation 1
        and byte conservation remain true for the whole service life),
        and is returned for the session's goodbye message.
        """
        with self._lock:
            tenant = self._require(name)
            if self.persister is not None:
                self.persister.log_detach(name)
            if tenant.resident:
                self._release(tenant, list(tenant.resident), tenant.stats)
            tenant.attributed_bytes = 0.0
            tenant.detached = True
            del self._tenants[name]
            self._closed_stats.append(tenant.stats)
            self._check_maybe(force=True)
            return tenant.stats

    def _require(self, name: str) -> TenantState:
        try:
            return self._tenants[name]
        except KeyError:
            raise KeyError(f"no attached tenant {name!r}") from None

    # -- The access path ----------------------------------------------------

    def access(self, name: str, local_sid: int) -> bool:
        """Serve one access for tenant *name*; True on a cache hit."""
        return self.access_many(name, [local_sid]) == 1

    def access_many(self, name: str, local_sids, tseq: int | None = None) -> int:
        """Serve a batch under one lock acquisition; returns hit count.

        ``tseq`` is the client-assigned per-tenant batch sequence number
        for exactly-once application: a batch at or below the tenant's
        ``applied_seq`` watermark is a duplicate (a resend after a
        failover) and is skipped without touching the cache.  Every sid
        is bounds-checked before anything is logged or applied, so a bad
        batch leaves no trace.  The batch is write-ahead logged *inside*
        the same critical section that applies it, so the WAL's record
        order is exactly the arena's apply order — replay reproduces the
        identical interleaving.

        When the policy does not watch accesses and no checker runs, an
        access to an entry the tenant already owns only counts a hit
        (the counters are added once per batch): ownership implies
        residency, so :meth:`_access_locked` would find a plain hit and
        change nothing else.  Misses, and a first touch of an entry
        another tenant holds (a join), take the full path.
        """
        with self._lock:
            tenant = self._require(name)
            if tseq is not None and tseq <= tenant.applied_seq:
                return 0  # duplicate resend; already applied and logged
            count = len(tenant.block_map)
            if local_sids and (min(local_sids) < 0
                               or max(local_sids) >= count):
                bad = next(sid for sid in local_sids
                           if not 0 <= sid < count)
                raise KeyError(
                    f"tenant {name!r} has no superblock {bad} "
                    f"(population {count})"
                )
            if self.persister is not None:
                self.persister.log_access(name, local_sids, tseq)
            # The live set of the tenant's entries, or nothing when the
            # policy's hook or the checker's cadence must see every access.
            owned = (tenant.resident if self.checker is None
                     and type(self.policy).on_access
                     is EvictionPolicy.on_access else ())
            block_map = tenant.block_map
            access = self._access_locked
            hits = stepped = 0
            for local_sid in local_sids:
                if block_map[local_sid] not in owned:
                    stepped += 1
                    if access(tenant, local_sid):
                        hits += 1
            skipped = len(local_sids) - stepped
            tenant.stats.accesses += skipped
            tenant.stats.hits += skipped
            self.total_accesses += skipped
            hits += skipped
            if tseq is not None:
                tenant.applied_seq = tseq
            if (self.persister is not None
                    and self.persister.snapshot_due(self.total_accesses)):
                self.persister.write_snapshot(
                    self._snapshot_state_locked(), self.total_accesses
                )
            return hits

    def _access_locked(self, tenant: TenantState, local_sid: int) -> bool:
        """One access: a hit on an entry another tenant holds joins it
        as a co-owner; a miss inserts the single physical copy and makes
        the inserter its sole owner."""
        gid = tenant.block_map[local_sid]
        self._inserting = tenant
        hit, _ = self.simulator.step(
            gid, tenant.stats,
            on_evictions=self._attribute_events,
            before_insert=self._reclaim_quota,
        )
        if hit:
            if gid not in tenant.resident:
                self._join(tenant, gid)
        else:
            size = self._blocks.sizes()[gid]
            self.table.owners[gid].add(tenant.slot)
            tenant.attributed_bytes += size
            tenant.resident[gid] = None
            tenant.resident_bytes += size
            self._resident_bytes += size
            self._logical_bytes += size
            if self.checker is not None:
                self.checker.note_insert(gid)
            self._reclaim_pressure()
            if self._resident_bytes > self.peak_resident_bytes:
                self.peak_resident_bytes = self._resident_bytes
            if self._logical_bytes > self.peak_logical_bytes:
                self.peak_logical_bytes = self._logical_bytes
        self.total_accesses += 1
        if self.checker is not None:
            self._check_maybe()
        return hit

    def _join(self, tenant: TenantState, gid: int) -> None:
        """A hit on content the tenant does not yet own: become a
        co-owner.  Existing owners' fractional attribution shrinks from
        size/n to size/(n+1); the joiner picks up size/(n+1); physical
        bytes are untouched — that delta is the dedup win."""
        size = self._blocks.sizes()[gid]
        owners = self.table.owners[gid]
        n = len(owners)
        for slot in owners:
            self._by_slot[slot].attributed_bytes += (
                size / (n + 1) - size / n
            )
        tenant.attributed_bytes += size / (n + 1)
        owners.add(tenant.slot)
        tenant.resident[gid] = None
        tenant.resident_bytes += size
        self._logical_bytes += size
        self.table.shared_joins += 1
        if self._logical_bytes > self.peak_logical_bytes:
            self.peak_logical_bytes = self._logical_bytes

    # -- Attribution and reclaim -------------------------------------------

    def _attribute_events(self, events, inserter_stats) -> None:
        """Split eviction events: the invocations are counted on the
        stats record driving the insert; the evicted blocks and bytes
        are attributed to their owners.  A co-owned entry's bytes are
        split across its owners with an exact largest-remainder split
        (slot order), so Σ per-owner evicted_bytes equals the physical
        bytes and byte conservation stays an integer identity tenant by
        tenant and merged."""
        sizes = self._blocks.sizes()
        owners_of = self.table.owners
        by_slot = self._by_slot
        for event in events:
            inserter_stats.eviction_invocations += 1
            for gid in event.blocks:
                size = sizes[gid]
                owners = owners_of[gid]
                n = len(owners)
                if n == 1:
                    owner = by_slot[owners.pop()]
                    owner.stats.evicted_blocks += 1
                    owner.stats.evicted_bytes += size
                    owner.attributed_bytes -= size
                    owner.resident.pop(gid, None)
                    owner.resident_bytes -= size
                    self._logical_bytes -= size
                    self._resident_bytes -= size
                    continue
                self.table.shared_policy_evictions += 1
                base, extra = divmod(size, n)
                for i, slot in enumerate(sorted(owners)):
                    owner = by_slot[slot]
                    owner.stats.evicted_blocks += 1
                    owner.stats.evicted_bytes += base + (1 if i < extra
                                                         else 0)
                    owner.attributed_bytes -= size / n
                    owner.resident.pop(gid, None)
                    owner.resident_bytes -= size
                    self._logical_bytes -= size
                owners.clear()
                self._resident_bytes -= size

    def _release(self, tenant: TenantState, gids, stats) -> float:
        """Release the tenant's claim on *gids* (quota/pressure/detach).
        Co-owned entries defer eviction: the refcount drops, remaining
        owners absorb the releaser's fractional share, and the bytes
        stay resident.  Sole-owned entries are physically evicted in one
        batched targeted eviction.  Returns the released attribution in
        (fractional) bytes."""
        table = self.table
        sizes = self._blocks.sizes()
        sole: list[int] = []
        freed = 0.0
        for gid in gids:
            size = sizes[gid]
            owners = table.owners[gid]
            n = len(owners)
            if n <= 1:
                sole.append(gid)
                freed += size
                continue
            owners.discard(tenant.slot)
            m = n - 1
            for slot in owners:
                self._by_slot[slot].attributed_bytes += (
                    size / m - size / n
                )
            tenant.attributed_bytes -= size / n
            tenant.resident.pop(gid, None)
            tenant.resident_bytes -= size
            self._logical_bytes -= size
            table.deferred_releases += 1
            freed += size / n
        if sole:
            events = self.policy.evict_blocks(sole)
            self._attribute_events(events, stats)
            table.last_owner_evictions += len(sole)
        return freed

    def _release_oldest(self, tenant: TenantState, needed: float,
                        stats) -> float:
        """Release the tenant's oldest claims, in ``resident`` order,
        until the *attributed* charge released covers *needed*."""
        victims: list[int] = []
        est = 0.0
        sizes = self._blocks.sizes()
        owners_of = self.table.owners
        for gid in tenant.resident:
            if est >= needed:
                break
            victims.append(gid)
            est += sizes[gid] / len(owners_of[gid])
        if not victims:
            return 0.0
        return self._release(tenant, victims, stats)

    def _reclaim_quota(self, gid: int, size: int) -> None:
        """Quota layer: before the policy inserts for an over-quota
        tenant, release that tenant's own oldest blocks to make room.
        The quota charges *attributed* bytes — a tenant co-owning
        popular content pays only its fraction."""
        tenant = self._inserting
        over = tenant.attributed_bytes + size - tenant.quota.quota_bytes
        if over <= 0:
            return
        freed = self._release_oldest(tenant, over, tenant.stats)
        if freed:
            tenant.quota_reclaims += 1
            tenant.quota_reclaimed_bytes += int(round(freed))

    def _reclaim_pressure(self) -> None:
        """Memshare-style arbitration: above the pressure threshold,
        tenants over their reserved (weight-proportional) share donate
        space, most-over-share first, down to the reclaim target."""
        threshold = self.pressure_threshold
        if threshold is None:
            return
        if self._resident_bytes <= threshold * self.capacity_bytes:
            return
        target = self.reclaim_fraction * self.capacity_bytes
        total_weight = sum(
            t.quota.weight for t in self._tenants.values()
        ) or 1.0
        while self._resident_bytes > target:
            donor = None
            worst_excess = 0
            for tenant in self._tenants.values():
                reserved = (self.capacity_bytes * tenant.quota.weight
                            / total_weight)
                excess = tenant.attributed_bytes - reserved
                if excess > worst_excess:
                    donor = tenant
                    worst_excess = excess
            if donor is None:
                return  # nobody is over their reserved share
            needed = min(worst_excess,
                         self._resident_bytes - target)
            freed = self._release_oldest(donor, needed, donor.stats)
            if not freed:
                return
            self.pressure_reclaims += 1
            self.pressure_reclaimed_bytes += int(round(freed))

    # -- Reporting and checking --------------------------------------------

    def tenants(self) -> list[TenantState]:
        with self._lock:
            return list(self._by_slot)

    def tenant_stats(self, name: str) -> SimulationStats:
        with self._lock:
            return self._require(name).stats

    def has_tenant(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def applied_seq(self, name: str) -> int:
        """The tenant's exactly-once watermark (0 before any sequenced
        batch) — what a resumed session restarts from."""
        with self._lock:
            return self._require(name).applied_seq

    def unified_stats(self) -> SimulationStats:
        """All tenants merged — Equation 1 across the whole service."""
        with self._lock:
            return self._unified_locked()

    def _unified_locked(self) -> SimulationStats:
        records = ([t.stats for t in self._tenants.values()]
                   + self._closed_stats)
        if not records:
            return SimulationStats(
                policy_name=self.policy.name, benchmark="unified",
                overhead_model=self.simulator.overhead_model)
        merged = merge_all(records)
        merged.policy_name = self.policy.name
        merged.benchmark = "unified"
        return merged

    def unified_miss_rate(self) -> float:
        with self._lock:
            records = ([t.stats for t in self._tenants.values()]
                       + self._closed_stats)
            return unified_miss_rate(records)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    def check_now(self) -> None:
        """Run a full invariant pass immediately (no-op when off)."""
        with self._lock:
            self._check_maybe(force=True)

    def _check_maybe(self, force: bool = False) -> None:
        checker = self.checker
        if checker is None:
            return
        if not force:
            self._until_check -= 1
            if self._until_check > 0:
                return
        self._until_check = checker.cadence
        checker.run_checks(self._unified_locked(),
                           access_index=self.total_accesses)
        self._check_entries()

    def _check_entries(self) -> None:
        """Entry-table invariants, run at the checker's cadence:
        ownership ⇔ residency, refcount-weighted physical byte
        conservation, logical-byte conservation, and the fractional
        attribution identity (incremental float vs exact recompute,
        resynced after a passing check so drift can never accumulate).
        """
        violations: list[str] = []
        resident_ids = self.policy.resident_ids()
        sizes = self._blocks.sizes()
        owners_of = self.table.owners
        physical = 0
        exact: dict[int, float] = {}
        for gid, owners in enumerate(owners_of):
            if not owners:
                if gid in resident_ids:
                    violations.append(f"gid {gid} resident with no owners")
                continue
            if gid not in resident_ids:
                violations.append(
                    f"gid {gid} owned by {sorted(owners)} but not resident"
                )
            physical += sizes[gid]
            share = sizes[gid] / len(owners)
            for slot in owners:
                owner = self._by_slot[slot]
                if owner.detached:
                    violations.append(
                        f"detached tenant {owner.name!r} owns gid {gid}"
                    )
                elif gid not in owner.resident:
                    violations.append(
                        f"tenant {owner.name!r} owns gid {gid} but does "
                        f"not track it resident"
                    )
                exact[slot] = exact.get(slot, 0.0) + share
        if physical != self._resident_bytes:
            violations.append(
                f"owned entry bytes {physical} != arena resident "
                f"bytes {self._resident_bytes}"
            )
        logical = 0
        for tenant in self._by_slot:
            if tenant.detached:
                continue
            held = sum(sizes[gid] for gid in tenant.resident)
            if held != tenant.resident_bytes:
                violations.append(
                    f"tenant {tenant.name!r} resident_bytes "
                    f"{tenant.resident_bytes} != tracked set total "
                    f"{held}"
                )
            logical += tenant.resident_bytes
            for gid in tenant.resident:
                if tenant.slot not in owners_of[gid]:
                    violations.append(
                        f"tenant {tenant.name!r} tracks gid {gid} "
                        f"resident without owning it"
                    )
            want = exact.get(tenant.slot, 0.0)
            if abs(tenant.attributed_bytes - want) > 1e-6 * max(1.0, want):
                violations.append(
                    f"tenant {tenant.name!r} attributed_bytes "
                    f"{tenant.attributed_bytes:.3f} drifted from exact "
                    f"recompute {want:.3f}"
                )
            else:
                tenant.attributed_bytes = want
        if logical != self._logical_bytes:
            violations.append(
                f"sum of tenant resident_bytes {logical} != arena "
                f"logical bytes {self._logical_bytes}"
            )
        if violations:
            raise InvariantViolation(violations, {
                "violations": violations,
                "check_level": self.check_level,
                "access_index": self.total_accesses,
                "service": "shared-arena/entries",
                "entries": len(owners_of),
                "resident_bytes": self._resident_bytes,
                "logical_bytes": self._logical_bytes,
            })

    def to_dict(self) -> dict:
        """Arena-level counters for reports and the service stats op."""
        with self._lock:
            report = {
                "policy": self.policy.name,
                "capacity_bytes": self.capacity_bytes,
                "resident_bytes": self._resident_bytes,
                "logical_bytes": self._logical_bytes,
                "peak_resident_bytes": self.peak_resident_bytes,
                "peak_logical_bytes": self.peak_logical_bytes,
                "tenants": len(self._tenants),
                "closed_tenants": len(self._closed_stats),
                "total_accesses": self.total_accesses,
                "pressure_reclaims": self.pressure_reclaims,
                "pressure_reclaimed_bytes": self.pressure_reclaimed_bytes,
                "check_level": self.check_level,
                "sharing": self.sharing_enabled,
            }
            if self.sharing_enabled:
                table = self.table
                report["sharing_stats"] = {
                    "entries": len(table.owners),
                    # Every attached tenant maps each of its blocks to a
                    # distinct entry.
                    "shared_refs": sum(
                        t.block_count for t in self._tenants.values()
                    ),
                    "shared_joins": table.shared_joins,
                    "deferred_releases": table.deferred_releases,
                    "last_owner_evictions": table.last_owner_evictions,
                    "shared_policy_evictions":
                        table.shared_policy_evictions,
                    "dedup_ratio": (self.peak_logical_bytes
                                    / max(1, self.peak_resident_bytes)),
                }
            return report
