"""Shared-arena tenancy: many tenants, one code cache, arbitrated space.

One :class:`SharedArena` owns a single
:class:`~repro.core.simulator.CodeCacheSimulator` (one policy, one
capacity) and serves every tenant from it:

* **Id namespacing** — each tenant's local superblock ids are mapped
  into a disjoint slice of the global id space, so two tenants replaying
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
  every superblock is keyed by a stable content digest, and identical
  translations across tenants become *one* refcounted arena entry.  A
  tenant whose content another tenant already inserted joins as a
  co-owner on a plain cache hit (the dedup win: N tenants running the
  same benchmark occupy ~1× the bytes); per-tenant chaining/eviction
  metadata (the FIFO ``order`` deque, the ``resident`` set) stays
  copy-on-write per tenant, so reclaim decisions remain tenant-local.
  Eviction of a shared entry is *deferred* until the last owner
  releases it; a policy-driven eviction attributes the physical bytes
  across the owners with an exact largest-remainder split, and the
  continuous fractional attribution (``attributed_bytes`` =
  Σ size/owners over owned entries, Memshare-style) is what quotas and
  pressure reclaim charge against — so the merged Equation 1 byte
  conservation stays exact under the paranoid invariant checker while
  each tenant's stats reflect only its fair share.

The arena serializes all mutation behind one lock: the simulator, the
policies and the caches underneath are single-threaded by design (the
thread-safety audit in DESIGN.md), and the arena is the one place the
service touches them from.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
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

#: Global ids are ``slot * NAMESPACE_STRIDE + local_sid`` — 4M blocks per
#: tenant namespace, far beyond any registry workload.
NAMESPACE_STRIDE = 1 << 22

#: Largest superblock any tenant may register (the registry clips
#: Windows-suite sizes at 8 KiB).
DEFAULT_MAX_BLOCK_BYTES = 8192

#: Shared (content-addressed) gids live far above every tenant
#: namespace, so a shared arena can never collide with legacy ids.
SHARED_BASE = 1 << 44


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


class SharedEntry:
    """One content-addressed arena entry: a digest, its single physical
    gid, and two refcounts — ``mapped`` (tenants whose population
    includes this content) and ``owners`` (tenants currently holding it
    resident, the deferred-eviction refcount)."""

    def __init__(self, digest: str, gid: int, size: int) -> None:
        self.digest = digest
        self.gid = gid
        self.size = size
        self.mapped: set[int] = set()
        self.owners: set[int] = set()


class SharingState:
    """The arena-wide dedup table plus its lifetime counters."""

    def __init__(self) -> None:
        self.by_digest: dict[str, SharedEntry] = {}
        self.by_gid: dict[int, SharedEntry] = {}
        self.next_gid = SHARED_BASE
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
    """One attached tenant: namespace, stats, quota and residency."""

    def __init__(self, name: str, slot: int, sizes: list[int],
                 quota: TenantQuota, overhead_model: OverheadModel) -> None:
        self.name = name
        self.slot = slot
        self.offset = slot * NAMESPACE_STRIDE
        self.block_count = len(sizes)
        self.quota = quota
        self.stats = SimulationStats(benchmark=name,
                                     overhead_model=overhead_model)
        self.resident_bytes = 0
        #: Resident gids in insertion order — the victim order for
        #: quota and pressure reclaim (oldest first, FIFO-faithful).
        self.order: deque[int] = deque()
        self.resident: set[int] = set()
        self.quota_reclaims = 0
        self.quota_reclaimed_bytes = 0
        self.detached = False
        #: Highest client-assigned batch sequence durably applied (and
        #: write-ahead logged) for this tenant — the exactly-once
        #: watermark resumed sessions restart from.
        self.applied_seq = 0
        #: Fractional (Memshare-style) byte attribution under sharing:
        #: Σ size/owner_count over entries this tenant co-owns.  What
        #: quotas and pressure reclaim charge against.
        self.attributed_bytes = 0.0
        #: Sharing mode: local sid -> shared gid.  ``None`` in legacy
        #: (namespaced) mode.
        self.block_map: list[int] | None = None

    def __setstate__(self, state: dict) -> None:
        # Snapshots written before a field existed restore with its
        # default, so old snapshots stay readable across upgrades.
        self.applied_seq = 0
        self.attributed_bytes = 0.0
        self.block_map = None
        self.__dict__.update(state)

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
        Enable ShareJIT-style content-hash dedup: tenants attaching
        with ``block_digests`` map identical content onto single
        refcounted entries (see the module docstring).  A sharing arena
        and a legacy arena have different fingerprints — snapshots do
        not cross the mode boundary.
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
        #: physical count without sharing; the gap between the two is
        #: exactly the dedup win.
        self._logical_bytes = 0
        self.peak_resident_bytes = 0
        self.peak_logical_bytes = 0
        self.total_accesses = 0
        self.pressure_reclaims = 0
        self.pressure_reclaimed_bytes = 0
        self.sharing: SharingState | None = (
            SharingState() if sharing else None
        )
        self.persister = persister
        if restore_state is not None:
            self._restore(restore_state)

    @property
    def sharing_enabled(self) -> bool:
        return self.sharing is not None

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
        if "sharing_state" in state:
            self.sharing = state["sharing_state"]
        self._logical_bytes = state.get("logical_bytes",
                                        self._resident_bytes)
        self.peak_resident_bytes = state.get("peak_resident_bytes",
                                             self._resident_bytes)
        self.peak_logical_bytes = state.get("peak_logical_bytes",
                                            self._logical_bytes)
        if self.checker is not None:
            for gid, size in self._blocks.sizes().items():
                self.checker.register_block(gid, size)

    # -- Snapshot state ------------------------------------------------------

    #: Bumped when the snapshot layout changes incompatibly.
    #: v2: sharing state + logical/peak byte counters.
    SNAPSHOT_VERSION = 2

    def fingerprint(self) -> dict:
        """The configuration identity a snapshot must match to be
        restorable — a snapshot taken under a different policy,
        geometry, or sharing mode describes a different cache and is
        quarantined."""
        return {
            "policy": self.policy.name,
            "capacity_bytes": self.capacity_bytes,
            "max_block_bytes": self._blocks.max_block_bytes,
            "sharing": self.sharing is not None,
        }

    def snapshot_state(self) -> dict:
        """A picklable snapshot of the whole arena (tenants, policy
        cache state, counters) — everything recovery needs besides the
        write-ahead log tail."""
        with self._lock:
            return self._snapshot_state_locked()

    def _snapshot_state_locked(self) -> dict:
        return {
            "version": self.SNAPSHOT_VERSION,
            "fingerprint": self.fingerprint(),
            "policy_object": self.policy,
            "sizes": dict(self._blocks.sizes()),
            "by_slot": list(self._by_slot),
            "closed_stats": list(self._closed_stats),
            "resident_bytes": self._resident_bytes,
            "total_accesses": self.total_accesses,
            "pressure_reclaims": self.pressure_reclaims,
            "pressure_reclaimed_bytes": self.pressure_reclaimed_bytes,
            "sharing_state": self.sharing,
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
        map onto one refcounted entry.  Without digests a sharing arena
        assigns private per-tenant digests, so the tenant participates
        in the shared id space but never dedups.
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
            if len(block_sizes) > NAMESPACE_STRIDE:
                raise ConfigurationError(
                    f"tenant {name!r} has {len(block_sizes)} blocks; the "
                    f"namespace holds {NAMESPACE_STRIDE}"
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
            if self.sharing is None and block_digests is not None:
                raise ConfigurationError(
                    f"tenant {name!r} sent block_digests but this "
                    f"arena has sharing disabled"
                )
            if self.sharing is not None and block_digests is None:
                # Private digests: the tenant shares the id space but
                # not content — sharing degrades to namespacing.
                block_digests = [
                    f"~{name}/{i}" for i in range(len(block_sizes))
                ]
            # Validate digests before anything is WAL-logged or mutated,
            # so a rejected attach leaves no trace to replay.
            if block_digests is not None:
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
                if self.sharing is not None:
                    for digest, size in zip(block_digests, block_sizes):
                        entry = self.sharing.by_digest.get(digest)
                        if entry is not None and entry.size != size:
                            raise ConfigurationError(
                                f"tenant {name!r} digest {digest!r} maps "
                                f"to {size} B but the arena already "
                                f"holds it at {entry.size} B (content "
                                f"hash collision)"
                            )
            tenant = TenantState(name, len(self._by_slot), block_sizes,
                                 quota, self.simulator.overhead_model)
            if self.persister is not None:
                self.persister.log_attach(name, block_sizes, quota,
                                          block_digests)
            if self.sharing is not None:
                self._map_shared(tenant, block_sizes, block_digests)
            else:
                sizes = self._blocks.sizes()
                for local_sid, size in enumerate(block_sizes):
                    gid = tenant.offset + local_sid
                    sizes[gid] = size
                    if self.checker is not None:
                        self.checker.register_block(gid, size)
            self._tenants[name] = tenant
            self._by_slot.append(tenant)
            return tenant

    def _map_shared(self, tenant: TenantState, block_sizes: list[int],
                    block_digests: list[str]) -> None:
        """Build the tenant's local-sid -> shared-gid map, allocating
        fresh entries for digests the arena has never seen."""
        sharing = self.sharing
        sizes = self._blocks.sizes()
        block_map = []
        for size, digest in zip(block_sizes, block_digests):
            entry = sharing.by_digest.get(digest)
            if entry is None:
                gid = sharing.next_gid
                sharing.next_gid += 1
                entry = SharedEntry(digest, gid, size)
                sharing.by_digest[digest] = entry
                sharing.by_gid[gid] = entry
                sizes[gid] = size
                if self.checker is not None:
                    self.checker.register_block(gid, size)
            entry.mapped.add(tenant.slot)
            block_map.append(entry.gid)
        tenant.block_map = block_map

    def detach(self, name: str) -> SimulationStats:
        """Close *name*: evict its resident blocks, keep its stats.

        The final stats record stays in the unified merge (so Equation 1
        and byte conservation remain true for the whole service life),
        and is returned for the session's goodbye message.
        """
        with self._lock:
            tenant = self._require(name)
            if self.persister is not None:
                self.persister.log_detach(name)
            if self.sharing is not None:
                if tenant.resident:
                    self._release_shared(tenant, list(tenant.resident),
                                         tenant.stats)
                for gid in set(tenant.block_map or ()):
                    self.sharing.by_gid[gid].mapped.discard(tenant.slot)
                tenant.attributed_bytes = 0.0
                tenant.order.clear()
            elif tenant.resident:
                events = self.policy.evict_blocks(tenant.resident)
                self._attribute_events(events, tenant.stats)
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
        with self._lock:
            tenant = self._require(name)
            return self._access_locked(tenant, local_sid)

    def access_many(self, name: str, local_sids, tseq: int | None = None) -> int:
        """Serve a batch under one lock acquisition; returns hit count.

        ``tseq`` is the client-assigned per-tenant batch sequence number
        for exactly-once application: a batch at or below the tenant's
        ``applied_seq`` watermark is a duplicate (a resend after a
        failover) and is skipped without touching the cache.  The batch
        is write-ahead logged *inside* the same critical section that
        applies it, so the WAL's record order is exactly the arena's
        apply order — replay reproduces the identical interleaving.
        """
        with self._lock:
            tenant = self._require(name)
            if tseq is not None and tseq <= tenant.applied_seq:
                return 0  # duplicate resend; already applied and logged
            if self.persister is not None:
                self.persister.log_access(name, local_sids, tseq)
            hits = 0
            for local_sid in local_sids:
                if self._access_locked(tenant, local_sid):
                    hits += 1
            if tseq is not None:
                tenant.applied_seq = tseq
            if (self.persister is not None
                    and self.persister.snapshot_due(self.total_accesses)):
                self.persister.write_snapshot(
                    self._snapshot_state_locked(), self.total_accesses
                )
            return hits

    def _access_locked(self, tenant: TenantState, local_sid: int) -> bool:
        if not 0 <= local_sid < tenant.block_count:
            raise KeyError(
                f"tenant {tenant.name!r} has no superblock {local_sid} "
                f"(population {tenant.block_count})"
            )
        if self.sharing is not None:
            return self._access_shared(tenant, local_sid)
        gid = tenant.offset + local_sid
        self._inserting = tenant
        hit, _ = self.simulator.step(
            gid, tenant.stats,
            on_evictions=self._attribute_events,
            before_insert=self._reclaim_quota,
        )
        if not hit:
            size = self._blocks.sizes()[gid]
            tenant.resident.add(gid)
            tenant.order.append(gid)
            tenant.resident_bytes += size
            self._resident_bytes += size
            self._logical_bytes += size
            if self.checker is not None:
                self.checker.note_insert(gid)
            self._reclaim_pressure()
            if self._resident_bytes > self.peak_resident_bytes:
                self.peak_resident_bytes = self._resident_bytes
                self.peak_logical_bytes = self._logical_bytes
        self.total_accesses += 1
        self._check_maybe()
        return hit

    def _access_shared(self, tenant: TenantState, local_sid: int) -> bool:
        """One access in sharing mode: a hit on content another tenant
        holds joins the entry as a co-owner; a miss inserts the single
        physical copy and makes the inserter the sole owner."""
        gid = tenant.block_map[local_sid]
        entry = self.sharing.by_gid[gid]
        self._inserting = tenant
        hit, _ = self.simulator.step(
            gid, tenant.stats,
            on_evictions=self._attribute_events,
            before_insert=self._reclaim_quota,
        )
        if hit:
            if tenant.slot not in entry.owners:
                self._join_shared(tenant, entry)
        else:
            entry.owners.add(tenant.slot)
            tenant.attributed_bytes += entry.size
            tenant.resident.add(gid)
            tenant.order.append(gid)
            tenant.resident_bytes += entry.size
            self._resident_bytes += entry.size
            self._logical_bytes += entry.size
            if self.checker is not None:
                self.checker.note_insert(gid)
            self._reclaim_pressure()
        if self._resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self._resident_bytes
        if self._logical_bytes > self.peak_logical_bytes:
            self.peak_logical_bytes = self._logical_bytes
        self.total_accesses += 1
        self._check_maybe()
        return hit

    def _join_shared(self, tenant: TenantState, entry: SharedEntry) -> None:
        """A hit on content the tenant does not yet own: become a
        co-owner.  Existing owners' fractional attribution shrinks from
        size/n to size/(n+1); the joiner picks up size/(n+1); physical
        bytes are untouched — that delta is the dedup win."""
        size = entry.size
        n = len(entry.owners)
        for slot in entry.owners:
            self._by_slot[slot].attributed_bytes += (
                size / (n + 1) - size / n
            )
        tenant.attributed_bytes += size / (n + 1)
        entry.owners.add(tenant.slot)
        tenant.resident.add(entry.gid)
        tenant.order.append(entry.gid)
        tenant.resident_bytes += size
        self._logical_bytes += size
        self.sharing.shared_joins += 1

    # -- Attribution and reclaim -------------------------------------------

    def _owner_of(self, gid: int) -> TenantState:
        return self._by_slot[gid // NAMESPACE_STRIDE]

    def _attribute_events(self, events, inserter_stats) -> None:
        """Split eviction events: the invocations are counted on the
        stats record driving the insert; the evicted blocks and bytes
        are attributed to their owners, keeping per-tenant byte
        conservation exact."""
        if self.sharing is not None:
            self._attribute_events_shared(events, inserter_stats)
            return
        sizes = self._blocks.sizes()
        for event in events:
            inserter_stats.eviction_invocations += 1
            for gid in event.blocks:
                owner = self._owner_of(gid)
                size = sizes[gid]
                owner.stats.evicted_blocks += 1
                owner.stats.evicted_bytes += size
                owner.resident_bytes -= size
                owner.resident.discard(gid)
                self._resident_bytes -= size
                self._logical_bytes -= size

    def _attribute_events_shared(self, events, inserter_stats) -> None:
        """Sharing-mode attribution: a physically evicted entry's bytes
        are split across its owners with an exact largest-remainder
        split (slot order), so Σ per-owner evicted_bytes equals the
        physical bytes and the merged Equation 1 conservation stays an
        integer identity."""
        sharing = self.sharing
        for event in events:
            inserter_stats.eviction_invocations += 1
            for gid in event.blocks:
                entry = sharing.by_gid[gid]
                size = entry.size
                owners = sorted(entry.owners)
                if not owners:
                    # Should be unreachable (resident implies owned);
                    # keep conservation by charging the inserter.
                    inserter_stats.evicted_blocks += 1
                    inserter_stats.evicted_bytes += size
                    self._resident_bytes -= size
                    continue
                n = len(owners)
                if n > 1:
                    sharing.shared_policy_evictions += 1
                base, extra = divmod(size, n)
                for i, slot in enumerate(owners):
                    owner = self._by_slot[slot]
                    owner.stats.evicted_blocks += 1
                    owner.stats.evicted_bytes += base + (1 if i < extra
                                                         else 0)
                    owner.attributed_bytes -= size / n
                    owner.resident.discard(gid)
                    owner.resident_bytes -= size
                    self._logical_bytes -= size
                entry.owners.clear()
                self._resident_bytes -= size

    def _release_shared(self, tenant: TenantState, gids, stats) -> float:
        """Release the tenant's claim on *gids* (quota/pressure/detach).
        Co-owned entries defer eviction: the refcount drops, remaining
        owners absorb the releaser's fractional share, and the bytes
        stay resident.  Sole-owned entries are physically evicted in one
        batched targeted eviction.  Returns the released attribution in
        (fractional) bytes."""
        sharing = self.sharing
        sole: list[int] = []
        freed = 0.0
        for gid in gids:
            entry = sharing.by_gid[gid]
            size = entry.size
            n = len(entry.owners)
            if n <= 1:
                sole.append(gid)
                freed += size
                continue
            entry.owners.discard(tenant.slot)
            m = n - 1
            for slot in entry.owners:
                self._by_slot[slot].attributed_bytes += (
                    size / m - size / n
                )
            tenant.attributed_bytes -= size / n
            tenant.resident.discard(gid)
            tenant.resident_bytes -= size
            self._logical_bytes -= size
            sharing.deferred_releases += 1
            freed += size / n
        if sole:
            events = self.policy.evict_blocks(sole)
            self._attribute_events(events, stats)
            sharing.last_owner_evictions += len(sole)
        return freed

    def _release_oldest_shared(self, tenant: TenantState, needed: float,
                               stats) -> float:
        """Walk the tenant's FIFO order releasing its oldest claims
        until the *attributed* charge released covers *needed*."""
        victims: list[int] = []
        chosen: set[int] = set()
        est = 0.0
        by_gid = self.sharing.by_gid
        while tenant.order and est < needed:
            gid = tenant.order.popleft()
            if gid not in tenant.resident or gid in chosen:
                continue  # already evicted/released, or a stale entry
            victims.append(gid)
            chosen.add(gid)
            entry = by_gid[gid]
            est += entry.size / (len(entry.owners) or 1)
        if not victims:
            return 0.0
        return self._release_shared(tenant, victims, stats)

    def _victims(self, tenant: TenantState, needed_bytes: int) -> list[int]:
        """The tenant's oldest resident blocks covering *needed_bytes*."""
        victims: list[int] = []
        freed = 0
        sizes = self._blocks.sizes()
        while tenant.order and freed < needed_bytes:
            gid = tenant.order.popleft()
            if gid not in tenant.resident:
                continue  # already evicted by the shared policy
            victims.append(gid)
            freed += sizes[gid]
        return victims

    def _reclaim_quota(self, gid: int, size: int) -> None:
        """Quota layer: before the policy inserts for an over-quota
        tenant, evict (or, under sharing, release) that tenant's own
        oldest blocks to make room.  Sharing charges the quota against
        *attributed* bytes — a tenant co-owning popular content pays
        only its fraction."""
        tenant = self._inserting
        if self.sharing is not None:
            over = (tenant.attributed_bytes + size
                    - tenant.quota.quota_bytes)
            if over <= 0:
                return
            freed = self._release_oldest_shared(tenant, over,
                                                tenant.stats)
            if freed:
                tenant.quota_reclaims += 1
                tenant.quota_reclaimed_bytes += int(round(freed))
            return
        over = tenant.resident_bytes + size - tenant.quota.quota_bytes
        if over <= 0:
            return
        victims = self._victims(tenant, over)
        if not victims:
            return
        events = self.policy.evict_blocks(victims)
        self._attribute_events(events, tenant.stats)
        tenant.quota_reclaims += 1
        tenant.quota_reclaimed_bytes += sum(
            event.bytes_evicted for event in events
        )

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
        sharing = self.sharing is not None
        while self._resident_bytes > target:
            donor = None
            worst_excess = 0
            for tenant in self._tenants.values():
                reserved = (self.capacity_bytes * tenant.quota.weight
                            / total_weight)
                held = (tenant.attributed_bytes if sharing
                        else tenant.resident_bytes)
                excess = held - reserved
                if excess > worst_excess:
                    donor = tenant
                    worst_excess = excess
            if donor is None:
                return  # nobody is over their reserved share
            needed = min(worst_excess,
                         self._resident_bytes - target)
            if sharing:
                freed = self._release_oldest_shared(donor, needed,
                                                    donor.stats)
                if not freed:
                    return
                self.pressure_reclaims += 1
                self.pressure_reclaimed_bytes += int(round(freed))
                continue
            victims = self._victims(donor, needed)
            if not victims:
                return
            events = self.policy.evict_blocks(victims)
            self._attribute_events(events, donor.stats)
            self.pressure_reclaims += 1
            self.pressure_reclaimed_bytes += sum(
                event.bytes_evicted for event in events
            )

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
        if self.sharing is not None:
            self._check_sharing()

    def _check_sharing(self) -> None:
        """Sharing-specific invariants, run at the checker's cadence:
        ownership ⇔ residency, refcount-weighted physical byte
        conservation, logical-byte conservation, and the fractional
        attribution identity (incremental float vs exact recompute,
        resynced after a passing check so drift can never accumulate).
        """
        sharing = self.sharing
        violations: list[str] = []
        resident_ids = self.policy.resident_ids()
        physical = 0
        exact: dict[int, float] = {}
        for entry in sharing.by_gid.values():
            if not entry.owners:
                if entry.gid in resident_ids:
                    violations.append(
                        f"shared gid {entry.gid} resident with no owners"
                    )
                continue
            if entry.gid not in resident_ids:
                violations.append(
                    f"shared gid {entry.gid} owned by "
                    f"{sorted(entry.owners)} but not resident"
                )
            physical += entry.size
            share = entry.size / len(entry.owners)
            for slot in entry.owners:
                owner = self._by_slot[slot]
                if owner.detached:
                    violations.append(
                        f"detached tenant {owner.name!r} owns shared "
                        f"gid {entry.gid}"
                    )
                elif entry.gid not in owner.resident:
                    violations.append(
                        f"tenant {owner.name!r} owns shared gid "
                        f"{entry.gid} but does not track it resident"
                    )
                exact[slot] = exact.get(slot, 0.0) + share
        if physical != self._resident_bytes:
            violations.append(
                f"owned shared bytes {physical} != arena resident "
                f"bytes {self._resident_bytes}"
            )
        sizes = self._blocks.sizes()
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
                if tenant.slot not in sharing.by_gid[gid].owners:
                    violations.append(
                        f"tenant {tenant.name!r} tracks shared gid "
                        f"{gid} resident without owning it"
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
                "service": "shared-arena/sharing",
                "entries": len(sharing.by_gid),
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
                "sharing": self.sharing is not None,
            }
            if self.sharing is not None:
                sharing = self.sharing
                report["sharing_stats"] = {
                    "entries": len(sharing.by_gid),
                    "shared_refs": sum(
                        len(e.mapped) for e in sharing.by_gid.values()
                    ),
                    "shared_joins": sharing.shared_joins,
                    "deferred_releases": sharing.deferred_releases,
                    "last_owner_evictions": sharing.last_owner_evictions,
                    "shared_policy_evictions":
                        sharing.shared_policy_evictions,
                    "dedup_ratio": (self.peak_logical_bytes
                                    / max(1, self.peak_resident_bytes)),
                }
            return report
