"""Eviction policies across the paper's whole granularity spectrum.

The granularity ladder (Figures 6-15) runs::

    FLUSH (1 unit) - 2 - 4 - 8 - ... - 512 units - fine-grained FIFO

plus two policies from related work that we implement for comparison:
Dynamo's preemptive flush (flush on a detected phase change rather than
on overflow) and generational caching (Hazelwood & M. Smith 2003).

A policy owns the cache mechanism and exposes a uniform surface to the
simulator: residency lookup, insertion (returning the eviction events it
triggered), the unit key of each resident block (for classifying links
as intra- or inter-unit), and whether the configuration needs a
back-pointer table at all (FLUSH does not — Section 5 of the paper).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import Callable, Mapping, Union

from repro.core.cache import (
    CircularBlockBuffer,
    ConfigurationError,
    EvictionEvent,
    UnitCache,
)

#: The unit counts plotted in the paper's figures, FLUSH through 512.
STANDARD_UNIT_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


class EvictionPolicy(ABC):
    """Interface between the simulator and a cache-management scheme.

    A policy is constructed unconfigured, then bound to a concrete cache
    geometry with :meth:`configure` (capacity depends on the workload's
    ``maxCache`` and the pressure factor, which the experiment chooses).
    """

    #: Short name used in result tables; set by subclasses.
    name: str = "abstract"

    def __init__(self) -> None:
        self._configured = False

    @abstractmethod
    def configure(self, capacity_bytes: int, max_block_bytes: int) -> None:
        """Bind the policy to a cache of *capacity_bytes*, guaranteeing it
        can hold any block up to *max_block_bytes*."""

    @abstractmethod
    def contains(self, sid: int) -> bool:
        """True when block *sid* is resident."""

    @abstractmethod
    def insert(self, sid: int, size_bytes: int) -> list[EvictionEvent]:
        """Insert block *sid*; return the eviction invocations triggered."""

    @abstractmethod
    def unit_of(self, sid: int) -> int:
        """Stable key of the eviction unit currently holding *sid*."""

    @abstractmethod
    def resident_ids(self) -> set[int]:
        """The set of resident block ids."""

    @property
    @abstractmethod
    def effective_unit_count(self) -> int:
        """Number of eviction units after any geometry clamping."""

    @property
    def needs_backpointer_table(self) -> bool:
        """Whether inter-unit links can exist, requiring a back-pointer
        table (everything except a single-unit FLUSH cache)."""
        return self.effective_unit_count > 1

    def on_access(self, sid: int, hit: bool) -> list[EvictionEvent]:
        """Hook called for every access before it is serviced.

        Most policies ignore it; the preemptive-flush policy uses it to
        watch for phase changes.  May return eviction events (a
        preemptive flush) that the simulator must account for.
        """
        return []

    def internal_caches(self) -> tuple:
        """The concrete cache mechanisms (``UnitCache`` /
        ``CircularBlockBuffer``) backing this policy, for deep invariant
        checking (:mod:`repro.core.invariants`).  Policies with bespoke
        storage return ``()`` and get the generic checks only."""
        return ()

    @property
    def supports_targeted_eviction(self) -> bool:
        """Whether :meth:`evict_blocks` works for this (configured)
        policy — true when every backing mechanism supports targeted
        removal.  Tenancy arbitration (:mod:`repro.service`) requires
        it and rejects policies that answer false."""
        caches = self.internal_caches()
        return bool(caches) and all(
            hasattr(cache, "evict_blocks") for cache in caches
        )

    def evict_blocks(self, sids) -> list[EvictionEvent]:
        """Evict specific resident blocks (tenancy reclaim).

        Unlike overflow eviction, the caller — not the policy — chooses
        the victims; the policy merely removes them from whichever
        mechanism holds them (one :class:`EvictionEvent` per mechanism
        touched).  Raises :class:`ConfigurationError` for policies with
        bespoke storage that cannot remove individual blocks, and
        :class:`KeyError` if any requested block is not resident.
        """
        self._require_configured()
        remaining = set(sids)
        if not remaining:
            return []
        if not self.supports_targeted_eviction:
            raise ConfigurationError(
                f"policy {self.name!r} does not support targeted "
                f"eviction; tenancy quotas need a policy backed by "
                f"UnitCache or CircularBlockBuffer"
            )
        events = []
        for cache in self.internal_caches():
            held = remaining & cache.resident_ids()
            if held:
                events.append(cache.evict_blocks(held))
                remaining -= held
        if remaining:
            raise KeyError(
                f"block(s) not resident: {sorted(remaining)[:8]}"
            )
        return events

    def _require_configured(self) -> None:
        if not self._configured:
            raise RuntimeError(f"{self.name}: configure() must be called first")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class UnitFifoPolicy(EvictionPolicy):
    """Medium-grained FIFO: evict one of *n* equal cache units at a time.

    The requested unit count is clamped so a unit can always hold the
    largest superblock (the paper's units contain "several code blocks");
    small benchmarks therefore saturate the ladder early, exactly as a
    real implementation would have to.
    """

    def __init__(self, unit_count: int) -> None:
        super().__init__()
        if unit_count < 1:
            raise ValueError(f"unit count must be >= 1, got {unit_count}")
        self.requested_unit_count = unit_count
        self.name = f"{unit_count}-unit" if unit_count > 1 else "FLUSH"
        self._cache: UnitCache | None = None

    def configure(self, capacity_bytes: int, max_block_bytes: int) -> None:
        most_units = max(1, capacity_bytes // max_block_bytes)
        clamped = min(self.requested_unit_count, most_units)
        self._cache = UnitCache(capacity_bytes, clamped, max_block_bytes)
        self._configured = True

    def contains(self, sid: int) -> bool:
        return sid in self._cache

    def insert(self, sid: int, size_bytes: int) -> list[EvictionEvent]:
        self._require_configured()
        return self._cache.insert(sid, size_bytes)

    def unit_of(self, sid: int) -> int:
        return self._cache.unit_of(sid)

    def resident_ids(self) -> set[int]:
        return self._cache.resident_ids()

    def internal_caches(self) -> tuple:
        return (self._cache,) if self._cache is not None else ()

    @property
    def effective_unit_count(self) -> int:
        self._require_configured()
        return self._cache.unit_count

    @property
    def used_bytes(self) -> int:
        self._require_configured()
        return self._cache.used_bytes


class FlushPolicy(UnitFifoPolicy):
    """The coarsest granularity: flush the whole cache when it fills."""

    def __init__(self) -> None:
        super().__init__(unit_count=1)


class FineGrainedFifoPolicy(EvictionPolicy):
    """The finest granularity: a circular buffer of individual blocks.

    Each insertion that needs space evicts the minimum number of oldest
    blocks, in one invocation — the baseline of the paper's Figure 8.
    """

    def __init__(self) -> None:
        super().__init__()
        self.name = "FIFO"
        self._cache: CircularBlockBuffer | None = None

    def configure(self, capacity_bytes: int, max_block_bytes: int) -> None:
        self._cache = CircularBlockBuffer(capacity_bytes, max_block_bytes)
        self._configured = True

    def contains(self, sid: int) -> bool:
        return sid in self._cache

    def insert(self, sid: int, size_bytes: int) -> list[EvictionEvent]:
        self._require_configured()
        return self._cache.insert(sid, size_bytes)

    def unit_of(self, sid: int) -> int:
        return self._cache.unit_of(sid)

    def resident_ids(self) -> set[int]:
        return self._cache.resident_ids()

    def internal_caches(self) -> tuple:
        return (self._cache,) if self._cache is not None else ()

    @property
    def effective_unit_count(self) -> int:
        # Every block is its own unit; report the resident count, which is
        # what matters for "can inter-unit links exist" (yes, once two
        # blocks are resident).
        self._require_configured()
        return max(2, self._cache.resident_count)

    @property
    def needs_backpointer_table(self) -> bool:
        return True


class PreemptiveFlushPolicy(EvictionPolicy):
    """Dynamo's policy: flush the whole cache on a detected phase change.

    Dynamo observed that a burst of new-code formation signals a program
    phase change and that flushing *then* beats flushing on overflow.
    The detector compares a fast and a slow exponential moving average
    of the miss indicator: when the recent miss rate spikes to
    ``spike_ratio`` times its long-run level while the cache is
    substantially full, the phase has shifted and the cache is flushed
    preemptively.  Overflow still forces a flush as a backstop, and a
    cooldown prevents re-triggering while the new phase warms up.
    """

    def __init__(self, fast_alpha: float = 0.01, slow_alpha: float = 0.0005,
                 spike_ratio: float = 1.8, min_fill_fraction: float = 0.5,
                 warmup_accesses: int = 2000,
                 cooldown_accesses: int = 2000) -> None:
        super().__init__()
        if not 0.0 < slow_alpha < fast_alpha <= 1.0:
            raise ValueError("need 0 < slow_alpha < fast_alpha <= 1")
        if spike_ratio <= 1.0:
            raise ValueError("spike_ratio must exceed 1")
        if warmup_accesses < 1 or cooldown_accesses < 0:
            raise ValueError("warmup/cooldown must be non-negative "
                             "(warmup positive)")
        self.name = "PREEMPT"
        self.fast_alpha = fast_alpha
        self.slow_alpha = slow_alpha
        self.spike_ratio = spike_ratio
        self.min_fill_fraction = min_fill_fraction
        self.warmup_accesses = warmup_accesses
        self.cooldown_accesses = cooldown_accesses
        self._cache: UnitCache | None = None
        self._fast = 0.0
        self._slow = 0.0
        self._accesses = 0
        self._cooldown_until = 0
        self.preemptive_flushes = 0

    def configure(self, capacity_bytes: int, max_block_bytes: int) -> None:
        self._cache = UnitCache(capacity_bytes, 1, max_block_bytes)
        self._fast = 0.0
        self._slow = 0.0
        self._accesses = 0
        self._cooldown_until = 0
        self.preemptive_flushes = 0
        self._configured = True

    def on_access(self, sid: int, hit: bool) -> list[EvictionEvent]:
        self._require_configured()
        miss = 0.0 if hit else 1.0
        self._fast += self.fast_alpha * (miss - self._fast)
        self._slow += self.slow_alpha * (miss - self._slow)
        self._accesses += 1
        if self._accesses < self.warmup_accesses:
            return []
        if self._accesses < self._cooldown_until:
            return []
        cache = self._cache
        fill = cache.used_bytes / cache.capacity_bytes
        spiking = self._fast > self.spike_ratio * max(self._slow, 0.01)
        if spiking and fill >= self.min_fill_fraction:
            event = cache.flush()
            self._cooldown_until = self._accesses + self.cooldown_accesses
            # Converge the detector so the flush's own misses don't
            # immediately re-trigger it.
            self._fast = self._slow
            if event is not None:
                self.preemptive_flushes += 1
                return [event]
        return []

    def contains(self, sid: int) -> bool:
        return sid in self._cache

    def insert(self, sid: int, size_bytes: int) -> list[EvictionEvent]:
        self._require_configured()
        return self._cache.insert(sid, size_bytes)

    def unit_of(self, sid: int) -> int:
        return self._cache.unit_of(sid)

    def resident_ids(self) -> set[int]:
        return self._cache.resident_ids()

    def internal_caches(self) -> tuple:
        return (self._cache,) if self._cache is not None else ()

    @property
    def effective_unit_count(self) -> int:
        return 1


class GenerationalPolicy(EvictionPolicy):
    """Two-generation cache management (Hazelwood & M. Smith, MICRO 2003).

    The cache is split into a *nursery* and a *persistent* region, each a
    unit-FIFO cache.  Blocks are born in the nursery; a block that keeps
    coming back (missed again after eviction ``promote_after`` times) has
    proven long-lived and is placed in the persistent region, where
    churn — and therefore link breakage — is far lower.
    """

    def __init__(self, nursery_fraction: float = 0.5, nursery_units: int = 8,
                 persistent_units: int = 2, promote_after: int = 1) -> None:
        super().__init__()
        if not 0.0 < nursery_fraction < 1.0:
            raise ValueError("nursery_fraction must be in (0, 1)")
        if promote_after < 1:
            raise ValueError("promote_after must be >= 1")
        self.name = "GEN"
        self.nursery_fraction = nursery_fraction
        self.nursery_units = nursery_units
        self.persistent_units = persistent_units
        self.promote_after = promote_after
        self._nursery: UnitCache | None = None
        self._persistent: UnitCache | None = None
        self._evict_counts: Counter[int] = Counter()
        self.promotions = 0

    def configure(self, capacity_bytes: int, max_block_bytes: int) -> None:
        nursery_bytes = int(capacity_bytes * self.nursery_fraction)
        persistent_bytes = capacity_bytes - nursery_bytes
        if min(nursery_bytes, persistent_bytes) < max_block_bytes:
            raise ConfigurationError(
                "both generations must hold the largest superblock; "
                "increase capacity or adjust nursery_fraction"
            )
        nursery_units = max(1, min(self.nursery_units,
                                   nursery_bytes // max_block_bytes))
        persistent_units = max(1, min(self.persistent_units,
                                      persistent_bytes // max_block_bytes))
        self._nursery = UnitCache(nursery_bytes, nursery_units, max_block_bytes)
        self._persistent = UnitCache(persistent_bytes, persistent_units,
                                     max_block_bytes)
        self._evict_counts = Counter()
        self.promotions = 0
        self._configured = True

    def contains(self, sid: int) -> bool:
        return sid in self._nursery or sid in self._persistent

    def insert(self, sid: int, size_bytes: int) -> list[EvictionEvent]:
        self._require_configured()
        born_again = self._evict_counts[sid] >= self.promote_after
        region = self._persistent if born_again else self._nursery
        if born_again:
            self.promotions += 1
        events = region.insert(sid, size_bytes)
        for event in events:
            self._evict_counts.update(event.blocks)
        return events

    def evict_blocks(self, sids) -> list[EvictionEvent]:
        # Targeted reclaim is still an eviction: bump the victims'
        # evict counts so a reclaimed block that keeps coming back is
        # promoted exactly as an overflow-evicted one would be.
        events = super().evict_blocks(sids)
        for event in events:
            self._evict_counts.update(event.blocks)
        return events

    def unit_of(self, sid: int) -> int:
        if sid in self._nursery:
            return self._nursery.unit_of(sid)
        # Offset persistent unit keys past the nursery's to keep them distinct.
        return self._nursery.unit_count + self._persistent.unit_of(sid)

    def resident_ids(self) -> set[int]:
        return self._nursery.resident_ids() | self._persistent.resident_ids()

    def internal_caches(self) -> tuple:
        if self._nursery is None:
            return ()
        return (self._nursery, self._persistent)

    @property
    def effective_unit_count(self) -> int:
        self._require_configured()
        return self._nursery.unit_count + self._persistent.unit_count


# -- Policy-spec registry -----------------------------------------------------
#
# A policy *spec* is a small JSON-safe mapping ({"kind": ..., ...}) that
# names a policy kind plus its parameters; it is the one way to build a
# policy.  Specs are what crosses process boundaries: the sweep engine
# ships them to pool workers (SweepTask.policy_specs) and the search
# driver checkpoints them, so a worker can rebuild any policy —
# including a discovered PriorityFunctionPolicy — from a few hundred
# bytes.  The CLIs' policy strings (``fifo``, ``64-unit``, ...) are a
# shorthand for specs, expanded by :func:`policy_spec`.

PolicySpec = Union[Mapping, str]
PolicyBuilder = Callable[[Mapping, object], EvictionPolicy]

_POLICY_BUILDERS: dict[str, PolicyBuilder] = {}

#: The kinds of the granularity ladder's rungs.  Their policies act
#: only on insert, so the one-pass kernel simulates them and the DBT
#: runtime, which never calls ``on_access``, can run them.
LADDER_KINDS = ("flush", "unit", "fifo")

#: Kinds the shorthand names by a bare word (they take no parameters).
_WORD_KINDS = ("flush", "fifo", "preempt", "gen", "lru")

SHORTHAND_FORMS = (f"{', '.join(_WORD_KINDS)}, or a unit count like "
                   f"64 / 64-unit")


def register_policy_kind(kind: str, builder: PolicyBuilder) -> None:
    """Register a builder for policy specs of *kind*.

    The builder receives ``(spec, superblocks)``; *superblocks* is the
    workload's :class:`~repro.core.superblock.SuperblockSet` (or None)
    for policies whose decisions read the static link graph.
    """
    if not kind:
        raise ValueError("policy kind must be a non-empty string")
    _POLICY_BUILDERS[kind] = builder


def registered_policy_kinds() -> tuple[str, ...]:
    return tuple(sorted(_POLICY_BUILDERS))


def _unit_spec(count: int) -> dict:
    return ({"kind": "flush"} if count == 1
            else {"kind": "unit", "unit_count": count})


def policy_spec(spec: PolicySpec) -> Mapping:
    """*spec* as a spec mapping, expanding the CLI shorthand.

    Mappings pass through unchanged.  A string is, case-insensitively,
    a parameterless kind (``flush``, ``fifo``, ``preempt``, ``gen``,
    ``lru``) or a unit count (``64`` or ``64-unit``; ``1`` is FLUSH).
    """
    if isinstance(spec, Mapping):
        return spec
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"policy spec must be a mapping or a string, got "
            f"{type(spec).__name__}"
        )
    token = spec.strip().lower()
    if token in _WORD_KINDS:
        return {"kind": token}
    count = token.removesuffix("-unit")
    if count.isdigit() and int(count) >= 1:
        return _unit_spec(int(count))
    raise ConfigurationError(
        f"unknown policy {spec!r}; expected {SHORTHAND_FORMS}"
    )


def _named(policy: EvictionPolicy, spec: Mapping) -> EvictionPolicy:
    name = spec.get("name")
    if name is not None:
        policy.name = str(name)
    return policy


def _build_unit(spec: Mapping, superblocks) -> EvictionPolicy:
    unit_count = spec.get("unit_count")
    if (isinstance(unit_count, bool) or not isinstance(unit_count, int)
            or unit_count < 1):
        raise ConfigurationError(
            f"unit policy spec needs a positive integer 'unit_count', "
            f"got {unit_count!r}"
        )
    return _named(UnitFifoPolicy(unit_count), spec)


def _build_lru(spec: Mapping, superblocks) -> EvictionPolicy:
    from repro.core.lru import LruPolicy  # lru imports this module

    return _named(LruPolicy(), spec)


register_policy_kind("flush", lambda spec, _: _named(FlushPolicy(), spec))
register_policy_kind("unit", _build_unit)
register_policy_kind(
    "fifo", lambda spec, _: _named(FineGrainedFifoPolicy(), spec))
register_policy_kind(
    "preempt", lambda spec, _: _named(PreemptiveFlushPolicy(), spec))
register_policy_kind(
    "gen", lambda spec, _: _named(GenerationalPolicy(), spec))
register_policy_kind("lru", _build_lru)


def policy_from_spec(spec: PolicySpec, superblocks=None) -> EvictionPolicy:
    """Build a fresh (unconfigured) policy from a spec or its shorthand.

    The ``priority`` kind self-registers on import of
    :mod:`repro.search.priority`; it is imported lazily here so the
    core package keeps no static dependency on the search subsystem.
    """
    spec = policy_spec(spec)
    kind = spec.get("kind")
    if kind == "priority" and kind not in _POLICY_BUILDERS:
        import repro.search.priority  # noqa: F401 - registers the kind
    builder = _POLICY_BUILDERS.get(kind)
    if builder is None:
        raise ConfigurationError(
            f"unknown policy kind {kind!r}; registered: "
            f"{', '.join(registered_policy_kinds())}"
        )
    return builder(spec, superblocks)


def ladder_specs(unit_counts: tuple[int, ...] = STANDARD_UNIT_COUNTS,
                 include_fine: bool = True) -> list[dict]:
    """The paper's standard policy ladder as specs, coarse to fine.

    A unit count of 1 is FLUSH.  With *include_fine* the finest-grained
    FIFO policy is appended as the last rung.
    """
    specs = [_unit_spec(count) for count in unit_counts]
    if include_fine:
        specs.append({"kind": "fifo"})
    return specs


def granularity_ladder(include_fine: bool = True,
                       unit_counts: tuple[int, ...] = STANDARD_UNIT_COUNTS,
                       ) -> list[EvictionPolicy]:
    """Build the paper's standard policy ladder, coarse to fine
    (:func:`ladder_specs`, one fresh policy per rung)."""
    return [policy_from_spec(spec)
            for spec in ladder_specs(unit_counts, include_fine)]
