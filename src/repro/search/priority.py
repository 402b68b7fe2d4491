"""Priority-function eviction: the policy shape the search evolves.

:class:`PriorityFunctionPolicy` manages the cache at per-superblock
granularity, like fine-grained FIFO, but chooses victims by *score*
rather than age: on overflow it repeatedly evicts the resident block
whose feature vector (see :data:`repro.search.expr.FEATURES`) evaluates
lowest under a pluggable expression tree.  With the constant-score
expression the policy degenerates to exactly fine-grained FIFO (ties
break on insertion order), which is how the search's FIFO-equivalent
seed candidate works.  Each block is scored by
:func:`repro.search.expr.evaluate`, the language's definition.  Sweep
cells skip this class whenever the C kernel loads: the one-pass kernel
simulates the same policy with its expression VM
(:meth:`repro.analysis.kernel.KernelConfig.from_spec`).  This class
serves replay: the service tier, checked runs, ``diff-check`` and hosts
without a C compiler, where every sweep cell replays through it.

The policy is fully serializable — ``to_spec``/``from_spec`` round-trip
through the JSON policy-spec registry in :mod:`repro.core.policies` —
so the parallel sweep engine can rebuild a candidate inside a pool
worker from a few hundred bytes.  It also supports targeted eviction
(``evict_blocks``), which keeps it compatible with the service tier's
tenancy reclaim and sharing machinery despite its bespoke storage.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.cache import ConfigurationError, EvictionEvent
from repro.core.policies import EvictionPolicy, register_policy_kind
from repro.core.superblock import SuperblockSet
from repro.search import expr as expr_mod
from repro.search.expr import Expr


class PriorityFunctionPolicy(EvictionPolicy):
    """Evict the lowest-scoring superblock, one victim at a time.

    Parameters
    ----------
    expression:
        The score expression; lower scores evict first.
    superblocks:
        Optional static population providing link degrees for the
        ``in_degree``/``out_degree`` features.  Without it both degrees
        read as zero (the expression still evaluates — degree-blind).
    name:
        Display name in result grids (candidate id during a search).
    """

    def __init__(self, expression: Expr,
                 superblocks: SuperblockSet | None = None,
                 name: str = "priority") -> None:
        super().__init__()
        self.name = name
        self.expression = expression
        self._superblocks = superblocks
        #: Static link degrees, computed once per block on first insert.
        self._in_degree: dict[int, float] = {}
        self._out_degree: dict[int, float] = {}
        self._reset(0)

    def configure(self, capacity_bytes: int, max_block_bytes: int) -> None:
        if max_block_bytes > capacity_bytes:
            raise ConfigurationError(
                f"cache capacity {capacity_bytes} B cannot hold the largest "
                f"superblock ({max_block_bytes} B)"
            )
        self._reset(capacity_bytes)
        self._configured = True

    def _reset(self, capacity_bytes: int) -> None:
        self._capacity = capacity_bytes
        self._used = 0
        self._clock = 0
        #: Resident blocks in insertion order: the victim tie-break.
        self._sizes: dict[int, int] = {}
        self._insert_clock: dict[int, int] = {}
        self._last_touch: dict[int, int] = {}
        self._hits: dict[int, int] = {}

    # -- Policy surface -----------------------------------------------------

    def on_access(self, sid: int, hit: bool) -> list[EvictionEvent]:
        # Defining on_access marks the policy access-watching, so the
        # simulator calls it on every access — required here because
        # recency/hotness are per-access state.
        self._clock += 1
        if hit:
            self._last_touch[sid] = self._clock
            self._hits[sid] = self._hits.get(sid, 0) + 1
        return []

    def contains(self, sid: int) -> bool:
        return sid in self._sizes

    def insert(self, sid: int, size_bytes: int) -> list[EvictionEvent]:
        self._require_configured()
        if sid in self._sizes:
            raise ValueError(f"block {sid} is already resident")
        if size_bytes > self._capacity:
            raise ConfigurationError(
                f"block {sid} ({size_bytes} B) exceeds the cache capacity"
            )
        events: list[EvictionEvent] = []
        while self._used + size_bytes > self._capacity:
            events.append(self._evict(self._choose_victim()))
        self._sizes[sid] = size_bytes
        self._insert_clock[sid] = self._clock
        self._last_touch[sid] = self._clock
        self._hits[sid] = 0
        self._used += size_bytes
        if sid not in self._in_degree:
            blocks = self._superblocks
            if blocks is not None and sid in blocks:
                self._in_degree[sid] = float(len(blocks.incoming(sid)))
                self._out_degree[sid] = float(len(blocks.outgoing(sid)))
            else:
                self._in_degree[sid] = self._out_degree[sid] = 0.0
        return events

    def unit_of(self, sid: int) -> int:
        """Each block is its own eviction unit, as in fine-grained FIFO."""
        if sid not in self._sizes:
            raise KeyError(sid)
        return sid

    def resident_ids(self) -> set[int]:
        return set(self._sizes)

    @property
    def effective_unit_count(self) -> int:
        self._require_configured()
        return max(2, len(self._sizes))

    @property
    def needs_backpointer_table(self) -> bool:
        return True

    @property
    def used_bytes(self) -> int:
        self._require_configured()
        return self._used

    # -- Targeted eviction (tenancy reclaim) --------------------------------

    @property
    def supports_targeted_eviction(self) -> bool:
        return True

    def evict_blocks(self, sids) -> list[EvictionEvent]:
        self._require_configured()
        requested = set(sids)
        if not requested:
            return []
        missing = requested - set(self._sizes)
        if missing:
            raise KeyError(f"block(s) not resident: {sorted(missing)[:8]}")
        # One event per block: targeted reclaim is priced at the same
        # per-victim granularity as overflow eviction here.
        return [self._evict(sid) for sid in sorted(requested)]

    # -- Scoring ------------------------------------------------------------

    def features_of(self, sid: int) -> dict[str, float]:
        """The feature vector the expression sees for resident *sid*."""
        if sid not in self._sizes:
            raise KeyError(sid)
        return {
            "age": float(self._clock - self._insert_clock[sid]),
            "size": float(self._sizes[sid]),
            "in_degree": self._in_degree[sid],
            "out_degree": self._out_degree[sid],
            "hotness": float(self._hits[sid]),
            "recency": float(self._clock - self._last_touch[sid]),
            "occupancy": self._occupancy(),
        }

    def _occupancy(self) -> float:
        return self._used / self._capacity if self._capacity else 0.0

    def _choose_victim(self) -> int:
        # ``min`` keeps the first of equal keys and ``_sizes`` iterates
        # in insertion order, so ties break on insertion order and a
        # constant expression yields exact FIFO.
        return min(self._sizes, key=lambda sid: expr_mod.evaluate(
            self.expression, self.features_of(sid)))

    def _evict(self, sid: int) -> EvictionEvent:
        size = self._sizes.pop(sid)
        self._used -= size
        del self._insert_clock[sid]
        del self._last_touch[sid]
        del self._hits[sid]
        return EvictionEvent((sid,), size)

    # -- Serialization ------------------------------------------------------

    def to_spec(self) -> dict:
        """A JSON-safe spec ``policy_from_spec`` rebuilds this policy
        from (the wire format for pool workers and checkpoints)."""
        return {
            "kind": "priority",
            "name": self.name,
            "expression": expr_mod.to_dict(self.expression),
        }

    @classmethod
    def from_spec(cls, spec: Mapping,
                  superblocks: SuperblockSet | None = None,
                  ) -> "PriorityFunctionPolicy":
        expression = spec.get("expression")
        if expression is None:
            raise ConfigurationError(
                "priority policy spec is missing 'expression'"
            )
        return cls(
            expr_mod.from_dict(expression),
            superblocks=superblocks,
            name=str(spec.get("name", "priority")),
        )


def _build_priority(spec: Mapping,
                    superblocks: SuperblockSet | None) -> EvictionPolicy:
    return PriorityFunctionPolicy.from_spec(spec, superblocks=superblocks)


register_policy_kind("priority", _build_priority)
