"""Multi-tenant code-cache service.

The paper studies eviction granularity for a single process's code
cache; this package turns the trace-driven simulator into a long-running
*service* where many tenants stream superblock accesses into one
**shared** cache arena — the setting ShareJIT (Xu et al.) describes for
cross-process JIT code caches, with Memshare-style (Cidon et al.)
per-tenant quotas and cross-tenant reclaim arbitrating the shared space.

Layers, bottom up:

* :mod:`repro.service.tenancy` — the :class:`SharedArena`: one
  :class:`~repro.core.simulator.CodeCacheSimulator` serving every
  tenant through one table of refcounted entries (private to a tenant,
  or shared by content digest under ``--sharing``), per-tenant
  :class:`~repro.core.metrics.SimulationStats` (Equation 1 per tenant
  and unified), byte quotas layered over any granularity policy, and
  pressure-driven cross-tenant reclaim.
* :mod:`repro.service.protocol` — the newline-delimited JSON wire
  protocol.
* :mod:`repro.service.session` — one tenant's attachment: a bounded
  access queue drained by an asyncio consumer, with backpressure and
  fault-isolated teardown.
* :mod:`repro.service.server` — :class:`CacheService`: the asyncio TCP
  server plus an equivalent in-process API, admission control, and
  graceful drain.
* :mod:`repro.service.client` — :class:`ServiceClient` (a bare
  transport), :class:`ResilientClient` (the one retry loop: crash
  resume + history replay under one failure budget per call) and the
  load harness behind ``python -m repro.service load``.
* :mod:`repro.service.persist` — snapshots, the write-ahead log and
  the standby replica (mirrored WAL + copied snapshots, promoted over
  a dead primary on recovery).
* :mod:`repro.service.pool` / :mod:`repro.service.router` — the real
  worker-process fleet and the consistent-hashing front end with
  circuit breakers, live resharding (``admin`` op with
  drain-and-redirect) included.
* :mod:`repro.service.supervisor` — :class:`ShardSupervisor`: health
  probes, WAL heartbeats, and breaker-bracketed auto-restart of
  crashed or unresponsive shards.

Run ``python -m repro.service serve`` / ``load`` / ``route`` / ``admin``
/ ``chaos`` (see ``--help``).
"""

from repro.service.server import CacheService, ServiceConfig
from repro.service.supervisor import ShardSupervisor
from repro.service.tenancy import SharedArena, TenantQuota

__all__ = [
    "CacheService",
    "ServiceConfig",
    "ShardSupervisor",
    "SharedArena",
    "TenantQuota",
]
