"""The per-layer metric table every traced run reports.

A traced run (``--trace 1``) prints every metric below, whichever
workload it ran; layers the workload does not pass through read 0.
Times are medians over the workload's operations (one sweep, one
access batch, one population scored).
"""

from __future__ import annotations

PER_LAYER = {
    # sweep-ladder: one full grid, build to cache round trip.
    "sweep.build_ms": "ms",
    "sweep.marshal_ms": "ms",
    "sweep.kernel_ms": "ms",
    "sweep.fold_ms": "ms",
    "sweep.cache_io_ms": "ms",
    "sweep.grid_cells": "count",
    # service-fleet: one access batch through the router.
    "svc.encode_us": "us",
    "svc.decode_us": "us",
    "svc.validate_us": "us",
    "svc.router_relay_us": "us",
    "svc.shard_wait_us": "us",
    "svc.step_us": "us",
    "svc.wal_us": "us",
    "svc.worker_other_us": "us",
    "svc.retries": "count",
    # search-eval: one population scored over the fitness set.
    "eval.victim_ms": "ms",
    "eval.replay_ms": "ms",
    "eval.victims": "count",
}


def layer_metrics(values: dict[str, float]) -> dict:
    """The full per-layer metric block, zero where *values* is silent."""
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"metrics missing from the layer table: {unknown}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()}
