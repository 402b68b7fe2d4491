"""The service wire protocol: newline-delimited JSON messages.

One request per line, one response per line, strictly in order.  The
framing is deliberately boring — every client platform can speak it, a
captured session is human-readable, and a torn line is detected by the
JSON parser rather than a length prefix.

Requests (``op`` selects the operation):

``hello``
    Open a session: ``{"op": "hello", "tenant": str, "benchmark": str,
    "scale": float?, "quota_bytes": int?, "weight": float?}`` or, for
    non-registry tenants, ``"block_sizes": [int, ...]`` instead of
    ``benchmark``/``scale``.  Rejected with ``retry_after`` when the
    server is at its admission limit.  ``"resume": true`` re-adopts a
    tenant a persistence-enabled worker recovered (or parked on a lost
    connection): the response's ``applied_seq`` is the exactly-once
    watermark the client resends from.  ``"block_digests":
    [str, ...]`` (parallel to the block population) carries per-block
    content digests for ShareJIT-style dedup on a sharing-enabled
    server; the response's ``sharing`` flag reports the server's mode.
``access``
    Stream a batch: ``{"op": "access", "sids": [int, ...], "seq":
    int?, "sync": bool?}``.  Without ``sync`` the batch is *queued*
    and acknowledged before it is applied; a full session queue
    rejects the batch with ``retry_after`` (backpressure).  With
    ``sync`` the server applies the batch, after every batch queued
    before it, before acknowledging (the deterministic mode recovery
    harnesses drive).  ``seq`` is the per-tenant batch sequence number
    for exactly-once application after a failover.  Over its
    per-tenant token-bucket budget the batch is rejected
    ``rate-limited`` with the exact ``retry_after`` the bucket needs to
    refill.  :func:`encode` sorts keys and every other access field
    sorts after ``op``, so an encoded access line starts with
    :data:`ACCESS_PREFIX`.
``stats``
    Flush the session's queue, then report per-tenant and unified
    stats.
``close``
    Flush, detach the tenant (evicting its resident blocks) and report
    final stats.
``ping``
    Liveness probe; also reports service-level counters.
``admin``
    Router-only topology control: ``{"op": "admin", "action":
    "add-shard" | "remove-shard" | "health" | "topology", ...}``.
    Workers reject it (``bad-request``); the router handles it locally
    and never relays it to a shard.  ``add-shard`` takes either an
    explicit ``shard``/``host``/``port`` endpoint or, when the router
    owns a worker pool, spawns a fresh worker; ``remove-shard`` takes
    the ``shard`` id and drops it from the ring (sessions pinned to
    moved tenants are drained and redirected with ``shard-moved`` on
    their next request).

Responses always carry ``"ok"``; failures add ``"error"`` (a stable
token such as ``overloaded`` / ``backpressure`` / ``session-failed``)
plus a human-readable ``"detail"`` and, for retryable conditions,
``"retry_after"`` in seconds.
"""

from __future__ import annotations

import json

PROTOCOL_VERSION = 1

#: Upper bound on one protocol line; a client that exceeds it is
#: misbehaving (or not speaking this protocol) and is disconnected.
MAX_LINE_BYTES = 1 << 20

OPS = ("hello", "access", "stats", "close", "ping")

#: How every :func:`encode`-d access request starts: the router relays
#: a line with this prefix without decoding it.
ACCESS_PREFIX = b'{"op":"access",'

#: Stable error tokens clients can dispatch on.
ERR_OVERLOADED = "overloaded"
ERR_BACKPRESSURE = "backpressure"
ERR_BAD_REQUEST = "bad-request"
ERR_NO_SESSION = "no-session"
ERR_SESSION_FAILED = "session-failed"
ERR_DRAINING = "draining"
ERR_FAULT = "injected-fault"
ERR_RATE_LIMITED = "rate-limited"
ERR_SHARD_UNAVAILABLE = "shard-unavailable"
#: The ring no longer maps this connection's tenant to the shard it is
#: pinned to (a live add/remove-shard moved it).  The router drains the
#: old shard and the client must reconnect to reach the new owner.
ERR_SHARD_MOVED = "shard-moved"

#: Admin actions the router's ``admin`` op accepts.
ADMIN_ACTIONS = ("add-shard", "remove-shard", "health", "topology")


class ProtocolError(ValueError):
    """A malformed or invalid protocol message."""


def encode(message: dict) -> bytes:
    """Serialize one message as a JSON line."""
    return (json.dumps(message, separators=(",", ":"),
                       sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse and structurally validate one received line."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte line limit"
        )
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"undecodable message: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"a message must be a JSON object, got {type(message).__name__}"
        )
    return message


def validate_request(message: dict) -> str:
    """Check a client request's shape; return its ``op``.

    Field-level semantics (unknown benchmark, quota bounds, ...) are the
    server's job; this guards the shapes the dispatch code relies on.
    Numeric fields are checked by exact type: JSON ``true``/``false``
    decode to ``bool``, a subclass of ``int``, and are no id, sequence
    number, size or weight.
    """
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {', '.join(OPS)}"
        )
    if op == "hello":
        tenant = message.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("hello needs a non-empty string 'tenant'")
        sizes = message.get("block_sizes")
        benchmark = message.get("benchmark")
        if sizes is None and not isinstance(benchmark, str):
            raise ProtocolError(
                "hello needs 'benchmark' (a registry name) or "
                "'block_sizes' (a list of sizes)"
            )
        if sizes is not None:
            if (not isinstance(sizes, list) or not sizes
                    or not all(type(s) is int and s > 0 for s in sizes)):
                raise ProtocolError(
                    "'block_sizes' must be a non-empty list of positive ints"
                )
        digests = message.get("block_digests")
        if digests is not None:
            if (not isinstance(digests, list) or not digests
                    or not all(isinstance(d, str) and d for d in digests)):
                raise ProtocolError(
                    "'block_digests' must be a non-empty list of "
                    "non-empty strings"
                )
            if sizes is not None and len(digests) != len(sizes):
                raise ProtocolError(
                    f"'block_digests' ({len(digests)}) must parallel "
                    f"'block_sizes' ({len(sizes)})"
                )
        for field, kinds in (("scale", (int, float)),
                             ("quota_bytes", (int,)),
                             ("weight", (int, float))):
            value = message.get(field)
            if value is not None and (
                    type(value) not in kinds or value <= 0):
                raise ProtocolError(f"{field!r} must be a positive number")
        resume = message.get("resume")
        if resume is not None and not isinstance(resume, bool):
            raise ProtocolError("'resume' must be a boolean")
    elif op == "access":
        sids = message.get("sids")
        if (not isinstance(sids, list) or not sids
                or not all(type(s) is int and s >= 0 for s in sids)):
            raise ProtocolError(
                "'sids' must be a non-empty list of non-negative ints"
            )
        seq = message.get("seq")
        if seq is not None and (type(seq) is not int or seq < 1):
            raise ProtocolError("'seq' must be a positive int")
        sync = message.get("sync")
        if sync is not None and not isinstance(sync, bool):
            raise ProtocolError("'sync' must be a boolean")
    return op


def ok(op: str, **fields) -> dict:
    """A success response for *op*."""
    return {"ok": True, "op": op, **fields}


def error(op: str, token: str, detail: str,
          retry_after: float | None = None, **fields) -> dict:
    """A failure response; *token* is machine-matchable, *detail* human."""
    message = {"ok": False, "op": op, "error": token, "detail": detail,
               **fields}
    if retry_after is not None:
        message["retry_after"] = retry_after
    return message
