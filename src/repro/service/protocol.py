"""The service's request protocol, written once for every tier.

The router maps a request onto an op with :func:`route`, the shard
owning the session runs it with :func:`execute`, and :func:`error_reply`
turns whatever the op raised into the status, body and ``Retry-After``
a client sees.  The single-process server is a one-shard pool inside
its process, so both tiers answer every request through these.

========  ==============================  ==========  ===================================
Method    Path                            Op          Action
========  ==============================  ==========  ===================================
GET       ``/healthz``                    healthz     per-shard stats, WAL recoveries
GET       ``/metrics``                    metrics     Prometheus text exposition
GET       ``/sessions``                   list        every session, resident and on disk
POST      ``/sessions``                   create      create a session
GET       ``/sessions/{id}``              status      session status
DELETE    ``/sessions/{id}``              close       checkpoint and drop from memory
POST      ``/sessions/{id}/propose``      propose     ``{batch_size, key?}`` → pairs
POST      ``/sessions/{id}/ingest``       ingest      ``{ticket, labels, key?}``
GET       ``/sessions/{id}/estimate``     estimate    current estimate + intervals
GET       ``/sessions/{id}/history``      history     estimate/CI trajectory
POST      ``/sessions/{id}/checkpoint``   checkpoint  journal state + new trajectory rows
========  ==============================  ==========  ===================================

A known path with another method is 400, any other path 404; a query
string is ignored.  Bodies are JSON objects; ``key`` is an optional
idempotency key (a retry replays the original response).  The create
body is ``{"predictions", "scores", "sampler"?, "sampler_kwargs"?,
"measure"?, "alpha"?, "seed"?, "session_id"?}``: ``measure`` is a kind
name or spec dict such as ``{"kind": "fmeasure", "alpha": 0.25}``,
sending both it and ``alpha`` is 400, and the router assigns
``session_id`` when absent.

========================================  ======  ===========  ========================
Raised                                    Status  Retry-After  Meaning
========================================  ======  ===========  ========================
``ValueError``, ``TypeError``             400                  malformed request
``SessionNotFoundError``, ``KeyError``    404                  no such session or path
``SessionConflictError``                  409                  double propose, stale ticket
``CorruptStateError``                     500                  body names path, offset
``CapacityError``                         503                  full, nothing evictable
``OverloadError``                         503     yes          inbox full or draining
``StorageFullError``, ENOSPC/EDQUOT       503     5            shard turns read-only
mutating op on a read-only shard          503     5            until the shard restarts
``DeadlineExceededError``                 504                  late: may have executed
``ReplyTooLargeError``                    507                  reply over the frame cap
anything else                             500                  ``"Type: message"``
========================================  ======  ===========  ========================

Error bodies are ``{"error": message}``.  503 means *not executed*:
resend after ``Retry-After``; 504 only under an idempotency key.  507
means the op ran but its reply would pass
:data:`~repro.service.rpc.MAX_FRAME_BYTES` (256 MiB; a history at about
10^7 draws): :func:`encode_reply` stops there on both tiers, so a
resend fails alike and is not retried.  Every
response carries ``X-Request-Id``: the request's own when well formed
(letters, digits, ``._-``, at most 64 chars), else a fresh one; it rides
the router→shard frames into the structured logs.
"""

from __future__ import annotations

import json
import mmap
import re
from urllib.parse import urlsplit

import numpy as np

from repro.service import rpc
from repro.service.errors import (
    VOLUME_FULL_ERRNOS,
    CorruptStateError,
    ReplyTooLargeError,
    ServiceError,
    StorageFullError,
)

__all__ = [
    "ROUTES",
    "MUTATING_OPS",
    "route",
    "parse_body",
    "execute",
    "storage_full",
    "error_reply",
    "encode_reply",
    "REPLY_CHUNK_ROWS",
]

#: ``(method, path)`` → op; ``{id}`` stands for a session id.
ROUTES = {
    ("GET", "/healthz"): "healthz",
    ("GET", "/metrics"): "metrics",
    ("GET", "/sessions"): "list",
    ("POST", "/sessions"): "create",
    ("GET", "/sessions/{id}"): "status",
    ("DELETE", "/sessions/{id}"): "close",
    ("POST", "/sessions/{id}/propose"): "propose",
    ("POST", "/sessions/{id}/ingest"): "ingest",
    ("GET", "/sessions/{id}/estimate"): "estimate",
    ("GET", "/sessions/{id}/history"): "history",
    ("POST", "/sessions/{id}/checkpoint"): "checkpoint",
}

#: Ops refused while a shard is read-only (its journal volume is full).
MUTATING_OPS = frozenset({"create", "propose", "ingest", "checkpoint",
                          "close"})

_PATHS = {path for _, path in ROUTES}

_SESSION_PATH = re.compile(
    r"^/sessions/(?P<sid>[A-Za-z0-9._-]+)(?P<action>(?:/[a-z]+)?)$")


def route(method: str, path: str) -> tuple[str, str | None]:
    """The ``(op, session id)`` a request names.

    ``path`` is the raw request target; its query string is ignored.
    Raises ``ValueError`` (400) for a known path with the wrong method
    and ``KeyError`` (404) for any other path.
    """
    path = urlsplit(path).path
    match = _SESSION_PATH.match(path)
    if match:
        sid, template = match["sid"], "/sessions/{id}" + match["action"]
    elif "{" in path:
        raise KeyError(path)  # a template is not a path
    else:
        sid, template = None, path
    op = ROUTES.get((method, template))
    if op is not None:
        return op, sid
    if template in _PATHS:
        raise ValueError(f"unsupported method {method} for {path}")
    raise KeyError(path)


def parse_body(body: bytes) -> dict:
    """A request body as a dict; an empty body is ``{}``."""
    if not body:
        return {}
    try:
        fields = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(fields, dict):
        raise ValueError("request body must be a JSON object")
    return fields


def _require(fields: dict, op: str, *names: str) -> None:
    if any(name not in fields for name in names):
        raise ValueError(f"{op} body needs {' and '.join(map(repr, names))}")


def execute(manager, op: str, sid: str | None, body: bytes):
    """Run one session op against ``manager``.

    Returns ``(payload, session)``: ``session`` is the session whose
    journal the op appended to and that must be flushed before the
    reply goes out, or ``None``.  Raises whatever the op raised; see
    :func:`error_reply`.
    """
    fields = parse_body(body)
    if op == "create":
        _require(fields, op, "predictions", "scores")
        session = manager.create_session(
            fields["predictions"],
            fields["scores"],
            sampler=fields.get("sampler", "oasis"),
            sampler_kwargs=fields.get("sampler_kwargs") or {},
            alpha=fields.get("alpha"),
            measure=fields.get("measure"),
            seed=fields.get("seed", 0),
            session_id=fields.get("session_id") or sid,
        )
        return session.status(), None
    if op == "list":
        return {"sessions": manager.list_sessions()}, None
    if op == "close":
        manager.close_session(sid)
        return {"session_id": sid, "closed": True}, None
    if op == "ingest":
        _require(fields, op, "ticket", "labels")
    session = manager.get(sid)
    if op == "status":
        return session.status(), None
    if op == "estimate":
        return session.estimate_payload(), None
    if op == "history":
        return session.history_fields(), None
    if op == "checkpoint":
        return {"session_id": sid, "seq": session.checkpoint()}, None
    if op == "propose":
        return session.propose(fields.get("batch_size", 1),
                               idempotency_key=fields.get("key")), session
    if op == "ingest":
        return session.ingest(fields["ticket"], fields["labels"],
                              idempotency_key=fields.get("key")), session
    raise ValueError(f"unknown shard op {op!r}")


def storage_full(exc: BaseException) -> bool:
    """Whether ``exc`` means the journal volume is full.

    The shard that sees it turns read-only: it refuses every mutating
    op with 503 until it restarts, and keeps serving reads.
    """
    return isinstance(exc, StorageFullError) or (
        isinstance(exc, OSError) and exc.errno in VOLUME_FULL_ERRNOS)


def error_reply(exc: BaseException) -> tuple[int, dict, float | None]:
    """``(status, payload, retry_after)`` for an exception (module table)."""
    if isinstance(exc, OSError) and exc.errno in VOLUME_FULL_ERRNOS:
        # A synchronous write (manifest, per-event shard) hit a full
        # volume; journal-before-mutate means the request did not happen.
        return 503, {"error": f"journal volume full: {exc}"}, 5.0
    if isinstance(exc, CorruptStateError):
        return exc.status, {"error": str(exc), "path": exc.path,
                            "offset": exc.offset}, None
    if isinstance(exc, ServiceError):
        return exc.status, {"error": str(exc)}, getattr(
            exc, "retry_after", None)
    if isinstance(exc, (ValueError, TypeError)):
        return 400, {"error": str(exc)}, None
    if isinstance(exc, KeyError):
        return 404, {"error": f"not found: {exc}"}, None
    return 500, {"error": f"{type(exc).__name__}: {exc}"}, None


#: Rows of a NumPy reply value turned into Python numbers at a time, so
#: encoding a reply holds one chunk of them, whatever the session's age.
REPLY_CHUNK_ROWS = 8192

#: The most bytes one row of a 1-D NumPy reply value takes, ``", "``
#: included, by dtype kind: a float's repr has at most 24 characters
#: (``-2.2250738585072014e-308``), an integer's at most 20.
_ROW_BYTES = {"b": 7, "i": 22, "u": 22, "f": 26}


def encode_reply(status: int, payload: dict, retry_after=None,
                 head=lambda status, retry_after: b""):
    """One reply as ``(status, body, retry_after)``.

    ``body`` is one writable buffer: ``head(status, retry_after)`` (a
    shard worker's frame prefix and header; nothing in-process), then
    exactly the bytes of ``json.dumps(payload)`` with every NumPy value
    a list.  Each 1-D NumPy value (bool, int or float: the history
    trajectories) is written :data:`REPLY_CHUNK_ROWS` rows at a time,
    NaN as ``null``, into anonymous pages sized by an upper bound of
    the text: only the bytes written become resident and the buffer
    never moves, so a reply's transient memory is about its body.

    A reply that would take ``body`` past
    :data:`repro.service.rpc.MAX_FRAME_BYTES` stops there and is
    answered with :class:`ReplyTooLargeError`'s 507 instead.
    """
    try:
        return status, _encode(head(status, retry_after), payload), retry_after
    except ReplyTooLargeError as exc:
        status, payload, retry_after = error_reply(exc)
        return status, _encode(head(status, retry_after), payload), retry_after


def _encode(head: bytes, payload: dict):
    limit = rpc.MAX_FRAME_BYTES
    if not any(isinstance(value, np.ndarray) for value in payload.values()):
        out = bytearray(head)
        out += json.dumps(payload).encode("ascii")
        if len(out) > limit:
            raise _too_large(len(out), limit)
        return out
    parts = [(json.dumps(key) + ": ",
              value if isinstance(value, np.ndarray) else json.dumps(value))
             for key, value in payload.items()]
    bound = len(head) + 2 * len(parts) + sum(
        len(key) + (_ROW_BYTES[value.dtype.kind] * len(value) + 2
                    if isinstance(value, np.ndarray) else len(value))
        for key, value in parts)
    # Anonymous pages: only those written become resident, and the
    # buffer never moves (so is never copied) as it fills.
    out = mmap.mmap(-1, min(bound, limit))

    def put(text) -> None:
        data = text.encode("ascii") if isinstance(text, str) else text
        if out.tell() + len(data) > limit:
            raise _too_large(out.tell() + len(data), limit)
        out.write(data)

    put(head)
    put("{")
    for position, (key, value) in enumerate(parts):
        put(", " + key if position else key)
        if not isinstance(value, np.ndarray):
            put(value)
            continue
        put("[")
        for start in range(0, len(value), REPLY_CHUNK_ROWS):
            chunk = value[start:start + REPLY_CHUNK_ROWS]
            rows = chunk.tolist()
            if chunk.dtype.kind == "f" and np.isnan(chunk).any():
                rows = [None if row != row else row for row in rows]
            put((", " if start else "") + json.dumps(rows)[1:-1])
        put("]")
    put("}")
    return memoryview(out)[:out.tell()]


def _too_large(size: int, limit: int) -> ReplyTooLargeError:
    return ReplyTooLargeError(
        f"reply of at least {size} bytes passes the {limit}-byte frame cap")
