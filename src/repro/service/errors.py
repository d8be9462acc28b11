"""Service-layer exceptions with HTTP status mappings.

The session, manager and HTTP layers share one exception vocabulary so
failures translate mechanically: every :class:`ServiceError` carries
the status code its HTTP rendering should use, and
:func:`repro.service.protocol.error_reply` maps the rest (plain
``ValueError`` / ``KeyError`` → 400 / 404, a full volume → 503).
"""

from __future__ import annotations

import errno

from repro.utils.io import CorruptStateError

__all__ = [
    "ServiceError",
    "SessionNotFoundError",
    "SessionConflictError",
    "CapacityError",
    "OverloadError",
    "StorageFullError",
    "DeadlineExceededError",
    "ReplyTooLargeError",
    "CorruptStateError",
    "VOLUME_FULL_ERRNOS",
]

#: ``errno`` values of a write that found the journal volume full.
VOLUME_FULL_ERRNOS = (errno.ENOSPC, errno.EDQUOT)


class ServiceError(Exception):
    """Base class for service failures; ``status`` is the HTTP code."""

    status = 500


class SessionNotFoundError(ServiceError, KeyError):
    """No live or on-disk session under the requested id."""

    status = 404

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return self.args[0] if self.args else "session not found"


class SessionConflictError(ServiceError):
    """The request is valid but not in this session state.

    Raised for protocol violations: proposing while a batch is already
    outstanding, ingesting with a stale or unknown ticket, or ingesting
    when nothing was proposed.
    """

    status = 409


class CapacityError(ServiceError):
    """The manager is full and nothing can be evicted."""

    status = 503


class OverloadError(ServiceError):
    """The service is temporarily unable to take the request.

    Backpressure, not failure: a shard's bounded queue is full, a shard
    worker is restarting after a crash, or the server is draining for
    shutdown.  The HTTP rendering is 503 with a ``Retry-After`` header
    carrying :attr:`retry_after` (seconds) — clients should back off
    and retry; the request was **not** executed and no event was
    journalled.
    """

    status = 503

    def __init__(self, message: str, *, retry_after: float = 0.05):
        super().__init__(message)
        self.retry_after = float(retry_after)


class StorageFullError(OverloadError):
    """The journal volume is out of space; the service is read-only.

    Raised when a WAL write fails with ``ENOSPC``/``EDQUOT``.  Because
    events are journalled *before* they mutate in-memory state (and a
    shard worker that cannot flush discards the affected sessions and
    reloads them from their journals), no state is corrupted: the
    mutation simply did not happen.  Reads keep working; mutations are
    refused with 503 until space returns — degradation, not damage.
    """

    def __init__(self, message: str, *, retry_after: float = 5.0):
        super().__init__(message, retry_after=retry_after)


class DeadlineExceededError(ServiceError):
    """A request's deadline expired before the backend answered.

    The HTTP rendering is **504**: the request may or may not have
    executed (the answer is simply late), which is exactly what
    distinguishes it from the not-executed 503 backpressure family.
    Clients recover the truth through the idempotency key or ticket on
    retry — a keyed retry of a request that did land replays the
    original response instead of double-applying.
    """

    status = 504


class ReplyTooLargeError(ServiceError):
    """A reply would pass the RPC frame cap, so it is not sent.

    Raised while a reply is encoded
    (:func:`repro.service.protocol.encode_reply`), on both tiers, once
    its bytes pass :data:`repro.service.rpc.MAX_FRAME_BYTES`.  The HTTP
    rendering is **507**: the request ran, but the server cannot hold
    its answer.  Resending fails the same way, so clients do not retry
    it, and the connection it would have crossed stays up.
    """

    status = 507
