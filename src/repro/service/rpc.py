"""Length-prefixed frame protocol between the router and shard workers.

One frame carries one request or one response.  The wire layout is
deliberately trivial — two big-endian ``u32`` lengths, a small JSON
header, and an opaque body::

    +----------------+--------------+-------------------+-----------+
    | header_len u32 | body_len u32 | header (JSON)     | body      |
    +----------------+--------------+-------------------+-----------+

Request headers: ``{"id": n, "op": "propose", "sid": "abc"}``.
Response headers: ``{"id": n, "status": 200}`` plus optionally
``"retry_after"`` on backpressure responses.  The body is raw bytes —
in practice the client's JSON payload forwarded verbatim, which is the
point: the router never re-encodes request or response bodies, it only
routes them (the shard worker is the single place bodies are parsed).

Keeping the header JSON (rather than the binary codec) costs a few
bytes and keeps frames greppable in a packet capture; bodies dominate
the traffic either way.

A shard worker encodes each reply body straight into its frame's
buffer, after the prefix and header (:func:`frame_head`,
:func:`repro.service.protocol.encode_reply`), so reply bodies are not
copied into the frame.  Each frame is still written with a single
``sendall`` (:func:`send_buffer`, :func:`send_frame`), so a writer
killed mid-frame leaves at most one torn frame; readers treat a short
read as a dead peer (:class:`ConnectionError`), which the router maps
to backpressure while the supervisor restarts the worker.  No reply
frame passes :data:`MAX_FRAME_BYTES`: a reply that would is answered
with a 507 instead (:class:`~repro.service.errors.ReplyTooLargeError`).
"""

from __future__ import annotations

import json
import socket
import struct

__all__ = ["frame_head", "send_buffer", "send_frame", "recv_frame",
           "MAX_FRAME_BYTES"]

_HEADER = struct.Struct(">II")

# A frame can carry a whole create body (pool arrays) or a checkpoint
# response; cap it at the same bound as the HTTP front-end's bodies.
MAX_FRAME_BYTES = 256 * 1024 * 1024


def frame_head(header: dict, body_len: int = 0) -> bytes:
    """A frame's length prefix and ``header``, for a body of ``body_len``."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(header_bytes), body_len) + header_bytes


def send_buffer(sock: socket.socket, frame) -> None:
    """Send a frame built in one writable buffer, :func:`frame_head` then
    the body, in one ``sendall``; its body length is filled in here."""
    header_len = _HEADER.unpack_from(frame)[0]
    _HEADER.pack_into(frame, 0, header_len,
                      len(frame) - _HEADER.size - header_len)
    sock.sendall(frame)


def send_frame(sock: socket.socket, header: dict, body: bytes = b"") -> None:
    """Serialise and send one frame (caller holds any write lock)."""
    sock.sendall(frame_head(header, len(body)) + body)


def _read_exact(rfile, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = rfile.read(remaining)
        if not chunk:
            raise ConnectionError(
                f"peer closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(rfile) -> tuple[dict, bytes]:
    """Read one frame from a buffered binary reader.

    Raises ``ConnectionError`` at any EOF — clean (between frames) or
    torn (mid-frame); the distinction does not matter to either side,
    both mean the peer is gone.
    """
    header_len, body_len = _HEADER.unpack(_read_exact(rfile, _HEADER.size))
    if header_len + body_len > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {header_len + body_len} bytes exceeds "
            f"{MAX_FRAME_BYTES}"
        )
    header = json.loads(_read_exact(rfile, header_len))
    body = _read_exact(rfile, body_len) if body_len else b""
    return header, body
