"""JSON-over-HTTP front-end for the session service.

A dependency-free serving layer: stdlib ``ThreadingHTTPServer`` (one
thread per connection, keep-alive, Nagle disabled) in front of a
:class:`~repro.service.router.ShardRouter` over either pool — a
:class:`~repro.service.router.LocalShardPool` (one shard inside this
process: the default, single-process deployment) or a
:class:`~repro.service.router.ShardSupervisor` (worker processes,
``serve --shards N``).  Both run the same shard code behind the same
router and protocol (:mod:`repro.service.protocol`), so clients cannot
tell the tiers apart except by throughput.
"""

from __future__ import annotations

import json
import re
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.manager import SessionManager
from repro.service.router import (
    HashRing,
    LocalShardPool,
    ShardRouter,
    ShardSupervisor,
    init_topology,
)
from repro.service.shard import _ShardState, open_shard
from repro.utils import bind_request_id, configure_logging, get_logger

__all__ = ["ServiceServer", "make_server", "make_sharded_backend", "serve"]

_MAX_BODY_BYTES = 64 * 1024 * 1024

_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class ServiceServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one dispatcher.

    ``backend`` is a dispatcher such as
    :class:`~repro.service.router.ShardRouter`, or a
    :class:`SessionManager`, which the server runs as a one-shard pool
    inside this process behind a router of its own;
    :meth:`server_close` stops that pool's commit loop, leaving the
    manager's sessions resident.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, backend):
        super().__init__(address, _Handler)
        self._owned = None
        if isinstance(backend, SessionManager):
            backend = self._owned = ShardRouter(
                LocalShardPool(_ShardState(backend)))
        self.dispatcher = backend

    def server_close(self) -> None:
        super().server_close()
        if self._owned is not None:
            self._owned.close(graceful=False)


class _Handler(BaseHTTPRequestHandler):
    server: ServiceServer
    protocol_version = "HTTP/1.1"
    # Load-bearing, not a tweak — and it must live on the *handler*:
    # ``StreamRequestHandler.setup()`` reads the flag from the handler
    # instance, so setting it on the server class is silently inert.
    # With Nagle on, a response written as header and body segments
    # stalls against the peer's delayed ACK (tens of ms per request,
    # two orders of magnitude over the actual service time).
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the operator's job, not stderr spam

    def _reply(self, status: int, body: bytes, headers: dict | None = None) -> None:
        headers = dict(headers or {})
        content_type = headers.pop("Content-Type", "application/json")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id is not None and "X-Request-Id" not in headers:
            self.send_header("X-Request-Id", request_id)
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        # The trace id is minted here, at the front door: accepted from
        # the client when well-formed (so a caller can stamp its own id
        # across systems), generated otherwise, echoed on every reply
        # and bound into the logging context for the request's duration.
        client_id = self.headers.get("X-Request-Id")
        if client_id is not None and _REQUEST_ID_RE.match(client_id):
            self._request_id = client_id
        else:
            self._request_id = uuid.uuid4().hex[:16]
        token = bind_request_id(self._request_id)
        try:
            self._dispatch_traced(method)
        finally:
            token.var.reset(token)

    def _dispatch_traced(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            return self._refuse(
                f"request body exceeds {_MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length) if length else b""
        timeout = self.headers.get("X-Request-Timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except ValueError:
                return self._refuse(
                    f"X-Request-Timeout is not a number: {timeout!r}")
            if not 0 < timeout <= threading.TIMEOUT_MAX:
                return self._refuse(
                    "X-Request-Timeout must be a positive, finite number")
        self._reply(*self.server.dispatcher.dispatch(
            method, self.path, body, timeout, request_id=self._request_id))

    def _refuse(self, message: str) -> None:
        self._reply(400, json.dumps({"error": message}).encode("utf-8"))

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self):  # noqa: N802
        self._dispatch("DELETE")


def make_server(manager, host: str = "127.0.0.1",
                port: int = 0) -> ServiceServer:
    """Bind a :class:`ServiceServer`; ``port=0`` picks a free port.

    ``manager`` may be a :class:`SessionManager` (served in-process) or
    a dispatcher such as the router :func:`make_sharded_backend`
    returns.
    """
    return ServiceServer((host, port), manager)


def make_sharded_backend(root, shards: int, *, codec: str = "json",
                         flush_interval: float = 0.0, max_batch: int = 32,
                         max_queue: int = 128, capacity: int | None = None,
                         rpc_timeout: float | None = None,
                         log_format: str | None = None,
                         log_level: str | None = None):
    """Start a shard pool under ``root`` and return its router.

    ``shards=0`` runs one shard inside this process (``serve`` without
    ``--shards``), journalling under ``<root>/<sid>/`` (``root=None``
    is memory-only).  Otherwise the root's ``topology.json`` is
    recorded or verified — a shard count disagreement is a hard error,
    not a silent re-route — and one worker process per
    ``<root>/shard-<k>/`` is spawned.  ``rpc_timeout`` (seconds) bounds
    the wait for a shard's answer before a 504; a client's
    ``X-Request-Timeout`` header overrides it per request.  The router
    plugs into :func:`make_server`; its ``close()`` drains the pool.
    """
    options = {
        "codec": codec,
        "flush_interval": flush_interval,
        "max_batch": max_batch,
        "max_queue": max_queue,
        "capacity": capacity,
        "log_format": log_format,
        "log_level": log_level,
    }
    if shards < 1:
        return ShardRouter(LocalShardPool(open_shard(root, options),
                                          rpc_timeout=rpc_timeout))
    init_topology(root, shards, codec)
    supervisor = ShardSupervisor(root, shards, options=options,
                                 rpc_timeout=rpc_timeout).start()
    return ShardRouter(supervisor, HashRing(shards))


def serve(manager, host: str = "127.0.0.1",
          port: int = 8765, *, idle_timeout: float | None = None,
          log_format: str | None = None,
          log_level: str | None = None) -> None:
    """Run the service until interrupted (the CLI ``serve`` entry point).

    ``manager`` is a :class:`SessionManager` for in-process serving or
    a router from :func:`make_sharded_backend`.  ``SIGTERM`` and
    ``Ctrl-C`` both shut down gracefully: the pool drains — every
    journalled session is checkpointed durably — before the listener
    closes.

    With ``idle_timeout`` set (seconds) on an in-process pool with a
    root, a background sweeper periodically evicts journalled sessions
    idle longer than the timeout, bounding resident memory under bursty
    multi-user traffic.

    ``log_format`` (``"json"``/``"text"``) and ``log_level`` configure
    the process-wide structured logger (``serve --log-format json``);
    ``None`` leaves the current configuration untouched.
    """
    import signal

    configure_logging(log_format, log_level)
    log = get_logger("http")
    server = make_server(manager, host, port)
    bound_host, bound_port = server.server_address[:2]
    pool = server.dispatcher.supervisor
    root, capacity = pool.root, pool.options.get("capacity")
    # The stdout line is a startup contract — the smoke scripts and
    # benchmark harness parse the bound address out of it — so it stays
    # a plain print regardless of the structured-log settings.
    print(f"serving evaluation sessions on http://{bound_host}:{bound_port} "
          f"(root={root}, capacity={capacity})", flush=True)
    log.info("serving", host=str(bound_host), port=int(bound_port),
             root=None if root is None else str(root), capacity=capacity)
    stop = threading.Event()
    sweeper = None
    local = getattr(pool, "manager", None)
    if (idle_timeout is not None and local is not None
            and local.root_dir is not None):
        def sweep():
            while not stop.wait(min(idle_timeout, 60.0)):
                for session_id in local.evict_idle(idle_timeout):
                    log.info("idle_session_evicted", session=session_id)

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()

    def _sigterm(*_):
        # shutdown() must run off the serve_forever thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        stop.set()
        if sweeper is not None:
            sweeper.join()
        server.dispatcher.close(graceful=True)
        server.server_close()
        print("service drained and stopped", flush=True)
        log.info("stopped")
