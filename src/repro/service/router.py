"""Front-end routing for the sharded service tier.

The router is the only process clients talk to.  It terminates HTTP
(via :mod:`repro.service.http`), maps each session id onto a shard with
**consistent hashing**, and proxies the request to that shard worker
over the length-prefixed RPC of :mod:`repro.service.rpc` — forwarding
request and response bodies *verbatim*, so the router never pays for
JSON it does not need to understand.  Its own CPU work per request is a
path match, a ring lookup and two frame copies.

Pieces, bottom up:

* :class:`HashRing` — consistent hashing over session ids.  Many
  virtual points per shard keep the load spread even; hashing is
  BLAKE2 over stable strings, so the mapping is identical in every
  process and across restarts.
* :class:`ShardClient` — one multiplexed connection to one worker.
  Concurrent front-end threads pipeline requests (tagged with ids)
  down the same socket; a reader thread matches responses back.  This
  pipelining is what *feeds* the worker's group commit: a batch forms
  from whatever several clients have in flight at once.
* :class:`ShardSupervisor` — owns the worker processes: spawns them,
  collects their ports, and restarts any that die (a crashed worker's
  sessions restore from their journals on first touch).  While a shard
  is down its requests fail fast with backpressure, never hang.
* :class:`LocalShardPool` — the same surface for one shard run inside
  this process (the single-process server): the worker's own state,
  admission and commit loop, fed by the router's calls instead of a
  socket.
* :class:`ShardRouter` — the HTTP dispatcher: routes through the
  :mod:`~repro.service.protocol` table, fans out ``/sessions``,
  ``/healthz`` and ``/metrics``, and renders worker backpressure as
  503 + ``Retry-After``.

A sharded root is stamped with ``topology.json`` (shard count, WAL
codec) on first start; later starts must agree — re-sharding moves
sessions between shard directories and is an explicit offline
migration, not something a restart should do silently.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback
import uuid
from pathlib import Path

from repro.service.errors import (
    DeadlineExceededError,
    OverloadError,
    ServiceError,
)
from repro.service.manager import check_session_id
from repro.service.protocol import (
    encode_reply,
    error_reply,
    parse_body,
    route,
)
from repro.service.rpc import recv_frame, send_frame
from repro.service.shard import (
    _commit_loop,
    admit,
    shard_dir_name,
    shard_options,
    shard_worker_main,
)
from repro.utils import (
    CounterResetAccumulator,
    MetricsRegistry,
    add_snapshot_label,
    atomic_write_text,
    current_request_id,
    get_logger,
)
from repro.utils.metrics import PROMETHEUS_CONTENT_TYPE

__all__ = [
    "HashRing",
    "ShardClient",
    "ShardSupervisor",
    "LocalShardPool",
    "ShardRouter",
    "load_topology",
    "init_topology",
]

TOPOLOGY_FILE = "topology.json"


# -- topology --------------------------------------------------------------

def load_topology(root) -> dict | None:
    """The root's recorded sharding, or ``None`` for a fresh root."""
    path = Path(root) / TOPOLOGY_FILE
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def init_topology(root, n_shards: int, codec: str) -> dict:
    """Record (or verify) the root's sharding.

    The shard count decides which directory each session journal lives
    in, so it is part of the root's identity: a mismatch raises rather
    than silently routing existing sessions to workers that do not own
    their directories.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    existing = load_topology(root)
    desired = {"version": 1, "shards": int(n_shards), "codec": codec}
    if existing is not None:
        if (existing.get("shards") != desired["shards"]
                or existing.get("codec") != desired["codec"]):
            raise ValueError(
                f"service root {root} is laid out for "
                f"{existing.get('shards')} shard(s) with the "
                f"{existing.get('codec')!r} WAL codec; asked for "
                f"{n_shards}/{codec!r}.  Re-sharding is an offline "
                "migration — move the session directories, then update "
                f"{TOPOLOGY_FILE}."
            )
        return existing
    atomic_write_text(
        root / TOPOLOGY_FILE, json.dumps(desired, sort_keys=True),
        fsync_dir=True,
    )
    return desired


# -- consistent hashing ----------------------------------------------------

class HashRing:
    """Consistent hashing of session ids onto shard indices.

    Each shard contributes ``replicas`` pseudo-random points on a
    64-bit ring; a session id hashes to a point and walks clockwise to
    the first shard point.  Removing a shard therefore only moves the
    keys that sat on its points (≈ 1/n of them) — the classic
    consistent-hashing property — and the hash is a keyed BLAKE2 over
    stable strings, identical across processes, platforms and runs.
    """

    def __init__(self, n_shards: int, *, replicas: int = 64):
        if n_shards < 1:
            raise ValueError(f"need at least one shard; got {n_shards}")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        points = []
        for shard in range(self.n_shards):
            for replica in range(self.replicas):
                points.append((self._hash(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._points = [h for h, _ in points]
        self._shards = [s for _, s in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def shard_for(self, session_id: str) -> int:
        """The shard owning ``session_id``."""
        position = bisect.bisect(self._points, self._hash(session_id))
        if position == len(self._points):
            position = 0
        return self._shards[position]


# -- shard client ----------------------------------------------------------

class _Waiter:
    __slots__ = ("event", "response")

    def __init__(self):
        self.event = threading.Event()
        self.response = None

    def reply(self, request_id, status: int, payload: dict,
              retry_after: float | None = None) -> None:
        """A shard's reply, when the shard runs in this process."""
        self.response = encode_reply(int(status), payload, retry_after)
        self.event.set()


class ShardClient:
    """One multiplexed RPC connection to one shard worker.

    Thread-safe: any number of front-end threads call :meth:`request`
    concurrently; frames interleave on one socket (send serialised by a
    lock) and a reader thread dispatches responses by request id.  When
    the connection dies — worker crashed, or a reply was torn mid-frame
    — every in-flight request fails with :class:`OverloadError` (the
    caller retries once the supervisor has the worker back) and the
    next request reconnects lazily.
    """

    #: Default per-request timeout (seconds); override per client via
    #: the constructor (``serve --rpc-timeout``) or per request via
    #: :meth:`request`'s ``timeout``.
    DEFAULT_TIMEOUT = 120.0

    def __init__(self, index: int, port: int | None = None, *,
                 timeout: float | None = None):
        self.index = index
        self.timeout = (
            self.DEFAULT_TIMEOUT if timeout is None else float(timeout))
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive; got {timeout}")
        self._port = port
        self._sock = None
        self._rfile = None
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: dict[int, _Waiter] = {}
        self._next_id = 0

    def set_port(self, port: int) -> None:
        """Point at a (re)started worker; drops any current connection."""
        with self._state_lock:
            self._port = port
            self._teardown_locked("shard worker restarted")

    def close(self) -> None:
        with self._state_lock:
            self._teardown_locked("client closed")

    def _teardown_locked(self, reason: str) -> None:
        sock, self._sock, self._rfile = self._sock, None, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        pending, self._pending = self._pending, {}
        body = json.dumps({"error": reason}).encode("utf-8")
        for waiter in pending.values():
            waiter.response = (503, body, 0.1)
            waiter.event.set()

    def _ensure_connected(self):
        with self._state_lock:
            if self._sock is not None:
                return self._sock
            if self._port is None:
                raise OverloadError(
                    f"shard {self.index} is not accepting connections "
                    "(worker starting)", retry_after=0.2)
            import socket as socket_module

            try:
                sock = socket_module.create_connection(
                    ("127.0.0.1", self._port), timeout=5.0)
            except OSError as exc:
                raise OverloadError(
                    f"shard {self.index} is unreachable ({exc}); "
                    "worker restarting", retry_after=0.2) from exc
            sock.setsockopt(
                socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1)
            sock.settimeout(None)
            self._sock = sock
            self._rfile = sock.makefile("rb")
            threading.Thread(
                target=self._reader_loop, args=(sock, self._rfile),
                daemon=True,
            ).start()
            return sock

    def _reader_loop(self, sock, rfile) -> None:
        while True:
            try:
                header, body = recv_frame(rfile)
            except (ConnectionError, ValueError, OSError):
                with self._state_lock:
                    if self._sock is sock:  # not already superseded
                        self._teardown_locked(
                            f"shard {self.index} connection lost")
                return
            waiter = self._pending.pop(header.get("id"), None)
            if waiter is not None:
                waiter.response = (
                    int(header.get("status", 500)),
                    body,
                    header.get("retry_after"),
                )
                waiter.event.set()

    def request(self, op: str, sid: str | None = None, body: bytes = b"",
                timeout: float | None = None,
                request_id: str | None = None):
        """:meth:`request_raw` with the reply body parsed from JSON.

        For the replies the router reads itself (``stats``, ``list``,
        ``metrics``); proxied replies go through :meth:`request_raw`.
        """
        status, body, retry_after = self.request_raw(
            op, sid, body, timeout, request_id)
        try:
            payload = json.loads(body) if body else {}
        except json.JSONDecodeError:
            payload = {"error": "shard returned malformed JSON"}
        return status, payload, retry_after

    def request_raw(self, op: str, sid: str | None = None, body: bytes = b"",
                    timeout: float | None = None,
                    request_id: str | None = None):
        """One RPC round trip; returns ``(status, reply_bytes, retry_after)``.

        ``timeout`` (seconds) defaults to the client's configured
        timeout; the deadline starts when this is called, before
        connecting.  ``request_id`` is the HTTP front door's trace id; it
        defaults to the id bound in the logging context (set by the
        handler thread), so tracing survives this hop without every
        caller threading it through.  Raises :class:`OverloadError`
        when the shard cannot be reached (not executed — safe to retry
        blindly) and :class:`DeadlineExceededError` when it was reached
        but did not answer in time (may have executed — retry with an
        idempotency key).
        """
        started = time.monotonic()
        if request_id is None:
            request_id = current_request_id()
        sock = self._ensure_connected()
        waiter = _Waiter()
        with self._send_lock:
            self._next_id += 1
            frame_id = self._next_id
            self._pending[frame_id] = waiter
            header = {"id": frame_id, "op": op}
            if sid is not None:
                header["sid"] = sid
            if request_id is not None:
                header["rid"] = request_id
            try:
                send_frame(sock, header, body)
            except OSError as exc:
                self._pending.pop(frame_id, None)
                with self._state_lock:
                    if self._sock is sock:
                        self._teardown_locked(
                            f"shard {self.index} connection lost")
                raise OverloadError(
                    f"shard {self.index} went away mid-send; retry",
                    retry_after=0.2) from exc
        return self._await(waiter, timeout, started, frame_id)

    def _await(self, waiter: _Waiter, timeout: float | None, started: float,
               frame_id=None):
        """The reply to a request issued at ``started`` (monotonic); raises
        once its deadline has passed, even if the reply is already in."""
        if timeout is None:
            timeout = self.timeout
        remaining = started + timeout - time.monotonic()
        if remaining <= 0 or not waiter.event.wait(remaining):
            self._pending.pop(frame_id, None)
            raise DeadlineExceededError(
                f"shard {self.index} did not answer within {timeout:g}s; "
                "the request may still execute")
        return waiter.response


class LocalShardClient(ShardClient):
    """The router's client for a shard run in this process.

    A request goes straight to the shard's :func:`~repro.service.shard.admit`
    (the step a worker's connection reader performs per frame), and the
    reply comes back through a waiter instead of a socket.
    """

    def __init__(self, state, *, timeout: float | None = None):
        super().__init__(0, timeout=timeout)
        self.state = state

    def request_raw(self, op: str, sid: str | None = None, body: bytes = b"",
                    timeout: float | None = None,
                    request_id: str | None = None):
        started = time.monotonic()
        waiter = _Waiter()
        admit(self.state, waiter, {
            "op": op, "sid": sid, "rid": request_id or current_request_id(),
        }, body)
        return self._await(waiter, timeout, started)


# -- supervisor ------------------------------------------------------------

def _mp_context():
    """Cheapest safe start method: forkserver (preloaded) else spawn."""
    try:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.service.shard"])
        return context
    except (ValueError, AttributeError):  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")


class _ShardPool:
    """A pool as the router sees it: ``clients``, ``restarts``, ``stop``."""

    def shard_stats(self, timeout: float = 2.0) -> list[dict]:
        """Per-shard worker stats; unreachable shards report status down."""
        out = []
        for index, client in enumerate(self.clients):
            entry = {"shard": index, "restarts": self.restarts[index]}
            try:
                status, payload, _ = client.request(
                    "stats", timeout=timeout)
                if status == 200:
                    entry.update(payload)
                    entry["status"] = "ok"
                else:
                    entry["status"] = "down"
            except ServiceError:
                entry["status"] = "down"
            out.append(entry)
        return out


class ShardSupervisor(_ShardPool):
    """Spawns, watches and restarts the pool of shard workers.

    A worker that dies — crash or kill — is restarted against the same
    shard directory; its sessions restore lazily from their journals on
    first access, so from a client's perspective a crashed shard is a
    brief burst of 503s followed by exactly the state every previously
    acknowledged event implies.  Surviving shards never notice.
    """

    def __init__(self, root, n_shards: int, *, options: dict | None = None,
                 start_timeout: float = 60.0,
                 rpc_timeout: float | None = None):
        self.root = Path(root)
        self.n_shards = int(n_shards)
        self.options = shard_options(options)
        self.start_timeout = start_timeout
        self.rpc_timeout = rpc_timeout
        self.clients: list[ShardClient] = []
        self.processes: list = [None] * self.n_shards
        self.restarts = [0] * self.n_shards
        self._ctx = _mp_context()
        self._stopping = threading.Event()
        self._monitor = None
        self._lock = threading.Lock()
        self._log = get_logger("supervisor")

    # -- lifecycle --

    def start(self) -> "ShardSupervisor":
        self.clients = [
            ShardClient(index, timeout=self.rpc_timeout)
            for index in range(self.n_shards)
        ]
        for index in range(self.n_shards):
            self._spawn(index)
        self._monitor = threading.Thread(target=self._watch, daemon=True)
        self._monitor.start()
        return self

    def _spawn(self, index: int) -> None:
        options = dict(self.options)
        if self.restarts[index]:
            # A fault spec arms the *original* worker only: the whole
            # point of a planned crash is asserting what the restarted,
            # healthy worker restores — a respawn that re-armed the
            # same fault would just crash-loop.
            options.pop("fault", None)
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(child, str(self.root / shard_dir_name(index)), options),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child.close()
        if not parent.poll(self.start_timeout):
            process.kill()
            raise RuntimeError(
                f"shard worker {index} did not report its port within "
                f"{self.start_timeout:g}s")
        hello = parent.recv()
        parent.close()
        with self._lock:
            self.processes[index] = process
            self.clients[index].set_port(int(hello["port"]))

    def _watch(self) -> None:
        while not self._stopping.is_set():
            with self._lock:
                alive = {
                    process.sentinel: index
                    for index, process in enumerate(self.processes)
                    if process is not None
                }
            if not alive:
                return
            ready = multiprocessing.connection.wait(
                list(alive), timeout=0.25)
            if self._stopping.is_set():
                return
            for sentinel in ready:
                index = alive[sentinel]
                with self._lock:
                    process = self.processes[index]
                    if process is None or process.sentinel != sentinel:
                        continue
                    process.join()
                    self.processes[index] = None
                self.restarts[index] += 1
                self._log.warning("worker_restarting", shard=index,
                                  restarts=self.restarts[index])
                try:
                    self._spawn(index)
                except RuntimeError:  # pragma: no cover - spawn timeout
                    time.sleep(0.5)

    def stop(self, *, graceful: bool = True, timeout: float = 30.0) -> None:
        """Stop all workers; graceful means drain-and-checkpoint first."""
        self._stopping.set()
        with self._lock:
            processes = list(self.processes)
        for process in processes:
            if process is None or not process.is_alive():
                continue
            if graceful:
                try:
                    os.kill(process.pid, signal.SIGTERM)
                except (OSError, TypeError):  # pragma: no cover
                    pass
            else:
                process.kill()
        deadline = time.monotonic() + timeout
        for process in processes:
            if process is None:
                continue
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - drain hang
                process.kill()
                process.join(5.0)
        for client in self.clients:
            client.close()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)

    # -- introspection --

    def worker_pids(self) -> list[int | None]:
        with self._lock:
            return [
                None if process is None else process.pid
                for process in self.processes
            ]


class LocalShardPool(_ShardPool):
    """A pool of one shard run inside this process.

    The single-process server (``serve`` without ``--shards``,
    :func:`~repro.service.http.make_server` over a
    :class:`~repro.service.manager.SessionManager`) serves through it.
    The shard is a worker's own: its state, admission and commit loop,
    the loop on a thread fed by the router's calls instead of a socket.
    So health, listing, scrapes, backpressure, deadlines, read-only mode
    and drain have one implementation for both tiers.  Sessions journal
    straight under the manager's root (``<root>/<sid>/``).  There is no
    process to restart.
    """

    n_shards = 1

    def __init__(self, state, *, rpc_timeout: float | None = None):
        self.state = state
        self.manager = state.manager
        self.root = state.manager.root_dir
        self.options = state.options
        self.restarts = [0]
        self.clients = [LocalShardClient(state, timeout=rpc_timeout)]
        self._thread = threading.Thread(
            target=_commit_loop, args=(state,), name="repro-shard-local",
            daemon=True)
        self._thread.start()

    def stop(self, *, graceful: bool = True, timeout: float = 30.0) -> None:
        """Finish the queued requests and stop the commit loop; graceful
        also checkpoints every resident session (unless read-only)."""
        self.state.drain()
        self._thread.join(timeout)
        if graceful and not self.state.read_only:
            self.manager.drain_to_disk()


# -- the dispatcher --------------------------------------------------------

class ShardRouter:
    """HTTP-semantics dispatcher over a shard pool.

    ``dispatch`` receives the already-read request (method, path, raw
    body bytes) from the HTTP front-end and returns
    ``(status, body, extra_headers)``, ``body`` bytes-like.  Requests
    route through the :mod:`~repro.service.protocol` table; bodies pass
    through to and from the owning shard untouched except for session
    creation, where the router parses once to assign or check the id
    it routes by.  ``supervisor`` is a :class:`ShardSupervisor` or a
    :class:`LocalShardPool`.
    """

    def __init__(self, supervisor: _ShardPool,
                 ring: HashRing | None = None):
        self.supervisor = supervisor
        self.ring = ring or HashRing(supervisor.n_shards)
        #: The router's own registry (HTTP counters, restart gauges).
        #: Shard registries are scraped over the RPC and merged in.
        self.metrics = MetricsRegistry()
        self._accumulator = CounterResetAccumulator()
        # Last successfully adjusted snapshot per shard: rendered in
        # place of a shard that cannot answer a scrape, so restart
        # windows freeze its series instead of denting them.
        self._last_shard_snapshots: dict[int, dict] = {}
        self._http_requests = self.metrics.counter(
            "oasis_http_requests_total",
            "HTTP requests served, by method and response status.",
            ("method", "status"))
        self._restart_gauge = self.metrics.gauge(
            "oasis_worker_restarts",
            "Times each shard worker has been restarted.", ("shard",))

    @staticmethod
    def _reply(status: int, body: bytes, retry_after: float | None = None):
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = f"{max(float(retry_after), 0.0):g}"
        return status, body, headers

    def dispatch(self, method: str, path: str, body: bytes,
                 timeout: float | None = None, *,
                 request_id: str | None = None):
        """Route one request; ``timeout`` is the caller's deadline.

        ``timeout`` (seconds, from the ``X-Request-Timeout`` header)
        overrides the configured RPC timeout for this request only;
        deadline exhaustion renders as 504.  ``request_id`` (the front
        door's trace id) rides the shard RPC frames via the logging
        context the HTTP handler bound.
        """
        try:
            status, payload, headers = self._dispatch(
                method, path, body, timeout)
        except Exception as exc:  # the front door must keep serving
            status, error, retry_after = error_reply(exc)
            if status == 500:
                get_logger("router").error(
                    "request_failed", path=path, error=error["error"],
                    traceback=traceback.format_exc())
            status, payload, headers = self._reply(
                status, json.dumps(error).encode("utf-8"), retry_after)
        self._http_requests.inc(method=method, status=str(status))
        return status, payload, headers

    def _dispatch(self, method: str, path: str, body: bytes,
                  timeout: float | None = None):
        op, sid = route(method, path)
        if op == "metrics":
            return self._scrape(timeout)
        if op == "healthz":
            return self._reply(200, json.dumps(self._health()).encode("utf-8"))
        if op == "list":
            return self._reply(200, json.dumps(self._list()).encode("utf-8"))
        if op == "create":
            # The one body the router reads: a create's id picks its
            # shard, so the router assigns it when the client did not.
            fields = parse_body(body)
            sid = fields.get("session_id")
            if sid is None:
                sid = fields["session_id"] = uuid.uuid4().hex[:12]
                body = json.dumps(fields).encode("utf-8")
            check_session_id(sid)
        # The shard's reply bytes are forwarded as received.
        status, reply, retry_after = self.supervisor.clients[
            self.ring.shard_for(sid)].request_raw(op, sid, body, timeout)
        return self._reply(status, reply or b"{}", retry_after)

    def _health(self) -> dict:
        shards = self.supervisor.shard_stats()
        healthy = sum(1 for shard in shards if shard["status"] == "ok")
        read_only = sum(1 for shard in shards if shard.get("read_only"))
        return {
            "status": ("ok" if healthy == len(shards) and not read_only
                       else "degraded"),
            "shards": shards,
            "resident_sessions": sum(
                shard.get("resident_sessions", 0) for shard in shards),
            "queue_depth": sum(
                shard.get("queue_depth", 0) for shard in shards),
            "read_only_shards": read_only,
            "wal": {"recovered": [
                {"shard": shard["shard"], **entry}
                for shard in shards
                for entry in (shard.get("wal_recovered") or [])
            ]},
        }

    def _list(self) -> dict:
        sessions = []
        for index, client in enumerate(self.supervisor.clients):
            status, payload, _ = client.request("list")
            if status == 200:
                for entry in payload.get("sessions", []):
                    entry["shard"] = index
                    sessions.append(entry)
        sessions.sort(key=lambda entry: entry.get("session_id", ""))
        return {"sessions": sessions}

    def _scrape(self, timeout: float | None = None):
        """Fan ``/metrics`` out to every worker and merge the registries.

        Counters from a restarted worker restart from zero; the
        accumulator banks each dead instance's final values (keyed by
        the registry ``instance`` id in its snapshot) so the merged
        series stay monotonic across crashes — a SIGKILLed shard's
        request counts are never lost and never double-counted.  A
        shard that cannot answer is simply absent from this scrape; its
        banked totals still render.
        """
        for index in range(self.supervisor.n_shards):
            self._restart_gauge.set(
                self.supervisor.restarts[index], shard=str(index))
        snapshots = []
        for index, client in enumerate(self.supervisor.clients):
            try:
                status, payload, _ = client.request(
                    "metrics", timeout=timeout if timeout else 5.0)
            except ServiceError:
                status, payload = 0, None
            if status == 200 and isinstance(payload, dict):
                adjusted = self._accumulator.adjust(
                    f"shard-{index}", payload)
                labelled = add_snapshot_label(adjusted, "shard", str(index))
                self._last_shard_snapshots[index] = labelled
                snapshots.append(labelled)
            else:
                cached = self._last_shard_snapshots.get(index)
                if cached is not None:
                    snapshots.append(cached)
        text = self.metrics.render(snapshots)
        return (200, text.encode("utf-8"),
                {"Content-Type": PROMETHEUS_CONTENT_TYPE})

    def close(self, *, graceful: bool = True) -> None:
        self.supervisor.stop(graceful=graceful)
