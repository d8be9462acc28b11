"""The labelling journey: one labeller, one operator, a served tier.

The program under test is the real deployment,
``python -m repro.experiments serve --shards 1 --codec binary``, on a
fresh root.  All load comes from this process: the labeller (main
thread, one keep-alive :class:`~repro.service.EvaluationClient`
connection) runs a closed loop of ``propose(16)`` → ``ingest`` rounds
alternating between two sessions, while the operator thread scrapes
``/metrics`` on an open-loop schedule over a second connection.  After
labelling the operator scrapes, checkpoints and fetches the history of
``s0`` and restarts the server gracefully.

Every number comes from timing calls from outside the server; the
server is never patched.
"""

from __future__ import annotations

import hashlib
import http.client
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from perfbench.common import (
    make_pool,
    proc_cpu_seconds,
    proc_vmhwm_mb,
    tree_bytes,
)

from repro.service.client import EvaluationClient
from repro.service.errors import ServiceError

#: Session ids; ``s0`` is the one aged in ``label_aged``.
SESSIONS = ("s0", "s1")
ROUND_BATCH = 16
BULK_BATCH = 8192
N_STRATA = 30
SCRAPE_PERIOD_S = 2.0
#: Server lifetimes per run, each with its own set-up, bulk phase and
#: share of the labelling; ``setup_s`` is the median of their set-ups.
SEGMENTS = 3

_LISTEN_PREFIX = "serving evaluation sessions on http://"


class CountingClient(EvaluationClient):
    """An :class:`EvaluationClient` that counts its resends."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.retries = 0

    def _sleep_for(self, attempt, retry_after):
        # Called exactly once per resend, whatever its cause.
        self.retries += 1
        return super()._sleep_for(attempt, retry_after)


class Ops:
    """Operations attempted and failed, per kind."""

    def __init__(self):
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []

    def call(self, kind: str, fn, *args, **kwargs):
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        try:
            return fn(*args, **kwargs)
        except (ServiceError, OSError, http.client.HTTPException,
                ValueError) as exc:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            raise

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


class ServeProcess:
    """One ``serve`` process tree (router, forkserver, shard worker).

    It runs in its own process group so that stopping it can wait for
    every process it spawned, not just the one this object started.
    """

    def __init__(self, root: Path, logdir: Path, tag: str, env: dict):
        self.root = root
        self.out_path = logdir / f"{tag}.out"
        self.err_path = logdir / f"{tag}.err"
        self.env = env
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None
        self.worker_pid: int | None = None

    def start(self, timeout: float = 120.0) -> str:
        # multiprocessing's forkserver binds an AF_UNIX socket under
        # TMPDIR, and such paths are limited to 107 bytes, which a temp
        # directory inside a deep checkout exceeds.  /proc/self/cwd names
        # the working directory of the process that resolves it; every
        # process of the tree shares this one, inside the checkout.
        cwd = Path(self.env["TMPDIR"])
        env = dict(self.env, TMPDIR="/proc/self/cwd")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments", "serve",
                 "--host", "127.0.0.1", "--port", "0", "--shards", "1",
                 "--codec", "binary", "--root", str(self.root)],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=env, cwd=cwd, start_new_session=True)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.out_path.read_text(errors="replace")
            start = text.find(_LISTEN_PREFIX)
            if start >= 0 and "\n" in text[start:]:
                address = text[start + len(_LISTEN_PREFIX):].split()[0]
                self.url = f"http://{address}"
                return self.url
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.proc.returncode}: "
                    f"{self.err_path.read_text(errors='replace')[-2000:]}")
            time.sleep(0.002)
        raise RuntimeError("serve did not print its listen line in time")

    def find_worker(self, client: EvaluationClient) -> int:
        self.worker_pid = int(client.healthz()["shards"][0]["pid"])
        return self.worker_pid

    @property
    def pid(self) -> int | None:
        return None if self.proc is None else self.proc.pid

    def cpu_seconds(self) -> float:
        return sum(proc_cpu_seconds(pid) or 0.0
                   for pid in (self.pid, self.worker_pid))

    def vmhwm_mb(self) -> tuple[float, float]:
        return (proc_vmhwm_mb(self.pid) or 0.0,
                proc_vmhwm_mb(self.worker_pid) or 0.0)

    def _group_gone(self, timeout: float) -> bool:
        pgid = self.proc.pid
        deadline = time.monotonic() + timeout
        while True:
            reap_orphans()
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def terminate(self, timeout: float = 150.0) -> None:
        """Graceful stop: SIGTERM, then wait for the whole group."""
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
        if not self._group_gone(timeout=30.0):
            self.kill()
            raise RuntimeError("serve did not stop within its timeout")

    def kill(self) -> None:
        """Hard stop of the whole group (clean-up and discarded set-ups)."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._group_gone(timeout=30.0)


def reap_orphans() -> None:
    """Reap exited children adopted through the child-subreaper flag."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def become_subreaper() -> None:
    """Adopt orphaned grandchildren so that they can be waited for."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def scrape_metrics(conn: http.client.HTTPConnection) -> bytes:
    """One ``GET /metrics`` on a keep-alive connection."""
    conn.request("GET", "/metrics")
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        raise ServiceError(f"/metrics returned HTTP {response.status}")
    return body


def _connection(url: str) -> http.client.HTTPConnection:
    host, _, port = url[len("http://"):].partition(":")
    return http.client.HTTPConnection(host, int(port), timeout=150)


class Scraper(threading.Thread):
    """Open-loop ``GET /metrics`` every :data:`SCRAPE_PERIOD_S` seconds.

    Scrape ``k`` is due at ``start + (k + 0.5) * SCRAPE_PERIOD_S``, in
    the middle of the ``k``-th throughput window.  Each is timed from
    when it was due, so a stalled scrape also charges the wait it
    imposes on the next one; ``late`` records how far behind schedule
    each was sent.
    """

    def __init__(self, url: str, start: float, ops: Ops, tracer=None):
        super().__init__(name="operator-scraper", daemon=True)
        self.url = url
        self.start_time = start
        self.ops = ops
        self.tracer = tracer
        self.stop_event = threading.Event()
        self.latency: list[float] = []
        self.late: list[float] = []
        self.last_body = b""
        self.error: BaseException | None = None

    def run(self) -> None:
        conn = _connection(self.url)
        k = 0
        try:
            while True:
                due = self.start_time + (k + 0.5) * SCRAPE_PERIOD_S
                if self.stop_event.wait(max(due - time.perf_counter(), 0.0)):
                    return
                sent = time.perf_counter()
                self.last_body = self.ops.call("scrape", scrape_metrics, conn)
                done = time.perf_counter()
                self.latency.append(done - due)
                self.late.append(sent - due)
                if self.tracer is not None:
                    self.tracer.span("client.scrape", sent, done)
                k += 1
        except BaseException as exc:  # re-raised by stop() in the labeller
            self.error = exc
        finally:
            conn.close()

    def stop(self) -> None:
        self.stop_event.set()
        self.join(timeout=180)
        if self.is_alive():
            raise RuntimeError("scraper did not stop")
        if self.error is not None:
            raise self.error


def session_seed(seed: int, index: int) -> int:
    return (int(seed) * len(SESSIONS) + index) % (2**31)


class Journey:
    """One labelling run against a served tier; fills :attr:`raw`.

    The run has :data:`SEGMENTS` segments, each on a freshly launched
    server with fresh sessions: set-up, bulk aging of ``s0``, then an
    equal share of the labelling rounds.  Every segment does identical
    work with identical seeds, so each must end in identical session
    states; spreading the labelling over three server lifetimes makes
    its statistics less sensitive to a burst of host noise.  The first
    segments' servers are then killed; the last one also serves the
    operator's calls and the graceful restart.
    """

    def __init__(self, seed: int, *, bulk_batches: int,
                 rounds_per_segment: int, workdir: Path, env: dict,
                 ops: Ops, tracer=None):
        self.seed = seed
        self.bulk_batches = bulk_batches
        self.rounds_per_segment = rounds_per_segment
        self.workdir = workdir
        self.env = env
        self.ops = ops
        self.tracer = tracer
        self.truth, self.predictions, self.scores = make_pool(seed)
        #: Batch sizes proposed per session in one segment, in order: the
        #: replay script.
        self.schedule = {sid: [] for sid in SESSIONS}
        #: Per segment, a digest of every proposal's pending indices per
        #: session.
        self.digests: list[dict] = []
        self.raw: dict = {}
        self.server: ServeProcess | None = None
        self.root: Path | None = None

    # -- one propose → ingest round ---------------------------------------

    def draw(self, client, sid: str, batch: int, traced: bool = True):
        """One round; returns (start, after propose, after ingest)."""
        t0 = time.perf_counter()
        proposal = self.ops.call("propose", client.propose, sid, batch)
        t1 = time.perf_counter()
        pending = np.asarray(proposal["pending"], dtype=np.int64)
        self.digests[-1][sid].update(pending.tobytes())
        self.ops.call("ingest", client.ingest, sid, proposal["ticket"],
                      self.truth[pending])
        t2 = time.perf_counter()
        if len(self.digests) == 1:
            self.schedule[sid].append(batch)
        if traced and self.tracer is not None:
            self.tracer.span("client.propose", t0, t1, sid=sid, batch=batch)
            self.tracer.span("client.ingest", t1, t2, sid=sid,
                             labels=int(pending.size))
        return t0, t1, t2

    @contextmanager
    def phase(self, name: str):
        """Time a phase into ``raw["phases_s"]`` (and a span if traced)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.raw.setdefault("phases_s", {})[name] = t1 - t0
            if self.tracer is not None:
                self.tracer.span(f"phase.{name}", t0, t1)

    def _families(self, tag: str) -> None:
        if self.tracer is not None:
            self.tracer.scrape_families(self.server.url, tag)

    # -- the run ------------------------------------------------------------

    def run(self) -> dict:
        raw = self.raw
        for key in ("setup_samples_s", "start_samples_s", "bulk_samples_s",
                    "label_cpu_samples_s", "round_s",
                    "propose_s", "ingest_s", "round_traced", "round_end_s",
                    "scrape_s", "scrape_late_s", "segment_status"):
            raw[key] = []
        raw["bulk_draws"] = self.bulk_batches * BULK_BATCH
        raw["label_draws"] = self.rounds_per_segment * ROUND_BATCH
        try:
            for segment in range(SEGMENTS):
                self.digests.append(
                    {sid: hashlib.blake2b() for sid in SESSIONS})
                with self.phase(f"setup{segment}"):
                    client = self._setup(segment)
                with self.phase(f"bulk{segment}"):
                    t0 = time.perf_counter()
                    for _ in range(self.bulk_batches):
                        self.draw(client, "s0", BULK_BATCH)
                    raw["bulk_samples_s"].append(time.perf_counter() - t0)
                self._families(f"before_label{segment}")
                with self.phase(f"label{segment}"):
                    self._label(client)
                self._families(f"after_label{segment}")
                raw["segment_status"].append(
                    {sid: self.ops.call("status", client.status, sid)
                     for sid in SESSIONS})
                if segment < SEGMENTS - 1:
                    raw.setdefault("retries", 0)
                    raw["retries"] += client.retries
                    client.close()
            with self.phase("operator"):
                self._operate(client)
            with self.phase("restart"):
                self._restart()
            raw["operator_s"] = raw["operator_calls_s"] + raw["restart_s"]
        finally:
            if self.server is not None:
                self.server.kill()
        return raw

    def _setup(self, segment: int):
        if self.server is not None:
            self.server.kill()
        self.root = self.workdir / f"root{segment}"
        self.server = ServeProcess(self.root, self.workdir,
                                   f"serve-segment{segment}", self.env)
        t0 = time.perf_counter()
        url = self.server.start()
        self.raw["start_samples_s"].append(time.perf_counter() - t0)
        client = CountingClient(url, timeout=150.0, seed=self.seed)
        for index, sid in enumerate(SESSIONS):
            self.ops.call(
                "create", client.create_session, self.predictions,
                self.scores, session_id=sid, sampler="oasis",
                sampler_kwargs={"n_strata": N_STRATA},
                seed=session_seed(self.seed, index))
        self.raw["setup_samples_s"].append(time.perf_counter() - t0)
        self.server.find_worker(client)
        return client

    def _label(self, client) -> None:
        """Fixed rounds alternating ``s0``/``s1``, scraped every 2 s.

        In a traced run every other pair of rounds records no spans, so
        that the tracing overhead is the difference between the two
        kinds of round in the same run.
        """
        raw = self.raw
        cpu0 = self.server.cpu_seconds()
        start = time.perf_counter()
        ends = []
        scraper = Scraper(self.server.url, start, self.ops, self.tracer)
        scraper.start()
        try:
            for r in range(self.rounds_per_segment):
                on = (r // 2) % 2 == 0
                t0, t1, t2 = self.draw(client, SESSIONS[r % 2], ROUND_BATCH,
                                       traced=on)
                raw["round_s"].append(t2 - t0)
                raw["propose_s"].append(t1 - t0)
                raw["ingest_s"].append(t2 - t1)
                raw["round_traced"].append(on)
                ends.append(t2 - start)
        finally:
            scraper.stop()
        raw["label_cpu_samples_s"].append(self.server.cpu_seconds() - cpu0)
        raw["round_end_s"].append(ends)
        raw["scrape_s"].extend(scraper.latency)
        raw["scrape_late_s"].extend(scraper.late)

    def _operate(self, client) -> None:
        """The operator's calls on the idle server: scrape, checkpoint
        and history of ``s0``."""
        raw = self.raw
        conn = _connection(self.server.url)
        try:
            t0 = time.perf_counter()
            body = self.ops.call("scrape", scrape_metrics, conn)
        finally:
            conn.close()
        t1 = time.perf_counter()
        self.ops.call("checkpoint", client.checkpoint, "s0")
        t2 = time.perf_counter()
        history = self.ops.call("history", client.history, "s0")
        t3 = time.perf_counter()
        raw["operator_parts_s"] = {"scrape": t1 - t0, "checkpoint": t2 - t1,
                                   "history": t3 - t2}
        raw["operator_calls_s"] = t3 - t0
        raw["operator_scrape_body"] = body
        raw["history_len"] = len(history["history"])
        if self.tracer is not None:
            for name, a, b in (("client.scrape", t0, t1),
                               ("client.checkpoint", t1, t2),
                               ("client.history", t2, t3)):
                self.tracer.span(name, a, b, sid="s0")
        raw["final"] = {sid: self.ops.call("status", client.status, sid)
                        for sid in SESSIONS}
        raw["rss_mb"] = self.server.vmhwm_mb()
        raw["retries"] = raw.get("retries", 0) + client.retries
        client.close()

    def _restart(self) -> None:
        """SIGTERM (the server drains, checkpointing every session),
        relaunch on the same root, first ``status`` of each session."""
        raw = self.raw
        t0 = time.perf_counter()
        self.server.terminate()
        t1 = time.perf_counter()
        self.server = ServeProcess(self.root, self.workdir, "serve-restart",
                                   self.env)
        url = self.server.start()
        t2 = time.perf_counter()
        client = CountingClient(url, timeout=150.0, seed=self.seed)
        raw["restored"] = {sid: self.ops.call("status", client.status, sid)
                           for sid in SESSIONS}
        t3 = time.perf_counter()
        raw["disk_mb"] = tree_bytes(self.root) / 2**20
        raw["restart_s"] = t3 - t0
        raw["restart_parts_s"] = {"drain": t1 - t0, "start": t2 - t1,
                                  "restore": t3 - t2}
        raw["retries"] += client.retries
        client.close()


def replay_session(journey: Journey, index: int, manager):
    """Replay one session's exact batch schedule in-process.

    The session lives in ``manager``, a memory-only
    :class:`~repro.service.SessionManager`.  Returns the replayed
    :class:`~repro.service.session.EvaluationSession` and the digest of
    its proposals, to compare with what the served session returned.
    """
    sid = SESSIONS[index]
    # The server receives the pool as JSON lists; rebuild the arrays the
    # same way so that dtypes match.
    session = manager.create_session(
        np.asarray(journey.predictions.tolist()),
        np.asarray(journey.scores.tolist(), dtype=float),
        sampler="oasis", sampler_kwargs={"n_strata": N_STRATA},
        seed=session_seed(journey.seed, index), session_id=sid)
    digest = hashlib.blake2b()
    for batch in journey.schedule[sid]:
        proposal = session.propose(batch)
        pending = np.asarray(proposal["pending"], dtype=np.int64)
        digest.update(pending.tobytes())
        session.ingest(proposal["ticket"], journey.truth[pending])
    return session, digest.hexdigest()
