"""Both service tiers answer one request script identically.

``make_server(SessionManager(...))`` (and ``serve`` without
``--shards``) serves in-process; ``serve --shards 1`` runs the shard in
a worker process behind the router.  Clients are promised they cannot
tell the two apart except by throughput, so this suite drives the same
script against each tier and asserts, request by request, the same
status, the same JSON body (pids normalised) and the same presence of
``Retry-After``.  The script covers every route, a wrong method on each
route, unknown paths, query strings, malformed bodies, missing fields,
unknown sessions, protocol conflicts, a caller deadline, and an injected
ENOSPC that must turn the shard read-only: 503 + ``Retry-After`` for
every mutating request, 200 for reads, ``healthz`` degraded.

Both tiers journal through the same group-commit WAL (the in-process
manager is built the way a shard worker builds its own), so even the
per-shard flush counters in ``/healthz`` must agree.
"""

from __future__ import annotations

import errno
import http.client
import json
import sys
import threading

import pytest

from test_service_faults import RecoveringClient, make_pool, reference_status

from repro.service import GroupCommitWAL, SessionManager
from repro.service.faults import FaultPlan, faulting_wal_factory
from repro.service.http import make_server
from repro.service.router import ShardRouter, ShardSupervisor, init_topology
from repro.utils import MetricsRegistry
from repro.utils.metrics import parse_prometheus_text

TIERS = ("in_process", "sharded")

#: The fault every ENOSPC case injects: the journal volume fills at the
#: second WAL write (the first propose flushes; its ingest does not).
ENOSPC = {"stage": "wal:pre_write", "mode": "enospc", "after": 2}


class Tier:
    """One live tier over HTTP: ``in_process`` or ``sharded`` (1 shard)."""

    def __init__(self, kind: str, root, fault: dict | None = None):
        if kind == "in_process":
            # As a shard worker builds its manager: one registry, a
            # group-commit WAL (faulting when a fault is armed).
            registry = MetricsRegistry()
            if fault:
                wal_factory = faulting_wal_factory(
                    FaultPlan.from_spec(fault), max_batch=64)
            else:
                def wal_factory(directory):
                    return GroupCommitWAL(directory, max_batch=64,
                                          metrics=registry)
            self.manager = SessionManager(
                root, wal_factory=wal_factory, metrics=registry)
            self.router = None
            self.server = make_server(self.manager, port=0)
        else:
            init_topology(root, 1, "json")
            supervisor = ShardSupervisor(
                root, 1, options={"fault": fault}).start()
            self.router = ShardRouter(supervisor)
            self.server = make_server(self.router, port=0)
        self.port = self.server.server_address[1]
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True)
        self._thread.start()

    def request(self, method, path, body=None, headers=None):
        """``(status, body bytes, headers)``; ``body`` may be raw bytes."""
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body).encode()
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=60)
        try:
            conn.request(method, path, body, headers or {})
            response = conn.getresponse()
            return response.status, response.read(), dict(response.headers)
        finally:
            conn.close()

    def close(self):
        self.server.shutdown()
        if self.router is not None:
            self.router.close(graceful=True)
        self.server.server_close()
        self._thread.join()


def normalise(value):
    """A JSON body with every ``pid`` replaced (the tiers differ there)."""
    if isinstance(value, dict):
        return {key: "<pid>" if key == "pid" else normalise(item)
                for key, item in value.items()}
    if isinstance(value, list):
        return [normalise(item) for item in value]
    return value


def outcome(status, raw, headers):
    """What a client can observe of one response."""
    if headers.get("Content-Type", "").startswith("text/plain"):
        body = sorted(parse_prometheus_text(raw.decode("utf-8")))
    else:
        body = normalise(json.loads(raw))
    return status, body, "Retry-After" in headers


PREDICTIONS, SCORES, LABELS = make_pool(seed=3)


def create_body(session_id):
    return {"predictions": PREDICTIONS, "scores": SCORES,
            "sampler": "oasis", "sampler_kwargs": {"n_strata": 6},
            "seed": 5, "session_id": session_id}


def labels_for(outcomes, step):
    """The true labels of the pairs a recorded propose step asked for."""
    _, proposal, _ = outcomes[step]
    return [int(LABELS[index]) for index in proposal["pending"]]


#: ``(name, method, path, body)``; a callable body is built from the
#: outcomes so far (ingest answers the pairs its propose returned).
SCRIPT = [
    ("healthz", "GET", "/healthz", None),
    ("create", "POST", "/sessions", create_body("c1")),
    ("create_second", "POST", "/sessions", create_body("c2")),
    ("create_duplicate", "POST", "/sessions", create_body("c1")),
    ("create_bad_id", "POST", "/sessions", create_body("../c3")),
    ("create_missing_fields", "POST", "/sessions", {"scores": [1.0]}),
    ("create_invalid_json", "POST", "/sessions", b"{not json"),
    ("create_not_object", "POST", "/sessions", b"[1, 2]"),
    ("status", "GET", "/sessions/c1", None),
    ("propose", "POST", "/sessions/c1/propose", {"batch_size": 8}),
    ("propose_again", "POST", "/sessions/c1/propose", {"batch_size": 8}),
    ("ingest_stale_ticket", "POST", "/sessions/c1/ingest",
     {"ticket": 99, "labels": []}),
    ("ingest_missing_fields", "POST", "/sessions/c1/ingest", {"ticket": 1}),
    ("ingest", "POST", "/sessions/c1/ingest",
     lambda done: {"ticket": 1, "labels": labels_for(done, "propose")}),
    ("ingest_replayed_ticket", "POST", "/sessions/c1/ingest",
     lambda done: {"ticket": 1, "labels": labels_for(done, "propose")}),
    ("propose_bad_batch", "POST", "/sessions/c1/propose", {"batch_size": 0}),
    ("propose_invalid_json", "POST", "/sessions/c1/propose", b"{not json"),
    ("propose_not_object", "POST", "/sessions/c1/propose", b"[1, 2]"),
    ("propose_keyed", "POST", "/sessions/c1/propose",
     {"batch_size": 6, "key": "k1"}),
    ("propose_keyed_retry", "POST", "/sessions/c1/propose",
     {"batch_size": 6, "key": "k1"}),
    ("ingest_keyed", "POST", "/sessions/c1/ingest",
     lambda done: {"ticket": 2, "labels": labels_for(done, "propose_keyed"),
                   "key": "k2"}),
    ("estimate", "GET", "/sessions/c1/estimate", None),
    ("estimate_query", "GET", "/sessions/c1/estimate?v=1", None),
    ("history", "GET", "/sessions/c1/history", None),
    ("checkpoint", "POST", "/sessions/c1/checkpoint", None),
    ("list", "GET", "/sessions", None),
    ("list_query", "GET", "/sessions?x=1", None),
    ("metrics", "GET", "/metrics", None),
    ("unknown_session_status", "GET", "/sessions/ghost", None),
    ("unknown_session_propose", "POST", "/sessions/ghost/propose",
     {"batch_size": 1}),
    ("unknown_session_estimate", "GET", "/sessions/ghost/estimate", None),
    ("unknown_session_close", "DELETE", "/sessions/ghost", None),
    ("unknown_path", "GET", "/nonsense", None),
    ("unknown_action", "POST", "/sessions/c1/explode", {}),
    ("unknown_nested_path", "GET", "/sessions/c1/estimate/more", None),
    ("wrong_method_healthz", "POST", "/healthz", {}),
    ("wrong_method_metrics", "DELETE", "/metrics", None),
    ("wrong_method_sessions", "DELETE", "/sessions", None),
    ("wrong_method_session", "POST", "/sessions/c1", {}),
    ("wrong_method_propose", "GET", "/sessions/c1/propose", None),
    ("wrong_method_ingest", "GET", "/sessions/c1/ingest", None),
    ("wrong_method_estimate", "POST", "/sessions/c1/estimate", {}),
    ("wrong_method_history", "POST", "/sessions/c1/history", {}),
    ("wrong_method_checkpoint", "GET", "/sessions/c1/checkpoint", None),
    ("close", "DELETE", "/sessions/c2", None),
    ("status_after_close", "GET", "/sessions/c2", None),
    ("healthz_after", "GET", "/healthz", None),
]

#: Steps sent with ``X-Request-Timeout``: a deadline no tier can meet is
#: 504 on both, and a malformed one is 400.
TIMEOUT_SCRIPT = [
    ("deadline_exceeded", "GET", "/sessions/c1", None,
     {"X-Request-Timeout": "0.000001"}),
    ("deadline_malformed", "GET", "/sessions/c1", None,
     {"X-Request-Timeout": "soon"}),
    ("deadline_non_positive", "GET", "/sessions/c1", None,
     {"X-Request-Timeout": "0"}),
]

#: Deadlines a wait cannot take; the parent tiers failed on these with a
#: 500 or a dropped connection, so they run apart from the script.
NON_FINITE_DEADLINES = ("inf", "nan", "1e309")

#: After the injected ENOSPC: every mutating request is refused, every
#: read still answers.
ENOSPC_SCRIPT = [
    ("create", "POST", "/sessions", create_body("e1")),
    ("propose", "POST", "/sessions/e1/propose", {"batch_size": 8}),
    ("ingest_hits_enospc", "POST", "/sessions/e1/ingest",
     lambda done: {"ticket": 1, "labels": labels_for(done, "propose")}),
    ("ingest_refused", "POST", "/sessions/e1/ingest",
     lambda done: {"ticket": 1, "labels": labels_for(done, "propose")}),
    ("propose_refused", "POST", "/sessions/e1/propose", {"batch_size": 8}),
    ("create_refused", "POST", "/sessions", create_body("e2")),
    ("checkpoint_refused", "POST", "/sessions/e1/checkpoint", None),
    ("close_refused", "DELETE", "/sessions/e1", None),
    ("status_reads", "GET", "/sessions/e1", None),
    ("estimate_reads", "GET", "/sessions/e1/estimate", None),
    ("history_reads", "GET", "/sessions/e1/history", None),
    ("list_reads", "GET", "/sessions", None),
    ("metrics_reads", "GET", "/metrics", None),
    ("healthz_degraded", "GET", "/healthz", None),
]

MUTATING_STEPS = ("ingest_hits_enospc", "ingest_refused", "propose_refused",
                  "create_refused", "checkpoint_refused", "close_refused")


def run(tier: Tier, script) -> dict:
    done = {}
    for name, method, path, body, *headers in script:
        if callable(body):
            body = body(done)
        done[name] = outcome(*tier.request(
            method, path, body, headers[0] if headers else None))
    return done


def drive_tiers(tmp_path_factory, script, fault=None) -> dict:
    transcripts = {}
    for kind in TIERS:
        tier = Tier(kind, tmp_path_factory.mktemp(kind), fault=fault)
        try:
            transcripts[kind] = run(tier, script)
        finally:
            tier.close()
    return transcripts


@pytest.fixture(scope="module")
def transcripts(tmp_path_factory):
    return drive_tiers(tmp_path_factory, SCRIPT + TIMEOUT_SCRIPT)


@pytest.fixture(scope="module")
def enospc_transcripts(tmp_path_factory):
    return drive_tiers(tmp_path_factory, ENOSPC_SCRIPT, fault=ENOSPC)


@pytest.mark.parametrize("step", [entry[0] for entry in SCRIPT + TIMEOUT_SCRIPT])
def test_tiers_answer_alike(transcripts, step):
    assert transcripts["in_process"][step] == transcripts["sharded"][step]


@pytest.mark.parametrize("step", [entry[0] for entry in ENOSPC_SCRIPT])
def test_tiers_degrade_alike_on_enospc(enospc_transcripts, step):
    assert (enospc_transcripts["in_process"][step]
            == enospc_transcripts["sharded"][step])


@pytest.mark.parametrize("kind", TIERS)
def test_non_finite_deadlines_are_400(tmp_path, kind):
    tier = Tier(kind, tmp_path / "root")
    try:
        for value in NON_FINITE_DEADLINES:
            status, raw, _ = tier.request(
                "GET", "/sessions/ghost", headers={"X-Request-Timeout": value})
            assert status == 400, (value, raw)
    finally:
        tier.close()


def test_script_covers_every_route_and_wrong_method():
    from repro.service.protocol import ROUTES

    templates = {
        (method, path.replace("c1", "{id}").replace("c2", "{id}"))
        for _, method, path, *_ in SCRIPT
    }
    assert set(ROUTES) <= templates
    for _, path in ROUTES:
        assert any(route_path == path and (method, path) not in ROUTES
                   for method, route_path in templates), path


def test_expected_statuses(transcripts):
    """Agreement alone could hide a shared bug: pin the statuses too."""
    got = transcripts["sharded"]
    for step in ("healthz", "create", "status", "propose", "ingest",
                 "propose_keyed", "propose_keyed_retry", "ingest_keyed",
                 "estimate", "estimate_query", "history", "checkpoint",
                 "list", "list_query", "metrics", "close",
                 "status_after_close", "healthz_after"):
        assert got[step][0] == 200, (step, got[step])
    for step in ("create_duplicate", "create_bad_id", "create_missing_fields",
                 "create_invalid_json", "create_not_object",
                 "ingest_missing_fields", "propose_bad_batch",
                 "propose_invalid_json", "propose_not_object",
                 "deadline_malformed", "deadline_non_positive"):
        assert got[step][0] == 400, (step, got[step])
    for step in [name for name, *_ in SCRIPT if name.startswith("wrong_")]:
        assert got[step][0] == 400, (step, got[step])
    for step in ("unknown_session_status", "unknown_session_propose",
                 "unknown_session_estimate", "unknown_session_close",
                 "unknown_path", "unknown_action", "unknown_nested_path"):
        assert got[step][0] == 404, (step, got[step])
    for step in ("propose_again", "ingest_stale_ticket",
                 "ingest_replayed_ticket"):
        assert got[step][0] == 409, (step, got[step])
    assert got["deadline_exceeded"][:1] == (504,)
    # A query string does not change the route.
    assert got["list_query"] == got["list"]
    assert got["estimate_query"] == got["estimate"]
    assert got["propose_keyed_retry"][1] == got["propose_keyed"][1]
    assert all(entry["shard"] == 0 for entry in got["list"][1]["sessions"])
    assert got["healthz_after"][1]["status"] == "ok"


def test_enospc_refuses_writes_and_serves_reads(enospc_transcripts):
    got = enospc_transcripts["in_process"]
    for step in MUTATING_STEPS:
        status, _, retry_after = got[step]
        assert (status, retry_after) == (503, True), (step, got[step])
    for step in ("status_reads", "estimate_reads", "history_reads",
                 "list_reads", "metrics_reads", "healthz_degraded"):
        assert got[step][0] == 200, (step, got[step])
    health = got["healthz_degraded"][1]
    assert health["status"] == "degraded"
    assert health["read_only_shards"] == 1
    # The rolled-back ingest left the proposal outstanding on disk.
    assert got["status_reads"][1]["outstanding"]["ticket"] == 1


def test_enospc_on_a_new_sessions_manifest_is_503_and_read_only(
        tmp_path, monkeypatch):
    """In-process only: the manifest is written on the shard's thread."""
    import repro.service.wal as wal_module

    def volume_full(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, "no space left on device (test)")

    tier = Tier("in_process", tmp_path / "root")
    try:
        monkeypatch.setattr(wal_module, "atomic_write_text", volume_full)
        status, raw, headers = tier.request(
            "POST", "/sessions", create_body("m1"))
        assert status == 503, raw
        assert "Retry-After" in headers
        assert "journal volume full" in json.loads(raw)["error"]
        monkeypatch.undo()
        # The volume "has space" again, but the shard stays read-only
        # until it restarts.
        status, raw, headers = tier.request(
            "POST", "/sessions", create_body("m2"))
        assert status == 503 and "Retry-After" in headers
        assert "read-only" in json.loads(raw)["error"]
        status, raw, _ = tier.request("GET", "/healthz")
        health = json.loads(raw)
        assert (status, health["status"], health["read_only_shards"]) == (
            200, "degraded", 1)
        assert tier.request("GET", "/sessions")[0] == 200
    finally:
        tier.close()


def test_in_process_commit_loop_under_a_thread_storm(tmp_path):
    """More clients than cores, switching often, on the in-process
    commit loop: a crossed reply or lost round would move some session
    off its seed's single-threaded trajectory."""
    threads, rounds, batch = 8, 4, 6
    tier = Tier("in_process", tmp_path / "root")
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        errors = []

        def worker(index):
            try:
                client = RecoveringClient(tier.port)
                client.create(f"t{index}", PREDICTIONS, SCORES, seed=index)
                for _ in range(rounds):
                    client.run_round(f"t{index}", batch, LABELS)
                client._conn().close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append((index, exc))

        pool = [threading.Thread(target=worker, args=(index,))
                for index in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in pool)
        assert not errors, errors
        finals = [json.loads(tier.request("GET", f"/sessions/t{index}")[1])
                  for index in range(threads)]
    finally:
        sys.setswitchinterval(previous)
        tier.close()
    for index, final in enumerate(finals):
        reference = reference_status(PREDICTIONS, SCORES, LABELS, seed=index,
                                     rounds=rounds, batch_size=batch)
        assert final["draws"] == rounds * batch
        assert final["estimate"] == reference["estimate"]
        assert final["labels_consumed"] == reference["labels_consumed"]
