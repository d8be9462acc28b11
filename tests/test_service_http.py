"""The JSON-over-HTTP front-end, driven by real sockets.

Covers the endpoint surface, error mapping and concurrent clients
against an in-process server, plus the full CI smoke scenario: a
server subprocess killed with SIGKILL mid-session and restarted from
its journal root, after which the finished session's estimate must
equal the in-process oracle-driven run at the same seed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.specs import SAMPLER_KINDS
from repro.oracle import DeterministicOracle
from repro.service import SessionManager
from repro.service.http import make_server

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_pool(seed=0, n=300):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.1).astype(np.int8)
    scores = rng.normal(size=n) + 2.5 * labels
    predictions = (scores > 0.5).astype(np.int8)
    return predictions, scores, labels


def call(port, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def server(tmp_path):
    manager = SessionManager(tmp_path / "root", capacity=8)
    instance = make_server(manager, port=0)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance.server_address[1], manager
    instance.shutdown()
    instance.server_close()


def create_session(port, predictions, scores, session_id, seed=7, **extra):
    body = {
        "predictions": predictions.tolist(),
        "scores": scores.tolist(),
        "sampler": "oasis",
        "sampler_kwargs": {"n_strata": 8},
        "seed": seed,
        "session_id": session_id,
    }
    body.update(extra)
    return call(port, "POST", "/sessions", body)


def drive_http(port, session_id, labels, batches):
    for batch in batches:
        status, proposal = call(port, "POST", f"/sessions/{session_id}/propose",
                                {"batch_size": batch})
        assert status == 200, proposal
        answers = [int(labels[i]) for i in proposal["pending"]]
        status, result = call(port, "POST", f"/sessions/{session_id}/ingest",
                              {"ticket": proposal["ticket"], "labels": answers})
        assert status == 200, result
    return result


class TestEndpoints:
    def test_healthz(self, server):
        port, __ = server
        status, payload = call(port, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def test_full_session_lifecycle_matches_in_process_run(self, server):
        port, __ = server
        predictions, scores, labels = make_pool()
        status, created = create_session(port, predictions, scores, "lifecycle")
        assert status == 200 and created["session_id"] == "lifecycle"

        batches = [16, 16, 16]
        result = drive_http(port, "lifecycle", labels, batches)

        sampler = SAMPLER_KINDS["oasis"](
            predictions, scores, DeterministicOracle(labels),
            random_state=7, n_strata=8)
        for batch in batches:
            sampler.sample_batch(batch)
        assert result["estimate"] == sampler.estimate
        assert result["labels_consumed"] == sampler.labels_consumed

        status, estimate = call(port, "GET", "/sessions/lifecycle/estimate")
        assert status == 200
        assert estimate["estimate"] == sampler.estimate
        assert estimate["precision"] == sampler.precision_estimate

        status, payload = call(port, "POST", "/sessions/lifecycle/checkpoint")
        assert status == 200 and payload["seq"] > 0

        status, payload = call(port, "GET", "/sessions")
        assert any(s["session_id"] == "lifecycle" for s in payload["sessions"])

        status, payload = call(port, "DELETE", "/sessions/lifecycle")
        assert status == 200 and payload["closed"]

    def test_error_mapping(self, server):
        port, __ = server
        predictions, scores, __labels = make_pool()
        assert call(port, "GET", "/sessions/ghost")[0] == 404
        assert call(port, "GET", "/nonsense")[0] == 404
        # create without required fields -> 400
        assert call(port, "POST", "/sessions", {"scores": [1.0]})[0] == 400
        # malformed JSON body -> 400
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/sessions", data=b"{not json",
            method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400

        create_session(port, predictions, scores, "errs")
        call(port, "POST", "/sessions/errs/propose", {"batch_size": 4})
        # double propose -> 409
        assert call(port, "POST", "/sessions/errs/propose",
                    {"batch_size": 4})[0] == 409
        # bad ticket -> 409
        assert call(port, "POST", "/sessions/errs/ingest",
                    {"ticket": 99, "labels": []})[0] == 409
        # bad batch size -> 400
        create_session(port, predictions, scores, "errs2")
        assert call(port, "POST", "/sessions/errs2/propose",
                    {"batch_size": 0})[0] == 400

    def test_capacity_maps_to_503(self, tmp_path):
        manager = SessionManager(None, capacity=1)  # memory-only: no eviction
        instance = make_server(manager, port=0)
        thread = threading.Thread(target=instance.serve_forever, daemon=True)
        thread.start()
        try:
            port = instance.server_address[1]
            predictions, scores, __ = make_pool(n=50)
            assert create_session(port, predictions, scores, "one")[0] == 200
            assert create_session(port, predictions, scores, "two")[0] == 503
        finally:
            instance.shutdown()
            instance.server_close()

    def test_concurrent_clients(self, server):
        """Multiple clients on distinct sessions, in parallel threads."""
        port, __ = server
        predictions, scores, labels = make_pool()
        ids = [f"client-{i}" for i in range(4)]
        for session_id in ids:
            status, __payload = create_session(port, predictions, scores,
                                               session_id, seed=13)
            assert status == 200
        results = {}
        errors = []

        def client(session_id):
            try:
                results[session_id] = drive_http(
                    port, session_id, labels, [8] * 8)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((session_id, exc))

        threads = [threading.Thread(target=client, args=(sid,)) for sid in ids]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # same seed, same labels: all clients converge to one trajectory
        estimates = {r["estimate"] for r in results.values()}
        consumed = {r["labels_consumed"] for r in results.values()}
        assert len(estimates) == 1 and len(consumed) == 1


class TestKillRestartSmoke:
    """The CI smoke scenario against a real server process."""

    @staticmethod
    def start_server(root, *flags):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--port", "0", "--root", str(root), *flags],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        line = process.stdout.readline()
        assert "http://" in line, line
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        # wait for readiness
        for __ in range(100):
            try:
                status, __payload = call(port, "GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                time.sleep(0.05)
        return process, port

    def test_kill9_restart_resumes_and_matches_in_process(self, tmp_path):
        root = tmp_path / "service-root"
        predictions, scores, labels = make_pool(5)
        batches_before, batches_after = [16, 16], [16, 16]

        process, port = self.start_server(root)
        try:
            status, __payload = create_session(
                port, predictions, scores, "smoke", seed=21)
            assert status == 200
            drive_http(port, "smoke", labels, batches_before)
            # leave a proposal in flight, then SIGKILL the server
            status, outstanding = call(
                port, "POST", "/sessions/smoke/propose", {"batch_size": 16})
            assert status == 200
        finally:
            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
            process.stdout.close()

        process, port = self.start_server(root)
        try:
            # the restarted server restores the session from its journal,
            # outstanding proposal included
            status, state = call(port, "GET", "/sessions/smoke")
            assert status == 200
            assert state["outstanding"]["ticket"] == outstanding["ticket"]
            assert state["outstanding"]["pending"] == outstanding["pending"]
            answers = [int(labels[i]) for i in outstanding["pending"]]
            status, __payload = call(
                port, "POST", "/sessions/smoke/ingest",
                {"ticket": outstanding["ticket"], "labels": answers})
            assert status == 200
            result = drive_http(port, "smoke", labels, batches_after)
        finally:
            process.terminate()
            process.wait(timeout=30)
            process.stdout.close()

        sampler = SAMPLER_KINDS["oasis"](
            predictions, scores, DeterministicOracle(labels),
            random_state=21, n_strata=8)
        for batch in batches_before + [16] + batches_after:
            sampler.sample_batch(batch)
        assert result["estimate"] == sampler.estimate
        assert result["labels_consumed"] == sampler.labels_consumed

    def test_in_process_serve_journals_with_the_requested_codec(
            self, tmp_path):
        """``serve`` without ``--shards`` takes the shard options too."""
        root = tmp_path / "service-root"
        predictions, scores, labels = make_pool(6)
        process, port = self.start_server(root, "--codec", "binary",
                                          "--max-batch", "4")
        try:
            status, __payload = create_session(
                port, predictions, scores, "binary", seed=3)
            assert status == 200
            drive_http(port, "binary", labels, [8, 8])
        finally:
            process.terminate()
            process.wait(timeout=30)
            process.stdout.close()
        # Sessions keep the in-process layout: <root>/<sid>/, no topology.
        assert not (root / "topology.json").exists()
        shards = sorted(p.name for p in (root / "binary" / "events").iterdir())
        assert shards and all(name.endswith(".bin") for name in shards), shards
