"""Consistent hashing and topology pinning for the sharded tier.

The ring decides which shard directory owns which session journal, so
its two load-bearing properties are determinism (every process, every
restart, same mapping) and stability (resizing moves few keys).  The
topology file turns the shard count into part of the root's identity.
A shard client's deadline starts when the request is issued, not when
the client begins waiting for the reply.  A reply that would pass the
RPC frame cap is a 507 on both tiers: the worker sends a well-formed
error frame in its place, and the connection keeps serving.
"""

from __future__ import annotations

import json
import re
import socket
import threading

import numpy as np
import pytest

from test_service_faults import RecoveringClient, make_pool
from test_service_observability import raw_request

from repro.service import (
    EvaluationClient,
    ServiceRequestError,
    SessionManager,
    rpc,
)
from repro.service.errors import DeadlineExceededError
from repro.service.http import make_server
from repro.service.router import (
    HashRing,
    LocalShardClient,
    init_topology,
    load_topology,
)
from repro.service.shard import _Conn, open_shard


class TestHashRing:
    def test_deterministic_across_instances(self):
        ids = [f"session-{i}" for i in range(200)]
        first = [HashRing(4).shard_for(sid) for sid in ids]
        second = [HashRing(4).shard_for(sid) for sid in ids]
        assert first == second

    def test_covers_all_shards_evenly_enough(self):
        ring = HashRing(4)
        counts = [0] * 4
        for i in range(2000):
            counts[ring.shard_for(f"id-{i}")] += 1
        # Not a statistical test — just "no shard is starved or hogging".
        assert min(counts) > 2000 / 4 / 3
        assert max(counts) < 2000 / 4 * 2

    def test_resizing_moves_a_minority_of_keys(self):
        ids = [f"session-{i}" for i in range(1000)]
        four, five = HashRing(4), HashRing(5)
        moved = sum(1 for sid in ids
                    if four.shard_for(sid) != five.shard_for(sid))
        # Consistent hashing: adding one shard should move ≈ 1/5 of the
        # keys, nothing like the 4/5 a modulo scheme reshuffles.
        assert moved < len(ids) * 0.45

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert {ring.shard_for(f"x{i}") for i in range(50)} == {0}

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="at least one shard"):
            HashRing(0)


class TestTopology:
    def test_fresh_root_records_topology(self, tmp_path):
        written = init_topology(tmp_path / "root", 4, "json")
        assert written["shards"] == 4
        stored = load_topology(tmp_path / "root")
        assert stored == written
        # Human-inspectable on disk.
        on_disk = json.loads((tmp_path / "root" / "topology.json").read_text())
        assert on_disk["shards"] == 4 and on_disk["codec"] == "json"

    def test_matching_restart_is_idempotent(self, tmp_path):
        init_topology(tmp_path / "root", 2, "binary")
        again = init_topology(tmp_path / "root", 2, "binary")
        assert again["shards"] == 2 and again["codec"] == "binary"

    def test_shard_count_mismatch_rejected(self, tmp_path):
        init_topology(tmp_path / "root", 4, "json")
        with pytest.raises(ValueError, match="laid out for 4 shard"):
            init_topology(tmp_path / "root", 8, "json")

    def test_codec_mismatch_rejected(self, tmp_path):
        init_topology(tmp_path / "root", 4, "json")
        with pytest.raises(ValueError, match="codec"):
            init_topology(tmp_path / "root", 4, "binary")

    def test_missing_root_reports_none(self, tmp_path):
        assert load_topology(tmp_path / "nowhere") is None


class TestDeadline:
    def test_deadline_starts_before_the_request_is_admitted(self):
        # ``ping`` is answered inside admission, before the client waits
        # for the reply; a deadline that passed meanwhile still counts.
        client = LocalShardClient(open_shard(None, {}))
        with pytest.raises(DeadlineExceededError):
            client.request_raw("ping", timeout=1e-9)
        assert client.request_raw("ping")[0] == 200


class TestOversizedReply:
    """``rpc.MAX_FRAME_BYTES`` is patched down; a history passes it."""

    CAP = 64 * 1024

    def test_in_process_tier_answers_507_and_keeps_serving(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(rpc, "MAX_FRAME_BYTES", self.CAP)
        predictions, scores, labels = make_pool(seed=4, n=200)
        server = make_server(SessionManager(tmp_path / "root"), port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = RecoveringClient(port)
            client.create("big", predictions, scores, seed=0)
            client.run_round("big", 4096, labels)
            status, body, headers = raw_request(
                port, "GET", "/sessions/big/history")
            assert status == 507
            error = json.loads(body)["error"]
            size = re.fullmatch(
                rf"reply of at least (\d+) bytes passes the {self.CAP}-byte "
                "frame cap", error)
            assert size and int(size[1]) > self.CAP
            assert "Retry-After" not in headers
            # Not retried: resending would fail the same way.
            with pytest.raises(ServiceRequestError) as caught:
                EvaluationClient(f"http://127.0.0.1:{port}").history("big")
            assert (caught.value.status, caught.value.retries) == (507, 0)
            status, body, _ = raw_request(port, "GET", "/sessions/big")
            assert status == 200
            assert json.loads(body)["labels_consumed"] > 0
        finally:
            server.shutdown()
            server.server_close()

    def test_worker_reply_over_the_cap_is_a_well_formed_error_frame(
            self, monkeypatch):
        monkeypatch.setattr(rpc, "MAX_FRAME_BYTES", self.CAP)
        # _Conn sets TCP_NODELAY, so the pair is a loopback TCP one.
        with socket.create_server(("127.0.0.1", 0)) as listener, \
                socket.create_connection(listener.getsockname()) as peer:
            sock, _ = listener.accept()
            conn, rfile = _Conn(sock), peer.makefile("rb")
            rows = np.arange(20_000.0)
            # A plain payload, then one streamed from an array.
            for frame_id, history in enumerate((rows.tolist(), rows), 1):
                conn.reply(frame_id, 200, {"history": history})
                header, body = rpc.recv_frame(rfile)
                assert header == {"id": frame_id, "status": 507}
                assert f"{self.CAP}-byte frame cap" in json.loads(body)["error"]
            conn.reply(3, 200, {"ok": True}, retry_after=0.5)
            assert rpc.recv_frame(rfile) == (
                {"id": 3, "status": 200, "retry_after": 0.5}, b'{"ok": true}')
            conn.rfile.close()
            sock.close()
