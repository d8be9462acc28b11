"""Consistent hashing and topology pinning for the sharded tier.

The ring decides which shard directory owns which session journal, so
its two load-bearing properties are determinism (every process, every
restart, same mapping) and stability (resizing moves few keys).  The
topology file turns the shard count into part of the root's identity.
A shard client's deadline starts when the request is issued, not when
the client begins waiting for the reply.
"""

from __future__ import annotations

import json

import pytest

from repro.service.errors import DeadlineExceededError
from repro.service.router import (
    HashRing,
    LocalShardClient,
    init_topology,
    load_topology,
)
from repro.service.shard import open_shard


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
