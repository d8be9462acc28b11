"""Group-commit WAL: atomic batches, fsync accounting, prefix restores.

The group-commit contract is the heart of the sharded tier's
durability story: events buffer in memory, a flush makes the whole
buffer durable with one data fsync plus one directory fsync, and an
acknowledgement may only follow the flush.  These tests pin the three
consequences that matter:

* a crash between flushes loses the *entire* unflushed suffix and
  nothing else — no torn batches, no partially applied windows;
* every flushed prefix of the journal restores to a valid session
  state (the Hypothesis property below snapshots the directory after
  every flush and replays each copy);
* the directory fsync really runs after the shard rename — the
  regression the PR-4 journal was missing.

Framing a shard costs no copy of its payload on either side: the
writer puts the header and the payload down separately (the bytes are
still exactly ``frame_payload``'s), and unframing returns a view.  A
binary checkpoint is encoded with its arrays' bytes appended in place,
so journalling one holds about one copy of its trajectory arrays.
"""

from __future__ import annotations

import json
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.faults import FaultingWAL, FaultPlan
from repro.service.session import EvaluationSession
from repro.service.wal import (
    GroupCommitWAL,
    SessionWAL,
    frame_payload,
    unframe_payload,
)


def wal_events(directory):
    return SessionWAL(directory).events()


class TestGroupCommit:
    def test_appends_invisible_until_flush(self, tmp_path):
        wal = GroupCommitWAL(tmp_path / "s", max_batch=100)
        for ticket in range(1, 4):
            wal.append("propose", {"ticket": ticket, "batch_size": 2})
        assert wal.pending_events == 3
        assert wal_events(tmp_path / "s") == []
        wal.flush()
        assert wal.pending_events == 0
        assert [e["seq"] for e in wal_events(tmp_path / "s")] == [1, 2, 3]

    def test_flush_writes_one_batch_shard(self, tmp_path):
        wal = GroupCommitWAL(tmp_path / "s", max_batch=100)
        for ticket in range(1, 5):
            wal.append("propose", {"ticket": ticket, "batch_size": 1})
        wal.flush()
        names = sorted(p.name for p in (tmp_path / "s" / "events").iterdir())
        assert names == ["b00000001-00000004.json"]

    def test_single_event_flush_uses_event_shard(self, tmp_path):
        wal = GroupCommitWAL(tmp_path / "s", max_batch=100)
        wal.append("propose", {"ticket": 1, "batch_size": 1})
        wal.flush()
        names = sorted(p.name for p in (tmp_path / "s" / "events").iterdir())
        assert names == ["e00000001-propose.json"]

    def test_self_flush_at_max_batch(self, tmp_path):
        wal = GroupCommitWAL(tmp_path / "s", max_batch=3)
        for ticket in range(1, 4):
            wal.append("propose", {"ticket": ticket, "batch_size": 1})
        assert wal.pending_events == 0  # hit the bound, flushed itself
        assert len(wal_events(tmp_path / "s")) == 3

    def test_empty_flush_is_noop(self, tmp_path):
        wal = GroupCommitWAL(tmp_path / "s")
        assert wal.flush() == 0
        assert list((tmp_path / "s" / "events").iterdir()) == []

    def test_restart_resumes_sequence_numbers(self, tmp_path):
        wal = GroupCommitWAL(tmp_path / "s", max_batch=100)
        wal.append("propose", {"ticket": 1, "batch_size": 1})
        wal.append("ingest", {"ticket": 1, "labels": [1]})
        wal.flush()
        wal.append("propose", {"ticket": 2, "batch_size": 1})  # never flushed
        resumed = GroupCommitWAL(tmp_path / "s", max_batch=100)
        seq = resumed.append("propose", {"ticket": 2, "batch_size": 1})
        resumed.flush()
        assert seq == 3  # the lost buffered event's number is reused
        assert [e["seq"] for e in wal_events(tmp_path / "s")] == [1, 2, 3]

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_codecs_replay_identically(self, tmp_path, codec):
        records = [
            ("propose", {"ticket": 1, "batch_size": 3}),
            ("ingest", {"ticket": 1, "labels": [0, 1, 1]}),
            ("checkpoint", {"ticket": 1, "state": {"x": 1.5}, "pending": None}),
        ]
        wal = GroupCommitWAL(tmp_path / codec, codec=codec, max_batch=100)
        for kind, payload in records:
            wal.append(kind, payload)
        wal.flush()
        assert wal_events(tmp_path / codec) == [
            {"seq": i + 1, "kind": kind, **payload}
            for i, (kind, payload) in enumerate(records)
        ]

    def test_mixed_codec_journal(self, tmp_path):
        first = GroupCommitWAL(tmp_path / "s", codec="json", max_batch=100)
        first.append("propose", {"ticket": 1, "batch_size": 1})
        first.flush()
        second = GroupCommitWAL(tmp_path / "s", codec="binary", max_batch=100)
        second.append("ingest", {"ticket": 1, "labels": [1]})
        second.flush()
        assert [e["kind"] for e in wal_events(tmp_path / "s")] == [
            "propose", "ingest"]


class TestDirectoryFsync:
    """The fix: a renamed shard is durable only after its directory syncs."""

    def test_dir_fsync_follows_rename(self, tmp_path, monkeypatch):
        import repro.service.wal as wal_module

        synced = []

        def recording_fsync(path):
            synced.append(path)

        monkeypatch.setattr(wal_module, "fsync_directory", recording_fsync)
        wal = SessionWAL(tmp_path / "s")
        wal.append("propose", {"ticket": 1, "batch_size": 1})
        # The shard file must already be at its final name when the
        # directory fsync runs — sync-before-rename would durably
        # record nothing.
        assert synced == [wal.event_dir]
        assert (wal.event_dir / "e00000001-propose.json").is_file()

    def test_one_dir_fsync_per_flush_window(self, tmp_path):
        plan = FaultPlan(None)  # no kill: pure stage counters
        wal = FaultingWAL(tmp_path / "s", plan=plan, max_batch=100)
        for ticket in range(1, 9):
            wal.append("propose", {"ticket": ticket, "batch_size": 1})
        wal.flush()
        assert plan.counts["wal:pre_fsync"] == 1
        assert plan.counts["wal:post_durable"] == 1
        wal.append("propose", {"ticket": 9, "batch_size": 1})
        wal.flush()
        assert plan.counts["wal:post_durable"] == 2

    def test_stage_order_per_flush(self, tmp_path):
        plan = FaultPlan(None)
        wal = FaultingWAL(tmp_path / "s", plan=plan, max_batch=100)
        wal.append("ingest", {"ticket": 1, "labels": [1]})
        wal.flush()
        for stage in ("pre_write", "pre_fsync", "pre_rename",
                      "post_rename", "post_durable"):
            assert plan.counts[f"wal:{stage}"] == 1

    def test_manifest_write_syncs_both_directories(self, tmp_path, monkeypatch):
        import repro.service.wal as wal_module
        import repro.utils.io as io_module

        synced = []
        monkeypatch.setattr(io_module, "fsync_directory",
                            lambda path: synced.append(path))
        monkeypatch.setattr(wal_module, "fsync_directory",
                            lambda path: synced.append(path))
        wal = SessionWAL(tmp_path / "root" / "s")
        wal.write_manifest({"session_id": "s"})
        # Durable name-and-all: the session directory (new manifest
        # entry) and the service root (new session directory entry).
        assert wal.directory in synced
        assert wal.directory.parent in synced


def _traced_peak(fn):
    """``fn()`` and the bytes tracemalloc saw allocated at its peak."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_framing_copies_no_payload(tmp_path):
    """An 8 MiB shard is written and unframed without a payload copy."""
    wal = SessionWAL(tmp_path / "s")
    payload = np.random.default_rng(0).bytes(8 * 2**20)
    path = wal.event_dir / "e00000001-checkpoint.bin"
    __, write_peak = _traced_peak(lambda: wal._write_durable(path, payload))
    data = path.read_bytes()
    assert data == frame_payload(payload)
    view, unframe_peak = _traced_peak(lambda: unframe_payload(data, path))
    assert view == payload
    assert write_peak < 2**20 and unframe_peak < 2**20


def test_binary_checkpoint_append_holds_one_copy_of_its_arrays(tmp_path):
    rows = 1_000_000
    rng = np.random.default_rng(0)
    trajectory = {"start": 0, "history": rng.random(rows),
                  "budget_history": np.arange(rows),
                  "sampled_indices": rng.integers(0, 10**6, rows)}
    array_bytes = 3 * 8 * rows
    assert array_bytes >= 20 * 2**20
    wal = SessionWAL(tmp_path / "s", codec="binary")
    seq, peak = _traced_peak(lambda: wal.append("checkpoint", {
        "ticket": 0, "state": {"format_version": 3},
        "trajectory": trajectory, "pending": None}))
    assert peak <= 1.25 * array_bytes, peak / array_bytes
    [event] = wal_events(tmp_path / "s")
    assert event["seq"] == seq
    for name in ("history", "budget_history", "sampled_indices"):
        np.testing.assert_array_equal(event["trajectory"][name],
                                      trajectory[name])


EVENT_STRATEGY = st.one_of(
    st.tuples(st.just("propose"),
              st.integers(min_value=1, max_value=64)),
    st.tuples(st.just("ingest"),
              st.lists(st.integers(min_value=0, max_value=1), max_size=4)),
    st.tuples(st.just("checkpoint"), st.just(None)),
)


@settings(max_examples=25, deadline=None)
@given(
    plan=st.lists(st.tuples(EVENT_STRATEGY, st.booleans()),
                  min_size=1, max_size=24),
    codec=st.sampled_from(["json", "binary"]),
)
def test_every_flushed_prefix_is_restorable(tmp_path_factory, plan, codec):
    """Property: a copy of the journal taken after any flush replays to
    exactly the events flushed by then — full batches, never a torn one.
    """
    root = tmp_path_factory.mktemp("gcwal")
    wal = GroupCommitWAL(root / "s", codec=codec, max_batch=100)
    flushed = []   # records durable so far
    buffered = []  # records appended since the last flush
    snapshots = []
    ticket = 0
    for index, ((kind, arg), do_flush) in enumerate(plan):
        if kind == "propose":
            ticket += 1
            payload = {"ticket": ticket, "batch_size": arg}
        elif kind == "ingest":
            payload = {"ticket": ticket, "labels": arg}
        else:
            payload = {"ticket": ticket, "state": {"i": index}, "pending": None}
        seq = wal.append(kind, payload)
        buffered.append({"seq": seq, "kind": kind, **payload})
        if do_flush:
            wal.flush()
            flushed.extend(buffered)
            buffered = []
            copy = root / f"snap-{index:03d}"
            shutil.copytree(root / "s", copy)
            snapshots.append((copy, list(flushed)))
    # Unflushed tail is invisible; every snapshot replays its own prefix.
    assert wal_events(root / "s") == flushed
    for copy, expected in snapshots:
        assert wal_events(copy) == expected


@settings(max_examples=10, deadline=None)
@given(flush_after=st.lists(st.booleans(), min_size=3, max_size=6),
       data=st.data())
def test_acked_session_rounds_survive_any_crash_point(
        tmp_path_factory, flush_after, data):
    """Property: restore equals the trajectory of *flushed* rounds.

    Drives a journalled session round by round, flushing (= acking)
    after a random subset of rounds; a directory copy taken at the end
    (any crash instant between flushes) must restore the state as of
    the last flush — every acked round present, every unacked one gone.
    """
    root = tmp_path_factory.mktemp("session")
    rng = np.random.default_rng(7)
    n = 50
    scores = rng.normal(size=n)
    predictions = (scores > 0).astype(np.int8)
    session = EvaluationSession.create(
        predictions, scores, sampler="oasis", sampler_kwargs={"n_strata": 4},
        seed=3, directory=root / "s", session_id="s",
        wal_factory=lambda d: GroupCommitWAL(d, max_batch=1000),
    )
    acked_rounds = 0
    for do_flush in flush_after:
        proposal = session.propose(4)
        labels = [
            data.draw(st.integers(min_value=0, max_value=1))
            for _ in proposal["pending"]
        ]
        session.ingest(proposal["ticket"], labels)
        if do_flush:
            session.wal.flush()
            acked_rounds += 1
        else:
            break  # later rounds are all unacked; crash here
    copy = root / "restored"
    shutil.copytree(root / "s", copy)
    restored = EvaluationSession.restore(copy)
    status = restored.status()
    assert status["draws"] == 4 * acked_rounds
    assert status["outstanding"] is None
    if acked_rounds:
        # The acked prefix replays to a live, usable session.
        proposal = restored.propose(4)
        restored.ingest(proposal["ticket"], [0] * len(proposal["pending"]))
