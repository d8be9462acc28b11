"""The committed torn-tail fixtures must keep recovering, bit-identically.

``tests/fixtures/torn_tail_session/`` (``WFC1`` frames) and
``tests/fixtures/torn_tail_session_wfc2/`` (``WFC2`` frames) each hold
one journal per WAL codec, each ending in a half-written final frame —
the exact footprint of a crash mid-append (``make_torn_tail_session.py``
writes a new frame version's fixture; a committed one is never
regenerated).  Restoring them with *current* code is the torn-tail
recovery contract frozen in amber, per frame version: the tear must be
classified as a recoverable tail (not corruption), the restored state
must land on the recorded pre-tear trajectory, and the journal must
keep appending cleanly from the recovered sequence number.  Each test
loops over both fixtures, so each keeps the id it had when only the
``WFC1`` fixture existed.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.service.session import EvaluationSession
from repro.service.wal import SessionWAL
from repro.utils import CorruptStateError

#: Frame magic → the committed fixture whose shards carry it.
FIXTURES = {
    b"WFC1": Path(__file__).parent / "fixtures" / "torn_tail_session",
    b"WFC2": Path(__file__).parent / "fixtures" / "torn_tail_session_wfc2",
}
CODECS = ("json", "binary")


def sidecar(fixture: Path) -> dict:
    return json.loads((fixture / "fixture.json").read_text())


@pytest.mark.parametrize("codec", CODECS)
def test_fixture_tail_really_is_torn(codec):
    for magic, fixture in FIXTURES.items():
        entry = sidecar(fixture)["sessions"][codec]
        events = fixture / entry["session_id"] / "events"
        shards = sorted(events.iterdir())
        assert shards[-1].name == entry["torn_shard"]
        # Every shard is a frame of the fixture's version...
        assert {path.read_bytes()[:4] for path in shards} == {magic}
        data = shards[-1].read_bytes()
        declared = int.from_bytes(data[4:8], "big")
        assert len(data) < 12 + declared  # ...the tail shorter than declared


@pytest.mark.parametrize("codec", CODECS)
def test_torn_fixture_restores_to_the_recorded_state(tmp_path, codec):
    for magic, fixture in FIXTURES.items():
        recorded = sidecar(fixture)
        entry = recorded["sessions"][codec]
        session_dir = tmp_path / magic.decode() / entry["session_id"]
        shutil.copytree(fixture / entry["session_id"], session_dir)

        session = EvaluationSession.restore(
            session_dir, wal_factory=lambda d: SessionWAL(d, codec=codec))
        assert [r["file"] for r in session.wal.recovered] == \
            [entry["torn_shard"]], magic
        assert not (session_dir / "events" / entry["torn_shard"]).exists()

        status = session.status()
        assert session.estimate == pytest.approx(
            entry["estimate_at_restore"])
        assert status["draws"] == entry["draws_at_restore"]
        assert status["labels_consumed"] == \
            entry["labels_consumed_at_restore"]
        assert status["outstanding"]["ticket"] == entry["outstanding_ticket"]
        assert status["outstanding"]["pending"] == \
            entry["outstanding_pending"]

        # The recovered journal keeps serving: answer the re-outstanding
        # proposal, and a second restore replays it without complaint.
        labels = recorded["true_labels"]
        session.ingest(entry["outstanding_ticket"],
                       [int(labels[i]) for i in entry["outstanding_pending"]])
        again = EvaluationSession.restore(
            session_dir, wal_factory=lambda d: SessionWAL(d, codec=codec))
        assert again.wal.recovered == []
        assert again.status()["draws"] == entry["draws_at_restore"] + \
            recorded["batch_size"]


@pytest.mark.parametrize("codec", CODECS)
def test_fixture_tear_moved_off_the_tail_is_corruption(tmp_path, codec):
    """The same damaged bytes one position earlier in the log must be
    rejected: recovery's leniency is strictly a property of the tail.
    """
    for magic, fixture in FIXTURES.items():
        entry = sidecar(fixture)["sessions"][codec]
        session_dir = tmp_path / magic.decode() / entry["session_id"]
        shutil.copytree(fixture / entry["session_id"], session_dir)
        shards = sorted((session_dir / "events").iterdir())
        shards[-3].write_bytes(shards[-1].read_bytes())
        with pytest.raises(CorruptStateError):
            EvaluationSession.restore(
                session_dir,
                wal_factory=lambda d: SessionWAL(d, codec=codec))
