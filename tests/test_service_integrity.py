"""Integrity layer: checksummed frames, torn-tail recovery, exactly-once keys.

The claims under test, in order of appearance:

* the legacy CRC32C verifier matches the published check vectors;
* every WAL shard is a checksummed frame, and restore distinguishes a
  **torn tail** (recoverable — the interrupted write was never
  acknowledged, so dropping it breaks no promise) from **mid-log
  damage** (a hard :class:`~repro.utils.CorruptStateError` naming file
  and offset — silently serving a shortened history would be worse
  than failing) — for ``WFC2`` frames (``zlib.crc32``, what the WAL
  writes) and legacy ``WFC1`` frames (CRC32C) alike, and for a journal
  that mixes the two;
* pre-frame journals (the committed fixtures, live deployments from
  before the format change) still restore;
* session manifests carry a digest sidecar (either version) and fail
  loudly when the bytes rot;
* idempotency keys make propose/ingest retries exact-once, across
  replay, checkpoints and eviction;
* a full journal volume surfaces as the retryable
  :class:`~repro.service.errors.StorageFullError` with state unchanged
  — degradation, never damage;
* chunk-store manifests record per-chunk SHA-256 digests and loads
  verify them.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib

import numpy as np
import pytest

from repro.pipeline.records import Record
from repro.pipeline.storage import ChunkedRecordStore
from repro.service.errors import StorageFullError
from repro.service.faults import flip_bits, truncate_file
from repro.service.session import DEDUP_WINDOW, EvaluationSession
from repro.service.wal import GroupCommitWAL, SessionWAL
from repro.utils import CorruptStateError, crc32c, file_digest


# -- crc32c check vectors --------------------------------------------------

def test_crc32c_check_vectors():
    # The iSCSI (Castagnoli) polynomial's published vectors.
    assert crc32c(b"") == 0
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"The quick brown fox jumps over the lazy dog") == 0x22620404


def test_crc32c_streaming_composition():
    data = os.urandom(1024)
    assert crc32c(data) == crc32c(data[300:], crc32c(data[:300]))


# -- WAL frame verification ------------------------------------------------

#: The frame versions every frame-damage test runs on: ``WFC2``, what
#: the WAL writes, and the legacy ``WFC1``, which :func:`to_wfc1` builds
#: from a fresh journal.  The tests loop over them rather than
#: parametrize, so each keeps the id it had before ``WFC2`` existed.
FRAMES = ("WFC2", "WFC1")
LEGACY_DIGEST = "manifest.crc32c"


def journal_pool():
    rng = np.random.default_rng(2)
    labels = (rng.random(60) < 0.4).astype(int)
    scores = rng.normal(size=60) + labels
    return (scores > 0.4).astype(int), scores, labels


def drive(session, rounds):
    _, _, labels = journal_pool()
    for _ in range(rounds):
        proposal = session.propose(5)
        session.ingest(proposal["ticket"],
                       [int(labels[i]) for i in proposal["pending"]])
    return session


def make_session(directory, *, codec="json", rounds=3, seed=9,
                 wal_factory=None, frame="WFC2"):
    """A driven session, its journal flushed and written in ``frame``."""
    predictions, scores, _ = journal_pool()
    factory = wal_factory or (lambda d: SessionWAL(d, codec=codec))
    session = EvaluationSession.create(
        predictions.tolist(), scores.tolist(), sampler="oasis", seed=seed,
        directory=directory, session_id="s", wal_factory=factory)
    drive(session, rounds).wal.flush()
    if frame == "WFC1":
        to_wfc1(directory)
    return session


def to_wfc1(directory):
    """Rewrite a journal the way code before ``WFC2`` wrote it: every
    shard re-framed under ``WFC1`` with CRC32C, and the manifest digest
    in a ``manifest.crc32c`` sidecar."""
    for path in shard_files(directory):
        data = path.read_bytes()
        assert data[:4] == b"WFC2"
        payload = data[12:]
        path.write_bytes(b"WFC1" + struct.pack(
            ">II", len(payload), crc32c(payload)) + payload)
    (directory / SessionWAL.MANIFEST_DIGEST).unlink()
    manifest = (directory / SessionWAL.MANIFEST).read_bytes()
    (directory / LEGACY_DIGEST).write_text(f"{crc32c(manifest):08x}\n")


def shard_files(directory):
    return sorted((directory / "events").iterdir())


def digest_files(directory):
    return sorted(path.name for path in directory.glob("manifest.crc*"))


def test_new_shards_and_sidecars_use_zlib_crc32(tmp_path):
    directory = tmp_path / "s"
    make_session(directory, rounds=1)
    for path in shard_files(directory):
        data = path.read_bytes()
        assert data[:4] == b"WFC2"
        assert struct.unpack_from(">II", data, 4) == (
            len(data) - 12, zlib.crc32(data[12:]))
    manifest = (directory / SessionWAL.MANIFEST).read_bytes()
    assert digest_files(directory) == ["manifest.crc32"]
    assert (directory / "manifest.crc32").read_text() == \
        f"{zlib.crc32(manifest):08x}\n"


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_torn_tail_is_recovered_and_only_the_tail_drops(tmp_path, codec):
    for frame in FRAMES:
        directory = tmp_path / frame
        session = make_session(directory, codec=codec, frame=frame)
        intact = session.status()

        shards = shard_files(directory)
        tail = shards[-1]
        truncate_file(tail, keep=len(tail.read_bytes()) // 2)

        restored = EvaluationSession.restore(
            directory, wal_factory=lambda d: SessionWAL(d, codec=codec))
        # The torn write was the final ingest; everything acknowledged
        # before it survives, and the proposal it answered is
        # outstanding again.
        assert restored.wal.recovered and \
            restored.wal.recovered[0]["file"] == tail.name, frame
        assert not tail.exists()  # unlinked, so the sequence has no ghost
        status = restored.status()
        assert status["draws"] == intact["draws"] - 5
        assert status["labels_consumed"] < intact["labels_consumed"]
        assert status["outstanding"] is not None
        # ...and the log keeps appending cleanly from the recovered seq.
        restored.ingest(status["outstanding"]["ticket"],
                        [0] * len(status["outstanding"]["pending"]))
        again = EvaluationSession.restore(
            directory, wal_factory=lambda d: SessionWAL(d, codec=codec))
        assert again.wal.recovered == []
        assert again.status()["draws"] == intact["draws"]


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_truncation_mid_log_raises_corrupt_state(tmp_path, codec):
    for frame in FRAMES:
        directory = tmp_path / frame
        make_session(directory, codec=codec, frame=frame)
        victim = shard_files(directory)[1]  # acknowledged history
        truncate_file(victim, keep=6)
        with pytest.raises(CorruptStateError) as excinfo:
            EvaluationSession.restore(directory)
        assert victim.name in str(excinfo.value)
        assert excinfo.value.path == str(victim)
        assert excinfo.value.offset == 6


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_bit_flip_raises_corrupt_state_naming_the_file(tmp_path, codec):
    for frame in FRAMES:
        directory = tmp_path / frame
        make_session(directory, codec=codec, frame=frame)
        victim = shard_files(directory)[0]
        flip_bits(victim, [len(victim.read_bytes()) - 1])  # payload rot
        with pytest.raises(CorruptStateError,
                           match=f"{frame} checksum") as excinfo:
            EvaluationSession.restore(directory)
        assert victim.name in str(excinfo.value)
        assert excinfo.value.path == str(victim)
        assert excinfo.value.offset == 12


def test_trailing_garbage_raises_corrupt_state(tmp_path):
    for frame in FRAMES:
        directory = tmp_path / frame
        make_session(directory, frame=frame)
        victim = shard_files(directory)[0]
        victim.write_bytes(victim.read_bytes() + b"??")
        with pytest.raises(CorruptStateError, match="trailing garbage"):
            EvaluationSession.restore(directory)


def test_empty_tail_shard_recovers_but_empty_mid_log_raises(tmp_path):
    for frame in FRAMES:
        directory = tmp_path / frame
        make_session(directory, frame=frame)
        shards = shard_files(directory)
        shards[-1].write_bytes(b"")
        restored = EvaluationSession.restore(directory)
        assert restored.wal.recovered, frame
        shards = shard_files(restored.wal.directory)
        shards[0].write_bytes(b"")
        with pytest.raises(CorruptStateError):
            EvaluationSession.restore(directory)


def test_magic_prefix_tail_is_torn_for_either_frame_version(tmp_path):
    """A tail holding 0-3 bytes of ``WFC`` could have become either
    version's frame, so it is a torn write, not corruption."""
    for prefix in (b"W", b"WF", b"WFC"):
        directory = tmp_path / prefix.decode()
        intact = make_session(directory, rounds=2).status()
        tail = shard_files(directory)[-1]
        tail.write_bytes(prefix)
        restored = EvaluationSession.restore(directory)
        assert restored.wal.recovered[0]["offset"] == len(prefix)
        assert restored.status()["draws"] == intact["draws"] - 5


def test_pre_frame_shards_still_load(tmp_path):
    """Journals written before the frame format (committed fixtures,
    old deployments) parse unchecked rather than failing."""
    directory = tmp_path / "s"
    session = make_session(directory, rounds=1)
    expected = session.status()
    for path in shard_files(directory):
        data = path.read_bytes()
        assert data[:4] == b"WFC2"
        payload = data[12:]  # strip magic + length + crc → legacy shape
        path.write_bytes(payload)
    restored = EvaluationSession.restore(directory)
    assert restored.wal.recovered == []
    assert restored.status() == expected


def test_manifest_digest_detects_rot_and_sidecar_is_optional(tmp_path):
    for frame, digest in zip(FRAMES, (SessionWAL.MANIFEST_DIGEST,
                                      LEGACY_DIGEST)):
        directory = tmp_path / frame
        make_session(directory, rounds=1, frame=frame)
        assert digest_files(directory) == [digest]
        # An idempotent re-create keeps the session's one sidecar,
        # a legacy one included.
        wal = SessionWAL(directory)
        wal.write_manifest(wal.read_manifest())
        assert digest_files(directory) == [digest]

        manifest = directory / SessionWAL.MANIFEST
        original = manifest.read_bytes()
        flip_bits(manifest, [len(original) // 2])
        with pytest.raises(CorruptStateError, match=digest):
            EvaluationSession.restore(directory)

        # Without the sidecar the (restored) manifest loads unverified —
        # the pre-digest journal layout — and a re-create adds the
        # current sidecar.
        manifest.write_bytes(original)
        (directory / digest).unlink()
        assert EvaluationSession.restore(directory).status()["draws"] > 0
        wal.write_manifest(wal.read_manifest())
        assert digest_files(directory) == [SessionWAL.MANIFEST_DIGEST]


def test_batch_shards_are_framed_and_torn_batch_tail_recovers(tmp_path):
    for frame in FRAMES:
        directory = tmp_path / frame
        make_session(
            directory, rounds=3, frame=frame,
            wal_factory=lambda d: GroupCommitWAL(d, max_batch=64))
        shards = shard_files(directory)
        assert all(path.name.startswith("b") for path in shards)
        assert all(path.read_bytes()[:4] == frame.encode()
                   for path in shards)
        truncate_file(shards[-1], keep=20)
        restored = EvaluationSession.restore(directory)
        assert restored.wal.recovered, frame
        # A torn batch drops *all* its events — none were acknowledged.
        assert restored.status()["draws"] == 0


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_wfc2_shards_appended_to_a_wfc1_journal_restore_bit_identically(
        tmp_path, codec):
    """Upgrade in place: a journal written before ``WFC2`` (checkpoint
    included) keeps growing under current code, and the mixed journal
    restores onto the uninterrupted run's exact trajectory."""
    def factory(directory):
        return SessionWAL(directory, codec=codec)

    reference = make_session(tmp_path / "reference", codec=codec, rounds=2)
    reference.checkpoint()
    drive(reference, 4)

    legacy = make_session(tmp_path / "mixed", codec=codec, rounds=2)
    legacy.checkpoint()
    drive(legacy, 1)
    to_wfc1(tmp_path / "mixed")
    drive(EvaluationSession.restore(tmp_path / "mixed",
                                    wal_factory=factory), 3)

    magics = [path.read_bytes()[:4] for path in shard_files(tmp_path / "mixed")]
    assert magics == [b"WFC1"] * 7 + [b"WFC2"] * 6
    restored = EvaluationSession.restore(tmp_path / "mixed",
                                         wal_factory=factory)
    assert restored.wal.recovered == []
    assert restored.estimate_payload() == reference.estimate_payload()
    assert restored.history_payload() == reference.history_payload()
    assert restored.propose(5) == reference.propose(5)


# -- exactly-once idempotency ----------------------------------------------

def pool():
    rng = np.random.default_rng(4)
    labels = (rng.random(80) < 0.35).astype(int)
    scores = rng.normal(size=80) + labels
    return (scores > 0.3).astype(int).tolist(), scores.tolist(), labels


def test_keyed_propose_retry_replays_without_burning_randomness(tmp_path):
    predictions, scores, _ = pool()
    session = EvaluationSession.create(
        predictions, scores, sampler="oasis", seed=1,
        directory=tmp_path / "s")
    first = session.propose(6, idempotency_key="p-1")
    retry = session.propose(6, idempotency_key="p-1")
    assert retry == first
    # An unkeyed duplicate would have raised the outstanding-proposal
    # conflict; the replay is a pure cache hit.
    assert session.status()["outstanding"]["ticket"] == first["ticket"]


def test_keyed_ingest_retry_does_not_double_count(tmp_path):
    predictions, scores, labels = pool()
    session = EvaluationSession.create(
        predictions, scores, sampler="oasis", seed=1,
        directory=tmp_path / "s")
    proposal = session.propose(6)
    answer = [int(labels[i]) for i in proposal["pending"]]
    first = session.ingest(proposal["ticket"], answer,
                           idempotency_key="i-1")
    retry = session.ingest(proposal["ticket"], answer,
                           idempotency_key="i-1")
    assert retry == first
    assert session.labels_consumed == first["labels_consumed"]


def test_dedup_window_survives_replay_and_checkpoint(tmp_path):
    predictions, scores, labels = pool()
    directory = tmp_path / "s"
    session = EvaluationSession.create(
        predictions, scores, sampler="oasis", seed=2, directory=directory)
    proposal = session.propose(5, idempotency_key="p-1")
    answer = [int(labels[i]) for i in proposal["pending"]]
    committed = session.ingest(proposal["ticket"], answer,
                               idempotency_key="i-1")

    # Plain journal replay rebuilds the window from the logged keys.
    replayed = EvaluationSession.restore(directory)
    assert replayed.ingest(0, [], idempotency_key="i-1") == committed
    assert replayed.labels_consumed == committed["labels_consumed"]

    # And a checkpoint carries it, so restore-from-checkpoint (which
    # skips the replayed events) still dedups.
    replayed.checkpoint()
    restored = EvaluationSession.restore(directory)
    assert restored.propose(5, idempotency_key="p-1") == proposal
    assert restored.ingest(0, [], idempotency_key="i-1") == committed


def test_dedup_window_is_bounded(tmp_path):
    predictions, scores, labels = pool()
    session = EvaluationSession.create(
        predictions, scores, sampler="oasis", seed=3)
    for index in range(DEDUP_WINDOW + 10):
        proposal = session.propose(2, idempotency_key=f"p-{index}")
        session.ingest(proposal["ticket"],
                       [int(labels[i]) for i in proposal["pending"]],
                       idempotency_key=f"i-{index}")
    assert len(session._dedup) == DEDUP_WINDOW
    # The oldest keys fell out of the window: a (pathologically) stale
    # retry now conflicts instead of replaying — bounded memory is the
    # trade, and the bound far exceeds any live in-flight set.
    assert "p-0" not in session._dedup


# -- disk-full degradation -------------------------------------------------

class _FullDiskWAL(SessionWAL):
    """Synchronous WAL whose shard writes fail like a full volume."""

    full = False

    def _write_durable(self, path, data):
        if self.full:
            raise OSError(errno.ENOSPC, "no space left on device (test)")
        super()._write_durable(path, data)


def test_enospc_maps_to_storage_full_and_state_is_unchanged(tmp_path):
    predictions, scores, labels = pool()
    session = EvaluationSession.create(
        predictions, scores, sampler="oasis", seed=5,
        directory=tmp_path / "s", wal_factory=_FullDiskWAL)
    proposal = session.propose(4)
    session.ingest(proposal["ticket"],
                   [int(labels[i]) for i in proposal["pending"]])
    before = session.status()

    session.wal.full = True
    with pytest.raises(StorageFullError) as excinfo:
        session.propose(4)
    assert excinfo.value.status == 503
    assert excinfo.value.retry_after > 0
    # Journal-before-mutate: the failed propose left nothing behind —
    # no outstanding proposal, no consumed randomness, no journal gap.
    assert session.status() == before

    session.wal.full = False
    retry = session.propose(4)
    restored = EvaluationSession.restore(tmp_path / "s")
    assert restored.status()["outstanding"]["ticket"] == retry["ticket"]


# -- chunk-store digests ---------------------------------------------------

def records(n=25):
    return [
        Record(record_id=i, entity_id=i % 7, fields={"name": f"r{i}"})
        for i in range(n)
    ]


def test_chunk_digests_recorded_and_verified(tmp_path):
    store = ChunkedRecordStore.create(
        tmp_path / "db", ("name",), records(), chunk_size=10)
    manifest = json.loads((tmp_path / "db" / "manifest.json").read_text())
    assert len(manifest["chunk_digests"]) == store.n_chunks == 3
    chunk = tmp_path / "db" / "chunk-00000000.npz"
    assert manifest["chunk_digests"][0] == file_digest(chunk)

    flip_bits(chunk, [100])
    fresh = ChunkedRecordStore(tmp_path / "db")
    with pytest.raises(CorruptStateError, match="SHA-256"):
        fresh[0]
    # Undamaged chunks keep serving.
    assert fresh[12].get("name") == "r12"


def test_chunk_store_without_digests_still_opens(tmp_path):
    ChunkedRecordStore.create(
        tmp_path / "db", ("name",), records(), chunk_size=10)
    manifest_path = tmp_path / "db" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["chunk_digests"]
    manifest_path.write_text(json.dumps(manifest))
    store = ChunkedRecordStore(tmp_path / "db")
    assert store[3].get("name") == "r3"


def test_chunk_store_garbage_manifest_raises_corrupt_state(tmp_path):
    ChunkedRecordStore.create(
        tmp_path / "db", ("name",), records(), chunk_size=10)
    (tmp_path / "db" / "manifest.json").write_bytes(b"\x00not json")
    with pytest.raises(CorruptStateError):
        ChunkedRecordStore(tmp_path / "db")
