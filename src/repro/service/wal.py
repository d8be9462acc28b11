"""Append-only write-ahead log for evaluation sessions.

The journal reuses the shard/manifest idiom of
:class:`~repro.experiments.persistence.TrialStore`: one directory per
session holding a ``manifest.json`` (the session's immutable identity —
pool arrays, sampler configuration, seed) and an ``events/`` directory
of atomically-written shards.  The set of shard files on disk *is* the
log: every write goes tmp-file → fsync → rename → **directory fsync**,
so a kill at any instant leaves either the complete shard durably named
or nothing — never a torn file, and never a rename that a crash can
roll back (the directory fsync after the rename is load-bearing: on
filesystems that journal metadata lazily, a crash between rename and
directory sync could otherwise drop the newest shard).

Two shard shapes coexist in one journal:

``e<seq>-<kind>.<ext>``
    One event per file — the synchronous write path
    (:meth:`SessionWAL.append`): durable before the call returns.
``b<first>-<last>.<ext>``
    A **group-commit batch**: a contiguous run of events flushed with a
    single data fsync + a single directory fsync
    (:class:`GroupCommitWAL`).  Batching is what takes the journalling
    cost from one fsync per event to one per flush window; the price is
    the group-commit contract — an event is durable only once its batch
    has flushed, so callers must not acknowledge it to a client before
    :meth:`GroupCommitWAL.flush` returns.

``<ext>`` is ``json`` (human-readable, the default) or ``bin`` (the
compact binary codec in :mod:`repro.service.codec`); a journal may mix
both and replays them identically.

Event kinds (see :class:`repro.service.session.EvaluationSession`):

``propose``
    ``{ticket, batch_size}`` — logged *before* the in-memory draw, so
    a crash between the two replays the draw deterministically.
``ingest``
    ``{ticket, labels}`` — logged before the commit, same reasoning.
``checkpoint``
    The sampler's constant-size state, the trajectory rows drawn since
    the previous checkpoint, and any outstanding proposal context.
    Restore concatenates the checkpoints' trajectory rows, loads the
    latest one and replays only the events after it.
"""

from __future__ import annotations

import json
import os
import re
import struct
import time
import uuid
from pathlib import Path

from repro.service.codec import (
    dump_state_binary,
    encode_state,
    load_state_binary,
)
from repro.utils import (
    NULL_REGISTRY,
    CorruptStateError,
    atomic_write_text,
    crc32c,
    fsync_directory,
)
from repro.utils.metrics import SIZE_BUCKETS

__all__ = ["SessionWAL", "GroupCommitWAL", "WAL_CODECS"]

_EVENT_RE = re.compile(
    r"^e(?P<seq>\d{8})-(?P<kind>[a-z]+)\.(?P<ext>json|bin)$"
)
_BATCH_RE = re.compile(
    r"^b(?P<first>\d{8})-(?P<last>\d{8})\.(?P<ext>json|bin)$"
)
_EVENT_KINDS = ("propose", "ingest", "checkpoint")

WAL_CODECS = ("json", "binary")
_EXTENSIONS = {"json": "json", "binary": "bin"}

# Every shard written since the integrity layer landed is a checksummed
# frame: magic, payload length, CRC32C of the payload, payload.  The
# frame is what turns "a file exists with this name" into "this file
# holds exactly the bytes the writer fsynced": restore can distinguish
# a truncated tail (recoverable — the write never completed, so its
# events were never acknowledged) from mid-log damage (not recoverable
# without losing acknowledged events — a hard CorruptStateError).
# Shards without the magic are pre-frame journals (committed fixtures,
# live deployments from before the format change) and load unchecked.
_FRAME_MAGIC = b"WFC1"
_FRAME_HEADER = struct.Struct(">II")  # payload length, CRC32C(payload)
_FRAME_PREFIX = len(_FRAME_MAGIC) + _FRAME_HEADER.size


class _TornShard(Exception):
    """A shard file ends before its frame does (internal to the WAL)."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def frame_payload(payload: bytes) -> bytes:
    """Wrap serialised shard bytes in a checksummed frame."""
    return (_FRAME_MAGIC
            + _FRAME_HEADER.pack(len(payload), crc32c(payload))
            + payload)


def unframe_payload(data: bytes, path) -> bytes:
    """Verify and strip a shard frame; pass pre-frame shards through.

    Raises :class:`_TornShard` when the file stops before the frame
    does (a torn write — only ever legitimate at the log's tail) and
    :class:`~repro.utils.CorruptStateError` when the bytes are all
    there but wrong (bit rot, trailing garbage).
    """
    if data[:4] != _FRAME_MAGIC:
        if len(data) < 4 and _FRAME_MAGIC[:len(data)] == data:
            raise _TornShard(
                f"shard {path} holds only {len(data)} bytes of frame "
                "magic", offset=len(data))
        return data  # pre-frame shard: no checksum recorded
    if len(data) < _FRAME_PREFIX:
        raise _TornShard(
            f"shard {path} is truncated inside its frame header "
            f"({len(data)}/{_FRAME_PREFIX} bytes)", offset=len(data))
    length, checksum = _FRAME_HEADER.unpack_from(data, 4)
    expected = _FRAME_PREFIX + length
    if len(data) < expected:
        raise _TornShard(
            f"shard {path} is truncated at byte {len(data)} "
            f"(frame declares {expected})", offset=len(data))
    if len(data) > expected:
        raise CorruptStateError(
            f"WAL shard {path} carries {len(data) - expected} bytes of "
            f"trailing garbage after its frame (offset {expected})",
            path=path, offset=expected)
    payload = data[_FRAME_PREFIX:]
    actual = crc32c(payload)
    if actual != checksum:
        raise CorruptStateError(
            f"WAL shard {path} failed its CRC32C check at offset "
            f"{_FRAME_PREFIX} (recorded {checksum:#010x}, computed "
            f"{actual:#010x})", path=path, offset=_FRAME_PREFIX)
    return payload


class SessionWAL:
    """The on-disk journal of one evaluation session.

    Parameters
    ----------
    directory:
        The session directory; created (with its ``events/`` child) if
        absent.
    codec:
        Serialisation for *new* shards: ``"json"`` or ``"binary"``.
        Reading auto-detects per file, so a journal written under one
        codec restores under any.
    metrics:
        A :class:`~repro.utils.metrics.MetricsRegistry` to record
        append/fsync latency, flush batch sizes and torn-tail
        recoveries into; defaults to the no-op registry.
    """

    MANIFEST = "manifest.json"
    MANIFEST_DIGEST = "manifest.crc32c"

    def __init__(self, directory, *, codec: str = "json", metrics=None):
        if codec not in WAL_CODECS:
            raise ValueError(
                f"unknown WAL codec {codec!r}; choose from {WAL_CODECS}"
            )
        self.directory = Path(directory)
        self.codec = codec
        registry = NULL_REGISTRY if metrics is None else metrics
        self._append_seconds = registry.histogram(
            "oasis_wal_append_seconds",
            "Latency of durable WAL append/flush calls.")
        self._fsync_seconds = registry.histogram(
            "oasis_wal_fsync_seconds",
            "Latency of individual fsync calls issued by the WAL.")
        self._flush_events = registry.histogram(
            "oasis_wal_flush_events",
            "Events made durable per WAL flush.", buckets=SIZE_BUCKETS)
        self._recovered_total = registry.counter(
            "oasis_wal_recovered_total",
            "Torn-tail WAL shards dropped during recovery scans.")
        self.event_dir = self.directory / "events"
        self.event_dir.mkdir(parents=True, exist_ok=True)
        #: Torn-tail shards dropped during :meth:`events` scans, each a
        #: ``{"file", "offset", "reason"}`` dict.  Only ever unacked
        #: writes — surfaced so operators can see recovery happened.
        self.recovered: list[dict] = []
        self._next_seq = self._scan_next_seq()

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST

    @property
    def manifest_digest_path(self) -> Path:
        return self.directory / self.MANIFEST_DIGEST

    def read_manifest(self) -> dict | None:
        """The session's identity payload, or None before creation.

        When a ``manifest.crc32c`` sidecar exists (every session created
        since the integrity layer), the manifest bytes are verified
        against it; a mismatch or unparsable manifest raises
        :class:`~repro.utils.CorruptStateError`.  Sessions without the
        sidecar (pre-frame journals) load unchecked.
        """
        if not self.manifest_path.is_file():
            return None
        raw = self.manifest_path.read_bytes()
        if self.manifest_digest_path.is_file():
            recorded = self.manifest_digest_path.read_text().strip()
            actual = f"{crc32c(raw):08x}"
            if recorded != actual:
                raise CorruptStateError(
                    f"session manifest {self.manifest_path} failed its "
                    f"CRC32C check (recorded {recorded}, computed "
                    f"{actual})", path=self.manifest_path, offset=0)
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptStateError(
                f"session manifest {self.manifest_path} is not valid "
                f"JSON: {exc}", path=self.manifest_path) from exc

    def write_manifest(self, payload: dict) -> None:
        """Record the session identity; refuses to overwrite a different one.

        The manifest is immutable for the lifetime of the session — a
        second write must carry the identical payload (idempotent
        re-create), anything else raises.  The write is made durable
        name-and-all: the session directory is fsynced after the
        rename, and the *parent* (service root) after that, so an
        acknowledged create survives a crash on any filesystem.  A
        ``manifest.crc32c`` sidecar records the manifest's checksum;
        it is written *after* the manifest, so a crash between the two
        leaves a valid (merely unverifiable) session behind.
        """
        existing = self.read_manifest()
        if existing is not None:
            if existing != payload:
                raise ValueError(
                    f"session directory {self.directory} already holds a "
                    "different session; choose a fresh directory"
                )
            if not self.manifest_digest_path.is_file():
                self._write_manifest_digest()
            return
        atomic_write_text(
            self.manifest_path, json.dumps(payload, sort_keys=True),
            fsync_dir=True,
        )
        self._write_manifest_digest()
        fsync_directory(self.directory.parent)

    def _write_manifest_digest(self) -> None:
        atomic_write_text(
            self.manifest_digest_path,
            f"{crc32c(self.manifest_path.read_bytes()):08x}\n",
            fsync_dir=True,
        )

    # -- write path --------------------------------------------------------

    def append(self, kind: str, payload: dict) -> int:
        """Durably append one event; returns its sequence number.

        Synchronous: one data fsync and one directory fsync per call.
        The event is durable when this returns.  A failed write (disk
        full, I/O error) rolls the sequence counter back so the journal
        never develops a gap — a gap would silently truncate every
        later event at replay.
        """
        record = self._make_record(kind, payload)
        started = time.perf_counter()
        try:
            self._write_records([record])
        except BaseException:
            self._next_seq = record["seq"]
            raise
        self._append_seconds.observe(time.perf_counter() - started)
        self._flush_events.observe(1)
        return record["seq"]

    def flush(self) -> int:
        """Make every appended event durable; returns the last sequence.

        A no-op here — :meth:`append` is synchronous — but part of the
        WAL interface so callers can treat a :class:`GroupCommitWAL`
        and a plain journal uniformly.
        """
        return self._next_seq - 1

    @property
    def pending_events(self) -> int:
        """Appended-but-not-yet-durable events (always 0 here)."""
        return 0

    def _make_record(self, kind: str, payload: dict) -> dict:
        if kind not in _EVENT_KINDS:
            raise ValueError(f"unknown WAL event kind {kind!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        return {"seq": seq, "kind": kind, **payload}

    def _write_records(self, records: list[dict]) -> None:
        """Write a contiguous run of records as one durable shard."""
        if not records:
            return
        ext = _EXTENSIONS[self.codec]
        if len(records) == 1:
            record = records[0]
            name = f"e{record['seq']:08d}-{record['kind']}.{ext}"
            content: dict = record
        else:
            first, last = records[0]["seq"], records[-1]["seq"]
            name = f"b{first:08d}-{last:08d}.{ext}"
            content = {"records": records}
        # Payloads arrive with live arrays: the binary codec writes them
        # as raw bytes, the JSON codec as tagged base64.
        if self.codec == "binary":
            data = dump_state_binary(content)
        else:
            data = json.dumps(encode_state(content)).encode("utf-8")
        self._write_durable(self.event_dir / name, frame_payload(data))

    def _write_durable(self, path: Path, data: bytes) -> None:
        """tmp-write → fsync → rename → directory fsync, with stage hooks.

        The inline spelling (rather than
        :func:`repro.utils.atomic_write_bytes`) exists so subclasses —
        the fault-injection wrappers in :mod:`repro.service.faults` —
        can interpose at every durability stage and kill the process
        there.
        """
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            self._stage("pre_write", path=path)
            with open(tmp, "wb") as handle:
                handle.write(data)
                handle.flush()
                self._stage("pre_fsync", path=path)
                started = time.perf_counter()
                os.fsync(handle.fileno())
                self._fsync_seconds.observe(time.perf_counter() - started)
            self._stage("pre_rename", path=path)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._stage("post_rename", path=path)
        started = time.perf_counter()
        fsync_directory(path.parent)
        self._fsync_seconds.observe(time.perf_counter() - started)
        self._stage("post_durable", path=path)

    def _stage(self, stage: str, **context) -> None:
        """Durability-stage hook; no-op outside fault injection."""

    # -- read path ---------------------------------------------------------

    def _scan_next_seq(self) -> int:
        last = 0
        for path in self.event_dir.iterdir():
            match = _EVENT_RE.match(path.name)
            if match:
                last = max(last, int(match.group("seq")))
                continue
            match = _BATCH_RE.match(path.name)
            if match:
                last = max(last, int(match.group("last")))
        return last + 1

    def _load_shard(self, path: Path) -> dict:
        """Read, verify and decode one shard.

        Raises :class:`_TornShard` for an incomplete tail write and
        :class:`~repro.utils.CorruptStateError` for checksum failures
        or shards whose (verified or legacy) payload will not decode.
        """
        payload = unframe_payload(path.read_bytes(), path)
        try:
            if path.suffix == ".bin":
                return load_state_binary(payload)
            return json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptStateError(
                f"WAL shard {path} does not decode as its "
                f"{path.suffix!r} codec: {exc}", path=path) from exc

    def events(self) -> list[dict]:
        """All durable events on disk, in sequence order.

        Shard frames are verified as they load.  A torn write (the file
        ends before its frame does) is legitimate only for the shard at
        the very tail of the log — the crash interrupted a write whose
        events were therefore never acknowledged — and recovery drops
        it: the file is unlinked, the drop is recorded in
        :attr:`recovered`, and the log continues from the last valid
        prefix.  A torn or checksum-failed shard anywhere *before* the
        tail means acknowledged events are damaged, which raises
        :class:`~repro.utils.CorruptStateError` naming the file and
        offset rather than silently serving a shortened history.

        A gap in the sequence (possible only through manual deletion)
        truncates the log at the gap, because events after it no longer
        have a consistent prefix to replay onto.
        Buffered-but-unflushed events of a :class:`GroupCommitWAL` are
        by definition absent.
        """
        shards = []
        for path in sorted(self.event_dir.iterdir()):
            match = _EVENT_RE.match(path.name)
            if match:
                shards.append((int(match.group("seq")), path, match, False))
                continue
            match = _BATCH_RE.match(path.name)
            if match:
                shards.append((int(match.group("first")), path, match, True))
        shards.sort(key=lambda item: item[0])
        found = {}
        for position, (_, path, match, is_batch) in enumerate(shards):
            try:
                content = self._load_shard(path)
            except _TornShard as torn:
                if position != len(shards) - 1:
                    raise CorruptStateError(
                        f"WAL shard {path} is torn mid-log: {torn} "
                        "(later shards exist, so acknowledged events "
                        "would be lost)", path=path, offset=torn.offset
                    ) from torn
                # Torn tail: the interrupted write was never
                # acknowledged, so dropping it loses nothing a client
                # was promised.  Unlink it so the sequence scan cannot
                # skip numbers over a ghost file.
                path.unlink()
                fsync_directory(self.event_dir)
                self.recovered.append({
                    "file": path.name,
                    "offset": torn.offset,
                    "reason": str(torn),
                })
                self._recovered_total.inc()
                self._next_seq = self._scan_next_seq()
                continue
            if not is_batch:
                if content.get("kind") != match.group("kind") or int(
                    content.get("seq", -1)
                ) != int(match.group("seq")):
                    raise CorruptStateError(
                        f"WAL event {path.name} disagrees with its name",
                        path=path,
                    )
                found[int(match.group("seq"))] = content
                continue
            records = content.get("records", [])
            first, last = int(match.group("first")), int(match.group("last"))
            seqs = [int(record.get("seq", -1)) for record in records]
            if seqs != list(range(first, last + 1)):
                raise CorruptStateError(
                    f"WAL batch {path.name} disagrees with its name",
                    path=path,
                )
            for record in records:
                if record.get("kind") not in _EVENT_KINDS:
                    raise CorruptStateError(
                        f"WAL batch {path.name} holds unknown event kind "
                        f"{record.get('kind')!r}", path=path,
                    )
                found[int(record["seq"])] = record
        out = []
        seq = 1
        while seq in found:
            out.append(found[seq])
            seq += 1
        return out


class GroupCommitWAL(SessionWAL):
    """A journal that batches events and fsyncs once per flush.

    :meth:`append` only buffers (and assigns the sequence number);
    :meth:`flush` writes the whole buffer as one batch shard with a
    single data fsync and a single directory fsync.  The buffer also
    self-flushes when it reaches ``max_batch`` events, bounding both
    memory and the amount of work a flush can owe.

    The durability contract shifts accordingly: an event is durable
    only once the flush covering it has returned.  Callers that
    acknowledge events to clients — the shard worker — must flush
    first and acknowledge after; events buffered at a crash are lost,
    which is exactly the "may lose only un-acked events" group-commit
    guarantee.

    Parameters
    ----------
    directory, codec:
        As for :class:`SessionWAL`.
    max_batch:
        Self-flush threshold in events (≥ 1).
    """

    def __init__(self, directory, *, codec: str = "json",
                 max_batch: int = 32, metrics=None):
        if int(max_batch) < 1:
            raise ValueError(f"max_batch must be >= 1; got {max_batch}")
        super().__init__(directory, codec=codec, metrics=metrics)
        self.max_batch = int(max_batch)
        self._buffer: list[dict] = []

    def append(self, kind: str, payload: dict) -> int:
        """Buffer one event; durable only after the next :meth:`flush`.

        If the append triggers a self-flush and that flush fails, the
        event is un-buffered and the sequence counter rolled back: the
        caller's request did not happen, and the journal must not later
        flush an event whose in-memory half never ran.
        """
        record = self._make_record(kind, payload)
        self._buffer.append(record)
        if len(self._buffer) >= self.max_batch:
            try:
                self.flush()
            except BaseException:
                self._buffer.pop()
                self._next_seq = record["seq"]
                raise
        return record["seq"]

    def flush(self) -> int:
        """Write all buffered events as one batch shard; returns last seq."""
        if self._buffer:
            started = time.perf_counter()
            self._write_records(self._buffer)
            self._append_seconds.observe(time.perf_counter() - started)
            self._flush_events.observe(len(self._buffer))
            self._buffer = []
        return self._next_seq - 1

    @property
    def pending_events(self) -> int:
        """Events appended but not yet durable."""
        return len(self._buffer)
