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
    A flush of one event — every append of a :class:`SessionWAL`,
    durable before the call returns.
``b<first>-<last>.<ext>``
    A **group-commit batch**: a contiguous run of events flushed with a
    single data fsync + a single directory fsync
    (:class:`GroupCommitWAL`).  Batching is what takes the journalling
    cost from one fsync per event to one per flush window; the price is
    the group-commit contract — an event is durable only once its batch
    has flushed, so callers must not acknowledge it to a client before
    :meth:`SessionWAL.flush` returns.

Both are one write path: :meth:`SessionWAL.append` buffers, and flushes
the buffer as one shard once :attr:`SessionWAL.max_batch` events wait —
at once for a :class:`SessionWAL` (``max_batch = 1``), at the caller's
flush or the self-flush bound for a :class:`GroupCommitWAL`.

``<ext>`` is ``json`` (human-readable, the default) or ``bin`` (the
compact binary codec in :mod:`repro.service.codec`); a journal may mix
both and replays them identically.

Every shard is a checksummed ``WFC2`` frame and every manifest has a
``manifest.crc32`` digest sidecar, both the stdlib ``zlib.crc32``,
which detects every 1- and 2-bit error and every burst of up to 32
bits in up to 512 MiB.  Journals written before it carry ``WFC1``
frames and ``manifest.crc32c`` sidecars (CRC32C); they still verify,
through the legacy verifier :func:`repro.utils.crc32c`, and a journal
may mix both frame versions.

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
import zlib
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
# frame: 4-byte magic, payload length, checksum of the payload (both
# big-endian u32), payload.  The frame is what turns "a file exists with
# this name" into "this file holds exactly the bytes the writer
# fsynced": restore can distinguish a truncated tail (recoverable — the
# write never completed, so its events were never acknowledged) from
# mid-log damage (not recoverable without losing acknowledged events —
# a hard CorruptStateError).  Shards without a magic are pre-frame
# journals (committed fixtures, live deployments from before the frame
# format) and load unchecked.
#
# The magic names the checksum, as a manifest sidecar's file name does,
# so this one table reads both frame versions; writes use WFC2.
_FRAME_VERSIONS = {
    # magic: (manifest digest sidecar, checksum)
    b"WFC2": ("manifest.crc32", zlib.crc32),
    b"WFC1": ("manifest.crc32c", crc32c),
}
_FRAME_MAGIC = b"WFC2"  # the version every write uses
_FRAME_HEADER = struct.Struct(">II")  # payload length, checksum(payload)
_FRAME_PREFIX = len(_FRAME_MAGIC) + _FRAME_HEADER.size
_SIDECAR, _CHECKSUM = _FRAME_VERSIONS[_FRAME_MAGIC]


class _TornShard(Exception):
    """A shard file ends before its frame does (internal to the WAL)."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def _frame_header(payload: bytes) -> bytes:
    """The magic and header a frame writes ahead of ``payload``."""
    return _FRAME_MAGIC + _FRAME_HEADER.pack(len(payload), _CHECKSUM(payload))


def frame_payload(payload: bytes) -> bytes:
    """Wrap serialised shard bytes in a checksummed frame."""
    return _frame_header(payload) + payload


def unframe_payload(data: bytes, path) -> bytes | memoryview:
    """Verify and strip a shard frame; pass pre-frame shards through.

    A framed payload comes back as a memoryview of ``data``, not a
    copy.  The frame's magic picks the checksum to verify it with.  Raises
    :class:`_TornShard` when the file stops before the frame does (a
    torn write — only ever legitimate at the log's tail) and
    :class:`~repro.utils.CorruptStateError` when the bytes are all
    there but wrong (bit rot, trailing garbage).
    """
    magic = data[:4]
    if magic not in _FRAME_VERSIONS:
        if len(data) < 4 and any(
                known.startswith(data) for known in _FRAME_VERSIONS):
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
    payload = memoryview(data)[_FRAME_PREFIX:]
    actual = _FRAME_VERSIONS[magic][1](payload)
    if actual != checksum:
        raise CorruptStateError(
            f"WAL shard {path} failed its {magic.decode()} checksum at "
            f"offset {_FRAME_PREFIX} (recorded {checksum:#010x}, "
            f"computed {actual:#010x})", path=path, offset=_FRAME_PREFIX)
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
    #: The digest sidecar new sessions write next to the manifest.
    MANIFEST_DIGEST = _SIDECAR

    #: Events buffered before :meth:`append` flushes them as one shard;
    #: 1 makes every append durable when it returns.
    max_batch = 1

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
        self._buffer: list[dict] = []

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST

    def _manifest_digest(self) -> tuple[Path, object] | None:
        """The session's digest sidecar and its checksum, if it has one."""
        for sidecar, checksum in _FRAME_VERSIONS.values():
            path = self.directory / sidecar
            if path.is_file():
                return path, checksum
        return None

    def read_manifest(self) -> dict | None:
        """The session's identity payload, or None before creation.

        When a digest sidecar exists (``manifest.crc32``, or the legacy
        ``manifest.crc32c`` of sessions created before it), the manifest
        bytes are verified against it; a mismatch or unparsable manifest
        raises :class:`~repro.utils.CorruptStateError`.  Sessions
        without a sidecar (pre-frame journals) load unchecked.
        """
        if not self.manifest_path.is_file():
            return None
        raw = self.manifest_path.read_bytes()
        digest = self._manifest_digest()
        if digest is not None:
            path, checksum = digest
            recorded = path.read_text().strip()
            actual = f"{checksum(raw):08x}"
            if recorded != actual:
                raise CorruptStateError(
                    f"session manifest {self.manifest_path} failed its "
                    f"{path.name} check (recorded {recorded}, computed "
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
        :attr:`MANIFEST_DIGEST` sidecar records the manifest's checksum;
        it is written *after* the manifest, so a crash between the two
        leaves a valid (merely unverifiable) session behind, and a
        re-create adds one only where no sidecar (legacy included)
        exists, so a session keeps exactly one.
        """
        existing = self.read_manifest()
        if existing is not None:
            if existing != payload:
                raise ValueError(
                    f"session directory {self.directory} already holds a "
                    "different session; choose a fresh directory"
                )
            if self._manifest_digest() is None:
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
            self.directory / self.MANIFEST_DIGEST,
            f"{_CHECKSUM(self.manifest_path.read_bytes()):08x}\n",
            fsync_dir=True,
        )

    # -- write path --------------------------------------------------------

    def append(self, kind: str, payload: dict) -> int:
        """Journal one event; returns its sequence number.

        The event is buffered, and the buffer flushes as one shard once
        :attr:`max_batch` events wait, so a plain journal's append is
        durable when it returns.  If that flush fails (disk full, I/O
        error), the event is un-buffered and the sequence counter rolled
        back: the caller's request did not happen, and the journal never
        develops a gap (a gap would truncate every later event at
        replay) or later flushes an event whose in-memory half never ran.
        """
        if kind not in _EVENT_KINDS:
            raise ValueError(f"unknown WAL event kind {kind!r}")
        seq = self._next_seq
        self._next_seq = seq + 1
        self._buffer.append({"seq": seq, "kind": kind, **payload})
        if len(self._buffer) >= self.max_batch:
            try:
                self.flush()
            except BaseException:
                self._buffer.pop()
                self._next_seq = seq
                raise
        return seq

    def flush(self) -> int:
        """Write all buffered events as one shard; returns the last seq."""
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
        self._write_durable(self.event_dir / name, data)

    def _write_durable(self, path: Path, data: bytes) -> None:
        """Write ``data`` framed: tmp-write → fsync → rename → dir fsync.

        The frame header and the payload go down as two writes, so the
        payload is never copied into a framed buffer.  The inline
        spelling (rather than :func:`repro.utils.atomic_write_bytes`)
        exists so subclasses — the fault-injection wrappers in
        :mod:`repro.service.faults` — can interpose at every durability
        stage and kill the process there.
        """
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
        )
        try:
            self._stage("pre_write", path=path)
            with open(tmp, "wb") as handle:
                handle.write(_frame_header(data))
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
            return json.loads(str(payload, "utf-8"))
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
    acknowledge events to clients — the shard commit loop — must flush
    first and acknowledge after; events buffered at a crash are lost,
    which is exactly the "may lose only un-acked events" group-commit
    guarantee.

    Parameters
    ----------
    directory, codec, metrics:
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
