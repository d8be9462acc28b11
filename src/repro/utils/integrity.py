"""Checksums for persisted state: the legacy CRC32C and file digests.

Every byte the service tier persists — WAL event shards, snapshot
manifests, chunked-store columns — is written through the atomic
tmp-fsync-rename idiom, which protects against *torn writes* but says
nothing about what the disk hands back later: bit rot, a filesystem
truncating a file during recovery, an operator-level `dd` accident.
The WAL frames every shard and digests every session manifest with
the stdlib's ``zlib.crc32`` (see :mod:`repro.service.wal`); this
module holds the two primitives that are not in the stdlib:

* :func:`crc32c` — the Castagnoli CRC that the first frame format
  (``WFC1`` shards, ``manifest.crc32c`` sidecars) recorded.  Nothing
  writes it any more; it is kept only to verify journals written
  before the switch, so it is a plain table-driven byte loop (a few
  MiB/s, ample for a one-off restore of legacy data).
* :func:`file_digest` — a whole-file SHA-256, recorded in chunk-store
  manifests next to each chunk name and verified on load.  SHA-256
  rather than a CRC here because the manifest is the natural place for
  a collision-resistant content address, and hashlib streams megabyte
  chunks at C speed.
"""

from __future__ import annotations

import hashlib

__all__ = ["crc32c", "file_digest"]

_POLY = 0x82F63B78  # Castagnoli, reflected


def _table_entry(byte: int) -> int:
    for _ in range(8):
        byte = (byte >> 1) ^ (_POLY if byte & 1 else 0)
    return byte


_TABLE = [_table_entry(byte) for byte in range(256)]


def crc32c(data: bytes, value: int = 0) -> int:
    """CRC-32C (Castagnoli) of ``data``, seeded with ``value``.

    The legacy verifier: it checks ``WFC1`` WAL frames and
    ``manifest.crc32c`` sidecars written before frames moved to
    ``zlib.crc32``; no write path calls it.  ``crc32c(b, crc32c(a))``
    equals ``crc32c(a + b)``, the usual streaming composition.  The
    check value for ``b"123456789"`` is ``0xE3069283``.
    """
    crc = ~value & 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    return ~crc & 0xFFFFFFFF


def file_digest(path) -> str:
    """Hex SHA-256 of a file's bytes (streamed; constant memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
