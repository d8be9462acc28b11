"""JSON-safe and compact binary encodings of sampler state.

``state_dict()`` snapshots are nested structures of plain Python
scalars, NumPy arrays and RNG bit-generator state.  Standard JSON can
carry none of the awkward parts — arrays, exact dtypes, ``NaN`` /
``inf``, 128-bit PCG64 state integers — so this codec wraps them in
tagged objects:

* ``{"__ndarray__": {"dtype", "shape", "data"}}`` — arrays, with the
  raw little-endian bytes base64-encoded.  Byte-level encoding (rather
  than digit strings) is what makes restore *bit-identical*: every
  float, including negative zero and every NaN payload, round-trips
  exactly.
* ``{"__float__": "nan" | "inf" | "-inf"}`` — non-finite scalars, so
  the emitted JSON stays standards-compliant (``json.dumps`` is run
  with ``allow_nan=False``).
* ``{"__bigint__": "<decimal>"}`` — integers beyond the IEEE-754 safe
  range (RNG state words), protected from readers that would silently
  round them through a double.

Everything else (bool, int, str, None, dict with string keys,
list/tuple) passes through structurally.

A second, compact **binary** serialisation of the same JSON-safe trees
(:func:`dump_state_binary` / :func:`load_state_binary`) exists for the
write-ahead log's hot path: length-prefixed type-tagged records, no
textual re-encoding of numbers, and array payloads stored as raw bytes
instead of base64 (the ``__ndarray__`` tag is recognised and unpacked
transparently, then re-wrapped identically on load).  The two
serialisations are interchangeable by construction::

    load_state_binary(dump_state_binary(tree)) == load_state(dump_state(tree))

for every tree the JSON codec accepts — the WAL can mix ``.json`` and
``.bin`` shards in one journal and replay them identically.
"""

from __future__ import annotations

import base64
import json
import struct

import numpy as np

__all__ = [
    "encode_state",
    "decode_state",
    "dump_state",
    "load_state",
    "dump_state_binary",
    "load_state_binary",
]

# Integers outside this range are not exactly representable as IEEE-754
# doubles; JSON readers in other languages would corrupt them.
_SAFE_INT = 2**53


def _encode_array(array: np.ndarray) -> dict:
    array = np.ascontiguousarray(array)
    # Normalise to little-endian so snapshots are portable across hosts.
    dtype = array.dtype.newbyteorder("<")
    data = array.astype(dtype, copy=False).tobytes()
    return {
        "__ndarray__": {
            "dtype": dtype.str,
            "shape": list(array.shape),
            "data": base64.b64encode(data).decode("ascii"),
        }
    }


def _decode_array(payload: dict) -> np.ndarray:
    dtype = np.dtype(payload["dtype"])
    data = base64.b64decode(payload["data"])
    array = np.frombuffer(data, dtype=dtype).reshape(payload["shape"])
    # Native byte order, writable copy — indistinguishable from the
    # array that was encoded.
    return np.array(array.astype(dtype.newbyteorder("="), copy=False), copy=True)


def encode_state(obj):
    """Recursively convert ``obj`` into JSON-serialisable structure."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        value = int(obj)
        if -_SAFE_INT < value < _SAFE_INT:
            return value
        return {"__bigint__": str(value)}
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if np.isnan(value):
            return {"__float__": "nan"}
        if np.isinf(value):
            return {"__float__": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(obj, np.ndarray):
        return _encode_array(obj)
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"state dict keys must be strings; got {key!r} "
                    f"({type(key).__name__})"
                )
            if key.startswith("__") and key.endswith("__"):
                raise TypeError(
                    f"state dict key {key!r} collides with codec tags"
                )
            out[key] = encode_state(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [encode_state(item) for item in obj]
    raise TypeError(f"cannot encode {type(obj).__name__} into sampler state")


def decode_state(obj):
    """Inverse of :func:`encode_state` (tuples come back as lists)."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return _decode_array(obj["__ndarray__"])
        if "__float__" in obj:
            return float(obj["__float__"])
        if "__bigint__" in obj:
            return int(obj["__bigint__"])
        return {key: decode_state(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_state(item) for item in obj]
    return obj


def dump_state(obj, **json_kwargs) -> str:
    """Encode and serialise to a standards-compliant JSON string."""
    return json.dumps(encode_state(obj), allow_nan=False, **json_kwargs)


def load_state(text: str):
    """Parse a :func:`dump_state` string back into live state."""
    return decode_state(json.loads(text))


# -- compact binary serialisation -----------------------------------------
#
# Wire format: a 4-byte magic, then one recursively tagged value.  Every
# tag is a single byte; every length is an unsigned big-endian 32-bit
# integer; array shapes use 64-bit dimensions.  Numbers are stored as
# raw IEEE-754 / two's-complement bytes, so every NaN payload, negative
# zero and 128-bit RNG state word round-trips exactly — the same
# bit-identity contract as the JSON codec, at a fraction of the bytes
# (array data is raw, not base64) and none of the text formatting cost.

_BINARY_MAGIC = b"RSB1"
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _pack(obj, out: bytearray) -> None:
    if obj is None:
        out += b"N"
    elif isinstance(obj, bool):
        out += b"T" if obj else b"F"
    elif isinstance(obj, (int, np.integer)):
        value = int(obj)
        if _I64_MIN <= value <= _I64_MAX:
            out += b"i"
            out += struct.pack(">q", value)
        else:
            text = str(value).encode("ascii")
            out += b"I"
            out += struct.pack(">I", len(text))
            out += text
    elif isinstance(obj, (float, np.floating)):
        out += b"d"
        out += struct.pack(">d", float(obj))
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out += b"s"
        out += struct.pack(">I", len(data))
        out += data
    elif isinstance(obj, np.ndarray):
        array = np.ascontiguousarray(obj)
        dtype = array.dtype.newbyteorder("<")
        dtype_str = dtype.str.encode("ascii")
        out += b"a"
        out += struct.pack(">I", len(dtype_str))
        out += dtype_str
        out += struct.pack(">I", array.ndim)
        out += struct.pack(f">{array.ndim}Q", *array.shape)
        out += struct.pack(">Q", array.nbytes)
        # Appended through a byte view: the array is not copied first.
        out += memoryview(
            array.astype(dtype, copy=False).reshape(-1).view(np.uint8))
    elif isinstance(obj, dict):
        if "__ndarray__" in obj:
            # A tree that already went through encode_state(): unwrap
            # the tagged array to raw bytes so both entry points emit
            # the identical compact block.  Anything else under the tag
            # key is a user dict colliding with it, same as encode_state.
            payload = obj.get("__ndarray__")
            if len(obj) != 1 or not (
                isinstance(payload, dict)
                and {"dtype", "shape", "data"} <= payload.keys()
            ):
                raise TypeError(
                    "state dict key '__ndarray__' collides with codec tags"
                )
            _pack(_decode_array(payload), out)
            return
        if "__float__" in obj:
            if len(obj) != 1 or obj["__float__"] not in ("nan", "inf", "-inf"):
                raise TypeError(
                    "state dict key '__float__' collides with codec tags"
                )
            _pack(float(obj["__float__"]), out)
            return
        if "__bigint__" in obj:
            if len(obj) != 1 or not isinstance(obj["__bigint__"], str):
                raise TypeError(
                    "state dict key '__bigint__' collides with codec tags"
                )
            _pack(int(obj["__bigint__"]), out)
            return
        out += b"m"
        out += struct.pack(">I", len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"state dict keys must be strings; got {key!r} "
                    f"({type(key).__name__})"
                )
            if key.startswith("__") and key.endswith("__"):
                raise TypeError(
                    f"state dict key {key!r} collides with codec tags"
                )
            data = key.encode("utf-8")
            out += struct.pack(">I", len(data))
            out += data
            _pack(value, out)
    elif isinstance(obj, (list, tuple)):
        out += b"l"
        out += struct.pack(">I", len(obj))
        for item in obj:
            _pack(item, out)
    else:
        raise TypeError(
            f"cannot encode {type(obj).__name__} into sampler state"
        )


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ValueError("truncated binary state record")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]


def _unpack(reader: _Reader):
    tag = bytes(reader.take(1))
    if tag == b"N":
        return None
    if tag == b"T":
        return True
    if tag == b"F":
        return False
    if tag == b"i":
        return struct.unpack(">q", reader.take(8))[0]
    if tag == b"I":
        return int(str(reader.take(reader.u32()), "ascii"))
    if tag == b"d":
        return struct.unpack(">d", reader.take(8))[0]
    if tag == b"s":
        return str(reader.take(reader.u32()), "utf-8")
    if tag == b"a":
        dtype = np.dtype(str(reader.take(reader.u32()), "ascii"))
        ndim = reader.u32()
        shape = struct.unpack(f">{ndim}Q", reader.take(8 * ndim))
        data = reader.take(struct.unpack(">Q", reader.take(8))[0])
        array = np.frombuffer(data, dtype=dtype).reshape(shape)
        return np.array(
            array.astype(dtype.newbyteorder("="), copy=False), copy=True
        )
    if tag == b"m":
        out = {}
        for _ in range(reader.u32()):
            key = str(reader.take(reader.u32()), "utf-8")
            out[key] = _unpack(reader)
        return out
    if tag == b"l":
        return [_unpack(reader) for _ in range(reader.u32())]
    raise ValueError(f"unknown binary state tag {tag!r}")


def dump_state_binary(obj) -> bytearray:
    """Serialise live state (or an already-encoded tree) to a bytearray.

    Accepts exactly what :func:`encode_state` accepts, plus trees that
    already carry the codec's tagged objects — both serialise to the
    identical compact form, so WAL writers can hand over either raw
    payloads or pre-encoded events.  The buffer the record was built in
    is returned as it is, not copied to ``bytes``: it compares equal to
    the same bytes, slices, and is read by every bytes-like consumer
    (:func:`load_state_binary`, ``zlib.crc32``, file writes), but it
    is mutable and unhashable.
    """
    out = bytearray(_BINARY_MAGIC)
    _pack(obj, out)
    return out


def load_state_binary(data: bytes):
    """Parse :func:`dump_state_binary` bytes back into live state.

    Returns *decoded* state (arrays as ``ndarray``, big integers as
    ``int``), exactly as :func:`load_state` does for the JSON form:
    ``load_state_binary(dump_state_binary(x)) == load_state(dump_state(x))``
    for every ``x`` either codec accepts.  ``data`` may be any bytes-like
    object; the WAL passes a memoryview of the shard it read.
    """
    if data[:4] != _BINARY_MAGIC:
        raise ValueError(
            "not a binary state record (bad magic; expected RSB1)"
        )
    reader = _Reader(data)
    reader.pos = 4
    value = _unpack(reader)
    if reader.pos != len(data):
        raise ValueError(
            f"trailing garbage after binary state record "
            f"({len(data) - reader.pos} bytes)"
        )
    return value
