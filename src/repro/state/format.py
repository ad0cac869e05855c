"""Framed binary container shared by checkpoints and trajectories.

A *frame* is the atomic unit of durability: a fixed header carrying the
payload length and a CRC32, followed by the (optionally zlib-deflated)
payload bytes.  Readers can always classify a file suffix as either a
complete frame, a *truncated tail* (the writer was killed mid-append —
recoverable, drop the tail) or *corruption* (CRC mismatch inside the
stream — refuse).  Appending a frame never rewrites earlier bytes, so a
trajectory produced by a SIGKILL'd run loses at most its final partial
frame.

Frame layout (little-endian)::

    offset  size  field
    0       4     magic  b"RSF1"
    4       1     flags  (bit 0: payload is zlib-deflated)
    5       4     stored length  (bytes following the header)
    9       4     CRC32 of the stored bytes
    13      ...   stored bytes

On top of frames, :func:`pack_block` / :func:`unpack_block` give a
bit-exact numpy array codec: a u32 head length, a JSON head carrying
the manifest (name, dtype, shape, byte length per array), then the
concatenated raw buffers.  ``tobytes`` / ``frombuffer`` round-trip
every IEEE bit pattern, including NaN payloads, so checkpoint restore
is bitwise by construction.  Checkpoints (:func:`pack_arrays`),
trajectory frames and the ``repro serve`` array wire format all use
this one layout and its one manifest parser, which refuses hostile
manifests with :class:`CorruptStateError`.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import BinaryIO

import numpy as np

FRAME_MAGIC = b"RSF1"
_HEADER = struct.Struct("<4sBII")  # magic, flags, stored_len, crc32
FLAG_ZLIB = 0x01


class StateFormatError(ValueError):
    """The bytes are not a valid repro.state container."""


class TruncatedStateError(StateFormatError):
    """The file ends mid-frame (killed writer); earlier frames are intact."""


class CorruptStateError(StateFormatError):
    """A frame's CRC does not match its bytes."""


def write_frame(fh: BinaryIO, payload: bytes, *, compress: bool = True) -> int:
    """Append one frame; returns the number of bytes written."""
    flags = 0
    stored = payload
    if compress:
        deflated = zlib.compress(payload, 6)
        if len(deflated) < len(payload):
            stored, flags = deflated, FLAG_ZLIB
    header = _HEADER.pack(FRAME_MAGIC, flags, len(stored), zlib.crc32(stored) & 0xFFFFFFFF)
    fh.write(header)
    fh.write(stored)
    return len(header) + len(stored)


def read_frame(fh: BinaryIO) -> bytes | None:
    """Read the frame at the current offset.

    Returns ``None`` at a clean end-of-file, raises
    :class:`TruncatedStateError` on a partial frame and
    :class:`CorruptStateError` on a CRC mismatch.
    """
    header = fh.read(_HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise TruncatedStateError(f"partial frame header ({len(header)} bytes) at end of file")
    magic, flags, stored_len, crc = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise CorruptStateError(f"bad frame magic {magic!r} (expected {FRAME_MAGIC!r})")
    stored = fh.read(stored_len)
    if len(stored) < stored_len:
        raise TruncatedStateError(
            f"frame declares {stored_len} payload bytes but only {len(stored)} remain"
        )
    if (zlib.crc32(stored) & 0xFFFFFFFF) != crc:
        raise CorruptStateError("frame CRC32 mismatch")
    if flags & FLAG_ZLIB:
        try:
            return zlib.decompress(stored)
        except zlib.error as exc:  # pragma: no cover - CRC catches this first
            raise CorruptStateError(f"frame inflate failed: {exc}") from exc
    return stored


def scan_frames(fh: BinaryIO) -> tuple[list[bytes], bool]:
    """Read every complete frame, tolerating a truncated tail.

    Returns ``(payloads, truncated)`` where ``truncated`` reports
    whether a partial frame was dropped from the end.  CRC mismatches
    on the *last* frame are treated as a torn tail write; a mismatch
    with complete frames after it is real corruption and raises.
    """
    payloads: list[bytes] = []
    truncated = False
    while True:
        pos = fh.tell()
        try:
            payload = read_frame(fh)
        except TruncatedStateError:
            truncated = True
            break
        except CorruptStateError:
            # only the final frame may be excused as a torn write
            fh.seek(pos)
            _skip_frame(fh)
            if fh.read(1):
                raise
            truncated = True
            break
        if payload is None:
            break
        payloads.append(payload)
    return payloads, truncated


def _skip_frame(fh: BinaryIO) -> None:
    """Advance past one frame without validating its CRC."""
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        return
    _, _, stored_len, _ = _HEADER.unpack(header)
    fh.seek(stored_len, 1)


def pack_json(obj: dict) -> bytes:
    """Canonical JSON payload bytes for a metadata frame."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def unpack_json(payload: bytes) -> dict:
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptStateError(f"metadata frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CorruptStateError("metadata frame must decode to a JSON object")
    return obj


_HEAD_LEN = struct.Struct("<I")

#: dtype kinds an array block may carry: bool, signed/unsigned integer,
#: float and complex.  Object, void, string and datetime buffers are
#: refused, so a hostile manifest can never reach ``frombuffer`` with a
#: dtype it cannot decode.
_ARRAY_KINDS = frozenset("biufc")


def pack_block(head: dict, arrays: dict[str, np.ndarray] | None = None) -> bytes:
    """A u32 head length, the canonical JSON `head`, then raw buffers.

    With `arrays`, the head gains an ``"arrays"`` manifest (name, dtype,
    shape and byte length per array) and the buffers follow the head in
    manifest order.  Without, the block is the length-prefixed head
    alone (a trajectory frame's metadata).
    """
    buffers = []
    if arrays is not None:
        manifest = []
        for name, arr in arrays.items():
            arr = np.asarray(arr)
            shape = list(arr.shape)  # before ascontiguousarray, which promotes 0-d to 1-d
            raw = np.ascontiguousarray(arr).tobytes()
            manifest.append(
                {"name": name, "dtype": arr.dtype.str, "shape": shape, "nbytes": len(raw)}
            )
            buffers.append(raw)
        head = {**head, "arrays": manifest}
    head_bytes = pack_json(head)
    return _HEAD_LEN.pack(len(head_bytes)) + head_bytes + b"".join(buffers)


def read_head(payload: bytes) -> tuple[dict, int]:
    """Decode the length-prefixed JSON head of a block; returns the head
    and the offset of the first byte after it."""
    if len(payload) < _HEAD_LEN.size:
        raise CorruptStateError("block too short for its head length")
    (head_len,) = _HEAD_LEN.unpack_from(payload, 0)
    end = _HEAD_LEN.size + head_len
    if end > len(payload):
        raise CorruptStateError("block head extends past the payload")
    return unpack_json(payload[_HEAD_LEN.size : end]), end


def _manifest_entry(entry, dtypes) -> tuple[str, np.dtype, tuple[int, ...], int]:
    """Validate one manifest entry; any defect is a CorruptStateError."""
    try:
        name, dtype_str = entry["name"], entry["dtype"]
        shape, nbytes = entry["shape"], entry["nbytes"]
    except (KeyError, TypeError) as exc:
        raise CorruptStateError(f"malformed array manifest entry: {entry!r}") from exc
    if not isinstance(name, str) or not isinstance(dtype_str, str):
        raise CorruptStateError(f"malformed array manifest entry: {entry!r}")
    try:
        dtype = np.dtype(dtype_str)
    except (TypeError, ValueError) as exc:
        raise CorruptStateError(f"array {name!r} has unknown dtype {dtype_str!r}") from exc
    if dtype.kind not in _ARRAY_KINDS:
        raise CorruptStateError(f"array {name!r} has unsupported dtype {dtype_str!r}")
    if dtypes is not None and dtype.str not in dtypes:
        raise CorruptStateError(
            f"array {name!r} has dtype {dtype_str!r}; expected one of {sorted(dtypes)}"
        )
    if not isinstance(shape, list) or not all(
        type(d) is int and d >= 0 for d in shape
    ):
        raise CorruptStateError(f"array {name!r} has malformed shape {shape!r}")
    if type(nbytes) is not int or nbytes != math.prod(shape) * dtype.itemsize:
        raise CorruptStateError(
            f"array {name!r}: nbytes {nbytes!r} does not match shape {shape} "
            f"of {dtype_str}"
        )
    return name, dtype, tuple(shape), nbytes


def unpack_block(payload: bytes, *, dtypes=None) -> tuple[dict, dict[str, np.ndarray]]:
    """Inverse of :func:`pack_block`: ``(head, arrays)``.

    Every manifest defect raises :class:`CorruptStateError`: a missing
    or malformed field, a dtype outside bool/int/float/complex (or
    outside `dtypes`, a set of ``dtype.str`` values, when given), a
    negative or non-integral shape, a byte length that disagrees with
    shape and dtype, a duplicate name, a buffer past the end, and bytes
    left over after the last buffer.  Unknown head and entry keys are
    ignored.  The arrays own their memory.
    """
    head, offset = read_head(payload)
    entries = head.get("arrays")
    if not isinstance(entries, list):
        raise CorruptStateError("array manifest missing its 'arrays' list")
    out: dict[str, np.ndarray] = {}
    for entry in entries:
        name, dtype, shape, nbytes = _manifest_entry(entry, dtypes)
        if name in out:
            raise CorruptStateError(f"array {name!r} appears twice in the manifest")
        if offset + nbytes > len(payload):
            raise CorruptStateError(f"array {name!r} extends past the payload")
        out[name] = np.frombuffer(
            payload, dtype=dtype, count=nbytes // dtype.itemsize, offset=offset
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise CorruptStateError(
            f"{len(payload) - offset} bytes trail the last array buffer"
        )
    return head, out


def pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Serialize named arrays bit-exactly (manifest + raw buffers)."""
    return pack_block({}, arrays)


def unpack_arrays(payload: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays`; unknown manifest keys are ignored."""
    return unpack_block(payload)[1]
