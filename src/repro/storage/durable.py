"""Crash-safe file primitives: atomic writes, checksummed framing, column blocks.

Three building blocks shared by the WAL, the snapshot store, the
quarantine store and the chaos-sweep ledger:

* **Atomic whole-file writes** — write to a temp file in the same
  directory, flush + fsync, ``os.replace`` over the target, fsync the
  directory.  A crash at any point leaves either the old file or the new
  file, never a torn mix; stray ``*.tmp`` files are ignored by readers.

* **Record framing** — an append-only stream of length-prefixed records,
  each carrying a CRC32 over its sequence number and payload::

      <u32 payload length> <u32 crc32(seq || payload)> <u64 seq> <payload>

  :func:`scan_frames` distinguishes a *torn tail* (the final record is
  incomplete or fails its checksum — the expected signature of a crash
  mid-append, safely truncated away) from *mid-stream corruption* (a bad
  record followed by further data — bit rot or tampering, which must be
  surfaced, not silently dropped).

* **Column blocks** — one encoding for a batch of rows of one table, used
  both as a WAL insert record and as a snapshot's table file
  (little-endian throughout)::

      b"RCB1" <u32 n> <table name>  <u32 rows> <u32 columns>
      <i64 row id> * rows
      per column:
          <u32 n> <column name> <u8 dtype tag>
          <validity bitmap: ceil(rows / 8) bytes, least significant bit first>
          <u64 data bytes> <data>

  ``data`` is the raw buffer for int and date (``<i8``, dates as day
  ordinals), float (``<f8``, so NaN payloads and signed zeros survive bit
  for bit) and bool (``u1``); a str column is one UTF-8 JSON list with
  ``null`` at null slots.  No pickle, and nothing is encoded per row.

Every write is routed through :mod:`repro.storage.faults` under a caller
-supplied fault-point name, so the failure modes above are testable.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ChecksumError
from repro.storage import faults
from repro.tabular.column import Column
from repro.tabular.dtypes import DType
from repro.tabular.table import Table

#: Frame header: payload length (u32), crc32 (u32), sequence number (u64).
_FRAME_HEADER = struct.Struct("<IIQ")
FRAME_OVERHEAD = _FRAME_HEADER.size

_BLOCK_MAGIC = b"RCB1"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_SHAPE = struct.Struct("<II")  # rows, columns
#: dtype tag on disk = position in this tuple
_BLOCK_DTYPES = (DType.INT, DType.FLOAT, DType.STR, DType.BOOL, DType.DATE)
_BLOCK_TAGS = {dtype: tag for tag, dtype in enumerate(_BLOCK_DTYPES)}
#: on-disk element type of each fixed-width dtype
_BLOCK_WIRE = {
    DType.INT: np.dtype("<i8"),
    DType.FLOAT: np.dtype("<f8"),
    DType.BOOL: np.dtype("u1"),
    DType.DATE: np.dtype("<i8"),
}


def crc32_bytes(data: bytes) -> int:
    """CRC32 as an unsigned 32-bit int."""
    return zlib.crc32(data) & 0xFFFFFFFF


def crc32_hex(data: bytes) -> str:
    """CRC32 as fixed-width hex, the digest format used in manifests."""
    return f"{crc32_bytes(data):08x}"


def fsync_dir(directory: str | Path) -> None:
    """fsync a directory so a rename inside it survives power loss."""
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: str | Path, data: bytes, *, point: str = "atomic.write"
) -> None:
    """Atomically replace ``path`` with ``data`` (fsync file + directory).

    Fault points fired: ``<point>`` around the temp-file write and
    ``<point>.rename`` before the rename — a kill at the former leaves
    the old file intact, a kill at the latter leaves a complete temp file
    that readers never look at.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    data = faults.before_write(point, data)
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    faults.after_write(point)
    faults.fire(point + ".rename")
    os.replace(tmp, target)
    fsync_dir(target.parent)


def atomic_write_json(
    path: str | Path, payload: object, *, point: str = "atomic.write", indent=None
) -> None:
    """:func:`atomic_write_bytes` for a JSON document."""
    data = json.dumps(payload, indent=indent).encode("utf-8")
    atomic_write_bytes(path, data, point=point)


def encode_frame(payload: bytes, seq: int) -> bytes:
    """Frame one record for an append-only checksummed stream."""
    crc = crc32_bytes(struct.pack("<Q", seq) + payload)
    return _FRAME_HEADER.pack(len(payload), crc, seq) + payload


@dataclass
class Frame:
    """One decoded record: its sequence number, payload and end offset."""

    seq: int
    payload: bytes
    end: int


@dataclass
class ScanResult:
    """Outcome of scanning a framed stream.

    ``valid_end`` is the byte offset just past the last intact frame;
    ``torn`` means trailing bytes after ``valid_end`` are a crash
    artefact safe to truncate; ``corrupt_at`` (when not ``None``) is the
    offset of a damaged frame with further data *after* it — mid-stream
    corruption the caller must refuse to repair silently.
    """

    frames: list[Frame]
    valid_end: int
    torn: bool = False
    corrupt_at: int | None = None


def scan_frames(data: bytes, start: int = 0) -> ScanResult:
    """Walk frames from ``start``, classifying any trailing damage."""
    frames: list[Frame] = []
    offset = start
    total = len(data)
    while offset < total:
        if offset + FRAME_OVERHEAD > total:
            return ScanResult(frames, offset, torn=True)
        length, crc, seq = _FRAME_HEADER.unpack_from(data, offset)
        body_start = offset + FRAME_OVERHEAD
        body_end = body_start + length
        if body_end > total:
            # Frame claims more bytes than exist: either a torn append or
            # a corrupted length field — indistinguishable, and in both
            # cases nothing after it is recoverable.
            return ScanResult(frames, offset, torn=True)
        payload = data[body_start:body_end]
        if crc32_bytes(struct.pack("<Q", seq) + payload) != crc:
            if body_end >= total:
                # Damage confined to the final frame: torn tail.
                return ScanResult(frames, offset, torn=True)
            return ScanResult(frames, offset, corrupt_at=offset)
        frames.append(Frame(seq=seq, payload=payload, end=body_end))
        offset = body_end
    return ScanResult(frames, offset)


@dataclass
class ColumnBlock:
    """Rows of one table as typed columns, with their physical row ids."""

    table: str
    row_ids: np.ndarray
    rows: Table


def _name_bytes(name: str) -> bytes:
    raw = name.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def encode_block(block: ColumnBlock) -> bytes:
    """Serialise a :class:`ColumnBlock` (layout in the module docstring)."""
    rows = block.rows
    parts = [
        _BLOCK_MAGIC,
        _name_bytes(block.table),
        _SHAPE.pack(rows.num_rows, len(rows.column_names)),
        np.asarray(block.row_ids, dtype="<i8").tobytes(),
    ]
    for name in rows.column_names:
        column = rows.column(name)
        if column.dtype is DType.STR:
            data = json.dumps(column.to_list()).encode("utf-8")
        else:
            data = column.data.astype(_BLOCK_WIRE[column.dtype], copy=False).tobytes()
        parts += (
            _name_bytes(name),
            bytes((_BLOCK_TAGS[column.dtype],)),
            np.packbits(column.valid, bitorder="little").tobytes(),
            _U64.pack(len(data)),
            data,
        )
    return b"".join(parts)


def decode_block(data: bytes | memoryview) -> ColumnBlock:
    """Inverse of :func:`encode_block`; raises ``ValueError`` when malformed."""
    view = memoryview(data)
    if bytes(view[:len(_BLOCK_MAGIC)]) != _BLOCK_MAGIC:
        raise ValueError("not a column block (bad magic)")
    offset = len(_BLOCK_MAGIC)

    def name_at(at: int) -> tuple[str, int]:
        (size,) = _U32.unpack_from(view, at)
        at += _U32.size
        return bytes(view[at:at + size]).decode("utf-8"), at + size

    try:
        table, offset = name_at(offset)
        n_rows, n_columns = _SHAPE.unpack_from(view, offset)
        offset += _SHAPE.size
        row_ids = np.frombuffer(view, "<i8", n_rows, offset).astype(np.int64)
        offset += 8 * n_rows
        mask_bytes = (n_rows + 7) // 8
        columns: dict[str, Column] = {}
        for _ in range(n_columns):
            name, offset = name_at(offset)
            dtype = _BLOCK_DTYPES[view[offset]]
            offset += 1
            valid = np.unpackbits(
                np.frombuffer(view, np.uint8, mask_bytes, offset),
                count=n_rows, bitorder="little",
            ).astype(bool)
            offset += mask_bytes
            (size,) = _U64.unpack_from(view, offset)
            offset += _U64.size
            raw = view[offset:offset + size]
            offset += size
            if dtype is DType.STR:
                values = json.loads(bytes(raw).decode("utf-8"))
                column_data = np.empty(len(values), dtype=object)
                column_data[:] = values
            else:
                column_data = np.frombuffer(
                    raw, _BLOCK_WIRE[dtype], n_rows
                ).astype(dtype.numpy_dtype)
            columns[name] = Column(dtype, column_data, valid)
    except (struct.error, IndexError) as exc:
        raise ValueError(f"truncated column block: {exc}") from None
    if offset != len(view):
        raise ValueError(
            f"column block has {len(view) - offset} trailing bytes"
        )
    return ColumnBlock(table, row_ids, Table(columns))


def json_encode_value(value: object) -> object:
    """JSON-safe encoding that keeps dates distinguishable from strings."""
    if isinstance(value, _dt.date):
        return {"__date__": value.isoformat()}
    return value


def json_decode_value(value: object) -> object:
    """Inverse of :func:`json_encode_value`."""
    if isinstance(value, dict) and "__date__" in value:
        return _dt.date.fromisoformat(value["__date__"])
    return value


def verify_digest(path: str | Path, expected_hex: str) -> bytes:
    """Read ``path`` and check its CRC32 digest; returns the bytes."""
    data = Path(path).read_bytes()
    actual = crc32_hex(data)
    if actual != expected_hex:
        raise ChecksumError(
            f"{path}: checksum mismatch (stored {expected_hex}, actual {actual})"
        )
    return data
