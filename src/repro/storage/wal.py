"""Write-ahead log: ordered, checksummed record of committed mutations.

The engine appends one entry per mutation call inside a transaction and
marks the transaction committed by writing a *commit record*; ``replay``
reapplies committed entries to an empty engine — used by
snapshot-plus-log recovery and exercised by the failure-injection tests.

On-disk format (version 2) is an append-only stream::

    RWAL2\\x00 <u64 start_seq> <u32 header crc>   -- file header
    <frame>*                                      -- see repro.storage.durable

Each frame carries a monotonically increasing sequence number and a CRC32
over (seq || payload).  A payload is one of three records:

* an insert — ``b"B" <u64 txn>`` followed by one column block
  (:func:`~repro.storage.durable.encode_block`) holding every row that
  insert call stored, with their row ids;
* an update or delete — a JSON row record (``{"t": "e", ...}``);
* a commit mark — JSON ``{"t": "c", "txn": n}``.

A transaction is durable iff its commit frame is intact, so
:meth:`WriteAheadLog.load` can classify damage precisely: an incomplete
or checksum-failing *final* frame is a torn tail (the expected residue of
a crash mid-append) and is truncated away; a bad frame with further data
behind it is mid-log corruption and raises
:class:`~repro.errors.WALCorruptionError`.  ``start_seq`` survives
:meth:`truncate` so sequence numbers never regress across checkpoints —
snapshot manifests record the last sequence they contain and recovery
replays only entries after it.

An in-memory log (``path=None``) keeps its entries as objects and
encodes nothing.
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro import obs
from repro.errors import StorageError, WALCorruptionError
from repro.storage import faults
from repro.storage.durable import (
    ColumnBlock,
    atomic_write_bytes,
    decode_block,
    encode_block,
    encode_frame,
    json_decode_value,
    json_encode_value,
    scan_frames,
)

#: Mutation kinds recorded in the log.
OP_INSERT = "insert"
OP_UPDATE = "update"
OP_DELETE = "delete"
_VALID_OPS = frozenset({OP_INSERT, OP_UPDATE, OP_DELETE})

_MAGIC = b"RWAL2\x00"
_HEADER = struct.Struct("<QI")  # start_seq, crc32(magic + start_seq)
HEADER_SIZE = len(_MAGIC) + _HEADER.size
#: prefix of an insert record: tag byte, owning transaction
_BLOCK_RECORD = struct.Struct("<cQ")
_BLOCK_TAG = b"B"


def _header_bytes(start_seq: int) -> bytes:
    import zlib

    crc = zlib.crc32(_MAGIC + struct.pack("<Q", start_seq)) & 0xFFFFFFFF
    return _MAGIC + _HEADER.pack(start_seq, crc)


def _parse_header(data: bytes, path: Path) -> int:
    import zlib

    if len(data) < HEADER_SIZE:
        raise WALCorruptionError(f"{path}: WAL header truncated")
    start_seq, crc = _HEADER.unpack_from(data, len(_MAGIC))
    expected = zlib.crc32(_MAGIC + struct.pack("<Q", start_seq)) & 0xFFFFFFFF
    if crc != expected:
        raise WALCorruptionError(f"{path}: WAL header checksum mismatch")
    return start_seq


@dataclass
class LogEntry:
    """One mutation call: operation, table, payload, owning transaction.

    An insert's payload is the :class:`~repro.storage.durable.ColumnBlock`
    of the rows it stored; an update's or delete's is a row record dict.
    """

    txn_id: int
    op: str
    table: str
    payload: "dict | ColumnBlock"
    committed: bool = False
    #: position in the global record sequence (0 = never persisted)
    seq: int = 0

    def encode(self) -> bytes:
        """The on-disk record (dates in row records kept round-trippable)."""
        if self.op == OP_INSERT:
            return _BLOCK_RECORD.pack(_BLOCK_TAG, self.txn_id) + encode_block(
                self.payload
            )
        return json.dumps(
            {
                "t": "e",
                "txn": self.txn_id,
                "op": self.op,
                "table": self.table,
                "payload": {
                    k: json_encode_value(v) for k, v in self.payload.items()
                },
            }
        ).encode("utf-8")


class WriteAheadLog:
    """Append-only WAL with checksummed file persistence.

    With ``path=None`` the log is purely in-memory (used by throwaway
    engines); with a path, entries are appended as framed records and
    :meth:`commit` makes them durable with a commit record + fsync.
    """

    def __init__(self, path: str | Path | None = None):
        self._entries: list[LogEntry] = []
        self._by_txn: dict[int, list[LogEntry]] = {}
        self._path = Path(path) if path is not None else None
        self._next_txn = 1
        self._next_seq = 1
        self._start_seq = 1
        self._fh = None
        self._initialized = False  # header written / file adopted
        self._dead = False  # a simulated crash froze this instance

    # ------------------------------------------------------------------
    # Transaction API
    # ------------------------------------------------------------------

    def begin(self) -> int:
        """Allocate a transaction id."""
        txn_id = self._next_txn
        self._next_txn += 1
        return txn_id

    def append(
        self, txn_id: int, op: str, table: str, payload: "dict | ColumnBlock"
    ) -> None:
        """Record one mutation belonging to an open transaction.

        An insert takes the :class:`~repro.storage.durable.ColumnBlock` of
        the rows it stored and is written as one block frame; an update or
        delete takes a row record dict.  Only a file-backed log encodes.
        """
        if op not in _VALID_OPS:
            raise StorageError(f"unknown WAL operation {op!r}")
        if (op == OP_INSERT) != isinstance(payload, ColumnBlock):
            raise StorageError(
                "an insert is logged as a column block, an update or a "
                f"delete as a row record (got {op!r} with "
                f"{type(payload).__name__})"
            )
        if op != OP_INSERT:
            payload = dict(payload)
        entry = LogEntry(txn_id, op, table, payload)
        entry.seq = self._alloc_seq()
        obs.count("storage.wal.append")
        if self._path is not None:
            started = time.perf_counter()
            self._write_frame(entry.encode(), entry.seq, "wal.append")
            obs.observe("storage.wal.append_s", time.perf_counter() - started)
        self._entries.append(entry)
        self._by_txn.setdefault(txn_id, []).append(entry)

    def commit(self, txn_id: int) -> None:
        """Durably mark all entries of ``txn_id`` committed.

        The commit record is written, flushed and fsynced *before* the
        in-memory flags flip, so a failure here leaves the transaction
        uncommitted both on disk and in memory (the engine then rolls it
        back).
        """
        if self._path is not None:
            mark = json.dumps({"t": "c", "txn": txn_id}).encode("utf-8")
            self._write_frame(mark, self._alloc_seq(), "wal.commit")
            obs.count("storage.wal.commit")
            started = time.perf_counter()
            self._sync()
            obs.observe("storage.wal.fsync_s", time.perf_counter() - started)
        for entry in self._by_txn.get(txn_id, ()):
            entry.committed = True

    def rollback(self, txn_id: int) -> None:
        """Discard uncommitted entries of ``txn_id``.

        On disk their frames remain as dead weight — harmless, because
        replay only honours transactions with a commit record.
        """
        doomed = [
            e for e in self._by_txn.get(txn_id, ()) if not e.committed
        ]
        if not doomed:
            return
        doomed_ids = {id(e) for e in doomed}
        self._entries = [e for e in self._entries if id(e) not in doomed_ids]
        kept = [e for e in self._by_txn.get(txn_id, ()) if e.committed]
        if kept:
            self._by_txn[txn_id] = kept
        else:
            self._by_txn.pop(txn_id, None)

    def committed_entries(self) -> Iterator[LogEntry]:
        """Committed mutations in append order."""
        return (e for e in self._entries if e.committed)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently allocated record."""
        return self._next_seq - 1

    @property
    def start_seq(self) -> int:
        """Sequence number the log's first record has (or will have).

        A checkpoint's manifest records ``last_seq`` and the truncation
        that follows restarts the log at ``last_seq + 1`` — which is how
        a generation is recognised as the base of *this* log.
        """
        return self._start_seq

    @property
    def size_bytes(self) -> int | None:
        """Bytes of the log file on disk; ``None`` for an in-memory log.

        Exact after a commit (which flushes); frames of an open
        transaction may still sit in the write buffer.
        """
        if self._path is None:
            return None
        if not self._initialized:  # nothing written yet: any file is not ours
            return 0
        return os.path.getsize(self._path)

    @property
    def committed_seq(self) -> int:
        """Highest sequence number among *committed* mutations (0 if none).

        This is the durable high-water mark resumable ingest batches
        checkpoint against: everything at or below it survives a crash,
        everything above it must be re-done.
        """
        return max((e.seq for e in self._entries if e.committed), default=0)

    def truncate(self) -> None:
        """Clear the log (after a snapshot has captured its effects).

        The replacement file keeps the sequence counter via its header's
        ``start_seq``, so records written after a checkpoint always sort
        after the checkpoint's manifest sequence.
        """
        self._entries = []
        self._by_txn = {}
        if self._path is None:
            return
        self._check_alive()
        self._close_handle()
        self._start_seq = self._next_seq
        try:
            atomic_write_bytes(
                self._path, _header_bytes(self._start_seq), point="wal.truncate"
            )
        except faults.SimulatedCrash:
            self._dead = True
            raise
        self._initialized = True

    def close(self) -> None:
        """Flush and close the file handle (safe to call repeatedly)."""
        self._close_handle()

    # ------------------------------------------------------------------
    # File plumbing
    # ------------------------------------------------------------------

    def _alloc_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _check_alive(self) -> None:
        if self._dead:
            raise StorageError(
                "WAL instance is dead after a simulated crash; "
                "recover from disk instead"
            )

    def _ensure_handle(self):
        if self._fh is None:
            if not self._initialized:
                atomic_write_bytes(
                    self._path, _header_bytes(self._start_seq), point="wal.create"
                )
                self._initialized = True
            self._fh = open(self._path, "ab")
        return self._fh

    def _write_frame(self, payload: bytes, seq: int, point: str) -> None:
        self._check_alive()
        handle = self._ensure_handle()
        frame = encode_frame(payload, seq)
        try:
            frame = faults.before_write(point, frame)
        except faults.SimulatedCrash:
            self._die()
            raise
        handle.write(frame)
        try:
            faults.after_write(point)
        except faults.SimulatedCrash:
            self._die()
            raise

    def _sync(self) -> None:
        if self._fh is not None:
            try:
                faults.fire("wal.sync")
            except faults.SimulatedCrash:
                self._die()
                raise
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def _die(self) -> None:
        """Freeze the on-disk state at the crash point and go inert."""
        self._close_handle()
        self._dead = True

    def _close_handle(self) -> None:
        if self._fh is not None:
            try:
                self._fh.flush()
                os.fsync(self._fh.fileno())
            finally:
                self._fh.close()
                self._fh = None

    # ------------------------------------------------------------------
    # Loading / recovery
    # ------------------------------------------------------------------

    @classmethod
    def load(cls, path: str | Path) -> "WriteAheadLog":
        """Read a persisted log, repairing a torn tail in place.

        Raises :class:`~repro.errors.WALCorruptionError` for damage that
        is *not* a torn tail (a bad record with valid data after it, a
        broken header, sequence regressions) — silent repair there would
        drop committed work.
        """
        wal = cls(path)
        file_path = Path(path)
        if not file_path.exists():
            return wal
        data = file_path.read_bytes()
        if not data:
            return wal
        if not data.startswith(_MAGIC):
            raise WALCorruptionError(
                f"{file_path}: not a WAL file (bad magic {data[:6]!r})"
            )
        start_seq = _parse_header(data, file_path)
        scan = scan_frames(data, HEADER_SIZE)
        if scan.corrupt_at is not None:
            raise WALCorruptionError(
                f"{file_path}: corrupted record at byte {scan.corrupt_at} "
                f"with valid data beyond it — refusing to repair silently"
            )
        if scan.torn:
            with open(file_path, "r+b") as handle:
                handle.truncate(scan.valid_end)
                handle.flush()
                os.fsync(handle.fileno())
        committed_txns: set[int] = set()
        expected_seq = start_seq
        for frame in scan.frames:
            if frame.seq != expected_seq:
                raise WALCorruptionError(
                    f"{file_path}: sequence break (expected {expected_seq}, "
                    f"found {frame.seq})"
                )
            expected_seq += 1
            if frame.payload[:1] == _BLOCK_TAG:
                _, txn_id = _BLOCK_RECORD.unpack_from(frame.payload)
                try:
                    block = decode_block(
                        memoryview(frame.payload)[_BLOCK_RECORD.size:]
                    )
                except ValueError as exc:
                    raise WALCorruptionError(
                        f"{file_path}: record {frame.seq}: {exc}"
                    ) from None
                entry = LogEntry(
                    txn_id, OP_INSERT, block.table, block, seq=frame.seq
                )
            else:
                record = json.loads(frame.payload.decode("utf-8"))
                if record["t"] == "c":
                    committed_txns.add(record["txn"])
                    continue
                if record["t"] != "e":
                    raise WALCorruptionError(
                        f"{file_path}: unknown record type {record['t']!r}"
                    )
                entry = LogEntry(
                    txn_id=record["txn"],
                    op=record["op"],
                    table=record["table"],
                    payload={
                        k: json_decode_value(v)
                        for k, v in record["payload"].items()
                    },
                    seq=frame.seq,
                )
            wal._entries.append(entry)
            wal._by_txn.setdefault(entry.txn_id, []).append(entry)
        for entry in wal._entries:
            if entry.txn_id in committed_txns:
                entry.committed = True
        wal._start_seq = start_seq
        wal._next_seq = expected_seq
        if wal._entries:
            wal._next_txn = max(e.txn_id for e in wal._entries) + 1
        if committed_txns:
            wal._next_txn = max(wal._next_txn, max(committed_txns) + 1)
        wal._initialized = True
        return wal
