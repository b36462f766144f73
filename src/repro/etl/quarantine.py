"""Row-level dead-letter store for fault-tolerant ingest.

Clinical source data fails row-by-row, not batch-by-batch: one attendance
with a missing visit date must not poison the other nine hundred.  Every
ingest stage (pipeline transforms, star-schema key resolution, OLTP
intake) hands a row it cannot digest to :func:`divert`, which — given a
sink — records it here instead of aborting, each entry carrying the
originating step, the typed error and the pristine source row — enough
to *inspect* the failure and *re-drive* the row once the scheme (or the
data) is fixed.

The store is WAL-backed through the PR-2 durability layer: entries are
rows of a :class:`~repro.storage.engine.StorageEngine` table whose WAL
lives under ``<root>/wal.log`` and whose snapshots land under
``<root>/snaps``, so quarantined rows survive a crash exactly like
committed facts do (:meth:`QuarantineStore.open` recovers them).  With no
root the store is purely in-memory — handy for tests and one-shot
pipeline runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from repro import obs
from repro.errors import IngestError
from repro.storage.durable import json_decode_value, json_encode_value
from repro.storage.engine import StorageEngine
from repro.storage.persistence import (
    _save_snapshot,
    checkpoint_if_due,
    recover,
)
from repro.storage.wal import WriteAheadLog

_TABLE = "quarantine"
#: the columns that make two entries the same entry
_SEEN_KEY = ("step", "error_type", "row_json")
_SCHEMA = {
    "entry_id": "int",
    "batch": "str",
    "step": "str",
    "error_type": "str",
    "reason": "str",
    "source_index": "int",
    "row_json": "str",
}


@dataclass
class QuarantinedRow:
    """One dead-letter entry: the row, where it failed, and why."""

    row: dict
    step: str
    error_type: str
    reason: str
    batch: str = ""
    #: position of the row in the batch it arrived with (-1 when unknown)
    source_index: int = -1
    #: surrogate id assigned by the store (-1 until persisted)
    entry_id: int = -1

    @classmethod
    def from_error(
        cls,
        row: dict,
        step: str,
        error: BaseException,
        *,
        batch: str = "",
        source_index: int = -1,
    ) -> "QuarantinedRow":
        """Build an entry from a caught error, preserving its type name."""
        return cls(
            row=dict(row),
            step=step,
            error_type=type(error).__name__,
            reason=str(error),
            batch=batch,
            source_index=source_index,
        )

    def describe(self) -> str:
        """One-line recap for listings."""
        return (
            f"#{self.entry_id} [{self.batch or '-'}] step={self.step} "
            f"{self.error_type}: {self.reason}"
        )


def divert(
    quarantine,
    step: str,
    row: dict,
    error: BaseException,
    *,
    batch: str = "",
    source_index: int = -1,
) -> None:
    """The one rule for a row a stage cannot digest.

    A sink (anything exposing ``add(QuarantinedRow)``) takes a dead-letter
    entry for the row and the stage carries on with the rest; with no
    sink there is nowhere to divert, so the row's original typed error
    re-raises.  OLTP intake, pipeline steps, the delta ETL and the
    star-schema load all reject rows through here.
    """
    if quarantine is None:
        raise error
    quarantine.add(
        QuarantinedRow.from_error(
            row, step, error, batch=batch, source_index=source_index
        )
    )


def _row_to_json(row: dict) -> str:
    return json.dumps(
        {k: json_encode_value(v) for k, v in row.items()}, sort_keys=True
    )


def _row_from_json(text: str) -> dict:
    return {k: json_decode_value(v) for k, v in json.loads(text).items()}


class ListSink:
    """Minimal in-process quarantine sink: collects entries in a list.

    What :func:`stage` hands out, and the sink of a system that should
    divert bad rows without keeping them durably.
    """

    def __init__(self) -> None:
        self.entries: list[QuarantinedRow] = []

    def add(self, entry: QuarantinedRow) -> None:
        """Collect one entry."""
        self.entries.append(entry)

    def __len__(self) -> int:
        return len(self.entries)


def stage(quarantine) -> "ListSink | None":
    """Where one attempt's entries wait for the attempt to succeed.

    A pipeline run, a delta publish or a retryable rebuild diverts into
    this and :func:`commit_staged` hands the entries on afterwards, so an
    attempt that raised, fell back or was retried leaves nothing in the
    real sink.  ``None`` without a sink: the stages then still raise.
    """
    return ListSink() if quarantine is not None else None


def commit_staged(staged: "ListSink | None", quarantine) -> list[QuarantinedRow]:
    """Add a successful attempt's staged entries to ``quarantine``."""
    entries = staged.entries if staged else []
    for entry in entries:
        quarantine.add(entry)
    return entries


@dataclass
class RedriveReport:
    """What a re-drive attempt did."""

    attempted: int = 0
    succeeded: int = 0
    requeued: int = 0
    #: entry ids removed from the store (re-driven successfully)
    removed_ids: list[int] = field(default_factory=list)

    def summary(self) -> str:
        """One-line recap."""
        return (
            f"{self.attempted} attempted, {self.succeeded} re-driven, "
            f"{self.requeued} re-quarantined"
        )


class QuarantineStore:
    """Persisted, WAL-backed dead-letter table with a typed error taxonomy."""

    def __init__(self, root: str | Path | None = None, *, _engine=None):
        self.root = Path(root) if root is not None else None
        if _engine is not None:
            self._engine = _engine
        else:
            wal = (
                WriteAheadLog(self.root / "wal.log")
                if self.root is not None
                else None
            )
            if self.root is not None:
                self.root.mkdir(parents=True, exist_ok=True)
            self._engine = StorageEngine(wal) if wal is not None else StorageEngine()
            self._engine.create_table(_TABLE, _SCHEMA, primary_key="entry_id")
        stored = self._engine.scan(_TABLE)
        self._next_id = 1 + (stored.column("entry_id").max() or 0)
        #: identical entries are recorded once (re-runs must not duplicate)
        self._seen: set[tuple] = set(
            zip(*(stored.column(c).to_list() for c in _SEEN_KEY))
        )

    @classmethod
    def open(cls, root: str | Path) -> "QuarantineStore":
        """Open (or create) a durable store, recovering after a crash.

        Walks snapshot generations and replays the WAL exactly like the
        operational store does; a store that never checkpointed recovers
        from its WAL alone.
        """
        root = Path(root)
        snaps = root / "snaps"
        wal_path = root / "wal.log"
        if snaps.is_dir() or wal_path.exists():
            if not snaps.is_dir():
                # WAL with no snapshot yet: seed an empty schema generation
                # so recover() has a base to replay onto.
                seed = QuarantineStore(root)
                _save_snapshot(seed._engine, snaps)
                seed._engine.wal.close()
            engine = recover(snaps, wal_path)
            return cls(root, _engine=engine)
        return cls(root)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def add(self, entry: QuarantinedRow) -> int:
        """Persist one entry (idempotently); returns its entry id.

        An entry identical in (step, error type, row payload) to one
        already stored is not duplicated — re-running a rebuild over a
        partially-ingested batch must converge, not accumulate.
        """
        row_json = _row_to_json(entry.row)
        key = (entry.step, entry.error_type, row_json)
        if key in self._seen:
            for existing in self.rows():
                if (existing.step, existing.error_type, _row_to_json(existing.row)) == key:
                    entry.entry_id = existing.entry_id
                    return existing.entry_id
        entry.entry_id = self._next_id
        self._next_id += 1
        with self._engine.transaction():
            self._engine.insert(
                _TABLE,
                {
                    "entry_id": entry.entry_id,
                    "batch": entry.batch,
                    "step": entry.step,
                    "error_type": entry.error_type,
                    "reason": entry.reason,
                    "source_index": entry.source_index,
                    "row_json": row_json,
                },
            )
        self._seen.add(key)
        obs.count("ingest.quarantined")
        return entry.entry_id

    def extend(self, entries: Iterable[QuarantinedRow]) -> int:
        """Persist several entries; returns how many were newly stored."""
        before = len(self)
        for entry in entries:
            self.add(entry)
        return len(self) - before

    def remove(self, entry_ids: Iterable[int]) -> int:
        """Delete entries by id (after a successful re-drive)."""
        removed = 0
        with self._engine.transaction():
            # entry ids grow with the store's row ids: this is row-id order
            for entry_id in sorted(set(entry_ids)):
                row = self._engine.get_by_pk(_TABLE, entry_id)
                if row is None:
                    continue
                self._seen.discard(tuple(row[c] for c in _SEEN_KEY))
                self._engine.delete_by_pk(_TABLE, entry_id)
                removed += 1
        return removed

    def checkpoint(self) -> None:
        """Snapshot the store and truncate its WAL — when that is due.

        Durable stores only, and by the operational store's rule
        (:func:`repro.storage.persistence.checkpoint_if_due`): a store
        nothing was added to or removed from since its last snapshot has
        an empty log and is left alone; every entry is durable in the
        log from the moment :meth:`add` returned.
        """
        if self.root is not None:
            checkpoint_if_due(self._engine, self.root / "snaps")

    def close(self) -> None:
        """Flush and close the underlying WAL handle."""
        self._engine.wal.close()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._engine.row_count(_TABLE)

    def rows(self) -> list[QuarantinedRow]:
        """Every entry, oldest first."""
        out = []
        for row in self._engine.scan(_TABLE).iter_rows():
            out.append(
                QuarantinedRow(
                    row=_row_from_json(row["row_json"]),
                    step=row["step"],
                    error_type=row["error_type"],
                    reason=row["reason"],
                    batch=row["batch"],
                    source_index=row["source_index"],
                    entry_id=row["entry_id"],
                )
            )
        out.sort(key=lambda e: e.entry_id)
        return out

    def get(self, entry_id: int) -> QuarantinedRow:
        """One entry by id; raises :class:`IngestError` when absent."""
        for entry in self.rows():
            if entry.entry_id == entry_id:
                return entry
        raise IngestError(f"no quarantine entry #{entry_id}")

    def counts(self, by: str = "step") -> dict[str, int]:
        """Entry counts grouped by ``step`` | ``error_type`` | ``batch``."""
        if by not in ("step", "error_type", "batch"):
            raise IngestError(
                f"counts(by={by!r}): use step | error_type | batch"
            )
        out: dict[str, int] = {}
        for row in self._engine.scan(_TABLE).iter_rows():
            key = str(row[by])
            out[key] = out.get(key, 0) + 1
        return out

    def values(self, column: str) -> set:
        """Distinct values of one source-row column across all entries.

        Used by the ingest path to exclude already-dead-lettered rows
        (e.g. by ``visit_id``) from the main flow until they are
        re-driven.
        """
        out = set()
        for entry in self.rows():
            if column in entry.row:
                out.add(entry.row[column])
        return out

    # ------------------------------------------------------------------
    # Re-drive
    # ------------------------------------------------------------------

    def redrive(
        self,
        handler: Callable[[list[QuarantinedRow]], Iterable[int]],
        *,
        repair: Callable[[dict], dict] | None = None,
    ) -> RedriveReport:
        """Re-run every entry through ``handler``; purge the survivors.

        ``handler`` receives the entries (rows repaired by ``repair`` when
        given) and returns the entry ids that succeeded; those are removed
        from the store.  Entries the handler re-quarantines stay put under
        their new diagnosis.
        """
        entries = self.rows()
        report = RedriveReport(attempted=len(entries))
        if not entries:
            return report
        if repair is not None:
            for entry in entries:
                entry.row = dict(repair(dict(entry.row)))
        succeeded = sorted(set(handler(entries)))
        report.removed_ids = succeeded
        report.succeeded = len(succeeded)
        report.requeued = report.attempted - report.succeeded
        self.remove(succeeded)
        obs.count("ingest.redriven", report.succeeded)
        return report
