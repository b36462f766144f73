"""The embedded storage engine: tables, CRUD, transactions, indexes."""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import (
    DTypeError,
    IntegrityError,
    ReproError,
    StorageError,
    TransactionError,
)
from repro.storage.catalog import Catalog, TableMeta
from repro.storage.durable import ColumnBlock
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.wal import OP_DELETE, OP_INSERT, OP_UPDATE, WriteAheadLog
from repro.tabular.column import Column
from repro.tabular.dtypes import DType, coerce_value, ordinal_to_date
from repro.tabular.table import Table

#: ``(position in the batch, error)`` for each row an insert refused
Rejected = list[tuple[int, ReproError]]


def _storage_list(column: Column) -> list[object]:
    """Storage values of a column: ``None`` for nulls, dates as ordinals."""
    if column.dtype is DType.DATE:
        column = Column(DType.INT, column.data, column.valid)
    return column.to_list()


class _StoredTable:
    """Row store for one table: live rows keyed by internal row id."""

    def __init__(self, meta: TableMeta):
        self.meta = meta
        self.rows: dict[int, dict[str, object]] = {}
        self.next_row_id = 0
        self.pk_index: HashIndex | None = (
            HashIndex(meta.primary_key) if meta.primary_key else None
        )
        self.secondary: dict[str, HashIndex | SortedIndex] = {}


class StorageEngine:
    """A small single-process database with transactional row storage.

    Mutations must run inside :meth:`transaction`; reads may run any time.
    Rollback undoes every mutation of the failed transaction, and the WAL
    records committed mutations for :func:`replay_into` recovery.
    """

    def __init__(self, wal: WriteAheadLog | None = None):
        self.catalog = Catalog()
        self.wal = wal if wal is not None else WriteAheadLog()
        self._tables: dict[str, _StoredTable] = {}
        self._txn_id: int | None = None
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Mapping[str, DType | str],
        primary_key: str | None = None,
        not_null: set[str] | frozenset[str] = frozenset(),
        foreign_keys: Mapping[str, tuple[str, str]] | None = None,
    ) -> TableMeta:
        """Declare a new table."""
        meta = self.catalog.create(
            name, schema, primary_key=primary_key, not_null=not_null,
            foreign_keys=foreign_keys,
        )
        self._tables[name] = _StoredTable(meta)
        return meta

    def drop_table(self, name: str) -> None:
        """Remove a table and its rows."""
        self.catalog.drop(name)
        del self._tables[name]

    def add_column(self, name: str, column: str, dtype: DType | str) -> None:
        """Add a nullable column; existing rows read back as null."""
        self.catalog.add_column(name, column, dtype)

    def create_index(self, table: str, column: str, kind: str = "hash") -> None:
        """Build a secondary index over existing and future rows."""
        stored = self._stored(table)
        if column not in stored.meta.schema:
            raise StorageError(f"cannot index unknown column {table}.{column}")
        if column in stored.secondary:
            raise StorageError(f"index on {table}.{column} already exists")
        if kind == "hash":
            index: HashIndex | SortedIndex = HashIndex(column)
        elif kind == "sorted":
            index = SortedIndex(column)
        else:
            raise StorageError(f"unknown index kind {kind!r} (hash|sorted)")
        for row_id, row in stored.rows.items():
            index.add(row.get(column), row_id)
        stored.secondary[column] = index

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[int]:
        """Open a transaction; commits on clean exit, rolls back on error."""
        if self._txn_id is not None:
            raise TransactionError("nested transactions are not supported")
        self._txn_id = self.wal.begin()
        self._undo = []
        try:
            yield self._txn_id
            # A failed commit (fsync error, injected fault) must leave the
            # engine as if the transaction never ran: undo in-memory state
            # before re-raising, mirroring the rollback path below.
            self.wal.commit(self._txn_id)
        except BaseException:
            for undo in reversed(self._undo):
                undo()
            self.wal.rollback(self._txn_id)
            raise
        finally:
            self._txn_id = None
            self._undo = []

    def _require_txn(self) -> int:
        if self._txn_id is None:
            raise TransactionError("mutation outside a transaction")
        return self._txn_id

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def insert(
        self,
        table: str,
        rows: "Table | Mapping[str, object]",
        *,
        row_ids: Sequence[int] | None = None,
    ) -> "tuple[list[int], Rejected] | int":
        """Insert a batch of rows (a :class:`Table`) or one row (a mapping).

        The batch is validated once per column: a column whose dtype is
        the schema's is taken as is, any other coerces per value.  Each
        row is then stored or refused, in position order, exactly as if
        the rows had been inserted one at a time — so within a batch the
        first otherwise-valid occurrence of a primary key wins.  A
        :class:`Table` returns ``(accepted row ids, [(position, error)])``;
        a mapping returns its row id or raises its error.  The rows it
        stores are logged together as one column-block WAL record.

        ``row_ids`` pins the internal ids instead of allocating the next
        ones — used by WAL replay so that physical row ids (which later
        update/delete records reference) are identical after recovery.
        """
        txn = self._require_txn()
        stored = self._stored(table)
        added: list[int] = []
        # Undo is registered before the WAL append so a failed append (e.g.
        # an injected fault) still rolls these rows back with the transaction.
        self._undo.append(lambda: self._undo_inserts(stored, added))
        kept, rejected = self._insert_batch(stored, rows, row_ids, added)
        if added:
            self.wal.append(
                txn, OP_INSERT, table,
                ColumnBlock(table, np.asarray(added, dtype=np.int64), kept),
            )
        if isinstance(rows, Table):
            return added, rejected
        if rejected:
            raise rejected[0][1]
        return added[0]

    def update(
        self, table: str, row_id: int, changes: Mapping[str, object]
    ) -> None:
        """Apply a partial update to one row."""
        txn = self._require_txn()
        stored = self._stored(table)
        if row_id not in stored.rows:
            raise StorageError(f"row {row_id} not found in table {table!r}")
        old = dict(stored.rows[row_id])
        merged = dict(old)
        merged.update(changes)
        _, records, errors = self._validate(stored.meta, merged)
        if errors:
            raise errors[0]
        clean = records[0]
        pk = stored.meta.primary_key
        if pk and clean.get(pk) != old.get(pk):
            self._check_pk_unique(stored, clean)
        self._check_foreign_keys(stored.meta, clean)
        self._index_remove(stored, row_id, old)
        stored.rows[row_id] = clean
        self._index_add(stored, row_id, clean)
        self._undo.append(lambda: self._undo_update(stored, row_id, old))
        self.wal.append(txn, OP_UPDATE, table, {"row_id": row_id, **clean})

    def update_by_pk(
        self, table: str, key: object, changes: Mapping[str, object]
    ) -> None:
        """Apply a partial update to the row with primary key ``key``."""
        stored = self._stored(table)
        if stored.pk_index is None:
            raise StorageError(f"table {table!r} has no primary key")
        key = coerce_value(key, stored.meta.schema[stored.meta.primary_key])
        ids = stored.pk_index.lookup(key)
        if not ids:
            raise StorageError(
                f"no row with primary key {key!r} in table {table!r}"
            )
        self.update(table, next(iter(ids)), changes)

    def delete(self, table: str, row_id: int) -> None:
        """Delete one row by id."""
        txn = self._require_txn()
        stored = self._stored(table)
        if row_id not in stored.rows:
            raise StorageError(f"row {row_id} not found in table {table!r}")
        old = stored.rows.pop(row_id)
        self._index_remove(stored, row_id, old)
        self._undo.append(lambda: self._undo_delete(stored, row_id, old))
        self.wal.append(txn, OP_DELETE, table, {"row_id": row_id})

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def scan(self, table: str, row_ids: Iterable[int] | None = None) -> Table:
        """Live rows as a :class:`Table` (column order = schema order).

        Every row in row-id order, or just ``row_ids`` in the order given
        (the ids :meth:`insert` returned) — what a delta ingest reads back
        instead of re-fetching each row by key.
        """
        stored = self._stored(table)
        if row_ids is None:
            row_ids = sorted(stored.rows)
        try:
            rows = [stored.rows[rid] for rid in row_ids]
        except KeyError as exc:
            raise StorageError(
                f"row {exc.args[0]} not found in table {table!r}"
            ) from None
        return Table.from_rows(rows, schema=stored.meta.schema)

    def has_pk(self, table: str, key: object) -> bool:
        """Whether a row with this primary key exists (an index probe)."""
        stored = self._stored(table)
        if stored.pk_index is None:
            raise StorageError(f"table {table!r} has no primary key")
        key = coerce_value(key, stored.meta.schema[stored.meta.primary_key])
        return bool(stored.pk_index.lookup(key))

    def get_by_pk(self, table: str, key: object) -> dict[str, object] | None:
        """Point lookup through the primary-key index."""
        stored = self._stored(table)
        if stored.pk_index is None:
            raise StorageError(f"table {table!r} has no primary key")
        key = coerce_value(key, stored.meta.schema[stored.meta.primary_key])
        ids = stored.pk_index.lookup(key)
        if not ids:
            return None
        return self._decode_row(stored.meta, stored.rows[next(iter(ids))])

    def find(self, table: str, column: str, value: object) -> list[dict[str, object]]:
        """Equality lookup, via a secondary index when one exists."""
        stored = self._stored(table)
        if column not in stored.meta.schema:
            raise StorageError(f"unknown column {table}.{column}")
        value = coerce_value(value, stored.meta.schema[column])
        index = stored.secondary.get(column)
        if index is not None:
            ids = sorted(index.lookup(value))
            return [self._decode_row(stored.meta, stored.rows[rid]) for rid in ids]
        return [
            self._decode_row(stored.meta, row)
            for _, row in sorted(stored.rows.items())
            if row.get(column) == value
        ]

    def find_range(
        self, table: str, column: str, low: object = None, high: object = None
    ) -> list[dict[str, object]]:
        """Range lookup; requires (or falls back without) a sorted index."""
        stored = self._stored(table)
        if column not in stored.meta.schema:
            raise StorageError(f"unknown column {table}.{column}")
        dtype = stored.meta.schema[column]
        low = coerce_value(low, dtype) if low is not None else None
        high = coerce_value(high, dtype) if high is not None else None
        index = stored.secondary.get(column)
        if isinstance(index, SortedIndex):
            ids = sorted(index.range(low=low, high=high))
            return [self._decode_row(stored.meta, stored.rows[rid]) for rid in ids]
        out = []
        for _, row in sorted(stored.rows.items()):
            value = row.get(column)
            if value is None:
                continue
            if low is not None and value < low:  # type: ignore[operator]
                continue
            if high is not None and value > high:  # type: ignore[operator]
                continue
            out.append(self._decode_row(stored.meta, row))
        return out

    def row_count(self, table: str) -> int:
        """Number of live rows."""
        return len(self._stored(table).rows)

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return self.catalog.names()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _stored(self, table: str) -> _StoredTable:
        self.catalog.get(table)  # raises TableNotFoundError with known names
        return self._tables[table]

    @staticmethod
    def _decode_row(meta: TableMeta, row: dict[str, object]) -> dict[str, object]:
        """Storage representation → Python values (dates back to dates).

        Keeps point lookups consistent with ``scan()``, which decodes
        through the Table layer.
        """
        out = dict(row)
        for name, dtype in meta.schema.items():
            value = out.get(name)
            if value is not None and dtype is DType.DATE:
                out[name] = ordinal_to_date(int(value))  # type: ignore[arg-type]
        return out

    def _validate(
        self, meta: TableMeta, rows: "Table | Mapping[str, object]"
    ) -> tuple[dict[str, Column], list[dict[str, object]], dict[int, ReproError]]:
        """Check a batch column by column.

        Returns the schema's columns in storage types, one row dict per
        row built from them in bulk, and the error of every row that
        fails — the first a per-row check would raise: unknown columns,
        then, in schema order, a null in a not-null or key column or a
        value the column's dtype cannot hold.
        """
        if isinstance(rows, Table):
            n = rows.num_rows
            given: dict = {name: rows.column(name) for name in rows.column_names}
        else:
            n = 1
            given = {name: [value] for name, value in rows.items()}
        unknown = given.keys() - meta.schema.keys() - {"row_id"}
        if unknown:
            error = StorageError(
                f"unknown columns {sorted(unknown)} for table {meta.name!r}"
            )
            return {}, [], dict.fromkeys(range(n), error)
        errors: dict[int, ReproError] = {}
        columns: dict[str, Column] = {}
        for name, dtype in meta.schema.items():
            column = given.get(name)
            if column is None:
                column = Column.nulls(dtype, n)
            elif not (isinstance(column, Column) and column.dtype is dtype):
                column = self._coerce(column, dtype, errors)
            if name in meta.not_null or name == meta.primary_key:
                for i in np.flatnonzero(~column.valid).tolist():
                    errors.setdefault(
                        i,
                        IntegrityError(f"column {meta.name}.{name} may not be null"),
                    )
            columns[name] = column
        names = list(columns)
        lists = [_storage_list(column) for column in columns.values()]
        return columns, [dict(zip(names, row)) for row in zip(*lists)], errors

    @staticmethod
    def _coerce(
        values: "Column | list[object]", dtype: DType, errors: dict[int, ReproError]
    ) -> Column:
        """Per-value coercion of one column; a value that fails rejects its row."""
        if isinstance(values, Column):
            values = values.to_list()
        coerced = []
        for i, value in enumerate(values):
            try:
                coerced.append(coerce_value(value, dtype))
            except DTypeError as exc:
                errors.setdefault(i, exc)
                coerced.append(None)
        return Column.from_values(coerced, dtype)

    def _insert_batch(
        self,
        stored: _StoredTable,
        rows: "Table | Mapping[str, object]",
        row_ids: Sequence[int] | None,
        added: list[int],
    ) -> tuple[Table, Rejected]:
        """Validate a batch, then store or refuse each row in position order.

        Appends each stored row's id to ``added`` as it goes (the caller's
        undo reads it); returns the stored rows as typed columns and the
        refused positions with their errors.
        """
        columns, records, errors = self._validate(stored.meta, rows)
        pinned = None if row_ids is None else np.asarray(row_ids).tolist()
        kept: list[int] = []
        for i, row in enumerate(records):
            if i in errors:
                continue
            try:
                self._check_pk_unique(stored, row)
                self._check_foreign_keys(stored.meta, row)
            except ReproError as exc:
                errors[i] = exc
                continue
            if pinned is None:
                row_id = stored.next_row_id
            else:
                row_id = pinned[i]
                if row_id in stored.rows:
                    raise StorageError(
                        f"row id {row_id} already occupied in table "
                        f"{stored.meta.name!r}"
                    )
            stored.next_row_id = max(stored.next_row_id, row_id + 1)
            stored.rows[row_id] = row
            self._index_add(stored, row_id, row)
            added.append(row_id)
            kept.append(i)
        batch = Table(columns)
        if len(kept) < batch.num_rows:
            batch = batch.take(kept)
        return batch, sorted(errors.items())

    def _restore_block(self, block: ColumnBlock) -> None:
        """Load a snapshot's table block at its row ids.

        The same validated batch insert, outside any transaction and
        logging nothing: a generation is already durable.
        """
        _, rejected = self._insert_batch(
            self._stored(block.table), block.rows, block.row_ids, []
        )
        if rejected:
            raise rejected[0][1]

    def _check_pk_unique(self, stored: _StoredTable, row: dict[str, object]) -> None:
        if stored.pk_index is None:
            return
        key = row[stored.meta.primary_key]  # type: ignore[index]
        if stored.pk_index.lookup(key):
            raise IntegrityError(
                f"duplicate primary key {key!r} in table {stored.meta.name!r}"
            )

    def _check_foreign_keys(self, meta: TableMeta, row: dict[str, object]) -> None:
        for local, (ref_table, ref_col) in meta.foreign_keys.items():
            value = row.get(local)
            if value is None:
                continue
            referenced = self._stored(ref_table)
            if referenced.meta.primary_key == ref_col and referenced.pk_index:
                found = bool(referenced.pk_index.lookup(value))
            else:
                found = any(
                    r.get(ref_col) == value for r in referenced.rows.values()
                )
            if not found:
                raise IntegrityError(
                    f"{meta.name}.{local}={value!r} has no match in "
                    f"{ref_table}.{ref_col}"
                )

    def _index_add(self, stored: _StoredTable, row_id: int, row: dict) -> None:
        if stored.pk_index is not None:
            stored.pk_index.add(row[stored.meta.primary_key], row_id)
        for column, index in stored.secondary.items():
            index.add(row.get(column), row_id)

    def _index_remove(self, stored: _StoredTable, row_id: int, row: dict) -> None:
        if stored.pk_index is not None:
            stored.pk_index.remove(row[stored.meta.primary_key], row_id)
        for column, index in stored.secondary.items():
            index.remove(row.get(column), row_id)

    def _undo_inserts(self, stored: _StoredTable, row_ids: list[int]) -> None:
        for row_id in row_ids:
            row = stored.rows.pop(row_id, None)
            if row is not None:
                self._index_remove(stored, row_id, row)

    def _undo_update(self, stored: _StoredTable, row_id: int, old: dict) -> None:
        current = stored.rows.get(row_id)
        if current is not None:
            self._index_remove(stored, row_id, current)
        stored.rows[row_id] = old
        self._index_add(stored, row_id, old)

    def _undo_delete(self, stored: _StoredTable, row_id: int, old: dict) -> None:
        stored.rows[row_id] = old
        self._index_add(stored, row_id, old)


def replay_into(
    engine: StorageEngine, wal: WriteAheadLog, *, after_seq: int = 0
) -> int:
    """Re-apply committed WAL mutations with ``seq > after_seq`` to ``engine``.

    The engine must already have the schema (tables created).  Each
    logged transaction is re-applied as one engine transaction: an
    insert block goes through the same batch insert at its recorded row
    ids (which later update/delete records reference), so a replayed row
    is identical to the original write.  Returns the number of entries
    applied.  ``after_seq`` lets recovery skip entries already captured
    by a snapshot generation.
    """
    pending = (e for e in wal.committed_entries() if e.seq > after_seq)
    applied = 0
    for _, entries in itertools.groupby(pending, key=attrgetter("txn_id")):
        with engine.transaction():
            for entry in entries:
                if entry.op == OP_INSERT:
                    block = entry.payload
                    _, rejected = engine.insert(
                        entry.table, block.rows, row_ids=block.row_ids
                    )
                    if rejected:
                        raise rejected[0][1]
                elif entry.op == OP_UPDATE:
                    payload = dict(entry.payload)
                    engine.update(entry.table, payload.pop("row_id"), payload)
                elif entry.op == OP_DELETE:
                    engine.delete(entry.table, entry.payload["row_id"])
                applied += 1
    return applied
