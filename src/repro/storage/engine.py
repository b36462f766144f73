"""The embedded storage engine: tables, CRUD, transactions, indexes."""

from __future__ import annotations

import bisect
import itertools
from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

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
from repro.storage.index import HashIndex
from repro.storage.wal import OP_DELETE, OP_INSERT, OP_UPDATE, WriteAheadLog
from repro.tabular.column import Column
from repro.tabular.dtypes import NULL_SENTINELS, DType, coerce_value
from repro.tabular.table import Table

#: ``(position in the batch, error)`` for each row an insert refused
Rejected = list[tuple[int, ReproError]]


def _storage_list(column: Column) -> list[object]:
    """Storage values of a column: ``None`` for nulls, dates as ordinals."""
    if column.dtype is DType.DATE:
        column = Column(DType.INT, column.data, column.valid)
    return column.to_list()


def _stored_form(rows: Table) -> Table:
    """``rows`` as a chunk keeps them: storage arrays, sentinels at nulls.

    What a null slot's data holds is otherwise up to whoever built the
    column; a chunk pins it so a snapshot of the same rows is the same
    bytes however they arrived.
    """
    columns = {}
    for name in rows.column_names:
        column = rows.column(name)
        data = column.data.astype(column.dtype.numpy_dtype, copy=False)
        if not column.valid.all():
            data = data.copy()
            data[~column.valid] = NULL_SENTINELS[column.dtype]
        columns[name] = (
            column if data is column.data
            else Column(column.dtype, data, column.valid)
        )
    return Table(columns)


class _Chunks:
    """A table's rows as immutable column chunks, in append order.

    A chunk is a :class:`ColumnBlock` — accepted rows as a :class:`Table`
    plus their int64 row ids.  Positions number the rows of all chunks in
    append order; ``where`` maps each live row id to its position and
    ``retired`` holds the positions of deleted rows and of rows an update
    superseded.
    """

    def __init__(self) -> None:
        self.blocks: list[ColumnBlock] = []
        #: position of each chunk's first row
        self.starts: list[int] = []
        self.size = 0
        self.where: dict[int, int] = {}
        self.retired: set[int] = set()

    def locate(self, position: int) -> tuple[ColumnBlock, int]:
        """The chunk holding ``position`` and the row's index in it."""
        i = bisect.bisect_right(self.starts, position) - 1
        return self.blocks[i], position - self.starts[i]

    def append(self, block: ColumnBlock) -> None:
        start = self.size
        self.size += len(block.row_ids)
        self.blocks.append(block)
        self.starts.append(start)
        self.where.update(zip(block.row_ids.tolist(), range(start, self.size)))

    def pop(self) -> ColumnBlock:
        """Remove the newest chunk (its rows are all live)."""
        block = self.blocks.pop()
        self.size = self.starts.pop()
        for row_id in block.row_ids.tolist():
            del self.where[row_id]
        return block


class _StoredTable:
    """One table: its rows (:class:`_Chunks`), ``pk`` mapping each primary
    key to its row id, and the secondary hash indexes.

    Chunks are never mutated: a delete retires a row's position, an
    update retires it and appends a one-row chunk at the same row id.
    Readers take ``self.rows`` once and use only that layout; a commit
    replaces it whole (:meth:`compact`), so a read never sees a
    half-replaced one.
    """

    def __init__(self, meta: TableMeta):
        self.meta = meta
        self.rows = _Chunks()
        self.next_row_id = 0
        self.pk: dict[object, int] = {}
        self.secondary: dict[str, HashIndex] = {}

    def position(self, row_id: int, rows: _Chunks | None = None) -> int:
        try:
            return (self.rows if rows is None else rows).where[row_id]
        except KeyError:
            raise StorageError(
                f"row {row_id} not found in table {self.meta.name!r}"
            ) from None

    def add(self, row_ids: list[int], rows: Table) -> None:
        """Store ``rows`` at ``row_ids`` as a new chunk and index them."""
        block = ColumnBlock(
            self.meta.name, np.asarray(row_ids, dtype=np.int64), _stored_form(rows)
        )
        self.rows.append(block)
        self.index(row_ids, block.rows, add=True)

    def drop_newest(self, row_ids: list[int]) -> None:
        """Undo of :meth:`add`: the chunk holding ``row_ids`` is the newest."""
        if row_ids:
            self.index(row_ids, self.rows.pop().rows, add=False)

    def retire(self, row_id: int) -> None:
        position = self.rows.where.pop(row_id)
        self.rows.retired.add(position)
        self.index([row_id], self._keyed_row(position), add=False)

    def revive(self, row_id: int, position: int) -> None:
        self.rows.where[row_id] = position
        self.rows.retired.discard(position)
        self.index([row_id], self._keyed_row(position), add=True)

    def index(self, row_ids: list[int], rows: Table, *, add: bool) -> None:
        """Enter (or remove) ``rows`` in the primary-key and secondary
        indexes, reading only the keyed columns."""
        pk = self.meta.primary_key
        if pk:
            keys = _storage_list(rows.column(pk))
            if add:
                self.pk.update(zip(keys, row_ids))
            else:
                for key in keys:
                    del self.pk[key]
        for column, index in self.secondary.items():
            values = _storage_list(rows.column(column))
            if add:
                index.add_many(values, row_ids)
            else:
                for value, row_id in zip(values, row_ids):
                    index.remove(value, row_id)

    def _keyed_row(self, position: int) -> Table:
        block, i = self.rows.locate(position)
        keyed = [self.meta.primary_key] if self.meta.primary_key else []
        return Table(
            {c: block.rows.column(c).take([i]) for c in keyed + list(self.secondary)}
        )

    def row(self, row_id: int) -> dict[str, object] | None:
        """The live row ``row_id`` as a mapping (``None`` once deleted)."""
        rows = self.rows
        position = rows.where.get(row_id)
        if position is None:
            return None
        block, i = rows.locate(position)
        return block.rows.row(i)

    def gather(self, row_ids: Iterable[int]) -> Table:
        """The live rows ``row_ids``, in that order."""
        rows = self.rows
        positions = [self.position(row_id, rows) for row_id in row_ids]
        if not positions:
            return Table.empty(self.meta.schema)
        pos = np.asarray(positions, dtype=np.int64)
        first = bisect.bisect_right(rows.starts, int(pos.min())) - 1
        last = bisect.bisect_right(rows.starts, int(pos.max()))
        table = Table.concat_all([b.rows for b in rows.blocks[first:last]])
        local = pos - rows.starts[first]
        if len(local) == table.num_rows and (local == np.arange(len(local))).all():
            return table
        return table.take(local)

    def fold(self) -> tuple[ColumnBlock, bool]:
        """Every live row in row-id order, as one chunk — and whether any
        row's position moved (a retired row dropped, or rows reordered)."""
        rows = self.rows
        if not rows.blocks:
            empty = ColumnBlock(
                self.meta.name, np.empty(0, dtype=np.int64),
                Table.empty(self.meta.schema),
            )
            return empty, False
        ids = np.concatenate([b.row_ids for b in rows.blocks])
        order = None  # every position, in append order
        if rows.retired:
            order = np.delete(np.arange(rows.size), list(rows.retired))
        live = ids if order is None else ids[order]
        if len(live) > 1 and not (np.diff(live) > 0).all():
            by_id = np.argsort(live, kind="stable")
            order = by_id if order is None else order[by_id]
        if order is None and len(rows.blocks) == 1:
            return rows.blocks[0], False
        table = Table.concat_all([b.rows for b in rows.blocks])
        if order is None:
            return ColumnBlock(self.meta.name, ids, table), False
        return ColumnBlock(self.meta.name, ids[order], table.take(order)), True

    def compact(self) -> None:
        """Replace the chunks by their :meth:`fold`, in one assignment.

        Run between transactions only: inside one, undo still addresses
        the old positions.  Where no position moved, the id → position
        map carries over as it is.
        """
        rows = self.rows
        if len(rows.blocks) < 2 and not rows.retired:
            return
        block, moved = self.fold()
        folded = _Chunks()
        if moved:
            folded.append(block)
        else:
            folded.blocks, folded.starts = [block], [0]
            folded.size, folded.where = rows.size, rows.where
        self.rows = folded


class StorageEngine:
    """A small single-process database with transactional column storage.

    Each table keeps its rows as the typed column chunks its inserts
    validated and logged — no per-row dicts: a full :meth:`scan` folds
    the chunks into one :class:`Table` in row-id order, a
    ``scan(row_ids=...)`` is a ``take``, and point lookups decode only
    the rows they return.  Reads change nothing; each commit folds the
    tables it left in several chunks back into one, so the chunk count
    never grows with the batch count.  Chunks are never written in
    place, so a table a scan returned stays valid after later writes.
    Mutations must run inside :meth:`transaction`; reads may run any
    time.  Rollback undoes every mutation of the failed transaction (it
    drops the chunks the transaction appended and revives the rows it
    retired), and the WAL records committed mutations for
    :func:`replay_into` recovery.
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

    def create_index(self, table: str, column: str) -> None:
        """Build a secondary hash index over existing and future rows."""
        stored = self._stored(table)
        if column not in stored.meta.schema:
            raise StorageError(f"cannot index unknown column {table}.{column}")
        if column in stored.secondary:
            raise StorageError(f"index on {table}.{column} already exists")
        block, _ = stored.fold()
        index = HashIndex(column)
        index.add_many(
            _storage_list(block.rows.column(column)), block.row_ids.tolist()
        )
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
        for stored in self._tables.values():
            stored.compact()

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
        stores become one chunk of the table and are logged together as
        one column-block WAL record.

        ``row_ids`` pins the internal ids instead of allocating the next
        ones — used by WAL replay so that physical row ids (which later
        update/delete records reference) are identical after recovery.
        """
        txn = self._require_txn()
        stored = self._stored(table)
        added: list[int] = []
        # Undo is registered before the WAL append so a failed append (e.g.
        # an injected fault) still rolls these rows back with the transaction.
        self._undo.append(lambda: stored.drop_newest(added))
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
        position = stored.position(row_id)
        block, i = stored.rows.locate(position)
        merged = block.rows.row(i)
        merged.update(changes)
        columns, errors = self._validate(stored.meta, merged)
        if errors:
            raise errors[0]
        clean = {name: _storage_list(c)[0] for name, c in columns.items()}
        pk = stored.meta.primary_key
        if pk and stored.pk.get(clean[pk], row_id) != row_id:
            raise IntegrityError(
                f"duplicate primary key {clean[pk]!r} in table {table!r}"
            )
        self._check_foreign_keys(stored.meta, clean)
        stored.retire(row_id)
        self._undo.append(lambda: stored.revive(row_id, position))
        stored.add([row_id], Table(columns))
        self._undo.append(lambda: stored.drop_newest([row_id]))
        self.wal.append(txn, OP_UPDATE, table, {"row_id": row_id, **clean})

    def update_by_pk(
        self, table: str, key: object, changes: Mapping[str, object]
    ) -> None:
        """Apply a partial update to the row with primary key ``key``."""
        self.update(table, self._row_id_by_pk(table, key), changes)

    def delete(self, table: str, row_id: int) -> None:
        """Delete one row by id."""
        txn = self._require_txn()
        stored = self._stored(table)
        position = stored.position(row_id)
        stored.retire(row_id)
        self._undo.append(lambda: stored.revive(row_id, position))
        self.wal.append(txn, OP_DELETE, table, {"row_id": row_id})

    def delete_by_pk(self, table: str, key: object) -> None:
        """Delete the row with primary key ``key``."""
        self.delete(table, self._row_id_by_pk(table, key))

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
            return stored.fold()[0].rows
        return stored.gather(row_ids)

    def has_pk(self, table: str, key: object) -> bool:
        """Whether a row with this primary key exists (an index probe).

        A key the primary-key column cannot hold is not present.
        """
        return self._pk_lookup(self._stored(table), key) is not None

    def get_by_pk(self, table: str, key: object) -> dict[str, object] | None:
        """Point lookup through the primary-key index."""
        stored = self._stored(table)
        row_id = self._pk_lookup(stored, key)
        return None if row_id is None else stored.row(row_id)

    def find(self, table: str, column: str, value: object) -> list[dict[str, object]]:
        """Equality lookup, via a secondary index when one exists."""
        stored = self._stored(table)
        if column not in stored.meta.schema:
            raise StorageError(f"unknown column {table}.{column}")
        value = coerce_value(value, stored.meta.schema[column])
        index = stored.secondary.get(column)
        if index is not None:
            return stored.gather(sorted(index.lookup(value))).to_rows()
        rows = stored.fold()[0].rows
        found = rows.column(column)
        if value is None:
            mask = ~found.valid
        else:
            mask = found.valid & (found.data == value)
        return rows.filter(mask).to_rows()

    def row_count(self, table: str) -> int:
        """Number of live rows."""
        return len(self._stored(table).rows.where)

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return self.catalog.names()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _stored(self, table: str) -> _StoredTable:
        self.catalog.get(table)  # raises TableNotFoundError with known names
        return self._tables[table]

    def _block(self, table: str) -> ColumnBlock:
        """Live rows in row-id order with their ids: a snapshot's table file."""
        return self._stored(table).fold()[0]

    def _pk_lookup(self, stored: _StoredTable, key: object) -> int | None:
        pk = stored.meta.primary_key
        if pk is None:
            raise StorageError(f"table {stored.meta.name!r} has no primary key")
        try:
            key = coerce_value(key, stored.meta.schema[pk])
        except DTypeError:
            return None
        return stored.pk.get(key)

    def _row_id_by_pk(self, table: str, key: object) -> int:
        row_id = self._pk_lookup(self._stored(table), key)
        if row_id is None:
            raise StorageError(
                f"no row with primary key {key!r} in table {table!r}"
            )
        return row_id

    def _validate(
        self, meta: TableMeta, rows: "Table | Mapping[str, object]"
    ) -> tuple[dict[str, Column], dict[int, ReproError]]:
        """Check a batch column by column.

        Returns the schema's columns in storage types and the error of
        every row that fails — the first a per-row check would raise:
        unknown columns, then, in schema order, a null in a not-null or
        key column or a value the column's dtype cannot hold.
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
            return {}, dict.fromkeys(range(n), error)
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
        return columns, errors

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
        """Validate a batch, decide each row in position order, store a chunk.

        Only the key and foreign-key columns are read per row.  The
        accepted rows become one chunk and their ids are appended to
        ``added`` (the caller's undo reads it); returns the accepted rows
        as typed columns and the refused positions with their errors.
        Nothing is stored unless every decision succeeded.
        """
        meta = stored.meta
        columns, errors = self._validate(meta, rows)
        if not columns:
            return Table({}), sorted(errors.items())
        batch = Table(columns)
        pk = meta.primary_key
        keys = _storage_list(columns[pk]) if pk else None
        references = {
            local: _storage_list(columns[local]) for local in meta.foreign_keys
        }
        pinned = None if row_ids is None else np.asarray(row_ids).tolist()
        kept: list[int] = []
        ids: list[int] = []
        batch_pk: dict[object, int] = {}
        taken: set[int] = set()
        next_row_id = stored.next_row_id
        for i in range(batch.num_rows):
            if i in errors:
                continue
            try:
                if keys is not None and (
                    keys[i] in stored.pk or keys[i] in batch_pk
                ):
                    raise IntegrityError(
                        f"duplicate primary key {keys[i]!r} in table "
                        f"{meta.name!r}"
                    )
                if references:
                    self._check_foreign_keys(
                        meta,
                        {local: values[i] for local, values in references.items()},
                        batch_pk,
                    )
            except ReproError as exc:
                errors[i] = exc
                continue
            if pinned is None:
                row_id = next_row_id
                next_row_id += 1
            else:
                row_id = pinned[i]
                if row_id in stored.rows.where or row_id in taken:
                    raise StorageError(
                        f"row id {row_id} already occupied in table "
                        f"{meta.name!r}"
                    )
                taken.add(row_id)
            if keys is not None:
                batch_pk[keys[i]] = row_id
            kept.append(i)
            ids.append(row_id)
        if len(kept) < batch.num_rows:
            batch = batch.take(kept)
        if ids:
            stored.add(ids, batch)
            stored.next_row_id = max(next_row_id, max(ids) + 1)
            added.extend(ids)
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

    def _check_foreign_keys(
        self,
        meta: TableMeta,
        row: Mapping[str, object],
        pending: Container[object] = (),
    ) -> None:
        """Every non-null foreign key of ``row`` names a stored row.

        ``pending`` holds the keys accepted earlier in the same batch,
        which a reference into the table's own primary key may name.
        """
        for local, (ref_table, ref_col) in meta.foreign_keys.items():
            value = row.get(local)
            if value is None:
                continue
            referenced = self._stored(ref_table)
            if referenced.meta.primary_key == ref_col:
                found = value in referenced.pk or (
                    ref_table == meta.name and value in pending
                )
            else:
                column = referenced.fold()[0].rows.column(ref_col)
                found = value in _storage_list(column)
            if not found:
                raise IntegrityError(
                    f"{meta.name}.{local}={value!r} has no match in "
                    f"{ref_table}.{ref_col}"
                )


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
