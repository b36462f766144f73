"""The Table: an ordered mapping of equal-length typed columns."""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import (
    ColumnNotFoundError,
    LengthMismatchError,
    SchemaMismatchError,
)
from repro.tabular.column import Column
from repro.tabular.dtypes import DType
from repro.tabular.expressions import Expression
from repro.tabular.factorize import factorize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tabular.groupby import GroupBy


def _cells_by_column(
    rows: Sequence[Mapping[str, object]], names: Sequence[str]
) -> list[Sequence[object]]:
    """Transpose row dicts into one value sequence per name.

    One ``itemgetter`` pass per row when every row carries every name;
    a row with a missing key (it reads as null) takes the per-cell path.
    """
    if len(names) > 1 and rows:  # itemgetter of one name is not a tuple
        try:
            return list(zip(*map(itemgetter(*names), rows)))
        except KeyError:
            pass
    return [[row.get(name) for row in rows] for name in names]


class _LazyColumnLists(dict):
    """``name -> column.to_list()``, decoded the first time a row reads it."""

    def __init__(self, table: "Table"):
        super().__init__()
        self._table = table

    def __missing__(self, name: str) -> list[object]:
        values = self[name] = self._table.column(name).to_list()
        return values


class _RowView(Mapping):
    """Read-only dict view of one table row over lazily decoded columns."""

    __slots__ = ("_lists", "_names", "_index")

    def __init__(self, lists: _LazyColumnLists, names: list[str], index: int):
        self._lists = lists
        self._names = names
        self._index = index

    def __getitem__(self, name: str) -> object:
        return self._lists[name][self._index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


class Table:
    """An immutable columnar table.

    All operations return new tables; the underlying numpy arrays are shared
    where safe, so selection and filtering are cheap.  Row order is
    significant and preserved by every operation except ``sort_by``.
    """

    def __init__(self, columns: Mapping[str, Column]):
        lengths = {len(c) for c in columns.values()}
        if len(lengths) > 1:
            detail = ", ".join(f"{n}={len(c)}" for n, c in columns.items())
            raise LengthMismatchError(f"columns differ in length: {detail}")
        self._columns: dict[str, Column] = dict(columns)
        self._length = lengths.pop() if lengths else 0
        self._schema: dict[str, DType] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, schema: Mapping[str, DType | str]) -> "Table":
        """A zero-row table with the given column types."""
        return cls(
            {name: Column.from_values([], dtype=dt) for name, dt in schema.items()}
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Mapping[str, object]],
        schema: Mapping[str, DType | str] | None = None,
    ) -> "Table":
        """Build a table from a list of dict rows.

        Column order follows ``schema`` when given, otherwise first-seen
        order across the rows.  Missing keys become nulls; with an explicit
        schema, keys outside it raise :class:`SchemaMismatchError`.
        """
        if schema is not None:
            names = list(schema)
            allowed = schema.keys()
            for i, row in enumerate(rows):
                if not row.keys() <= allowed:
                    extra = sorted(set(row) - set(allowed))
                    raise SchemaMismatchError(
                        f"row {i} has columns outside the schema: {extra}"
                    )
            dtypes = [schema[name] for name in names]
        else:
            names = []
            seen = set()
            for row in rows:
                for key in row:
                    if key not in seen:
                        seen.add(key)
                        names.append(key)
            dtypes = [None] * len(names)
        columns = {
            name: Column.from_values(cells, dtype=dtype)
            for name, dtype, cells in zip(
                names, dtypes, _cells_by_column(rows, names)
            )
        }
        return cls(columns)

    @classmethod
    def from_columns(
        cls,
        data: Mapping[str, Iterable[object]],
        schema: Mapping[str, DType | str] | None = None,
    ) -> "Table":
        """Build a table from column-name → values, with optional dtypes."""
        columns = {}
        for name, values in data.items():
            dtype = schema.get(name) if schema else None
            columns[name] = Column.from_values(values, dtype=dtype)
        return cls(columns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Row count."""
        return self._length

    @property
    def column_names(self) -> list[str]:
        """Column names in order."""
        return list(self._columns)

    @property
    def schema(self) -> dict[str, DType]:
        """Column name → logical type (a fresh dict; the table is immutable)."""
        if self._schema is None:
            self._schema = {name: c.dtype for name, c in self._columns.items()}
        return dict(self._schema)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def column(self, name: str) -> Column:
        """Fetch one column, with a helpful error when absent."""
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name, self.column_names) from None

    def row(self, index: int) -> dict[str, object]:
        """Materialise one row as a dict (``None`` for nulls)."""
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"row {index} out of range for {self._length} rows")
        return {name: c.value(index) for name, c in self._columns.items()}

    def iter_rows(self) -> Iterator[dict[str, object]]:
        """Iterate rows as dicts (one bulk decode per column, then a zip)."""
        names = list(self._columns)
        for values in zip(*(c.to_list() for c in self._columns.values())):
            yield dict(zip(names, values))

    def iter_row_views(self) -> Iterator[Mapping[str, object]]:
        """Iterate rows as read-only mappings over lazily decoded columns.

        For consumers that read a few attributes of every row: a column
        is decoded the first time any row reads it, and never otherwise.
        """
        lists = _LazyColumnLists(self)
        names = list(self._columns)
        for i in range(self._length):
            yield _RowView(lists, names, i)

    def to_rows(self) -> list[dict[str, object]]:
        """All rows as a list of dicts."""
        return list(self.iter_rows())

    def equals(self, other: "Table") -> bool:
        """True when schemas, row order and all values match."""
        return (
            self.column_names == other.column_names
            and all(
                self._columns[n] == other._columns[n] for n in self._columns
            )
        )

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{n}:{c.dtype.value}" for n, c in list(self._columns.items())[:8]
        )
        more = ", ..." if len(self._columns) > 8 else ""
        return f"Table({self._length} rows; {cols}{more})"

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------

    def filter(self, predicate: Expression | np.ndarray) -> "Table":
        """Rows where ``predicate`` holds (expression or boolean mask)."""
        if isinstance(predicate, Expression):
            mask = predicate.evaluate(self)
        else:
            mask = np.asarray(predicate, dtype=bool)
            if len(mask) != self._length:
                raise LengthMismatchError(
                    f"mask of length {len(mask)} applied to {self._length} rows"
                )
        return Table({n: c.mask(mask) for n, c in self._columns.items()})

    def take(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """Gather rows by position (allows reordering and duplication)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Table({n: c.take(idx) for n, c in self._columns.items()})

    def scan(self, predicate: "Expression | None" = None) -> "Iterator[Table]":
        """Iterate matching rows chunk by chunk (the scan/storage API).

        A plain table is a single chunk, so this yields one filtered
        table; partition-aware holders of the same contract
        (:meth:`repro.storage.columnar.store.PartitionedStore.scan`,
        ``Cube.scan``) yield one chunk per surviving partition segment.
        Writing consumers against ``scan()`` instead of ad-hoc
        ``filter()`` calls lets them run unchanged over both layouts.
        """
        yield self if predicate is None else self.filter(predicate)

    def head(self, n: int = 5) -> "Table":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self._length)))

    def sort_by(self, *names: str, descending: bool = False) -> "Table":
        """Stable sort by one or more columns (nulls last)."""
        if not names:
            return self
        order = np.arange(self._length)
        # numpy lexsort sorts by the last key first, so iterate reversed.
        for name in reversed(names):
            column = self.column(name)
            keys = column.data[order]
            valid = column.valid[order]
            if column.dtype is DType.STR:
                sortable = np.array(
                    [("" if not ok else str(v)) for v, ok in zip(keys, valid)],
                    dtype=object,
                )
                within = np.argsort(sortable, kind="stable")
            else:
                within = np.argsort(keys, kind="stable")
            if descending:
                within = within[::-1]
            # push nulls to the end regardless of direction
            sorted_valid = valid[within]
            within = np.concatenate([within[sorted_valid], within[~sorted_valid]])
            order = order[within]
        return self.take(order)

    def append(self, other: "Table") -> "Table":
        """Concatenate another table below (schemas must match exactly)."""
        if self.column_names != other.column_names or self.schema != other.schema:
            raise SchemaMismatchError(
                f"cannot append table with schema {other.schema} "
                f"onto schema {self.schema}"
            )
        return Table(
            {n: self._columns[n].concat(other._columns[n]) for n in self._columns}
        )

    @classmethod
    def concat_all(cls, tables: Sequence["Table"]) -> "Table":
        """Concatenate many same-schema tables in one pass.

        Equivalent to folding :meth:`append` left to right, but each
        column's buffers are joined with a single ``np.concatenate`` —
        O(total) instead of O(parts · total).  This is what materialises
        a lazily-extended epoch's flat view (see ``CubeState``).
        """
        if not tables:
            raise SchemaMismatchError("concat_all needs at least one table")
        first = tables[0]
        if len(tables) == 1:
            return first
        for other in tables[1:]:
            if (
                other.column_names != first.column_names
                or other.schema != first.schema
            ):
                raise SchemaMismatchError(
                    f"cannot concat table with schema {other.schema} "
                    f"onto schema {first.schema}"
                )
        return cls(
            {
                name: Column(
                    first._columns[name].dtype,
                    np.concatenate([t._columns[name].data for t in tables]),
                    np.concatenate([t._columns[name].valid for t in tables]),
                )
                for name in first.column_names
            }
        )

    def distinct(self, *names: str) -> "Table":
        """Rows with the first occurrence of each distinct key combination.

        With no names, full rows are deduplicated.
        """
        keys = list(names) if names else self.column_names
        if not keys:
            return self  # zero-column table: nothing to deduplicate
        # first-occurrence rows come out of factorisation already ascending
        return self.take(factorize(self, keys).first_rows)

    # ------------------------------------------------------------------
    # Column operations
    # ------------------------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Keep only the named columns, in the given order."""
        return Table({n: self.column(n) for n in names})

    def drop(self, *names: str) -> "Table":
        """Remove the named columns (each must exist)."""
        for n in names:
            self.column(n)  # raise if absent
        dropped = set(names)
        return Table(
            {n: c for n, c in self._columns.items() if n not in dropped}
        )

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns; keys not present raise."""
        for old in mapping:
            self.column(old)
        return Table(
            {mapping.get(n, n): c for n, c in self._columns.items()}
        )

    def with_column(
        self,
        name: str,
        values: Column | Iterable[object],
        dtype: DType | str | None = None,
    ) -> "Table":
        """Add or replace a column (length must match)."""
        if isinstance(values, Column):
            column = values
        else:
            column = Column.from_values(values, dtype=dtype)
        if self._columns and len(column) != self._length:
            raise LengthMismatchError(
                f"new column {name!r} has {len(column)} values, table has "
                f"{self._length} rows"
            )
        columns = dict(self._columns)
        columns[name] = column
        return Table(columns)

    def with_derived(self, name: str, func, dtype: DType | str | None = None) -> "Table":
        """Add a column computed from each row via ``func(row)``.

        ``row`` is a read-only mapping of the row's values; only the
        columns ``func`` actually reads are decoded, so deriving from a
        few attributes of a wide table costs those attributes.
        """
        values = [func(row) for row in self.iter_row_views()]
        return self.with_column(name, values, dtype=dtype)

    # ------------------------------------------------------------------
    # Aggregation entry point
    # ------------------------------------------------------------------

    def groupby(self, *keys: str) -> "GroupBy":
        """Start a group-by over the given key columns."""
        from repro.tabular.groupby import GroupBy

        return GroupBy(self, list(keys))

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------

    def describe(self) -> "Table":
        """Per-column summary statistics.

        Numeric columns get count/nulls/mean/std/min/max; other columns get
        count/nulls/distinct plus the modal value.  One row per column —
        the first thing an analyst prints against an unfamiliar extract.
        """
        rows = []
        for name, column in self._columns.items():
            row: dict[str, object] = {
                "column": name,
                "dtype": column.dtype.value,
                "count": column.count(),
                "nulls": column.null_count,
                "distinct": column.n_unique(),
                "mean": None,
                "std": None,
                "min": None,
                "max": None,
                "mode": None,
            }
            if column.dtype.is_numeric:
                row["mean"] = column.mean()
                row["std"] = column.std()
                row["min"] = column.min()
                row["max"] = column.max()
            else:
                counts = column.value_counts()
                if counts:
                    peak = max(counts.values())
                    row["mode"] = str(
                        min(k for k, v in counts.items() if v == peak)
                    )
                if column.dtype is not DType.BOOL:
                    row["min"] = None if column.dtype is DType.STR else row["min"]
            rows.append(row)
        schema = {
            "column": "str", "dtype": "str", "count": "int", "nulls": "int",
            "distinct": "int", "mean": "float", "std": "float",
            "min": "float", "max": "float", "mode": "str",
        }
        # min/max of non-numeric columns do not fit the float schema; drop
        for row in rows:
            if not isinstance(row["min"], (int, float)) or isinstance(row["min"], bool):
                row["min"] = None
            if not isinstance(row["max"], (int, float)) or isinstance(row["max"], bool):
                row["max"] = None
        return Table.from_rows(rows, schema=schema)

    def to_text(self, max_rows: int = 20) -> str:
        """Plain-text rendering for terminals and logs."""
        names = self.column_names
        if not names:
            return "(empty table)"
        shown = min(self._length, max_rows)
        cells = [[str(self._columns[n].value(i)) for n in names] for i in range(shown)]
        widths = [
            max(len(n), *(len(row[j]) for row in cells)) if cells else len(n)
            for j, n in enumerate(names)
        ]
        lines = [
            " | ".join(n.ljust(w) for n, w in zip(names, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        if shown < self._length:
            lines.append(f"... ({self._length - shown} more rows)")
        return "\n".join(lines)
