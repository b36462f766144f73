"""Fact tables: measures at a declared grain, keyed to dimensions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import GrainViolationError, UnknownMeasureError, WarehouseError
from repro.tabular.dtypes import DType
from repro.tabular.table import Table


@dataclass(frozen=True)
class Measure:
    """A numeric measure with its natural aggregation.

    ``additive`` marks measures that can be summed across every dimension
    (counts, totals); semi-additive quantities (levels, readings such as
    blood glucose) should aggregate by mean/min/max instead, and ``sum``
    over them is refused by the OLAP layer unless explicitly forced.
    """

    name: str
    dtype: DType = DType.FLOAT
    default_aggregation: str = "mean"
    additive: bool = False

    @classmethod
    def of(
        cls,
        name: str,
        dtype: DType | str = DType.FLOAT,
        default_aggregation: str = "mean",
        additive: bool = False,
    ) -> "Measure":
        """Build with dtype coercion and sanity checks."""
        resolved = DType.coerce(dtype)
        if not resolved.is_numeric:
            raise WarehouseError(
                f"measure {name!r} must be numeric, got {resolved.value}"
            )
        return cls(name, resolved, default_aggregation, additive)


class FactTable:
    """Rows of measures keyed by one surrogate key per dimension.

    The *grain* is the list of dimension names: one fact row per unique
    combination of business events at that granularity (for DiScRi: one row
    per medical measurement record per visit).
    """

    def __init__(self, name: str, dimension_names: list[str],
                 measures: Iterable[Measure]):
        if not dimension_names:
            raise WarehouseError(f"fact table {name!r} declared without dimensions")
        self.name = name
        self.dimension_names = list(dimension_names)
        self.measures: dict[str, Measure] = {m.name: m for m in measures}
        if not self.measures:
            raise WarehouseError(f"fact table {name!r} declared without measures")
        overlap = set(self.key_columns) & set(self.measures)
        if overlap:
            raise WarehouseError(
                f"fact table {name!r}: names {sorted(overlap)} are both keys "
                "and measures"
            )
        self._rows: list[dict[str, object]] = []
        self._cache: Table | None = None

    @property
    def key_columns(self) -> list[str]:
        """Surrogate-key column names, one per dimension in grain order."""
        return [f"{name}_key" for name in self.dimension_names]

    @property
    def num_rows(self) -> int:
        """Number of fact rows."""
        return len(self._rows)

    def measure(self, name: str) -> Measure:
        """Look up a measure definition."""
        try:
            return self.measures[name]
        except KeyError:
            raise UnknownMeasureError(
                f"fact table {self.name!r} has no measure {name!r} "
                f"(has: {', '.join(self.measures)})"
            ) from None

    def insert(self, keys: Mapping[str, int], values: Mapping[str, object]) -> None:
        """Append one fact row.

        ``keys`` must provide a surrogate key for *every* dimension in the
        grain — a missing key is a grain violation, not a default.  Unknown
        members are expressed explicitly with ``UNKNOWN_KEY``.
        """
        row: dict[str, object] = {}
        for dim_name, key_col in zip(self.dimension_names, self.key_columns):
            if dim_name not in keys:
                raise GrainViolationError(
                    f"fact row for {self.name!r} is missing the key for "
                    f"dimension {dim_name!r} (grain: {self.dimension_names})"
                )
            row[key_col] = int(keys[dim_name])
        unknown = set(values) - set(self.measures)
        if unknown:
            raise GrainViolationError(
                f"fact row for {self.name!r} carries unknown measures "
                f"{sorted(unknown)}"
            )
        for measure_name in self.measures:
            row[measure_name] = values.get(measure_name)
        self._rows.append(row)
        self._cache = None

    def insert_many(
        self, rows: Iterable[tuple[Mapping[str, int], Mapping[str, object]]]
    ) -> int:
        """Append many (keys, values) fact rows; returns how many."""
        count = 0
        for keys, values in rows:
            self.insert(keys, values)
            count += 1
        return count

    def _table_schema(self) -> dict[str, DType | str]:
        schema: dict[str, DType | str] = {k: DType.INT for k in self.key_columns}
        schema.update({m.name: m.dtype for m in self.measures.values()})
        return schema

    def to_table(self) -> Table:
        """Materialise facts as a table (cached until the next insert)."""
        if self._cache is None:
            self._cache = Table.from_rows(self._rows, schema=self._table_schema())
        return self._cache

    def to_table_from(self, start: int) -> Table:
        """Materialise only the fact rows appended at position ``start`` on.

        The appended-row extraction behind incremental maintenance: a
        delta load remembers ``num_rows`` before inserting, then flattens
        just this slice.  Uncached — delta slices are small and transient.
        """
        if not 0 <= start <= len(self._rows):
            raise WarehouseError(
                f"fact slice start {start} out of range "
                f"(0..{len(self._rows)})"
            )
        return Table.from_rows(self._rows[start:], schema=self._table_schema())

    def add_dimension_column(
        self, dim_name: str, default_key: int, position: int | None = None
    ) -> None:
        """Extend the grain with a new dimension (dynamic model support).

        Existing rows get ``default_key`` — typically ``UNKNOWN_KEY`` or a
        member that means "not yet assessed".  The dimension joins the
        grain last, or at ``position`` (re-attaching a removed one where
        it was).
        """
        if dim_name in self.dimension_names:
            raise WarehouseError(
                f"fact table {self.name!r} already has dimension {dim_name!r}"
            )
        key_col = f"{dim_name}_key"
        for row in self._rows:
            row[key_col] = int(default_key)
        if position is None:
            position = len(self.dimension_names)
        self.dimension_names.insert(position, dim_name)
        self._cache = None

    def drop_dimension_column(self, dim_name: str) -> None:
        """Remove a dimension from the grain (dynamic model support)."""
        if dim_name not in self.dimension_names:
            raise WarehouseError(
                f"fact table {self.name!r} has no dimension {dim_name!r}"
            )
        if len(self.dimension_names) == 1:
            raise WarehouseError(
                f"cannot drop the last dimension of fact table {self.name!r}"
            )
        key_col = f"{dim_name}_key"
        for row in self._rows:
            row.pop(key_col, None)
        self.dimension_names.remove(dim_name)
        self._cache = None

    def __repr__(self) -> str:
        return (
            f"FactTable({self.name!r}, {self.num_rows} rows, "
            f"grain={self.dimension_names}, measures=[{', '.join(self.measures)}])"
        )
