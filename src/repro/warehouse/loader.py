"""Loading transformed source tables into a star schema.

The loader owns the mechanical part of dimensional design: given a wide,
cleaned source table and a declaration of which columns feed which
dimension, it populates dimension members, resolves surrogate keys and
appends fact rows — the "uploaded into the warehouse" step of paper §IV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import ReproError, WarehouseError
from repro.etl.quarantine import divert
from repro.tabular.table import Table
from repro.warehouse.dimension import UNKNOWN_KEY, Dimension
from repro.warehouse.fact import FactTable, Measure
from repro.warehouse.star import StarSchema


@dataclass
class DimensionSpec:
    """How one dimension is fed from source columns.

    ``columns`` maps dimension attribute → source column (identity mapping
    when given as a plain list).
    """

    dimension: Dimension
    columns: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.columns:
            self.columns = {attr: attr for attr in self.dimension.attributes}
        unknown = set(self.columns) - set(self.dimension.attributes)
        if unknown:
            raise WarehouseError(
                f"spec for dimension {self.dimension.name!r} maps unknown "
                f"attributes {sorted(unknown)}"
            )

    def member_row(self, source_row: Mapping[str, object]) -> dict[str, object]:
        """Extract this dimension's attribute values from a source row."""
        return {
            attr: source_row.get(source_col)
            for attr, source_col in self.columns.items()
        }


@dataclass
class LoadReport:
    """What a load run did."""

    facts_loaded: int = 0
    members_per_dimension: dict[str, int] = field(default_factory=dict)
    unknown_keys_per_dimension: dict[str, int] = field(default_factory=dict)
    rows_quarantined: int = 0
    #: positions (in the loaded source table) of the quarantined rows
    quarantined_indices: list[int] = field(default_factory=list)

    def summary(self) -> str:
        """One-line recap."""
        dims = ", ".join(
            f"{name}={count}" for name, count in sorted(self.members_per_dimension.items())
        )
        text = f"{self.facts_loaded} facts; members: {dims}"
        if self.rows_quarantined:
            text += f"; quarantined {self.rows_quarantined} rows"
        return text


class WarehouseLoader:
    """Populates a star schema from wide source tables."""

    def __init__(
        self,
        schema_name: str,
        fact_name: str,
        dimension_specs: Iterable[DimensionSpec],
        measures: Iterable[Measure],
        measure_columns: Mapping[str, str] | None = None,
    ):
        self.specs = list(dimension_specs)
        if not self.specs:
            raise WarehouseError("loader needs at least one dimension spec")
        self.measures = list(measures)
        self.measure_columns = dict(measure_columns or {})
        for measure in self.measures:
            self.measure_columns.setdefault(measure.name, measure.name)
        fact = FactTable(
            fact_name,
            [spec.dimension.name for spec in self.specs],
            self.measures,
        )
        self.schema = StarSchema(
            schema_name, fact, [spec.dimension for spec in self.specs]
        )

    def load(
        self,
        source: Table,
        *,
        quarantine=None,
        batch: str = "",
        source_indices: Sequence[int] | None = None,
        extra_keys=None,
    ) -> LoadReport:
        """Load every source row as one fact, creating members as needed.

        A row that fails key resolution or fact insertion goes through
        :func:`~repro.etl.quarantine.divert`: with a ``quarantine`` sink it
        becomes an entry there (step ``"load"``, tagged with ``batch``)
        and loading continues, without one its error aborts the load.
        ``source_indices`` — when the source table is itself the survivor
        subset of a larger batch — maps each source position back to the
        original batch index recorded in the entry.
        A row never half-loads: :meth:`FactTable.insert` validates before
        appending, and dimension members created for a failing row are
        reusable vocabulary, not facts.

        ``extra_keys`` is an optional ``(source_row, keys_so_far) -> dict``
        resolver for grain dimensions this loader's specs do not feed —
        dynamically folded feedback dimensions during a *delta* load,
        whose keys a full rebuild would only assign in the feedback-replay
        pass.  Its result merges into the fact row's key set.
        """
        report = LoadReport()
        rows = source.to_rows()
        for i, row in enumerate(rows):
            try:
                keys: dict[str, int] = {}
                for spec in self.specs:
                    member = spec.member_row(row)
                    key = spec.dimension.add_member(member)
                    keys[spec.dimension.name] = key
                    if key == UNKNOWN_KEY:
                        name = spec.dimension.name
                        report.unknown_keys_per_dimension[name] = (
                            report.unknown_keys_per_dimension.get(name, 0) + 1
                        )
                if extra_keys is not None:
                    keys.update(extra_keys(row, keys))
                values = {
                    m.name: row.get(self.measure_columns[m.name]) for m in self.measures
                }
                self.schema.fact.insert(keys, values)
            except ReproError as exc:
                index = (
                    int(source_indices[i]) if source_indices is not None else i
                )
                divert(
                    quarantine, "load", row, exc, batch=batch, source_index=index
                )
                report.rows_quarantined += 1
                report.quarantined_indices.append(i)
                continue
            report.facts_loaded += 1
        for spec in self.specs:
            report.members_per_dimension[spec.dimension.name] = spec.dimension.size
        return report
