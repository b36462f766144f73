"""Composable transformation pipeline with an audit trail.

Clinical ETL must be reviewable: a scientist has to be able to answer
"what exactly happened to this attribute before it reached the warehouse?".
Every step therefore logs a human-readable audit entry, and the pipeline
result carries the full trail.

The pipeline has two execution modes.  The default (`run(table)`) is
all-or-nothing: any failing row aborts the batch, as a unit-test fixture
or a trusted source wants.  Passing a quarantine sink
(`run(table, quarantine=...)`) switches every step into **row-level error
mode**: rows a step cannot transform are diverted to the sink as
:class:`~repro.etl.quarantine.QuarantinedRow` entries — carrying the
originating step's audit context and the pristine source row — and the
batch continues with the survivors.  Step *configuration* errors (a
missing column, an empty pipeline) still raise in both modes; only
per-row data problems quarantine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ETLError
from repro.etl.cleaning import MissingValuePolicy, RangeRule, clean_table
from repro.etl.cardinality import assign_cardinality
from repro.etl.discretization import DiscretizationScheme
from repro.etl.quarantine import QuarantinedRow
from repro.tabular.column import Column
from repro.tabular.table import Table

#: hidden column threaded through resilient runs so every surviving row
#: can be traced back to its position in the *input* batch
INGEST_INDEX = "__ingest_index__"


def _require_column(step: "TransformStep", column: str, table: Table) -> None:
    """Configuration check: the step's column must exist in the table."""
    if column not in table.column_names:
        raise ETLError(
            f"step {step.name!r}: column {column!r} is not in the table "
            f"(available: {', '.join(table.column_names)})"
        )


def with_ingest_index(table: Table) -> Table:
    """``table`` plus the hidden column numbering its rows ``0..n-1``."""
    return table.with_column(
        INGEST_INDEX, Column.from_numpy(np.arange(table.num_rows), "int")
    )


def _each_resilient(
    func: Callable[[object], object],
    items: Callable[[], Iterable[object]],
    row_of: Callable[[int], dict],
) -> tuple[list[object], Sequence[int], list[tuple[dict, BaseException]]]:
    """``func`` over ``items()``: ``(values, kept positions, failed rows)``.

    The whole batch is tried first, exactly as the strict path runs it,
    so a clean batch pays nothing for resilience; only when some item
    raises does a per-item pass over a fresh ``items()`` sort survivors
    from failures (each paired with ``row_of(position)``, its row dict).
    """
    try:
        values = [func(item) for item in items()]
        return values, range(len(values)), []
    except Exception:  # noqa: BLE001 - which item failed is found below
        pass
    values = []
    kept: list[int] = []
    failed: list[tuple[dict, BaseException]] = []
    for i, item in enumerate(items()):
        try:
            values.append(func(item))
            kept.append(i)
        except Exception as exc:  # step funcs raise arbitrary errors
            failed.append((row_of(i), exc))
    return values, kept, failed


@dataclass
class AuditEntry:
    """One line of the pipeline audit trail."""

    step: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.step}] {self.detail}"


class TransformStep:
    """Base class: subclasses implement :meth:`apply`."""

    name = "step"

    def apply(self, table: Table) -> tuple[Table, str]:
        """Transform the table; return (new_table, audit_detail)."""
        raise NotImplementedError

    def apply_resilient(
        self, table: Table
    ) -> tuple[Table, str, list[tuple[dict, BaseException]]]:
        """Row-level error mode: return (table, detail, failed_rows).

        ``failed_rows`` pairs each undigestible row (as a dict, hidden
        columns included) with the error that rejected it.  The default
        assumes the step has no per-row failure mode and delegates to
        :meth:`apply` — steps that can reject individual rows override
        this with a single-pass implementation so the clean-batch path
        stays as fast as the strict one.
        """
        result, detail = self.apply(table)
        return result, detail, []


class CleaningStep(TransformStep):
    """Wraps :func:`repro.etl.cleaning.clean_table`."""

    name = "clean"

    def __init__(
        self,
        missing: Mapping[str, MissingValuePolicy | str] | None = None,
        constants: Mapping[str, object] | None = None,
        range_rules: Sequence[RangeRule] | None = None,
    ):
        self.missing = dict(missing or {})
        self.constants = dict(constants or {})
        self.range_rules = list(range_rules or [])

    def apply(self, table: Table) -> tuple[Table, str]:
        cleaned, report = clean_table(
            table,
            missing=self.missing,
            constants=self.constants,
            range_rules=self.range_rules,
        )
        return cleaned, report.summary()


class DiscretizationStep(TransformStep):
    """Discretise one column into a new (or replacing) label column.

    The DiScRi trial kept both forms for attributes without clinical
    schemes — "duplicated with one having the original continuous form and
    the other discretised" — so the default output is ``<column>_band`` and
    the source column is preserved.
    """

    name = "discretize"

    def __init__(
        self,
        column: str,
        scheme: DiscretizationScheme,
        output: str | None = None,
        keep_original: bool = True,
    ):
        self.column = column
        self.scheme = scheme
        self.output = output or f"{column}_band"
        self.keep_original = keep_original

    def apply(self, table: Table) -> tuple[Table, str]:
        _require_column(self, self.column, table)
        values = table.column(self.column).to_list()
        labels = self.scheme.assign_many(values)  # type: ignore[arg-type]
        result = table.with_column(self.output, labels, dtype="str")
        if not self.keep_original:
            result = result.drop(self.column)
        return result, self._detail()

    def apply_resilient(
        self, table: Table
    ) -> tuple[Table, str, list[tuple[dict, BaseException]]]:
        _require_column(self, self.column, table)
        values = table.column(self.column).to_list()
        labels, kept, failed = _each_resilient(
            self.scheme.assign, lambda: values, table.row
        )
        result = table if not failed else table.take(kept)
        result = result.with_column(self.output, labels, dtype="str")
        if not self.keep_original:
            result = result.drop(self.column)
        return result, self._detail(), failed

    def _detail(self) -> str:
        return (
            f"{self.column} -> {self.output} via scheme {self.scheme.name!r} "
            f"({len(self.scheme.bins)} bins)"
        )


class CardinalityStep(TransformStep):
    """Wraps :func:`repro.etl.cardinality.assign_cardinality`."""

    name = "cardinality"

    def __init__(self, patient_key: str, date_column: str,
                 output: str = "visit_number"):
        self.patient_key = patient_key
        self.date_column = date_column
        self.output = output

    def apply(self, table: Table) -> tuple[Table, str]:
        _require_column(self, self.patient_key, table)
        _require_column(self, self.date_column, table)
        result = assign_cardinality(
            table, self.patient_key, self.date_column, output=self.output
        )
        patients = table.column(self.patient_key).n_unique()
        detail = (
            f"visit ordinals in {self.output!r}: {table.num_rows} records "
            f"over {patients} patients"
        )
        return result, detail

    def apply_resilient(
        self, table: Table
    ) -> tuple[Table, str, list[tuple[dict, BaseException]]]:
        _require_column(self, self.patient_key, table)
        _require_column(self, self.date_column, table)
        work, failed = self.split_unassignable(table)
        result, detail = self.apply(work)
        return result, detail, failed

    def split_unassignable(
        self, table: Table
    ) -> tuple[Table, list[tuple[dict, BaseException]]]:
        """Rows that can take an ordinal, and the rest with their reason.

        A visit needs a patient and a date; the check is one mask over
        both columns, and a row dict is built only for a row that fails.
        """
        has_patient = table.column(self.patient_key).valid
        has_date = table.column(self.date_column).valid
        assignable = has_patient & has_date
        if assignable.all():
            return table, []
        failed: list[tuple[dict, BaseException]] = []
        for i in np.flatnonzero(~assignable).tolist():
            missing = self.date_column if has_patient[i] else self.patient_key
            failed.append(
                (
                    table.row(i),
                    ETLError(f"cannot assign cardinality: null {missing!r}"),
                )
            )
        return table.filter(assignable), failed


class DeduplicateStep(TransformStep):
    """Remove duplicate records (the trial also cleaned "records").

    Keyed on the given columns (e.g. patient + visit date, so a twice-
    entered attendance collapses); with no keys, full rows deduplicate.
    First occurrence wins, preserving entry order.
    """

    name = "deduplicate"

    def __init__(self, *keys: str):
        self.keys = list(keys)

    def apply(self, table: Table) -> tuple[Table, str]:
        before = table.num_rows
        result = table.distinct(*self.keys)
        dropped = before - result.num_rows
        keyed = f" on ({', '.join(self.keys)})" if self.keys else ""
        return result, f"dropped {dropped} duplicate records{keyed}"

    def apply_resilient(
        self, table: Table
    ) -> tuple[Table, str, list[tuple[dict, BaseException]]]:
        # Dropping duplicates is policy, not failure — nothing quarantines.
        # With no explicit keys, full-row dedup must ignore the hidden
        # ingest-index column (it makes every row unique).
        keys = self.keys or [
            name for name in table.column_names if name != INGEST_INDEX
        ]
        before = table.num_rows
        result = table.distinct(*keys)
        dropped = before - result.num_rows
        keyed = f" on ({', '.join(self.keys)})" if self.keys else ""
        return result, f"dropped {dropped} duplicate records{keyed}", []


class DeriveStep(TransformStep):
    """Add a computed column via ``func(row)``.

    ``row`` is a read-only mapping; only the columns ``func`` reads are
    decoded (see :meth:`repro.tabular.table.Table.iter_row_views`).
    """

    name = "derive"

    def __init__(self, output: str, func: Callable[[dict], object],
                 dtype: str | None = None, description: str = ""):
        self.output = output
        self.func = func
        self.dtype = dtype
        self.description = description or f"computed column {output!r}"

    def apply(self, table: Table) -> tuple[Table, str]:
        return table.with_derived(self.output, self.func, dtype=self.dtype), self.description

    def apply_resilient(
        self, table: Table
    ) -> tuple[Table, str, list[tuple[dict, BaseException]]]:
        values, kept, failed = _each_resilient(
            self.func, table.iter_row_views, table.row
        )
        result = table if not failed else table.take(kept)
        result = result.with_column(self.output, values, dtype=self.dtype)
        return result, self.description, failed


@dataclass
class PipelineResult:
    """Output table plus the audit trail of every step."""

    table: Table
    audit: list[AuditEntry] = field(default_factory=list)
    #: dead-letter entries diverted during a resilient run ([] otherwise)
    quarantined: list[QuarantinedRow] = field(default_factory=list)
    #: for resilient runs: position in the *input* batch of each output
    #: row, in output order (``None`` for strict runs)
    kept_indices: list[int] | None = None

    def audit_text(self) -> str:
        """The trail as newline-joined text."""
        return "\n".join(str(entry) for entry in self.audit)


class Pipeline:
    """An ordered list of transform steps applied to a table."""

    def __init__(self, steps: Sequence[TransformStep] | None = None):
        self.steps: list[TransformStep] = list(steps or [])

    def add(self, step: TransformStep) -> "Pipeline":
        """Append a step; returns self for chaining."""
        self.steps.append(step)
        return self

    def run(
        self,
        table: Table,
        *,
        quarantine=None,
        batch: str = "",
    ) -> PipelineResult:
        """Execute every step in order, collecting the audit trail.

        Without ``quarantine`` any row a step cannot transform raises and
        aborts the batch (the strict, historical contract).  With a
        quarantine sink (anything exposing ``add(QuarantinedRow)``), such
        rows divert to the sink tagged with ``batch`` and the run
        continues; the result then also carries the diverted entries and
        the surviving rows' positions in the input batch.
        """
        if not self.steps:
            raise ETLError("pipeline has no steps")
        if quarantine is None:
            audit: list[AuditEntry] = []
            current = table
            for step in self.steps:
                current, detail = step.apply(current)
                audit.append(AuditEntry(step.name, detail))
            return PipelineResult(current, audit)
        return self._run_resilient(table, quarantine, batch)

    def _run_resilient(
        self, table: Table, quarantine, batch: str
    ) -> PipelineResult:
        original = table
        current = with_ingest_index(table)
        audit: list[AuditEntry] = []
        entries: list[QuarantinedRow] = []
        for step in self.steps:
            current, detail, failed = step.apply_resilient(current)
            if failed:
                detail += f"; quarantined {len(failed)} rows"
                for row, error in failed:
                    index = int(row.get(INGEST_INDEX, -1))  # type: ignore[arg-type]
                    if index >= 0:
                        source_row = original.row(index)
                    else:
                        source_row = {
                            k: v for k, v in row.items() if k != INGEST_INDEX
                        }
                    entries.append(
                        QuarantinedRow.from_error(
                            source_row,
                            step.name,
                            error,
                            batch=batch,
                            source_index=index,
                        )
                    )
            audit.append(AuditEntry(step.name, detail))
        kept = current.column(INGEST_INDEX).to_list()
        for entry in entries:
            quarantine.add(entry)
        return PipelineResult(
            current.drop(INGEST_INDEX), audit, quarantined=entries, kept_indices=kept
        )
