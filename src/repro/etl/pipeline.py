"""Composable transformation pipeline with an audit trail.

Clinical ETL must be reviewable: a scientist has to be able to answer
"what exactly happened to this attribute before it reached the warehouse?".
Every step therefore logs a human-readable audit entry, and the pipeline
result carries the full trail.

Every step makes one pass over its rows and reports the rows it could not
transform next to the ones it could; what happens to a rejected row is
decided once, by :func:`repro.etl.quarantine.divert`.  Given a quarantine
sink (`run(table, quarantine=...)`) the row becomes a
:class:`~repro.etl.quarantine.QuarantinedRow` entry — carrying the
originating step's audit context and the pristine source row — and the
batch continues with the survivors.  Without one (`run(table)`) there is
nowhere to divert it, so the row's own error propagates and the batch is
all-or-nothing, as a unit-test fixture or a trusted source wants.  Step
*configuration* errors (a missing column, an empty pipeline) raise either
way; only per-row data problems are rejections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ETLError
from repro.etl.cleaning import MissingValuePolicy, RangeRule, clean_table
from repro.etl.cardinality import assign_cardinality
from repro.etl.discretization import DiscretizationScheme
from repro.etl.quarantine import QuarantinedRow, commit_staged, divert, stage
from repro.tabular.column import Column
from repro.tabular.table import Table

#: hidden column threaded through every run so each surviving row can be
#: traced back to its position in the *input* batch
INGEST_INDEX = "__ingest_index__"

#: rows a step rejected: ``(position in the step's input table, error)``,
#: in position order
Rejected = list[tuple[int, BaseException]]


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


def _map_rows(
    func: Callable[[object], object], items: Iterable[object]
) -> tuple[list[object], Rejected]:
    """``func`` over ``items`` in one pass: the accepted values, the rest.

    ``func`` is called exactly once per item; an item it raises on is
    rejected with that error and contributes no value.
    """
    values: list[object] = []
    rejected: Rejected = []
    for position, item in enumerate(items):
        try:
            values.append(func(item))
        except Exception as exc:  # step funcs raise arbitrary errors
            rejected.append((position, exc))
    return values, rejected


def _without(table: Table, rejected: Rejected) -> Table:
    """``table`` minus the rejected positions (itself when there are none)."""
    if not rejected:
        return table
    keep = np.ones(table.num_rows, dtype=bool)
    keep[[position for position, _ in rejected]] = False
    return table.filter(keep)


def divert_rejected(
    quarantine,
    original: Table,
    step_input: Table,
    step: str,
    rejected: Rejected,
    batch: str,
) -> None:
    """:func:`divert` each row a step rejected.

    ``step_input`` is the table the step was given (it still carries
    :data:`INGEST_INDEX`), ``original`` the batch the run started from:
    each entry records the row's position in, and its pristine values
    from, the original batch.
    """
    if not rejected:
        return
    indices = step_input.column(INGEST_INDEX).to_list()
    for position, error in rejected:
        divert(
            quarantine,
            step,
            original.row(indices[position]),
            error,
            batch=batch,
            source_index=indices[position],
        )


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

    def apply(self, table: Table) -> tuple[Table, str, Rejected]:
        """Transform the table; return (new_table, audit_detail, rejected).

        ``new_table`` holds the rows the step could transform, in input
        order; ``rejected`` names the rest by position in ``table``, each
        with the error that rejected it (``[]`` for a step with no
        per-row failure mode).  One pass: no row is evaluated twice.
        """
        raise NotImplementedError


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

    def apply(self, table: Table) -> tuple[Table, str, Rejected]:
        cleaned, report = clean_table(
            table,
            missing=self.missing,
            constants=self.constants,
            range_rules=self.range_rules,
        )
        return cleaned, report.summary(), []


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

    def apply(self, table: Table) -> tuple[Table, str, Rejected]:
        _require_column(self, self.column, table)
        labels, rejected = _map_rows(
            self.scheme.assign, table.column(self.column).to_list()
        )
        result = _without(table, rejected).with_column(
            self.output, labels, dtype="str"
        )
        if not self.keep_original:
            result = result.drop(self.column)
        detail = (
            f"{self.column} -> {self.output} via scheme {self.scheme.name!r} "
            f"({len(self.scheme.bins)} bins)"
        )
        return result, detail, rejected


class CardinalityStep(TransformStep):
    """Wraps :func:`repro.etl.cardinality.assign_cardinality`."""

    name = "cardinality"

    def __init__(self, patient_key: str, date_column: str,
                 output: str = "visit_number"):
        self.patient_key = patient_key
        self.date_column = date_column
        self.output = output

    def apply(self, table: Table) -> tuple[Table, str, Rejected]:
        work, rejected = self.split_unassignable(table)
        result = assign_cardinality(
            work, self.patient_key, self.date_column, output=self.output
        )
        patients = work.column(self.patient_key).n_unique()
        detail = (
            f"visit ordinals in {self.output!r}: {work.num_rows} records "
            f"over {patients} patients"
        )
        return result, detail, rejected

    def split_unassignable(self, table: Table) -> tuple[Table, Rejected]:
        """Rows that can take an ordinal, and the rest with their reason.

        A visit needs a patient and a date; the check is one mask over
        both columns.
        """
        _require_column(self, self.patient_key, table)
        _require_column(self, self.date_column, table)
        has_patient = table.column(self.patient_key).valid
        has_date = table.column(self.date_column).valid
        assignable = has_patient & has_date
        if assignable.all():
            return table, []
        rejected: Rejected = []
        for i in np.flatnonzero(~assignable).tolist():
            missing = self.date_column if has_patient[i] else self.patient_key
            rejected.append(
                (i, ETLError(f"cannot assign cardinality: null {missing!r}"))
            )
        return table.filter(assignable), rejected


class DeduplicateStep(TransformStep):
    """Remove duplicate records (the trial also cleaned "records").

    Keyed on the given columns (e.g. patient + visit date, so a twice-
    entered attendance collapses); with no keys, full rows deduplicate.
    First occurrence wins, preserving entry order.
    """

    name = "deduplicate"

    def __init__(self, *keys: str):
        self.keys = list(keys)

    def apply(self, table: Table) -> tuple[Table, str, Rejected]:
        # Dropping duplicates is policy, not failure — nothing is rejected.
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

    def apply(self, table: Table) -> tuple[Table, str, Rejected]:
        values, rejected = _map_rows(self.func, table.iter_row_views())
        result = _without(table, rejected).with_column(
            self.output, values, dtype=self.dtype
        )
        return result, self.description, rejected


@dataclass
class PipelineResult:
    """Output table plus the audit trail of every step."""

    table: Table
    audit: list[AuditEntry] = field(default_factory=list)
    #: dead-letter entries diverted to the run's sink ([] without one)
    quarantined: list[QuarantinedRow] = field(default_factory=list)
    #: position in the *input* batch of each output row, in output order
    kept_indices: list[int] = field(default_factory=list)

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

        Rows a step rejects go through :func:`~repro.etl.quarantine.divert`:
        with a ``quarantine`` sink (anything exposing
        ``add(QuarantinedRow)``) they become entries tagged with ``batch``
        and the run continues with the survivors; without one the first
        rejected row's error propagates and the batch aborts.  The result
        carries the diverted entries and the surviving rows' positions in
        the input batch.
        """
        if not self.steps:
            raise ETLError("pipeline has no steps")
        current = with_ingest_index(table)
        audit: list[AuditEntry] = []
        # entries reach the caller's sink only once every step has run: a
        # run that raises on a later step's configuration leaves none
        staged = stage(quarantine)
        for step in self.steps:
            step_input = current
            current, detail, rejected = step.apply(step_input)
            if rejected:
                detail += f"; quarantined {len(rejected)} rows"
                divert_rejected(
                    staged, table, step_input, step.name, rejected, batch
                )
            audit.append(AuditEntry(step.name, detail))
        kept = current.column(INGEST_INDEX).to_list()
        return PipelineResult(
            current.drop(INGEST_INDEX),
            audit,
            quarantined=commit_staged(staged, quarantine),
            kept_indices=kept,
        )
