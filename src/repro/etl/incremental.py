"""Incremental ETL: transform only an appended batch, matching a full re-run.

Full warehouse rebuilds re-run the whole pipeline over the combined
history on every ingest.  For the delta-folding publish path
(DESIGN.md §"Incremental maintenance") the appended rows must instead be
transformed *alone* — but produce byte-identical output to what a full
re-run over history+batch would give them.  Most steps are row-local
(discretise, derive) and replay directly; three steps carry cross-row
state that this module captures at every full build and rolls forward:

* **Deduplicate** — the set of key tuples ever seen; a delta row whose
  key already occurred is dropped (first occurrence wins, and historical
  rows always precede the batch).
* **Cleaning** — fill statistics (median/mean/mode) are computed over the
  whole column in a full run.  The state keeps the post-range-rule
  non-null values and the fill value actually applied; a batch that
  would *shift* the fill while historically-filled rows exist cannot be
  replayed incrementally (those rows would re-fill differently in a full
  run) and reports a fallback instead.
* **Cardinality** — per-patient visit counts and max dates; a delta row
  dated before a patient's latest known visit would renumber history, so
  it too forces a fallback.

A pipeline whose shape doesn't fit (unknown step types, row-dropping
cleaning policies, steps out of the dedup → clean → row-local →
cardinality order) simply captures no state, and every ingest takes the
full-rebuild path — correctness never depends on eligibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import CleaningError, ETLError
from repro.etl.cleaning import MissingValuePolicy, _fill_value, clean_table
from repro.etl.pipeline import (
    INGEST_INDEX,
    CardinalityStep,
    CleaningStep,
    DeduplicateStep,
    DeriveStep,
    DiscretizationStep,
    Pipeline,
    TransformStep,
    divert_rejected,
    with_ingest_index,
)
from repro.etl.quarantine import QuarantinedRow, commit_staged, stage
from repro.tabular.column import Column
from repro.tabular.table import Table


@dataclass
class _FillState:
    """Cross-batch fill statistics for one cleaned column."""

    policy: MissingValuePolicy
    constant: object
    #: post-range-rule non-null values, in encounter order
    values: list[object]
    #: how many nulls have been filled across all builds so far
    filled: int
    #: the fill value those rows received (None while nothing was filled)
    fill: object


@dataclass
class EtlDeltaState:
    """Everything a delta run needs to match a full pipeline re-run."""

    steps: list[TransformStep]
    dedup_keys: list[str] | None
    seen: set[tuple] | None
    fills: dict[str, _FillState]
    range_step: CleaningStep | None
    row_local: list[TransformStep]
    cardinality: CardinalityStep | None
    #: patient -> (visit count, latest visit date)
    visits: dict[object, tuple[int, object]] = field(default_factory=dict)


@dataclass
class EtlDeltaOutcome:
    """Result of one delta attempt (commit via :func:`commit_delta`)."""

    #: transformed batch rows (None when the attempt fell back)
    table: Table | None = None
    #: why the batch cannot be replayed incrementally (None on success)
    fallback_reason: str | None = None
    #: dead-letter entries for rows the row-local steps rejected
    quarantined: list[QuarantinedRow] = field(default_factory=list)
    #: per-output-row position in the input batch
    kept_indices: list[int] = field(default_factory=list)
    audit: str = ""
    # -- state updates, applied only on commit --
    new_keys: set[tuple] = field(default_factory=set)
    new_values: dict[str, list[object]] = field(default_factory=dict)
    new_fills: dict[str, tuple[int, object]] = field(default_factory=dict)
    new_visits: dict[object, tuple[int, object]] = field(default_factory=dict)


def capture_etl_state(
    pipeline: Pipeline, source: Table, transformed: Table
) -> tuple[EtlDeltaState | None, str | None]:
    """Capture delta state after a full build; ``(None, reason)`` if ineligible.

    ``source`` is the raw table the pipeline ran over (quarantined rows
    included — they participate in deduplication and fill statistics on
    every full rebuild, so the state must mirror that); ``transformed``
    is the pipeline output *before* any load-stage pruning (cardinality
    ordinals are assigned there, prune or not).
    """
    shape, reason = _classify(pipeline.steps)
    if shape is None:
        return None, reason
    dedup, cleaning, row_local, cardinality = shape

    dedup_keys: list[str] | None = None
    seen: set[tuple] | None = None
    work = source
    if dedup is not None:
        dedup_keys = list(dedup.keys) or list(source.column_names)
        columns = [source.column(k).to_list() for k in dedup_keys]
        seen = set(zip(*columns)) if source.num_rows else set()
        work = source.distinct(*dedup_keys)

    fills: dict[str, _FillState] = {}
    if cleaning is not None and cleaning.missing:
        ranged, _ = clean_table(
            work, missing={}, range_rules=cleaning.range_rules
        )
        for name, policy in cleaning.missing.items():
            policy = MissingValuePolicy(policy)
            if policy is MissingValuePolicy.KEEP:
                continue
            column = ranged.column(name)
            values = [v for v in column.to_list() if v is not None]
            filled = int(column.null_count)
            fill = None
            if filled:
                try:
                    fill = _fill_value(
                        column, policy, cleaning.constants.get(name)
                    )
                except CleaningError as exc:
                    return None, f"fill statistic for {name!r} failed: {exc}"
            fills[name] = _FillState(
                policy, cleaning.constants.get(name), values, filled, fill
            )

    state = EtlDeltaState(
        steps=list(pipeline.steps),
        dedup_keys=dedup_keys,
        seen=seen,
        fills=fills,
        range_step=cleaning,
        row_local=row_local,
        cardinality=cardinality,
    )
    if cardinality is not None:
        patients = transformed.column(cardinality.patient_key).to_list()
        dates = transformed.column(cardinality.date_column).to_list()
        visits: dict[object, tuple[int, object]] = {}
        for p, d in zip(patients, dates):
            count, latest = visits.get(p, (0, None))
            visits[p] = (count + 1, d if latest is None or d > latest else latest)
        state.visits = visits
    return state, None


def _classify(steps: Sequence[TransformStep]):
    """Validate the dedup → clean → row-local → cardinality shape."""
    dedup: DeduplicateStep | None = None
    cleaning: CleaningStep | None = None
    row_local: list[TransformStep] = []
    cardinality: CardinalityStep | None = None
    for step in steps:
        if isinstance(step, DeduplicateStep):
            if dedup is not None or cleaning is not None or row_local or cardinality:
                return None, "deduplicate must be the first step"
            dedup = step
        elif isinstance(step, CleaningStep):
            if cleaning is not None or row_local or cardinality:
                return None, "cleaning must precede discretise/derive steps"
            for policy in step.missing.values():
                if MissingValuePolicy(policy) is MissingValuePolicy.DROP_ROW:
                    return None, "DROP_ROW cleaning policies drop history"
            for rule in step.range_rules:
                if rule.action == "drop_row":
                    return None, "drop_row range rules drop history"
            cleaning = step
        elif isinstance(step, (DiscretizationStep, DeriveStep)):
            if cardinality is not None:
                return None, "row-local steps after cardinality"
            row_local.append(step)
        elif isinstance(step, CardinalityStep):
            if cardinality is not None:
                return None, "more than one cardinality step"
            cardinality = step
        else:
            return None, f"step {step.name!r} has no incremental form"
    return (dedup, cleaning, row_local, cardinality), None


def run_delta(
    state: EtlDeltaState,
    batch: Table,
    *,
    quarantine=None,
    batch_tag: str = "",
) -> EtlDeltaOutcome:
    """Transform one appended batch against the captured state.

    Pure with respect to ``state``: all cross-batch bookkeeping lands in
    the returned outcome and is only folded in by :func:`commit_delta`
    after every downstream step of the ingest succeeded.  Rows a step
    rejects go the way of :meth:`Pipeline.run`'s: entries in
    ``quarantine`` (and ``outcome.quarantined``) once the run has a
    result when there is a sink, the first row's own error when there is
    none.
    """
    outcome = EtlDeltaOutcome()
    audit: list[str] = []
    work = with_ingest_index(batch)
    staged = stage(quarantine)  # a fallen-back run diverts nothing

    # -- deduplicate against all history, then within the batch ---------
    if state.seen is not None:
        keys = state.dedup_keys or []
        columns = [work.column(k).to_list() for k in keys]
        kept: list[int] = []
        batch_new: set[tuple] = set()
        for i in range(work.num_rows):
            key = tuple(values[i] for values in columns)
            if key in state.seen or key in batch_new:
                continue
            batch_new.add(key)
            kept.append(i)
        dropped = work.num_rows - len(kept)
        if dropped:
            import numpy as np

            work = work.take(np.array(kept, dtype=np.int64))
        outcome.new_keys = batch_new
        audit.append(f"deduplicate: dropped {dropped} against history+batch")

    # -- cleaning: range rules, then history-aware fills ----------------
    if state.range_step is not None:
        work, report = clean_table(
            work, missing={}, range_rules=state.range_step.range_rules
        )
        audit.append(f"clean(range): {report.summary()}")
        for name, fstate in state.fills.items():
            column = work.column(name)
            fresh = [v for v in column.to_list() if v is not None]
            nulls = int(column.null_count)
            outcome.new_values[name] = fresh
            combined_fill = None
            if fstate.filled or nulls:
                combined = Column.from_values(
                    fstate.values + fresh, dtype=column.dtype
                )
                try:
                    combined_fill = _fill_value(
                        combined, fstate.policy, fstate.constant
                    )
                except CleaningError as exc:
                    outcome.fallback_reason = (
                        f"fill statistic for {name!r} failed: {exc}"
                    )
                    return outcome
            if fstate.filled and combined_fill != fstate.fill:
                # historically-filled rows would re-fill differently in a
                # full run — not expressible as an append
                outcome.fallback_reason = (
                    f"fill value for {name!r} drifted "
                    f"({fstate.fill!r} -> {combined_fill!r})"
                )
                return outcome
            if nulls:
                work = work.with_column(name, column.fill_null(combined_fill))
                audit.append(f"clean(fill): {name}×{nulls} with {combined_fill!r}")
            outcome.new_fills[name] = (
                fstate.filled + nulls,
                combined_fill if (fstate.filled or nulls) else fstate.fill,
            )

    # -- row-local steps (discretise / derive) --------------------------
    for step in state.row_local:
        step_input = work
        work, detail, rejected = step.apply(step_input)
        divert_rejected(
            staged, batch, step_input, step.name, rejected, batch_tag
        )
        audit.append(f"{step.name}: {detail}")

    # -- cardinality: extend per-patient ordinals ------------------------
    if state.cardinality is not None:
        card = state.cardinality
        step_input = work
        work, rejected = card.split_unassignable(step_input)
        divert_rejected(
            staged, batch, step_input, card.name, rejected, batch_tag
        )
        p_values = work.column(card.patient_key).to_list()
        d_values = work.column(card.date_column).to_list()
        per_patient: dict[object, list[tuple[object, int]]] = {}
        for i, (p, d) in enumerate(zip(p_values, d_values)):
            count, latest = state.visits.get(p, (0, None))
            if latest is not None and d < latest:
                # a back-dated visit renumbers the patient's history
                outcome.fallback_reason = (
                    f"visit for patient {p!r} predates their latest known "
                    f"visit ({d} < {latest})"
                )
                return outcome
            per_patient.setdefault(p, []).append((d, i))
        ordinal = [0] * work.num_rows
        for p, entries in per_patient.items():
            count, latest = state.visits.get(p, (0, None))
            entries.sort(key=lambda pair: (pair[0], pair[1]))
            for n, (d, i) in enumerate(entries, start=count + 1):
                ordinal[i] = n
                latest = d if latest is None or d > latest else latest
            outcome.new_visits[p] = (count + len(entries), latest)
        work = work.with_column(card.output, ordinal, dtype="int")
        audit.append(
            f"cardinality: {work.num_rows} records over "
            f"{len(per_patient)} patients (extended)"
        )

    outcome.kept_indices = work.column(INGEST_INDEX).to_list()
    outcome.table = work.drop(INGEST_INDEX)
    outcome.audit = "; ".join(audit)
    outcome.quarantined = commit_staged(staged, quarantine)
    return outcome


def commit_delta(state: EtlDeltaState, outcome: EtlDeltaOutcome) -> None:
    """Fold a successful delta's bookkeeping into the state (O(batch))."""
    if outcome.fallback_reason is not None:  # pragma: no cover - guard
        raise ETLError("cannot commit a fallen-back delta")
    if state.seen is not None:
        state.seen.update(outcome.new_keys)
    for name, fresh in outcome.new_values.items():
        state.fills[name].values.extend(fresh)
    for name, (filled, fill) in outcome.new_fills.items():
        state.fills[name].filled = filled
        state.fills[name].fill = fill
    state.visits.update(outcome.new_visits)
