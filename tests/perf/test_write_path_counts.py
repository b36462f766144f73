"""Deterministic op-count guards for the write path (counts, not seconds).

Ingesting one clean 60-row × 277-column batch into a durable system must
cost work proportional to the batch: no snapshot rewrite (the WAL commit
already made the batch durable and the log is far smaller than the newest
generation), no per-cell ``Column.value`` round trip in the row↔column
conversions, no per-row re-fetch of what ``insert`` just stored, and no
per-cell validation or per-row log record: the storage engine checks a
batch once per column and logs it as one column block.  A refactor that
reintroduces a per-cell loop or a per-batch rewrite fails here, loudly,
long before a benchmark run would notice.
"""

import sys
from collections import Counter

import pytest

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.discri.warehouse import discri_pipeline
from repro.etl.pipeline import DeriveStep
from repro.etl.quarantine import ListSink
from repro.storage import persistence, wal
from repro.storage.engine import StorageEngine
from repro.tabular import dtypes
from repro.tabular.column import Column
from repro.tabular.table import Table

BATCH_ROWS = 60
COLUMNS = 277


def _count(monkeypatch, counts: Counter, owner, attr, label, original=None):
    """Count calls of ``owner.attr`` under ``label``."""
    original = original or getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counts[label] += 1
        return original(*args, **kwargs)

    # raising=False: a per-row validator that no longer exists is
    # installed (and must stay uncalled) rather than skipped
    monkeypatch.setattr(owner, attr, wrapper, raising=False)


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the functions the guard watches."""
    counts: Counter = Counter()

    def counted(owner, attr, label, original=None):
        _count(monkeypatch, counts, owner, attr, label, original)

    counted(persistence, "_save_snapshot", "save_snapshot")
    counted(Column, "value", "column_value")
    counted(StorageEngine, "get_by_pk", "get_by_pk")
    counted(
        StorageEngine, "_validate_row", "validate_row",
        original=getattr(StorageEngine, "_validate_row", lambda *a: None),
    )
    counted(wal, "encode_frame", "wal_frames")
    # every module that imported coerce_value by name holds its own binding
    coerce_value = dtypes.coerce_value
    for module in list(sys.modules.values()):
        if getattr(module, "coerce_value", None) is coerce_value:
            counted(module, "coerce_value", "coerce_value", coerce_value)
    return counts


def _sources():
    source = DiScRiGenerator(n_patients=60, seed=7).generate()
    batch = offset_identifiers(
        DiScRiGenerator(n_patients=30, seed=99).generate(),
        max(source.column("patient_id").to_list()),
        max(source.column("visit_id").to_list()),
    ).head(BATCH_ROWS)
    assert batch.num_rows == BATCH_ROWS and len(batch.column_names) == COLUMNS
    assert source.num_rows > 2 * BATCH_ROWS  # the log stays under the snapshot
    return source, batch


def _assert_columnar(calls, phase):
    assert calls["coerce_value"] <= COLUMNS, (
        f"{phase}: {calls['coerce_value']} coerce_value calls for {COLUMNS} "
        f"columns — values are validated per cell again"
    )
    assert calls["validate_row"] == 0, f"{phase}: rows validated one by one"


def test_build_and_recover_validate_per_column(tmp_path, calls):
    source, _ = _sources()
    calls.clear()  # generating the cohort is not the build
    DDDGMS(source, durable_root=tmp_path / "sys")
    _assert_columnar(calls, f"build of {source.num_rows} rows")
    calls.clear()
    recovered = DDDGMS.recover(tmp_path / "sys")
    assert recovered.operational_store.row_count("attendances") == source.num_rows
    _assert_columnar(calls, f"recovery of {source.num_rows} rows")


def test_one_clean_batch_costs_the_batch(tmp_path, calls):
    source, batch = _sources()
    system = DDDGMS(source, durable_root=tmp_path / "sys")
    assert calls["save_snapshot"] == 2  # the build: operational + quarantine
    calls.clear()

    assert system.ingest_visits(batch, batch="y2") == BATCH_ROWS
    _assert_columnar(calls, f"a {BATCH_ROWS}-row batch")
    assert calls["wal_frames"] == 2, (
        f"{calls['wal_frames']} WAL frames for one clean {BATCH_ROWS}-row "
        f"batch: expected one column block and one commit"
    )

    health = system.ingest_health()
    assert health["maintenance"]["delta_publishes"] == 1
    assert health["quarantined_total"] == 0
    assert health["checkpoint"]["deferred"] == 1
    cells = BATCH_ROWS * len(batch.column_names)
    assert calls["save_snapshot"] == 0, "a deferred checkpoint rewrote the store"
    assert calls["column_value"] <= BATCH_ROWS, (
        f"{calls['column_value']} Column.value calls for {BATCH_ROWS} rows "
        f"({cells} cells): a per-cell loop is back in the row↔column path"
    )
    assert calls["get_by_pk"] <= BATCH_ROWS, (
        f"{calls['get_by_pk']} get_by_pk calls for {BATCH_ROWS} rows: the "
        f"intake re-fetches stored rows again"
    )


# -- the bare engine: a round trip costs per column, never per row ----------


@pytest.fixture(scope="module")
def wide_rows():
    table = DiScRiGenerator(n_patients=250, seed=7).generate()
    assert table.num_rows >= 10 * BATCH_ROWS and len(table.column_names) == COLUMNS
    return table


def _round_trip(root, rows: Table) -> StorageEngine:
    """insert → scan() → scan(row_ids) → checkpoint → recover."""
    root.mkdir()
    engine = StorageEngine(wal.WriteAheadLog(root / "wal.log"))
    engine.create_table("attendances", dict(rows.schema), primary_key="visit_id")
    engine.create_index("attendances", "patient_id")
    with engine.transaction():
        accepted, rejected = engine.insert("attendances", rows)
    assert rejected == []
    assert engine.scan("attendances").num_rows == rows.num_rows
    assert engine.scan("attendances", row_ids=accepted[::-1]).num_rows == rows.num_rows
    persistence.checkpoint(engine, root / "snaps")
    engine.wal.close()
    return persistence.recover(root / "snaps", root / "wal.log")


def test_engine_round_trip_never_builds_rows(tmp_path, monkeypatch, calls, wide_rows):
    """The store keeps the typed columns it validated: no row dicts between
    an insert, a scan, a checkpoint and a recovery, and the same work for
    ten times the rows."""
    for owner, attr in (
        (Table, "from_rows"), (Table, "to_rows"), (Table, "iter_rows"),
        (Column, "to_list"),
    ):
        _count(monkeypatch, calls, owner, attr, attr)
    by_rows = {}
    for rows in (BATCH_ROWS, 10 * BATCH_ROWS):
        calls.clear()
        recovered = _round_trip(tmp_path / str(rows), wide_rows.head(rows))
        by_rows[rows] = Counter(calls)
        assert recovered.scan("attendances").equals(wide_rows.head(rows))
    for label in ("from_rows", "to_rows", "iter_rows", "column_value"):
        assert by_rows[10 * BATCH_ROWS][label] == 0, (
            f"{by_rows[10 * BATCH_ROWS][label]} {label} calls: the store "
            f"builds rows again"
        )
    assert by_rows[BATCH_ROWS] == by_rows[10 * BATCH_ROWS], (
        f"work grows with the rows: {by_rows}"
    )


# -- the ETL pipeline: one pass per step, clean batch or dirty ---------------
#
# Replaces the retired ``resilient_s / strict_s <= 1.05`` timing gate: with
# one implementation there is no second path to time against, so what is
# pinned is the work itself.


def _counted_pipeline_run(monkeypatch, table):
    """Run the DiScRi pipeline with a sink; count derive calls and row dicts."""
    pipeline = discri_pipeline()
    derive_calls: Counter = Counter()
    for step in pipeline.steps:
        if isinstance(step, DeriveStep):

            def counted(row, func=step.func, output=step.output):
                derive_calls[output] += 1
                return func(row)

            step.func = counted
    row_calls = Counter()
    original_row = Table.row

    def counted_row(self, index):
        row_calls["row"] += 1
        return original_row(self, index)

    monkeypatch.setattr(Table, "row", counted_row)
    sink = ListSink()
    result = pipeline.run(table, quarantine=sink)
    return result, sink, derive_calls, row_calls["row"]


@pytest.fixture(scope="module")
def clean_batch():
    batch = DiScRiGenerator(n_patients=40, seed=7).generate().head(BATCH_ROWS)
    assert batch.num_rows == BATCH_ROWS
    return batch


def test_clean_batch_runs_each_derive_once_per_row(monkeypatch, clean_batch):
    result, sink, derive_calls, row_calls = _counted_pipeline_run(
        monkeypatch, clean_batch
    )
    assert len(sink) == 0 and result.table.num_rows == BATCH_ROWS
    assert derive_calls == {
        "reflex_knees_ankles": BATCH_ROWS,
        "ewing_risk": BATCH_ROWS,
        "visit_year": BATCH_ROWS,
    }
    assert row_calls == 0, "a clean batch built row dicts"


def test_dirty_batch_still_runs_each_derive_once_per_row(monkeypatch, clean_batch):
    rows = clean_batch.to_rows()
    nulled = [5, 23, 41]  # three different patients: dedup keeps all three
    assert len({rows[i]["patient_id"] for i in nulled}) == 3
    for i in nulled:
        rows[i]["visit_date"] = None
    dirty = Table.from_rows(rows, schema=dict(clean_batch.schema))

    result, sink, derive_calls, row_calls = _counted_pipeline_run(
        monkeypatch, dirty
    )
    assert sorted(e.source_index for e in sink.entries) == nulled
    assert result.table.num_rows == BATCH_ROWS - len(nulled)
    # no try-the-batch-then-retry-per-row ladder: a function that raised on
    # three rows was still called once per row, not up to twice
    assert derive_calls == {
        "reflex_knees_ankles": BATCH_ROWS,
        "ewing_risk": BATCH_ROWS,
        "visit_year": BATCH_ROWS,
    }
    assert row_calls <= len(nulled), "row dicts built for rows nobody rejected"
