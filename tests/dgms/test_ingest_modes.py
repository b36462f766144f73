"""One ingest path: a system without a sink is the same system with
nowhere to divert.

The same closed loop — build, two clean batches, a feedback fold, one
more batch — is driven through every way a :class:`DDDGMS` can be
configured for ingest; on clean data none of them may be told apart by
its answers, its maintenance ledger or its ETL audit.  On dirty data the
only difference is the documented one: without a sink the rejected row's
own error aborts the batch.
"""

import pytest

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.errors import IngestError, ReproError
from repro.etl.quarantine import ListSink, QuarantineStore
from repro.scenarios.runner import battery_fingerprint
from repro.tabular.table import Table
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry

MODES = {
    "no-sink": lambda tmp_path: {},
    "list-sink": lambda tmp_path: {"quarantine": ListSink()},
    "store-sink": lambda tmp_path: {"quarantine": QuarantineStore()},
    "durable": lambda tmp_path: {"durable_root": tmp_path / "sys"},
}


@pytest.fixture(scope="module")
def cohort():
    return DiScRiGenerator(n_patients=40, seed=41).generate()


@pytest.fixture(scope="module")
def batches(cohort):
    """Three clean follow-up batches with fresh patient and visit ids."""
    fresh = offset_identifiers(
        DiScRiGenerator(n_patients=30, seed=77).generate(),
        max(cohort.column("patient_id").to_list()),
        max(cohort.column("visit_id").to_list()),
    )
    assert fresh.num_rows >= 60
    return [fresh.take(list(range(start, start + 20))) for start in (0, 20, 40)]


def _risk_note() -> FeedbackDimensionBuilder:
    return (
        FeedbackDimensionBuilder("risk_note")
        .add(
            FeedbackEntry(
                "elevated",
                lambda row: row.get("bloods.fbg_band")
                in ("preDiabetic", "Diabetic"),
            )
        )
        .add(FeedbackEntry("ok", lambda row: True))
    )


def _drive(system: DDDGMS, batches) -> dict:
    """The loop; what an outside observer can see of the system after it."""
    answers = [battery_fingerprint(system)]
    for batch in batches[:2]:
        system.ingest_visits(batch)
        answers.append(battery_fingerprint(system))
    system.fold_feedback(_risk_note())
    answers.append(battery_fingerprint(system))
    system.ingest_visits(batches[2])
    answers.append(battery_fingerprint(system))
    return {
        "answers": answers,
        "maintenance": system.ingest_health()["maintenance"],
        "etl_audit": [str(entry) for entry in system.etl_audit],
        "data_version": system.data_version,
        "rows": system.operational_store.row_count("attendances"),
    }


@pytest.fixture(scope="module")
def reference(cohort, batches):
    observed = _drive(DDDGMS(cohort), batches)
    # the loop exercised what it claims to: delta publishes and a fold
    assert observed["maintenance"]["delta_publishes"] >= 1
    assert len(set(observed["answers"])) > 1
    return observed


@pytest.mark.parametrize("mode", [m for m in MODES if m != "no-sink"])
def test_clean_loop_is_indistinguishable(mode, cohort, batches, reference, tmp_path):
    system = DDDGMS(cohort, **MODES[mode](tmp_path))
    assert _drive(system, batches) == reference
    assert system.ingest_health()["quarantined_total"] == 0


def _with_null(batch: Table, column: str, position: int = 3) -> Table:
    rows = batch.to_rows()
    rows[position][column] = None
    return Table.from_rows(rows, schema=dict(batch.schema))


class TestDirtyBatchWithoutASink:
    """Nowhere to divert: the row's own error, and nothing moves."""

    def test_row_the_store_rejects_rolls_the_batch_back(self, cohort, batches):
        system = DDDGMS(cohort)
        system.cube.flat  # publish an epoch so its id can be compared
        before = (
            system.operational_store.row_count("attendances"),
            system.epoch,
            system.data_version,
            battery_fingerprint(system),
        )
        with pytest.raises(ReproError) as info:
            system.ingest_visits(_with_null(batches[0], "visit_id"))
        assert not isinstance(info.value, IngestError)
        assert before == (
            system.operational_store.row_count("attendances"),
            system.epoch,
            system.data_version,
            battery_fingerprint(system),
        )
        # and the system is not poisoned: the clean batch still goes in
        assert system.ingest_visits(batches[0]) == batches[0].num_rows
        assert system.ingest_health()["maintenance"]["delta_publishes"] == 1

    def test_row_the_etl_rejects_takes_the_batch_back_out(self, cohort, batches):
        system = DDDGMS(cohort)
        system.cube.flat
        before = (
            system.operational_store.row_count("attendances"),
            system.epoch,
            system.data_version,
            battery_fingerprint(system),
        )
        # a visit without a date passes the store and fails `visit_year`:
        # the rows the store had already committed come back out
        with pytest.raises(AttributeError, match="year"):
            system.ingest_visits(_with_null(batches[0], "visit_date"))
        assert before == (
            system.operational_store.row_count("attendances"),
            system.epoch,
            system.data_version,
            battery_fingerprint(system),
        )
        # not poisoned, and not lagging: the clean batch (same visit ids)
        # goes in, as a delta, and so does the one after it
        for n, batch in enumerate(batches[:2], start=1):
            assert system.ingest_visits(batch) == batch.num_rows
            maintenance = system.ingest_health()["maintenance"]
            assert maintenance["delta_publishes"] == n
            assert maintenance["full_rebuilds"] == 0
        assert system.cube.flat.num_rows == cohort.num_rows + 40
        assert system.operational_store.row_count("attendances") == (
            cohort.num_rows + 40
        )

    def test_etl_reject_on_the_rebuild_path_also_backs_out(self, cohort, batches):
        system = DDDGMS(cohort, incremental=False)
        rows = system.operational_store.row_count("attendances")
        with pytest.raises(AttributeError, match="year"):
            system.ingest_visits(_with_null(batches[0], "visit_date"))
        assert system.operational_store.row_count("attendances") == rows
        assert system.ingest_visits(batches[0]) == batches[0].num_rows
        assert system.ingest_health()["maintenance"]["full_rebuilds"] == 1
        assert system.cube.flat.num_rows == cohort.num_rows + 20

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "no-sink"])
    def test_the_same_rows_divert_with_a_sink(self, mode, cohort, batches, tmp_path):
        system = DDDGMS(cohort, **MODES[mode](tmp_path))
        dirty = _with_null(_with_null(batches[0], "visit_id", 3), "visit_date", 7)
        assert system.ingest_visits(dirty) == dirty.num_rows - 1
        health = system.ingest_health()
        assert health["resilient"] is True
        assert health["quarantined_total"] == 2
        assert system.cube.flat.num_rows == cohort.num_rows + dirty.num_rows - 2


@pytest.mark.parametrize("mode", [m for m in MODES if m != "no-sink"])
def test_a_key_the_store_cannot_hold_diverts_at_oltp(mode, cohort, batches, tmp_path):
    """The resume probe treats an unstorable ``visit_id`` as absent, so the
    insert refuses that one row and the rest of the batch lands."""
    rows = batches[0].to_rows()
    for row in rows:
        row["visit_id"] = str(row["visit_id"])
    rows[3]["visit_id"] = "not-a-number"
    dirty = Table.from_rows(rows, schema={**batches[0].schema, "visit_id": "str"})
    system = DDDGMS(cohort, **MODES[mode](tmp_path))
    assert system.ingest_visits(dirty) == dirty.num_rows - 1
    sink = system.quarantine
    entries = sink.entries if isinstance(sink, ListSink) else sink.rows()
    assert [(e.step, e.error_type, e.source_index) for e in entries] == [
        ("oltp", "DTypeError", 3)
    ]
    assert system.cube.flat.num_rows == cohort.num_rows + dirty.num_rows - 1
