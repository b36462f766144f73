"""Row-level quarantine: the store, resilient pipeline/loader, taxonomy."""

import datetime as dt

import pytest

from repro.errors import ETLError, IngestError, ReproError
from repro.etl.discretization import Bin, DiscretizationScheme
from repro.etl.pipeline import (
    CardinalityStep,
    DeriveStep,
    DiscretizationStep,
    Pipeline,
)
from repro.etl.quarantine import ListSink, QuarantinedRow, QuarantineStore
from repro.etl.temporal import (
    StateAbstraction,
    TemporalConflict,
    TrendAbstraction,
    quarantine_conflicts,
)
from repro.tabular.table import Table

BOUNDED = DiscretizationScheme(
    "bounded", [Bin("lo", 0.0, 5.0), Bin("hi", 5.0, 10.0)]
)


def _batch(rows):
    return Table.from_rows(
        rows, schema={"pid": "int", "d": "date", "x": "float"}
    )


def _clean_rows(n=6):
    return [
        {"pid": i % 3, "d": dt.date(2009, 1, 1 + i), "x": float(i % 9)}
        for i in range(n)
    ]


class TestQuarantinedRow:
    def test_from_error_preserves_type_and_reason(self):
        entry = QuarantinedRow.from_error(
            {"pid": 1}, "derive", ValueError("boom"), batch="b1", source_index=4
        )
        assert entry.error_type == "ValueError"
        assert entry.reason == "boom"
        assert entry.step == "derive"
        assert entry.batch == "b1"
        assert entry.source_index == 4
        assert "derive" in entry.describe() and "boom" in entry.describe()

    def test_row_is_copied(self):
        row = {"pid": 1}
        entry = QuarantinedRow.from_error(row, "load", ValueError("x"))
        row["pid"] = 99
        assert entry.row["pid"] == 1


class TestQuarantineStore:
    def test_add_is_idempotent(self):
        store = QuarantineStore()
        entry = QuarantinedRow.from_error({"pid": 1}, "load", ValueError("v"))
        first = store.add(entry)
        second = store.add(
            QuarantinedRow.from_error({"pid": 1}, "load", ValueError("v"))
        )
        assert first == second
        assert len(store) == 1

    def test_counts_and_get(self):
        store = QuarantineStore()
        store.add(QuarantinedRow.from_error({"pid": 1}, "load", ValueError("a")))
        store.add(QuarantinedRow.from_error({"pid": 2}, "derive", KeyError("b")))
        assert store.counts("step") == {"derive": 1, "load": 1}
        assert store.counts("error_type") == {"KeyError": 1, "ValueError": 1}
        assert store.get(1).row == {"pid": 1}
        with pytest.raises(IngestError):
            store.get(99)

    def test_remove(self):
        store = QuarantineStore()
        a = store.add(QuarantinedRow.from_error({"pid": 1}, "load", ValueError("a")))
        store.add(QuarantinedRow.from_error({"pid": 2}, "load", ValueError("b")))
        store.remove([a])
        assert len(store) == 1
        assert [e.row["pid"] for e in store.rows()] == [2]

    def test_redrive_removes_succeeded_and_repairs_copy(self):
        store = QuarantineStore()
        store.add(
            QuarantinedRow.from_error({"pid": 1, "x": None}, "load", ValueError("a"))
        )
        store.add(
            QuarantinedRow.from_error({"pid": 2, "x": None}, "load", ValueError("b"))
        )
        seen = []

        def handler(entries):
            seen.extend(e.row["x"] for e in entries)
            return [e.entry_id for e in entries if e.row["pid"] == 1]

        report = store.redrive(handler, repair=lambda row: {**row, "x": 7.0})
        assert seen == [7.0, 7.0]
        assert report.attempted == 2 and report.succeeded == 1
        # repair applied to handler copies only; the stored row is pristine
        assert store.rows()[0].row["x"] is None

    def test_durable_roundtrip(self, tmp_path):
        root = tmp_path / "q"
        store = QuarantineStore.open(root)
        store.add(
            QuarantinedRow.from_error(
                {"pid": 1, "d": dt.date(2009, 5, 1)}, "load", ValueError("a"),
                batch="b1", source_index=3,
            )
        )
        store.checkpoint()
        store.close()
        reopened = QuarantineStore.open(root)
        (entry,) = reopened.rows()
        assert entry.row == {"pid": 1, "d": dt.date(2009, 5, 1)}
        assert entry.batch == "b1" and entry.source_index == 3
        # dedup knowledge survives the round-trip too
        reopened.add(
            QuarantinedRow.from_error(
                {"pid": 1, "d": dt.date(2009, 5, 1)}, "load", ValueError("a")
            )
        )
        assert len(reopened) == 1
        reopened.close()

    def test_checkpoint_of_a_clean_store_writes_nothing(self, tmp_path):
        root = tmp_path / "q"
        store = QuarantineStore.open(root)
        store.add(
            QuarantinedRow.from_error({"pid": 1}, "load", ValueError("a"))
        )
        store.checkpoint()  # no generation yet: this one is due
        generations = sorted(p.name for p in (root / "snaps").iterdir())
        assert generations == ["gen-00000001"]
        store.checkpoint()  # nothing added or removed since
        assert sorted(p.name for p in (root / "snaps").iterdir()) == generations
        store.close()
        assert len(QuarantineStore.open(root)) == 1

    def test_wal_only_recovery(self, tmp_path):
        """Entries that never made it into a snapshot replay from the WAL."""
        root = tmp_path / "q"
        store = QuarantineStore.open(root)
        store.add(QuarantinedRow.from_error({"pid": 5}, "oltp", ValueError("v")))
        store.close()  # no checkpoint: the row lives only in the WAL
        reopened = QuarantineStore.open(root)
        assert [e.row["pid"] for e in reopened.rows()] == [5]
        reopened.close()


class TestConfigurationErrors:
    """Satellite: bare ``KeyError`` on a missing column becomes ``ETLError``."""

    def test_discretization_step_names_step_column_and_available(self):
        step = DiscretizationStep("missing", BOUNDED)
        table = _batch(_clean_rows())
        with pytest.raises(ETLError) as excinfo:
            step.apply(table)
        message = str(excinfo.value)
        assert "'discretize'" in message
        assert "'missing'" in message
        assert "pid" in message and "x" in message

    def test_cardinality_step_checks_both_columns(self):
        table = _batch(_clean_rows())
        with pytest.raises(ETLError, match="'nope'"):
            CardinalityStep("nope", "d").apply(table)
        with pytest.raises(ETLError, match="'gone'"):
            CardinalityStep("pid", "gone").apply(table)


class TestResilientPipeline:
    def _pipeline(self):
        return Pipeline(
            [
                DiscretizationStep("x", BOUNDED),
                DeriveStep("year", lambda row: row["d"].year, dtype="int"),
                CardinalityStep("pid", "d"),
            ]
        )

    def test_clean_batch_matches_strict(self):
        table = _batch(_clean_rows())
        strict = self._pipeline().run(table)
        sink = ListSink()
        resilient = self._pipeline().run(table, quarantine=sink)
        assert len(sink) == 0
        assert resilient.table.to_rows() == strict.table.to_rows()
        assert resilient.kept_indices == list(range(table.num_rows))

    def test_dirty_rows_divert_with_source_rows(self):
        rows = _clean_rows()
        rows[1]["x"] = 42.0          # scheme does not cover -> discretize
        rows[3]["d"] = None          # derive fails on .year
        table = _batch(rows)
        sink = ListSink()
        result = self._pipeline().run(table, quarantine=sink, batch="b")
        assert result.table.num_rows == 4
        assert sorted(result.kept_indices) == [0, 2, 4, 5]
        by_step = {e.source_index: e.step for e in sink.entries}
        assert by_step == {1: "discretize", 3: "derive"}
        # the pristine source row rides along (no hidden columns)
        diverted = {e.source_index: e.row for e in sink.entries}
        assert diverted[1] == rows[1]
        assert "__ingest_index__" not in diverted[1]

    def test_strict_mode_still_raises(self):
        rows = _clean_rows()
        rows[0]["x"] = 42.0
        with pytest.raises(ReproError):
            self._pipeline().run(_batch(rows))

    def test_run_without_a_result_leaves_the_sink_alone(self):
        rows = _clean_rows()
        rows[1]["x"] = 42.0          # rejected by the first step ...
        pipeline = self._pipeline().add(DiscretizationStep("missing", BOUNDED))
        sink = ListSink()
        with pytest.raises(ETLError, match="missing"):  # ... config error later
            pipeline.run(_batch(rows), quarantine=sink)
        assert len(sink) == 0


class TestResilientLoader:
    def _loader(self):
        from repro.errors import DimensionError
        from repro.warehouse.dimension import Dimension
        from repro.warehouse.fact import Measure
        from repro.warehouse.loader import DimensionSpec, WarehouseLoader

        class PickyDimension(Dimension):
            """Rejects one member — a stand-in for any per-row key failure."""

            def add_member(self, row):
                if row.get("x_band") == "boom":
                    raise DimensionError("no such band: 'boom'")
                return super().add_member(row)

        return WarehouseLoader(
            "mini", "facts",
            [DimensionSpec(PickyDimension("bands", {"x_band": "str"}))],
            [Measure("x", "float")],
        )

    def _pipeline_output(self):
        rows = [
            {"x_band": "lo", "x": 1.0},
            {"x_band": "boom", "x": 3.0},  # key resolution fails per-row
            {"x_band": "hi", "x": 6.0},
        ]
        return Table.from_rows(rows, schema={"x_band": "str", "x": "float"})

    def test_bad_rows_quarantine_and_load_continues(self):
        table = self._pipeline_output()
        sink = ListSink()
        report = self._loader().load(table, quarantine=sink, batch="b",
                                     source_indices=[10, 11, 12])
        assert report.facts_loaded == 2
        assert report.rows_quarantined == 1
        assert report.quarantined_indices == [1]
        assert [e.source_index for e in sink.entries] == [11]
        assert sink.entries[0].step == "load"
        assert sink.entries[0].error_type == "DimensionError"

    def test_strict_load_still_raises(self):
        with pytest.raises(ReproError):
            self._loader().load(self._pipeline_output())


class TestTemporalConflicts:
    def test_same_day_contradiction_recorded_not_raised(self):
        sink: list = []
        intervals = StateAbstraction("fbg", BOUNDED).abstract(
            [dt.date(2009, 1, 1), dt.date(2009, 1, 1), dt.date(2009, 1, 2)],
            [1.0, 9.0, 1.0],
            conflict_sink=sink,
        )
        (conflict,) = sink
        assert isinstance(conflict, TemporalConflict)
        assert {conflict.first.state, conflict.second.state} == {"lo", "hi"}
        # the first reading of the day won; no overlapping intervals remain
        assert [iv.state for iv in intervals] == ["lo"]
        for a, b in zip(intervals, intervals[1:]):
            assert not a.overlaps(b)

    def test_trend_same_day_contradiction(self):
        sink: list = []
        TrendAbstraction("fbg").abstract(
            [dt.date(2009, 1, 1), dt.date(2009, 1, 1), dt.date(2009, 2, 1)],
            [1.0, 4.0, 2.0],
            conflict_sink=sink,
        )
        assert len(sink) == 1

    def test_quarantine_conflicts_routes_structured_entries(self):
        sink: list = []
        StateAbstraction("fbg", BOUNDED).abstract(
            [dt.date(2009, 1, 1), dt.date(2009, 1, 1)], [1.0, 9.0],
            conflict_sink=sink,
        )
        store = QuarantineStore()
        entries = quarantine_conflicts(sink, store, batch="ta")
        assert len(store) == len(entries) == 1
        entry = store.rows()[0]
        assert entry.step == "temporal"
        assert entry.error_type == "TemporalAbstractionError"
        assert entry.row["variable"] == "fbg"
        assert entry.row["state_first"] == "lo"
        assert entry.row["state_second"] == "hi"
