"""Tests for cardinality assignment and the pipeline."""

import datetime as dt

import pytest

from repro.errors import ETLError
from repro.etl.cardinality import assign_cardinality, first_visit_only, visit_counts
from repro.etl.cleaning import RangeRule
from repro.etl.pipeline import (
    CardinalityStep,
    CleaningStep,
    DeriveStep,
    DiscretizationStep,
    Pipeline,
)
from repro.discri.schemes import FBG_SCHEME
from repro.tabular import Table


@pytest.fixture()
def visits():
    return Table.from_rows(
        [
            {"pid": 1, "when": dt.date(2010, 6, 1), "fbg": 5.5},
            {"pid": 1, "when": dt.date(2009, 3, 1), "fbg": 5.0},
            {"pid": 2, "when": dt.date(2010, 5, 1), "fbg": 7.2},
            {"pid": 1, "when": dt.date(2011, 3, 1), "fbg": 6.5},
        ]
    )


class TestCardinality:
    def test_ordinals_by_date(self, visits):
        result = assign_cardinality(visits, "pid", "when")
        assert result.column("visit_number").to_list() == [2, 1, 1, 3]

    def test_ties_broken_by_row_order(self):
        table = Table.from_rows(
            [
                {"pid": 1, "when": dt.date(2010, 1, 1)},
                {"pid": 1, "when": dt.date(2010, 1, 1)},
            ]
        )
        result = assign_cardinality(table, "pid", "when")
        assert result.column("visit_number").to_list() == [1, 2]

    def test_null_date_rejected(self):
        table = Table.from_rows([{"pid": 1, "when": None}])
        with pytest.raises(ETLError, match="null"):
            assign_cardinality(table, "pid", "when")

    def test_null_patient_rejected(self):
        table = Table.from_rows([{"pid": None, "when": dt.date(2010, 1, 1)}])
        with pytest.raises(ETLError):
            assign_cardinality(table, "pid", "when")

    def test_empty_table(self):
        table = Table.empty({"pid": "int", "when": "date"})
        result = assign_cardinality(table, "pid", "when")
        assert "visit_number" in result

    def test_visit_counts(self, visits):
        assert visit_counts(visits, "pid") == {1: 3, 2: 1}

    def test_first_visit_only(self, visits):
        firsts = first_visit_only(visits, "pid", "when")
        assert firsts.num_rows == 2
        assert firsts.column("fbg").to_list() == [5.0, 7.2]


class TestPipeline:
    def test_full_pipeline_with_audit(self, visits):
        pipeline = Pipeline(
            [
                CleaningStep(range_rules=[RangeRule("fbg", low=1, high=30)]),
                DiscretizationStep("fbg", FBG_SCHEME, output="fbg_band"),
                DeriveStep("year", lambda row: row["when"].year, dtype="int"),
                CardinalityStep("pid", "when"),
            ]
        )
        result = pipeline.run(visits)
        assert "fbg_band" in result.table
        assert result.table.column("year").to_list()[0] == 2010
        assert len(result.audit) == 4
        assert "[cardinality]" in result.audit_text()

    def test_discretize_keep_original(self, visits):
        step = DiscretizationStep("fbg", FBG_SCHEME)
        table, detail, rejected = step.apply(visits)
        assert rejected == []
        assert "fbg" in table and "fbg_band" in table
        assert "FBG" in detail

    def test_discretize_drop_original(self, visits):
        step = DiscretizationStep("fbg", FBG_SCHEME, keep_original=False)
        table, __, __ = step.apply(visits)
        assert "fbg" not in table

    def test_empty_pipeline_rejected(self, visits):
        with pytest.raises(ETLError):
            Pipeline().run(visits)

    def test_add_chains(self, visits):
        pipeline = Pipeline().add(CardinalityStep("pid", "when"))
        assert len(pipeline.steps) == 1
