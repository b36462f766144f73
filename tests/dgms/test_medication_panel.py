"""Tests for the medication panel and the dedup ETL step."""

import datetime as dt

import pytest

from repro.dgms.system import DDDGMS
from repro.dgms.users import OperationalSession
from repro.discri.generator import DiScRiGenerator
from repro.etl.pipeline import DeduplicateStep
from repro.tabular import Table


@pytest.fixture(scope="module")
def session():
    system = DDDGMS(DiScRiGenerator(n_patients=150, seed=47).generate())
    return OperationalSession(system, "dr_panel")


class TestMedicationPanel:
    def test_one_row_per_medication_flag(self, session):
        panel = session.medication_panel()
        meds = panel.column("medication").to_list()
        assert "med_metformin" in meds
        assert "med_statin" in meds
        assert "med_insulin_units" not in meds  # numeric column, not a flag
        assert len(meds) == len(set(meds))

    def test_diabetes_drugs_skew_diabetic(self, session):
        panel = session.medication_panel()
        by_name = {row["medication"]: row for row in panel.to_rows()}
        assert by_name["med_metformin"]["diabetic_rate"] > 0.4
        assert by_name["med_metformin"]["other_rate"] < 0.05
        assert by_name["med_metformin"]["ratio"] > 5

    def test_sorted_by_ratio(self, session):
        ratios = session.medication_panel().column("ratio").to_list()
        assert ratios == sorted(ratios, reverse=True)

    def test_rates_are_probabilities(self, session):
        for row in session.medication_panel().to_rows():
            assert 0.0 <= row["diabetic_rate"] <= 1.0
            assert 0.0 <= row["other_rate"] <= 1.0

    def test_journal_entry(self, session):
        session.medication_panel()
        assert any("medication panel" in line for line in session.journal)


class TestDeduplicateStep:
    @pytest.fixture()
    def duplicated(self):
        return Table.from_rows(
            [
                {"pid": 1, "when": dt.date(2010, 1, 1), "fbg": 5.0},
                {"pid": 1, "when": dt.date(2010, 1, 1), "fbg": 5.1},  # re-entry
                {"pid": 1, "when": dt.date(2011, 1, 1), "fbg": 6.0},
                {"pid": 2, "when": dt.date(2010, 1, 1), "fbg": 7.0},
            ]
        )

    def test_keyed_dedup_first_wins(self, duplicated):
        table, detail, __ = DeduplicateStep("pid", "when").apply(duplicated)
        assert table.num_rows == 3
        assert table.row(0)["fbg"] == 5.0
        assert "dropped 1 duplicate" in detail

    def test_full_row_dedup(self):
        table = Table.from_rows([{"a": 1}, {"a": 1}, {"a": 2}])
        result, detail, __ = DeduplicateStep().apply(table)
        assert result.num_rows == 2
        assert "dropped 1" in detail

    def test_no_duplicates_noop(self, duplicated):
        unique = duplicated.distinct("pid", "when")
        result, detail, __ = DeduplicateStep("pid", "when").apply(unique)
        assert result.num_rows == unique.num_rows
        assert "dropped 0" in detail

    def test_in_pipeline_with_audit(self, duplicated):
        from repro.etl.pipeline import Pipeline

        result = Pipeline([DeduplicateStep("pid", "when")]).run(duplicated)
        assert "[deduplicate]" in result.audit_text()
