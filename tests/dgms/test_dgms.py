"""Tests for the DD-DGMS facade, user sessions, closed loop and baseline."""

import pytest

from repro.dgms.baseline import ClassicDGMS
from repro.dgms.phases import ClosedLoop
from repro.dgms.system import DDDGMS
from repro.dgms.users import OperationalSession, StrategicSession
from repro.discri.generator import DiScRiGenerator
from repro.knowledge.findings import FindingKind
from repro.optimize.regimen import RegimenProblem, TreatmentOutcome
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry


@pytest.fixture(scope="module")
def system():
    source = DiScRiGenerator(n_patients=120, seed=31).generate()
    return DDDGMS(source)


class TestFacade:
    def test_oltp_point_lookup(self, system):
        row = system.oltp_lookup(1)
        assert row is not None and row["visit_id"] == 1
        assert system.oltp_lookup(10**9) is None

    def test_patient_history_ordered(self, system):
        history = system.patient_history(3)
        dates = [row["visit_date"] for row in history]
        assert dates == sorted(dates)

    def test_olap_builder(self, system):
        grid = (
            system.olap().rows("age_band").columns("gender")
            .count_records().execute()
        )
        assert grid.grand_total() == system.cube.flat.num_rows

    def test_mdx_agrees_with_builder(self, system):
        mdx_grid = system.mdx(
            "SELECT [personal].[gender].MEMBERS ON COLUMNS, "
            "[conditions].[age_band].MEMBERS ON ROWS FROM discri"
        )
        builder_grid = (
            system.olap().rows("age_band").columns("gender")
            .count_records().execute()
        )
        for row_key in builder_grid.row_keys:
            for col_key in builder_grid.col_keys:
                assert mdx_grid.value(row_key, col_key) == builder_grid.value(
                    row_key, col_key
                )

    def test_isolate_cube_slice(self, system):
        rows = system.isolate_cube_slice(diabetes_status="yes")
        assert rows
        assert all(row["diabetes_status"] == "yes" for row in rows)
        assert "fbg" in rows[0]  # measures included, prefixes stripped

    def test_awsum_over_transformed(self, system):
        model = system.awsum(
            "develops_diabetes", ["fbg_band", "reflex_knees_ankles"],
            min_support=5,
        )
        assert model.value_influences()

    def test_trajectory_predictor(self, system):
        predictor = system.trajectory_predictor()
        stage, distribution = predictor.predict_next_stage(
            {"patient_id": -1, "fbg_band": "preDiabetic"}
        )
        assert stage in distribution

    def test_consistency_check(self, system):
        report = system.check_optimum_consistency(
            ["conditions.age_band", "personal.gender"], "fbg",
            min_records=5, removable=["exercise", "ecg"],
        )
        assert report.consistent

    def test_consistency_check_leaves_the_model_as_it_found_it(self, tmp_path):
        """A read-only probe: the removed dimension goes back where it was.

        Re-attaching it last left the live system listing its dimensions
        (and flattening its columns) in another order than a recovered one.
        """
        source = DiScRiGenerator(n_patients=40, seed=31).generate()
        live = DDDGMS(source, durable_root=tmp_path / "sys")
        names = live.warehouse.dimension_names
        columns = live.cube.flat.column_names
        assert names.index("exercise") < len(names) - 1  # mid-grain
        live.check_optimum_consistency(
            ["conditions.age_band", "personal.gender"], "fbg",
            min_records=5, removable=["exercise", "ecg"],
        )
        assert live.warehouse.dimension_names == names
        assert list(live.warehouse.schema.dimensions) == names
        assert live.warehouse.flatten().column_names == columns
        recovered = DDDGMS.recover(tmp_path / "sys")
        assert recovered.warehouse.dimension_names == names

    def test_consistency_check_does_not_write_to_the_warehouse(self):
        """The probe reads: no model version, journal entry or grain change.

        It used to remove and re-add each dimension on the live warehouse
        (outside the writer lock), moving ``version`` from 1 to 5 here.
        """
        live = DDDGMS(DiScRiGenerator(n_patients=80, seed=5).generate())
        warehouse = live.warehouse
        version, history = warehouse.version, warehouse.describe_history()
        names = warehouse.dimension_names
        report = live.check_optimum_consistency(
            ["conditions.age_band", "personal.gender"], "fbg",
            min_records=5, removable=["exercise", "ecg"],
        )
        assert warehouse.version == version
        assert warehouse.describe_history() == history
        assert warehouse.dimension_names == names
        # the verdicts the mutating check gave on this cohort
        assert report.baseline.cell == ("40-60", "F")
        assert report.baseline.value == pytest.approx(6.319565217391306)
        assert [action for action, _ in report.perturbations] == [
            "remove exercise", "remove ecg",
        ]
        for _, found in report.perturbations:
            assert (found.cell, found.value) == (
                report.baseline.cell, report.baseline.value,
            )
        assert report.consistent

    def test_record_finding(self, system):
        system.record_finding(
            "test.finding", FindingKind.AGGREGATE, "statement",
            source="test", description="d", weight=2.0, tags=["t"],
        )
        assert "test.finding" in system.knowledge_base

    def test_visualize_svg(self, system, tmp_path):
        grid = (
            system.olap().rows("age_band").columns("gender")
            .count_records().execute()
        )
        markup = system.visualize(grid, "test", tmp_path / "x.svg")
        assert markup.startswith("<svg")


class TestSessions:
    def test_operational_medication_usage(self, system):
        session = OperationalSession(system, "dr_a")
        grid = session.medication_usage()
        assert grid.grand_total() > 0
        assert session.journal

    def test_operational_diagnosis_support(self, system):
        session = OperationalSession(system, "dr_a")
        stage, __ = session.diagnosis_support(
            {"patient_id": -1, "fbg_band": "high"}
        )
        assert isinstance(stage, str)

    def test_operational_risk_profile(self, system):
        session = OperationalSession(system, "dr_a")
        grid = session.risk_profile(("conditions.age_band", "personal.gender"))
        assert grid.row_levels == ["conditions.age_band"]

    def test_strategic_case_mix_and_rates(self, system):
        session = StrategicSession(system, "admin")
        mix = session.case_mix()
        rates = session.detection_rates_from_warehouse()
        assert mix.grand_total() > 0
        assert all(0 <= rate <= 1 for __, rate in rates.values())

    def test_strategic_planning(self, system):
        session = StrategicSession(system, "admin")
        plan = session.plan_regimen(
            RegimenProblem(
                group_sizes={"g": 10},
                outcomes=[TreatmentOutcome("g", "t", 0.5, 100)],
                budget=500,
            )
        )
        assert plan.total_cost <= 500 + 1e-9
        allocation = session.plan_screening({"a": 50}, {"a": 0.2}, capacity=20)
        assert allocation.expected_detections == pytest.approx(4.0)
        assert len(session.journal) == 2


class TestClosedLoop:
    def test_full_cycle(self):
        source = DiScRiGenerator(n_patients=100, seed=17).generate()
        system = DDDGMS(source)
        loop = ClosedLoop(system)
        outcomes = loop.run_cycle(budget=20_000)
        assert [o.phase for o in outcomes] == [
            "learn", "predict", "optimize", "acquire"
        ]
        assert loop.journal[0].details["accuracy"] > 0.7
        # phase 4 folded a dimension in and recorded a finding
        assert "risk_stratum" in system.warehouse.dimension_names
        assert "loop.risk_stratum" in system.knowledge_base
        # the cube sees the new dimension (the closed loop's point)
        assert "risk_stratum.assessment" in system.cube.levels


class TestFeedbackFold:
    def test_fold_refreshes_cube(self):
        source = DiScRiGenerator(n_patients=60, seed=13).generate()
        system = DDDGMS(source)
        builder = FeedbackDimensionBuilder("flag").add(
            FeedbackEntry("anything", lambda row: True)
        )
        system.fold_feedback(builder)
        assert "flag.assessment" in system.cube.levels


class TestClassicBaseline:
    @pytest.fixture(scope="class")
    def classic(self):
        source = DiScRiGenerator(n_patients=80, seed=23).generate()
        return ClassicDGMS(source)

    def test_crosstab_flat(self, classic):
        result = classic.crosstab("gender", "diabetes_status")
        assert result.num_rows >= 2
        assert "n" in result.column_names

    def test_distinct_patients(self, classic):
        total = classic.distinct_patients()
        diabetic = classic.distinct_patients("diabetes_status = 'yes'")
        assert 0 < diabetic < total == 80

    def test_learn_predict_loop(self, classic):
        classic.learn("dm", "diabetes_status", ["fbg", "bmi"])
        outcome = classic.predict("dm", {"fbg": 8.5, "bmi": 33.0})
        assert outcome["prediction"] in ("yes", "no")

    def test_same_counts_as_warehouse(self, classic):
        """Architecture comparison sanity: both paths see identical data."""
        source = DiScRiGenerator(n_patients=80, seed=23).generate()
        system = DDDGMS(source)
        warehouse_grid = (
            system.olap().rows("gender").columns("conditions.diabetes_status")
            .count_records().execute()
        )
        flat = classic.crosstab("gender", "diabetes_status")
        for row in flat.to_rows():
            assert warehouse_grid.value(
                (row["gender"],), (row["diabetes_status"],)
            ) == row["n"]
