"""Tests for consistency checking and the two LP optimisers."""

import pytest

from repro.errors import OptimizationError
from repro.olap.cube import Cube
from repro.optimize.consistency import (
    check_dimension_consistency,
    find_optimal_aggregate,
)
from repro.optimize.regimen import (
    RegimenProblem,
    TreatmentOutcome,
    optimize_regimen,
)
from repro.optimize.screening import allocate_screening
from repro.tabular import Table
from repro.warehouse.dimension import Dimension
from repro.warehouse.dynamic import DynamicWarehouse
from repro.warehouse.fact import Measure
from repro.warehouse.feedback import outcome_dimension
from repro.warehouse.loader import DimensionSpec, WarehouseLoader


@pytest.fixture()
def dynamic():
    rows = [
        {"band": "60-80", "sex": "F", "extra": "x", "fbg": 8.0},
        {"band": "60-80", "sex": "F", "extra": "y", "fbg": 7.6},
        {"band": "60-80", "sex": "M", "extra": "x", "fbg": 6.0},
        {"band": "40-60", "sex": "F", "extra": "y", "fbg": 5.5},
        {"band": "40-60", "sex": "M", "extra": "x", "fbg": 5.0},
    ]
    loader = WarehouseLoader(
        "w", "f",
        [
            DimensionSpec(Dimension("p", {"band": "str", "sex": "str"})),
            DimensionSpec(Dimension("e", {"extra": "str"})),
        ],
        [Measure.of("fbg", "float", "mean")],
    )
    loader.load(Table.from_rows(rows))
    return DynamicWarehouse(loader.schema)


class TestOptimalAggregate:
    def test_finds_max_cell(self, dynamic):
        best = find_optimal_aggregate(
            Cube(dynamic), ["p.band", "p.sex"], "fbg", "mean", "max"
        )
        assert best.cell == ("60-80", "F")
        assert best.value == pytest.approx(7.8)

    def test_finds_min_cell(self, dynamic):
        best = find_optimal_aggregate(
            Cube(dynamic), ["p.band"], "fbg", "mean", "min"
        )
        assert best.cell == ("40-60",)

    def test_min_records_excludes_thin_cells(self, dynamic):
        best = find_optimal_aggregate(
            Cube(dynamic), ["p.band", "p.sex"], "fbg", "mean", "max", min_records=2
        )
        assert best.cell == ("60-80", "F")
        with pytest.raises(OptimizationError):
            find_optimal_aggregate(
                Cube(dynamic), ["p.band", "p.sex"], "fbg", "mean", "max",
                min_records=10,
            )

    def test_bad_direction(self, dynamic):
        with pytest.raises(OptimizationError):
            find_optimal_aggregate(Cube(dynamic), ["p.band"], "fbg", "mean", "best")

    def test_describe(self, dynamic):
        best = find_optimal_aggregate(Cube(dynamic), ["p.band"], "fbg")
        assert "mean(fbg)" in best.describe()


class TestConsistency:
    def test_paper_claim_holds(self, dynamic):
        """Removing/adding off-axis dimensions never moves the optimum."""
        report = check_dimension_consistency(
            dynamic, ["p.band", "p.sex"], "fbg",
            removable=["e"],
            addable=[(outcome_dimension("o", ["a", "b"]), None)],
        )
        assert report.consistent
        assert len(report.perturbations) == 2

    def test_warehouse_restored_after_check(self, dynamic):
        before = set(dynamic.dimension_names)
        check_dimension_consistency(
            dynamic, ["p.band"], "fbg", removable=["e"]
        )
        assert set(dynamic.dimension_names) == before
        assert Cube(dynamic).flat.column("e.extra").null_count == 0

    def test_removed_dimension_returns_to_its_position(self, dynamic):
        # "e" is probed while a later dimension exists: it must not move last
        dynamic.add_dimension(outcome_dimension("late", ["a"]))
        before = dynamic.dimension_names
        assert before.index("e") < len(before) - 1
        check_dimension_consistency(
            dynamic, ["p.band"], "fbg", removable=["e"]
        )
        assert dynamic.dimension_names == before
        assert list(dynamic.schema.dimensions) == before
        assert dynamic.schema.fact.key_columns == [f"{n}_key" for n in before]

    def test_cannot_remove_grouping_dimension(self, dynamic):
        with pytest.raises(OptimizationError, match="grouping level"):
            check_dimension_consistency(
                dynamic, ["p.band"], "fbg", removable=["p"]
            )

    def test_summary_text(self, dynamic):
        report = check_dimension_consistency(
            dynamic, ["p.band"], "fbg", removable=["e"]
        )
        assert "consistent: True" in report.summary()


class TestRegimen:
    @pytest.fixture()
    def problem(self):
        return RegimenProblem(
            group_sizes={"pre": 100, "diab": 50},
            outcomes=[
                TreatmentOutcome("pre", "lifestyle", 0.4, 100),
                TreatmentOutcome("pre", "drug", 0.5, 300),
                TreatmentOutcome("diab", "drug", 0.8, 300),
                TreatmentOutcome("diab", "intensive", 1.1, 900),
            ],
            budget=30_000,
        )

    def test_respects_budget(self, problem):
        plan = optimize_regimen(problem)
        assert plan.total_cost <= problem.budget + 1e-6

    def test_respects_group_sizes(self, problem):
        plan = optimize_regimen(problem)
        coverage = plan.coverage(problem.group_sizes)
        assert all(fraction <= 1.0 + 1e-9 for fraction in coverage.values())

    def test_bigger_budget_never_worse(self, problem):
        small = optimize_regimen(problem)
        problem_large = RegimenProblem(
            problem.group_sizes, problem.outcomes, budget=60_000
        )
        large = optimize_regimen(problem_large)
        assert large.total_benefit >= small.total_benefit - 1e-9

    def test_prefers_cost_effective_treatment_when_tight(self):
        problem = RegimenProblem(
            group_sizes={"g": 10},
            outcomes=[
                TreatmentOutcome("g", "cheap", 0.5, 100),   # 0.005 / $
                TreatmentOutcome("g", "pricey", 0.6, 1000),  # 0.0006 / $
            ],
            budget=1000,
        )
        plan = optimize_regimen(problem)
        assert plan.assignments.get(("g", "cheap"), 0) == pytest.approx(10)

    def test_full_coverage_infeasible_when_budget_too_small(self):
        problem = RegimenProblem(
            group_sizes={"g": 100},
            outcomes=[TreatmentOutcome("g", "t", 0.5, 100)],
            budget=100,
            full_coverage=True,
        )
        with pytest.raises(OptimizationError, match="infeasible"):
            optimize_regimen(problem)

    def test_capacity_caps(self, problem):
        problem.capacity = {("diab", "intensive"): 5.0}
        plan = optimize_regimen(problem)
        assert plan.assignments.get(("diab", "intensive"), 0.0) <= 5.0 + 1e-9

    def test_unknown_group_rejected(self):
        with pytest.raises(OptimizationError, match="unknown group"):
            RegimenProblem(
                group_sizes={"a": 1},
                outcomes=[TreatmentOutcome("b", "t", 1, 1)],
                budget=10,
            ).validate()

    def test_negative_cost_rejected(self):
        with pytest.raises(OptimizationError):
            TreatmentOutcome("g", "t", 1.0, -5.0)

    def test_summary_text(self, problem):
        assert "budget" in optimize_regimen(problem).summary()


class TestScreening:
    def test_prioritises_high_detection_groups(self):
        allocation = allocate_screening(
            {"rural": 500, "urban": 2000},
            {"rural": 0.12, "urban": 0.06},
            capacity=800,
        )
        assert allocation.slots["rural"] == pytest.approx(500)
        assert allocation.slots["urban"] == pytest.approx(300)

    def test_capacity_binding(self):
        allocation = allocate_screening(
            {"a": 100, "b": 100}, {"a": 0.2, "b": 0.1}, capacity=50
        )
        assert sum(allocation.slots.values()) == pytest.approx(50)

    def test_equity_floors(self):
        allocation = allocate_screening(
            {"a": 100, "b": 100}, {"a": 0.2, "b": 0.01},
            capacity=100, min_slots={"b": 30},
        )
        assert allocation.slots["b"] >= 30 - 1e-9

    def test_floor_above_population_rejected(self):
        with pytest.raises(OptimizationError, match="population"):
            allocate_screening({"a": 10}, {"a": 0.1}, 50, min_slots={"a": 20})

    def test_floors_exceed_capacity_rejected(self):
        with pytest.raises(OptimizationError, match="exceed"):
            allocate_screening(
                {"a": 100, "b": 100}, {"a": 0.1, "b": 0.1},
                capacity=10, min_slots={"a": 8, "b": 8},
            )

    def test_unknown_group_rates_rejected(self):
        with pytest.raises(OptimizationError):
            allocate_screening({"a": 10}, {"zz": 0.1}, 5)
