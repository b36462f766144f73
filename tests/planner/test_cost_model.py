"""Cost-model decision tables, cold-stats fallback, EXPLAIN accuracy.

Three contracts from DESIGN.md §"Cost-based planning":

* **decision table** — with pinned synthetic calibrations the router's
  choice is a pure function of the estimates: cheapest node on node-
  favouring stats, base scan on scan-favouring stats, ties to the node,
  the historical preference while any route kind is cold;
* **cold ≡ legacy** — an attached-but-cold planner changes nothing: a
  twin cube without a planner produces byte-identical answers *and*
  identical lattice hit counters over the same query sequence;
* **EXPLAIN accuracy** — on the workload the model calibrated on, every
  ``est_cost_ms`` the plan carries stays within the declared
  ``ACCURACY_FACTOR`` of the measured stage time.
"""

from __future__ import annotations

import pytest

from repro.obs.explain import ExplainReport, profile
from repro.olap.materialized import MaterializedCube
from repro.planner import QueryPlanner
from repro.planner.cost import (
    ACCURACY_FACTOR,
    COLD_BASE_MS_PER_ROW,
    COLD_FLOOR_MS,
)
from repro.tabular.expressions import col

from tests.planner._star import LEVELS, build_cube, calibrate, default_rows


def _flat_calibration(planner, kind, ms, units, samples=None):
    for _ in range(samples or planner.config.min_samples):
        planner.observe_route(kind, ms, units)


class TestDecisionTable:
    def test_no_candidates_routes_nothing(self):
        planner = QueryPlanner()
        calibrate(planner, cheap="base")
        assert planner.choose_route([], base_rows=100) is None

    def test_cold_stats_keep_the_historical_preference(self):
        planner = QueryPlanner()
        decision = planner.choose_route(
            [("small", 10), ("large", 1000)], base_rows=5
        )
        assert decision.kind == "node"
        assert decision.node_index == 0  # smallest covering node
        assert decision.reason == "cold_stats"

    def test_one_cold_route_kind_still_counts_as_cold(self):
        # only base calibrated: comparing a measured base rate against a
        # guessed node rate would flip decisions on a guess — refuse
        planner = QueryPlanner()
        _flat_calibration(planner, "base", 0.001, 1000)
        decision = planner.choose_route([("n", 10)], base_rows=10_000)
        assert decision.reason == "cold_stats"
        assert decision.kind == "node"
        assert not planner.active

    def test_calibrated_picks_the_cheapest_node(self):
        planner = QueryPlanner()
        # node: 1ms per 1000 cells; base: ruinous
        _flat_calibration(planner, "node", 1.0, 1000)
        _flat_calibration(planner, "base", 1000.0, 1)
        decision = planner.choose_route(
            [("five_k", 5000), ("two_k", 2000), ("three_k", 3000)],
            base_rows=100,
        )
        assert decision.kind == "node"
        assert decision.node_index == 1
        assert decision.reason == "cost"
        assert decision.est_cost_ms == pytest.approx(2.0)

    def test_calibrated_reroutes_to_a_cheaper_scan(self):
        planner = QueryPlanner()
        _flat_calibration(planner, "node", 1000.0, 1)
        _flat_calibration(planner, "base", 0.0001, 1_000_000)
        decision = planner.choose_route([("n", 10)], base_rows=50)
        assert decision.kind == "base"
        assert decision.node_index is None
        assert decision.reason == "cost"

    def test_cost_tie_keeps_the_node(self):
        planner = QueryPlanner()
        # identical rate and floor for both route kinds -> equal estimates
        _flat_calibration(planner, "node", 1.0, 100)
        _flat_calibration(planner, "base", 1.0, 100)
        decision = planner.choose_route([("n", 100)], base_rows=100)
        assert decision.kind == "node"  # base wins only on strict <

    def test_alternatives_list_every_candidate_and_the_scan(self):
        planner = QueryPlanner()
        decision = planner.choose_route(
            [("x", 10), ("y", 20)], base_rows=30
        )
        labels = [label for label, _ in decision.alternatives]
        assert labels == ["x", "y", "base_scan"]

    def test_route_counts_accumulate_by_kind_and_reason(self):
        planner = QueryPlanner()
        planner.choose_route([("n", 10)], base_rows=5)
        calibrate(planner, cheap="base")
        planner.choose_route([("n", 10)], base_rows=5)
        assert planner.route_counts == {"node:cold_stats": 1, "base:cost": 1}


class TestEstimates:
    def test_estimate_is_rate_times_units_with_a_floor(self):
        planner = QueryPlanner()
        _flat_calibration(planner, "base", 2.0, 1000)  # rate 0.002, floor 2.0
        assert planner.cost.estimate_base_ms(10_000) == pytest.approx(20.0)
        assert planner.cost.estimate_base_ms(10) == pytest.approx(2.0)  # floor

    def test_cold_estimates_use_the_documented_defaults(self):
        planner = QueryPlanner()
        assert planner.cost.estimate_base_ms(1_000_000) == pytest.approx(
            1_000_000 * COLD_BASE_MS_PER_ROW
        )
        assert planner.cost.estimate_base_ms(1) == pytest.approx(COLD_FLOOR_MS)

    def test_snapshot_reports_per_route_calibration(self):
        planner = QueryPlanner()
        _flat_calibration(planner, "node", 1.0, 100)
        snap = planner.snapshot()
        assert snap["cost_model"]["routes"]["node"]["calibrated"] is True
        assert snap["cost_model"]["routes"]["base"]["calibrated"] is False
        assert snap["active"] is False


QUERY_MIX = (
    (["d1.a"], {"n": ("records", "size")}, None),
    (["d1.a", "d2.c"], {"total": ("m", "sum")}, None),
    (["d1.b"], {"v_mean": ("v", "mean")}, ("d1.a", "a1")),
    (["d2.c"], {"m_max": ("m", "max")}, None),
    (["d1.a"], {"u": ("m", "nunique")}, None),  # never lattice-answerable
)


def _run_mix(cube):
    results = []
    for levels, aggregations, predicate in QUERY_MIX:
        filters = col(predicate[0]).eq(predicate[1]) if predicate else None
        results.append(cube.aggregate(levels, aggregations, filters=filters))
    return results


class TestColdIsLegacy:
    def test_cold_planner_is_counter_identical_to_no_planner(self):
        rows = default_rows(48)
        with_planner = build_cube(rows)
        without = build_cube(rows)
        for cube in (with_planner, without):
            lattice = MaterializedCube(cube).materialize(
                [["d1.a", "d2.c"], ["d1.b", "d1.a"]]
            )
            cube.attach_lattice(lattice)
        with_planner.attach_planner(QueryPlanner())

        got = _run_mix(with_planner)
        expected = _run_mix(without)
        for g, e in zip(got, expected):
            assert g.equals(e)
        planned, legacy = with_planner.lattice.stats, without.lattice.stats
        assert planned.exact_hits == legacy.exact_hits
        assert planned.rollup_hits == legacy.rollup_hits
        assert planned.fallbacks == legacy.fallbacks
        # and the decisions it did make were all cold-stats preservations
        routes = with_planner.planner.route_counts
        assert set(routes) <= {"node:cold_stats"}


class TestExplainAccuracy:
    def _calibrated_cube(self):
        cube = build_cube(default_rows(120))
        lattice = MaterializedCube(cube).materialize([["d1.a", "d2.c"]])
        cube.attach_lattice(lattice)
        planner = QueryPlanner()
        cube.attach_planner(planner)
        # seed both route kinds from real executions: covered queries for
        # the node calibration, an uncovered level for the base one
        for _ in range(planner.config.min_samples + 1):
            cube.aggregate(["d1.a"], {"n": ("records", "size")})
            cube.aggregate(["d1.b"], {"n": ("records", "size")})
        assert planner.cost.calibrated()
        return cube

    def _explain(self, cube, levels, aggregations):
        _result, plan = profile(
            "query", lambda: cube.aggregate(levels, aggregations)
        )
        return ExplainReport(query="q", plan=plan)

    def test_cost_stats_fields_present_on_both_routes(self):
        cube = self._calibrated_cube()
        covered = self._explain(cube, ["d1.a"], {"n": ("records", "size")})
        entries = covered.cost_stats()
        assert entries, "planned stages must surface est_cost_ms"
        assert {"op", "est_cost_ms", "actual_ms"} <= set(entries[0])
        uncovered = self._explain(cube, ["d1.b"], {"n": ("records", "size")})
        ops = [entry["op"] for entry in uncovered.cost_stats()]
        assert "scan.base" in ops

    def test_estimates_within_declared_bounds_on_seeded_workload(self):
        cube = self._calibrated_cube()
        reports = [
            self._explain(cube, ["d1.a"], {"n": ("records", "size")}),
            self._explain(cube, ["d1.b"], {"n": ("records", "size")}),
        ]
        checked = 0
        for report in reports:
            for entry in report.cost_stats():
                actual = max(entry["actual_ms"], 1e-3)
                est = max(entry["est_cost_ms"], 1e-3)
                assert est <= actual * ACCURACY_FACTOR, entry
                assert est >= actual / ACCURACY_FACTOR, entry
                checked += 1
        assert checked >= 2

    def test_base_scan_estimate_rides_on_the_scan_span(self):
        cube = self._calibrated_cube()
        report = self._explain(cube, ["d1.b"], {"n": ("records", "size")})
        scan = report.plan.find("scan.base")
        assert scan is not None
        assert "est_cost_ms" in scan.attrs
        assert "est_rows" in scan.attrs
