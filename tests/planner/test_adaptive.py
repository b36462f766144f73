"""Adaptive materialization: budgets, eviction, hot-query convergence.

Two layers of coverage:

* a hypothesis **model-based machine** over a raw cube interleaving
  queries, budget changes and publish/reselect cycles, holding the
  invariants the ISSUE names — the node budget is never exceeded,
  queries whose node was evicted still answer byte-identically, and a
  repeatedly-hot query is eventually materialized;
* **DGMS-level** tests for ``materialize_lattice(policy="adaptive")``:
  the policy survives ingest rebuilds (reselection re-runs against the
  then-current workload), decisions land in ``maintenance["planner"]``
  and ``ingest_health()``, and the misuse paths raise ``OLAPError``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.olap.cube import OLAPError
from repro.olap.materialized import MaterializedCube
from repro.planner import QueryPlanner, select_nodes
from repro.tabular.expressions import col

from tests.planner._star import base_scan, build_cube, calibrate, default_rows

#: query shapes over the _star schema: (levels, aggregations, predicate)
SHAPES = (
    (("d1.a",), {"n": ("records", "size")}, None),
    (("d1.a", "d1.b"), {"total": ("m", "sum")}, None),
    (("d2.c",), {"v_mean": ("v", "mean")}, None),
    (("d1.b", "d2.c"), {"m_max": ("m", "max")}, ("d1.a", "a1")),
    (("d1.a", "d2.c"), {"n": ("records", "size"), "total": ("m", "sum")}, None),
)


def _filters(predicate):
    if predicate is None:
        return None
    column, value = predicate
    return col(column).eq(value)


def _wanted(shape) -> tuple[str, ...]:
    """The covering node a shape needs: grouping levels + filter columns."""
    levels, _aggs, predicate = shape
    wanted = set(levels)
    if predicate is not None:
        wanted.add(predicate[0])
    return tuple(sorted(wanted))


def _select(cube, planner, budget_nodes, budget_cells=None):
    state = cube._current_state()
    return select_nodes(
        planner.stats,
        planner.cost,
        available_levels=state.qattrs,
        cardinality=lambda level: len(state.flat.column(level).unique()),
        flat_rows=state.num_rows,
        budget_nodes=budget_nodes,
        budget_cells=budget_cells,
    )


class AdaptiveLatticeMachine(RuleBasedStateMachine):
    """Interleave queries, budget changes and reselections; never diverge."""

    def __init__(self):
        super().__init__()
        self.cube = build_cube(default_rows(36))
        self.planner = QueryPlanner()
        # node-favouring calibration: every recorded plan earns its node,
        # so reselection actually materializes and evicts as budgets move
        calibrate(self.planner, cheap="node")
        self.cube.attach_planner(self.planner)
        self.budget_nodes = 2
        self.budget_cells = None
        self.queried: list = []
        self.materialized_ever: set = set()

    def _assert_parity(self, shape):
        levels, aggregations, predicate = shape
        routed = self.cube.aggregate(
            list(levels), dict(aggregations), filters=_filters(predicate)
        )
        oracle = base_scan(
            self.cube, list(levels), dict(aggregations),
            filters=_filters(predicate),
        )
        assert routed.equals(oracle), shape

    @rule(shape=st.sampled_from(SHAPES))
    def query(self, shape):
        self._assert_parity(shape)
        if shape not in self.queried:
            self.queried.append(shape)

    @rule(n=st.integers(0, 3))
    def set_node_budget(self, n):
        self.budget_nodes = n

    @rule(cells=st.one_of(st.none(), st.integers(1, 200)))
    def set_cell_budget(self, cells):
        self.budget_cells = cells

    @rule()
    def publish_and_reselect(self):
        selection = _select(
            self.cube, self.planner, self.budget_nodes, self.budget_cells
        )
        assert len(selection.groups) <= self.budget_nodes
        if self.budget_cells is not None:
            assert selection.est_cells_total <= self.budget_cells
        lattice = MaterializedCube(self.cube).materialize(selection.groups)
        self.cube.attach_lattice(lattice)
        self.materialized_ever.update(tuple(g) for g in selection.groups)

    @invariant()
    def evicted_or_covered_queries_still_answer(self):
        # every shape ever queried — including ones whose node was since
        # evicted by a reselection — must still equal the base oracle
        for shape in self.queried[-3:]:
            self._assert_parity(shape)


AdaptiveLatticeMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=20, deadline=None
)
TestAdaptiveMachine = AdaptiveLatticeMachine.TestCase


class TestHotQueryConvergence:
    def test_hot_query_is_eventually_materialized(self):
        cube = build_cube(default_rows(36))
        planner = QueryPlanner()
        calibrate(planner, cheap="node")
        cube.attach_planner(planner)
        hot = SHAPES[3]  # filtered shape: wanted set = levels + filter col
        levels, aggregations, predicate = hot
        for _ in range(4):
            cube.aggregate(
                list(levels), dict(aggregations), filters=_filters(predicate)
            )
        selection = _select(cube, planner, budget_nodes=1)
        assert [tuple(g) for g in selection.groups] == [_wanted(hot)]
        assert selection.report[0]["plans_covered"] >= 1
        assert selection.report[0]["benefit_ms"] > 0

    def test_cold_workload_selects_nothing(self):
        cube = build_cube(default_rows(36))
        planner = QueryPlanner()
        cube.attach_planner(planner)
        selection = _select(cube, planner, budget_nodes=4)
        # nothing recorded yet -> no candidates -> the safe empty lattice
        assert selection.groups == []
        assert selection.rejected == 0

    def test_heavier_queries_win_the_last_budget_slot(self):
        cube = build_cube(default_rows(36))
        planner = QueryPlanner()
        calibrate(planner, cheap="node")
        cube.attach_planner(planner)
        hot, cold = SHAPES[0], SHAPES[2]
        for _ in range(6):
            cube.aggregate(list(hot[0]), dict(hot[1]))
        cube.aggregate(list(cold[0]), dict(cold[1]))
        selection = _select(cube, planner, budget_nodes=1)
        assert [tuple(g) for g in selection.groups] == [_wanted(hot)]


def _cohort(n_patients=30, seed=5):
    return DiScRiGenerator(n_patients=n_patients, seed=seed).generate()


def _batch_for(source, n_patients=6, seed=99):
    batch = DiScRiGenerator(n_patients=n_patients, seed=seed).generate()
    return offset_identifiers(
        batch,
        max(source.column("patient_id").to_list()),
        max(source.column("visit_id").to_list()),
    )


HOT_DGMS_QUERY = (
    ["conditions.age_band", "personal.gender"],
    {"n": ("records", "size")},
)


def _seeded_system():
    """A full-rebuild DGMS with a workload the selector will act on."""
    system = DDDGMS(_cohort(), incremental=False)
    calibrate(system.planner, cheap="node")
    for _ in range(4):
        system.cube.aggregate(*HOT_DGMS_QUERY)
    return system


class TestDGMSAdaptivePolicy:
    def test_adaptive_materialization_records_its_decision(self):
        system = _seeded_system()
        system.materialize_lattice(policy="adaptive", budget_nodes=2)
        ledger = system.maintenance["planner"]
        assert ledger["adaptive_selections"] == 1
        decision = ledger["last_decision"]
        assert decision["budget_nodes"] == 2
        assert tuple(sorted(HOT_DGMS_QUERY[0])) in {
            tuple(g) for g in decision["selected"]
        }
        assert ledger["materialized_nodes"] == len(decision["selected"])
        # the covered query now answers from the adaptive node, byte-equal
        routed = system.cube.aggregate(*HOT_DGMS_QUERY)
        oracle = base_scan(system.cube, *HOT_DGMS_QUERY)
        assert routed.equals(oracle)
        assert system.cube.lattice.stats.exact_hits >= 1

    def test_policy_survives_ingest_and_reselects(self):
        system = _seeded_system()
        system.materialize_lattice(policy="adaptive", budget_nodes=2)
        batch = _batch_for(system.source)
        system.ingest_visits(batch, batch="y2")
        ledger = system.maintenance["planner"]
        assert ledger["adaptive_selections"] == 2  # rebuild re-ran selection
        health = system.ingest_health()
        assert health["planner"]["lattice_policy"] == "adaptive"
        assert health["planner"]["decisions"]["adaptive_selections"] == 2
        routed = system.cube.aggregate(*HOT_DGMS_QUERY)
        oracle = base_scan(system.cube, *HOT_DGMS_QUERY)
        assert routed.equals(oracle)

    def test_budget_shrink_evicts_and_queries_reroute(self):
        system = _seeded_system()
        system.materialize_lattice(policy="adaptive", budget_nodes=2)
        built = len(system.maintenance["planner"]["last_decision"]["selected"])
        assert built >= 1
        system.materialize_lattice(policy="adaptive", budget_nodes=0)
        ledger = system.maintenance["planner"]
        assert ledger["evicted_nodes"] == built
        assert ledger["last_decision"]["selected"] == []
        # the formerly-covered query now base-scans, still byte-equal
        routed = system.cube.aggregate(*HOT_DGMS_QUERY)
        oracle = base_scan(system.cube, *HOT_DGMS_QUERY)
        assert routed.equals(oracle)

    def test_health_exposes_planner_snapshot(self):
        system = _seeded_system()
        system.materialize_lattice(policy="adaptive", budget_nodes=2)
        health = system.ingest_health()
        planner_health = health["planner"]
        assert planner_health["lattice_policy"] == "adaptive"
        assert "cost_model" in planner_health
        assert "workload" in planner_health
        assert planner_health["decisions"]["last_decision"]["report"]

    def test_adaptive_rejects_explicit_level_groups(self):
        system = _seeded_system()
        with pytest.raises(OLAPError, match="adaptive"):
            system.materialize_lattice(
                [["conditions.age_band"]], policy="adaptive"
            )

    def test_adaptive_requires_an_attached_planner(self):
        system = DDDGMS(_cohort())
        system.attach_planner(None)
        with pytest.raises(OLAPError, match="planner"):
            system.materialize_lattice(policy="adaptive")
        assert system.ingest_health()["planner"] is None

    def test_detaching_the_planner_resets_the_policy(self):
        system = _seeded_system()
        system.materialize_lattice(policy="adaptive", budget_nodes=2)
        system.attach_planner(None)
        # the remembered policy cannot outlive the planner it needs
        batch = _batch_for(system.source)
        system.ingest_visits(batch, batch="y2")  # must not raise
        assert system.maintenance["planner"]["adaptive_selections"] == 1

    def test_bad_policy_name_raises(self):
        system = DDDGMS(_cohort())
        with pytest.raises(OLAPError, match="policy"):
            system.materialize_lattice(policy="hru")
