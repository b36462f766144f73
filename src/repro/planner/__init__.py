"""Workload-adaptive materialization and cost-based query planning.

The obs layer records per-stage timings, the result cache records hit
rates, and the partitioned store's zone maps estimate rows before a
scan — this package is the consumer those statistics were waiting for
(DESIGN.md §"Cost-based planning"):

* :class:`~repro.planner.stats.WorkloadStats` folds every served query
  into per-plan frequencies and per-route cost calibrations;
* :class:`~repro.planner.cost.CostModel` turns the calibrations into
  estimated milliseconds per candidate route, with honest cold-start
  defaults;
* :class:`~repro.planner.router.RouteChooser` picks the cheapest of
  {materialized node, partial rollup, pruned base scan} per query and
  falls back to the historical fixed preference while stats are cold;
* :class:`~repro.planner.adaptive.select_nodes` scores lattice nodes
  from the observed workload (benefit = saved cost x frequency,
  HRU-style greedy under a node/cell budget) — the engine behind
  ``DDDGMS.materialize_lattice(policy="adaptive")``.

:class:`QueryPlanner` bundles the three and attaches to a cube via
:meth:`repro.olap.cube.Cube.attach_planner`; attached, every query's
plan carries ``est_cost_ms`` next to the measured stage time, so
mis-estimates are visible in ``explain()`` and assertable in tests.
"""

from repro.planner.adaptive import NodeCandidate, Selection, select_nodes
from repro.planner.cost import CostModel
from repro.planner.router import (
    PlannerConfig,
    QueryPlanner,
    RouteDecision,
    coerce_planner,
)
from repro.planner.stats import (
    PlanSignature,
    WorkloadStats,
    classify_request,
    estimate_base_rows,
)

__all__ = [
    "CostModel",
    "NodeCandidate",
    "PlanSignature",
    "PlannerConfig",
    "QueryPlanner",
    "RouteDecision",
    "Selection",
    "WorkloadStats",
    "classify_request",
    "coerce_planner",
    "estimate_base_rows",
    "select_nodes",
]
