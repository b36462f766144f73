"""Cost-based query planning.

The obs layer records per-stage timings and the partitioned store's
zone maps estimate rows before a scan — this package turns them into a
route per query (DESIGN.md §"Cost-based planning"):

* :class:`~repro.planner.stats.WorkloadStats` folds every computed
  answer into per-route cost calibrations;
* :class:`~repro.planner.cost.CostModel` turns the calibrations into
  estimated milliseconds per candidate route, with honest cold-start
  defaults;
* :func:`~repro.planner.router.choose_route` picks the cheapest of
  {materialized node, partial rollup, pruned base scan} per query among
  the nodes :meth:`~repro.planner.router.QueryPlanner.classify` finds
  covering it, and keeps the historical fixed preference while stats
  are cold.

Which lattice nodes are materialised is the caller's choice
(``DDDGMS.materialize_lattice`` defaults to the figure-shaped roll-ups);
the planner only routes among them.  :class:`QueryPlanner` bundles the
three and attaches to a cube via
:meth:`repro.olap.cube.Cube.attach_planner`; attached, every query's
plan carries ``est_cost_ms`` next to the measured stage time, so
mis-estimates are visible in ``explain()`` and assertable in tests.
"""

from repro.planner.cost import CostModel
from repro.planner.router import (
    PlannerConfig,
    QueryPlanner,
    RouteDecision,
    coerce_planner,
)
from repro.planner.stats import WorkloadStats, estimate_base_rows

__all__ = [
    "CostModel",
    "PlannerConfig",
    "QueryPlanner",
    "RouteDecision",
    "WorkloadStats",
    "coerce_planner",
    "estimate_base_rows",
]
