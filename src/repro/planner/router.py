"""The route chooser and the :class:`QueryPlanner` facade.

Per covered query the router compares every candidate route's estimated
cost and picks the cheapest:

=================  ==========================  =======================
route              work units                  historical preference
=================  ==========================  =======================
materialized node  cells of the covering node  smallest covering node
partial rollup     (same — a coarser query      (same node, rolled up)
                   over the same node)
pruned base scan   zone-map estimated rows     only when nothing covers
=================  ==========================  =======================

Which nodes cover a request is written down once, in
:meth:`QueryPlanner.classify`.  While the cost model is cold the router
reproduces the historical preference *exactly* (smallest covering node,
else base scan), so a planner-attached cube with no recorded samples
behaves byte- and counter-identically to one without a planner —
:func:`choose_route` is the one place that preference is written down,
and "no planner" is just its cold branch.  Decisions carry their
estimate and reason into the ``lattice.lookup`` span, where
``explain()`` shows them next to the measured time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro import obs
from repro.planner.cost import CostModel
from repro.planner.stats import WorkloadStats, estimate_base_rows
from repro.serving.resilience import current_deadline


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs for one :class:`QueryPlanner` (``SystemConfig(planner=...)``).

    ``min_samples`` is how many observed executions *per route kind*
    the cost model needs before the router may override the historical
    route preference.
    """

    min_samples: int = 5


@dataclass(frozen=True)
class RouteDecision:
    """One routing decision, ready to be stamped onto the plan span."""

    #: ``"node"`` (answer from ``node_index``) or ``"base"`` (scan)
    kind: str
    #: index into the candidate covering-node list (``None`` for base)
    node_index: int | None
    #: the chosen route's estimated cost (``None``: no planner costed it)
    est_cost_ms: float | None
    #: ``"cold_stats"`` (historical preference kept), ``"cost"``, or
    #: ``"uncovered"`` (no candidate to cost)
    reason: str
    #: every candidate considered, as ``(label, est_ms)`` — for debugging
    alternatives: tuple[tuple[str, float], ...] = ()
    #: the chosen estimate exceeds the query's remaining deadline — the
    #: serving tier's deadline still governs; this only flags the risk
    deadline_risk: bool = False
    #: why a ``"base"`` route scans although a lattice was consulted:
    #: ``"no_covering_node"`` or ``"planner_cost"`` (``None`` for nodes)
    fallback_reason: str | None = None


#: the historical fixed preference, kept while the cost model is cold
#: (or no planner is attached): candidates arrive smallest-first, so the
#: smallest covering node
COLD_NODE_INDEX = 0


class QueryPlanner:
    """Statistics + cost model + router, attachable to a cube.

    One planner instance survives epoch publishes and cube rebuilds
    (like the result cache and serving runtime): the workload it learns
    belongs to the system, not to one epoch.
    """

    def __init__(self, config: PlannerConfig | None = None):
        self.config = config or PlannerConfig()
        self.stats = WorkloadStats()
        self.cost = CostModel(self.stats, min_samples=self.config.min_samples)
        self._lock = threading.Lock()
        #: routing decision counts by ``f"{kind}:{reason}"``
        self.route_counts: dict[str, int] = {}

    # -- coverage and recording ----------------------------------------

    @staticmethod
    def classify(
        nodes: Sequence,
        levels: Sequence[str],
        aggregations: Mapping[str, tuple[str, str]],
        filters,
        records: str,
        fact_measures,
    ) -> list:
        """The lattice nodes able to answer a request, in ``nodes`` order.

        The one coverage rule.  A node answers when it materialises every
        grouping level and filter column and every measure aggregated;
        ``nunique`` (distinct counts do not roll up) and a level-valued
        target (``target`` neither ``records`` nor a fact measure) are
        answered by no node.  It reads only the request and the nodes,
        so the lattice asks it with or without a planner attached.
        """
        wanted = set(levels)
        if filters is not None:
            wanted |= set(filters.columns())
        measures: set[str] = set()
        for target, func in aggregations.values():
            if func == "nunique":
                return []
            if target != records:
                if target not in fact_measures:
                    return []
                measures.add(target)
        return [
            node
            for node in nodes
            if wanted <= set(node.levels) and measures <= set(node.measures)
        ]

    def observe_route(self, kind: str, ms: float, units: int) -> None:
        """Record one measured route execution for calibration."""
        self.stats.observe_route(kind, ms, units)

    def estimate_base_rows(self, state, filters) -> int:
        """Zone-map (or flat-view) row estimate for the base route."""
        return estimate_base_rows(state, filters)

    # -- routing --------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when the router may override the historical preference."""
        return self.cost.calibrated()

    def choose_route(
        self,
        candidates: Sequence[tuple[str, int]],
        base_rows: int,
    ) -> RouteDecision | None:
        """Pick the cheapest route for one covered query.

        ``candidates`` is the covering nodes smallest-first as
        ``(label, cells)`` — the historical preference is index 0.
        Returns ``None`` when nothing covers the request; a
        ``cold_stats`` decision mirroring the historical preference
        when the model is not yet calibrated.
        """
        if not candidates:
            return None
        base_est = self.cost.estimate_base_ms(base_rows)
        node_ests = [
            (label, self.cost.estimate_node_ms(cells))
            for label, cells in candidates
        ]
        alternatives = tuple(node_ests) + (("base_scan", base_est),)
        if not self.cost.calibrated():
            decision = RouteDecision(
                kind="node",
                node_index=COLD_NODE_INDEX,
                est_cost_ms=node_ests[COLD_NODE_INDEX][1],
                reason="cold_stats",
                alternatives=alternatives,
            )
        else:
            best_index = min(
                range(len(node_ests)), key=lambda i: node_ests[i][1]
            )
            if base_est < node_ests[best_index][1]:
                decision = RouteDecision(
                    kind="base",
                    node_index=None,
                    est_cost_ms=base_est,
                    reason="cost",
                    alternatives=alternatives,
                    # a re-route, not a coverage failure
                    fallback_reason="planner_cost",
                )
            else:
                decision = RouteDecision(
                    kind="node",
                    node_index=best_index,
                    est_cost_ms=node_ests[best_index][1],
                    reason="cost",
                    alternatives=alternatives,
                )
        deadline = current_deadline()
        remaining = deadline.remaining() if deadline is not None else None
        if remaining is not None and decision.est_cost_ms > remaining * 1000.0:
            decision = replace(decision, deadline_risk=True)
        label = f"{decision.kind}:{decision.reason}"
        with self._lock:
            self.route_counts[label] = self.route_counts.get(label, 0) + 1
        obs.count(f"planner.route.{decision.kind}")
        return decision

    # -- health ---------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready planner state for ``ingest_health()["planner"]``."""
        with self._lock:
            routes = dict(sorted(self.route_counts.items()))
        return {
            "active": self.active,
            "cost_model": self.cost.snapshot(),
            "workload": self.stats.snapshot(),
            "routes_chosen": routes,
        }


def choose_route(
    planner: "QueryPlanner | None",
    candidates: Sequence[tuple[str, int]],
    base_rows: int,
) -> RouteDecision:
    """The one routing rule: which covering node answers, or the base scan.

    ``candidates`` is every lattice node able to answer the request,
    smallest-first, as ``(label, cells)``; ``base_rows`` the plan's
    zone-map row estimate.  With nothing covering the request the route
    is the base scan (``fallback_reason="no_covering_node"``); a planner
    costs the candidates against the scan
    (:meth:`QueryPlanner.choose_route`); without one the historical
    preference stands, exactly as under a cold planner.
    """
    if not candidates:
        return RouteDecision(
            "base", None, None, "uncovered",
            fallback_reason="no_covering_node",
        )
    if planner is None:
        return RouteDecision("node", COLD_NODE_INDEX, None, "cold_stats")
    return planner.choose_route(candidates, base_rows)


def coerce_planner(
    value: "QueryPlanner | PlannerConfig | bool | None",
) -> "QueryPlanner | None":
    """Every ``SystemConfig(planner=...)`` spelling to a planner or None.

    ``True`` builds one with defaults, a :class:`PlannerConfig`
    configures a fresh one, a ready :class:`QueryPlanner` is shared
    as-is (its learned workload included), ``None``/``False`` disables
    planning entirely.
    """
    if value is None or value is False:
        return None
    if value is True:
        return QueryPlanner()
    if isinstance(value, PlannerConfig):
        return QueryPlanner(value)
    if isinstance(value, QueryPlanner):
        return value
    raise TypeError(
        "planner= takes a QueryPlanner, a PlannerConfig, True/False or None, "
        f"not {type(value).__name__}"
    )
