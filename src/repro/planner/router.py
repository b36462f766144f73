"""Routing by coverage, and the :class:`QueryPlanner` that keeps its counts.

A covered query is answered by the smallest materialised lattice node
that holds its levels, filter columns and measures; anything else scans
the base table.  Which nodes cover a request is written down once, in
:meth:`QueryPlanner.classify` (nodes arrive smallest-first, so its
first candidate is the answer), and :meth:`QueryPlanner.choose_route`
turns that list into the :class:`RouteDecision` the ``lattice.lookup``
span records.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs


@dataclass(frozen=True)
class RouteDecision:
    """One routing decision, ready to be stamped onto the plan span."""

    #: ``"node"`` (answer from ``node_index``) or ``"base"`` (scan)
    kind: str
    #: index into the candidate covering-node list (``None`` for base)
    node_index: int | None
    #: why a ``"base"`` route scans although a lattice was consulted:
    #: ``"no_covering_node"`` (``None`` for nodes)
    fallback_reason: str | None = None


#: the decision for a request no materialised node covers
NO_COVERING_NODE = RouteDecision("base", None, "no_covering_node")
#: the decision for a covered request: the smallest covering node
SMALLEST_COVERING_NODE = RouteDecision("node", 0)


class QueryPlanner:
    """The coverage rule plus per-kind counts of the routes it chose.

    One planner instance survives epoch publishes and cube rebuilds
    (it lives in the shared :class:`~repro.olap.cube.CubeRuntime`), so
    its counts belong to the system, not to one epoch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: covered routing decisions by route kind
        self.route_counts: dict[str, int] = {}

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
        answered by no node.
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

    @staticmethod
    def estimate_base_rows(state, filters) -> int:
        """Pre-scan row estimate for answering from the base table.

        Store-backed epochs ask the zone maps (pruned segments cost
        nothing, equality predicates scale by distinct counts); monolithic
        epochs can only offer the full flat-view row count.  Never scans.
        """
        if state.store is not None and filters is not None:
            return state.store.estimate_rows(filters)
        return int(state.num_rows)

    def choose_route(self, candidates: Sequence) -> RouteDecision:
        """The route for one request, given its covering nodes smallest-first.

        The first candidate answers; with none the request scans the base
        table.  Only covered decisions are counted — an uncovered request
        had nothing to choose between, and the lattice counts it as a
        fallback.
        """
        if not candidates:
            return NO_COVERING_NODE
        with self._lock:
            self.route_counts["node"] = self.route_counts.get("node", 0) + 1
        obs.count("planner.route.node")
        return SMALLEST_COVERING_NODE

    def snapshot(self) -> dict:
        """JSON-ready planner state for ``ingest_health()["planner"]``."""
        with self._lock:
            return {"routes_chosen": dict(sorted(self.route_counts.items()))}
