"""Query routing by coverage.

A query is answered by the smallest materialised lattice node that
covers it, and otherwise by a scan of the base table (DESIGN.md
§"Routing by coverage").  :meth:`QueryPlanner.classify` is the coverage
rule, :meth:`QueryPlanner.choose_route` picks the first covering node
and counts the choice, and :meth:`QueryPlanner.estimate_base_rows` is
the zone-map row estimate a base scan stamps on its span.

Which lattice nodes are materialised is the caller's choice
(``DDDGMS.materialize_lattice`` defaults to the figure-shaped roll-ups);
the planner only routes among them.
"""

from repro.planner.router import QueryPlanner, RouteDecision

__all__ = ["QueryPlanner", "RouteDecision"]
