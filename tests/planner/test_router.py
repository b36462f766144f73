"""The coverage router: smallest covering node, else the base scan."""

from __future__ import annotations

from repro.obs.explain import profile
from repro.olap.materialized import MaterializedCube
from repro.planner import QueryPlanner, RouteDecision

from tests.planner._star import LEVELS, build_cube, default_rows


def test_no_candidates_routes_to_the_base_scan():
    planner = QueryPlanner()
    assert planner.choose_route([]) == RouteDecision(
        "base", None, "no_covering_node"
    )
    assert planner.route_counts == {}


def test_smallest_covering_node_wins():
    cube = build_cube(default_rows())
    lattice = MaterializedCube(cube).materialize(
        [list(LEVELS), ["d1.a", "d2.c"], ["d1.a"], ["d1.b"]]
    )
    cube.attach_lattice(lattice)
    _result, plan = profile("query", lambda: cube.aggregate(["d1.a"]))
    lookup = plan.find("lattice.lookup")
    # three nodes cover d1.a; the one-level node is the smallest
    assert lookup.attrs["node"] == "d1.a"
    assert lookup.attrs["outcome"] == "exact"
    assert cube.planner.route_counts == {"node": 1}


def test_route_counts_are_kept_by_kind():
    planner = QueryPlanner()
    planner.choose_route(["small", "large"])
    planner.choose_route(["only"])
    planner.choose_route([])
    assert planner.route_counts == {"node": 2}
    assert planner.snapshot() == {"routes_chosen": {"node": 2}}
