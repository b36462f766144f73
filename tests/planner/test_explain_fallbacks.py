"""Fallback visibility: every base-scan fallback says *why* in explain().

Regression suite for the formerly-invisible epoch-guard fallback: a
reader holding a stale snapshot silently base-scanned with no span, so
staleness was indistinguishable from a coverage miss in ``explain()``.
Now both fallback flavours stamp a ``fallback_reason`` on the
``lattice.lookup`` span — ``epoch_mismatch`` (staleness guard) and
``no_covering_node`` (coverage miss) — and
``ExplainReport.fallback_reasons()`` tells them apart while
``LatticeStats.fallbacks`` counts them all.
"""

from __future__ import annotations

from repro.obs.explain import ExplainReport, profile
from repro.olap.materialized import MaterializedCube
from tests.planner._star import LEVELS, base_scan, build_cube, default_rows

AGGS = {"n": ("records", "size"), "total": ("m", "sum")}


def _report(fn) -> ExplainReport:
    result, plan = profile("query", fn)
    return ExplainReport(query="q", plan=plan, result=result)


def test_epoch_mismatch_fallback_is_visible_and_exact():
    cube = build_cube(default_rows())
    lattice = MaterializedCube(cube).materialize([list(LEVELS)])
    stale_epoch_state = cube._current_state()
    fresh_state = cube.publish()  # new epoch; the lattice stays pinned
    assert fresh_state is not stale_epoch_state

    before = lattice.stats.fallbacks
    report = _report(
        lambda: lattice.aggregate(["d1.a"], AGGS, state=fresh_state)
    )
    assert report.fallback_reasons() == ["epoch_mismatch"]
    assert lattice.stats.fallbacks == before + 1
    # the guard answered from the caller's own epoch, byte-exact
    oracle = base_scan(cube, ["d1.a"], AGGS, state=fresh_state)
    assert report.result.equals(oracle)
    assert report.plan.find("lattice.lookup") is not None


def test_no_covering_node_fallback_is_visible():
    cube = build_cube(default_rows())
    lattice = MaterializedCube(cube).materialize([["d1.a"]])
    cube.attach_lattice(lattice)
    before = lattice.stats.fallbacks
    report = _report(lambda: cube.aggregate(["d2.c"], AGGS))
    assert report.fallback_reasons() == ["no_covering_node"]
    assert lattice.stats.fallbacks == before + 1


def test_lattice_hits_report_no_fallback_reason():
    cube = build_cube(default_rows())
    lattice = MaterializedCube(cube).materialize([list(LEVELS)])
    cube.attach_lattice(lattice)
    report = _report(lambda: cube.aggregate(["d1.a"], AGGS))
    assert report.fallback_reasons() == []
    assert lattice.stats.exact_hits + lattice.stats.rollup_hits == 1


def test_the_two_fallback_reasons_are_distinguishable():
    """One suite-level check: staleness ≠ coverage miss."""
    seen: dict[str, str] = {}

    # staleness guard
    cube = build_cube(default_rows())
    lattice = MaterializedCube(cube).materialize([list(LEVELS)])
    fresh_state = cube.publish()
    seen["stale"] = _report(
        lambda: lattice.aggregate(["d1.a"], AGGS, state=fresh_state)
    ).fallback_reasons()[0]

    # coverage miss
    cube2 = build_cube(default_rows())
    cube2.attach_lattice(MaterializedCube(cube2).materialize([["d1.a"]]))
    seen["uncovered"] = _report(
        lambda: cube2.aggregate(["d2.c"], AGGS)
    ).fallback_reasons()[0]

    assert seen == {"stale": "epoch_mismatch", "uncovered": "no_covering_node"}
