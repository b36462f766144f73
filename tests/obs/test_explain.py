"""EXPLAIN goldens for the paper's Figure 4 query, via both front doors.

The Fig 4 crosstab (attendances by age band x gender for patients with a
family history of diabetes) is the paper's running example; these tests
pin the measured plan tree it produces, with the lattice attached so the
plan must name the rollup node that answered it, and the group-by stage
must show its ``factorize`` child.
"""

from __future__ import annotations

import pytest

from repro.obs.explain import ExplainReport
from repro.olap.materialized import MaterializedCube
from repro.olap.mdx.evaluator import execute_mdx
from repro.olap.query import QueryBuilder, measure

FIG4_GROUP = ("conditions.age_band", "personal.gender", "personal.family_history_diabetes")

FIG4_MDX = (
    "SELECT [personal].[gender].MEMBERS ON COLUMNS, "
    "[conditions].[age_band].MEMBERS ON ROWS "
    "FROM discri "
    "WHERE [personal].[family_history_diabetes].[yes]"
)


@pytest.fixture(scope="module")
def fig4_cube(cube):
    """The session cube with the Fig 4 lattice node attached."""
    lattice = MaterializedCube(cube).materialize([list(FIG4_GROUP)])
    cube.attach_lattice(lattice)
    yield cube
    cube.detach_lattice()


def _fig4_builder(cube) -> QueryBuilder:
    return (
        cube.query()
        .rows("conditions.age_band")
        .columns("personal.gender")
        .where("personal.family_history_diabetes", "yes")
        .measure(measure("records").size().named("attendances"))
    )


def _assert_fig4_plan(report: ExplainReport) -> None:
    root = report.plan
    agg = root.find("cube.aggregate")
    assert agg is not None
    assert agg.attrs["levels"] == "conditions.age_band,personal.gender"
    assert agg.attrs["filtered"] is True

    # The plan must name the lattice node that answered the query.
    lookup = root.find("lattice.lookup")
    assert lookup is not None
    assert lookup.attrs["outcome"] == "rollup"
    assert lookup.attrs["node"] == ",".join(FIG4_GROUP)

    groupby = root.find("groupby.agg")
    assert groupby is not None
    assert groupby.find("factorize") is not None

    # Every stage carries a measured wall-clock duration.
    for node in root.walk():
        assert node.duration_ms >= 0.0


class TestBuilderPath:
    def test_fig4_plan_tree(self, fig4_cube):
        report = _fig4_builder(fig4_cube).explain()
        assert isinstance(report, ExplainReport)
        _assert_fig4_plan(report)
        assert report.plan.op == "query"

    def test_to_text_stable_form(self, fig4_cube):
        text = _fig4_builder(fig4_cube).explain().to_text(timings=False)
        assert text.startswith("EXPLAIN ")
        assert "ROWS conditions.age_band" in text
        assert "WHERE personal.family_history_diabetes IN (yes)" in text
        assert "lattice.lookup" in text
        assert "outcome=rollup" in text
        assert "ms)" not in text  # timings suppressed

    def test_explain_carries_the_result_grid(self, fig4_cube):
        report = _fig4_builder(fig4_cube).explain()
        grid = report.result
        assert grid is not None
        # explain() must return the same numbers execute() would
        executed = _fig4_builder(fig4_cube).execute()
        assert grid.grand_total() == executed.grand_total()

    def test_explain_does_not_consume_the_builder(self, fig4_cube):
        builder = _fig4_builder(fig4_cube)
        first = builder.explain()
        second = builder.explain()
        assert first.result.grand_total() == second.result.grand_total()


class TestMdxPath:
    def test_explain_prefix_returns_report(self, fig4_cube):
        result = execute_mdx(fig4_cube, "EXPLAIN " + FIG4_MDX)
        assert isinstance(result, ExplainReport)
        _assert_fig4_plan(result)

    def test_mdx_plan_has_parser_and_pivot_stages(self, fig4_cube):
        report = execute_mdx(fig4_cube, "EXPLAIN " + FIG4_MDX)
        for stage in ("mdx.parse", "mdx.resolve", "mdx.pivot"):
            assert report.plan.find(stage) is not None, stage

    def test_header_echoes_the_mdx_source(self, fig4_cube):
        text = execute_mdx(fig4_cube, "EXPLAIN " + FIG4_MDX).to_text(timings=False)
        first_line = text.splitlines()[0]
        assert first_line == "EXPLAIN " + FIG4_MDX

    def test_both_paths_agree_on_the_lattice_node(self, fig4_cube):
        via_mdx = execute_mdx(fig4_cube, "EXPLAIN " + FIG4_MDX)
        via_builder = _fig4_builder(fig4_cube).explain()
        assert (
            via_mdx.plan.find("lattice.lookup").attrs["node"]
            == via_builder.plan.find("lattice.lookup").attrs["node"]
            == ",".join(FIG4_GROUP)
        )


class TestWithoutLattice:
    def test_base_table_scan_is_reported(self, fresh_built):
        from repro.olap.cube import Cube

        report = _fig4_builder(Cube(fresh_built.warehouse)).explain()
        agg = report.plan.find("cube.aggregate")
        assert agg is not None
        assert report.plan.find("lattice.lookup") is None
        assert report.plan.find("groupby.agg") is not None
