"""Tests for the materialised aggregate lattice."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import InjectedFault, OLAPError, QueryTimeoutError
from repro.olap.cube import Cube
from repro.olap.materialized import MaterializedCube
from repro.serving.resilience import Deadline, deadline_scope
from repro.storage import faults
from repro.storage.faults import FaultPlan, FaultRule
from repro.tabular import Table
from repro.warehouse.dimension import Dimension
from repro.warehouse.fact import Measure
from repro.warehouse.loader import DimensionSpec, WarehouseLoader


def build_loader(rows):
    loader = WarehouseLoader(
        "m", "f",
        [
            DimensionSpec(Dimension("d", {"g": "str", "band": "str"})),
            DimensionSpec(Dimension("card", {"pid": "int"})),
        ],
        [Measure.of("v", "float", "mean"),
         Measure.of("n_add", "int", "sum", additive=True)],
        measure_columns={"n_add": "pid"},
    )
    loader.load(Table.from_rows(rows))
    return loader


def build_cube(rows):
    return Cube(build_loader(rows).schema)


ROWS = [
    {"g": "F", "band": "a", "pid": 1, "v": 7.0},
    {"g": "F", "band": "a", "pid": 1, "v": 8.0},
    {"g": "M", "band": "a", "pid": 2, "v": 6.0},
    {"g": "F", "band": "b", "pid": 3, "v": 5.0},
    {"g": "M", "band": "b", "pid": 4, "v": 4.0},
]


@pytest.fixture()
def cube():
    return build_cube(ROWS)


@pytest.fixture()
def lattice(cube):
    return MaterializedCube(cube).materialize([["d.g", "d.band"]])


class TestMaterialization:
    def test_nodes_and_storage(self, lattice):
        assert lattice.nodes == [(("d.g", "d.band"), 4)]
        assert lattice.storage_cells() == 4

    def test_empty_group_rejected(self, cube):
        with pytest.raises(OLAPError):
            MaterializedCube(cube).materialize([[]])

    def test_unknown_measure_rejected(self, cube):
        with pytest.raises(Exception):
            MaterializedCube(cube).materialize([["d.g"]], measures=["zz"])


class TestFailedRematerialization:
    """Regression: once the epoch had moved, ``materialize`` dropped the
    old nodes *before* building the new ones, so a build that raised left
    an empty lattice still pinned to the old epoch."""

    GROUPS = [["d.g", "d.band"], ["d.band"]]

    @pytest.fixture()
    def moved(self):
        """A lattice, then a second batch ingested and published."""
        loader = build_loader(ROWS)
        cube = Cube(loader.schema, managed=True)
        cube.publish()
        lattice = MaterializedCube(cube).materialize(self.GROUPS)
        start = loader.schema.fact.num_rows
        loader.load(Table.from_rows([{"g": "M", "band": "c", "pid": 5, "v": 3.0}]))
        cube.publish_delta(loader.schema.flatten(start=start))
        assert not lattice.is_fresh()
        return lattice

    def _assert_unchanged(self, lattice, nodes, pinned):
        assert lattice._nodes == nodes
        assert lattice._pinned_state is pinned

    def test_expired_deadline_keeps_the_old_nodes(self, moved):
        nodes, pinned = list(moved._nodes), moved._pinned_state
        with deadline_scope(Deadline(0.0)):
            with pytest.raises(QueryTimeoutError):
                moved.materialize(self.GROUPS)
        self._assert_unchanged(moved, nodes, pinned)

    def test_fault_on_a_later_node_keeps_the_old_nodes(self, moved):
        nodes, pinned = list(moved._nodes), moved._pinned_state
        plan = FaultPlan([FaultRule("serving.scan", mode="error", nth=2)])
        with faults.injected(plan):
            with pytest.raises(InjectedFault):
                moved.materialize(self.GROUPS)
        self._assert_unchanged(moved, nodes, pinned)
        # and the next attempt rebuilds cleanly for the new epoch
        moved.materialize(self.GROUPS)
        assert moved.is_fresh()
        assert moved.storage_cells() == 5 + 3


class TestAnswering:
    def test_exact_hit(self, lattice, cube):
        result = lattice.aggregate(["d.g", "d.band"])
        base = cube.aggregate(["d.g", "d.band"])
        assert result.to_rows() == base.to_rows()
        assert lattice.stats.exact_hits == 1

    def test_rollup_counts(self, lattice, cube):
        result = lattice.aggregate(["d.g"])
        base = cube.aggregate(["d.g"])
        assert result.to_rows() == base.to_rows()
        assert lattice.stats.rollup_hits == 1

    def test_rollup_mean_recomposed(self, lattice, cube):
        result = lattice.aggregate(["d.g"], {"m": ("v", "mean")})
        base = cube.aggregate(["d.g"], {"m": ("v", "mean")})
        for got, expected in zip(result.to_rows(), base.to_rows()):
            assert got["m"] == pytest.approx(expected["m"])

    def test_rollup_min_max(self, lattice, cube):
        result = lattice.aggregate(
            ["d.band"], {"lo": ("v", "min"), "hi": ("v", "max")}
        )
        base = cube.aggregate(["d.band"], {"lo": ("v", "min"), "hi": ("v", "max")})
        assert result.to_rows() == base.to_rows()

    def test_additive_sum_rolls_up(self, lattice, cube):
        result = lattice.aggregate(["d.g"], {"s": ("n_add", "sum")})
        base = cube.aggregate(["d.g"], {"s": ("n_add", "sum")})
        assert result.to_rows() == base.to_rows()

    def test_grand_total_from_lattice(self, lattice, cube):
        result = lattice.aggregate([], {"n": ("records", "size")})
        assert result.row(0)["n"] == cube.flat.num_rows
        assert lattice.stats.rollup_hits == 1

    def test_nunique_falls_back(self, lattice):
        result = lattice.aggregate(["d.g"], {"p": ("card.pid", "nunique")})
        assert lattice.stats.fallbacks == 1
        by_g = {row["d.g"]: row["p"] for row in result.to_rows()}
        assert by_g == {"F": 2, "M": 2}

    def test_uncovered_levels_fall_back(self, lattice):
        result = lattice.aggregate(["card.pid"])
        assert lattice.stats.fallbacks == 1
        assert result.num_rows == 4

    def test_non_additive_sum_still_guarded(self, lattice):
        with pytest.raises(OLAPError, match="non-additive"):
            lattice.aggregate(["d.g"], {"s": ("v", "sum")})

    def test_stats_summary(self, lattice):
        lattice.aggregate(["d.g"])
        assert "rolled up" in lattice.stats.summary()


class TestSizeWithNullMeasure:
    """Regression: `size` on a measure was answered from the non-null count
    (`{measure}__count`), diverging from the base cube whenever the measure
    has nulls.  It must be answered from the record count instead."""

    @pytest.fixture()
    def null_cube(self):
        rows = [
            {"g": "F", "band": "a", "pid": 1, "v": 7.0},
            {"g": "F", "band": "a", "pid": 1, "v": None},
            {"g": "M", "band": "a", "pid": 2, "v": None},
            {"g": "F", "band": "b", "pid": 3, "v": 5.0},
            {"g": "M", "band": "b", "pid": 4, "v": None},
        ]
        return build_cube(rows)

    @pytest.fixture()
    def null_lattice(self, null_cube):
        return MaterializedCube(null_cube).materialize([["d.g", "d.band"]])

    def test_size_counts_all_rows(self, null_lattice, null_cube):
        got = null_lattice.aggregate(["d.g"], {"n": ("v", "size")})
        base = null_cube.aggregate(["d.g"], {"n": ("v", "size")})
        assert got.to_rows() == base.to_rows()
        assert {r["d.g"]: r["n"] for r in got.to_rows()} == {"F": 3, "M": 2}

    def test_count_still_skips_nulls(self, null_lattice, null_cube):
        got = null_lattice.aggregate(["d.g"], {"c": ("v", "count")})
        base = null_cube.aggregate(["d.g"], {"c": ("v", "count")})
        assert got.to_rows() == base.to_rows()
        assert {r["d.g"]: r["c"] for r in got.to_rows()} == {"F": 2, "M": 0}

    def test_grand_total_size_vs_count(self, null_lattice, null_cube):
        got = null_lattice.aggregate(
            [], {"n": ("v", "size"), "c": ("v", "count")}
        )
        base = null_cube.aggregate(
            [], {"n": ("v", "size"), "c": ("v", "count")}
        )
        assert got.to_rows() == base.to_rows() == [{"n": 5, "c": 2}]


rows_strategy = st.lists(
    st.fixed_dictionaries(
        {
            "g": st.sampled_from(["F", "M"]),
            "band": st.sampled_from(["a", "b", "c"]),
            "pid": st.integers(1, 6),
            "v": st.one_of(st.none(), st.floats(0, 50, allow_nan=False)),
        }
    ),
    min_size=1,
    max_size=40,
)

#: every aggregation the lattice can answer, over a nullable measure
LATTICE_ANSWERABLE = {
    "n": ("records", "size"),
    "nc": ("records", "count"),
    "m": ("v", "mean"),
    "lo": ("v", "min"),
    "hi": ("v", "max"),
    "present": ("v", "count"),
    "rows": ("v", "size"),
    "s": ("n_add", "sum"),
}


@given(rows_strategy)
@settings(max_examples=30, deadline=None)
def test_property_lattice_matches_base(rows):
    """Every lattice answer equals the base cube's answer, for every
    lattice-answerable aggregation, nulls in the measure included."""
    cube = build_cube(rows)
    lattice = MaterializedCube(cube).materialize([["d.g", "d.band"]])
    for levels in ([], ["d.g"], ["d.band"], ["d.g", "d.band"]):
        got = lattice.aggregate(levels, LATTICE_ANSWERABLE)
        expected = cube.aggregate(levels, LATTICE_ANSWERABLE)
        assert got.column_names == expected.column_names
        for g_row, e_row in zip(got.to_rows(), expected.to_rows()):
            for out in LATTICE_ANSWERABLE:
                if e_row[out] is None:
                    assert g_row[out] is None
                elif LATTICE_ANSWERABLE[out][1] == "mean":
                    assert g_row[out] == pytest.approx(e_row[out])
                else:
                    assert g_row[out] == e_row[out]
    assert lattice.stats.fallbacks == 0
