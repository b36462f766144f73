"""Tests for the cube: metadata, aggregation, consistency with flat scans."""

import pytest

from repro.errors import OLAPError, UnknownLevelError
from repro.olap.cube import Cube
from repro.tabular import Table, col
from repro.warehouse.dimension import Dimension
from repro.warehouse.dynamic import DynamicWarehouse
from repro.warehouse.fact import Measure
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry
from repro.warehouse.loader import DimensionSpec, WarehouseLoader


@pytest.fixture()
def small_cube():
    source = Table.from_rows(
        [
            {"gender": "F", "band": "60-80", "pid": 1, "fbg": 7.0},
            {"gender": "F", "band": "60-80", "pid": 1, "fbg": 8.0},
            {"gender": "M", "band": "60-80", "pid": 2, "fbg": 6.0},
            {"gender": "F", "band": "40-60", "pid": 3, "fbg": 5.0},
        ]
    )
    loader = WarehouseLoader(
        "mini", "facts",
        [
            DimensionSpec(Dimension("personal", {"gender": "str", "band": "str"})),
            DimensionSpec(Dimension("card", {"pid": "int"})),
        ],
        [Measure.of("fbg", "float", "mean"),
         Measure.of("count_add", "int", "sum", additive=True)],
        measure_columns={"count_add": "pid"},  # any int; additive stand-in
    )
    loader.load(source)
    return Cube(loader.schema)


class TestMetadata:
    def test_levels(self, small_cube):
        assert "personal.gender" in small_cube.levels
        assert "card.pid" in small_cube.levels

    def test_measures(self, small_cube):
        assert set(small_cube.measure_names) == {"fbg", "count_add", "records"}

    def test_bare_level_resolution(self, small_cube):
        assert small_cube.check_level("gender") == "personal.gender"

    def test_unknown_level_raises(self, small_cube):
        with pytest.raises(UnknownLevelError, match="known"):
            small_cube.check_level("nope")

    def test_level_members_sorted(self, small_cube):
        assert small_cube.level_members("gender") == ["F", "M"]


class TestAggregate:
    def test_default_record_count(self, small_cube):
        table = small_cube.aggregate(["personal.gender"])
        by_gender = {row["personal.gender"]: row["records"] for row in table.to_rows()}
        assert by_gender == {"F": 3, "M": 1}

    def test_measure_mean(self, small_cube):
        table = small_cube.aggregate(
            ["personal.band"], {"mean_fbg": ("fbg", "mean")}
        )
        by_band = {row["personal.band"]: row["mean_fbg"] for row in table.to_rows()}
        assert by_band["60-80"] == pytest.approx(7.0)

    def test_distinct_patient_count(self, small_cube):
        table = small_cube.aggregate(
            ["personal.gender"], {"patients": ("card.pid", "nunique")}
        )
        by_gender = {row["personal.gender"]: row["patients"] for row in table.to_rows()}
        assert by_gender == {"F": 2, "M": 1}

    def test_filters_dice(self, small_cube):
        table = small_cube.aggregate(
            ["personal.gender"], filters=col("personal.band").eq("60-80")
        )
        assert {row["personal.gender"]: row["records"] for row in table.to_rows()} == {
            "F": 2, "M": 1
        }

    def test_sum_of_non_additive_refused(self, small_cube):
        with pytest.raises(OLAPError, match="non-additive"):
            small_cube.aggregate(["personal.gender"], {"s": ("fbg", "sum")})

    def test_sum_forced(self, small_cube):
        table = small_cube.aggregate(
            ["personal.gender"], {"s": ("fbg", "sum")}, force=True
        )
        assert table.num_rows == 2

    def test_sum_of_additive_allowed(self, small_cube):
        small_cube.aggregate(["personal.gender"], {"s": ("count_add", "sum")})

    def test_records_only_supports_counting(self, small_cube):
        with pytest.raises(OLAPError):
            small_cube.aggregate(["personal.gender"], {"x": ("records", "mean")})

    def test_level_target_restricted_functions(self, small_cube):
        with pytest.raises(OLAPError):
            small_cube.aggregate(["personal.gender"], {"x": ("personal.band", "mean")})

    def test_grand_total(self, small_cube):
        total = small_cube.grand_total({"n": ("records", "size"), "m": ("fbg", "mean")})
        assert total["n"] == 4
        assert total["m"] == pytest.approx(6.5)

    def test_grand_total_over_no_rows_keeps_measure_dtypes(self, small_cube):
        result = small_cube.aggregate(
            [],
            {"m": ("fbg", "mean"), "hi": ("fbg", "max"), "n": ("records", "size")},
            filters=col("personal.gender").eq("nobody"),
        )
        assert result.to_rows() == [{"m": None, "hi": None, "n": 0}]
        assert result.schema == {"m": "float", "hi": "float", "n": "int"}

    def test_cube_totals_match_flat_scan(self, small_cube):
        """Core OLAP invariant: cell counts sum to the unfiltered total."""
        table = small_cube.aggregate(["personal.gender", "personal.band"])
        assert sum(table.column("records").to_list()) == small_cube.flat.num_rows


class TestQualifiedAttributeCache:
    """`qualified_attributes()` is rebuilt per schema version, not per call."""

    def test_repeated_checks_hit_the_cache(self, small_cube, monkeypatch):
        calls = {"n": 0}
        original = type(small_cube.schema).qualified_attributes

        def counting(schema):
            calls["n"] += 1
            return original(schema)

        monkeypatch.setattr(
            type(small_cube.schema), "qualified_attributes", counting
        )
        small_cube.check_level("gender")
        small_cube.check_level("personal.band")
        small_cube.aggregate(["personal.gender"])
        assert calls["n"] == 1

    def test_dynamic_add_dimension_invalidates(self, small_cube, monkeypatch):
        dynamic = DynamicWarehouse(small_cube.schema)
        cube = Cube(dynamic)
        cube.check_level("gender")  # warm the cache
        with pytest.raises(UnknownLevelError):
            cube.check_level("site.ward")
        calls = {"n": 0}
        original = type(cube.schema).qualified_attributes

        def counting(schema):
            calls["n"] += 1
            return original(schema)

        monkeypatch.setattr(
            type(cube.schema), "qualified_attributes", counting
        )
        site = Dimension("site", {"ward": "str"})
        site.add_member({"ward": "A"})
        dynamic.add_dimension(site)
        assert cube.check_level("site.ward") == "site.ward"
        assert calls["n"] == 1  # one rebuild for the new version, then cached
        cube.check_level("site.ward")
        cube.aggregate(["site.ward"])
        assert calls["n"] == 1

    def test_refresh_clears_the_cache(self, small_cube):
        small_cube.check_level("gender")
        assert small_cube._state is not None
        before = small_cube.epoch
        small_cube.refresh()
        assert small_cube._state is None
        assert small_cube.check_level("gender") == "personal.gender"
        # the rebuilt state is a new epoch with fresh caches
        assert small_cube.epoch > before


class TestDynamicRefresh:
    def test_cube_sees_new_dimensions_automatically(self, small_cube):
        source_rows = small_cube.flat.num_rows
        dynamic = DynamicWarehouse(small_cube.schema)
        cube = Cube(dynamic)
        builder = FeedbackDimensionBuilder("risk").add(
            FeedbackEntry("any", lambda r: True)
        )
        dynamic.fold_feedback(builder)
        assert "risk.assessment" in cube.levels
        assert cube.flat.num_rows == source_rows
