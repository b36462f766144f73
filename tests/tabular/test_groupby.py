"""Tests for group-by aggregation."""

import pytest

from repro.errors import ColumnNotFoundError, TabularError
from repro.tabular import Table


@pytest.fixture()
def visits():
    return Table.from_rows(
        [
            {"sex": "F", "band": "60-80", "fbg": 7.0, "pid": 1},
            {"sex": "F", "band": "60-80", "fbg": 8.0, "pid": 1},
            {"sex": "M", "band": "60-80", "fbg": 6.0, "pid": 2},
            {"sex": "F", "band": "40-60", "fbg": None, "pid": 3},
            {"sex": None, "band": "40-60", "fbg": 5.0, "pid": 4},
        ]
    )


class TestGroups:
    def test_first_occurrence_order(self, visits):
        result = visits.groupby("sex").agg(n=("pid", "size"))
        assert result.column("sex").to_list() == ["F", "M", None]

    def test_null_keys_form_a_group(self, visits):
        result = visits.groupby("sex").agg(n=("pid", "size"))
        assert result.to_rows()[-1] == {"sex": None, "n": 1}

    def test_multi_key(self, visits):
        result = visits.groupby("sex", "band").agg(n=("pid", "size"))
        assert [(r["sex"], r["band"], r["n"]) for r in result.to_rows()] == [
            ("F", "60-80", 2),
            ("M", "60-80", 1),
            ("F", "40-60", 1),
            (None, "40-60", 1),
        ]

    def test_unknown_key_raises(self, visits):
        with pytest.raises(ColumnNotFoundError):
            visits.groupby("nope")

    def test_no_keys_is_one_grand_total_group(self, visits):
        result = visits.groupby().agg(n=("fbg", "count"), total=("fbg", "sum"))
        assert result.to_rows() == [{"n": 4, "total": 26.0}]
        empty = visits.head(0).groupby().agg(total=("fbg", "sum"))
        assert empty.to_rows() == [{"total": None}]
        assert empty.schema == {"total": "float"}


class TestAgg:
    def test_size_vs_count(self, visits):
        result = visits.groupby("band").agg(
            size=("fbg", "size"), present=("fbg", "count")
        )
        by_band = {row["band"]: row for row in result.to_rows()}
        assert by_band["40-60"]["size"] == 2
        assert by_band["40-60"]["present"] == 1

    def test_mean_skips_nulls(self, visits):
        result = visits.groupby("sex").agg(mean_fbg=("fbg", "mean"))
        by_sex = {row["sex"]: row["mean_fbg"] for row in result.to_rows()}
        assert by_sex["F"] == pytest.approx(7.5)

    def test_sum_min_max(self, visits):
        result = visits.groupby("band").agg(
            total=("fbg", "sum"), low=("fbg", "min"), high=("fbg", "max")
        )
        row = next(r for r in result.to_rows() if r["band"] == "60-80")
        assert (row["total"], row["low"], row["high"]) == (21.0, 6.0, 8.0)

    def test_nunique(self, visits):
        result = visits.groupby("band").agg(patients=("pid", "nunique"))
        by_band = {row["band"]: row["patients"] for row in result.to_rows()}
        assert by_band == {"60-80": 2, "40-60": 2}

    def test_first_last(self, visits):
        result = visits.groupby("sex").agg(
            first=("fbg", "first"), last=("fbg", "last")
        )
        row = next(r for r in result.to_rows() if r["sex"] == "F")
        assert (row["first"], row["last"]) == (7.0, None)

    def test_unknown_function_raises(self, visits):
        with pytest.raises(TabularError, match="unknown aggregation"):
            visits.groupby("sex").agg(x=("fbg", "median"))

    def test_bad_spec_raises(self, visits):
        with pytest.raises(TabularError, match="must be"):
            visits.groupby("sex").agg(x="fbg")  # type: ignore[arg-type]

    def test_empty_agg_raises(self, visits):
        with pytest.raises(TabularError):
            visits.groupby("sex").agg()

    def test_size_shorthand(self, visits):
        assert visits.groupby("sex").size().column("size").to_list() == [3, 1, 1]
