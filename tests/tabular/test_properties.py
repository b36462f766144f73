"""Property-based tests for the tabular kernels (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.tabular import Table, col
from repro.tabular.column import Column

ints_or_none = st.lists(st.one_of(st.integers(-1000, 1000), st.none()), max_size=50)
floats = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=50
)


@given(ints_or_none)
def test_column_round_trip(values):
    assert Column.from_values(values, dtype="int").to_list() == values


@given(ints_or_none)
def test_null_count_plus_count_is_length(values):
    column = Column.from_values(values, dtype="int")
    assert column.null_count + column.count() == len(column)


@given(ints_or_none)
def test_fill_null_removes_all_nulls(values):
    filled = Column.from_values(values, dtype="int").fill_null(0)
    assert filled.null_count == 0
    assert len(filled) == len(values)


@given(floats)
def test_sum_matches_python(values):
    column = Column.from_values(values, dtype="float")
    assert abs(column.sum() - sum(values)) <= 1e-6 * max(1.0, abs(sum(values)))


@given(ints_or_none, st.integers(-1000, 1000))
def test_filter_partition(values, threshold):
    """filter(p) and filter(~p) partition the non-null rows; nulls vanish."""
    table = Table.from_columns({"v": values}, schema={"v": "int"})
    above = table.filter(col("v") > threshold)
    below_or_null = table.filter(~(col("v") > threshold))
    assert above.num_rows + below_or_null.num_rows == table.num_rows
    nulls = sum(1 for v in values if v is None)
    strictly_above = sum(1 for v in values if v is not None and v > threshold)
    assert above.num_rows == strictly_above
    assert below_or_null.num_rows == len(values) - strictly_above
    __ = nulls


@given(ints_or_none)
def test_sort_is_permutation_with_nulls_last(values):
    table = Table.from_columns({"v": values}, schema={"v": "int"})
    ordered = table.sort_by("v").column("v").to_list()
    assert sorted((v for v in ordered if v is not None)) == [
        v for v in ordered if v is not None
    ]
    # nulls all at the end
    if None in ordered:
        first_null = ordered.index(None)
        assert all(v is None for v in ordered[first_null:])
    assert sorted(ordered, key=lambda v: (v is None, v if v is not None else 0)) == sorted(
        values, key=lambda v: (v is None, v if v is not None else 0)
    )


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 100)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=50)
def test_groupby_sums_match_total(pairs):
    """Sum of per-group sums equals the global sum (cube-consistency core)."""
    table = Table.from_rows([{"k": k, "v": v} for k, v in pairs])
    grouped = table.groupby("k").agg(total=("v", "sum"))
    assert sum(grouped.column("total").to_list()) == sum(v for _, v in pairs)
