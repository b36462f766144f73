"""Property suite: the bulk row↔column kernels ≡ the per-element oracle.

``Column.value(i)`` stays the definition of what a column holds;
``Column.to_list()`` must return exactly ``[value(i) for i in range(n)]``
— the same values *and* the same Python types — for every logical type,
with nulls anywhere, all-null and empty columns, NaN in a valid float
slot, and null slots holding anything at all (a null slot's data is never
interpreted).  ``from_values`` must round-trip what ``to_list`` produced,
and agree with the per-value ``coerce_value`` path on inputs that need
coercing; ``Table.from_rows`` / ``iter_rows`` / ``iter_row_views`` must
transpose without changing a cell.
"""

import datetime as dt
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import SchemaMismatchError
from repro.tabular.column import Column
from repro.tabular.dtypes import NULL_SENTINELS, DType, coerce_value
from repro.tabular.table import Table

#: what a *null* slot's data array may hold besides the sentinel — values
#: that would raise or mislead if a kernel decoded them
_GARBAGE = {
    DType.INT: [0, -1, 2**62],
    DType.FLOAT: [float("nan"), 0.0, float("inf")],
    DType.STR: [None, "ghost", 7],
    DType.BOOL: [False, True],
    DType.DATE: [0, 10**12, -(10**12)],  # not decodable as dates
}

_PRESENT = {
    DType.INT: st.integers(-(2**62), 2**62),
    DType.FLOAT: st.floats(allow_nan=True, allow_infinity=True),
    DType.STR: st.text(max_size=6),
    DType.BOOL: st.booleans(),
    # stored as day ordinals; any date the calendar can express
    DType.DATE: st.integers(
        (dt.date.min - dt.date(1970, 1, 1)).days,
        (dt.date.max - dt.date(1970, 1, 1)).days,
    ),
}


@st.composite
def columns(draw, dtype=None, n=None):
    """A raw column: data array + mask, null slots filled with garbage."""
    if dtype is None:
        dtype = draw(st.sampled_from(list(DType)))
    if n is None:
        n = draw(st.integers(0, 30))
    valid = draw(
        st.one_of(
            st.just([True] * n),
            st.just([False] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    cells = [
        draw(_PRESENT[dtype]) if ok else draw(st.sampled_from(_GARBAGE[dtype]))
        for ok in valid
    ]
    data = np.empty(n, dtype=dtype.numpy_dtype)
    data[:] = cells
    return Column(dtype, data, np.array(valid, dtype=bool))


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _assert_same_lists(got, expected):
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected)):
        assert _same(a, b), f"slot {i}: {a!r} ({type(a).__name__}) != {b!r}"


@settings(max_examples=300, deadline=None)
@given(columns())
def test_to_list_is_value_by_value(column):
    oracle = [column.value(i) for i in range(len(column))]
    _assert_same_lists(column.to_list(), oracle)


@settings(max_examples=300, deadline=None)
@given(columns())
def test_from_values_round_trips_to_list(column):
    values = column.to_list()
    rebuilt = Column.from_values(values, dtype=column.dtype)
    assert rebuilt.dtype is column.dtype
    assert rebuilt.valid.dtype == np.bool_
    assert rebuilt.data.dtype == column.dtype.numpy_dtype
    assert rebuilt.valid.tolist() == column.valid.tolist()
    _assert_same_lists(rebuilt.to_list(), values)
    # null slots hold the type's sentinel, whatever the source held there
    sentinel = NULL_SENTINELS[column.dtype]
    for raw in rebuilt.data[~rebuilt.valid].tolist():
        assert _same(raw, sentinel)


#: inputs that are *not* already of the storage type — the per-value path
_COERCIBLE = {
    DType.INT: st.one_of(st.booleans(), st.integers(-9, 9).map(float), st.integers(-9, 9)),
    DType.FLOAT: st.one_of(st.integers(-9, 9), st.booleans(), st.floats(-9, 9)),
    DType.STR: st.one_of(st.integers(-9, 9), st.text(max_size=3), st.floats(-9, 9)),
    DType.BOOL: st.one_of(st.booleans(), st.sampled_from([0, 1])),
    DType.DATE: st.one_of(
        st.dates(),
        st.dates().map(dt.date.isoformat),
        st.integers(-40000, 40000),
    ),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_values_matches_coerce_value(data):
    dtype = data.draw(st.sampled_from(list(DType)))
    values = data.draw(st.lists(st.one_of(st.none(), _COERCIBLE[dtype]), max_size=20))
    column = Column.from_values(values, dtype=dtype)
    expected = [coerce_value(v, dtype) for v in values]
    assert column.valid.tolist() == [v is not None for v in values]
    for got, want in zip(column.data.tolist(), expected):
        if want is not None:
            assert _same(got, want)


def test_empty_and_all_null_columns_keep_their_dtype():
    for dtype in DType:
        empty = Column.from_values([], dtype=dtype)
        assert empty.to_list() == [] and empty.data.dtype == dtype.numpy_dtype
        nulls = Column.from_values([None, None], dtype=dtype)
        assert nulls.to_list() == [None, None]
        assert Column.nulls(dtype, 3).to_list() == [None, None, None]


def test_nan_in_a_valid_float_slot_stays_a_value():
    column = Column("float", np.array([1.0, np.nan, np.nan]), np.array([True, True, False]))
    got = column.to_list()
    assert got[0] == 1.0 and math.isnan(got[1]) and got[2] is None
    rebuilt = Column.from_values(got, dtype="float")
    assert rebuilt.valid.tolist() == [True, True, False]


@st.composite
def typed_tables(draw):
    n = draw(st.integers(0, 12))
    width = draw(st.integers(1, 4))
    return Table(
        {
            f"c{i}": draw(columns(draw(st.sampled_from(list(DType))), n))
            for i in range(width)
        }
    )


@settings(max_examples=150, deadline=None)
@given(typed_tables())
def test_row_kernels_transpose_without_changing_a_cell(table):
    oracle = [table.row(i) for i in range(table.num_rows)]
    rows = table.to_rows()
    assert [list(r) for r in rows] == [list(r) for r in oracle]
    for got, want in zip(rows, oracle):
        _assert_same_lists(list(got.values()), list(want.values()))
    for view, want in zip(table.iter_row_views(), oracle):
        assert list(view) == list(want) and len(view) == len(want)
        _assert_same_lists([view[k] for k in want], list(want.values()))
        assert view.get("absent") is None and "absent" not in view
    back = Table.from_rows(rows, schema=table.schema)
    assert back.schema == table.schema and back.num_rows == table.num_rows
    for got, want in zip(back.to_rows(), oracle):
        _assert_same_lists(list(got.values()), list(want.values()))


def test_from_rows_reads_missing_keys_as_null_and_rejects_extras():
    schema = {"a": "int", "b": "str", "c": "float"}
    table = Table.from_rows(
        [{"a": 1, "b": "x", "c": 1.5}, {"a": 2}, {"c": 2.5, "b": "y"}], schema=schema
    )
    assert table.to_rows() == [
        {"a": 1, "b": "x", "c": 1.5},
        {"a": 2, "b": None, "c": None},
        {"a": None, "b": "y", "c": 2.5},
    ]
    # same number of keys as the schema, but one is foreign
    with pytest.raises(SchemaMismatchError, match="row 1"):
        Table.from_rows(
            [{"a": 1, "b": "x", "c": 1.0}, {"a": 2, "b": "y", "zzz": 3}],
            schema=schema,
        )


def test_row_views_decode_only_the_columns_read():
    table = Table.from_columns(
        {"a": [1, 2, 3], "b": ["x", "y", "z"], "c": [0.5, None, 1.5]}
    )
    decoded = []
    original = Column.to_list

    def spy(self):
        decoded.append(self)
        return original(self)

    Column.to_list = spy
    try:
        derived = table.with_derived("twice", lambda row: row["a"] * 2, dtype="int")
    finally:
        Column.to_list = original
    assert derived.column("twice").to_list() == [2, 4, 6]
    assert [c is table.column("a") for c in decoded] == [True]
