"""Property suite: partition pruning ≡ full scan, encodings round-trip.

Two invariants the partitioned store must never violate, searched with
hypothesis:

* a pruned, partition-fanned scan is **byte-identical** to filtering the
  flat view — for random tables and random predicate trees;
* every encoding decodes back to the exact bytes it was given —
  including nulls, empty columns, and date payloads.
"""

import datetime as dt

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.storage.columnar import PartitionedStore, PartitioningSpec, StorageConfig
from repro.storage.columnar.encodings import encode_column
from repro.tabular import Table, col
from repro.tabular.column import Column


def columns_byte_equal(a: Column, b: Column) -> bool:
    if a.dtype is not b.dtype or a.valid.tobytes() != b.valid.tobytes():
        return False
    if a.dtype.value == "str":
        return a.to_list() == b.to_list()
    return a.data.tobytes() == b.data.tobytes()


def tables_byte_equal(a: Table, b: Table) -> bool:
    return a.column_names == b.column_names and all(
        columns_byte_equal(a.column(n), b.column(n)) for n in a.column_names
    )


# ---------------------------------------------------------------- tables

maybe_int = st.one_of(st.none(), st.integers(-50, 50))
maybe_float = st.one_of(
    st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)
)
maybe_str = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "dd", ""]))
years = st.one_of(st.none(), st.integers(2005, 2012))


@st.composite
def cohort_tables(draw):
    n = draw(st.integers(1, 40))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return Table.from_columns(
        {
            "patient_id": column(st.integers(1, 12)),
            "visit_year": column(years),
            "gender": column(maybe_str),
            "hba1c": column(maybe_float),
        },
        schema={
            "patient_id": "int",
            "visit_year": "int",
            "gender": "str",
            "hba1c": "float",
        },
    )


# ------------------------------------------------------------ predicates


@st.composite
def predicates(draw, depth=2):
    kind = draw(
        st.sampled_from(
            ["cmp_year", "cmp_float", "eq_str", "isin", "is_null"]
            + (["and", "or", "not"] if depth > 0 else [])
        )
    )
    if kind == "cmp_year":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=="]))
        value = draw(st.integers(2004, 2013))
        c = col("visit_year")
        return {
            "<": c < value,
            "<=": c <= value,
            ">": c > value,
            ">=": c >= value,
            "==": c == value,
        }[op]
    if kind == "cmp_float":
        value = draw(st.floats(-5, 15, allow_nan=False))
        return col("hba1c") > value if draw(st.booleans()) else col("hba1c") <= value
    if kind == "eq_str":
        return col("gender") == draw(st.sampled_from(["a", "b", "c", "zz", ""]))
    if kind == "isin":
        return col("patient_id").isin(
            draw(st.lists(st.integers(0, 13), min_size=0, max_size=4))
        )
    if kind == "is_null":
        name = draw(st.sampled_from(["visit_year", "hba1c", "gender"]))
        return col(name).is_null()
    left = draw(predicates(depth=depth - 1))
    if kind == "not":
        return ~left
    right = draw(predicates(depth=depth - 1))
    return (left & right) if kind == "and" else (left | right)


CONFIG = StorageConfig(
    partitioning=PartitioningSpec(
        hash_column="patient_id", hash_partitions=3, band_column="visit_year"
    )
)


@given(cohort_tables(), predicates())
@settings(max_examples=60, deadline=None)
def test_pruned_scan_byte_equals_full_scan(table, predicate):
    store = PartitionedStore.build(table, CONFIG)
    expected = table.filter(predicate)
    got, stats = store.scan_filter(predicate)
    assert tables_byte_equal(got, expected), predicate.describe()
    assert stats.segments_scanned + stats.segments_pruned == stats.segments_total


@given(cohort_tables(), predicates())
@settings(max_examples=30, deadline=None)
def test_unpartitioned_store_still_exact(table, predicate):
    # partitioning=None → one segment per build; pruning degenerates but
    # the scan contract (byte parity, stats bookkeeping) must hold
    store = PartitionedStore.build(table, StorageConfig(partitioning=None))
    got, stats = store.scan_filter(predicate)
    assert tables_byte_equal(got, table.filter(predicate))
    assert stats.segments_total == len(store.segments)


# ---------------------------------------------------------- round trips

encoding_names = st.sampled_from(["auto", "plain", "dict", "rle"])


@given(st.lists(maybe_int, max_size=60), encoding_names)
@settings(max_examples=60, deadline=None)
def test_int_encoding_round_trip(values, encoding):
    column = Column.from_values(values, dtype="int")
    assert columns_byte_equal(column, encode_column(column, encoding).decode())


@given(st.lists(maybe_float, max_size=60), st.sampled_from(["auto", "plain", "rle"]))
@settings(max_examples=60, deadline=None)
def test_float_encoding_round_trip(values, encoding):
    column = Column.from_values(values, dtype="float")
    assert columns_byte_equal(column, encode_column(column, encoding).decode())


@given(st.lists(maybe_str, max_size=60), encoding_names)
@settings(max_examples=60, deadline=None)
def test_str_encoding_round_trip(values, encoding):
    column = Column.from_values(values, dtype="str")
    assert columns_byte_equal(column, encode_column(column, encoding).decode())


@given(
    st.lists(
        st.one_of(st.none(), st.dates(dt.date(2000, 1, 1), dt.date(2020, 12, 31))),
        max_size=60,
    ),
    encoding_names,
)
@settings(max_examples=60, deadline=None)
def test_date_encoding_round_trip(values, encoding):
    column = Column.from_values(values, dtype="date")
    decoded = encode_column(column, encoding).decode()
    assert columns_byte_equal(column, decoded)
    assert decoded.to_list() == values


@given(st.lists(st.one_of(st.none(), st.booleans()), max_size=60), encoding_names)
@settings(max_examples=40, deadline=None)
def test_bool_encoding_round_trip(values, encoding):
    column = Column.from_values(values, dtype="bool")
    assert columns_byte_equal(column, encode_column(column, encoding).decode())
