"""Property suite: the group-by kernels ≡ the row-at-a-time reference.

``tests/_kernel_reference.py`` evaluates group-by and distinct over plain
Python lists and imports nothing from ``repro``.  Every supported
aggregation function, over random tables with nulls, NaN, ``±0.0``,
``1e16``-scale floats, dates, bools and strings in both the keys and the
values — zero keys and empty tables included — must produce the
reference's schema and cells: bit for bit for float ``sum``/``mean``/
``std``, since both reduce the group's values in row order with one
numpy call.  Same contract for the factorisation behind the groups and
for ``Table.distinct``.

The deterministic cases below pin the key and value semantics in both
the kernels and the reference, so neither can drift on its own.
"""

import datetime as dt
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.tabular import Table
from tests import _kernel_reference as ref

NAN = math.nan

SPECIAL_FLOATS = [0.0, -0.0, NAN, 1e16, -1e16, 1e16 + 2.0, 0.1, 2.5]

#: name -> (dtype, value strategy); every column may be a key and a value
COLUMNS = {
    "k_str": ("str", st.sampled_from(["a", "b", "c"])),
    "k_int": ("int", st.integers(0, 3)),
    "k_float": ("float", st.sampled_from([0.0, -0.0, NAN, 1.5])),
    "k_bool": ("bool", st.booleans()),
    "k_date": (
        "date",
        st.sampled_from([dt.date(2001, 1, 1), dt.date(1999, 12, 31)]),
    ),
    "x": (
        "float",
        st.one_of(
            st.floats(-1e16, 1e16, allow_nan=False),
            st.sampled_from(SPECIAL_FLOATS),
        ),
    ),
    "m": ("int", st.integers(-10**6, 10**6)),
    "s": ("str", st.text(alphabet="abé", max_size=3)),
    "d": ("date", st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31))),
}
DTYPES = {name: dtype for name, (dtype, _) in COLUMNS.items()}


@st.composite
def tables(draw, max_keys=3):
    n = draw(st.integers(0, 40))
    columns = {
        name: draw(
            st.lists(st.one_of(st.none(), values), min_size=n, max_size=n)
        )
        for name, (_, values) in COLUMNS.items()
    }
    keys = draw(
        st.lists(st.sampled_from(sorted(COLUMNS)), unique=True, max_size=max_keys)
    )
    return columns, keys, n


def _table(columns) -> Table:
    return Table.from_columns(columns, schema=DTYPES)


def _every_spec() -> dict[str, tuple[str, str]]:
    return {
        f"{name}_{function}": (name, function)
        for name, dtype in DTYPES.items()
        for function in ref.FUNCTIONS
        if dtype in ("int", "float") or function not in ref.NUMERIC_ONLY
    }


def _canonical_rows(rows, specs) -> list[dict]:
    """Rows in comparable form; min/max cells ignore the sign of zero."""
    extremes = {
        out for out, (_, function) in specs.items() if function in ("min", "max")
    }
    return [
        {
            name: ref.canonical(value, signed_zero=name not in extremes)
            for name, value in row.items()
        }
        for row in rows
    ]


def _assert_agg_matches_reference(columns, keys, n, specs):
    got = _table(columns).groupby(*keys).agg(**specs)
    rows, schema = ref.agg(columns, DTYPES, keys, specs, n)
    assert got.schema == schema
    assert _canonical_rows(got.to_rows(), specs) == _canonical_rows(rows, specs)


@given(tables())
@settings(max_examples=120, deadline=None)
def test_agg_matches_scalar_oracle_for_every_function(drawn):
    columns, keys, n = drawn
    _assert_agg_matches_reference(columns, keys, n, _every_spec())


@given(tables(max_keys=0))
@settings(max_examples=40, deadline=None)
def test_grand_total_matches_reference(drawn):
    """Zero keys: exactly one row, also over an empty table."""
    columns, keys, n = drawn
    specs = _every_spec()
    _assert_agg_matches_reference(columns, keys, n, specs)
    assert _table(columns).groupby().agg(**specs).num_rows == 1


@given(tables())
@settings(max_examples=40, deadline=None)
def test_factorization_matches_scalar_oracle(drawn):
    columns, keys, n = drawn
    fact = _table(columns).groupby(*keys).factorization()
    expected = ref.groups(columns, keys, n)
    assert [ref.canonical(k) for key in fact.group_keys for k in key] == [
        ref.canonical(k) for key, _ in expected for k in key
    ]
    codes = fact.codes.tolist()
    for code, (_, positions) in enumerate(expected):
        assert [codes[i] for i in positions] == [code] * len(positions)
    assert len(codes) == n


@given(tables())
@settings(max_examples=60, deadline=None)
def test_distinct_matches_scalar_oracle(drawn):
    columns, keys, n = drawn
    table = _table(columns)
    if not keys:
        keys = list(COLUMNS)  # distinct() with no names: whole rows
        got = table.distinct()
    else:
        got = table.distinct(*keys)
    kept = ref.distinct(columns, keys, n)
    expected = [{name: columns[name][i] for name in COLUMNS} for i in kept]
    assert got.schema == DTYPES
    assert _canonical_rows(got.to_rows(), {}) == _canonical_rows(expected, {})


# ---------------------------------------------------------------------------
# Deterministic cases: the sparse nunique branch the small random tables
# never reach, and the key/value semantics pinned literally.
# ---------------------------------------------------------------------------


def test_nunique_sparse_grid_matches_scalar_oracle():
    """group x value grid too large for the scatter kernel -> sort path."""
    n = 600
    columns = {
        "g": [i // 2 for i in range(n)],  # 300 groups
        "v": [(i * 7) % 299 for i in range(n)],  # 299 distinct values
    }
    dtypes = {"g": "int", "v": "int"}
    specs = {"n": ("v", "nunique")}
    got = Table.from_columns(columns, schema=dtypes).groupby("g").agg(**specs)
    rows, schema = ref.agg(columns, dtypes, ["g"], specs, n)
    assert got.schema == schema
    assert got.to_rows() == rows


KEYS = [0.0, NAN, None, -0.0, NAN, 1.0, None, 0.0]
VALUES = [1.0, -0.0, 3.0, NAN, None, 0.0, 7.0, None]


def _pinned(specs):
    """``KEYS`` grouped, aggregating ``VALUES``: kernels and reference."""
    columns = {"k": KEYS, "v": VALUES}
    dtypes = {"k": "float", "v": "float"}
    got = Table.from_columns(columns, schema=dtypes).groupby("k").agg(**specs)
    rows, _ = ref.agg(columns, dtypes, ["k"], specs, len(KEYS))
    return [_canonical_rows(got.to_rows(), specs), _canonical_rows(rows, specs)]


@pytest.mark.parametrize("side", [0, 1], ids=["kernels", "reference"])
class TestPinnedSemantics:
    def test_nan_keys_form_one_group_and_zeros_another(self, side):
        rows = _pinned({"n": ("v", "size")})[side]
        assert [(row["k"], row["n"]) for row in rows] == [
            (ref.canonical(0.0), ("int", 3)),  # 0.0, -0.0, 0.0 keyed 0.0
            (ref.canonical(NAN), ("int", 2)),
            (ref.canonical(None), ("int", 2)),
            (ref.canonical(1.0), ("int", 1)),
        ]

    def test_zero_group_is_keyed_by_its_first_zero(self, side):
        columns = {"k": [-0.0, 0.0, 0.0]}
        table = Table.from_columns(columns, schema={"k": "float"})
        answers = [
            table.groupby("k").agg(n=("k", "size")).column("k").to_list(),
            [key for (key,), _ in ref.groups(columns, ["k"], 3)],
        ]
        assert [ref.canonical(k) for k in answers[side]] == [
            ref.canonical(-0.0)
        ]

    def test_min_max_propagate_nan(self, side):
        rows = _pinned({"lo": ("v", "min"), "hi": ("v", "max")})[side]
        nan = ref.canonical(NAN)
        assert [(row["lo"], row["hi"]) for row in rows] == [
            (nan, nan),  # the 0.0 group holds a NaN value
            (ref.canonical(-0.0, False), ref.canonical(-0.0, False)),
            (ref.canonical(3.0), ref.canonical(7.0)),
            (ref.canonical(0.0), ref.canonical(0.0)),
        ]

    def test_nunique_counts_nan_once_and_signed_zeros_once(self, side):
        columns = {"v": [NAN, 0.0, NAN, -0.0, None, 2.0]}
        table = Table.from_columns(columns, schema={"v": "float"})
        answers = [
            table.groupby().agg(n=("v", "nunique")).column("n").to_list(),
            [ref.aggregate("nunique", columns["v"], "float")],
        ]
        assert answers[side] == [3]

    def test_first_last_return_the_rows_value_null_included(self, side):
        rows = _pinned({"f": ("v", "first"), "l": ("v", "last")})[side]
        assert [(row["f"], row["l"]) for row in rows] == [
            (ref.canonical(1.0), ref.canonical(None)),
            (ref.canonical(-0.0), ref.canonical(None)),
            (ref.canonical(3.0), ref.canonical(7.0)),
            (ref.canonical(0.0), ref.canonical(0.0)),
        ]

    def test_zero_keys_over_no_rows_is_one_row(self, side):
        specs = {f: ("v", f) for f in ref.FUNCTIONS}
        table = Table.from_columns({"v": []}, schema={"v": "float"})
        answers = [
            table.groupby().agg(**specs).to_rows(),
            ref.agg({"v": []}, {"v": "float"}, [], specs, 0)[0],
        ]
        assert answers[side] == [{
            "count": 0, "size": 0, "sum": None, "mean": None, "min": None,
            "max": None, "std": None, "nunique": 0, "first": None,
            "last": None,
        }]
