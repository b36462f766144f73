"""Tests for the factorisation kernels."""

import datetime as dt

import numpy as np
import pytest

from repro.tabular import Column, Table, factorize, factorize_column


class TestFactorizeColumn:
    def test_codes_index_uniques(self):
        column = Column.from_values(["b", "a", "b", "c", "a"])
        codes, uniques = factorize_column(column)
        assert uniques == ["a", "b", "c"]
        assert [uniques[c] for c in codes] == ["b", "a", "b", "c", "a"]

    def test_nulls_share_one_trailing_code(self):
        column = Column.from_values([3, None, 3, None, 1])
        codes, uniques = factorize_column(column)
        assert uniques == [1, 3, None]
        assert codes.tolist() == [1, 2, 1, 2, 0]

    def test_all_null(self):
        column = Column.from_values([None, None], dtype="int")
        codes, uniques = factorize_column(column)
        assert uniques == [None]
        assert codes.tolist() == [0, 0]

    def test_empty(self):
        column = Column.from_values([], dtype="float")
        codes, uniques = factorize_column(column)
        assert uniques == [] and len(codes) == 0

    def test_uniques_are_python_values(self):
        column = Column.from_values([dt.date(2020, 1, 2), dt.date(2019, 5, 5)])
        _, uniques = factorize_column(column)
        assert uniques == [dt.date(2019, 5, 5), dt.date(2020, 1, 2)]
        assert all(isinstance(u, dt.date) for u in uniques)

    def test_column_method_delegates(self):
        column = Column.from_values([True, False, True])
        codes, uniques = column.factorize()
        assert uniques == [False, True]
        assert codes.tolist() == [1, 0, 1]


class TestFactorizeKeys:
    @pytest.fixture()
    def table(self):
        return Table.from_rows(
            [
                {"g": "F", "band": "a", "v": 1},
                {"g": "F", "band": "a", "v": 2},
                {"g": "M", "band": "a", "v": 3},
                {"g": "F", "band": "b", "v": 4},
                {"g": None, "band": "b", "v": 5},
            ]
        )

    def test_first_occurrence_order(self, table):
        fact = factorize(table, ["g", "band"])
        assert fact.group_keys == [
            ("F", "a"), ("M", "a"), ("F", "b"), (None, "b"),
        ]
        assert fact.first_rows.tolist() == [0, 2, 3, 4]

    def test_codes_cover_all_rows(self, table):
        fact = factorize(table, ["g", "band"])
        assert fact.codes.tolist() == [0, 0, 1, 2, 3]
        assert fact.n_groups == 4

    def test_empty_table(self):
        table = Table.empty({"k": "str"})
        fact = factorize(table, ["k"])
        assert fact.n_groups == 0 and len(fact.codes) == 0

    def test_no_keys_is_one_group_even_over_no_rows(self, table):
        fact = factorize(table, [])
        assert fact.group_keys == [()] and fact.codes.tolist() == [0] * 5
        assert fact.first_rows.tolist() == [0]
        empty = factorize(table.head(0), [])
        assert empty.group_keys == [()] and len(empty.codes) == 0
        assert len(empty.first_rows) == 0

    def test_high_cardinality_radix_compression(self):
        # many wide int keys force the mixed-radix overflow guard
        rng = np.random.default_rng(5)
        n = 500
        data = {
            f"k{i}": rng.integers(0, 1 << 48, size=n).tolist() for i in range(8)
        }
        table = Table.from_columns(data)
        fact = factorize(table, list(data))
        seen = set()
        for row, key in zip(fact.first_rows.tolist(), fact.group_keys):
            assert tuple(table.row(row)[k] for k in data) == key
            seen.add(key)
        assert len(seen) == fact.n_groups == n  # keys that wide never collide
