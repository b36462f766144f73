"""Deterministic op-count guard for group-by (counts, not seconds).

``GroupBy.agg`` must do per-group Python work at most, never per-row:
quadrupling the rows over the same groups leaves the number of
``Column.value`` calls and of per-group reduction callbacks unchanged,
and both stay within a small multiple of the group count.  This is the
property the retired scalar-vs-vector speed ratio stood for; a refactor
that reintroduces a per-row loop fails here on any machine.
"""

from collections import Counter

import pytest

from repro.tabular import groupby as groupby_module
from repro.tabular.column import Column
from repro.tabular.table import Table

GROUPS = 40
#: every function, over a float, an int and a str column
AGGS = {
    "n": ("fbg", "size"),
    "present": ("fbg", "count"),
    "total": ("fbg", "sum"),
    "mean": ("fbg", "mean"),
    "sd": ("fbg", "std"),
    "lo": ("fbg", "min"),
    "hi": ("fbg", "max"),
    "patients": ("pid", "nunique"),
    "pid_total": ("pid", "sum"),
    "first_band": ("band", "first"),
    "last_band": ("band", "last"),
    "band_lo": ("band", "min"),
}
FLOAT_AGGS = 3  # sum, mean, std over ``fbg``: one numpy call per group each


def _table(rows: int) -> Table:
    return Table.from_columns(
        {
            "g": [i % GROUPS for i in range(rows)],
            "band": [f"b{i % 7}" for i in range(rows)],
            "pid": [i // 3 for i in range(rows)],
            "fbg": [None if i % 11 == 0 else 4.0 + (i % 70) / 10.0 for i in range(rows)],
        },
        schema={"g": "int", "band": "str", "pid": "int", "fbg": "float"},
    )


def _counted_agg(monkeypatch, rows: int) -> Counter:
    counts: Counter = Counter()
    original_value = Column.value
    original_per_group = groupby_module._VectorEngine._per_group

    def value(self, index):
        counts["column_value"] += 1
        return original_value(self, index)

    def per_group(self, starts, ends, one_group):
        def counted(a, b):
            counts["callbacks"] += 1
            return one_group(a, b)

        return original_per_group(self, starts, ends, counted)

    table = _table(rows)
    with monkeypatch.context() as patch:
        patch.setattr(Column, "value", value)
        patch.setattr(groupby_module._VectorEngine, "_per_group", per_group)
        result = table.groupby("g").agg(**AGGS)
    assert result.num_rows == GROUPS
    return counts


@pytest.mark.parametrize("rows", [10_000, 40_000])
def test_agg_work_is_bounded_by_groups(monkeypatch, rows):
    counts = _counted_agg(monkeypatch, rows)
    assert counts["column_value"] <= 2 * GROUPS, (
        f"{counts['column_value']} Column.value calls for {GROUPS} groups "
        f"over {rows} rows: a per-row loop is back in GroupBy.agg"
    )
    assert counts["callbacks"] <= GROUPS * FLOAT_AGGS, (
        f"{counts['callbacks']} per-group callbacks for {GROUPS} groups x "
        f"{FLOAT_AGGS} float aggregations"
    )


def test_agg_work_does_not_grow_with_rows(monkeypatch):
    assert _counted_agg(monkeypatch, 10_000) == _counted_agg(monkeypatch, 40_000)
