"""Factorisation kernels: values → dense integer codes.

This is the primitive under group-by and ``Table.distinct``.
:func:`factorize_column` dictionary-encodes one column (codes + uniques,
null-aware: nulls get their own trailing code).  :func:`factorize`
combines several key columns into one dense group-code vector via
mixed-radix combination and remaps the result to first-occurrence order,
so groups come out in the order their first row appears.

Key equality is ``np.unique``'s: every NaN is one key, ``-0.0`` and
``0.0`` are one key, and nulls are one key distinct from all values.
The property suite in ``tests/tabular/test_kernel_parity.py`` checks
these semantics against an independent row-at-a-time reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.tabular.column import Column
from repro.tabular.dtypes import DType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tabular.table import Table

#: Mixed-radix combination stays below this bound to avoid int64 overflow;
#: past it, intermediate codes are re-compressed to a dense range first.
_RADIX_LIMIT = np.int64(1) << 62


def _encode_column(column: Column) -> tuple[np.ndarray, object, int, bool]:
    """Raw dictionary encoding: ``(codes, uniques, n_codes, has_null)``.

    ``uniques`` stays in storage representation (numpy values or a Python
    list for str columns) so codes-only callers skip the Python
    conversion.  Nulls share the trailing code ``n_codes - 1`` when
    ``has_null``.
    """
    valid = column.valid
    present = column.data[valid]
    if column.dtype is DType.STR:
        # np.unique on an object array sorts with per-element Python
        # compares; a set + dict map is ~4x faster and produces the same
        # sorted uniques (both orders are code-point comparisons).
        values = present.tolist()
        uniq: object = sorted(set(values))
        lookup = {v: i for i, v in enumerate(uniq)}
        inverse = np.fromiter(
            (lookup[v] for v in values), dtype=np.int64, count=len(values)
        )
    else:
        uniq, inverse = np.unique(present, return_inverse=True)
    codes = np.empty(len(column), dtype=np.int64)
    codes[valid] = inverse
    n_codes, has_null = len(uniq), not valid.all()
    if has_null:
        codes[~valid] = n_codes
        n_codes += 1
    return codes, uniq, n_codes, has_null


def factorize_column(column: Column) -> tuple[np.ndarray, list[object]]:
    """Dictionary-encode one column.

    Returns ``(codes, uniques)`` where ``codes[i]`` indexes ``uniques`` for
    every row.  Uniques are Python values in sorted order; when the column
    has nulls they share a single trailing code whose unique is ``None``.
    """
    codes, uniq, _, has_null = _encode_column(column)
    if column.dtype is DType.STR:
        uniques: list[object] = list(uniq)
    else:
        uniques = [column._to_python(v) for v in uniq]
    if has_null:
        uniques.append(None)
    return codes, uniques


@dataclass
class Factorization:
    """Dense group codes for zero or more key columns.

    ``codes`` assigns every row a group id in first-occurrence order;
    ``group_keys[g]`` is group *g*'s key tuple, read off its first row;
    ``first_rows[g]`` is the row index of that first row (strictly
    increasing).  The one zero-key group over zero rows has no first row.
    """

    codes: np.ndarray
    group_keys: list[tuple]
    first_rows: np.ndarray

    @property
    def n_groups(self) -> int:
        """Number of distinct key combinations."""
        return len(self.group_keys)


def _combine_codes(
    col_codes: list[np.ndarray], sizes: list[int]
) -> np.ndarray:
    """Mixed-radix combination of per-column codes into one code vector."""
    combined = col_codes[0]
    space = np.int64(max(sizes[0], 1))
    for codes, size in zip(col_codes[1:], sizes[1:]):
        radix = np.int64(max(size, 1))
        if space > _RADIX_LIMIT // radix:
            # re-compress to a dense range before the next radix step
            _, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64)
            space = np.int64(len(combined) and int(combined.max()) + 1 or 1)
        combined = combined * radix + codes
        space = space * radix
    return combined


def factorize(table: "Table", keys: Sequence[str]) -> Factorization:
    """Factorise the composite key over ``keys`` columns of ``table``.

    With no keys every row is in one group keyed ``()`` — SQL's aggregate
    without GROUP BY — and that group exists even when there are no rows.
    """
    n_rows = len(table)
    if not keys:
        return Factorization(
            np.zeros(n_rows, dtype=np.int64),
            [()],
            np.zeros(min(n_rows, 1), dtype=np.int64),
        )
    if n_rows == 0:
        return Factorization(
            np.empty(0, dtype=np.int64), [], np.empty(0, dtype=np.int64)
        )

    encoded = [_encode_column(table.column(key)) for key in keys]
    combined = _combine_codes(
        [codes for codes, _, _, _ in encoded],
        [n_codes for _, _, n_codes, _ in encoded],
    )
    _, first_pos, inverse = np.unique(
        combined, return_index=True, return_inverse=True
    )
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    codes = rank[np.asarray(inverse, dtype=np.int64)]
    first_rows = np.asarray(first_pos, dtype=np.int64)[order]
    # keys come from each group's first row, so a group holding both
    # -0.0 and 0.0 is keyed by whichever zero it saw first
    group_keys = list(
        zip(*(table.column(key).take(first_rows).to_list() for key in keys))
    )
    return Factorization(codes, group_keys, first_rows)
