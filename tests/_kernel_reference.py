"""Reference semantics for group-by and distinct, one row at a time.

An evaluator over plain Python lists that shares no code with
``repro.tabular`` — no ``Table``, ``Column``, dtypes or factorisation —
so the kernels can be checked against something that could not inherit
their bugs.  A table is ``columns`` (name -> list of values, ``None`` for
null) plus ``dtypes`` (name -> ``"int"``/``"float"``/``"str"``/``"bool"``/
``"date"``).

Keys
    Groups appear in first-occurrence order.  Two key cells are the same
    key when both are null, both NaN, or ``==`` — so ``-0.0`` and ``0.0``
    are one key, and the group is keyed by whichever came first.  With no
    keys there is exactly one group holding every row, even zero rows.

Functions
    ``size`` counts rows; ``count`` counts non-null values; ``first``/
    ``last`` are the group's first/last row's value, null included.  The
    others skip nulls and give ``None`` when nothing is left (``nunique``
    gives 0).  ``nunique`` counts NaN once and ``±0.0`` once.  ``min``/
    ``max`` propagate NaN.  Integer ``sum`` is Python's exact ``sum``;
    float ``sum`` and every ``mean``/``std`` reduce a plain ``float64``
    array of the group's values in row order, so those cells compare
    bit for bit.  Which zero ``min``/``max`` return for a group holding
    both ``-0.0`` and ``0.0`` is unspecified (numpy's reductions may pick
    either); :func:`canonical` ignores that sign for them.
"""

from __future__ import annotations

import math

import numpy as np

FUNCTIONS = (
    "count", "size", "sum", "mean", "min",
    "max", "std", "nunique", "first", "last",
)
NUMERIC_ONLY = ("sum", "mean", "std")


class _NaN:
    """The one key every NaN cell maps to."""

    def __repr__(self) -> str:
        return "NaN"


_NAN = _NaN()


def _key(value: object) -> object:
    """Hashable identity of one cell: every NaN is one key; ``-0.0 == 0.0``."""
    if isinstance(value, float) and math.isnan(value):
        return _NAN
    return value


def _is_nan(value: object) -> bool:
    return isinstance(value, float) and math.isnan(value)


def groups(
    columns: dict[str, list], keys: list[str], n_rows: int
) -> list[tuple[tuple, list[int]]]:
    """``(key tuple, row positions)`` per group, in first-occurrence order."""
    if not keys:
        return [((), list(range(n_rows)))]
    found: dict[tuple, tuple[tuple, list[int]]] = {}
    for i in range(n_rows):
        key = tuple(columns[k][i] for k in keys)
        identity = tuple(_key(v) for v in key)
        if identity not in found:
            found[identity] = (key, [])
        found[identity][1].append(i)
    return list(found.values())


def aggregate(function: str, values: list, dtype: str) -> object:
    """One function over one group's values (row order, nulls included)."""
    if function == "size":
        return len(values)
    if function == "first":
        return values[0] if values else None
    if function == "last":
        return values[-1] if values else None
    present = [v for v in values if v is not None]
    if function == "count":
        return len(present)
    if function == "nunique":
        return len({_key(v) for v in present})
    if function in NUMERIC_ONLY and dtype not in ("int", "float"):
        raise TypeError(f"{function} needs a numeric column, not {dtype}")
    if not present:
        return None
    if function == "sum" and dtype == "int":
        return sum(present)
    if function in NUMERIC_ONLY:
        return float(getattr(np.array(present, dtype=np.float64), function)())
    if any(_is_nan(v) for v in present):
        return math.nan
    if function == "min":
        return min(present)
    if function == "max":
        return max(present)
    raise ValueError(f"unknown function {function!r}")


def output_dtype(function: str, dtype: str) -> str:
    """The type of an aggregate's output column."""
    if function in ("count", "size", "nunique"):
        return "int"
    if function in ("mean", "std"):
        return "float"
    return dtype


def agg(
    columns: dict[str, list],
    dtypes: dict[str, str],
    keys: list[str],
    specs: dict[str, tuple[str, str]],
    n_rows: int,
) -> tuple[list[dict], dict[str, str]]:
    """What ``groupby(*keys).agg(**specs)`` returns: rows and schema."""
    schema = {key: dtypes[key] for key in keys}
    for out, (source, function) in specs.items():
        schema[out] = output_dtype(function, dtypes[source])
    rows = []
    for key, positions in groups(columns, keys, n_rows):
        row = dict(zip(keys, key))
        for out, (source, function) in specs.items():
            values = [columns[source][i] for i in positions]
            row[out] = aggregate(function, values, dtypes[source])
        rows.append(row)
    return rows, schema


def distinct(columns: dict[str, list], keys: list[str], n_rows: int) -> list[int]:
    """Row positions ``distinct(*keys)`` keeps: each key's first row."""
    return [positions[0] for _, positions in groups(columns, keys, n_rows)]


def canonical(value: object, signed_zero: bool = True) -> tuple:
    """A cell in comparable form.

    NaN equals NaN, ``-0.0`` differs from ``0.0`` (unless ``signed_zero``
    is false) and values of different Python types never compare equal,
    so ``True`` is not ``1`` and ``1`` is not ``1.0``.
    """
    if isinstance(value, float):
        if math.isnan(value):
            return ("float", "nan")
        if value == 0 and not signed_zero:
            value = 0.0
        return ("float", value.hex())
    return (type(value).__name__, value)
