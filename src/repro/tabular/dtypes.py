"""Logical column types and their numpy storage mapping.

The engine supports five logical types:

========  =================  ============================================
logical   numpy storage      notes
========  =================  ============================================
int       ``int64``          nulls tracked in a separate validity mask
float     ``float64``        nulls stored as NaN *and* masked
str       ``object``         Python ``str`` values; nulls masked
bool      ``bool``           nulls masked
date      ``int64``          days since 1970-01-01 (proleptic Gregorian)
========  =================  ============================================

Dates are deliberately stored as integer day ordinals rather than
``datetime64`` so arithmetic (age at visit, years since diagnosis) stays in
plain integer space and serialises trivially.
"""

from __future__ import annotations

import datetime as _dt
from enum import Enum

import numpy as np

from repro.errors import DTypeError

_EPOCH = _dt.date(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()


class DType(str, Enum):
    """Logical column type."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    DATE = "date"

    @classmethod
    def coerce(cls, value: "DType | str") -> "DType":
        """Accept either a :class:`DType` or its string name."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise DTypeError(f"unknown dtype {value!r} (valid: {valid})") from None

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to store this logical type."""
        return _NUMPY_STORAGE[self]

    @property
    def is_numeric(self) -> bool:
        """True for types on which arithmetic aggregation makes sense."""
        return self in (DType.INT, DType.FLOAT)


_NUMPY_STORAGE = {
    DType.INT: np.dtype(np.int64),
    DType.FLOAT: np.dtype(np.float64),
    DType.STR: np.dtype(object),
    DType.BOOL: np.dtype(bool),
    DType.DATE: np.dtype(np.int64),
}

#: Placeholder stored in the data array where the validity mask is False.
NULL_SENTINELS = {
    DType.INT: 0,
    DType.FLOAT: float("nan"),
    DType.STR: None,
    DType.BOOL: False,
    DType.DATE: 0,
}


def date_to_ordinal(value: "_dt.date | str") -> int:
    """Convert a date (or ISO ``YYYY-MM-DD`` string) to days since epoch."""
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    if isinstance(value, _dt.datetime):
        value = value.date()
    if not isinstance(value, _dt.date):
        raise DTypeError(f"cannot interpret {value!r} as a date")
    return (value - _EPOCH).days


def ordinal_to_date(ordinal: int) -> _dt.date:
    """Convert days-since-epoch back to a :class:`datetime.date`."""
    return _EPOCH + _dt.timedelta(days=int(ordinal))


def ordinals_to_dates(ordinals: np.ndarray) -> "list[_dt.date]":
    """Bulk :func:`ordinal_to_date` over an int64 array of day ordinals."""
    return list(
        map(_dt.date.fromordinal, (ordinals + _EPOCH_ORDINAL).tolist())
    )


def infer_dtype(values: "list[object]") -> DType:
    """Infer the narrowest logical type that holds every non-null value.

    Preference order is bool < int < float < date < str.  An empty or
    all-null input infers ``str`` (the most permissive type).
    """
    present = [v for v in values if v is not None]
    if not present:
        return DType.STR
    if all(isinstance(v, bool) for v in present):
        return DType.BOOL
    if all(isinstance(v, int) and not isinstance(v, bool) for v in present):
        return DType.INT
    if all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in present
    ):
        return DType.FLOAT
    if all(isinstance(v, (_dt.date, _dt.datetime)) for v in present):
        return DType.DATE
    return DType.STR


#: Python types each logical type stores unchanged — a value of exactly one
#: of these types is what :func:`coerce_value` would return for it, so bulk
#: constructors skip the per-value call.  ``None`` passes through as null.
STORED_AS_IS: "dict[DType, frozenset[type]]" = {
    DType.INT: frozenset({int, type(None)}),
    DType.FLOAT: frozenset({float, type(None)}),
    DType.STR: frozenset({str, type(None)}),
    DType.BOOL: frozenset({bool, type(None)}),
    DType.DATE: frozenset({int, type(None)}),
}


def coerce_value(value: object, dtype: DType) -> object:
    """Coerce one Python value to the storage representation of ``dtype``.

    Returns the coerced value; raises :class:`DTypeError` when the value is
    incompatible.  ``None`` passes through (the caller masks it).
    """
    if value is None:
        return None
    try:
        if dtype is DType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, float) and not float(value).is_integer():
                raise DTypeError(f"cannot store {value!r} in int column")
            return int(value)
        if dtype is DType.FLOAT:
            return float(value)
        if dtype is DType.STR:
            return str(value)
        if dtype is DType.BOOL:
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            if value in (0, 1):
                return bool(value)
            raise DTypeError(f"cannot store {value!r} in bool column")
        if dtype is DType.DATE:
            if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                return int(value)
            return date_to_ordinal(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise DTypeError(f"cannot store {value!r} in {dtype.value} column") from exc
    raise DTypeError(f"unhandled dtype {dtype!r}")
