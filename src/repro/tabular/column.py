"""Typed column: a numpy data array paired with a validity mask."""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import DTypeError, LengthMismatchError
from repro.tabular.dtypes import (
    NULL_SENTINELS,
    STORED_AS_IS,
    DType,
    coerce_value,
    infer_dtype,
    ordinal_to_date,
    ordinals_to_dates,
)


class Column:
    """An immutable, typed vector of values with per-element nullability.

    The data array and validity mask always have equal length; where
    ``valid`` is False the data slot holds a type-specific sentinel and must
    not be interpreted.  All transforming operations return new columns.
    """

    __slots__ = ("dtype", "data", "valid")

    def __init__(self, dtype: DType | str, data: np.ndarray, valid: np.ndarray):
        self.dtype = DType.coerce(dtype)
        if len(data) != len(valid):
            raise LengthMismatchError(
                f"data has {len(data)} elements but mask has {len(valid)}"
            )
        self.data = data
        self.valid = valid

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(
        cls, values: Iterable[object], dtype: DType | str | None = None
    ) -> "Column":
        """Build a column from Python values; ``None`` marks a null.

        When ``dtype`` is omitted it is inferred from the non-null values.
        Values already of the storage type (one type check over the whole
        list) skip :func:`coerce_value`; anything else coerces per value.
        """
        values = list(values)
        resolved = DType.coerce(dtype) if dtype is not None else infer_dtype(values)
        kinds = set(map(type, values))
        if not kinds <= STORED_AS_IS[resolved]:
            values = [coerce_value(v, resolved) for v in values]
        if type(None) in kinds:
            valid = np.array([v is not None for v in values], dtype=bool)
            sentinel = NULL_SENTINELS[resolved]
            values = [sentinel if v is None else v for v in values]
        else:
            valid = np.ones(len(values), dtype=bool)
        data = np.array(values, dtype=resolved.numpy_dtype)
        return cls(resolved, data, valid)

    @classmethod
    def from_numpy(cls, array: np.ndarray, dtype: DType | str) -> "Column":
        """Wrap an existing numpy array; every element is considered valid
        except NaN in float arrays."""
        resolved = DType.coerce(dtype)
        array = np.asarray(array, dtype=resolved.numpy_dtype)
        if resolved is DType.FLOAT:
            valid = ~np.isnan(array)
        else:
            valid = np.ones(len(array), dtype=bool)
        return cls(resolved, array, valid)

    @classmethod
    def nulls(cls, dtype: DType | str, length: int) -> "Column":
        """A column of ``length`` nulls."""
        resolved = DType.coerce(dtype)
        sentinel = NULL_SENTINELS[resolved]
        data = np.full(length, sentinel, dtype=resolved.numpy_dtype)
        return cls(resolved, data, np.zeros(length, dtype=bool))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __iter__(self) -> Iterator[object]:
        return iter(self.to_list())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.dtype is other.dtype
            and len(self) == len(other)
            and self.to_list() == other.to_list()
        )

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.to_list()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self.dtype.value}>[{preview}{suffix}] (n={len(self)})"

    @property
    def null_count(self) -> int:
        """Number of null elements."""
        return int((~self.valid).sum())

    def value(self, index: int) -> object:
        """The Python value at ``index`` (``None`` when null)."""
        if not self.valid[index]:
            return None
        raw = self.data[index]
        return self._to_python(raw)

    def _to_python(self, raw: object) -> object:
        if self.dtype is DType.INT:
            return int(raw)  # type: ignore[arg-type]
        if self.dtype is DType.FLOAT:
            return float(raw)  # type: ignore[arg-type]
        if self.dtype is DType.BOOL:
            return bool(raw)
        if self.dtype is DType.DATE:
            return ordinal_to_date(int(raw))  # type: ignore[arg-type]
        return raw

    def to_list(self) -> list[object]:
        """Materialise as a list of Python values with ``None`` for nulls.

        The bulk form of :meth:`value`: one ``tolist()`` over the data
        array, then nulls patched in from the mask — null slots are never
        decoded (a date's sentinel ordinal is not a date).
        """
        if self.dtype is DType.DATE:
            present = ordinals_to_dates(self.data[self.valid])
            if len(present) == len(self):
                return present
            values: list[object] = [None] * len(self)
            for i, day in zip(np.flatnonzero(self.valid).tolist(), present):
                values[i] = day
            return values
        values = self.data.tolist()
        if np.count_nonzero(self.valid) != len(values):
            for i in np.flatnonzero(~self.valid).tolist():
                values[i] = None
        return values

    def to_numpy(self) -> np.ndarray:
        """The backing array.  Null slots hold sentinels — check ``valid``."""
        return self.data

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Gather elements by positional index."""
        indices = np.asarray(indices, dtype=np.int64)
        return Column(self.dtype, self.data[indices], self.valid[indices])

    def mask(self, keep: np.ndarray) -> "Column":
        """Keep elements where the boolean ``keep`` mask is True."""
        keep = np.asarray(keep, dtype=bool)
        if len(keep) != len(self):
            raise LengthMismatchError(
                f"mask of length {len(keep)} applied to column of {len(self)}"
            )
        return Column(self.dtype, self.data[keep], self.valid[keep])

    def concat(self, other: "Column") -> "Column":
        """Append ``other`` below this column (dtypes must match)."""
        if other.dtype is not self.dtype:
            raise DTypeError(
                f"cannot concat {other.dtype.value} column onto {self.dtype.value}"
            )
        return Column(
            self.dtype,
            np.concatenate([self.data, other.data]),
            np.concatenate([self.valid, other.valid]),
        )

    def fill_null(self, value: object) -> "Column":
        """Replace nulls with ``value`` (coerced to this column's dtype)."""
        coerced = coerce_value(value, self.dtype)
        data = self.data.copy()
        data[~self.valid] = coerced
        return Column(self.dtype, data, np.ones(len(self), dtype=bool))

    def map(self, func, dtype: DType | str | None = None) -> "Column":
        """Apply ``func`` to every non-null value; nulls stay null."""
        out = [func(v) if v is not None else None for v in self.to_list()]
        return Column.from_values(out, dtype=dtype)

    def factorize(self) -> "tuple[np.ndarray, list[object]]":
        """Dictionary-encode: dense int codes + the unique values they index.

        Null-aware — when the column has nulls they share one trailing code
        whose unique is ``None``.  See :mod:`repro.tabular.factorize`.
        """
        from repro.tabular.factorize import factorize_column

        return factorize_column(self)

    def cast(self, dtype: DType | str) -> "Column":
        """Convert to another logical type element-wise."""
        target = DType.coerce(dtype)
        if target is self.dtype:
            return self
        return Column.from_values(
            [None if v is None else v for v in self.to_list()], dtype=target
        )

    # ------------------------------------------------------------------
    # Reductions (null-aware)
    # ------------------------------------------------------------------

    def _present(self) -> np.ndarray:
        return self.data[self.valid]

    def sum(self) -> float | int | None:
        """Sum of non-null values (``None`` when all null)."""
        self._require_numeric("sum")
        present = self._present()
        if len(present) == 0:
            return None
        total = present.sum()
        return int(total) if self.dtype is DType.INT else float(total)

    def mean(self) -> float | None:
        """Mean of non-null values."""
        self._require_numeric("mean")
        present = self._present()
        return float(present.mean()) if len(present) else None

    def min(self) -> object:
        """Minimum non-null value."""
        present = self._present()
        if len(present) == 0:
            return None
        if self.dtype is DType.STR:
            return min(present.tolist())
        return self._to_python(present.min())

    def max(self) -> object:
        """Maximum non-null value."""
        present = self._present()
        if len(present) == 0:
            return None
        if self.dtype is DType.STR:
            return max(present.tolist())
        return self._to_python(present.max())

    def std(self) -> float | None:
        """Population standard deviation of non-null values."""
        self._require_numeric("std")
        present = self._present()
        return float(present.std()) if len(present) else None

    def count(self) -> int:
        """Number of non-null values."""
        return int(self.valid.sum())

    def n_unique(self) -> int:
        """Number of distinct non-null values."""
        present = self._present()
        if len(present) == 0:
            return 0
        if self.dtype is DType.STR:
            return len(set(present.tolist()))
        return len(np.unique(present))

    def unique(self) -> list[object]:
        """Sorted distinct non-null Python values."""
        present = self._present()
        if len(present) == 0:
            return []
        if self.dtype is DType.STR:
            return sorted(set(present.tolist()))
        return [self._to_python(v) for v in np.unique(present)]

    def value_counts(self) -> dict[object, int]:
        """Frequency of each distinct non-null value."""
        counts: dict[object, int] = {}
        for v in self.to_list():
            if v is None:
                continue
            counts[v] = counts.get(v, 0) + 1
        return counts

    def _require_numeric(self, op: str) -> None:
        if not self.dtype.is_numeric:
            raise DTypeError(f"{op}() requires a numeric column, got {self.dtype.value}")
