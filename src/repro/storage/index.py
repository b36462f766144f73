"""Secondary index: value → row ids, for equality lookups."""

from __future__ import annotations

from typing import Iterable


class HashIndex:
    """Value → set of row ids.  O(1) equality lookups.

    Null values are not indexed (SQL semantics: NULL never equals anything),
    so a lookup can never return a row whose key is null.
    """

    def __init__(self, column: str):
        self.column = column
        self._buckets: dict[object, set[int]] = {}

    def add(self, value: object, row_id: int) -> None:
        """Index ``row_id`` under ``value`` (ignored when value is null)."""
        if value is None:
            return
        self._buckets.setdefault(value, set()).add(row_id)

    def add_many(self, values: Iterable[object], row_ids: Iterable[int]) -> None:
        """Index each row id under its value (null values are skipped)."""
        for value, row_id in zip(values, row_ids):
            self.add(value, row_id)

    def remove(self, value: object, row_id: int) -> None:
        """Drop one entry; harmless if absent."""
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: object) -> set[int]:
        """Row ids whose key equals ``value`` (copy; safe to mutate)."""
        if value is None:
            return set()
        return set(self._buckets.get(value, ()))

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def distinct_values(self) -> list[object]:
        """All indexed key values (unsorted)."""
        return list(self._buckets)
