"""Immutable partition segments: encoded columns + zone map + row index.

A segment is one horizontal shard of the flat view at one publish: a set
of encoded columns (:mod:`repro.storage.columnar.encodings`), the zone
map used for pruning, and the **global row index** — each segment row's
position in the logical flat view.  The row index is what makes
partitioned answers byte-identical to flat-view answers: float
aggregation is order-sensitive, so after a partition scan the surviving
rows are put back into flat-view order before any kernel touches them
(see :meth:`~repro.storage.columnar.store.PartitionedStore.scan_filter`).

Segments are immutable; decoding is cached lazily under a lock so
concurrent readers share one decoded table per segment.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.storage.columnar.encodings import EncodedColumn, encode_column
from repro.storage.columnar.zonemap import ZoneMap
from repro.tabular.dtypes import DType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tabular.table import Table


class Segment:
    """One immutable horizontal shard of the flat view."""

    __slots__ = (
        "segment_id",
        "key",
        "row_index",
        "columns",
        "zones",
        "num_rows",
        "schema",
        "_table",
        "_lock",
    )

    def __init__(
        self,
        segment_id: str,
        key: tuple[int, int],
        row_index: np.ndarray,
        columns: dict[str, EncodedColumn],
        zones: ZoneMap,
        schema: dict[str, DType],
    ):
        self.segment_id = segment_id
        self.key = key
        self.row_index = row_index
        self.columns = columns
        self.zones = zones
        self.num_rows = len(row_index)
        self.schema = schema
        self._table: "Table | None" = None
        self._lock = threading.Lock()

    @classmethod
    def build(
        cls,
        segment_id: str,
        key: tuple[int, int],
        shard: "Table",
        row_index: np.ndarray,
        encodings: Mapping[str, str],
    ) -> "Segment":
        """Encode one shard of the flat view into a segment."""
        columns: dict[str, EncodedColumn] = {}
        hints: dict[str, int] = {}
        for name in shard.column_names:
            encoded = encode_column(shard.column(name), encodings.get(name, "auto"))
            columns[name] = encoded
            if hasattr(encoded, "n_distinct"):
                hints[name] = encoded.n_distinct()
        zones = ZoneMap.from_table(shard, distinct_hints=hints)
        return cls(
            segment_id,
            key,
            np.asarray(row_index, dtype=np.int64),
            columns,
            zones,
            dict(shard.schema),
        )

    def table(self) -> "Table":
        """Decode to a table (cached; concurrent readers share one copy)."""
        cached = self._table
        if cached is not None:
            return cached
        with self._lock:
            if self._table is None:
                from repro.tabular.table import Table

                self._table = Table(
                    {name: enc.decode() for name, enc in self.columns.items()}
                )
            return self._table

    @property
    def nbytes(self) -> int:
        """Encoded footprint (excluding the decoded cache)."""
        return sum(c.nbytes for c in self.columns.values()) + int(
            self.row_index.nbytes
        )

    def encoding_summary(self) -> dict[str, str]:
        """Column → encoding actually chosen (for EXPLAIN/bench output)."""
        return {name: enc.encoding for name, enc in self.columns.items()}
