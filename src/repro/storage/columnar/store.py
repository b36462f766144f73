"""The partitioned columnar store: build, append, scan, compact.

A :class:`PartitionedStore` is an immutable collection of
:class:`~repro.storage.columnar.segment.Segment`\\ s that together hold
exactly the rows of one flat-view epoch.  Stores are versioned the same
way cube states are: ``append`` and ``compact`` return a **new** store
sharing unchanged segments, so a pinned :class:`~repro.olap.cube.CubeSnapshot`
keeps serving the segments of its epoch no matter how many deltas or
compactions land after it.

``scan_filter`` is the partition-aware replacement for
``flat.filter(predicate)`` and is answer-identical to it **byte for
byte**: segments whose zone maps exclude the predicate are pruned,
survivors are scanned one after another in the calling thread, and the
kept rows are put back into flat-view order using each segment's global
row index before any order-sensitive float kernel sees them.
"""

from __future__ import annotations

import time
from typing import Iterator, Mapping

import numpy as np

from repro.errors import SchemaMismatchError, StorageError
from repro.serving.resilience import checkpoint
from repro.storage.columnar.config import PartitioningSpec, StorageConfig
from repro.storage.columnar.encodings import column_nbytes, resolve_encodings
from repro.storage.columnar.segment import Segment
from repro.tabular.column import Column
from repro.tabular.expressions import Expression
from repro.tabular.table import Table


class ScanStats:
    """What one ``scan_filter`` call did — the EXPLAIN partition contract.

    ``partitions`` holds one entry per *scanned* segment:
    ``{segment_id, key, band, bucket, est_rows, actual_rows, ms}`` where
    ``est_rows`` is the zone-map estimate made before the scan and
    ``actual_rows`` the rows the predicate actually kept.
    """

    __slots__ = (
        "segments_total",
        "segments_scanned",
        "segments_pruned",
        "rows_scanned",
        "rows_kept",
        "partitions",
    )

    def __init__(self, segments_total: int):
        self.segments_total = segments_total
        self.segments_scanned = 0
        self.segments_pruned = 0
        self.rows_scanned = 0
        self.rows_kept = 0
        self.partitions: list[dict] = []

    def to_dict(self) -> dict:
        return {
            "segments_total": self.segments_total,
            "partitions_scanned": self.segments_scanned,
            "partitions_pruned": self.segments_pruned,
            "rows_scanned": self.rows_scanned,
            "rows_kept": self.rows_kept,
            "partitions": list(self.partitions),
        }


def _estimate_rows(segment: Segment, predicate: "Expression | None") -> int:
    """Pre-scan row estimate for one surviving segment.

    Equality against a column with a distinct-count hint estimates
    ``rows / n_distinct`` (uniform assumption); everything else uses the
    segment row count — an upper bound, which is the honest estimate a
    min/max zone can give.
    """
    if predicate is None:
        return segment.num_rows
    from repro.tabular.expressions import _Compare

    if isinstance(predicate, _Compare) and predicate.symbol == "==":
        zone = segment.zones.zones.get(predicate.name)
        if zone is not None and zone.n_distinct:
            return max(1, segment.num_rows // zone.n_distinct)
    return segment.num_rows


def filter_segment(
    segment: Segment, predicate: "Expression | None"
) -> tuple[np.ndarray, dict[str, Column], float]:
    """Scan one segment: decode, evaluate, keep matching rows.

    Returns ``(kept_global_row_index, kept_columns, elapsed_ms)``.
    """
    started = time.perf_counter()
    table = segment.table()
    if predicate is None:
        keep = None
    else:
        keep = predicate.evaluate(table)
        if keep.all():
            keep = None  # whole segment kept: skip per-column masking
    if keep is None:
        kept_index = segment.row_index
        kept = {name: table.column(name) for name in table.column_names}
    else:
        kept_index = segment.row_index[keep]
        kept = {
            name: table.column(name).mask(keep) for name in table.column_names
        }
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return kept_index, kept, elapsed_ms


class PartitionedStore:
    """Immutable set of partition segments holding one flat-view epoch."""

    __slots__ = (
        "segments",
        "spec",
        "encodings",
        "schema",
        "num_rows",
        "config",
        "generation",
    )

    def __init__(
        self,
        segments: tuple[Segment, ...],
        spec: "PartitioningSpec | None",
        encodings: Mapping[str, str],
        schema: dict,
        num_rows: int,
        config: StorageConfig,
        generation: int = 0,
    ):
        self.segments = segments
        self.spec = spec
        self.encodings = dict(encodings)
        self.schema = schema
        self.num_rows = num_rows
        self.config = config
        self.generation = generation

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, table: Table, config: "StorageConfig | None" = None) -> "PartitionedStore":
        """Partition + encode a flat view into a fresh store."""
        config = config or StorageConfig()
        spec = config.resolve_partitioning(table)
        encodings = resolve_encodings(config.encodings, table.column_names)
        segments = cls._shard(
            table,
            spec,
            encodings,
            row_offset=0,
            generation=0,
            seq_start=0,
        )
        return cls(
            tuple(segments),
            spec,
            encodings,
            dict(table.schema),
            table.num_rows,
            config,
            generation=0,
        )

    @staticmethod
    def _shard(
        table: Table,
        spec: "PartitioningSpec | None",
        encodings: Mapping[str, str],
        row_offset: int,
        generation: int,
        seq_start: int,
    ) -> list[Segment]:
        n = table.num_rows
        if n == 0:
            return []
        if spec is None:
            bands = np.zeros(n, dtype=np.int64)
            buckets = np.zeros(n, dtype=np.int64)
        else:
            bands, buckets = spec.partition_parts(table)
        # lexsort is stable → within a partition, rows keep ascending
        # global order (last key is the primary sort key)
        order = np.lexsort((buckets, bands))
        sorted_bands = bands[order]
        sorted_buckets = buckets[order]
        change = (sorted_bands[1:] != sorted_bands[:-1]) | (
            sorted_buckets[1:] != sorted_buckets[:-1]
        )
        boundaries = np.concatenate(
            [
                np.zeros(1, dtype=np.int64),
                np.flatnonzero(change) + 1,
                np.array([n], dtype=np.int64),
            ]
        )
        segments: list[Segment] = []
        for seq, (lo, hi) in enumerate(zip(boundaries[:-1], boundaries[1:])):
            indices = order[lo:hi]
            key = (int(sorted_bands[lo]), int(sorted_buckets[lo]))
            shard = table.take(indices)
            segment_id = f"seg-g{generation:04d}-{seq_start + seq:05d}"
            segments.append(
                Segment.build(
                    segment_id,
                    key,
                    shard,
                    indices.astype(np.int64) + row_offset,
                    encodings,
                )
            )
        return segments

    def append(self, delta: Table) -> "PartitionedStore":
        """A new store with ``delta`` appended as fresh segments.

        Routed through the *resolved* spec captured at build time, so a
        delta row lands in the same ``(band, bucket)`` partition its
        batch-mates did — segments multiply per publish, zone selectivity
        does not degrade.  Existing segments are shared, not copied.
        """
        if dict(delta.schema) != self.schema:
            raise SchemaMismatchError(
                "delta schema does not match the partitioned store's schema"
            )
        generation = self.generation + 1
        new_segments = self._shard(
            delta,
            self.spec,
            self.encodings,
            row_offset=self.num_rows,
            generation=generation,
            seq_start=0,
        )
        return PartitionedStore(
            self.segments + tuple(new_segments),
            self.spec,
            self.encodings,
            self.schema,
            self.num_rows + delta.num_rows,
            self.config,
            generation=generation,
        )

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------

    def scan(
        self, predicate: "Expression | None" = None
    ) -> Iterator[tuple[Segment, Table]]:
        """Iterate surviving ``(segment, decoded chunk)`` pairs.

        The partition-aware counterpart of reading the whole flat view:
        segments whose zone maps exclude ``predicate`` are skipped
        entirely; the chunks yielded are the segments' full decoded
        tables (apply the predicate per chunk if exact rows are needed —
        :meth:`scan_filter` does that and restores global order).
        """
        for segment in self.segments:
            if predicate is not None and not segment.zones.may_match(predicate):
                continue
            yield segment, segment.table()

    def estimate_rows(self, predicate: "Expression | None") -> int:
        """Zone-map row estimate for ``scan_filter`` — never scans.

        Pruned segments contribute nothing; each survivor contributes
        its :func:`_estimate_rows` guess.  Every filtered base scan
        stamps it on its span as ``est_rows``, so it must stay cheap (a
        pure zone-map walk).
        """
        total = 0
        for segment in self.segments:
            if predicate is not None and not segment.zones.may_match(predicate):
                continue
            total += _estimate_rows(segment, predicate)
        return total

    def scan_filter(
        self, predicate: "Expression | None"
    ) -> tuple[Table, ScanStats]:
        """Pruned equivalent of ``flat.filter(predicate)``.

        Byte-identical to the flat-view filter: kept rows are reordered
        into ascending global row index before the table is assembled.
        Each surviving segment is one cancellation checkpoint.
        """
        stats = ScanStats(len(self.segments))
        kept_indices: list[np.ndarray] = []
        kept_columns: list[dict[str, Column]] = []
        for segment in self.segments:
            if predicate is not None and not segment.zones.may_match(predicate):
                stats.segments_pruned += 1
                continue
            checkpoint()
            kept_index, kept, elapsed_ms = filter_segment(segment, predicate)
            stats.segments_scanned += 1
            band, bucket = segment.key
            stats.rows_scanned += segment.num_rows
            stats.rows_kept += len(kept_index)
            stats.partitions.append(
                {
                    "segment_id": segment.segment_id,
                    "band": band,
                    "bucket": bucket,
                    "est_rows": _estimate_rows(segment, predicate),
                    "actual_rows": int(len(kept_index)),
                    "ms": round(elapsed_ms, 3),
                }
            )
            if len(kept_index):
                kept_indices.append(kept_index)
                kept_columns.append(kept)
        return self._assemble(kept_indices, kept_columns), stats

    def _assemble(
        self,
        kept_indices: list[np.ndarray],
        kept_columns: list[dict[str, Column]],
    ) -> Table:
        if not kept_indices:
            return self._empty_table()
        all_index = np.concatenate(kept_indices)
        # inverse permutation: ascending global row index == flat-view order
        order = np.argsort(all_index, kind="stable")
        columns: dict[str, Column] = {}
        for name, dtype in self.schema.items():
            pieces = [chunk[name] for chunk in kept_columns]
            if len(pieces) == 1:
                data = pieces[0].data[order]
                valid = pieces[0].valid[order]
            else:
                data = np.concatenate([p.data for p in pieces])[order]
                valid = np.concatenate([p.valid for p in pieces])[order]
            columns[name] = Column(dtype, data, valid)
        return Table(columns)

    def _empty_table(self) -> Table:
        columns = {}
        for name, dtype in self.schema.items():
            columns[name] = Column(
                dtype,
                np.empty(0, dtype=dtype.numpy_dtype),
                np.zeros(0, dtype=bool),
            )
        return Table(columns)

    def to_table(self) -> Table:
        """Decode the full flat view in exact flat-view row order."""
        full, _ = self.scan_filter(None)
        return full

    # ------------------------------------------------------------------
    # Maintenance & accounting
    # ------------------------------------------------------------------

    def compact(self) -> "PartitionedStore":
        """Merge delta segments: back to one segment per partition key.

        Rebuilds from the decoded flat view with the same resolved spec,
        so row order and partition routing are unchanged — only the
        per-partition segment count collapses.  Returns a new store; the
        old one (and any snapshot pinning it) is untouched.
        """
        flat = self.to_table()
        generation = self.generation + 1
        segments = self._shard(
            flat,
            self.spec,
            self.encodings,
            row_offset=0,
            generation=generation,
            seq_start=0,
        )
        return PartitionedStore(
            tuple(segments),
            self.spec,
            self.encodings,
            self.schema,
            self.num_rows,
            self.config,
            generation=generation,
        )

    @property
    def nbytes(self) -> int:
        """Total encoded footprint of all segments."""
        return sum(s.nbytes for s in self.segments)

    def decoded_nbytes(self) -> int:
        """Footprint the same rows would occupy fully decoded."""
        total = 0
        for segment in self.segments:
            table = segment.table()
            for name in table.column_names:
                total += column_nbytes(table.column(name))
            total += int(segment.row_index.nbytes)
        return total

    def partition_count(self) -> int:
        """Distinct partition keys across all segments."""
        return len({s.key for s in self.segments})

    def stats(self) -> dict:
        """Store-level summary for health/bench surfaces."""
        encodings_used: dict[str, int] = {}
        for segment in self.segments:
            for enc in segment.encoding_summary().values():
                encodings_used[enc] = encodings_used.get(enc, 0) + 1
        return {
            "segments": len(self.segments),
            "partitions": self.partition_count(),
            "rows": self.num_rows,
            "generation": self.generation,
            "encoded_bytes": self.nbytes,
            "encodings": encodings_used,
            "spec": self.spec.to_dict() if self.spec else None,
        }

    def validate_same_layout(self, other: "PartitionedStore") -> None:
        """Raise unless ``other`` was built with this store's layout."""
        if self.spec != other.spec or self.schema != other.schema:
            raise StorageError("partitioned stores have different layouts")
