"""Partitioned, compressed columnar storage with zone-map pruning.

The flat view is sharded horizontally into immutable
:class:`~repro.storage.columnar.segment.Segment`\\ s — by patient-id hash
and/or visit-date band (:class:`PartitioningSpec`) — each carrying
dictionary/RLE-encoded columns and a zone map (min/max, null counts,
distinct-count hints).  :class:`PartitionedStore` prunes segments whose
zones exclude a predicate before any kernel runs, scans the survivors
in the calling thread and reassembles flat-view row order so answers
stay byte-identical to the unpartitioned engine.

Configured through the redesigned storage API::

    SystemConfig(storage=StorageConfig(partitioning="auto",
                                       encodings="auto"))
"""

from repro.storage.columnar.config import (
    PartitioningSpec,
    StorageConfig,
    coerce_storage,
)
from repro.storage.columnar.encodings import (
    DictColumn,
    EncodedColumn,
    PlainColumn,
    RLEColumn,
    choose_encoding,
    encode_column,
)
from repro.storage.columnar.segment import Segment
from repro.storage.columnar.store import PartitionedStore, ScanStats
from repro.storage.columnar.zonemap import ColumnZone, ZoneMap

__all__ = [
    "PartitioningSpec",
    "StorageConfig",
    "coerce_storage",
    "EncodedColumn",
    "PlainColumn",
    "DictColumn",
    "RLEColumn",
    "encode_column",
    "choose_encoding",
    "Segment",
    "ZoneMap",
    "ColumnZone",
    "PartitionedStore",
    "ScanStats",
]
