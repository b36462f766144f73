"""Storage configuration: partitioning spec and encodings.

The redesigned storage API is configured in one place::

    SystemConfig(storage=StorageConfig(
        partitioning=PartitioningSpec(hash_column="cardinality.patient_id",
                                      hash_partitions=4,
                                      band_column="cardinality.visit_year"),
        encodings="auto",
    ))

``partitioning="auto"`` resolves against the flat view's schema when the
store is built: the hash column is the first patient-id-shaped int
column, the band column the first DATE column (falling back to an int
column named like a visit year).  Resolution happens once — the resolved
spec is stored on the :class:`~repro.storage.columnar.store.PartitionedStore`
so delta appends and compactions route rows to the *same* partitions the
original build chose, which is what keeps zone maps selective across a
store's lifetime.

Partition assignment must be stable across processes and runs (Python's
``hash`` is salted), so hashing uses a fixed multiplicative mix for
ints/dates and CRC32 for strings.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import StorageError
from repro.tabular.dtypes import DType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tabular.table import Table

#: default number of hash partitions when a hash column is used.  Kept
#: deliberately small: every extra partition pays a fixed per-column cost
#: at scan time (the cohort flat view is ~277 columns wide), so more
#: partitions only help once per-row work dwarfs that overhead.
DEFAULT_HASH_PARTITIONS = 4

#: Fibonacci multiplicative-hash constant (2^64 / golden ratio, odd)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class PartitioningSpec:
    """How the flat view is sharded into horizontal partition segments.

    Rows are grouped by ``(band, hash_bucket)``: the band comes from an
    absolute integer division of the band column (so band identity is
    stable as deltas arrive), the bucket from a stable hash of the hash
    column.  Either part may be absent; with neither, the store holds a
    single partition per publish.
    """

    hash_column: str | None = None
    hash_partitions: int = DEFAULT_HASH_PARTITIONS
    band_column: str | None = None
    band_width: int = 1

    def __post_init__(self) -> None:
        if self.hash_partitions < 1:
            raise StorageError("hash_partitions must be >= 1")
        if self.band_width < 1:
            raise StorageError("band_width must be >= 1")

    def to_dict(self) -> dict:
        return {
            "hash_column": self.hash_column,
            "hash_partitions": self.hash_partitions,
            "band_column": self.band_column,
            "band_width": self.band_width,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PartitioningSpec":
        return cls(
            hash_column=payload.get("hash_column"),
            hash_partitions=int(payload.get("hash_partitions", DEFAULT_HASH_PARTITIONS)),
            band_column=payload.get("band_column"),
            band_width=int(payload.get("band_width", 1)),
        )

    # ------------------------------------------------------------------
    # Resolution & assignment
    # ------------------------------------------------------------------

    @classmethod
    def resolve_auto(cls, table: "Table") -> "PartitioningSpec":
        """Pick partition columns from a flat view's schema.

        Hash column: first INT column whose name is ``patient_id`` or
        ends with ``.patient_id``.  Band column: first DATE column
        (banded per ~year of day ordinals), otherwise the first INT
        column whose (qualified) name contains ``visit_year`` or
        ``year``.  Either may end up absent.
        """
        schema = table.schema
        hash_column = None
        for name, dtype in schema.items():
            if dtype is DType.INT and (
                name == "patient_id" or name.endswith(".patient_id")
            ):
                hash_column = name
                break
        band_column = None
        band_width = 1
        for name, dtype in schema.items():
            if dtype is DType.DATE:
                band_column = name
                band_width = 365  # day ordinals → one band per ~year
                break
        if band_column is None:
            for name, dtype in schema.items():
                if dtype is DType.INT and (
                    "visit_year" in name or name.endswith("year")
                ):
                    band_column = name
                    break
        return cls(
            hash_column=hash_column,
            band_column=band_column,
            band_width=band_width,
        )

    def partition_parts(self, table: "Table") -> tuple[np.ndarray, np.ndarray]:
        """Per-row ``(bands, buckets)`` arrays (both int64).

        The band is an *absolute* division of the band column
        (``value // band_width``), so band identity never shifts as
        deltas extend the value range; the bucket is a stable hash.
        Rows with a null band/hash value fall into band/bucket 0 of that
        dimension.
        """
        n = table.num_rows
        if self.band_column is not None:
            column = table.column(self.band_column)
            if column.dtype not in (DType.INT, DType.DATE):
                raise StorageError(
                    f"band column {self.band_column!r} must be int or date, "
                    f"got {column.dtype.value}"
                )
            values = column.data.astype(np.int64, copy=False)
            bands = np.floor_divide(values, self.band_width)
            bands = np.where(column.valid, bands, np.int64(0))
        else:
            bands = np.zeros(n, dtype=np.int64)
        if self.hash_column is not None:
            buckets = stable_bucket(
                table.column(self.hash_column), self.hash_partitions
            )
        else:
            buckets = np.zeros(n, dtype=np.int64)
        return bands, buckets


def stable_bucket(column, n_buckets: int) -> np.ndarray:
    """Stable hash bucket per row (independent of PYTHONHASHSEED)."""
    if column.dtype in (DType.INT, DType.DATE, DType.BOOL):
        raw = column.data.astype(np.int64, copy=False).view(np.uint64)
        mixed = raw * _HASH_MULTIPLIER
        mixed ^= mixed >> np.uint64(29)
        buckets = (mixed % np.uint64(n_buckets)).astype(np.int64)
    elif column.dtype is DType.STR:
        buckets = np.array(
            [
                zlib.crc32(v.encode("utf-8")) % n_buckets if ok and v is not None else 0
                for v, ok in zip(column.data.tolist(), column.valid.tolist())
            ],
            dtype=np.int64,
        )
    else:
        raise StorageError(
            f"hash partitioning is not defined for {column.dtype.value} columns"
        )
    return np.where(column.valid, buckets, np.int64(0))


@dataclass(frozen=True)
class StorageConfig:
    """Configuration for the partitioned columnar store.

    ``partitioning`` is a :class:`PartitioningSpec`, the string ``"auto"``
    (resolve from the schema at build time) or ``None`` (single
    partition).  ``encodings`` is an encoding name applied to every
    column or a per-column mapping (see
    :mod:`repro.storage.columnar.encodings`).
    """

    partitioning: "PartitioningSpec | str | None" = "auto"
    encodings: "str | Mapping[str, str]" = "auto"

    def __post_init__(self) -> None:
        if isinstance(self.partitioning, Mapping):
            object.__setattr__(
                self, "partitioning", PartitioningSpec.from_dict(self.partitioning)
            )
        if isinstance(self.partitioning, str) and self.partitioning != "auto":
            raise StorageError(
                f"partitioning must be a PartitioningSpec, 'auto' or None, "
                f"got {self.partitioning!r}"
            )

    def resolve_partitioning(self, table: "Table") -> "PartitioningSpec | None":
        if self.partitioning == "auto":
            return PartitioningSpec.resolve_auto(table)
        return self.partitioning


def coerce_storage(value: "StorageConfig | Mapping | bool | None") -> "StorageConfig | None":
    """Normalise the ``SystemConfig(storage=...)`` spelling.

    Accepts a ready :class:`StorageConfig`, a plain mapping of its
    fields, ``True`` (all defaults) or ``None``/``False`` (storage off).
    """
    if value is None or value is False:
        return None
    if value is True:
        return StorageConfig()
    if isinstance(value, StorageConfig):
        return value
    if isinstance(value, Mapping):
        valid = [f.name for f in fields(StorageConfig)]
        unknown = sorted(set(value) - set(valid))
        if unknown:
            raise StorageError(
                f"unknown storage option(s) {', '.join(map(repr, unknown))} "
                f"(valid: {', '.join(valid)})"
            )
        return StorageConfig(**dict(value))
    raise StorageError(
        f"storage must be a StorageConfig, mapping, bool or None, got {value!r}"
    )
