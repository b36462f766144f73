"""Partitioned storage behind the cube/system API.

Covers the storage API redesign end to end: store-backed epochs answer
byte-identically to flat epochs, EXPLAIN carries the partition-pruning
contract fields, ``publish_delta`` appends segments instead of lazy
blocks, and — the aliasing regression — a pinned snapshot taken before a
compaction never observes a half-compacted table, even when the
compaction crashes at the ``storage.compaction`` fault point.
"""

import pytest

from repro.olap.cube import Cube
from repro.storage import faults
from repro.storage.columnar import PartitioningSpec, StorageConfig
from repro.storage.faults import FaultPlan, FaultRule, SimulatedCrash
from repro.tabular import Table
from repro.tabular.expressions import col
from repro.warehouse.dimension import Dimension
from repro.warehouse.fact import Measure
from repro.warehouse.loader import DimensionSpec, WarehouseLoader

SCHEMA = {"g": "str", "band": "str", "pid": "int", "v": "float"}

OLD_ROWS = [
    {"g": "F", "band": "a", "pid": 1, "v": 7.5},
    {"g": "F", "band": "a", "pid": 1, "v": 8.0},
    {"g": "M", "band": "a", "pid": 2, "v": 6.0},
    {"g": "F", "band": "b", "pid": 3, "v": None},
    {"g": "M", "band": "b", "pid": 4, "v": 4.5},
    {"g": "F", "band": "b", "pid": 5, "v": 5.25},
]

DELTA_ROWS = [
    {"g": "F", "band": "a", "pid": 1, "v": 2.0},
    {"g": "M", "band": "b", "pid": 4, "v": 9.5},
    {"g": "X", "band": "c", "pid": 9, "v": 1.0},
]

STORAGE = StorageConfig(
    partitioning=PartitioningSpec(hash_column="card.pid", hash_partitions=3)
)


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.uninstall()


def _loader(rows):
    loader = WarehouseLoader(
        "m", "f",
        [
            DimensionSpec(Dimension("d", {"g": "str", "band": "str"})),
            DimensionSpec(Dimension("card", {"pid": "int"})),
        ],
        [Measure.of("v", "float", "mean")],
    )
    loader.load(Table.from_rows(rows, schema=SCHEMA))
    return loader


def _cube(rows, storage=None):
    cube = Cube(_loader(rows).schema, managed=True)
    if storage is not None:
        cube.attach_storage(storage)
    cube.publish()
    return cube


LEVELS = ["d.g", "d.band"]
AGGS = {"n": ("records", "size"), "mean_v": ("v", "mean"), "max_v": ("v", "max")}


class TestStoreBackedAnswers:
    def test_aggregate_matches_flat_cube(self):
        plain = _cube(OLD_ROWS)
        stored = _cube(OLD_ROWS, STORAGE)
        assert stored._state.store is not None
        for filters in (None, col("d.g") == "F", col("v") > 5.0):
            a = plain.aggregate(LEVELS, AGGS, filters=filters)
            b = stored.aggregate(LEVELS, AGGS, filters=filters)
            assert b.equals(a)

    def test_store_backed_flat_is_byte_identical(self):
        plain = _cube(OLD_ROWS)
        stored = _cube(OLD_ROWS, STORAGE)
        assert stored._state.store.to_table().equals(plain._state.flat)

    def test_cube_scan_iterator_prunes(self):
        stored = _cube(OLD_ROWS, STORAGE)
        chunks = list(stored.scan(col("card.pid") == 1))
        assert chunks
        assert sum(c.num_rows for c in chunks) < len(OLD_ROWS)


class TestDeltaPublishing:
    def test_publish_delta_appends_segments(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        cube.attach_storage(STORAGE)
        before = cube.publish()
        start = loader.schema.fact.num_rows
        loader.load(Table.from_rows(DELTA_ROWS, schema=SCHEMA))
        state = cube.publish_delta(loader.schema.flatten(start=start))

        assert state.store is not None
        assert len(state.store.segments) > len(before.store.segments)
        # old segments are shared, not rebuilt
        old_ids = {id(s) for s in before.store.segments}
        assert old_ids <= {id(s) for s in state.store.segments}
        # answers equal a from-scratch cube over the union
        rebuilt = _cube(OLD_ROWS + DELTA_ROWS, STORAGE)
        assert cube.aggregate(LEVELS, AGGS).equals(rebuilt.aggregate(LEVELS, AGGS))

    def test_delta_then_compact_preserves_answers(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        cube.attach_storage(STORAGE)
        cube.publish()
        start = loader.schema.fact.num_rows
        loader.load(Table.from_rows(DELTA_ROWS, schema=SCHEMA))
        cube.publish_delta(loader.schema.flatten(start=start))
        before = cube.aggregate(LEVELS, AGGS, filters=col("d.g") == "F")
        state = cube.compact_storage()
        assert state is not None
        after = cube.aggregate(LEVELS, AGGS, filters=col("d.g") == "F")
        assert after.equals(before)

    def test_compact_without_store_is_noop(self):
        cube = _cube(OLD_ROWS)
        assert cube.compact_storage() is None


class TestSnapshotAliasing:
    """A pinned snapshot must never observe a half-compacted table."""

    def test_pinned_snapshot_survives_compaction(self):
        cube = _cube(OLD_ROWS, STORAGE)
        snap = cube.snapshot()
        flat_before = snap.flat
        store_before = snap.store
        grid_before = snap.aggregate(LEVELS, AGGS)

        cube.compact_storage()

        # the snapshot's state objects are untouched — same store, and the
        # flat view it serves is the very table it served before
        assert snap.store is store_before
        assert snap.flat.equals(flat_before)
        assert snap.aggregate(LEVELS, AGGS).equals(grid_before)

    def test_crashed_compaction_leaves_epoch_intact(self):
        cube = _cube(OLD_ROWS, STORAGE)
        epoch_before = cube.epoch
        segments_before = cube._state.store.segments
        grid_before = cube.aggregate(LEVELS, AGGS)

        faults.install(FaultPlan([FaultRule("storage.compaction", mode="kill")]))
        with pytest.raises(SimulatedCrash):
            cube.compact_storage()
        faults.uninstall()

        # the swap never happened: same epoch, same segment tuple
        assert cube.epoch == epoch_before
        assert cube._state.store.segments is segments_before
        assert cube.aggregate(LEVELS, AGGS).equals(grid_before)

    def test_snapshot_during_crashed_compaction_is_consistent(self):
        cube = _cube(OLD_ROWS, STORAGE)
        snap = cube.snapshot()
        grid_before = snap.aggregate(LEVELS, AGGS)
        faults.install(FaultPlan([FaultRule("storage.compaction", mode="kill")]))
        with pytest.raises(SimulatedCrash):
            cube.compact_storage()
        faults.uninstall()
        assert snap.aggregate(LEVELS, AGGS).equals(grid_before)
