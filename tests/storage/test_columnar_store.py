"""Partitioned store: pruning, parity, append/compact."""

import datetime as dt

import numpy as np
import pytest

from repro.errors import SchemaMismatchError
from repro.storage.columnar import (
    PartitionedStore,
    PartitioningSpec,
    StorageConfig,
    ZoneMap,
)
from repro.tabular import Table, col


def make_table(n=200, seed=11, year_base=2005):
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        {
            "patient_id": [int(v) for v in rng.integers(1, 40, n)],
            "visit_year": [int(year_base + v) for v in rng.integers(0, 6, n)],
            "gender": [["F", "M"][int(v)] for v in rng.integers(0, 2, n)],
            "hba1c": [
                None if rng.random() < 0.1 else float(round(4 + 8 * rng.random(), 2))
                for _ in range(n)
            ],
            "visit_date": [
                dt.date(int(year_base + rng.integers(0, 6)), 1 + int(rng.integers(0, 12)), 1)
                for _ in range(n)
            ],
        },
        schema={
            "patient_id": "int",
            "visit_year": "int",
            "gender": "str",
            "hba1c": "float",
            "visit_date": "date",
        },
    )


SPEC = PartitioningSpec(
    hash_column="patient_id", hash_partitions=4, band_column="visit_year"
)
CONFIG = StorageConfig(partitioning=SPEC)

PREDICATES = [
    col("visit_year") >= 2008,
    (col("visit_year") == 2006) & (col("gender") == "F"),
    col("hba1c").is_null(),
    (col("hba1c") > 9.0) | (col("visit_year") < 2006),
    col("patient_id").isin([3, 7, 11]),
    ~(col("gender") == "M"),
]


def assert_tables_byte_equal(a: Table, b: Table):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        assert ca.dtype is cb.dtype
        assert ca.valid.tobytes() == cb.valid.tobytes()
        if ca.dtype.value == "str":
            assert ca.to_list() == cb.to_list()
        else:
            assert ca.data.tobytes() == cb.data.tobytes()


@pytest.fixture(scope="module")
def store():
    return PartitionedStore.build(make_table(), CONFIG)


class TestBuild:
    def test_round_trip_to_table(self, store):
        assert_tables_byte_equal(store.to_table(), make_table())

    def test_segments_cover_all_rows_once(self, store):
        index = np.concatenate([s.row_index for s in store.segments])
        assert sorted(index.tolist()) == list(range(make_table().num_rows))

    def test_partition_keys_are_band_bucket(self, store):
        for segment in store.segments:
            band, bucket = segment.key
            assert 0 <= bucket < SPEC.hash_partitions
            years = [
                y
                for y in segment.table().column("visit_year").to_list()
                if y is not None
            ]
            assert all(y == band for y in years)

    def test_encoded_smaller_than_decoded(self, store):
        assert store.nbytes < store.decoded_nbytes()


class TestScanParity:
    @pytest.mark.parametrize("predicate", PREDICATES, ids=[p.describe() for p in PREDICATES])
    def test_pruned_scan_byte_equals_flat_filter(self, store, predicate):
        flat = make_table()
        expected = flat.filter(predicate)
        got, stats = store.scan_filter(predicate)
        assert_tables_byte_equal(got, expected)
        assert stats.segments_scanned + stats.segments_pruned == stats.segments_total

    def test_none_predicate_scans_everything(self, store):
        table, stats = store.scan_filter(None)
        assert_tables_byte_equal(table, make_table())
        assert stats.segments_pruned == 0

    def test_band_predicate_prunes(self, store):
        _, stats = store.scan_filter(col("visit_year") == 2006)
        assert stats.segments_pruned > 0
        assert stats.rows_scanned < make_table().num_rows

    def test_stats_contract_fields(self, store):
        _, stats = store.scan_filter(col("visit_year") >= 2008)
        payload = stats.to_dict()
        for key in ("partitions_scanned", "partitions_pruned", "segments_total"):
            assert key in payload
        assert payload["partitions"], "expected per-partition detail"
        entry = payload["partitions"][0]
        for key in ("segment_id", "band", "bucket", "est_rows", "actual_rows", "ms"):
            assert key in entry

    def test_scan_iterator_yields_only_survivors(self, store):
        predicate = col("visit_year") == 2007
        chunks = list(store.scan(predicate))
        assert 0 < len(chunks) < len(store.segments)
        total = sum(segment.num_rows for segment, _ in chunks)
        assert total < make_table().num_rows


class TestAppendCompact:
    def test_append_then_scan_matches_concat(self, store):
        delta = make_table(n=60, seed=99)
        appended = store.append(delta)
        combined = Table.concat_all([make_table(), delta])
        assert_tables_byte_equal(appended.to_table(), combined)
        # original store untouched (immutability)
        assert store.num_rows == make_table().num_rows
        assert appended.generation == store.generation + 1

    def test_append_shares_existing_segments(self, store):
        appended = store.append(make_table(n=30, seed=5))
        shared = set(id(s) for s in store.segments) & set(
            id(s) for s in appended.segments
        )
        assert len(shared) == len(store.segments)

    def test_append_schema_drift_rejected(self, store):
        bad = Table.from_columns({"x": [1, 2]}, schema={"x": "int"})
        with pytest.raises(SchemaMismatchError):
            store.append(bad)

    def test_append_empty_delta_is_identity(self, store):
        empty = make_table().filter(col("visit_year") > 9999)
        appended = store.append(empty)
        assert appended.num_rows == store.num_rows

    def test_compact_merges_and_preserves_bytes(self, store):
        appended = store.append(make_table(n=60, seed=99))
        compacted = appended.compact()
        assert compacted.partition_count() <= appended.partition_count()
        assert len(compacted.segments) <= len(appended.segments)
        assert_tables_byte_equal(compacted.to_table(), appended.to_table())

    def test_compact_preserves_pruned_answers(self, store):
        appended = store.append(make_table(n=60, seed=99))
        compacted = appended.compact()
        for predicate in PREDICATES:
            a, _ = appended.scan_filter(predicate)
            c, _ = compacted.scan_filter(predicate)
            assert_tables_byte_equal(a, c)


class TestZoneMaps:
    def test_empty_table_never_matches(self):
        empty = make_table().filter(col("visit_year") > 9999)
        zones = ZoneMap.from_table(empty)
        assert not zones.may_match(col("visit_year") == 2006)

    def test_range_pruning_is_conservative(self, store):
        # zone says maybe → scanning must find every actual match; zone
        # says no → flat filter of that segment must be empty
        predicate = col("hba1c") > 11.5
        for segment in store.segments:
            table = segment.table()
            actual = table.filter(predicate).num_rows
            if not segment.zones.may_match(predicate):
                assert actual == 0

    def test_unknown_expression_shape_never_prunes(self, store):
        # NOT is conservative: never pruned even when provably empty
        predicate = ~(col("visit_year") >= 1900)
        _, stats = store.scan_filter(predicate)
        assert stats.segments_pruned == 0
