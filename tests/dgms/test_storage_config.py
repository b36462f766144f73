"""The redesigned storage configuration surface.

Covers the API-redesign satellite end to end at system level:
``SystemConfig(storage=StorageConfig(...))`` wires a partitioned store
into ``open_system``, mapping spellings coerce into the typed config,
EXPLAIN carries the stable partition fields, and ``ingest_health()``
reports segment/encoding stats.
"""

from __future__ import annotations

import warnings

import pytest

import repro
from repro.dgms.system import SystemConfig
from repro.discri.generator import DiScRiGenerator
from repro.errors import StorageError
from repro.storage.columnar import PartitioningSpec, StorageConfig, coerce_storage

FIG4_MDX = (
    "SELECT [personal].[gender].MEMBERS ON COLUMNS, "
    "[conditions].[age_band].MEMBERS ON ROWS "
    "FROM discri "
    "WHERE [personal].[family_history_diabetes].[yes]"
)


@pytest.fixture(scope="module")
def source():
    return DiScRiGenerator(n_patients=50, seed=11).generate()


@pytest.fixture(scope="module")
def plain_system(source):
    return repro.open_system(source)


@pytest.fixture(scope="module")
def stored_system(source):
    return repro.open_system(source, config=SystemConfig(storage=True))


def _grid(system):
    return (
        system.query()
        .rows("conditions.age_band")
        .columns("personal.gender")
        .where("personal.family_history_diabetes", "yes")
        .execute()
    )


class TestStorageWiring:
    def test_open_system_attaches_store(self, stored_system):
        _grid(stored_system)  # first query publishes the initial epoch
        state = stored_system.cube._state
        assert state.store is not None
        assert len(state.store.segments) > 1

    def test_answers_match_storage_off(self, plain_system, stored_system):
        assert _grid(stored_system).to_text() == _grid(plain_system).to_text()

    def test_mdx_answers_match(self, plain_system, stored_system):
        assert stored_system.mdx(FIG4_MDX).to_text() == plain_system.mdx(FIG4_MDX).to_text()

    def test_storage_mapping_spelling(self, source):
        system = repro.open_system(
            source,
            config=SystemConfig(
                storage={"partitioning": {"hash_column": "cardinality.patient_id",
                                          "hash_partitions": 2}}
            ),
        )
        _grid(system)
        spec = system.cube._state.store.spec
        assert isinstance(spec, PartitioningSpec)
        assert spec.hash_partitions == 2

    def test_lazy_exports_resolve(self):
        assert repro.StorageConfig is StorageConfig
        assert repro.PartitioningSpec is PartitioningSpec

    def test_mid_life_attach_publishes_store(self, source):
        system = repro.open_system(source)
        before = _grid(system)  # publishes a flat (store-less) epoch
        assert system.cube._state.store is None
        system.attach_storage(StorageConfig())
        assert system.cube._state.store is not None
        assert _grid(system).to_text() == before.to_text()


class TestDeprecationShims:
    def test_new_spelling_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SystemConfig(storage=StorageConfig())

    def test_mapping_partitioning_coerces_in_storage_config(self):
        config = StorageConfig(partitioning={"band_column": "visit.visit_date"})
        assert isinstance(config.partitioning, PartitioningSpec)
        assert config.partitioning.band_column == "visit.visit_date"

    @pytest.mark.parametrize(
        "mapping, unknown",
        [
            ({"encoding": "dict"}, "'encoding'"),
            ({"scan_executor": "threads"}, "'scan_executor'"),
            ({"scan_procs": 2}, "'scan_procs'"),
        ],
    )
    def test_unknown_mapping_key_is_a_typed_error(self, mapping, unknown):
        with pytest.raises(StorageError) as info:
            coerce_storage(mapping)
        message = str(info.value)
        assert unknown in message
        assert "partitioning" in message and "encodings" in message

    def test_unknown_key_through_open_system(self, source):
        with pytest.raises(StorageError, match="'encoding'"):
            repro.open_system(
                source, config=SystemConfig(storage={"encoding": "dict"})
            )


class TestExplainContract:
    def test_partition_stats_fields(self, stored_system):
        report = stored_system.explain(
            stored_system.query()
            .rows("conditions.age_band")
            .columns("personal.gender")
            .where("personal.family_history_diabetes", "yes")
        )
        stats = report.partition_stats()
        assert stats is not None
        scanned, pruned = stats["partitions_scanned"], stats["partitions_pruned"]
        assert scanned + pruned == stats["segments_total"]
        assert pruned > 0  # the WHERE slice must actually prune
        for entry in stats["partitions"]:
            assert {"segment_id", "est_rows", "actual_rows", "ms"} <= entry.keys()
            assert entry["actual_rows"] <= entry["est_rows"]

    def test_plain_system_has_no_partition_stats(self, plain_system):
        report = plain_system.explain(
            plain_system.query()
            .rows("conditions.age_band")
            .columns("personal.gender")
            .where("personal.family_history_diabetes", "yes")
        )
        assert report.partition_stats() is None

    def test_mdx_explain_renders_partitions(self, stored_system):
        report = stored_system.mdx(f"EXPLAIN {FIG4_MDX}")
        assert "partitions" in report.to_text()


class TestIngestHealth:
    def test_reports_segment_stats(self, stored_system):
        health = stored_system.ingest_health()
        storage = health["storage"]
        assert storage["attached"] and storage["built"]
        assert storage["segments"] > 1
        assert storage["encoded_bytes"] > 0

    def test_absent_without_storage(self, plain_system):
        assert plain_system.ingest_health()["storage"] is None
