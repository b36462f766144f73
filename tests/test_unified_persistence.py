"""The unified save/load/recover surface over all three artefact kinds."""

from __future__ import annotations

import pytest

import repro.persistence as persistence
from repro.errors import PersistenceError, StorageError
from repro.knowledge.findings import Evidence, FindingKind
from repro.knowledge.kb import KnowledgeBase
from repro.persistence import checkpoint, detect_kind, load, recover, save
from repro.storage.engine import StorageEngine
from repro.storage.wal import WriteAheadLog


def _engine() -> StorageEngine:
    db = StorageEngine()
    db.create_table("t", {"k": "int", "v": "str"}, primary_key="k")
    with db.transaction():
        db.insert("t", {"k": 1, "v": "one"})
        db.insert("t", {"k": 2, "v": "two"})
    return db


def _kb() -> KnowledgeBase:
    base = KnowledgeBase(promotion_threshold=2.0)
    base.record(
        "f1", FindingKind.AGGREGATE, "claim", Evidence("fig4", "crosstab", 2.5)
    )
    return base


class TestRoundTrips:
    def test_storage_engine(self, tmp_path):
        gen_dir = save(_engine(), tmp_path / "snaps")
        assert gen_dir.name.startswith("gen-")
        loaded = load(tmp_path / "snaps")
        assert isinstance(loaded, StorageEngine)
        assert loaded.row_count("t") == 2
        assert loaded.get_by_pk("t", 1)["v"] == "one"

    def test_warehouse(self, tmp_path, fresh_built):
        returned = save(fresh_built.warehouse, tmp_path / "wh")
        assert returned == tmp_path / "wh"
        loaded = load(tmp_path / "wh")
        assert loaded.schema.fact.measure("fbg") is not None
        assert type(loaded) is type(fresh_built.warehouse)

    def test_knowledge_base(self, tmp_path):
        path = save(_kb(), tmp_path / "kb.json")
        loaded = load(path)
        assert isinstance(loaded, KnowledgeBase)
        assert loaded.get("f1").statement == "claim"

    def test_load_with_explicit_kind(self, tmp_path):
        save(_kb(), tmp_path / "kb.json")
        loaded = load(tmp_path / "kb.json", kind="knowledge")
        assert len(loaded) == 1

    def test_recover_replays_wal_past_snapshot(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        db = StorageEngine(wal)
        db.create_table("t", {"k": "int"}, primary_key="k")
        checkpoint(db, tmp_path / "snaps")
        with db.transaction():
            db.insert("t", {"k": 7})
        recovered = recover(tmp_path / "snaps", tmp_path / "wal.log")
        assert recovered.row_count("t") == 1
        assert recovered.get_by_pk("t", 7) is not None


class TestDetectKind:
    def test_each_layout(self, tmp_path, fresh_built):
        save(_engine(), tmp_path / "snaps")
        save(fresh_built.warehouse, tmp_path / "wh")
        save(_kb(), tmp_path / "kb.json")
        assert detect_kind(tmp_path / "snaps") == "storage"
        assert detect_kind(tmp_path / "wh") == "warehouse"
        assert detect_kind(tmp_path / "kb.json") == "knowledge"

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="nothing exists"):
            detect_kind(tmp_path / "absent")

    def test_unrecognisable_directory_raises(self, tmp_path):
        (tmp_path / "junk").mkdir()
        with pytest.raises(PersistenceError, match="no recognisable"):
            detect_kind(tmp_path / "junk")


class TestErrorContract:
    def test_subsystem_error_translated_with_cause(self, tmp_path):
        (tmp_path / "snaps").mkdir()
        (tmp_path / "snaps" / "gen-00000001").mkdir()  # empty: no manifest
        with pytest.raises(PersistenceError) as excinfo:
            load(tmp_path / "snaps")
        assert isinstance(excinfo.value.__cause__, StorageError)

    def test_unknown_object_type_rejected(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot save"):
            save(object(), tmp_path / "x")

    def test_unknown_kind_rejected(self, tmp_path):
        save(_kb(), tmp_path / "kb.json")
        with pytest.raises(PersistenceError, match="unknown artefact kind"):
            load(tmp_path / "kb.json", kind="parquet")

    def test_persistence_error_is_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(PersistenceError, ReproError)


class TestDeprecatedShims:
    """The six old per-subsystem names are gone; nothing left warns."""

    def test_unified_surface_does_not_warn(self, tmp_path, recwarn):
        save(_kb(), tmp_path / "kb.json")
        load(tmp_path / "kb.json")
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_exported_from_package_root(self):
        import repro

        assert repro.PersistenceError is PersistenceError
        assert persistence.save is save
