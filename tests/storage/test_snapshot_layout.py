"""Snapshot generations, manifests, filename sanitisation."""

import json

import pytest

from repro.errors import ChecksumError, SnapshotError, StorageError
from repro.storage.engine import StorageEngine
from repro.storage.persistence import (
    _save_snapshot as save,
    load_generation,
    recover,
    table_filename,
)


def _engine_with(*names: str) -> StorageEngine:
    db = StorageEngine()
    for i, name in enumerate(names):
        db.create_table(name, {"k": "int"}, primary_key="k")
        with db.transaction():
            db.insert(name, {"k": i})
    return db


class TestGenerations:
    def test_saves_accumulate_then_prune(self, tmp_path):
        db = _engine_with("t")
        first = save(db, tmp_path)
        assert first.name == "gen-00000001"
        second = save(db, tmp_path)
        third = save(db, tmp_path)
        # keep=2: the oldest generation is pruned
        names = sorted(d.name for d in tmp_path.glob("gen-*"))
        assert names == [second.name, third.name]

    def test_load_prefers_newest(self, tmp_path):
        db = _engine_with("t")
        save(db, tmp_path)
        with db.transaction():
            db.insert("t", {"k": 100})
        save(db, tmp_path)
        loaded = recover(tmp_path)
        assert loaded.row_count("t") == 2

    def test_manifest_records_digests_for_every_file(self, tmp_path):
        db = _engine_with("alpha", "beta")
        gen = save(db, tmp_path)
        manifest = json.loads((gen / "MANIFEST.json").read_text())
        files = set(manifest["files"])
        on_disk = {p.name for p in gen.iterdir()} - {"MANIFEST.json"}
        assert files == on_disk

    def test_tampered_table_file_fails_load(self, tmp_path):
        db = _engine_with("t")
        gen = save(db, tmp_path)
        victim = gen / table_filename("t")
        data = bytearray(victim.read_bytes())
        # the block ends with column k's one <i8 value: rewrite 0 as 7
        assert data[-8:] == (0).to_bytes(8, "little")
        data[-8:] = (7).to_bytes(8, "little")
        victim.write_bytes(bytes(data))
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            load_generation(gen)

    def test_missing_manifest_is_incomplete(self, tmp_path):
        db = _engine_with("t")
        gen = save(db, tmp_path)
        (gen / "MANIFEST.json").unlink()
        with pytest.raises(SnapshotError, match="incomplete"):
            load_generation(gen)

    def test_no_snapshot_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no recoverable snapshot"):
            recover(tmp_path / "absent")


class TestNameSanitisation:
    def test_reserved_names_do_not_collide_with_metadata_files(self, tmp_path):
        db = _engine_with("catalog", "MANIFEST")
        gen = save(db, tmp_path)
        loaded, _ = load_generation(gen)
        assert loaded.table_names() == ["MANIFEST", "catalog"]
        assert loaded.row_count("catalog") == 1
        # metadata files are untouched by the table data
        catalog = json.loads((gen / "catalog.json").read_text())
        assert set(catalog) == {"catalog", "MANIFEST"}

    def test_path_separators_cannot_escape_the_snapshot_dir(self, tmp_path):
        db = _engine_with("../evil", "a/b", "c\\d")
        gen = save(db, tmp_path / "snaps")
        # every file landed inside the generation directory
        outside = [
            p for p in tmp_path.rglob("*")
            if p.is_file() and gen not in p.parents
        ]
        assert outside == []
        loaded, _ = load_generation(gen)
        assert loaded.table_names() == sorted(["../evil", "a/b", "c\\d"])

    def test_unicode_and_spaces_round_trip(self, tmp_path):
        names = ["weird name", "ünïcode", "pct%20already"]
        db = _engine_with(*names)
        loaded, _ = load_generation(save(db, tmp_path))
        assert loaded.table_names() == sorted(names)

    def test_casefold_collision_rejected(self, tmp_path):
        db = _engine_with("visits", "VISITS")
        with pytest.raises(StorageError, match="collide"):
            save(db, tmp_path)

    def test_empty_table_name_rejected(self):
        with pytest.raises(StorageError, match="empty name"):
            table_filename("")
