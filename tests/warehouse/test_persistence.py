"""Tests for warehouse save/load."""

import pytest

from repro.errors import WarehouseError
from repro.olap.cube import Cube
from repro.persistence import load, save
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry
from tests._persistence import raises_from


class TestRoundTrip:
    def test_cube_answers_identical(self, fresh_built, tmp_path):
        warehouse = fresh_built.warehouse
        save(warehouse, tmp_path / "wh")
        reloaded = load(tmp_path / "wh")

        original = Cube(warehouse).aggregate(
            ["conditions.age_band", "personal.gender"],
            {"n": ("records", "size"), "m": ("fbg", "mean")},
        )
        restored = Cube(reloaded).aggregate(
            ["conditions.age_band", "personal.gender"],
            {"n": ("records", "size"), "m": ("fbg", "mean")},
        )
        assert original.to_rows() == restored.to_rows()

    def test_hierarchies_survive(self, fresh_built, tmp_path):
        save(fresh_built.warehouse, tmp_path / "wh")
        reloaded = load(tmp_path / "wh")
        hierarchy = reloaded.schema.dimension("conditions").hierarchies["age_drill"]
        assert hierarchy.levels == ["age_band", "age_band10", "age_band5"]

    def test_measures_survive(self, fresh_built, tmp_path):
        save(fresh_built.warehouse, tmp_path / "wh")
        reloaded = load(tmp_path / "wh")
        measure = reloaded.schema.fact.measure("fbg")
        assert measure.default_aggregation == "mean"
        assert not measure.additive

    def test_dynamic_history_survives(self, fresh_built, tmp_path):
        warehouse = fresh_built.warehouse
        builder = FeedbackDimensionBuilder("risk").add(
            FeedbackEntry("any", lambda row: True)
        )
        warehouse.fold_feedback(builder)
        save(warehouse, tmp_path / "wh")
        reloaded = load(tmp_path / "wh")
        assert reloaded.version == warehouse.version
        assert "fold_feedback" in reloaded.describe_history()
        assert "risk" in reloaded.dimension_names
        # the folded keys persist as data
        flat = reloaded.flatten()
        assert flat.column("risk.assessment").to_list()[0] == "any"

    def test_integrity_checked_on_load(self, fresh_built, tmp_path):
        import json

        save(fresh_built.warehouse, tmp_path / "wh")
        facts_file = tmp_path / "wh" / "facts.json"
        rows = json.loads(facts_file.read_text(encoding="utf-8"))
        rows[0]["personal_key"] = 99999
        facts_file.write_text(json.dumps(rows), encoding="utf-8")
        with raises_from(WarehouseError, "integrity"):
            load(tmp_path / "wh")

    def test_missing_snapshot(self, tmp_path):
        with raises_from(WarehouseError, "no warehouse"):
            load(tmp_path / "ghost", kind="warehouse")

    def test_bad_format_version(self, tmp_path):
        import json

        (tmp_path / "schema.json").write_text(
            json.dumps({"format_version": 42}), encoding="utf-8"
        )
        with raises_from(WarehouseError, "format"):
            load(tmp_path)


class TestDurability:
    """Checksums, crashed saves, and refused unverifiable manifests."""

    def test_tampered_dimension_file_names_the_file(self, fresh_built, tmp_path):
        import json

        save(fresh_built.warehouse, tmp_path / "wh")
        victim = next((tmp_path / "wh").glob("dim_*.json"))
        members = json.loads(victim.read_text(encoding="utf-8"))
        next(iter(members.values()))["gender"] = "tampered"
        victim.write_text(json.dumps(members), encoding="utf-8")
        with raises_from(WarehouseError, "checksum mismatch") as exc:
            load(tmp_path / "wh")
        assert victim.name in str(exc.value)

    def test_crash_before_any_write_leaves_old_warehouse_loadable(
        self, fresh_built, tmp_path
    ):
        from repro.storage.faults import FaultRule, SimulatedCrash, injected

        warehouse = fresh_built.warehouse
        save(warehouse, tmp_path / "wh")
        builder = FeedbackDimensionBuilder("risk").add(
            FeedbackEntry("any", lambda row: True)
        )
        warehouse.fold_feedback(builder)
        with pytest.raises(SimulatedCrash):
            with injected([FaultRule("warehouse.data", mode="kill")]):
                save(warehouse, tmp_path / "wh")
        # nothing was replaced: the previous save loads, without "risk"
        reloaded = load(tmp_path / "wh")
        assert "risk" not in reloaded.dimension_names

    def test_crash_before_manifest_is_detected_on_load(
        self, fresh_built, tmp_path
    ):
        """Data files replaced, old manifest left behind → loud mismatch."""
        from repro.storage.faults import FaultRule, SimulatedCrash, injected

        warehouse = fresh_built.warehouse
        save(warehouse, tmp_path / "wh")
        builder = FeedbackDimensionBuilder("risk").add(
            FeedbackEntry("any", lambda row: True)
        )
        warehouse.fold_feedback(builder)  # changes facts.json content
        with pytest.raises(SimulatedCrash):
            with injected([FaultRule("warehouse.manifest", mode="kill")]):
                save(warehouse, tmp_path / "wh")
        with raises_from(WarehouseError, "integrity"):
            load(tmp_path / "wh")

    def _rewrite_manifest(self, directory, edit):
        import json

        manifest_file = directory / "schema.json"
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        edit(manifest)
        manifest_file.write_text(json.dumps(manifest), encoding="utf-8")

    def test_manifest_without_digests_is_rejected(self, fresh_built, tmp_path):
        save(fresh_built.warehouse, tmp_path / "wh")
        self._rewrite_manifest(
            tmp_path / "wh", lambda manifest: manifest.pop("digests")
        )
        with raises_from(WarehouseError, "no digests recorded"):
            load(tmp_path / "wh")

    def test_format_1_is_rejected_as_unsupported(self, fresh_built, tmp_path):
        save(fresh_built.warehouse, tmp_path / "wh")

        def downgrade(manifest):
            manifest["format_version"] = 1
            del manifest["digests"]

        self._rewrite_manifest(tmp_path / "wh", downgrade)
        with raises_from(WarehouseError, "unsupported warehouse format 1"):
            load(tmp_path / "wh")
