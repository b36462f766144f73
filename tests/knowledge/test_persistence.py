"""Tests for knowledge-base save/load."""

import datetime as dt
import json

import pytest

from repro.errors import KnowledgeBaseError
from repro.knowledge.findings import Evidence, FindingKind
from repro.knowledge.kb import KnowledgeBase
from repro.persistence import load, save
from tests._persistence import raises_from


@pytest.fixture()
def kb():
    base = KnowledgeBase(promotion_threshold=2.5)
    base.record(
        "a", FindingKind.AGGREGATE, "claim A",
        Evidence("fig5", "drill-down", 2.0, recorded=dt.date(2013, 4, 8)),
        tags=["age", "gender"],
    )
    base.record("a", FindingKind.AGGREGATE, "claim A", Evidence("review", "ok", 1.0))
    base.record("b", FindingKind.TREND, "claim B", Evidence("s", "d", 0.5))
    base.promote("a")
    base.retire("b", "contradicted")
    return base


def test_round_trip_preserves_everything(kb, tmp_path):
    path = tmp_path / "kb.json"
    save(kb, path)
    loaded = load(path)
    assert loaded.promotion_threshold == kb.promotion_threshold
    assert len(loaded) == len(kb)
    a = loaded.get("a")
    assert a.status == "promoted"
    assert a.total_weight() == pytest.approx(3.0)
    assert a.tags == frozenset({"age", "gender"})
    assert a.evidence[0].recorded == dt.date(2013, 4, 8)
    assert loaded.get("b").status == "retired"


def test_loaded_base_keeps_working(kb, tmp_path):
    path = tmp_path / "kb.json"
    save(kb, path)
    loaded = load(path)
    loaded.record("c", FindingKind.FEEDBACK, "new claim", Evidence("s", "d", 3.0))
    assert loaded.promote("c").status == "promoted"


def test_missing_file(tmp_path):
    with raises_from(KnowledgeBaseError, "no knowledge base"):
        load(tmp_path / "absent.json", kind="knowledge")


def test_unsupported_version(tmp_path):
    path = tmp_path / "kb.json"
    path.write_text(json.dumps({"format_version": 99}), encoding="utf-8")
    with raises_from(KnowledgeBaseError, "format"):
        load(path)


def test_file_is_human_readable(kb, tmp_path):
    path = tmp_path / "kb.json"
    save(kb, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["findings"][0]["statement"] == "claim A"


def test_crash_during_save_leaves_previous_file_intact(kb, tmp_path):
    from repro.knowledge.findings import Evidence, FindingKind
    from repro.storage.faults import FaultRule, SimulatedCrash, injected

    path = tmp_path / "kb.json"
    save(kb, path)
    kb.record("c", FindingKind.FEEDBACK, "late claim", Evidence("s", "d", 1.0))
    with pytest.raises(SimulatedCrash):
        with injected([FaultRule("kb.write", mode="kill")]):
            save(kb, path)
    loaded = load(path)  # the write never replaced the file
    assert loaded.get("a").status == "promoted"
    assert "c" not in loaded


def test_tampered_findings_fail_the_checksum(kb, tmp_path):
    path = tmp_path / "kb.json"
    save(kb, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["findings"][0]["statement"] = "silently altered claim"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with raises_from(KnowledgeBaseError, "checksum"):
        load(path)


def test_garbage_bytes_are_reported_as_corruption(tmp_path):
    path = tmp_path / "kb.json"
    path.write_bytes(b"\x00\xffnot json at all")
    with raises_from(KnowledgeBaseError, "corrupt"):
        load(path)


def test_file_without_a_checksum_is_rejected(kb, tmp_path):
    path = tmp_path / "kb.json"
    save(kb, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["findings"][0]["statement"] = "silently altered claim"
    del payload["checksum"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with raises_from(KnowledgeBaseError, "no checksum"):
        load(path)


def test_format_1_is_rejected_as_unsupported(kb, tmp_path):
    path = tmp_path / "kb.json"
    save(kb, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = 1
    del payload["checksum"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with raises_from(KnowledgeBaseError, "unsupported knowledge-base format 1"):
        load(path)
