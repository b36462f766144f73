"""Module-level switch: configure_mode, REPRO_OBS parsing, slow-query log."""

from __future__ import annotations

import json
import time

import pytest

from repro import obs
from repro.obs import ConsoleSink, JsonLinesSink, RingBufferSink


def _assert_writes_to(path):
    """The configured JSON-lines sink targets ``path`` exactly, case included."""
    sinks = [s for s in obs.tracer().sinks if isinstance(s, JsonLinesSink)]
    assert [s.path for s in sinks] == [path]
    with obs.span("op"):
        pass
    sinks[0].close()
    assert path.read_text(encoding="utf-8").count("\n") == 1


class TestConfigureMode:
    @pytest.mark.parametrize("mode", ["", "0", "off"])
    def test_off_modes_disable(self, mode):
        obs.configure(sinks=[RingBufferSink()])
        assert obs.configure_mode(mode) is False
        assert obs.enabled() is False

    @pytest.mark.parametrize("mode", ["1", "ring"])
    def test_ring_modes(self, mode):
        assert obs.configure_mode(mode) is True
        assert obs.enabled() is True
        assert any(isinstance(s, RingBufferSink) for s in obs.tracer().sinks)

    def test_console_mode(self):
        assert obs.configure_mode("console") is True
        assert any(isinstance(s, ConsoleSink) for s in obs.tracer().sinks)

    def test_jsonl_mode_writes_span_trees(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        assert obs.configure_mode(f"jsonl:{out}") is True
        with obs.span("op_a", rows=3):
            with obs.span("op_b"):
                pass
        for sink in obs.tracer().sinks:
            if isinstance(sink, JsonLinesSink):
                sink.close()
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1
        tree = json.loads(lines[0])
        assert tree["name"] == "op_a"
        assert tree["attrs"]["rows"] == 3
        assert [c["name"] for c in tree["children"]] == ["op_b"]

    def test_jsonl_path_keeps_its_case(self, tmp_path):
        out = tmp_path / "MixedCase" / "Trace.jsonl"
        assert obs.configure_mode(f"JSONL:{out}") is True
        _assert_writes_to(out)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="REPRO_OBS"):
            obs.configure_mode("carrier-pigeon")

    def test_threshold_passes_through(self):
        obs.configure_mode("ring", slow_query_threshold_s=1.5)
        assert obs.slow_log().threshold_s == 1.5


class TestConfigureFromEnv:
    def test_env_unset_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        obs.configure(sinks=[RingBufferSink()])
        assert obs.configure_from_env() is False
        assert obs.enabled() is False

    def test_env_ring(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "ring")
        assert obs.configure_from_env() is True
        assert obs.enabled() is True

    def test_env_jsonl_path_keeps_its_case(self, monkeypatch, tmp_path):
        out = tmp_path / "MixedCase" / "Trace.jsonl"
        monkeypatch.setenv("REPRO_OBS", f"jsonl:{out}")
        assert obs.configure_from_env() is True
        _assert_writes_to(out)

    def test_env_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "ring")
        monkeypatch.setenv("REPRO_OBS_SLOW_S", "0.75")
        obs.configure_from_env()
        assert obs.slow_log().threshold_s == 0.75


class TestSlowQueryLog:
    def test_slow_root_query_span_is_captured(self):
        obs.configure(sinks=[RingBufferSink()], slow_query_threshold_s=0.0)
        with obs.span("query", query="SELECT slow"):
            time.sleep(0.001)
        entries = obs.slow_log().entries
        assert len(entries) == 1
        assert entries[0].query == "SELECT slow"
        assert entries[0].duration_s > 0.0

    def test_spans_without_query_attr_are_ignored(self):
        obs.configure(sinks=[RingBufferSink()], slow_query_threshold_s=0.0)
        with obs.span("checkpoint"):
            pass
        assert len(obs.slow_log()) == 0

    def test_fast_queries_below_threshold_are_ignored(self):
        obs.configure(sinks=[RingBufferSink()], slow_query_threshold_s=30.0)
        with obs.span("query", query="SELECT fast"):
            pass
        assert len(obs.slow_log()) == 0

    def test_render_includes_query_text(self):
        obs.configure(sinks=[RingBufferSink()], slow_query_threshold_s=0.0)
        with obs.span("query", query="ROWS conditions.age_band"):
            pass
        assert "ROWS conditions.age_band" in obs.slow_log().render()
