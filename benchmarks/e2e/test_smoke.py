"""Smoke test of the end-to-end benchmark at ``--scale tiny``.

Not part of tier-1: run with ``PYTHONPATH=src python -m pytest
benchmarks/e2e -q``.  It checks the harness, not the program's speed —
that the contract's names and units come out, that the traced run writes
a well-formed span tree, and that a seed fixes every count.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_tiny(workload: str, seed: int = 5, trace: int = 0) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "bench.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
            "--scale", "tiny", "--json",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_results() -> dict[str, dict]:
    started = time.perf_counter()
    results = {name: run_tiny(name) for name in WORKLOADS}
    results["_seconds"] = time.perf_counter() - started
    return results


def test_all_workloads_finish_quickly_and_correctly(tiny_results):
    assert tiny_results["_seconds"] < 30
    for name in WORKLOADS:
        result = tiny_results[name]
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1


def test_emits_exactly_the_contracted_end_to_end_metrics(tiny_results):
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    for name in WORKLOADS:
        got = {
            metric: body["unit"]
            for metric, body in tiny_results[name]["metrics"].items()
        }
        assert got == wanted
        assert all(body["value"] > 0 for body in tiny_results[name]["metrics"].values())


def test_workload_definitions_match_the_contract():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.workloads import WORKLOADS as defined

    assert list(defined) == WORKLOADS
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"][-1] == "benchmarks/e2e/bench.py"


def test_traced_run_writes_a_span_tree_with_coverage():
    result = run_tiny("ingest_serve", trace=1)
    wanted = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    got = {metric: body["unit"] for metric, body in result["metrics"].items()}
    assert got == wanted
    payload = json.loads((ROOT / result["trace_file"]).read_text())
    spans = payload["spans"]
    ids = {span[0] for span in spans}
    roots = [span for span in spans if span[4] == -1]
    # one root per traced round; every other span hangs off a recorded span
    assert [span[1] for span in roots] == ["harness.round"]
    assert all(span[4] in ids for span in spans if span[4] != -1)
    assert all(span[3] >= span[2] for span in spans)
    layers = {span[1].split(".")[0] for span in spans}
    assert {"storage", "etl", "warehouse", "olap", "serving", "tabular"} <= layers
    for phases in payload["phases"]:
        assert set(phases) == {
            "build", "cold", "warm", "ingest", "guidance", "recover"
        }
        for detail in phases.values():
            assert 0.0 < detail["coverage"] <= 1.0
    for name in ("dgms.coverage_build", "dgms.coverage_query",
                 "dgms.coverage_ingest", "obs.trace_overhead_ratio"):
        assert result["metrics"][name]["value"] > 0


def test_a_seed_fixes_every_count_and_only_the_inputs_vary(tiny_results):
    first = tiny_results["serve_skewed"]
    again = run_tiny("serve_skewed")
    assert again["inputs"] == first["inputs"]
    assert again["counts"] == first["counts"]
    assert again["modes"] == first["modes"]
    other = run_tiny("serve_skewed", seed=6)
    assert other["inputs"] != first["inputs"]
    assert other["failed"] == 0
    assert set(other["metrics"]) == set(first["metrics"])
    assert set(other["counts"]) == set(first["counts"])
