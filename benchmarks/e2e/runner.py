"""Run one workload in this process and report it.

The contract entry (``bench.py``) and the human CLI both end up here.
A run is: set the inputs up several times (``setup_s`` is their median),
then drive ``ROUNDS`` complete closed loops over the same inputs.  Phase
timings are medians over the rounds, warm-pass metrics come from the best
pass; ``--seconds`` is the time the warm passes of a run may fill (every
round replays the stream at least once regardless).

The traced run keeps the first round untraced — the ratio of the traced
rounds' busy time to that round's is ``obs.trace_overhead_ratio`` — and
computes the per-layer metrics from the spans of the others.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e import metrics
from benchmarks.e2e.inputs import make_inputs
from benchmarks.e2e.loop import ClosedLoop, Round
from benchmarks.e2e.tracing import Tracer, install
from benchmarks.e2e.workloads import WORKLOADS, scaled

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SRC_DIR = HERE.parents[1] / "src"

ROUNDS = 3
SETUPS = 3

#: what a fresh interpreter pays before it can generate anything
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.dgms.system, repro.discri.generator; "
    "print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
    )
    return float(done.stdout.strip())


def _setup(workload, seed: int):
    """One set-up: import ``repro`` afresh, then generate every input."""
    gc.collect()
    imported = _import_seconds()
    started = time.perf_counter()
    inputs = make_inputs(workload, seed)
    return inputs, imported + (time.perf_counter() - started)


def _busy_seconds(rnd: Round) -> float:
    """A round's measured work, independent of how many passes it ran."""
    return (
        rnd.build_s + sum(rnd.cold) + min(sum(p.latencies) for p in rnd.passes)
        + sum(rnd.ingest_s) + rnd.guidance_s + rnd.recover_s
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Everything one run measured, as a JSON-ready dict."""
    workload = scaled(WORKLOADS[name], scale)
    rounds_wanted = ROUNDS if scale == "full" else (2 if trace else 1)
    OUT_DIR.mkdir(exist_ok=True)

    setups = []
    for _ in range(SETUPS if scale == "full" else 1):
        inputs, took = _setup(workload, seed)
        setups.append(took)

    tracer = Tracer() if trace else None
    rounds: list[Round] = []
    round_roots: list[int] = []
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        for index in range(rounds_wanted):
            traced = tracer is not None and index > 0
            inst = install(tracer) if traced else None
            root = tracer.begin("harness.round", round=index) if traced else -1
            try:
                loop = ClosedLoop(
                    workload, inputs, scratch / f"round-{index}",
                    tracer if traced else None,
                )
                rounds.append(loop.run(seconds / rounds_wanted))
            finally:
                if traced:
                    tracer.end(root)
                    round_roots.append(root)
                    inst.remove()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [f for r in rounds for f in r.failures]
    guards = metrics.guard_run(workload, rounds)
    if scale == "full":
        failures += guards
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "inputs": inputs.fingerprint(),
        "attempted": sum(r.attempted for r in rounds) + len(guards),
        "failed": len(failures),
        "failures": failures[:20],
        "guards": guards,
        "counts": metrics.exact_counts(rounds[0]),
        "modes": dict(metrics.mode_shares(workload, rounds[0].passes[0].modes)),
        "passes": [len(r.passes) for r in rounds],
        "phase_seconds": [
            {phase: round(took, 4) for phase, took in r.phase_s.items()}
            for r in rounds
        ],
    }
    if trace:
        overhead = statistics.median(
            _busy_seconds(r) for r in rounds[1:]
        ) / _busy_seconds(rounds[0])
        values, breakdowns = metrics.per_layer(
            tracer, round_roots, rounds[1:], inputs.cohort.num_rows, overhead,
        )
        result["metrics"] = _with_units(values, metrics.PER_LAYER)
        result["phases"] = breakdowns
        trace_path = OUT_DIR / f"{name}.trace.json"
        trace_path.write_text(json.dumps(
            {"workload": name, "seed": seed, "phases": breakdowns,
             **tracer.to_payload()},
            separators=(",", ":"),
        ))
        result["trace_file"] = str(trace_path.relative_to(HERE.parents[1]))
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values, samples = metrics.end_to_end(setups, rounds, peak)
        result["metrics"] = _with_units(values, metrics.END_TO_END)
        result["samples"] = samples
    return result


def _with_units(values: dict[str, float], spec: dict) -> dict:
    missing = set(spec) - set(values)
    if missing:  # pragma: no cover - a harness bug, not a measurement
        raise KeyError(f"metrics not computed: {sorted(missing)}")
    return {
        name: {"value": values[name], "unit": spec[name][0]} for name in spec
    }


def contract_line(result: dict) -> str:
    """The one-line JSON object the benchmark contract asks for."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })
