"""Observability overhead: disabled probes must be free.

The kernels carry their instrumentation permanently (spans and counters
in ``groupby.agg``), so the no-op fast path is a standing
performance contract: with tracing disabled, the instrumented group-by
workload must run within 2% of an uninstrumented baseline (the same
kernels with the probe calls stubbed out at module level).  CI fails if
that regresses.  Results land in ``BENCH_obs.json`` together with the
raw per-call cost of a disabled :func:`repro.obs.span`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import obs
from repro.tabular import Table

ROWS = 100_000
#: acceptance threshold: disabled probes within this % of uninstrumented
THRESHOLD_PCT = 2.0


class _Uninstrumented:
    """Stand-in for the ``obs`` module with every probe stubbed out."""

    __slots__ = ()

    @staticmethod
    def span(name, **attrs):
        return obs.NULL_SPAN

    @staticmethod
    def count(name, n=1):
        pass

    @staticmethod
    def observe(name, value):
        pass

    @staticmethod
    def set_gauge(name, value):
        pass


def _workload() -> tuple:
    bands = ["0-20", "20-40", "40-60", "60-80", "80+"]
    genders = ["F", "M"]
    flat = Table.from_columns(
        {
            "age_band": [bands[i % 5] for i in range(ROWS)],
            "gender": [genders[i % 2] for i in range(ROWS)],
            "pid": [i % (ROWS // 3) for i in range(ROWS)],
            "fbg": [4.0 + (i % 70) / 10.0 for i in range(ROWS)],
        },
        schema={"age_band": "str", "gender": "str", "pid": "int", "fbg": "float"},
    )
    grouped = flat.groupby("age_band", "gender")
    aggs = {
        "n": ("pid", "size"),
        "patients": ("pid", "nunique"),
        "mean_fbg": ("fbg", "mean"),
        "hi": ("fbg", "max"),
    }
    return grouped, aggs


def _best_of(func, repeats: int = 5, inner: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            func()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def test_noop_span_cost(emit):
    """Per-call price of ``obs.span`` while disabled, in nanoseconds."""
    obs.disable()
    calls = 200_000
    span = obs.span
    start = time.perf_counter()
    for _ in range(calls):
        with span("probe", rows=1):
            pass
    per_call_ns = (time.perf_counter() - start) / calls * 1e9
    emit("obs_noop_span", f"disabled span: {per_call_ns:.0f} ns/call")
    # generous bound — the point is "no accidental allocation/IO on the
    # fast path", not a microbenchmark race
    assert per_call_ns < 5_000


def test_disabled_overhead_within_threshold(emit):
    """Instrumented group-by with obs disabled vs stubbed-out probes."""
    import repro.tabular.groupby as groupby_module

    obs.disable()
    grouped, aggs = _workload()

    def run():
        return grouped.agg(**aggs)

    run()  # warm the factorisation cache: steady state, like the cube
    disabled_s = _best_of(run)

    stub = _Uninstrumented()
    original = groupby_module.obs
    try:
        groupby_module.obs = stub
        uninstrumented_s = _best_of(run)
    finally:
        groupby_module.obs = original

    # informational: the fully traced cost of the same workload
    ring = obs.RingBufferSink(capacity=4)
    obs.configure(sinks=[ring])
    try:
        enabled_s = _best_of(run)
    finally:
        obs.disable()

    overhead_pct = (disabled_s / uninstrumented_s - 1.0) * 100.0
    payload = {
        "rows": ROWS,
        "groupby_uninstrumented_s": round(uninstrumented_s, 6),
        "groupby_disabled_s": round(disabled_s, 6),
        "groupby_traced_s": round(enabled_s, 6),
        "overhead_pct": round(overhead_pct, 3),
        "threshold_pct": THRESHOLD_PCT,
    }
    repo_root = Path(__file__).parent.parent
    (repo_root / "BENCH_obs.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    # the group-by bench record also carries the overhead comparison, so
    # one file tells the whole kernel story (time + probe cost)
    groupby_json = repo_root / "BENCH_groupby.json"
    if groupby_json.exists():
        record = json.loads(groupby_json.read_text(encoding="utf-8"))
        record["obs_overhead"] = payload
        groupby_json.write_text(
            json.dumps(record, indent=2) + "\n", encoding="utf-8"
        )
    emit(
        "obs_disabled_overhead",
        f"group-by over {ROWS} rows: {uninstrumented_s * 1e3:.2f} ms "
        f"uninstrumented vs {disabled_s * 1e3:.2f} ms with disabled probes "
        f"({overhead_pct:+.2f}%; traced: {enabled_s * 1e3:.2f} ms)",
    )
    assert overhead_pct <= THRESHOLD_PCT
