"""The ``bench-overload`` harness (``python -m repro bench-overload``).

Measures the overload-safety claims (DESIGN.md §"Overload & degradation")
and records them in ``BENCH_overload.json``.  Three phases against one
DD-DGMS with a lattice, a result cache and admission control attached:

* **shed** — saturate the admission gate (slot holders + queue fillers),
  then probe with real queries: every probe must be shed with a typed
  :class:`~repro.errors.ServingOverloadError` in under 10 ms — overload
  must never make rejection slow;
* **chaos** — ``oversubscription``× more reader threads than admission
  slots loop the figure-shaped query mix while ``serving.cache`` errors
  and ``serving.scan`` slow-downs are injected.
  Every admitted query must either complete *correctly* (checked against
  recompute-oracle fingerprints taken before the chaos; the epoch never
  moves, so any mismatch is a wrong or stale answer) or fail with a
  typed error; the p99 latency of completed queries must stay within
  1.5× the deadline;
* **deadline** — a stalled result cache (2 s injected stall) against a
  short per-query budget: each probe must raise
  :class:`~repro.errors.QueryTimeoutError` within budget + grace, proving
  cooperative cancellation bounds tail latency even inside a stall.

The CI gate reads ``ok`` per phase and the top-level ``ok``.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from pathlib import Path

from repro.discri.generator import DiScRiGenerator
from repro.dgms.system import DDDGMS
from repro.errors import QueryTimeoutError, ServingOverloadError
from repro.serving.admission import ServingConfig, ServingRuntime
from repro.serving.resilience import reset_breakers
from repro.storage import faults
from repro.storage.faults import FaultPlan, FaultRule

#: admitted-query p99 must stay within this multiple of the deadline
P99_DEADLINE_FACTOR = 1.5
#: a shed must be diagnosed and rejected faster than this
SHED_BOUND_MS = 10.0
#: slack on top of the budget for the deadline phase (scheduler jitter)
DEADLINE_GRACE_S = 0.5


def _queries(system: DDDGMS) -> list:
    """The figure-shaped mix as zero-argument thunks returning crosstabs."""
    return [
        lambda: system.query().rows("age_band").columns("gender")
        .count_records("attendances")
        .where("personal.family_history_diabetes", "yes").execute(),
        lambda: system.query().rows("age_band10").columns("gender")
        .count_distinct("cardinality.patient_id", name="patients")
        .where("conditions.diabetes_status", "yes").execute(),
        lambda: system.query().rows("age_band10").columns("ht_years_band")
        .count_records("cases")
        .where("conditions.hypertension", "yes").execute(),
        lambda: system.query().rows("age_band").columns("gender")
        .count_records("attendances").execute(),
        lambda: system.query().rows("ht_years_band").columns("gender")
        .count_records("cases")
        .where("conditions.hypertension", "yes").execute(),
        lambda: system.query().rows("age_band10").columns("gender")
        .count_records("attendances").execute(),
    ]


def _fingerprint(grid) -> tuple:
    """Order-insensitive identity of a crosstab (the recompute oracle)."""
    return (
        tuple(sorted(grid.row_keys)),
        tuple(sorted(grid.col_keys)),
        tuple(sorted(grid.cells.items())),
    )


def _pct(samples: list[float], q: float) -> float | None:
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _bench_shed(runtime: ServingRuntime, system: DDDGMS, probes: int) -> dict:
    """Saturate the gate, then time queue-full rejections."""
    config = runtime.config
    release = threading.Event()
    threads: list[threading.Thread] = []

    def occupy() -> None:
        try:
            with runtime.gate.admitted(None):
                release.wait(timeout=30.0)
        except ServingOverloadError:  # pragma: no cover - timing fallback
            pass

    def spawn(count: int, ready) -> None:
        for _ in range(count):
            t = threading.Thread(target=occupy, daemon=True)
            t.start()
            threads.append(t)
        deadline = time.monotonic() + 10.0
        while not ready(runtime.gate.snapshot()):
            if time.monotonic() > deadline:  # pragma: no cover - stuck gate
                raise RuntimeError("admission gate failed to saturate")
            time.sleep(0.001)

    shed_ms: list[float] = []
    admitted_probes = 0
    try:
        spawn(config.max_in_flight,
              lambda s: s["in_flight"] >= config.max_in_flight)
        spawn(config.max_queue, lambda s: s["waiting"] >= config.max_queue)
        query = _queries(system)[0]
        for _ in range(probes):
            start = time.perf_counter()
            try:
                query()
                admitted_probes += 1
            except ServingOverloadError:
                shed_ms.append((time.perf_counter() - start) * 1e3)
    finally:
        release.set()
        for t in threads:
            t.join(timeout=30.0)

    max_ms = max(shed_ms) if shed_ms else None
    return {
        "probes": probes,
        "shed": len(shed_ms),
        "admitted_probes": admitted_probes,
        "shed_p50_ms": round(statistics.median(shed_ms), 3) if shed_ms else None,
        "shed_max_ms": round(max_ms, 3) if max_ms is not None else None,
        "bound_ms": SHED_BOUND_MS,
        "ok": (
            admitted_probes == 0
            and len(shed_ms) == probes
            and max_ms is not None
            and max_ms < SHED_BOUND_MS
        ),
    }


def _bench_chaos(
    runtime: ServingRuntime,
    system: DDDGMS,
    oracle: list[tuple],
    readers: int,
    duration_s: float,
) -> dict:
    """Oversubscribed readers under injected serving faults."""
    queries = _queries(system)
    plan = FaultPlan([
        FaultRule(point="serving.cache", mode="error", nth=0),
        FaultRule(point="serving.scan", mode="slow", nth=0, delay_s=0.002),
    ])
    lock = threading.Lock()
    latencies_ms: list[float] = []
    counts = {"completed": 0, "wrong": 0, "shed": 0,
              "timeouts": 0, "unexpected": 0}
    stop_at = time.monotonic() + duration_s

    def reader(worker: int) -> None:
        i = worker
        while time.monotonic() < stop_at:
            index = i % len(queries)
            i += 1
            start = time.perf_counter()
            try:
                grid = queries[index]()
            except ServingOverloadError:
                with lock:
                    counts["shed"] += 1
                continue
            except QueryTimeoutError:
                with lock:
                    counts["timeouts"] += 1
                continue
            except Exception:  # pragma: no cover - the bench's failure mode
                with lock:
                    counts["unexpected"] += 1
                continue
            elapsed_ms = (time.perf_counter() - start) * 1e3
            correct = _fingerprint(grid) == oracle[index]
            with lock:
                latencies_ms.append(elapsed_ms)
                counts["completed"] += 1
                if not correct:
                    counts["wrong"] += 1

    with faults.injected(plan):
        threads = [
            threading.Thread(target=reader, args=(w,), daemon=True)
            for w in range(readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=duration_s + 30.0)

    deadline_s = runtime.config.default_deadline_s or 1.0
    p99_bound_ms = deadline_s * P99_DEADLINE_FACTOR * 1e3
    p99 = _pct(latencies_ms, 0.99)
    return {
        "readers": readers,
        "duration_s": duration_s,
        **counts,
        "p50_ms": round(_pct(latencies_ms, 0.5), 3) if latencies_ms else None,
        "p99_ms": round(p99, 3) if p99 is not None else None,
        "p99_bound_ms": p99_bound_ms,
        "breakers": {
            name: brk.snapshot() for name, brk in runtime.breakers.items()
        },
        "ok": (
            counts["completed"] > 0
            and counts["wrong"] == 0
            and counts["unexpected"] == 0
            and p99 is not None
            and p99 <= p99_bound_ms
        ),
    }


def _bench_deadline(system: DDDGMS, probes: int, budget_s: float) -> dict:
    """A stalled cache against a short budget: timeouts must be bounded."""
    plan = FaultPlan([FaultRule(point="serving.cache", mode="stall", nth=0)])
    elapsed_ms: list[float] = []
    timeouts = 0
    with faults.injected(plan):
        for _ in range(probes):
            start = time.perf_counter()
            try:
                (system.query().rows("age_band").columns("gender")
                 .count_records("attendances").within(budget_s).execute())
            except QueryTimeoutError:
                timeouts += 1
            elapsed_ms.append((time.perf_counter() - start) * 1e3)

    bound_ms = (budget_s + DEADLINE_GRACE_S) * 1e3
    max_ms = max(elapsed_ms) if elapsed_ms else None
    return {
        "probes": probes,
        "budget_ms": budget_s * 1e3,
        "timeouts": timeouts,
        "max_elapsed_ms": round(max_ms, 3) if max_ms is not None else None,
        "bound_ms": bound_ms,
        "ok": (
            timeouts == probes
            and max_ms is not None
            and max_ms <= bound_ms
        ),
    }


def run_overload_bench(
    patients: int = 150,
    seed: int = 42,
    oversubscription: int = 4,
    duration_s: float = 2.0,
    shed_probes: int = 50,
    out: "Path | str" = "BENCH_overload.json",
) -> dict:
    """Run all three phases and write ``BENCH_overload.json``."""
    config = ServingConfig(
        max_in_flight=4,
        max_queue=8,
        queue_timeout_s=0.5,
        default_deadline_s=1.0,
    )
    reset_breakers()
    cohort = DiScRiGenerator(n_patients=patients, seed=seed).generate()
    system = DDDGMS(cohort)
    system.attach_result_cache(True)
    system.materialize_lattice()

    # the recompute oracle: fingerprints at the (fixed) serving epoch,
    # taken before any fault is armed or any limit attached
    oracle = [_fingerprint(query()) for query in _queries(system)]

    # the shed phase gets a long queue timeout so the queue fillers
    # outlast every probe — the queue stays provably full throughout
    shed_runtime = system.attach_serving(ServingConfig(
        max_in_flight=config.max_in_flight,
        max_queue=config.max_queue,
        queue_timeout_s=30.0,
        default_deadline_s=config.default_deadline_s,
    ))
    shed = _bench_shed(shed_runtime, system, probes=shed_probes)
    runtime = system.attach_serving(config)
    reset_breakers()
    chaos = _bench_chaos(
        runtime, system, oracle,
        readers=oversubscription * config.max_in_flight,
        duration_s=duration_s,
    )
    reset_breakers()
    deadline = _bench_deadline(system, probes=3, budget_s=0.3)
    reset_breakers()

    payload = {
        "bench": "overload",
        "config": {
            "patients": patients,
            "seed": seed,
            "oversubscription": oversubscription,
            "duration_s": duration_s,
            "max_in_flight": config.max_in_flight,
            "max_queue": config.max_queue,
            "queue_timeout_s": config.queue_timeout_s,
            "default_deadline_s": config.default_deadline_s,
        },
        "cpu_count": os.cpu_count(),
        "shed": shed,
        "chaos": chaos,
        "deadline": deadline,
        "admission": runtime.gate.snapshot(),
        "ok": shed["ok"] and chaos["ok"] and deadline["ok"],
    }
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def format_summary(payload: dict) -> str:
    shed, chaos, deadline = (
        payload["shed"], payload["chaos"], payload["deadline"]
    )
    lines = ["== overload safety =="]
    lines.append(
        f"shed:     {shed['shed']}/{shed['probes']} rejected, "
        f"max {shed['shed_max_ms']} ms (bound {shed['bound_ms']} ms) "
        f"-> {'ok' if shed['ok'] else 'FAILED'}"
    )
    lines.append(
        f"chaos:    {chaos['completed']} completed / {chaos['wrong']} wrong / "
        f"{chaos['shed']} shed / {chaos['timeouts']} timed out; "
        f"p99 {chaos['p99_ms']} ms (bound {chaos['p99_bound_ms']:.0f} ms) "
        f"-> {'ok' if chaos['ok'] else 'FAILED'}"
    )
    lines.append(
        f"deadline: {deadline['timeouts']}/{deadline['probes']} timed out, "
        f"max {deadline['max_elapsed_ms']} ms "
        f"(bound {deadline['bound_ms']:.0f} ms) "
        f"-> {'ok' if deadline['ok'] else 'FAILED'}"
    )
    lines.append(f"overall: {'ok' if payload['ok'] else 'FAILED'}")
    return "\n".join(lines)
