"""The ``serve-bench`` load harness (``python -m repro serve-bench``).

Measures the two serving-layer claims and records them in
``BENCH_serving.json``:

* **result cache** — repeated figure-shaped queries served from the
  versioned cache vs recomputed from the fact table (hit speedup and the
  cache hit-rate under a mixed workload);
* **concurrent serving** — reader threads issuing queries against a live
  writer (ingest batches publishing new epochs), reporting aggregate
  queries/second, epochs published, and that no reader ever errored.

All numbers are best-of/total wall times on the current host — a load
report, not a pass/fail suite (the CI gates live in ``benchmarks/``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.olap.cube import Cube
from repro.serving.cache import ResultCache
from repro.warehouse.dimension import Dimension
from repro.warehouse.fact import Measure
from repro.warehouse.loader import DimensionSpec, WarehouseLoader
from repro.tabular.table import Table

#: figure-shaped query mix used by the cache and concurrency stages
QUERY_MIX: tuple[tuple[tuple[str, ...], dict], ...] = (
    (("conditions.age_band", "personal.gender"),
     {"patients": ("cardinality.patient_id", "nunique")}),
    (("conditions.age_band10", "conditions.diabetes_status"),
     {"mean_fbg": ("fbg", "mean"), "records": ("records", "size")}),
    (("personal.gender", "personal.family_history_diabetes"),
     {"mean_bmi": ("bmi", "mean")}),
    (("conditions.age_band10", "conditions.hypertension"),
     {"records": ("records", "size")}),
)


def _best_of(func, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def synthetic_star(rows: int, seed: int = 7) -> Cube:
    """A large star schema with cheap levels and int measures.

    Dimension cardinalities stay small (≤ 32 members) so per-query output
    assembly is negligible and the cost is dominated by the
    factorise/argsort/reduceat kernels.
    """
    rng = np.random.default_rng(seed)
    source = Table.from_columns(
        {
            "site": [f"s{int(v)}" for v in rng.integers(0, 12, rows)],
            "ward": [f"w{int(v)}" for v in rng.integers(0, 8, rows)],
            "month": [int(v) for v in rng.integers(1, 13, rows)],
            "year": [int(v) for v in rng.integers(2005, 2013, rows)],
            "band": [f"b{int(v)}" for v in rng.integers(0, 6, rows)],
            "stays": [int(v) for v in rng.integers(0, 50, rows)],
            "score": [int(v) for v in rng.integers(0, 1000, rows)],
        }
    )
    loader = WarehouseLoader(
        "load", "visits",
        [
            DimensionSpec(Dimension("place", {"site": "str", "ward": "str"})),
            DimensionSpec(Dimension("when", {"month": "int", "year": "int"})),
            DimensionSpec(Dimension("cohort", {"band": "str"})),
        ],
        [Measure.of("stays", "int", "sum", additive=True),
         Measure.of("score", "int", "sum", additive=True)],
    )
    loader.load(source)
    return Cube(loader.schema)


def bench_result_cache(system, repeats: int = 5) -> dict:
    """Repeated-query latency with the versioned cache vs recomputing."""
    cache = ResultCache()
    queries = [(list(levels), dict(aggs)) for levels, aggs in QUERY_MIX]

    def run_all() -> None:
        for levels, aggs in queries:
            system.cube.aggregate(levels, aggs)

    system.attach_result_cache(None)
    uncached = _best_of(run_all, repeats)

    system.attach_result_cache(cache)
    run_all()  # populate at the current epoch
    warm = _best_of(run_all, repeats)
    system.attach_result_cache(None)
    return {
        "queries": len(queries),
        "uncached_s": round(uncached, 6),
        "cached_s": round(warm, 6),
        "speedup": round(uncached / warm, 1) if warm > 0 else None,
        "cache": cache.stats_snapshot(),
    }


def bench_concurrent_serving(
    system, make_batch, readers: int = 8, duration_s: float = 2.0
) -> dict:
    """Readers hammer the query mix while a writer ingests live batches."""
    stop = threading.Event()
    counts = [0] * readers
    errors: list[str] = []
    queries = [(list(levels), dict(aggs)) for levels, aggs in QUERY_MIX]

    def reader(slot: int) -> None:
        i = 0
        while not stop.is_set():
            levels, aggs = queries[i % len(queries)]
            try:
                system.cube.aggregate(levels, aggs)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                errors.append(f"reader[{slot}]: {exc!r}")
                return
            counts[slot] += 1
            i += 1

    epochs_before = system.epoch
    batches = 0
    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(readers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        while time.perf_counter() - start < duration_s:
            system.ingest_visits(make_batch())
            batches += 1
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    elapsed = time.perf_counter() - start
    total = sum(counts)
    return {
        "readers": readers,
        "duration_s": round(elapsed, 2),
        "queries_answered": total,
        "queries_per_s": round(total / elapsed, 1) if elapsed > 0 else None,
        "writer_batches": batches,
        "epochs_published": system.epoch - epochs_before,
        "reader_errors": errors,
    }


def run_serving_bench(
    patients: int = 200,
    seed: int = 42,
    readers: int = 8,
    duration_s: float = 2.0,
    out: "Path | str" = "BENCH_serving.json",
) -> dict:
    """Run both stages and write ``BENCH_serving.json``."""
    from repro.dgms.system import DDDGMS
    from repro.discri.generator import DiScRiGenerator, offset_identifiers

    cohort = DiScRiGenerator(n_patients=patients, seed=seed).generate()
    system = DDDGMS(cohort)

    next_seed = [seed + 1]

    def make_batch() -> Table:
        batch = DiScRiGenerator(
            n_patients=25, seed=next_seed[0]
        ).generate()
        next_seed[0] += 1
        max_pid = int(max(system.source.column("patient_id").to_list()))
        max_vid = int(max(system.source.column("visit_id").to_list()))
        return offset_identifiers(batch, max_pid, max_vid)

    payload = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": ".".join(map(str, __import__("sys").version_info[:3])),
        },
        "cohort": {"patients": patients, "rows": cohort.num_rows},
        "result_cache": bench_result_cache(system),
        "concurrent_serving": bench_concurrent_serving(
            system, make_batch, readers=readers, duration_s=duration_s
        ),
    }
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def format_summary(payload: dict) -> str:
    """Human-readable one-screen summary of a bench payload."""
    cache = payload["result_cache"]
    conc = payload["concurrent_serving"]
    lines = [
        f"host: {payload['host']['cpu_count']} cpu(s), "
        f"python {payload['host']['python']}",
        f"result cache:   {cache['uncached_s'] * 1e3:.1f} ms uncached -> "
        f"{cache['cached_s'] * 1e3:.2f} ms cached "
        f"({cache['speedup']}x, hit rate {cache['cache']['hit_rate']:.0%})",
        f"concurrency:    {conc['readers']} readers x {conc['duration_s']} s "
        f"against a live writer: {conc['queries_answered']} queries "
        f"({conc['queries_per_s']}/s), {conc['epochs_published']} epochs "
        f"published, {len(conc['reader_errors'])} errors",
    ]
    return "\n".join(lines)
