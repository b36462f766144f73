"""The ``bench-partition`` harness (``python -m repro bench-partition``).

Measures the partitioned-storage claims (DESIGN.md §"Partitioned
storage") and records them in ``BENCH_partition.json``:

* **parity** — pruned, per-partition scans must be *byte-identical*
  to filtering the flat view, for every probe predicate;
* **speedup** — at ``scale``× the base row count, band-selective
  predicates must answer at least :data:`SPEED_TARGET`× faster through
  zone-map pruning than the monolithic flat filter;
* **memory** — dictionary/RLE encodings must shrink the encoded store
  below the decoded flat view's footprint.

The CI gate reads the top-level ``ok`` (and the per-section ``ok``
flags).  Timings use the best of ``repeats`` runs after a warm-up pass,
so segment decode caches are primed on both sides of the comparison.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.discri.generator import DiScRiGenerator
from repro.storage.columnar.config import StorageConfig
from repro.storage.columnar.store import PartitionedStore
from repro.tabular import Table
from repro.tabular.expressions import col

#: band-selective pruned scans must beat the flat filter by this factor
SPEED_TARGET = 2.0


def _probe_predicates(table: Table) -> list[tuple[str, object, bool]]:
    """(label, predicate, band_selective) probes over the cohort schema."""
    dates = [d for d in table.column("visit_date").to_list() if d is not None]
    lo, hi = min(dates), max(dates)
    span = (hi - lo).days or 1
    one_band_hi = lo.fromordinal(lo.toordinal() + max(1, span // 8))
    half_hi = lo.fromordinal(lo.toordinal() + span // 2)
    return [
        ("band:one-eighth-date-range", col("visit_date") <= one_band_hi, True),
        ("band:first-half-date-range", col("visit_date") <= half_hi, True),
        (
            "band:narrow-and-gender",
            (col("visit_date") <= one_band_hi) & (col("gender") == "F"),
            True,
        ),
        ("value:hba1c", col("hba1c") > 8.0, False),
        ("value:age-or-smoker", (col("age") > 70) | (col("smoking_status") == "current"), False),
        ("value:patient-ids", col("patient_id").isin([1, 2, 3]), False),
    ]


def _tables_byte_equal(a: Table, b: Table) -> bool:
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        if ca.dtype is not cb.dtype:
            return False
        if ca.valid.tobytes() != cb.valid.tobytes():
            return False
        if ca.dtype.value == "str":
            if ca.to_list() != cb.to_list():
                return False
        elif ca.data.tobytes() != cb.data.tobytes():
            return False
    return True


def _best_ms(fn, repeats: int) -> float:
    fn()  # warm-up: primes decode caches and numpy dispatch on both sides
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _bench_parity(store: PartitionedStore, flat: Table, probes) -> dict:
    """Byte parity of pruned scans vs the flat filter."""
    results = []
    for label, predicate, _ in probes:
        expected = flat.filter(predicate)
        got, stats = store.scan_filter(predicate)
        results.append(
            {
                "probe": label,
                "rows": got.num_rows,
                "byte_equal": _tables_byte_equal(got, expected),
                "partitions_scanned": stats.segments_scanned,
                "partitions_pruned": stats.segments_pruned,
            }
        )
    return {
        "probes": results,
        "ok": all(r["byte_equal"] for r in results),
    }


def _bench_speed(store: PartitionedStore, flat: Table, probes, repeats: int) -> dict:
    """Pruned scan vs monolithic flat filter, best-of-``repeats``."""
    rows = []
    for label, predicate, band_selective in probes:
        full_ms = _best_ms(lambda p=predicate: flat.filter(p), repeats)
        pruned_ms = _best_ms(
            lambda p=predicate: store.scan_filter(p), repeats
        )
        _, stats = store.scan_filter(predicate)
        rows.append(
            {
                "probe": label,
                "band_selective": band_selective,
                "full_ms": round(full_ms, 3),
                "pruned_ms": round(pruned_ms, 3),
                "speedup": round(full_ms / pruned_ms, 2) if pruned_ms else None,
                "prune_ratio": round(
                    stats.segments_pruned / stats.segments_total, 3
                )
                if stats.segments_total
                else 0.0,
                "partitions_scanned": stats.segments_scanned,
                "partitions_pruned": stats.segments_pruned,
            }
        )
    band = [r for r in rows if r["band_selective"]]
    best_band = max((r["speedup"] or 0.0) for r in band) if band else 0.0
    return {
        "probes": rows,
        "target": SPEED_TARGET,
        "best_band_speedup": best_band,
        "ok": best_band >= SPEED_TARGET,
    }


def _bench_memory(store: PartitionedStore) -> dict:
    encoded = store.nbytes
    decoded = store.decoded_nbytes()
    return {
        "encoded_bytes": encoded,
        "decoded_bytes": decoded,
        "ratio": round(encoded / decoded, 4) if decoded else None,
        "encodings": store.stats()["encodings"],
        "ok": decoded > 0 and encoded < decoded,
    }


def run_partition_bench(
    patients: int = 1200,
    scale: int = 10,
    seed: int = 42,
    repeats: int = 7,
    out: "Path | str" = "BENCH_partition.json",
) -> dict:
    """Run parity, speedup and memory phases; write ``BENCH_partition.json``.

    Parity runs on a small cohort; the speedup and memory phases run at
    ``scale``× the base row count, the regime the acceptance gate
    targets: per-row savings from pruning must dominate the fixed
    per-partition overhead there.
    """
    small = DiScRiGenerator(
        n_patients=max(60, patients // 5), seed=seed
    ).generate()
    scaled = DiScRiGenerator(n_patients=patients * scale, seed=seed + 1).generate()
    config = StorageConfig()  # auto partitioning + auto encodings

    small_store = PartitionedStore.build(small, config)
    scaled_store = PartitionedStore.build(scaled, config)

    parity = _bench_parity(small_store, small, _probe_predicates(small))
    speed = _bench_speed(
        scaled_store, scaled, _probe_predicates(scaled), repeats=repeats
    )
    memory = _bench_memory(scaled_store)

    payload = {
        "bench": "partition",
        "config": {
            "patients": patients,
            "scale": scale,
            "seed": seed,
            "repeats": repeats,
            "spec": scaled_store.spec.to_dict() if scaled_store.spec else None,
        },
        "cpu_count": os.cpu_count(),
        "parity_rows": small.num_rows,
        "scaled_rows": scaled.num_rows,
        "segments": len(scaled_store.segments),
        "parity": parity,
        "speedup": speed,
        "memory": memory,
        "ok": parity["ok"] and speed["ok"] and memory["ok"],
    }
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def format_summary(payload: dict) -> str:
    parity, speed, memory = (
        payload["parity"], payload["speedup"], payload["memory"]
    )
    lines = ["== partitioned storage =="]
    lines.append(
        f"parity:  {sum(r['byte_equal'] for r in parity['probes'])}"
        f"/{len(parity['probes'])} probes byte-identical "
        f"-> {'ok' if parity['ok'] else 'FAILED'}"
    )
    lines.append(
        f"speedup: best band-selective {speed['best_band_speedup']}x "
        f"(target {speed['target']}x, {payload['scaled_rows']} rows, "
        f"{payload['segments']} segments) "
        f"-> {'ok' if speed['ok'] else 'FAILED'}"
    )
    ratio = memory["ratio"]
    lines.append(
        f"memory:  encoded/decoded = {ratio} "
        f"({memory['encoded_bytes']}/{memory['decoded_bytes']} bytes) "
        f"-> {'ok' if memory['ok'] else 'FAILED'}"
    )
    return "\n".join(lines)
