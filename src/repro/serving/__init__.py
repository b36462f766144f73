"""Concurrent query serving: epochs, result caching, overload safety.

The serving layer makes the DD-DGMS safe and fast under many concurrent
readers with a live writer (the paper's "many clinical scientists over a
continuously refreshed warehouse" workload):

* **snapshot-isolated reads** — warehouse rebuilds are publish-on-commit:
  the writer builds the next flat view + lattice off to the side and
  atomically swaps an immutable epoch; queries pin the epoch they started
  on and never see a torn cube (:mod:`repro.serving.epoch`,
  :meth:`repro.olap.cube.Cube.snapshot`);
* a **versioned result cache** keyed by (epoch, canonical plan) with LRU
  and a byte budget, invalidated for free by the epoch bump
  (:mod:`repro.serving.cache`, wired via
  ``SystemConfig(cache=...)`` and surfaced in ``explain()``);
* **overload safety** — a bounded admission gate sheds excess queries
  with a typed error, per-query deadlines cancel cooperatively at kernel
  chunk boundaries, and circuit breakers degrade broken dependencies one
  rung down the documented ladder (lattice → base scan, cache →
  recompute) instead of failing queries
  (:mod:`repro.serving.admission`, :mod:`repro.serving.resilience`,
  wired via ``SystemConfig(serving=...)``).

Each query runs in the thread that issued it; concurrency comes from
many reader threads over immutable epochs, not from fanning one query
out.

``python -m repro serve-bench`` exercises the first two under load and
records the numbers in ``BENCH_serving.json``; ``python -m repro
bench-overload`` drives 4x oversubscription through injected
``serving.*`` faults and records the bounds in ``BENCH_overload.json``.
"""

from __future__ import annotations

from repro.serving.admission import (
    AdmissionGate,
    AdmissionStats,
    ServingConfig,
    ServingRuntime,
    coerce_serving,
)
from repro.serving.cache import (
    CacheConfig,
    CacheStats,
    ResultCache,
    coerce_cache,
    estimate_result_bytes,
)
from repro.serving.epoch import next_epoch_id
from repro.serving.resilience import (
    DEGRADATION_LADDER,
    BreakerConfig,
    CircuitBreaker,
    Deadline,
    active_degradations,
    breaker,
    breakers_snapshot,
    checkpoint,
    current_deadline,
    deadline_scope,
    reset_breakers,
)

__all__ = [
    "CacheConfig",
    "CacheStats",
    "ResultCache",
    "coerce_cache",
    "estimate_result_bytes",
    "next_epoch_id",
    "CubeSnapshot",
    "AdmissionGate",
    "AdmissionStats",
    "ServingConfig",
    "ServingRuntime",
    "coerce_serving",
    "Deadline",
    "deadline_scope",
    "current_deadline",
    "checkpoint",
    "BreakerConfig",
    "CircuitBreaker",
    "breaker",
    "breakers_snapshot",
    "active_degradations",
    "reset_breakers",
    "DEGRADATION_LADDER",
]


def __getattr__(name: str):
    # CubeSnapshot lives beside Cube; import lazily to keep this package a
    # leaf (cube itself imports repro.serving.epoch).
    if name == "CubeSnapshot":
        from repro.olap.cube import CubeSnapshot

        return CubeSnapshot
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
