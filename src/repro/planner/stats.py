"""Recorded route statistics: what the cost model learns from.

One ledger under one lock: observed ``(milliseconds, work units)``
samples per route kind (``"node"`` in cells, ``"base"`` in rows).  The
cost model's ms/unit rates come from here.

Recording is deliberately cheap (one running sum under one mutex)
because it runs on every computed answer of a planner-attached cube.
"""

from __future__ import annotations

import threading


def estimate_base_rows(state, filters) -> int:
    """Pre-scan row estimate for answering from the base table.

    Store-backed epochs ask the zone maps (pruned segments cost
    nothing, equality predicates scale by distinct counts); monolithic
    epochs can only offer the full flat-view row count.  Never scans.
    """
    store = getattr(state, "store", None)
    if store is not None and filters is not None:
        return store.estimate_rows(filters)
    return int(state.num_rows)


class _Calibration:
    """Running ms-per-unit samples for one route kind."""

    __slots__ = ("samples", "total_ms", "total_units", "min_ms")

    def __init__(self) -> None:
        self.samples = 0
        self.total_ms = 0.0
        self.total_units = 0
        self.min_ms = float("inf")

    def add(self, ms: float, units: int) -> None:
        self.samples += 1
        self.total_ms += ms
        self.total_units += max(int(units), 1)
        if ms < self.min_ms:
            self.min_ms = ms

    @property
    def rate(self) -> float:
        """Mean milliseconds per work unit over every sample."""
        return self.total_ms / self.total_units if self.total_units else 0.0

    @property
    def floor(self) -> float:
        """Cheapest observed call — the fixed-overhead estimate."""
        return self.min_ms if self.samples else 0.0

    def snapshot(self) -> dict:
        return {
            "samples": self.samples,
            "total_ms": round(self.total_ms, 3),
            "total_units": self.total_units,
            "ms_per_unit": round(self.rate, 9),
            "floor_ms": round(self.floor, 4) if self.samples else None,
        }


class WorkloadStats:
    """Thread-safe per-route calibration ledger (see module docstring)."""

    #: route kinds with calibrations: lattice-node answers are costed
    #: per cell, base scans per (estimated) row
    KINDS = ("node", "base")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calibrations = {kind: _Calibration() for kind in self.KINDS}

    def observe_route(self, kind: str, ms: float, units: int) -> None:
        """Fold one measured route execution into its calibration."""
        calibration = self._calibrations.get(kind)
        if calibration is None:
            return
        with self._lock:
            calibration.add(float(ms), units)

    def calibrated(self, kind: str, min_samples: int) -> bool:
        """True once ``kind`` has at least ``min_samples`` observations."""
        return self._calibrations[kind].samples >= min_samples

    def rate(self, kind: str) -> float:
        """Observed mean ms per unit for ``kind`` (0.0 when cold)."""
        return self._calibrations[kind].rate

    def floor(self, kind: str) -> float:
        """Cheapest observed ms for ``kind`` (0.0 when cold)."""
        return self._calibrations[kind].floor

    def snapshot(self) -> dict:
        """JSON-ready calibrations for ``ingest_health()["planner"]``."""
        with self._lock:
            calibrations = {
                kind: c.snapshot() for kind, c in self._calibrations.items()
            }
        return {"calibrations": calibrations}
