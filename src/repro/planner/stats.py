"""Recorded workload statistics: what the cost model learns from.

Two ledgers, one lock:

* **per-plan frequencies** — every served aggregate request, keyed by
  its canonical :func:`repro.olap.cube.plan_key`, with the wanted
  level set, the measures it needs, whether a lattice node *could*
  answer it, how often it repeated and how often the result cache
  already had it.  The adaptive materializer reads these.
* **per-route calibrations** — observed ``(milliseconds, work units)``
  samples per route kind (``"node"`` in cells, ``"base"`` in rows).
  The cost model's ms/unit rates come from here.

Recording is deliberately cheap (a dict update under one mutex) because
it runs on every query of a planner-attached cube; everything expensive
(scoring, selection) happens at publish time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence


@dataclass(frozen=True)
class PlanSignature:
    """The planner-relevant shape of one aggregate request.

    ``wanted`` is the sorted union of grouping levels and filter
    columns — exactly the set a covering lattice node must materialize.
    ``materializable`` is False for requests no node can ever answer
    (``nunique``, level-valued aggregation targets).
    """

    wanted: tuple[str, ...]
    measures: tuple[str, ...]
    materializable: bool


def classify_request(
    levels: Sequence[str],
    aggregations: Mapping[str, tuple[str, str]],
    filters,
    records: str,
    fact_measures,
) -> PlanSignature:
    """Reduce a request to its :class:`PlanSignature`.

    Mirrors :meth:`MaterializedCube._covering_nodes`'s coverage rule so
    the adaptive materializer only proposes nodes the router can use.
    """
    wanted = set(levels)
    if filters is not None:
        wanted |= set(filters.columns())
    measures: set[str] = set()
    materializable = True
    for target, func in aggregations.values():
        if func == "nunique":
            materializable = False  # distinct counts do not roll up
        elif target != records:
            if target in fact_measures:
                measures.add(target)
            else:
                materializable = False  # level-valued target: base only
    return PlanSignature(
        tuple(sorted(wanted)), tuple(sorted(measures)), materializable
    )


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


class _QueryRecord:
    """Frequency ledger entry for one distinct plan."""

    __slots__ = (
        "signature", "count", "cache_hits", "base_rows",
    )

    def __init__(self, signature: PlanSignature) -> None:
        self.signature = signature
        self.count = 0
        self.cache_hits = 0
        #: largest base-scan row estimate seen for this plan — the rows
        #: the query costs when no node answers it
        self.base_rows = 0

    @property
    def weight(self) -> int:
        """Queries that actually paid for a compute (cache misses)."""
        return max(self.count - self.cache_hits, 0)


class WorkloadStats:
    """Thread-safe recorded-workload ledger (see module docstring)."""

    #: route kinds with calibrations: lattice-node answers are costed
    #: per cell, base scans per (estimated) row
    KINDS = ("node", "base")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._queries: dict[Hashable, _QueryRecord] = {}
        self._calibrations = {kind: _Calibration() for kind in self.KINDS}

    # -- recording ------------------------------------------------------

    def note_query(
        self,
        key: Hashable,
        signature: PlanSignature,
        base_rows: int,
        *,
        cache_hit: bool = False,
    ) -> None:
        """Fold one served request into the frequency ledger."""
        with self._lock:
            record = self._queries.get(key)
            if record is None:
                record = self._queries[key] = _QueryRecord(signature)
            record.count += 1
            if cache_hit:
                record.cache_hits += 1
            if base_rows > record.base_rows:
                record.base_rows = int(base_rows)

    def observe_route(self, kind: str, ms: float, units: int) -> None:
        """Fold one measured route execution into its calibration."""
        calibration = self._calibrations.get(kind)
        if calibration is None:
            return
        with self._lock:
            calibration.add(float(ms), units)

    # -- reading --------------------------------------------------------

    def calibrated(self, kind: str, min_samples: int) -> bool:
        """True once ``kind`` has at least ``min_samples`` observations."""
        return self._calibrations[kind].samples >= min_samples

    def rate(self, kind: str) -> float:
        """Observed mean ms per unit for ``kind`` (0.0 when cold)."""
        return self._calibrations[kind].rate

    def floor(self, kind: str) -> float:
        """Cheapest observed ms for ``kind`` (0.0 when cold)."""
        return self._calibrations[kind].floor

    def query_records(self) -> "list[tuple[Hashable, PlanSignature, int, int, int]]":
        """Stable snapshot: ``(key, signature, weight, cache_hits, base_rows)``.

        Sorted heaviest-first so selection and health output are
        deterministic regardless of arrival order.
        """
        with self._lock:
            rows = [
                (key, r.signature, r.weight, r.cache_hits, r.base_rows)
                for key, r in self._queries.items()
            ]
        rows.sort(key=lambda row: (-row[2], row[1].wanted, repr(row[0])))
        return rows

    def snapshot(self) -> dict:
        """JSON-ready state for ``ingest_health()["planner"]``."""
        with self._lock:
            tracked = len(self._queries)
            total = sum(r.count for r in self._queries.values())
            cache_hits = sum(r.cache_hits for r in self._queries.values())
            calibrations = {
                kind: c.snapshot() for kind, c in self._calibrations.items()
            }
        return {
            "plans_tracked": tracked,
            "queries_recorded": total,
            "cache_hits_recorded": cache_hits,
            "calibrations": calibrations,
        }
