"""One round of the closed loop: build, read, ingest, guide, recover.

A single client on a single thread drives the real :class:`DDDGMS`; the
next request is sent only when the previous one has been answered.  Every
answer is checked against a bare ``Cube`` over the same epoch (nothing
attached to it: no planner, cache, lattice or store), and every timing
is taken with ``time.perf_counter`` around calls the harness makes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.dgms.system import DDDGMS
from repro.olap.cube import Cube
from repro.olap.mdx.evaluator import execute_mdx
from repro.serving.cache import CacheConfig
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry

from benchmarks.e2e.inputs import Inputs, QuerySpec
from benchmarks.e2e.tracing import Tracer
from benchmarks.e2e.workloads import Workload

_now = time.perf_counter

#: the "first crosstab" of build, ingest and recover; deliberately outside
#: every query family so it never warms a query a cold sample will time
PROBE = QuerySpec(
    -1, "probe", ("limbs.reflex_knees_ankles",), ("ecg.af_present",)
)
FEEDBACK = "bench_outcome"
#: the re-query that closes the guidance turn reads the folded dimension
REQUERY = QuerySpec(
    -2, "requery", (f"{FEEDBACK}.assessment",), ("personal.gender",)
)
#: distinct queries re-verified at every new epoch on workloads that do
#: not re-run the whole cold sweep after a publish
_SPOT_CHECKS = 5


def feedback_builder() -> FeedbackDimensionBuilder:
    """The guidance turn's feedback (predicates are code: rebuilt on recover)."""
    return FeedbackDimensionBuilder(FEEDBACK).add(FeedbackEntry(
        "followup",
        lambda row: row.get("conditions.develops_diabetes") == "yes",
    ))


class BareFront:
    """The reference: the same query API over a cube with nothing attached."""

    def __init__(self, warehouse) -> None:
        self.cube = Cube(warehouse)
        self.query = self.cube.query

    def mdx(self, text: str):
        return execute_mdx(self.cube, text)


def run_query(front, spec: QuerySpec):
    """Send one query the way a client would: build the chain, execute."""
    if spec.mdx is not None:
        return front.mdx(spec.mdx)
    query = front.query().rows(*spec.rows).columns(*spec.columns)
    if spec.measure is not None:
        query = query.measure(*spec.measure)
    for level, values in spec.filters:
        query = query.where(level, *values)
    return query.execute()


def canonical(grid) -> tuple[str, list[float]]:
    """An order-free form of a crosstab: a digest of everything exact
    (axes, keys, integer and text cells) plus the float cells in key order.
    """
    exact = []
    floats = []
    for key in sorted(grid.cells, key=repr):
        value = grid.cells[key]
        if isinstance(value, float):
            floats.append(value)
            exact.append((repr(key), "float"))
        else:
            exact.append((repr(key), repr(value)))
    payload = repr((
        grid.row_levels, grid.col_levels,
        sorted(map(repr, grid.row_keys)), sorted(map(repr, grid.col_keys)),
        exact,
    ))
    return hashlib.sha1(payload.encode()).hexdigest(), floats


def same_answer(one: tuple[str, list[float]], other: tuple[str, list[float]]) -> bool:
    """Exact parts equal, floats equal to a relative 1e-9.

    A lattice node recomposes a mean from per-cell sums, which may differ
    from the scan's mean in the last bits without being a wrong answer.
    """
    return (
        one[0] == other[0]
        and len(one[1]) == len(other[1])
        and all(
            math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
            or (math.isnan(a) and math.isnan(b))
            for a, b in zip(one[1], other[1])
        )
    )


def attach(system: DDDGMS, workload: Workload) -> None:
    """The workload's subsystems, in ``repro.open_system`` order."""
    if workload.storage:
        system.attach_storage(True)
    if workload.cache_entries is not None:
        system.attach_result_cache(
            CacheConfig(max_entries=workload.cache_entries)
            if workload.cache_entries
            else True
        )
    if workload.serving:
        system.attach_serving(True)
    if workload.lattice:
        system.materialize_lattice()


def durable_bytes(root: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(root)
        for name in names
    )


@dataclass
class Pass:
    """One replay of the fixed stream."""

    latencies: list[float]
    modes: list[str]


@dataclass
class Round:
    """Everything one closed loop measured and counted."""

    build_s: float = 0.0
    guidance_s: float = 0.0
    recover_s: float = 0.0
    ingest_s: list[float] = field(default_factory=list)
    cold: list[float] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    #: what the round's fixed work added to the cache, lattice and planner
    #: counters: ``pass0`` the first warm pass, ``post`` the reads after
    #: each publish, ``fixed`` both plus the cold sweeps.  The extra warm
    #: passes a time budget lets in are left out, so these repeat.
    tallies: dict[str, dict[str, int]] = field(default_factory=dict)
    #: phase name -> wall seconds, checks and bookkeeping included
    phase_s: dict[str, float] = field(default_factory=dict)


class ClosedLoop:
    """Drives one round; ``tracer`` is ``None`` on the untraced run."""

    def __init__(self, workload: Workload, inputs: Inputs, root: Path,
                 tracer: Tracer | None) -> None:
        self.workload = workload
        self.inputs = inputs
        self.root = root
        self.tracer = tracer
        self.round = Round()
        self.system: DDDGMS | None = None
        self.reference: dict[int, tuple[str, list[float]]] = {}

    # -- bookkeeping -----------------------------------------------------

    def _span(self, name: str, **attrs):
        """A harness span on the traced run, nothing on the untraced one."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    @contextlib.contextmanager
    def _phase(self, name: str):
        with self._span(f"phase.{name}"):
            started = _now()
            try:
                yield
            finally:
                self.round.phase_s[name] = _now() - started

    def _check(self, ok: bool, what: str) -> None:
        self.round.attempted += 1
        if not ok:
            self.round.failures.append(what)

    def _answer(self, spec: QuerySpec):
        """One client request; an exception is a failed operation.

        Returns ``None`` then — :meth:`_verify` still counts the attempt
        but does not report the same operation a second time.
        """
        try:
            return run_query(self.system, spec)
        except Exception as exc:  # noqa: BLE001 - counted, reported, fails the run
            self.round.failures.append(
                f"query {spec.qid} raised {type(exc).__name__}: {exc}"
            )
            return None

    def _refresh_reference(self, specs) -> BareFront:
        """Answers of a bare cube over the current epoch's warehouse."""
        with self._span("harness.reference"):
            bare = BareFront(self.system.warehouse)
            started = _now()
            bare.cube.flat
            self.round.counts.setdefault("flatten_s", _now() - started)
            self.reference = {
                spec.qid: canonical(run_query(bare, spec)) for spec in specs
            }
        return bare

    def _verify(self, spec: QuerySpec, grid) -> None:
        if grid is None:
            self.round.attempted += 1
            return
        self._check(
            same_answer(canonical(grid), self.reference[spec.qid]),
            f"query {spec.qid} ({spec.kind}) differs from the bare cube",
        )

    def _serving_counts(self) -> dict[str, int]:
        """Cache, lattice and planner counters (public stats objects)."""
        system = self.system
        out = dict.fromkeys(
            ("cache_hits", "cache_misses", "cache_evictions", "lattice_exact",
             "lattice_rollup", "lattice_fallback", "routes_node", "routes_base"),
            0,
        )
        cache, lattice, planner = (
            system.result_cache, system.cube.lattice, system.planner
        )
        if cache is not None:
            out["cache_hits"] = cache.stats.hits
            out["cache_misses"] = cache.stats.misses
            out["cache_evictions"] = cache.stats.evictions
        if lattice is not None:
            out["lattice_exact"] = lattice.stats.exact_hits
            out["lattice_rollup"] = lattice.stats.rollup_hits
            out["lattice_fallback"] = lattice.stats.fallbacks
        if planner is not None:
            for label, n in planner.route_counts.items():
                out[f"routes_{label.split(':')[0]}"] += n
        return out

    @contextlib.contextmanager
    def _tallied(self, *buckets: str):
        before = self._serving_counts()
        yield
        after = self._serving_counts()
        for bucket in buckets:
            tally = self.round.tallies.setdefault(bucket, dict.fromkeys(after, 0))
            for key in after:
                tally[key] += after[key] - before[key]

    # -- read path -------------------------------------------------------

    def cold_sweep(self) -> None:
        """First execution of every distinct query at the current epoch."""
        for spec in self.inputs.queries:
            with self._span("harness.query", kind=spec.kind, cold=True):
                started = _now()
                grid = self._answer(spec)
                self.round.cold.append(_now() - started)
            self._verify(spec, grid)

    def warm_pass(self) -> None:
        """Replay the fixed stream once.

        Between two requests (outside the timed region) the public
        counters are read, so each sample is labelled with the latency
        mode that answered it: ``hit`` (result cache), ``node`` (a
        lattice node) or the query's own kind (a scan).
        """
        queries = self.inputs.queries
        latencies: list[float] = []
        modes: list[str] = []
        last: dict[int, object] = {}
        previous = self._serving_counts()
        gc.collect()
        for qid in self.inputs.stream:
            spec = queries[qid]
            with self._span("harness.query", kind=spec.kind):
                started = _now()
                grid = self._answer(spec)
                latencies.append(_now() - started)
            current = self._serving_counts()
            if current["cache_hits"] > previous["cache_hits"]:
                mode = "hit"
            elif (current["lattice_exact"] + current["lattice_rollup"]
                  > previous["lattice_exact"] + previous["lattice_rollup"]):
                mode = "node"
            else:
                mode = spec.kind
            previous = current
            modes.append(mode)
            last[qid] = grid
        self.round.passes.append(Pass(latencies, modes))
        # every execution is an attempted operation; the latest answer of
        # each distinct query is then verified (and counted) below
        self.round.attempted += len(latencies) - len(last)
        for qid, grid in last.items():
            self._verify(queries[qid], grid)

    # -- the round -------------------------------------------------------

    def run(self, warm_budget_s: float) -> Round:
        workload, inputs, rnd = self.workload, self.inputs, self.round
        queries = inputs.queries

        gc.collect()
        with self._phase("build"):
            started = _now()
            self.system = DDDGMS(inputs.cohort, durable_root=self.root)
            attach(self.system, workload)
            first = run_query(self.system, PROBE)
            rnd.build_s = _now() - started
        system = self.system
        self._check(
            system.operational_store.row_count("attendances")
            == inputs.cohort.num_rows,
            "initial load lost or quarantined rows",
        )
        bare = self._refresh_reference((PROBE, *queries))
        self._verify(PROBE, first)

        gc.collect()
        with self._phase("cold"), self._tallied("fixed"):
            self.cold_sweep()

        with self._phase("warm"):
            # whole passes only: one always, then none that would overrun
            began = _now()
            longest = 0.0
            while not rnd.passes or _now() - began + longest <= warm_budget_s:
                started = _now()
                with self._tallied(*(() if rnd.passes else ("fixed", "pass0"))):
                    self.warm_pass()
                longest = max(longest, _now() - started)

        spot = queries[:_SPOT_CHECKS]
        with self._phase("ingest"):
            for index, batch in enumerate(inputs.batches):
                rows_before = system.operational_store.row_count("attendances")
                held_before = len(system.quarantine)
                gc.collect()
                with self._span("phase.ingest_batch"):
                    started = _now()
                    system.ingest_visits(batch, batch=f"bench-{index}")
                    first = self._answer(PROBE)
                    rnd.ingest_s.append(_now() - started)
                gained = system.operational_store.row_count("attendances") - rows_before
                self._check(
                    gained == batch.num_rows
                    and len(system.quarantine) == held_before,
                    f"batch {index}: {gained} of {batch.num_rows} rows landed",
                )
                if workload.reads_after_publish:
                    bare = self._refresh_reference((PROBE, *queries))
                    self._verify(PROBE, first)
                    with self._tallied("fixed", "post"):
                        self.cold_sweep()
                        self.warm_pass()
                else:
                    bare = self._refresh_reference((PROBE, *spot))
                    self._verify(PROBE, first)
                    for spec in spot:
                        self._verify(spec, self._answer(spec))
                self._check(
                    bare.cube.flat.num_rows == rows_before + gained,
                    f"batch {index}: warehouse rows do not match the store",
                )

        gc.collect()
        with self._phase("guidance"):
            started = _now()
            model = system.awsum(
                "develops_diabetes", ["fbg_band", "reflex_knees_ankles"],
                min_support=2,
            )
            predictor = system.trajectory_predictor()
            current = sorted(predictor.model.states)[0]
            stage, _ = predictor.predict_next_stage(
                {"patient_id": -1, "fbg_band": current}
            )
            report = system.check_optimum_consistency(
                ["conditions.age_band", "personal.gender"], "fbg",
                min_records=5, removable=["exercise"],
            )
            system.fold_feedback(feedback_builder())
            requery = self._answer(REQUERY)
            rnd.guidance_s = _now() - started
        self._check(len(model.value_influences()) >= 1, "AWSum found no influence")
        self._check(stage is not None, "no next stage predicted")
        self._check(report is not None, "no consistency report")
        battery = (PROBE, REQUERY, *spot)
        self._refresh_reference(battery)
        self._verify(REQUERY, requery)

        self._collect_counts()
        before = self._state(battery)
        del bare, predictor, model, report
        self.system = system = None
        gc.collect()
        with self._phase("recover"):
            started = _now()
            self.system = DDDGMS.recover(
                self.root, feedback_builders=[feedback_builder()]
            )
            attach(self.system, workload)
            first = run_query(self.system, PROBE)
            rnd.recover_s = _now() - started
        self._verify(PROBE, first)
        after = self._state(battery)
        self._check(
            after[1] == before[1]
            and all(map(same_answer, after[0], before[0])),
            "recovered system answers differ from the dropped one",
        )
        rnd.counts["wal_records_replayed"] = len(self.system.operational_store.wal)
        self.system = None
        gc.collect()
        return rnd

    def _state(self, battery) -> tuple[list, str]:
        """Answers plus *sorted* dimension names and the row count.

        Sorted, because ``check_optimum_consistency(removable=...)``
        re-adds the removed dimension last: the live and the recovered
        system legitimately list the same dimensions in another order.
        """
        system = self.system
        answers = [canonical(run_query(system, spec)) for spec in battery]
        rows = system.operational_store.row_count("attendances")
        names = ",".join(sorted(system.warehouse.dimension_names))
        return answers, f"{names}|{rows}"

    def _collect_counts(self) -> None:
        """Counts read from the system's public stats objects."""
        system, counts = self.system, self.round.counts
        rows = system.operational_store.row_count("attendances")
        counts["source_rows"] = rows
        counts["durable_bytes"] = durable_bytes(self.root)
        snaps = sorted((self.root / "snaps").iterdir())
        counts["checkpoint_bytes"] = durable_bytes(snaps[-1])
        health = system.ingest_health()
        counts["delta_publishes"] = health["maintenance"]["delta_publishes"]
        counts["full_rebuilds"] = health["maintenance"]["full_rebuilds"]
        counts["quarantined_rows"] = health["quarantined_total"]
        admission = (health["serving"] or {}).get("admission", {})
        counts["shed"] = admission.get("shed_queue_full", 0) + admission.get(
            "shed_timeout", 0
        )
        lattice = system.cube.lattice
        counts["lattice_cells"] = lattice.storage_cells() if lattice else 0
        storage = health["storage"] or {}
        counts["segments"] = storage.get("segments", 0)
        counts["encoded_bytes"] = storage.get("encoded_bytes", 0)
