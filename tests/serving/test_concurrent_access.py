"""Concurrency stress: reader threads vs a live writer.

The serving contract under test (DESIGN.md "Serving & epochs"): with a
writer continuously ingesting batches and folding feedback, concurrent
readers must

* never observe an exception, and
* only ever observe answers that equal the same query evaluated on
  *some* committed epoch — never a torn mix of two versions.

The second property is checked exactly: the writer records a pinned
snapshot of every epoch it publishes, readers record the epoch they
pinned with each answer, and after the threads join every observation is
recomputed on its epoch's snapshot and compared row for row.

The versioned result cache is attached throughout — so cache hits are
subject to the same exact-equality check as fresh computations.
"""

import threading

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.warehouse.feedback import FeedbackDimensionBuilder, FeedbackEntry

N_READERS = 8
N_BATCHES = 3

#: mixed figure-shaped workload; tuples so threads share them safely
QUERIES = (
    (("conditions.age_band", "personal.gender"), (("records", ("records", "size")),)),
    (("conditions.age_band10",), (("patients", ("cardinality.patient_id", "nunique")),)),
    (("personal.gender",), (("mean_fbg", ("fbg", "mean")), ("n", ("records", "size")))),
)


def _builder(tag: str) -> FeedbackDimensionBuilder:
    return (
        FeedbackDimensionBuilder(f"risk_{tag}")
        .add(FeedbackEntry("flagged", lambda row: row.get("fbg") is not None))
        .add(FeedbackEntry("clear", lambda row: True))
    )


def test_readers_vs_live_writer():
    cohort = DiScRiGenerator(n_patients=40, seed=11).generate()
    system = DDDGMS(cohort)
    system.attach_result_cache(True)

    committed: dict[int, object] = {}
    commit_lock = threading.Lock()

    def record_committed() -> None:
        snap = system.current_epoch()
        with commit_lock:
            committed[snap.epoch] = snap

    record_committed()  # the initial epoch

    stop = threading.Event()
    errors: list[str] = []
    observations: list[tuple[int, int, tuple]] = []  # (epoch, qi, rows)
    obs_lock = threading.Lock()

    def reader(slot: int) -> None:
        i = slot  # stagger the mix across readers
        local: list[tuple[int, int, tuple]] = []
        try:
            while not stop.is_set():
                levels, aggs = QUERIES[i % len(QUERIES)]
                if i % 2:
                    # explicit snapshot pin
                    snap = system.current_epoch()
                    result = snap.aggregate(list(levels), dict(aggs))
                    epoch = snap.epoch
                else:
                    # implicit pin inside one aggregate call
                    snap = system.cube.snapshot()
                    result = snap.aggregate(list(levels), dict(aggs))
                    epoch = snap.epoch
                local.append(
                    (epoch, i % len(QUERIES), tuple(map(tuple, (
                        tuple(row.items()) for row in result.to_rows()
                    )))),
                )
                i += 1
        except Exception as exc:  # noqa: BLE001 - the assertion target
            errors.append(f"reader[{slot}] died: {exc!r}")
        finally:
            with obs_lock:
                observations.extend(local)

    threads = [
        threading.Thread(target=reader, args=(slot,), daemon=True)
        for slot in range(N_READERS)
    ]
    for thread in threads:
        thread.start()

    # the live writer: ingest fresh batches and fold feedback in a loop
    try:
        for round_no in range(N_BATCHES):
            batch = DiScRiGenerator(n_patients=12, seed=100 + round_no).generate()
            max_pid = int(max(system.source.column("patient_id").to_list()))
            max_vid = int(max(system.source.column("visit_id").to_list()))
            system.ingest_visits(offset_identifiers(batch, max_pid, max_vid))
            record_committed()
            system.fold_feedback(_builder(str(round_no)))
            record_committed()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)

    assert not errors, errors
    assert not any(thread.is_alive() for thread in threads), "reader hung"
    assert len(committed) == 1 + 2 * N_BATCHES
    assert len(observations) > 0

    # exact check: every answer equals the query recomputed on the very
    # epoch the reader pinned — which must be one the writer committed
    for epoch, qi, rows in observations:
        assert epoch in committed, (
            f"reader pinned epoch {epoch} that was never committed "
            f"(committed: {sorted(committed)})"
        )
        levels, aggs = QUERIES[qi]
        expected = committed[epoch].aggregate(list(levels), dict(aggs))
        expected_rows = tuple(
            tuple(row.items()) for row in expected.to_rows()
        )
        assert rows == expected_rows, (
            f"epoch {epoch} query {qi}: observed answer diverges from "
            f"its own epoch's recomputation"
        )


def test_snapshot_survives_writer_churn():
    """A pinned snapshot answers identically before and after ingests."""
    cohort = DiScRiGenerator(n_patients=30, seed=5).generate()
    system = DDDGMS(cohort)
    snap = system.current_epoch()
    levels, aggs = ["conditions.age_band"], {"n": ("records", "size")}
    before = snap.aggregate(levels, aggs).to_rows()

    batch = DiScRiGenerator(n_patients=10, seed=99).generate()
    max_pid = int(max(system.source.column("patient_id").to_list()))
    max_vid = int(max(system.source.column("visit_id").to_list()))
    system.ingest_visits(offset_identifiers(batch, max_pid, max_vid))

    assert system.epoch > snap.epoch
    assert snap.aggregate(levels, aggs).to_rows() == before
    # the live cube, meanwhile, sees the grown fact set
    grown = system.cube.aggregate(levels, aggs)
    assert sum(r["n"] for r in grown.to_rows()) > sum(r["n"] for r in before)
