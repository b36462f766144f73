"""Crash-recovery property suite: kill the process at every write boundary.

A scripted workload (single-row and multi-row batch transactions, an
abort, a mid-stream checkpoint) runs with a fault plan that simulates ``kill -9`` at the Nth hit of each
named write boundary — WAL append, commit mark, fsync, snapshot temp
write, rename, manifest write, WAL truncation.  After every crash,
:func:`repro.storage.recover` must rebuild exactly the committed prefix:
every transaction whose ``commit()`` returned, nothing from transactions
in flight (with one honest exception: a crash *after* the commit record
reached the OS but before the application saw the acknowledgement may
surface the in-flight transaction — real databases have the same
ambiguity, and the table below pins which boundaries allow it).

A hypothesis test extends this to arbitrary histories and arbitrary
byte-level torn tails of the WAL file.
"""

import datetime as dt
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SnapshotError, WALCorruptionError
from repro.storage import faults
from repro.storage.engine import StorageEngine
from repro.storage.faults import FaultPlan, FaultRule, SimulatedCrash
from repro.storage.persistence import _save_snapshot, checkpoint, recover
from repro.storage.wal import HEADER_SIZE, WriteAheadLog
from repro.tabular.table import Table

SCHEMA = {"k": "int", "v": "str", "d": "date"}


def _fresh_store(root: Path):
    """Engine with a file WAL and an initial schema checkpoint."""
    wal = WriteAheadLog(root / "wal.log")
    db = StorageEngine(wal)
    db.create_table("t", SCHEMA, primary_key="k")
    db.create_index("t", "v")
    checkpoint(db, root / "snaps")
    return db


def _rows_by_key(engine: StorageEngine) -> dict:
    return {
        row["k"]: (row["v"], row["d"]) for row in engine.scan("t").to_rows()
    }


class _Workload:
    """Scripted transactions with a reference model of committed state.

    ``committed`` is the model after the last acknowledged commit;
    ``inflight`` additionally includes the transaction currently being
    committed (for boundaries where the commit record may be durable
    even though the crash pre-empted the acknowledgement).
    """

    def __init__(self, db: StorageEngine, root: Path):
        self.db = db
        self.root = root
        self.committed: dict = {}
        self.inflight: dict = {}

    def _txn(self, mutate) -> None:
        nxt = dict(self.committed)
        self.inflight = mutate_model(nxt, mutate)
        with self.db.transaction():
            apply_ops(self.db, mutate)
        self.committed = self.inflight

    def run(self) -> None:
        day = dt.date(2013, 4, 8)
        self._txn([("insert", 1, "a", day),
                   ("insert", 2, "b", day),
                   ("insert", 3, "c", None)])
        # one insert call over several rows: a single block frame
        self._txn([("batch", [(6, "f", day), (7, "g", None), (8, "h", day)])])
        self._txn([("update", 2, "b2"),
                   ("delete", 3),
                   ("insert", 4, "d", day.replace(year=2014))])
        # an aborted transaction must leave no trace at any boundary
        try:
            with self.db.transaction():
                apply_ops(self.db, [("insert", 9, "ghost", None)])
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        checkpoint(self.db, self.root / "snaps")
        self._txn([("insert", 5, "e", None),
                   ("update", 1, "a2")])
        self._txn([("batch", [(11, "k", None), (12, "l", day)]),
                   ("update", 7, "g2")])
        self._txn([("delete", 2)])


def mutate_model(model: dict, ops) -> dict:
    for op in ops:
        if op[0] == "insert":
            _, k, v, d = op
            model[k] = (v, d)
        elif op[0] == "batch":
            for k, v, d in op[1]:
                model[k] = (v, d)
        elif op[0] == "update":
            _, k, v = op
            model[k] = (v, model[k][1])
        elif op[0] == "delete":
            model.pop(op[1])
    return model


def _batch(rows) -> Table:
    return Table.from_rows(
        [{"k": k, "v": v, "d": d} for k, v, d in rows], schema=SCHEMA
    )


def apply_ops(db: StorageEngine, ops) -> None:
    for op in ops:
        if op[0] == "insert":
            _, k, v, d = op
            db.insert("t", {"k": k, "v": v, "d": d})
        elif op[0] == "batch":
            _, rejected = db.insert("t", _batch(op[1]))
            assert rejected == []
        elif op[0] == "update":
            _, k, v = op
            db.update_by_pk("t", k, {"v": v})
        elif op[0] == "delete":
            db.delete_by_pk("t", op[1])


def _count_hits(tmp_path: Path) -> dict[str, int]:
    """Dry-run the workload under an empty plan to count each boundary."""
    root = tmp_path / "dry"
    root.mkdir()
    db = _fresh_store(root)
    with faults.injected(FaultPlan([])) as plan:
        _Workload(db, root).run()
        return dict(plan._counts)


#: every write boundary the workload crosses, with the recovery guarantee
#: at that boundary: "acked" = exactly the acknowledged commits; "either"
#: = acked, or acked plus the one transaction whose commit record was
#: already handed to the OS when the crash hit.
BOUNDARIES = [
    ("wal.append", "kill", "acked"),
    ("wal.append", "short", "acked"),
    ("wal.commit", "kill", "acked"),
    ("wal.commit", "short", "acked"),
    ("wal.sync", "kill", "either"),
    ("snapshot.data", "kill", "acked"),
    ("snapshot.data", "short", "acked"),
    ("snapshot.data.rename", "kill", "acked"),
    ("snapshot.manifest", "kill", "acked"),
    ("snapshot.manifest", "short", "acked"),
    ("snapshot.manifest.rename", "kill", "acked"),
    ("wal.truncate", "kill", "acked"),
    ("wal.truncate.rename", "kill", "acked"),
]


_hits_cache: dict[str, int] = {}


@pytest.fixture(scope="module")
def boundary_hits(tmp_path_factory) -> dict[str, int]:
    if not _hits_cache:
        _hits_cache.update(_count_hits(tmp_path_factory.mktemp("dryrun")))
    return _hits_cache


@pytest.mark.parametrize("point,mode,guarantee", BOUNDARIES)
def test_kill_at_every_write_boundary(
    tmp_path, boundary_hits, point, mode, guarantee
):
    """Crash at the Nth hit of each boundary, for every N the workload hits."""
    total = boundary_hits.get(point, 0)
    assert total > 0, f"workload never crosses boundary {point!r}"
    for nth in range(1, total + 1):
        root = tmp_path / f"{mode}-{nth}"
        root.mkdir()
        db = _fresh_store(root)
        workload = _Workload(db, root)
        plan = FaultPlan([FaultRule(point, mode=mode, nth=nth)])
        with faults.injected(plan):
            with pytest.raises(SimulatedCrash):
                workload.run()

        recovered = recover(root / "snaps", root / "wal.log")
        state = _rows_by_key(recovered)
        if guarantee == "acked":
            assert state == workload.committed, (
                f"{point}:{mode}@{nth}: recovered {state} "
                f"!= committed {workload.committed}"
            )
        else:
            assert state in (workload.committed, workload.inflight), (
                f"{point}:{mode}@{nth}: recovered {state} is neither the "
                f"acked nor the in-flight state"
            )
        # the ghost row from the aborted transaction never survives
        assert 9 not in state
        # the recovered engine is fully operational: indexes answer
        # queries and new transactions both log and checkpoint cleanly
        for key, (value, day) in state.items():
            row = recovered.get_by_pk("t", key)
            assert row is not None and row["v"] == value and row["d"] == day
        with recovered.transaction():
            recovered.insert("t", {"k": 77, "v": "post", "d": None})
        checkpoint(recovered, root / "snaps")
        again = recover(root / "snaps", root / "wal.log")
        assert _rows_by_key(again) == {**state, 77: ("post", None)}


def test_workload_without_faults_recovers_final_state(tmp_path):
    db = _fresh_store(tmp_path)
    workload = _Workload(db, tmp_path)
    workload.run()
    db.wal.close()
    recovered = recover(tmp_path / "snaps", tmp_path / "wal.log")
    assert _rows_by_key(recovered) == workload.committed


def test_bit_flip_in_wal_is_reported_not_repaired(tmp_path):
    """Silent mid-log corruption must raise, never silently drop data."""
    db = _fresh_store(tmp_path)
    plan = FaultPlan([FaultRule("wal.append", mode="flip", nth=1)])
    with faults.injected(plan):
        with db.transaction():  # the flip lands inside a 40-row block frame
            db.insert("t", _batch((k, "x", None) for k in range(1, 41)))
    with db.transaction():  # valid data lands after the corrupted record
        db.insert("t", {"k": 100, "v": "y", "d": None})
    db.wal.close()
    with pytest.raises(WALCorruptionError, match="corrupt"):
        WriteAheadLog.load(tmp_path / "wal.log")


def test_recover_without_any_valid_generation_raises(tmp_path):
    (tmp_path / "snaps" / "gen-00000001").mkdir(parents=True)
    with pytest.raises(SnapshotError, match="no recoverable snapshot"):
        recover(tmp_path / "snaps")


def test_recover_falls_back_past_corrupt_generation(tmp_path):
    db = _fresh_store(tmp_path)
    with db.transaction():
        db.insert("t", {"k": 1, "v": "x", "d": None})
    _save_snapshot(db, tmp_path / "snaps")
    generations = sorted((tmp_path / "snaps").glob("gen-*"))
    # vandalise the newest generation's data file
    newest = generations[-1]
    victim = next(newest.glob("table_*"))
    victim.write_bytes(b'{"truncated')
    db.wal.close()
    recovered = recover(tmp_path / "snaps", tmp_path / "wal.log")
    # older generation (schema only) + full WAL replay = committed state
    assert _rows_by_key(recovered) == {1: ("x", None)}


# ----------------------------------------------------------------------
# Hypothesis: arbitrary histories, arbitrary torn tails
# ----------------------------------------------------------------------

_KEYS = st.integers(1, 8)
_VALUES = st.text("abc", min_size=0, max_size=3)
_DATES = st.one_of(
    st.none(), st.dates(dt.date(2000, 1, 1), dt.date(2020, 12, 31))
)
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, _VALUES, _DATES),
    st.tuples(st.just("drop"), _KEYS),
)
_HISTORIES = st.lists(
    st.lists(_OPS, min_size=1, max_size=4), min_size=1, max_size=8
)


def _apply_defensive(db: StorageEngine, model: dict, ops) -> dict:
    """Interpret ops so they are always valid against the current state."""
    model = dict(model)
    for op in ops:
        if op[0] == "put":
            _, k, v, d = op
            if k in model:
                db.update_by_pk("t", k, {"v": v, "d": d})
            else:
                db.insert("t", {"k": k, "v": v, "d": d})
            model[k] = (v, d)
        else:
            _, k = op
            if k in model:
                db.delete_by_pk("t", k)
                del model[k]
    return model


@settings(max_examples=60, deadline=None)
@given(history=_HISTORIES, data=st.data())
def test_torn_tail_recovers_exactly_the_committed_prefix(history, data):
    """For any history and any byte-level truncation of the WAL, recovery
    yields exactly the transactions whose commit record survived the cut."""
    workdir = Path(tempfile.mkdtemp(prefix="torn-"))
    try:
        root = workdir / "snaps"
        wal_path = workdir / "wal.log"
        db = _fresh_store(workdir)
        model: dict = {}
        # model snapshots keyed by the WAL size after each commit
        commits: list[tuple[int, dict]] = [
            (wal_path.stat().st_size, dict(model))
        ]
        for ops in history:
            with db.transaction():
                model = _apply_defensive(db, model, ops)
            commits.append((wal_path.stat().st_size, dict(model)))
        db.wal.close()

        full_size = wal_path.stat().st_size
        cut = data.draw(
            st.integers(HEADER_SIZE, full_size), label="cut offset"
        )
        with open(wal_path, "r+b") as handle:
            handle.truncate(cut)

        expected = {}
        for size, snapshot in commits:
            if size <= cut:
                expected = snapshot
        recovered = recover(root, wal_path)
        assert _rows_by_key(recovered) == expected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@settings(max_examples=25, deadline=None)
@given(history=_HISTORIES)
def test_replay_equals_live_state(history):
    """Baseline property: with no damage, replay reproduces the live state."""
    workdir = Path(tempfile.mkdtemp(prefix="replay-"))
    try:
        wal_path = workdir / "wal.log"
        db = _fresh_store(workdir)
        model: dict = {}
        for ops in history:
            with db.transaction():
                model = _apply_defensive(db, model, ops)
        db.wal.close()
        recovered = recover(workdir / "snaps", wal_path)
        assert _rows_by_key(recovered) == _rows_by_key(db) == model
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
