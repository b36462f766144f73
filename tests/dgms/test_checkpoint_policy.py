"""What is on disk after a write, and when a checkpoint is taken.

An acknowledged batch is durable because its WAL commit record was
fsynced; a snapshot generation only bounds how much log a recovery
replays.  So the write path asks :func:`checkpoint_if_due` instead of
snapshotting after every batch, and these tests pin the rule from the
outside: a small batch leaves exactly itself in ``wal.log`` and no new
generation; a log that has outgrown the newest generation is folded into
exactly one new one; and a kill at every boundary of a checkpoint that
*is* due still recovers and converges.
"""

import pytest

from repro.dgms.system import DDDGMS
from repro.discri.generator import DiScRiGenerator, offset_identifiers
from repro.storage import (
    StorageEngine,
    WriteAheadLog,
    checkpoint_if_due,
    checkpoint_status,
    faults,
    recover,
)
from repro.storage.faults import FaultPlan, FaultRule, SimulatedCrash
from repro.storage.persistence import KEEP_GENERATIONS
from repro.storage.wal import HEADER_SIZE, OP_INSERT


@pytest.fixture(autouse=True)
def _clean_plan():
    yield
    faults.uninstall()


def _cohort(n_patients=8, seed=7):
    return DiScRiGenerator(n_patients=n_patients, seed=seed).generate()


def _batch_for(source, n_patients, seed):
    batch = DiScRiGenerator(n_patients=n_patients, seed=seed).generate()
    return offset_identifiers(
        batch,
        max(source.column("patient_id").to_list()),
        max(source.column("visit_id").to_list()),
    )


def _generations(root):
    return sorted(d.name for d in (root / "snaps").iterdir())


def _answers(system):
    """Everything a reader can see: the flat view, row for row."""
    return sorted(map(str, system.cube.flat.to_rows()))


class TestSmallBatchIsDeferred:
    def test_wal_holds_exactly_the_batch_and_recovery_replays_it(self, tmp_path):
        root = tmp_path / "sys"
        source = _cohort()
        system = DDDGMS(source, durable_root=root)
        # the build itself checkpoints: there was no generation to extend
        assert _generations(root) == ["gen-00000001"]
        assert (root / "wal.log").stat().st_size == HEADER_SIZE

        batch = _batch_for(source, n_patients=2, seed=99)
        assert system.ingest_visits(batch, batch="y2") == batch.num_rows

        assert _generations(root) == ["gen-00000001"]
        logged = list(WriteAheadLog.load(root / "wal.log").committed_entries())
        assert {(e.op, e.table) for e in logged} == {(OP_INSERT, "attendances")}
        assert [
            visit_id
            for e in logged
            for visit_id in e.payload.rows.column("visit_id").to_list()
        ] == batch.column("visit_id").to_list()
        health = system.ingest_health()["checkpoint"]
        assert health == {
            "generation": 1,
            "snapshot_bytes": sum(
                f.stat().st_size
                for f in (root / "snaps" / "gen-00000001").iterdir()
            ),
            "wal_bytes": (root / "wal.log").stat().st_size,
            "deferred": 1,
        }
        assert health["wal_bytes"] < health["snapshot_bytes"]

        expected = _answers(system)
        recovered = DDDGMS.recover(root)
        assert recovered.operational_store.row_count("attendances") == (
            source.num_rows + batch.num_rows
        )
        assert _answers(recovered) == expected
        # recovering is a read: it neither snapshots nor grows the log
        assert _generations(root) == ["gen-00000001"]
        assert recovered.ingest_health()["checkpoint"]["wal_bytes"] == (
            health["wal_bytes"]
        )

    def test_a_fresh_build_supersedes_what_the_root_held(self, tmp_path):
        """Generations another log left behind are not this log's base."""
        root = tmp_path / "sys"
        DDDGMS(_cohort(n_patients=8, seed=7), durable_root=root)
        other = _cohort(n_patients=5, seed=11)
        rebuilt = DDDGMS(other, durable_root=root)
        assert _generations(root)[-1] == "gen-00000002"
        recovered = DDDGMS.recover(root)
        assert _answers(recovered) == _answers(rebuilt)
        assert recovered.operational_store.row_count("attendances") == (
            other.num_rows
        )


class TestOutgrownLogIsCheckpointed:
    def test_exactly_one_generation_and_the_log_is_truncated(self, tmp_path):
        root = tmp_path / "sys"
        source = _cohort()
        system = DDDGMS(source, durable_root=root)

        # more rows than the store holds: the log outgrows generation 1
        big = _batch_for(source, n_patients=14, seed=99)
        system.ingest_visits(big, batch="y2")
        assert _generations(root) == ["gen-00000001", "gen-00000002"]
        assert (root / "wal.log").stat().st_size == HEADER_SIZE
        health = system.ingest_health()["checkpoint"]
        assert health["generation"] == 2 and health["deferred"] == 0

        # a small batch against the (now larger) generation waits again
        small = _batch_for(system.source, n_patients=2, seed=5)
        system.ingest_visits(small, batch="y3")
        assert _generations(root) == ["gen-00000001", "gen-00000002"]
        assert system.ingest_health()["checkpoint"]["deferred"] == 1

        # and the next outgrowth prunes down to KEEP_GENERATIONS
        bigger = _batch_for(system.source, n_patients=40, seed=3)
        system.ingest_visits(bigger, batch="y4")
        assert _generations(root) == ["gen-00000002", "gen-00000003"]
        assert len(_generations(root)) == KEEP_GENERATIONS
        assert (root / "wal.log").stat().st_size == HEADER_SIZE

        expected = _answers(system)
        assert _answers(DDDGMS.recover(root)) == expected


class TestKillWhileCheckpointIsDue:
    """The kill-at-every-boundary suites must not pass vacuously: here
    the batch is big enough that the checkpoint really runs."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("clean") / "sys"
        source = _cohort()
        big = _batch_for(source, n_patients=14, seed=99)
        system = DDDGMS(source, durable_root=root)
        system.ingest_visits(big, batch="y2")
        # the precondition of every case below: this batch checkpoints
        assert _generations(root) == ["gen-00000001", "gen-00000002"]
        return {"source": source, "batch": big, "answers": _answers(system)}

    @pytest.mark.parametrize(
        "boundary",
        ["ingest.checkpoint", "snapshot.data", "snapshot.manifest", "wal.truncate"],
    )
    def test_recover_and_reingest_converges(self, boundary, reference, tmp_path):
        root = tmp_path / "sys"
        system = DDDGMS(reference["source"], durable_root=root)
        faults.install(FaultPlan([FaultRule(boundary, mode="kill", nth=1)]))
        with pytest.raises(SimulatedCrash):
            system.ingest_visits(reference["batch"], batch="y2")
        faults.uninstall()

        recovered = DDDGMS.recover(root)
        # every row of the batch was committed before the checkpoint began
        assert recovered.ingest_visits(reference["batch"], batch="y2") == 0
        assert _answers(recovered) == reference["answers"]
        # the interrupted checkpoint is completed by the re-ingest: the
        # newest generation is the base of a short log again
        status = checkpoint_status(recovered.operational_store, root / "snaps")
        assert not status["due"]
        assert status["wal_bytes"] == HEADER_SIZE
        assert _answers(DDDGMS.recover(root)) == reference["answers"]


class TestDueRule:
    """The rule itself, on a bare engine: a function of bytes on disk."""

    def _engine(self, tmp_path):
        engine = StorageEngine(WriteAheadLog(tmp_path / "wal.log"))
        engine.create_table("t", {"k": "int", "v": "str"}, primary_key="k")
        return engine

    def _insert(self, engine, keys, width=8):
        with engine.transaction():
            for k in keys:
                engine.insert("t", {"k": k, "v": "x" * width})

    def test_due_without_a_generation_then_by_size(self, tmp_path):
        engine = self._engine(tmp_path)
        snaps = tmp_path / "snaps"
        self._insert(engine, range(50))
        assert checkpoint_status(engine, snaps) == {
            "generation": None, "snapshot_bytes": 0,
            "wal_bytes": (tmp_path / "wal.log").stat().st_size, "due": True,
        }
        assert checkpoint_if_due(engine, snaps) is not None
        assert len(engine.wal) == 0

        self._insert(engine, [100])
        assert checkpoint_if_due(engine, snaps) is None
        assert len(engine.wal) == 1  # deferred: the log keeps the row

        self._insert(engine, range(200, 400))
        status = checkpoint_status(engine, snaps)
        assert status["wal_bytes"] >= status["snapshot_bytes"] and status["due"]
        assert checkpoint_if_due(engine, snaps).name == "gen-00000002"
        assert len(engine.wal) == 0

        engine.wal.close()
        assert recover(snaps, tmp_path / "wal.log").row_count("t") == 251

    def test_generation_the_log_was_not_truncated_at_is_not_a_base(self, tmp_path):
        engine = self._engine(tmp_path)
        snaps = tmp_path / "snaps"
        self._insert(engine, range(50))
        faults.install(FaultPlan([FaultRule("wal.truncate", mode="kill", nth=1)]))
        with pytest.raises(SimulatedCrash):
            checkpoint_if_due(engine, snaps)
        faults.uninstall()
        # generation 1 landed, the log still starts before it
        recovered = recover(snaps, tmp_path / "wal.log")
        assert recovered.row_count("t") == 50
        status = checkpoint_status(recovered, snaps)
        assert status["generation"] == 1 and status["due"]

    def test_in_memory_log_is_always_due(self, tmp_path):
        engine = StorageEngine()
        engine.create_table("t", {"k": "int"}, primary_key="k")
        assert checkpoint_if_due(engine, tmp_path / "snaps") is not None
        assert checkpoint_if_due(engine, tmp_path / "snaps") is not None
