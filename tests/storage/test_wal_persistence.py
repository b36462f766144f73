"""Tests for the write-ahead log and snapshots (incl. failure injection)."""

import datetime as dt

import numpy as np
import pytest

from repro.errors import SnapshotError, StorageError, WALCorruptionError
from repro.storage.durable import ColumnBlock
from repro.storage.engine import StorageEngine, replay_into
from repro.storage.persistence import _save_snapshot, load_generation, recover
from repro.storage.wal import HEADER_SIZE, WriteAheadLog
from repro.tabular.table import Table


def _block(*rows: dict, first_id: int = 0) -> ColumnBlock:
    """An insert record's payload: the rows with consecutive row ids."""
    ids = np.arange(first_id, first_id + len(rows), dtype=np.int64)
    return ColumnBlock("t", ids, Table.from_rows(list(rows)))


def _values(wal: WriteAheadLog, column: str = "a") -> list:
    """One column across every committed insert block, in log order."""
    return [
        value
        for entry in wal.committed_entries()
        for value in entry.payload.rows.column(column).to_list()
    ]


class TestWAL:
    def test_commit_marks_entries(self):
        wal = WriteAheadLog()
        txn = wal.begin()
        wal.append(txn, "insert", "t", _block({"a": 1}))
        assert list(wal.committed_entries()) == []
        wal.commit(txn)
        assert len(list(wal.committed_entries())) == 1

    def test_rollback_discards(self):
        wal = WriteAheadLog()
        txn = wal.begin()
        wal.append(txn, "insert", "t", _block({"a": 1}))
        wal.rollback(txn)
        assert len(wal) == 0

    def test_unknown_op_rejected(self):
        wal = WriteAheadLog()
        with pytest.raises(StorageError):
            wal.append(1, "upsert", "t", {})

    def test_insert_is_logged_as_a_block_not_a_row_record(self):
        wal = WriteAheadLog()
        with pytest.raises(StorageError, match="column block"):
            wal.append(1, "insert", "t", {"a": 1})
        with pytest.raises(StorageError, match="row record"):
            wal.append(1, "update", "t", _block({"a": 1}))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", _block({"a": 1, "when": "2013-04-08"}))
        wal.commit(txn)
        loaded = WriteAheadLog.load(path)
        entries = list(loaded.committed_entries())
        assert entries[0].payload.rows.row(0) == {"a": 1, "when": "2013-04-08"}
        assert entries[0].payload.row_ids.tolist() == [0]
        assert loaded.begin() == txn + 1

    def test_one_insert_call_is_one_frame(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", _block(*({"a": i} for i in range(40))))
        wal.commit(txn)
        assert wal.last_seq == 2  # one block frame + one commit frame
        loaded = WriteAheadLog.load(path)
        assert len(loaded) == 1
        assert _values(loaded) == list(range(40))

    def test_truncate(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", _block({"a": 1}))
        wal.commit(txn)
        wal.truncate()
        assert len(WriteAheadLog.load(path)) == 0

    def test_truncate_preserves_sequence_numbers(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", _block({"a": 1}))
        wal.commit(txn)
        watermark = wal.last_seq
        wal.truncate()
        txn = wal.begin()
        wal.append(txn, "insert", "t", _block({"a": 2}, first_id=1))
        wal.commit(txn)
        loaded = WriteAheadLog.load(path)
        entries = list(loaded.committed_entries())
        # records written after a checkpoint always sort after it
        assert [e.seq > watermark for e in entries] == [True]

    def test_dates_round_trip_as_dates(self, tmp_path):
        """Regression: ``default=str`` used to replay dates as strings."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        day = dt.date(2013, 4, 8)
        wal.append(txn, "update", "t", {"row_id": 0, "when": day, "note": "x"})
        wal.commit(txn)
        loaded = WriteAheadLog.load(path)
        payload = next(loaded.committed_entries()).payload
        assert payload["when"] == day
        assert isinstance(payload["when"], dt.date)
        assert payload["note"] == "x"

    def test_replayed_dates_match_engine_state(self, tmp_path):
        """End to end: a replayed date column equals the original rows."""
        wal_path = tmp_path / "wal.log"
        db = StorageEngine(WriteAheadLog(wal_path))
        db.create_table("v", {"vid": "int", "when": "date"}, primary_key="vid")
        with db.transaction():
            db.insert("v", {"vid": 1, "when": dt.date(2010, 3, 1)})
            db.insert("v", {"vid": 2, "when": dt.date(2010, 3, 2)})
        with db.transaction():
            db.update("v", 1, {"when": dt.date(2011, 1, 1)})
        db.wal.close()
        recovered = StorageEngine()
        recovered.create_table(
            "v", {"vid": "int", "when": "date"}, primary_key="vid"
        )
        replay_into(recovered, WriteAheadLog.load(wal_path))
        assert recovered.scan("v").to_rows() == db.scan("v").to_rows()
        assert recovered.get_by_pk("v", 1)["when"] == dt.date(2010, 3, 1)
        assert recovered.get_by_pk("v", 2)["when"] == dt.date(2011, 1, 1)

    def test_torn_tail_is_truncated_in_place(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for value in (1, 2):
            txn = wal.begin()
            wal.append(txn, "insert", "t", _block({"a": value}, first_id=value))
            wal.commit(txn)
        wal.close()
        intact = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x99\x07torn")
        loaded = WriteAheadLog.load(path)
        assert len(list(loaded.committed_entries())) == 2
        # the repair is physical: the file shrinks back to the valid prefix
        assert path.stat().st_size == intact

    def test_mid_log_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for value in (1, 2):
            txn = wal.begin()
            wal.append(txn, "insert", "t", _block({"a": value}, first_id=value))
            wal.commit(txn)
        wal.close()
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 20] ^= 0xFF  # inside the first record
        path.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError, match="refusing"):
            WriteAheadLog.load(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"\x00not a wal at all")
        with pytest.raises(WALCorruptionError, match="magic"):
            WriteAheadLog.load(path)

    def test_uncommitted_disk_entries_are_ignored_on_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", _block({"a": 1}))
        wal.commit(txn)
        orphan = wal.begin()
        wal.append(orphan, "insert", "t", _block({"a": 2}, first_id=1))
        wal.close()  # never committed
        loaded = WriteAheadLog.load(path)
        assert _values(loaded) == [1]
        assert len(loaded) == 2  # the orphan is visible, just not committed


@pytest.fixture()
def populated():
    db = StorageEngine()
    db.create_table(
        "visits",
        {"vid": "int", "pid": "int", "fbg": "float", "when": "date"},
        primary_key="vid",
    )
    db.create_index("visits", "pid")
    with db.transaction():
        db.insert("visits", {"vid": 1, "pid": 7, "fbg": 6.1, "when": dt.date(2010, 3, 1)})
        db.insert("visits", {"vid": 2, "pid": 7, "fbg": None, "when": dt.date(2011, 3, 1)})
    return db


class TestSnapshots:
    def test_round_trip_values_and_dates(self, populated, tmp_path):
        loaded, _ = load_generation(_save_snapshot(populated, tmp_path / "snap"))
        assert loaded.scan("visits").equals(populated.scan("visits"))

    def test_indexes_rebuilt(self, populated, tmp_path):
        loaded, _ = load_generation(_save_snapshot(populated, tmp_path / "snap"))
        assert len(loaded.find("visits", "pid", 7)) == 2

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no recoverable snapshot"):
            recover(tmp_path / "absent")

    def test_schema_metadata_preserved(self, populated, tmp_path):
        loaded, _ = load_generation(_save_snapshot(populated, tmp_path / "snap"))
        assert loaded.catalog.get("visits").primary_key == "vid"


class TestCrashRecovery:
    def test_snapshot_plus_wal_replay(self, tmp_path):
        """Simulated crash: snapshot at T0, WAL through T1, process dies.

        Recovery = load snapshot schema, replay the full WAL onto empty
        tables; the result matches the pre-crash state.
        """
        wal_path = tmp_path / "wal.log"
        db = StorageEngine(WriteAheadLog(wal_path))
        db.create_table("t", {"a": "int", "b": "str"}, primary_key="a")
        with db.transaction():
            db.insert("t", {"a": 1, "b": "x"})
        with db.transaction():
            db.insert("t", {"a": 2, "b": "y"})
            db.update("t", 0, {"b": "x2"})
        # uncommitted work lost in the crash
        try:
            with db.transaction():
                db.insert("t", {"a": 3, "b": "z"})
                raise RuntimeError("power loss mid-transaction")
        except RuntimeError:
            pass
        pre_crash = db.scan("t").to_rows()

        recovered = StorageEngine()
        recovered.create_table("t", {"a": "int", "b": "str"}, primary_key="a")
        replay_into(recovered, WriteAheadLog.load(wal_path))
        assert recovered.scan("t").to_rows() == pre_crash
        assert recovered.get_by_pk("t", 3) is None
