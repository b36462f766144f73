"""Tests for the write-ahead log and snapshots (incl. failure injection)."""

import datetime as dt
import json

import pytest

from repro.errors import StorageError, WALCorruptionError
from repro.persistence import load, save
from repro.storage.engine import StorageEngine, replay_into
from repro.storage.wal import HEADER_SIZE, LogEntry, WriteAheadLog
from tests._persistence import raises_from


class TestWAL:
    def test_commit_marks_entries(self):
        wal = WriteAheadLog()
        txn = wal.begin()
        wal.append(txn, "insert", "t", {"a": 1})
        assert list(wal.committed_entries()) == []
        wal.commit(txn)
        assert len(list(wal.committed_entries())) == 1

    def test_rollback_discards(self):
        wal = WriteAheadLog()
        txn = wal.begin()
        wal.append(txn, "insert", "t", {"a": 1})
        wal.rollback(txn)
        assert len(wal) == 0

    def test_unknown_op_rejected(self):
        wal = WriteAheadLog()
        with pytest.raises(StorageError):
            wal.append(1, "upsert", "t", {})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", {"a": 1, "when": "2013-04-08"})
        wal.commit(txn)
        loaded = WriteAheadLog.load(path)
        entries = list(loaded.committed_entries())
        assert entries[0].payload["a"] == 1
        assert loaded.begin() == txn + 1

    def test_truncate(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", {"a": 1})
        wal.commit(txn)
        wal.truncate()
        assert len(WriteAheadLog.load(path)) == 0

    def test_truncate_preserves_sequence_numbers(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", {"a": 1})
        wal.commit(txn)
        watermark = wal.last_seq
        wal.truncate()
        txn = wal.begin()
        wal.append(txn, "insert", "t", {"a": 2})
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
        wal.append(txn, "insert", "t", {"vid": 1, "when": day, "note": "x"})
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
        db.wal.close()
        recovered = StorageEngine()
        recovered.create_table(
            "v", {"vid": "int", "when": "date"}, primary_key="vid"
        )
        replay_into(recovered, WriteAheadLog.load(wal_path))
        assert recovered.scan("v").to_rows() == db.scan("v").to_rows()
        assert recovered.get_by_pk("v", 1)["when"] == dt.date(2010, 3, 1)

    def test_torn_tail_is_truncated_in_place(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for value in (1, 2):
            txn = wal.begin()
            wal.append(txn, "insert", "t", {"a": value})
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
            wal.append(txn, "insert", "t", {"a": value})
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
        wal.append(txn, "insert", "t", {"a": 1})
        wal.commit(txn)
        orphan = wal.begin()
        wal.append(orphan, "insert", "t", {"a": 2})  # never committed
        wal.close()
        loaded = WriteAheadLog.load(path)
        assert [e.payload["a"] for e in loaded.committed_entries()] == [1]
        assert len(loaded) == 2  # the orphan is visible, just not committed


class TestLegacyWALFormat:
    """Version-1 logs (JSON lines) load and upgrade transparently."""

    def _write_v1(self, path, entries):
        lines = [
            json.dumps(
                {
                    "txn": txn,
                    "op": op,
                    "table": table,
                    "payload": payload,
                    "committed": committed,
                },
                default=str,
            )
            for txn, op, table, payload, committed in entries
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_v1_log_loads(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_v1(
            path,
            [
                (1, "insert", "t", {"a": 1, "when": "2013-04-08"}, True),
                (2, "insert", "t", {"a": 2}, False),
            ],
        )
        wal = WriteAheadLog.load(path)
        committed = list(wal.committed_entries())
        assert len(committed) == 1 and committed[0].payload["a"] == 1
        assert len(wal) == 2
        assert wal.begin() == 3

    def test_v1_log_is_upgraded_in_place(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_v1(path, [(1, "insert", "t", {"a": 1}, True)])
        WriteAheadLog.load(path)
        # the file is now in the framed format and loads through it
        assert path.read_bytes().startswith(b"RWAL2")
        again = WriteAheadLog.load(path)
        assert [e.payload["a"] for e in again.committed_entries()] == [1]

    def test_v1_stringified_dates_still_replay_into_date_columns(self, tmp_path):
        """The historical lossy encoding coerces back through the schema."""
        path = tmp_path / "wal.log"
        self._write_v1(
            path, [(1, "insert", "v", {"vid": 1, "when": "2010-03-01"}, True)]
        )
        engine = StorageEngine()
        engine.create_table(
            "v", {"vid": "int", "when": "date"}, primary_key="vid"
        )
        replay_into(engine, WriteAheadLog.load(path))
        assert engine.get_by_pk("v", 1)["when"] == dt.date(2010, 3, 1)

    def test_appending_after_upgrade_continues_the_log(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write_v1(path, [(1, "insert", "t", {"a": 1}, True)])
        wal = WriteAheadLog.load(path)
        txn = wal.begin()
        wal.append(txn, "insert", "t", {"a": 2})
        wal.commit(txn)
        wal.close()
        loaded = WriteAheadLog.load(path)
        assert [e.payload["a"] for e in loaded.committed_entries()] == [1, 2]


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
        save(populated, tmp_path / "snap")
        loaded = load(tmp_path / "snap")
        assert loaded.scan("visits").equals(populated.scan("visits"))

    def test_indexes_rebuilt(self, populated, tmp_path):
        save(populated, tmp_path / "snap")
        loaded = load(tmp_path / "snap")
        assert len(loaded.find("visits", "pid", 7)) == 2

    def test_missing_snapshot_raises(self, tmp_path):
        with raises_from(StorageError, "no snapshot"):
            load(tmp_path / "absent", kind="storage")

    def test_schema_metadata_preserved(self, populated, tmp_path):
        save(populated, tmp_path / "snap")
        loaded = load(tmp_path / "snap")
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
