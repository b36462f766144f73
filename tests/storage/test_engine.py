"""Tests for the storage engine: DDL, CRUD, transactions, constraints."""

import datetime as dt
import json

import pytest

from repro.errors import (
    IntegrityError,
    StorageError,
    TableExistsError,
    TableNotFoundError,
    TransactionError,
)
from repro.storage.engine import StorageEngine, replay_into
from repro.storage.wal import WriteAheadLog


@pytest.fixture()
def engine():
    db = StorageEngine()
    db.create_table(
        "patients", {"pid": "int", "sex": "str"}, primary_key="pid"
    )
    db.create_table(
        "visits",
        {"vid": "int", "pid": "int", "fbg": "float"},
        primary_key="vid",
        foreign_keys={"pid": ("patients", "pid")},
    )
    with db.transaction():
        db.insert("patients", {"pid": 1, "sex": "F"})
        db.insert("patients", {"pid": 2, "sex": "M"})
        db.insert("visits", {"vid": 10, "pid": 1, "fbg": 6.2})
    return db


class TestDDL:
    def test_duplicate_table_rejected(self, engine):
        with pytest.raises(TableExistsError):
            engine.create_table("patients", {"x": "int"})

    def test_unknown_table_lists_known(self, engine):
        with pytest.raises(TableNotFoundError, match="patients"):
            engine.scan("nope")


class TestCRUD:
    def test_insert_and_scan(self, engine):
        assert engine.row_count("patients") == 2
        assert engine.scan("patients").column("sex").to_list() == ["F", "M"]

    def test_insert_coerces_types(self, engine):
        with engine.transaction():
            engine.insert("visits", {"vid": 11, "pid": 2, "fbg": 5})
        assert engine.get_by_pk("visits", 11)["fbg"] == 5.0

    def test_insert_unknown_column_rejected(self, engine):
        with pytest.raises(StorageError, match="unknown columns"):
            with engine.transaction():
                engine.insert("patients", {"pid": 3, "zzz": 1})

    def test_update(self, engine):
        with engine.transaction():
            engine.update("visits", 0, {"fbg": 7.7})
        assert engine.get_by_pk("visits", 10)["fbg"] == 7.7

    def test_delete(self, engine):
        with engine.transaction():
            engine.delete("visits", 0)
        assert engine.row_count("visits") == 0

    def test_delete_missing_row(self, engine):
        with pytest.raises(StorageError, match="not found"):
            with engine.transaction():
                engine.delete("visits", 99)

    def test_mutation_outside_transaction_rejected(self, engine):
        with pytest.raises(TransactionError):
            engine.insert("patients", {"pid": 9, "sex": "F"})


class TestConstraints:
    def test_pk_duplicate_rejected(self, engine):
        with pytest.raises(IntegrityError, match="duplicate primary key"):
            with engine.transaction():
                engine.insert("patients", {"pid": 1, "sex": "M"})

    def test_pk_null_rejected(self, engine):
        with pytest.raises(IntegrityError, match="not be null"):
            with engine.transaction():
                engine.insert("patients", {"pid": None, "sex": "F"})

    def test_fk_violation_rejected(self, engine):
        with pytest.raises(IntegrityError, match="no match"):
            with engine.transaction():
                engine.insert("visits", {"vid": 12, "pid": 99, "fbg": 5.0})

    def test_fk_null_allowed(self, engine):
        with engine.transaction():
            engine.insert("visits", {"vid": 12, "pid": None, "fbg": 5.0})
        assert engine.row_count("visits") == 2

    def test_not_null_constraint(self):
        db = StorageEngine()
        db.create_table(
            "t", {"a": "int", "b": "str"}, primary_key="a", not_null={"b"}
        )
        with pytest.raises(IntegrityError):
            with db.transaction():
                db.insert("t", {"a": 1, "b": None})


class TestTransactions:
    def test_rollback_restores_all_mutations(self, engine):
        with pytest.raises(IntegrityError):
            with engine.transaction():
                engine.insert("patients", {"pid": 3, "sex": "F"})
                engine.update("patients", 0, {"sex": "X"})
                engine.delete("visits", 0)
                engine.insert("visits", {"vid": 13, "pid": 77, "fbg": 1.0})
        assert engine.row_count("patients") == 2
        assert engine.get_by_pk("patients", 1)["sex"] == "F"
        assert engine.row_count("visits") == 1

    def test_rollback_restores_indexes(self, engine):
        with pytest.raises(IntegrityError):
            with engine.transaction():
                engine.insert("patients", {"pid": 3, "sex": "F"})
                engine.insert("patients", {"pid": 3, "sex": "F"})
        assert engine.get_by_pk("patients", 3) is None
        with engine.transaction():
            engine.insert("patients", {"pid": 3, "sex": "F"})
        assert engine.get_by_pk("patients", 3) is not None

    def test_nested_transaction_rejected(self, engine):
        with pytest.raises(TransactionError):
            with engine.transaction():
                with engine.transaction():
                    pass

    def test_replay_reproduces_state(self, engine):
        with engine.transaction():
            engine.insert("patients", {"pid": 5, "sex": "M"})
        fresh = StorageEngine()
        fresh.create_table("patients", {"pid": "int", "sex": "str"}, primary_key="pid")
        fresh.create_table(
            "visits", {"vid": "int", "pid": "int", "fbg": "float"}, primary_key="vid"
        )
        replay_into(fresh, engine.wal)
        assert fresh.row_count("patients") == engine.row_count("patients")
        assert fresh.scan("visits").equals(engine.scan("visits"))

    def test_rolled_back_mutations_not_replayed(self, engine):
        try:
            with engine.transaction():
                engine.insert("patients", {"pid": 7, "sex": "F"})
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        fresh = StorageEngine()
        fresh.create_table("patients", {"pid": "int", "sex": "str"}, primary_key="pid")
        fresh.create_table(
            "visits", {"vid": "int", "pid": "int", "fbg": "float"}, primary_key="vid"
        )
        replay_into(fresh, engine.wal)
        assert fresh.get_by_pk("patients", 7) is None


class TestInMemoryLog:
    def test_in_memory_log_serialises_nothing(self, monkeypatch):
        """A log with no file keeps its entries as objects (the replay
        tests above read them back) and never encodes one."""
        dumps = []
        original = json.dumps
        monkeypatch.setattr(
            json, "dumps", lambda *a, **k: dumps.append(1) or original(*a, **k)
        )
        db = StorageEngine()
        db.create_table(
            "t", {"k": "int", "v": "str", "when": "date"}, primary_key="k"
        )
        with db.transaction():
            for k in range(50):
                db.insert("t", {"k": k, "v": str(k), "when": dt.date(2013, 4, 8)})
            db.update("t", 0, {"v": "changed"})
        assert len(db.wal) == 51
        assert dumps == []


class TestLookups:
    def test_get_by_pk(self, engine):
        assert engine.get_by_pk("patients", 2)["sex"] == "M"
        assert engine.get_by_pk("patients", 99) is None

    def test_date_columns_decode_on_read(self):
        import datetime as dt

        db = StorageEngine()
        db.create_table("t", {"k": "int", "when": "date"}, primary_key="k")
        with db.transaction():
            db.insert("t", {"k": 1, "when": dt.date(2013, 4, 8)})
        assert db.get_by_pk("t", 1)["when"] == dt.date(2013, 4, 8)
        assert db.find("t", "when", dt.date(2013, 4, 8))[0]["k"] == 1
        # scan agrees with the point lookup
        assert db.scan("t").row(0)["when"] == dt.date(2013, 4, 8)

    def test_find_unknown_column(self, engine):
        with pytest.raises(StorageError, match="unknown column"):
            engine.find("patients", "zzz", 1)

    def test_get_by_pk_requires_pk(self):
        db = StorageEngine()
        db.create_table("t", {"a": "int"})
        with pytest.raises(StorageError, match="no primary key"):
            db.get_by_pk("t", 1)

    def test_find_without_index(self, engine):
        assert len(engine.find("patients", "sex", "F")) == 1

    def test_find_with_index(self, engine):
        engine.create_index("patients", "sex")
        assert len(engine.find("patients", "sex", "F")) == 1

    def test_index_maintained_by_mutations(self, engine):
        engine.create_index("visits", "pid")
        with engine.transaction():
            engine.insert("visits", {"vid": 20, "pid": 1, "fbg": 5.5})
            engine.update("visits", 0, {"pid": 2})
        assert {r["vid"] for r in engine.find("visits", "pid", 1)} == {20}
        assert {r["vid"] for r in engine.find("visits", "pid", 2)} == {10}

    def test_duplicate_index_rejected(self, engine):
        engine.create_index("patients", "sex")
        with pytest.raises(StorageError, match="already exists"):
            engine.create_index("patients", "sex")

    def test_index_unknown_column(self, engine):
        with pytest.raises(StorageError, match="unknown column"):
            engine.create_index("patients", "zzz")
