"""Model-based testing of the storage engine (hypothesis stateful).

The engine is compared against a plain-dict reference model through random
sequences of inserts, updates, deletes and aborted transactions.  Any
divergence — including index corruption after rollback — fails the run.

A second machine (:class:`DurableEngineModel`) runs the same mutations on
a file-backed engine over all five dtypes, adds column-batch inserts, and
two more rules: *checkpoint* (snapshot + WAL truncation) and *crash*
(throw the live engine away and recover from disk alone).  The reference
model never crashes, so the invariants prove that checkpoints and
recovery are transparent at any point in any history.
"""

import datetime as dt
import shutil
import struct
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.errors import IntegrityError
from repro.storage.engine import StorageEngine
from repro.storage.persistence import checkpoint, recover
from repro.storage.wal import WriteAheadLog
from repro.tabular.column import Column
from repro.tabular.table import Table

_KEYS = st.integers(1, 25)
_VALUES = st.sampled_from(["a", "b", "c", None])


def _cell(value):
    """Compare floats by bit pattern: NaN payloads and -0.0 must survive."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return value


def _contents(table: Table) -> list[tuple]:
    return [tuple(map(_cell, row.values())) for row in table.to_rows()]


_STEPS = st.lists(
    st.tuples(st.sampled_from(["insert", "update", "delete"]), _KEYS, _VALUES),
    min_size=2, max_size=8,
)


class _ReadChecks:
    """What every read of the column store promises, in both machines.

    ``self.model`` maps each live key to its cells and ``self.row_ids``
    to its row id; a machine says how a scanned row and a model entry
    compare (``_row_form``/``_model_form``), where ``v`` sits in the
    cells (``_v``) and what an insert or an update of ``v`` stores
    (``_inserted``/``_updated``).
    """

    def check_reads(self, model: dict, row_ids: dict[int, int]) -> None:
        """Every read against ``model``: the reads that address rows by id
        or key first, then the full scan."""
        live = sorted(model, key=row_ids.__getitem__)
        wanted = live[::-2] + live[:1]  # reversed, gapped, one repeated
        picked = self.engine.scan("t", row_ids=[row_ids[k] for k in wanted])
        assert picked.column("k").to_list() == wanted
        assert list(map(self._row_form, picked.to_rows())) == [
            self._model_form(model[k]) for k in wanted
        ]
        for key, cells in model.items():
            row = self.engine.get_by_pk("t", key)
            assert row is not None and self._row_form(row) == self._model_form(cells)
        assert self.engine.get_by_pk("t", 999) is None
        for value in ("a", "b", "c"):
            expected = sorted(k for k, c in model.items() if self._v(c) == value)
            found = sorted(row["k"] for row in self.engine.find("t", "v", value))
            assert found == expected
        table = self.engine.scan("t")
        assert table.column("k").to_list() == live  # row-id order
        assert list(map(self._row_form, table.to_rows())) == [
            self._model_form(model[k]) for k in live
        ]

    @invariant()
    def reads_match_model(self):
        self.check_reads(self.model, self.row_ids)

    @invariant()
    def an_earlier_scan_still_reads_the_same(self):
        """A table captured before the last step — an update, a delete,
        an aborted transaction, a checkpoint or a crash — is unchanged."""
        captured = getattr(self, "_captured", None)
        if captured is not None:
            table, contents = captured
            assert _contents(table) == contents
        table = self.engine.scan("t")
        self._captured = (table, _contents(table))

    @rule(steps=_STEPS, commit=st.booleans())
    def several_writes_in_one_transaction(self, steps, commit):
        """Inside a transaction the table is several chunks with retired
        positions (a commit folds them back into one): every read must
        see through them, and an abort must leave no trace."""
        model, row_ids = dict(self.model), dict(self.row_ids)
        try:
            with self.engine.transaction():
                for op, key, value in steps:
                    if op == "insert" and key not in model:
                        row_ids[key] = self.engine.insert("t", {"k": key, "v": value})
                        model[key] = self._inserted(value)
                    elif op == "update" and key in model:
                        self.engine.update("t", row_ids[key], {"v": value})
                        model[key] = self._updated(model[key], value)
                    elif op == "delete" and key in model:
                        self.engine.delete("t", row_ids.pop(key))
                        del model[key]
                self.check_reads(model, row_ids)
                if not commit:
                    raise RuntimeError("abort")
        except RuntimeError:
            return
        self.model, self.row_ids = model, row_ids


class EngineModel(_ReadChecks, RuleBasedStateMachine):
    """Random single-row transactions vs a dict reference."""

    def __init__(self):
        super().__init__()
        self.engine = StorageEngine()
        self.engine.create_table(
            "t", {"k": "int", "v": "str"}, primary_key="k"
        )
        self.engine.create_index("t", "v")
        self.model: dict[int, str | None] = {}
        self.row_ids: dict[int, int] = {}

    keys = Bundle("keys")

    @rule(target=keys, key=_KEYS, value=_VALUES)
    def insert(self, key, value):
        if key in self.model:
            # duplicate pk must be rejected and leave no trace
            try:
                with self.engine.transaction():
                    self.engine.insert("t", {"k": key, "v": value})
                raise AssertionError("duplicate primary key accepted")
            except IntegrityError:
                pass
            return key
        with self.engine.transaction():
            row_id = self.engine.insert("t", {"k": key, "v": value})
        self.model[key] = value
        self.row_ids[key] = row_id
        return key

    @rule(key=keys, value=_VALUES)
    def update(self, key, value):
        if key not in self.model:
            return
        with self.engine.transaction():
            self.engine.update("t", self.row_ids[key], {"v": value})
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        if key not in self.model:
            return
        with self.engine.transaction():
            self.engine.delete("t", self.row_ids[key])
        del self.model[key]
        del self.row_ids[key]

    @rule(key=_KEYS, value=_VALUES)
    def aborted_transaction(self, key, value):
        """A transaction that mutates then fails must change nothing."""
        try:
            with self.engine.transaction():
                if key in self.model:
                    self.engine.update("t", self.row_ids[key], {"v": value})
                else:
                    self.engine.insert("t", {"k": key, "v": value})
                raise RuntimeError("abort")
        except RuntimeError:
            pass

    @staticmethod
    def _row_form(row):
        return row["v"]

    @staticmethod
    def _model_form(cells):
        return cells

    _v = _inserted = _model_form

    @staticmethod
    def _updated(cells, value):
        return value


EngineModel.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestEngineModel = EngineModel.TestCase


_WIDE = {"k": "int", "v": "str", "f": "float", "b": "bool", "d": "date"}
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan")]),
)
_DATES = st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31))


@st.composite
def _batches(draw):
    """A column batch: valid rows mixed with in-batch duplicate keys, null
    keys and wrong-typed cells (floats as text, bools as out-of-range ints)."""
    n = draw(st.integers(1, 6))

    def column(values):
        return draw(st.lists(st.one_of(st.none(), values), min_size=n, max_size=n))

    keys = column(st.integers(1, 30))
    values = column(st.sampled_from(["a", "b", "c"]))
    floats_as_text = draw(st.booleans())
    floats = column(
        st.sampled_from(["1.5", "-0.0", "nan", "oops"])
        if floats_as_text else _FLOATS
    )
    bools_as_ints = draw(st.booleans())
    bools = column(st.integers(0, 2) if bools_as_ints else st.booleans())
    dates = column(_DATES)
    return Table({
        "k": Column.from_values(keys, "int"),
        "v": Column.from_values(values, "str"),
        "f": Column.from_values(floats, "str" if floats_as_text else "float"),
        "b": Column.from_values(bools, "int" if bools_as_ints else "bool"),
        "d": Column.from_values(dates, "date"),
    })


class DurableEngineModel(_ReadChecks, RuleBasedStateMachine):
    """The same random transactions, now with checkpoints and crashes.

    The engine is file-backed; at any step the machine may checkpoint
    (snapshot + WAL truncate) or "crash" — drop the live engine and
    recover purely from the snapshot generations plus the WAL.  The
    dict reference never crashes, so every divergence is a durability
    bug.  Batch inserts carry all five dtypes and a mix of good and bad
    rows; the model keeps the first valid occurrence of each new key.
    """

    def __init__(self):
        super().__init__()
        self.workdir = Path(tempfile.mkdtemp(prefix="durable-model-"))
        self.wal_path = self.workdir / "wal.log"
        self.snap_root = self.workdir / "snaps"
        self.engine = StorageEngine(WriteAheadLog(self.wal_path))
        self.engine.create_table("t", _WIDE, primary_key="k")
        self.engine.create_index("t", "v")
        checkpoint(self.engine, self.snap_root)
        #: key -> (v, f, b, d), values as a scan returns them
        self.model: dict[int, tuple] = {}
        self.row_ids: dict[int, int] = {}

    keys = Bundle("keys")

    @rule(target=keys, key=_KEYS, value=_VALUES)
    def insert(self, key, value):
        if key in self.model:
            try:
                with self.engine.transaction():
                    self.engine.insert("t", {"k": key, "v": value})
                raise AssertionError("duplicate primary key accepted")
            except IntegrityError:
                pass
            return key
        with self.engine.transaction():
            self.row_ids[key] = self.engine.insert("t", {"k": key, "v": value})
        self.model[key] = (value, None, None, None)
        return key

    @rule(batch=_batches())
    def insert_batch(self, batch):
        expected = dict(self.model)
        for row in batch.to_rows():
            key, f, b = row["k"], row["f"], row["b"]
            if key is None or key in expected:
                continue
            if isinstance(f, str):
                try:
                    f = float(f)
                except ValueError:
                    continue
            if b is not None and not isinstance(b, bool):
                if b not in (0, 1):
                    continue
                b = bool(b)
            expected[key] = (row["v"], f, b, row["d"])
        with self.engine.transaction():
            accepted, rejected = self.engine.insert("t", batch)
        assert len(accepted) == len(expected) - len(self.model)
        assert len(accepted) + len(rejected) == batch.num_rows
        new_keys = [key for key in expected if key not in self.model]
        self.row_ids.update(zip(new_keys, accepted))
        self.model = expected

    @rule(key=keys, value=_VALUES)
    def update(self, key, value):
        if key not in self.model:
            return
        with self.engine.transaction():
            self.engine.update("t", self.row_ids[key], {"v": value})
        self.model[key] = (value, *self.model[key][1:])

    @rule(key=keys)
    def delete(self, key):
        if key not in self.model:
            return
        with self.engine.transaction():
            self.engine.delete("t", self.row_ids[key])
        del self.model[key]
        del self.row_ids[key]

    @rule(key=_KEYS, value=_VALUES)
    def aborted_transaction(self, key, value):
        try:
            with self.engine.transaction():
                if key in self.model:
                    self.engine.update("t", self.row_ids[key], {"v": value})
                else:
                    self.engine.insert("t", {"k": key, "v": value})
                raise RuntimeError("abort")
        except RuntimeError:
            pass

    @rule()
    def take_checkpoint(self):
        checkpoint(self.engine, self.snap_root)

    @rule()
    def crash_and_recover(self):
        self.engine.wal.close()
        self.engine = recover(self.snap_root, self.wal_path)

    @staticmethod
    def _row_form(row):
        return tuple(_cell(row[c]) for c in "vfbd")

    @staticmethod
    def _model_form(cells):
        return tuple(map(_cell, cells))

    @staticmethod
    def _v(cells):
        return cells[0]

    @staticmethod
    def _inserted(value):
        return (value, None, None, None)

    @staticmethod
    def _updated(cells, value):
        return (value, *cells[1:])

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


DurableEngineModel.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
TestDurableEngineModel = DurableEngineModel.TestCase
