"""A column-batch insert is the same as its rows inserted one at a time.

``StorageEngine.insert`` validates a :class:`Table` once per column and
then stores or refuses each row in position order.  These tests hold it
to the per-row semantics it replaced, with the per-row loop kept here as
the reference: the same accepted row ids, the same stored values bit for
bit (NaN payloads, signed zeros, dates), the same refused positions with
the same error types and messages — directly, and through the OLTP
intake ``_insert_visits`` with a quarantine sink and without one.  A
one-row insert is the batch insert's one-row case, so the rules
themselves are also checked against :func:`_reference_insert`, a
plain-Python transcription of the per-row validator.
"""

import datetime as dt
import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dgms.system import _insert_visits
from repro.errors import DTypeError, IntegrityError, ReproError, StorageError
from repro.etl.quarantine import ListSink, divert
from repro.storage.engine import StorageEngine, _storage_list, replay_into
from repro.tabular.column import Column
from repro.tabular.dtypes import DType, coerce_value
from repro.tabular.table import Table

SCHEMA = {
    "visit_id": "int", "fbg": "float", "note": "str", "smoker": "bool",
    "seen": "date",
}
NOT_NULL = {"note"}

#: values of the schema's own dtype
_NATIVE = {
    "visit_id": st.integers(1, 12),
    "fbg": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, float("nan")]),
    ),
    "note": st.text(max_size=3),
    "smoker": st.booleans(),
    "seen": st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31)),
}
#: a column of another dtype: some of its values coerce, some do not
_FOREIGN = {
    "visit_id": ("float", st.sampled_from([1.0, 2.0, 3.5, 4.0, float("nan")])),
    "fbg": ("str", st.sampled_from(["1.5", "-0.0", "nan", "x", ""])),
    "note": ("int", st.integers(-3, 3)),
    "smoker": ("int", st.integers(-1, 2)),
    "seen": ("str", st.sampled_from(["2013-04-08", "bad", "2020-02-30"])),
}


@st.composite
def batches(draw):
    """A batch whose columns are native, foreign-typed or absent."""
    n = draw(st.integers(0, 10))
    columns = {}
    for name, dtype in SCHEMA.items():
        mode = draw(st.sampled_from(["native", "native", "foreign", "absent"]))
        if mode == "absent":
            continue
        if mode == "foreign":
            dtype, values = _FOREIGN[name]
        else:
            values = _NATIVE[name]
        cells = draw(
            st.lists(st.one_of(st.none(), values), min_size=n, max_size=n)
        )
        columns[name] = Column.from_values(cells, dtype)
    if not columns:
        columns["visit_id"] = Column.from_values([None] * n, "int")
    return Table(columns)


def _bits(value):
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _stored(engine: StorageEngine) -> dict:
    """Every stored row by row id, storage values compared bit for bit."""
    block = engine._block("attendances")
    cells = {
        name: _storage_list(block.rows.column(name))
        for name in block.rows.column_names
    }
    return {
        row_id: {name: _bits(values[i]) for name, values in cells.items()}
        for i, row_id in enumerate(block.row_ids.tolist())
    }


def _found(engine: StorageEngine) -> list:
    """What the secondary index on ``smoker`` returns, bit for bit."""
    return [
        {k: _bits(v) for k, v in row.items()}
        for row in engine.find("attendances", "smoker", True)
    ]


def _errors(rejected):
    return [(i, type(e).__name__, str(e)) for i, e in rejected]


def _engine(seed_keys) -> StorageEngine:
    """A store that already holds some keys (duplicates against the index)."""
    engine = StorageEngine()
    engine.create_table(
        "attendances", SCHEMA, primary_key="visit_id", not_null=NOT_NULL
    )
    engine.create_index("attendances", "smoker")
    with engine.transaction():
        for key in sorted(seed_keys):
            engine.insert("attendances", {"visit_id": key, "note": "seed"})
    return engine


def _one_at_a_time(engine, rows):
    accepted, rejected = [], []
    with engine.transaction():
        for i, row in enumerate(rows):
            try:
                accepted.append(engine.insert("attendances", row))
            except ReproError as exc:
                rejected.append((i, exc))
    return accepted, rejected


def _reference_insert_visits(engine, rows, quarantine, batch):
    """The per-row intake loop the batch insert replaced."""
    accepted = []
    with engine.transaction():
        for index, row in enumerate(rows):
            try:
                accepted.append(engine.insert("attendances", row))
            except ReproError as exc:
                divert(
                    quarantine, "oltp", row, exc, batch=batch, source_index=index
                )
    return accepted


def _reference_insert(seed_keys, rows):
    """Row by row: unknown columns, then per schema column a null in a
    key or not-null column or a value its dtype cannot hold, then the
    primary key against everything stored so far."""
    stored = {i: {"visit_id": k, "note": "seed"} for i, k in enumerate(sorted(seed_keys))}
    keys = set(seed_keys)
    accepted, rejected = [], []
    for position, row in enumerate(rows):
        try:
            unknown = set(row) - set(SCHEMA) - {"row_id"}
            if unknown:
                raise StorageError(
                    f"unknown columns {sorted(unknown)} for table 'attendances'"
                )
            clean = {}
            for name, dtype in SCHEMA.items():
                value = row.get(name)
                if value is None:
                    if name in NOT_NULL or name == "visit_id":
                        raise IntegrityError(
                            f"column attendances.{name} may not be null"
                        )
                    clean[name] = None
                else:
                    clean[name] = coerce_value(value, DType(dtype))
            if clean["visit_id"] in keys:
                raise IntegrityError(
                    f"duplicate primary key {clean['visit_id']!r} in table "
                    f"'attendances'"
                )
        except (DTypeError, IntegrityError, StorageError) as exc:
            rejected.append((position, exc))
            continue
        keys.add(clean["visit_id"])
        row_id = len(stored)
        stored[row_id] = {
            name: clean.get(name) for name in SCHEMA
        }
        accepted.append(row_id)
    bits = {
        row_id: {k: _bits(row.get(k)) for k in SCHEMA}
        for row_id, row in stored.items()
    }
    return accepted, rejected, bits


_SEEDS = st.sets(st.integers(1, 12), max_size=4)


@settings(max_examples=150, deadline=None)
@given(table=batches(), seed_keys=_SEEDS)
def test_batch_insert_equals_rows_one_at_a_time(table, seed_keys):
    rows = table.to_rows()
    per_row = _engine(seed_keys)
    expected_ids, expected_rejected = _one_at_a_time(per_row, rows)

    batched = _engine(seed_keys)
    with batched.transaction():
        accepted, rejected = batched.insert("attendances", table)

    assert accepted == expected_ids
    assert _errors(rejected) == _errors(expected_rejected)
    assert _stored(batched) == _stored(per_row)
    ref_ids, ref_rejected, ref_rows = _reference_insert(seed_keys, rows)
    assert accepted == ref_ids
    assert _errors(rejected) == _errors(ref_rejected)
    assert _stored(batched) == ref_rows
    assert _found(batched) == _found(per_row)
    # one insert call is one log entry, and it replays to the same rows
    assert len(batched.wal) == len(seed_keys) + (1 if accepted else 0)
    replayed = StorageEngine()
    replayed.create_table(
        "attendances", SCHEMA, primary_key="visit_id", not_null=NOT_NULL
    )
    replay_into(replayed, batched.wal)
    assert _stored(replayed) == _stored(batched)


def _entries(sink: ListSink):
    return [
        (e.step, e.error_type, e.reason, e.batch, e.source_index,
         {k: _bits(v) for k, v in e.row.items()})
        for e in sink.entries
    ]


@settings(max_examples=100, deadline=None)
@given(table=batches(), seed_keys=_SEEDS)
def test_intake_with_a_sink_diverts_what_the_row_loop_diverted(table, seed_keys):
    per_row, expected_sink = _engine(seed_keys), ListSink()
    expected = _reference_insert_visits(
        per_row, table.to_rows(), expected_sink, "b1"
    )
    batched, sink = _engine(seed_keys), ListSink()
    accepted = _insert_visits(
        batched, table, range(table.num_rows), sink, "b1"
    )
    assert accepted == expected
    assert _entries(sink) == _entries(expected_sink)
    assert _stored(batched) == _stored(per_row)


@settings(max_examples=100, deadline=None)
@given(table=batches(), seed_keys=_SEEDS)
def test_intake_without_a_sink_raises_the_first_error(table, seed_keys):
    per_row = _engine(seed_keys)
    try:
        expected = _reference_insert_visits(per_row, table.to_rows(), None, "b1")
        expected_error = None
    except ReproError as exc:
        expected_error = (type(exc).__name__, str(exc))
    batched = _engine(seed_keys)
    try:
        accepted = _insert_visits(
            batched, table, range(table.num_rows), None, "b1"
        )
        error = None
    except ReproError as exc:
        error = (type(exc).__name__, str(exc))
    assert error == expected_error
    if error is None:
        assert accepted == expected
    # a raised error rolled the whole transaction back
    assert _stored(batched) == _stored(per_row)
    assert batched.row_count("attendances") == (
        len(seed_keys) + (0 if error else len(accepted))
    )


def test_first_otherwise_valid_occurrence_of_a_key_wins():
    engine = _engine(seed_keys={1})
    table = Table.from_rows(
        [
            {"visit_id": 1, "note": "dup of a stored key"},
            {"visit_id": 2, "note": None},  # refused: note is not-null
            {"visit_id": 2, "note": "first valid 2"},
            {"visit_id": 2, "note": "second valid 2"},
            {"visit_id": None, "note": "null key"},
        ],
        schema={"visit_id": "int", "note": "str"},
    )
    with engine.transaction():
        accepted, rejected = engine.insert("attendances", table)
    assert len(accepted) == 1
    assert engine.get_by_pk("attendances", 2)["note"] == "first valid 2"
    assert [(i, type(e)) for i, e in rejected] == [
        (0, IntegrityError), (1, IntegrityError), (3, IntegrityError),
        (4, IntegrityError),
    ]
    assert "duplicate primary key 2" in str(rejected[2][1])


def test_rollback_removes_the_whole_batch():
    engine = _engine(seed_keys=())
    table = Table.from_rows(
        [{"visit_id": k, "note": "x"} for k in range(1, 6)],
        schema={"visit_id": "int", "note": "str"},
    )
    with pytest.raises(RuntimeError):
        with engine.transaction():
            engine.insert("attendances", table)
            raise RuntimeError("abort")
    assert engine.row_count("attendances") == 0
    assert engine.get_by_pk("attendances", 3) is None
    assert len(engine.wal) == 0


def test_foreign_keys_are_probed_per_row():
    engine = StorageEngine()
    engine.create_table("patients", {"pid": "int"}, primary_key="pid")
    engine.create_table(
        "visits", {"vid": "int", "pid": "int"}, primary_key="vid",
        foreign_keys={"pid": ("patients", "pid")},
    )
    with engine.transaction():
        engine.insert("patients", Table.from_rows([{"pid": 1}, {"pid": 2}]))
        accepted, rejected = engine.insert(
            "visits",
            Table.from_rows(
                [{"vid": 10, "pid": 1}, {"vid": 11, "pid": 9},
                 {"vid": 12, "pid": None}]
            ),
        )
    assert len(accepted) == 2
    assert [(i, str(e)) for i, e in rejected] == [
        (1, "visits.pid=9 has no match in patients.pid")
    ]
