"""Tests for the durable file primitives (atomic writes, framing, blocks)."""

import datetime as dt
import struct

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ChecksumError, InjectedFault
from repro.storage import faults
from repro.storage.durable import (
    FRAME_OVERHEAD,
    ColumnBlock,
    atomic_write_bytes,
    atomic_write_json,
    crc32_hex,
    decode_block,
    encode_block,
    encode_frame,
    json_decode_value,
    json_encode_value,
    scan_frames,
    verify_digest,
)
from repro.storage.faults import FaultPlan, FaultRule
from repro.tabular.column import Column
from repro.tabular.table import Table

# synthetic atomic-write point used below ("p" fires "p.rename" too)
faults.register_point("p")
faults.register_point("p.rename")


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert target.read_bytes() == b"two"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_kill_during_temp_write_preserves_old_file(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write_bytes(target, b"old")
        plan = FaultPlan([FaultRule("p", mode="kill")])
        with faults.injected(plan):
            with pytest.raises(faults.SimulatedCrash):
                atomic_write_bytes(target, b"new", point="p")
        assert target.read_bytes() == b"old"

    def test_kill_before_rename_preserves_old_file(self, tmp_path):
        target = tmp_path / "f.bin"
        atomic_write_bytes(target, b"old")
        plan = FaultPlan([FaultRule("p.rename", mode="kill")])
        with faults.injected(plan):
            with pytest.raises(faults.SimulatedCrash):
                atomic_write_bytes(target, b"new", point="p")
        # the temp file is complete but the target was never replaced
        assert target.read_bytes() == b"old"
        assert (tmp_path / "f.bin.tmp").read_bytes() == b"new"

    def test_error_fault_is_an_exception_not_a_crash(self, tmp_path):
        target = tmp_path / "f.bin"
        plan = FaultPlan([FaultRule("p", mode="error")])
        with faults.injected(plan):
            with pytest.raises(InjectedFault):
                atomic_write_bytes(target, b"x", point="p")
        assert not target.exists()

    def test_json_helper(self, tmp_path):
        target = tmp_path / "f.json"
        atomic_write_json(target, {"a": 1})
        assert target.read_bytes() == b'{"a": 1}'


class TestFraming:
    def _stream(self, payloads, start_seq=1):
        out = b""
        for i, payload in enumerate(payloads):
            out += encode_frame(payload, start_seq + i)
        return out

    def test_round_trip(self):
        data = self._stream([b"alpha", b"", b"gamma"])
        scan = scan_frames(data)
        assert [f.payload for f in scan.frames] == [b"alpha", b"", b"gamma"]
        assert [f.seq for f in scan.frames] == [1, 2, 3]
        assert scan.valid_end == len(data)
        assert not scan.torn and scan.corrupt_at is None

    @pytest.mark.parametrize("cut", range(1, FRAME_OVERHEAD + 5))
    def test_torn_tail_at_every_cut(self, cut):
        data = self._stream([b"alpha", b"beta-beta"])
        cut_data = data[:-cut]
        scan = scan_frames(cut_data)
        assert scan.torn
        assert scan.corrupt_at is None
        # everything before the torn frame survives
        intact = [f.payload for f in scan.frames]
        assert intact in ([b"alpha"], [b"alpha", b"beta-beta"][:1])

    def test_corrupt_final_frame_is_torn_not_corrupt(self):
        data = bytearray(self._stream([b"alpha", b"beta"]))
        data[-2] ^= 0xFF  # damage inside the last frame's payload
        scan = scan_frames(bytes(data))
        assert scan.torn and scan.corrupt_at is None
        assert [f.payload for f in scan.frames] == [b"alpha"]

    def test_corrupt_middle_frame_is_flagged(self):
        frames = [b"alpha", b"beta", b"gamma"]
        data = bytearray(self._stream(frames))
        # flip a byte inside the second frame's payload
        offset = len(encode_frame(b"alpha", 1)) + FRAME_OVERHEAD
        data[offset] ^= 0xFF
        scan = scan_frames(bytes(data))
        assert scan.corrupt_at == len(encode_frame(b"alpha", 1))
        assert [f.payload for f in scan.frames] == [b"alpha"]

    def test_seq_is_checksummed(self):
        data = bytearray(encode_frame(b"x", 7) + encode_frame(b"y", 8))
        # tamper with the first frame's sequence number field
        struct.pack_into("<Q", data, 8, 99)
        scan = scan_frames(bytes(data))
        assert scan.corrupt_at == 0


class TestDigests:
    def test_verify_digest_ok(self, tmp_path):
        target = tmp_path / "d.bin"
        target.write_bytes(b"payload")
        assert verify_digest(target, crc32_hex(b"payload")) == b"payload"

    def test_verify_digest_mismatch(self, tmp_path):
        target = tmp_path / "d.bin"
        target.write_bytes(b"payload!")
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            verify_digest(target, crc32_hex(b"payload"))


class TestJsonValues:
    def test_date_round_trip(self):
        day = dt.date(2013, 4, 8)
        encoded = json_encode_value(day)
        assert encoded == {"__date__": "2013-04-08"}
        assert json_decode_value(encoded) == day

    def test_plain_values_untouched(self):
        for value in (1, 1.5, "2013-04-08", None, True):
            assert json_decode_value(json_encode_value(value)) == value


_CELLS = {
    "int": st.integers(-(2**63), 2**63 - 1),
    "float": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, -0.0, float("nan")]),
    ),
    "str": st.text(),
    "bool": st.booleans(),
    "date": st.dates(),
}


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 20))
    names = draw(st.lists(st.text(min_size=1, max_size=4), unique=True, max_size=6))
    columns = {}
    for name in names:
        dtype = draw(st.sampled_from(sorted(_CELLS)))
        cells = draw(
            st.lists(st.one_of(st.none(), _CELLS[dtype]), min_size=n, max_size=n)
        )
        columns[name] = Column.from_values(cells, dtype)
    return Table(columns) if columns else Table({"k": Column.nulls("int", n)})


class TestColumnBlocks:
    @settings(max_examples=100, deadline=None)
    @given(table=_tables(), name=st.text(max_size=5))
    def test_round_trip_is_bit_exact(self, table, name):
        row_ids = np.arange(5, 5 + table.num_rows, dtype=np.int64)
        back = decode_block(encode_block(ColumnBlock(name, row_ids, table)))
        assert back.table == name
        assert back.row_ids.tolist() == row_ids.tolist()
        assert back.rows.column_names == table.column_names
        for column_name in table.column_names:
            ours, theirs = table.column(column_name), back.rows.column(column_name)
            assert theirs.dtype is ours.dtype
            assert theirs.valid.tolist() == ours.valid.tolist()
            valid = ours.valid
            if ours.dtype.value == "str":
                assert theirs.data[valid].tolist() == ours.data[valid].tolist()
            else:  # NaN payloads and -0.0 included
                assert theirs.data[valid].tobytes() == ours.data[valid].tobytes()

    def test_decoded_columns_are_writable_copies(self):
        table = Table({"x": Column.from_values([1.5, None], "float")})
        back = decode_block(encode_block(ColumnBlock("t", np.arange(2), table)))
        assert back.rows.column("x").data.flags.writeable

    @pytest.mark.parametrize("damage", ["magic", "truncated", "trailing"])
    def test_malformed_blocks_raise_value_error(self, damage):
        table = Table({"x": Column.from_values([1, 2, 3], "int")})
        data = encode_block(ColumnBlock("t", np.arange(3), table))
        data = {
            "magic": b"XXXX" + data[4:],
            "truncated": data[:-5],
            "trailing": data + b"\x00",
        }[damage]
        with pytest.raises(ValueError):
            decode_block(data)
