"""Shared planner-suite helpers: one tiny star and its base-scan oracle.

The star has three levels (``d1.a`` x4, ``d1.b`` x3, ``d2.c`` x5), an
additive int measure ``m`` and a non-additive float measure ``v`` with
nulls — enough shape for exact hits, partial rollups, filtered cells
and mean recomposition, small enough that property tests can rebuild it
per example.
"""

from __future__ import annotations

from repro.olap.cube import Cube
from repro.tabular.table import Table
from repro.warehouse.dimension import Dimension
from repro.warehouse.fact import Measure
from repro.warehouse.loader import DimensionSpec, WarehouseLoader

SCHEMA = {"a": "str", "b": "str", "c": "int", "m": "int", "v": "float"}

#: qualified level names of the test star
LEVELS = ("d1.a", "d1.b", "d2.c")


def build_cube(rows, storage=None) -> Cube:
    """A published managed cube over ``rows`` (dicts in SCHEMA shape)."""
    loader = WarehouseLoader(
        "m", "f",
        [
            DimensionSpec(Dimension("d1", {"a": "str", "b": "str"})),
            DimensionSpec(Dimension("d2", {"c": "int"})),
        ],
        [
            Measure.of("m", "int", "sum", additive=True),
            Measure.of("v", "float", "mean"),
        ],
    )
    loader.load(Table.from_rows(rows, schema=SCHEMA))
    cube = Cube(loader.schema, managed=True)
    if storage is not None:
        cube.attach_storage(storage)
    cube.publish()
    return cube


def base_scan(cube, levels, aggregations=None, filters=None, *, state=None):
    """The route-parity oracle: the request answered by the base scan alone.

    Drives the pipeline's bottom rung directly (plan, then scan) — no
    cache, no lattice — so using it between routed queries leaves the
    lattice's hit counts and the planner's route counts untouched.
    """
    state = state if state is not None else cube._current_state()
    plan = cube._plan(state, levels, aggregations, filters)
    return cube._scan_base(plan, state)


def default_rows(n: int = 24) -> list[dict]:
    """A deterministic row set covering every member at least once."""
    rows = []
    for i in range(n):
        rows.append(
            {
                "a": f"a{i % 4}",
                "b": f"b{i % 3}",
                "c": i % 5,
                "m": (i * 7) % 23,
                "v": None if i % 6 == 5 else float(i % 11) / 4.0,
            }
        )
    return rows

