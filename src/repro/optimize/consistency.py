"""Consistency of optimal aggregates under dimension changes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import OptimizationError, WarehouseError
from repro.olap.cube import Cube, CubeSnapshot, CubeState
from repro.serving.epoch import next_epoch_id
from repro.tabular.table import Table
from repro.warehouse.dimension import UNKNOWN_KEY, Dimension
from repro.warehouse.dynamic import DynamicWarehouse
from repro.warehouse.star import StarSchema


@dataclass(frozen=True)
class OptimalAggregate:
    """The best cell of an aggregation: which members, what value."""

    levels: tuple[str, ...]
    cell: tuple
    value: float
    aggregation: str
    direction: str

    def describe(self) -> str:
        """E.g. ``max mean(fbg) at (age_band=60-80, gender=F): 7.84``."""
        members = ", ".join(
            f"{level.split('.')[-1]}={value}"
            for level, value in zip(self.levels, self.cell)
        )
        return f"{self.direction} {self.aggregation} at ({members}): {self.value:g}"


def find_optimal_aggregate(
    cube: Cube,
    levels: Sequence[str],
    target: str,
    aggregation: str = "mean",
    direction: str = "max",
    min_records: int = 1,
) -> OptimalAggregate:
    """The cell with the extreme aggregate value over the given levels.

    Cells supported by fewer than ``min_records`` facts are skipped —
    a one-patient cell is never a defensible "optimal regimen".
    """
    if direction not in ("max", "min"):
        raise OptimizationError(f"direction must be max or min, got {direction!r}")
    qualified = tuple(cube.check_level(level) for level in levels)
    table = cube.aggregate(
        list(qualified),
        {"value": (target, aggregation), "n": (Cube.RECORDS, "size")},
    )
    best: OptimalAggregate | None = None
    for row in table.iter_rows():
        if row["n"] is None or row["n"] < min_records or row["value"] is None:
            continue
        value = float(row["value"])
        cell = tuple(row[level] for level in qualified)
        better = (
            best is None
            or (direction == "max" and value > best.value)
            or (direction == "min" and value < best.value)
        )
        if better:
            best = OptimalAggregate(
                qualified, cell, value, f"{aggregation}({target})", direction
            )
    if best is None:
        raise OptimizationError(
            f"no cell over {list(levels)} has at least {min_records} records"
        )
    return best


@dataclass
class ConsistencyReport:
    """Outcome of perturbing the dimensional model around an optimum."""

    baseline: OptimalAggregate
    perturbations: list[tuple[str, OptimalAggregate]] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """True when every perturbation found the same optimal cell."""
        return all(
            found.cell == self.baseline.cell
            and abs(found.value - self.baseline.value) < 1e-9
            for __, found in self.perturbations
        )

    def summary(self) -> str:
        """Readable report."""
        lines = [f"baseline: {self.baseline.describe()}"]
        for action, found in self.perturbations:
            same = "SAME" if found.cell == self.baseline.cell else "CHANGED"
            lines.append(f"after {action}: {found.describe()} [{same}]")
        lines.append(f"consistent: {self.consistent}")
        return "\n".join(lines)


def check_dimension_consistency(
    warehouse: DynamicWarehouse,
    levels: Sequence[str],
    target: str,
    aggregation: str = "mean",
    direction: str = "max",
    min_records: int = 1,
    removable: Sequence[str] | None = None,
    addable: Sequence[tuple[Dimension, Sequence[int] | None]] = (),
) -> ConsistencyReport:
    """Verify the paper's claim: the optimum survives dimension changes.

    Dimensions named in ``removable`` (none of which may appear in
    ``levels``) are removed one at a time; each entry of ``addable`` is
    attached likewise, its fact keys defaulting to Unknown.  Each change
    is a what-if view over one flattening of the warehouse — the flat
    view with that dimension's columns dropped or added — so the
    warehouse itself is never changed.
    """
    cube = Cube(warehouse)
    baseline = find_optimal_aggregate(
        cube, levels, target, aggregation, direction, min_records
    )
    used_dims = {cube.check_level(level).split(".")[0] for level in levels}
    report = ConsistencyReport(baseline)
    state = cube._current_state()

    def optimum(flat: Table, qattrs: dict) -> OptimalAggregate:
        view = CubeState(next_epoch_id(), state.schema_version, flat, qattrs)
        return find_optimal_aggregate(
            CubeSnapshot(cube, view), levels, target, aggregation, direction,
            min_records,
        )

    for name in removable or []:
        if name in used_dims:
            raise OptimizationError(
                f"cannot remove dimension {name!r}: it carries a grouping level"
            )
        if name not in warehouse.dimension_names:
            raise WarehouseError(f"warehouse has no dimension {name!r}")
        dropped = [q for q, (dim, _) in state.qattrs.items() if dim == name]
        kept = {q: v for q, v in state.qattrs.items() if v[0] != name}
        found = optimum(state.flat.drop(*dropped), kept)
        report.perturbations.append((f"remove {name}", found))

    for dimension, keys in addable:
        if dimension.name in warehouse.schema.dimensions:
            raise WarehouseError(
                f"warehouse already has a dimension named {dimension.name!r}"
            )
        rows = state.flat.num_rows
        if keys is None:
            keys = [UNKNOWN_KEY] * rows
        elif len(keys) != rows:
            raise WarehouseError(f"{len(keys)} keys supplied for {rows} fact rows")
        flat, qattrs = state.flat, dict(state.qattrs)
        added = StarSchema.dimension_columns(dimension, [int(k) for k in keys])
        for qualified, column in added.items():
            flat = flat.with_column(qualified, column)
            qattrs[qualified] = (dimension.name, qualified.split(".", 1)[1])
        found = optimum(flat, qattrs)
        report.perturbations.append((f"add {dimension.name}", found))
    return report
