"""Consistency of optimal aggregates under dimension changes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import OptimizationError
from repro.olap.cube import Cube
from repro.warehouse.dimension import Dimension
from repro.warehouse.dynamic import DynamicWarehouse


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
    ``levels``) are removed one at a time and re-attached; each entry of
    ``addable`` is attached and detached likewise.  The warehouse is left
    in its original composition, dimension order included.
    """
    cube = Cube(warehouse)
    baseline = find_optimal_aggregate(
        cube, levels, target, aggregation, direction, min_records
    )
    used_dims = {cube.check_level(level).split(".")[0] for level in levels}
    report = ConsistencyReport(baseline)

    for name in removable or []:
        if name in used_dims:
            raise OptimizationError(
                f"cannot remove dimension {name!r}: it carries a grouping level"
            )
        key_col = f"{name}_key"
        saved_keys = [row[key_col] for row in warehouse.schema.fact._rows]
        position = warehouse.dimension_names.index(name)
        removed = warehouse.remove_dimension(name)
        try:
            found = find_optimal_aggregate(
                Cube(warehouse), levels, target, aggregation, direction, min_records
            )
            report.perturbations.append((f"remove {name}", found))
        finally:
            warehouse.add_dimension(
                removed, fact_keys=saved_keys, position=position
            )

    for dimension, keys in addable:
        warehouse.add_dimension(dimension, fact_keys=keys)
        try:
            found = find_optimal_aggregate(
                Cube(warehouse), levels, target, aggregation, direction, min_records
            )
            report.perturbations.append((f"add {dimension.name}", found))
        finally:
            warehouse.remove_dimension(dimension.name)
    return report
