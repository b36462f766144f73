"""The dynamic dimensional model — the paper's "elemental core".

A :class:`DynamicWarehouse` wraps a :class:`~repro.warehouse.star.StarSchema`
and supports live evolution:

* **add_dimension** — attach a new dimension with per-fact keys (existing
  analyses keep working; the paper's plasticity claim);
* **remove_dimension** — detach a dimension without touching measures;
* **fold_feedback** — run a :class:`FeedbackDimensionBuilder` over the
  flattened schema and attach the result;
* **history** — every change is journalled, because a clinical trial must
  be able to say which model version produced which finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import WarehouseError
from repro.tabular.table import Table
from repro.warehouse.dimension import UNKNOWN_KEY, Dimension
from repro.warehouse.feedback import FeedbackDimensionBuilder
from repro.warehouse.star import StarSchema


@dataclass(frozen=True)
class ModelChange:
    """One schema-evolution event."""

    version: int
    action: str
    dimension: str
    detail: str = ""


class DynamicWarehouse:
    """A star schema that can gain and lose dimensions at runtime."""

    def __init__(self, schema: StarSchema):
        self.schema = schema
        self.version = 1
        self.history: list[ModelChange] = [
            ModelChange(1, "create", schema.name,
                        f"initial dimensions: {', '.join(schema.fact.dimension_names)}")
        ]

    @property
    def dimension_names(self) -> list[str]:
        """Dimensions currently in the fact grain."""
        return list(self.schema.fact.dimension_names)

    def add_dimension(
        self,
        dimension: Dimension,
        fact_keys: Sequence[int] | None = None,
        default_key: int = UNKNOWN_KEY,
        position: int | None = None,
    ) -> None:
        """Attach ``dimension``; assign ``fact_keys`` per existing fact row.

        With ``fact_keys=None`` every existing fact maps to ``default_key``
        (typically Unknown), which is the "add a dimension for data we will
        only start collecting now" case.  ``position`` is where in the fact
        grain the dimension goes (default: last) — a probe that removed a
        dimension re-attaches it where it was, so the model lists its
        dimensions in the same order before and after.
        """
        if dimension.name in self.schema.dimensions:
            raise WarehouseError(
                f"warehouse already has a dimension named {dimension.name!r}"
            )
        fact = self.schema.fact
        if fact_keys is not None and len(fact_keys) != fact.num_rows:
            raise WarehouseError(
                f"{len(fact_keys)} keys supplied for {fact.num_rows} fact rows"
            )
        fact.add_dimension_column(dimension.name, default_key, position)
        if fact_keys is not None:
            key_col = f"{dimension.name}_key"
            for row, key in zip(fact._rows, fact_keys):
                row[key_col] = int(key)
            fact._cache = None
        dimensions = self.schema.dimensions
        dimensions[dimension.name] = dimension
        if position is not None:
            # the dimension dict follows the grain: move what now comes
            # after the newcomer behind it
            for name in fact.dimension_names[position + 1:]:
                dimensions[name] = dimensions.pop(name)
        self.version += 1
        self.history.append(
            ModelChange(
                self.version, "add_dimension", dimension.name,
                f"{dimension.size} members, keys "
                f"{'supplied' if fact_keys is not None else f'defaulted to {default_key}'}",
            )
        )

    def remove_dimension(self, name: str) -> Dimension:
        """Detach a dimension; returns it so it can be re-attached later."""
        if name not in self.schema.dimensions:
            raise WarehouseError(f"warehouse has no dimension {name!r}")
        if name not in self.schema.fact.dimension_names:
            raise WarehouseError(
                f"dimension {name!r} exists but is not part of the fact grain"
            )
        self.schema.fact.drop_dimension_column(name)
        removed = self.schema.dimensions.pop(name)
        self.version += 1
        self.history.append(
            ModelChange(self.version, "remove_dimension", name)
        )
        return removed

    def fold_feedback(self, builder: FeedbackDimensionBuilder) -> Dimension:
        """Evaluate feedback predicates over the current schema and attach.

        This is the closed-loop arrow of paper Fig. 2: outcomes derived by
        users become a dimension available to the *next* round of analysis.
        """
        flat = self.schema.flatten()
        dimension, keys = builder.build(flat)
        self.add_dimension(dimension, fact_keys=keys)
        self.history[-1] = ModelChange(
            self.version, "fold_feedback", dimension.name,
            f"labels: {', '.join(e.label for e in builder.entries)}",
        )
        return dimension

    def flatten(self) -> Table:
        """Denormalised view of the current model version."""
        return self.schema.flatten()

    def describe_history(self) -> str:
        """Human-readable journal of model evolution."""
        lines = []
        for change in self.history:
            detail = f" — {change.detail}" if change.detail else ""
            lines.append(f"v{change.version}: {change.action} {change.dimension}{detail}")
        return "\n".join(lines)
