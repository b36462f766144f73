"""Star and snowflake schemas: the dimensional model of paper Figs. 1 & 3."""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import DimensionError, WarehouseError
from repro.tabular.column import Column
from repro.tabular.dtypes import DType
from repro.tabular.table import Table
from repro.warehouse.dimension import UNKNOWN_KEY, Dimension
from repro.warehouse.fact import FactTable


class SnowflakeDimension(Dimension):
    """A dimension with normalised *outrigger* sub-dimensions.

    Members carry a surrogate key into each outrigger instead of repeating
    its attributes; attribute lookup transparently resolves through the
    outrigger, so the OLAP layer treats star and snowflake uniformly (the
    paper presents both as one structure, "a star or snowflake structure").
    """

    def __init__(
        self,
        name: str,
        attributes: Mapping[str, DType | str],
        outriggers: Mapping[str, Dimension] | None = None,
        natural_key: list[str] | None = None,
        hierarchies: Iterable = (),
    ):
        self.outriggers: dict[str, Dimension] = dict(outriggers or {})
        own = dict(attributes)
        for rigger_name, rigger in self.outriggers.items():
            key_attr = f"{rigger_name}_key"
            if key_attr in own:
                raise DimensionError(
                    f"snowflake dimension {name!r}: attribute {key_attr!r} "
                    "collides with an outrigger key"
                )
            own[key_attr] = DType.INT
            collisions = set(rigger.attributes) & set(attributes)
            if collisions:
                raise DimensionError(
                    f"snowflake dimension {name!r}: outrigger {rigger_name!r} "
                    f"attributes {sorted(collisions)} collide with own attributes"
                )
        super().__init__(name, own, natural_key=natural_key, hierarchies=hierarchies)

    def resolved_attributes(self) -> list[str]:
        """Own attributes (minus outrigger keys) plus outrigger attributes."""
        own = [
            a for a in self.attributes
            if not any(a == f"{r}_key" for r in self.outriggers)
        ]
        for rigger in self.outriggers.values():
            own.extend(rigger.attributes)
        return own

    def attribute_of(self, key: int, attribute: str) -> object:
        """Resolve an attribute, following outriggers when needed."""
        if attribute in self.attributes:
            return super().attribute_of(key, attribute)
        for rigger_name, rigger in self.outriggers.items():
            if attribute in rigger.attributes:
                rigger_key = super().attribute_of(key, f"{rigger_name}_key")
                if rigger_key is None:
                    return None
                return rigger.attribute_of(int(rigger_key), attribute)  # type: ignore[arg-type]
        raise DimensionError(
            f"dimension {self.name!r} has no attribute {attribute!r} "
            "(searched outriggers too)"
        )

    def member_resolved(self, key: int) -> dict[str, object]:
        """Member attributes with outriggers flattened in."""
        return {attr: self.attribute_of(key, attr) for attr in self.resolved_attributes()}


class StarSchema:
    """A fact table wired to its dimensions, with integrity checking.

    ``flatten()`` denormalises the whole schema into one wide table whose
    dimension attributes are named ``<dimension>.<attribute>`` — the input
    the OLAP cube builder consumes.
    """

    def __init__(self, name: str, fact: FactTable, dimensions: Iterable[Dimension]):
        self.name = name
        self.fact = fact
        self.dimensions: dict[str, Dimension] = {d.name: d for d in dimensions}
        missing = set(fact.dimension_names) - set(self.dimensions)
        if missing:
            raise WarehouseError(
                f"star schema {name!r}: fact grain references dimensions "
                f"{sorted(missing)} that were not supplied"
            )

    def dimension(self, name: str) -> Dimension:
        """Look up a dimension by name."""
        try:
            return self.dimensions[name]
        except KeyError:
            raise DimensionError(
                f"schema {self.name!r} has no dimension {name!r} "
                f"(has: {', '.join(self.dimensions)})"
            ) from None

    def check_integrity(self) -> list[str]:
        """Referential check: every fact key resolves to a member.

        Returns a list of violation descriptions (empty == consistent).
        """
        problems: list[str] = []
        facts = self.fact.to_table()
        for dim_name in self.fact.dimension_names:
            dimension = self.dimension(dim_name)
            key_col = f"{dim_name}_key"
            valid_keys = set(dimension.member_keys()) | {UNKNOWN_KEY}
            for i, key in enumerate(facts.column(key_col).to_list()):
                if key not in valid_keys:
                    problems.append(
                        f"fact row {i}: {key_col}={key} has no member in "
                        f"dimension {dim_name!r}"
                    )
        return problems

    def qualified_attributes(self) -> dict[str, tuple[str, str]]:
        """``"dim.attr"`` → (dimension, attribute) for every attribute."""
        out: dict[str, tuple[str, str]] = {}
        for dim_name in self.fact.dimension_names:
            dimension = self.dimension(dim_name)
            if isinstance(dimension, SnowflakeDimension):
                attrs = dimension.resolved_attributes()
            else:
                attrs = list(dimension.attributes)
            for attr in attrs:
                out[f"{dim_name}.{attr}"] = (dim_name, attr)
        return out

    def flatten(self, start: int = 0) -> Table:
        """Denormalise facts + all dimension attributes into one wide table.

        Column layout: each dimension attribute as ``dim.attr``, then each
        measure under its own name.  Unknown members contribute nulls.

        ``start`` restricts the walk to fact rows appended at that
        position on (the O(batch) flatten a delta publish needs); the
        default flattens the full history.
        """
        facts = self.fact.to_table() if start == 0 else self.fact.to_table_from(start)
        columns: dict[str, Column] = {}
        for dim_name in self.fact.dimension_names:
            columns.update(
                self.dimension_columns(
                    self.dimension(dim_name),
                    facts.column(f"{dim_name}_key").to_list(),
                )
            )
        for measure_name, measure in self.fact.measures.items():
            columns[measure_name] = facts.column(measure_name)
        return Table(columns)

    @classmethod
    def dimension_columns(
        cls, dimension: Dimension, keys: list[int]
    ) -> dict[str, Column]:
        """``dim.attr`` → column of ``dimension``'s attributes, one row per key."""
        if isinstance(dimension, SnowflakeDimension):
            attrs = dimension.resolved_attributes()
            members = {k: dimension.member_resolved(k) for k in set(keys)}
        else:
            attrs = list(dimension.attributes)
            members = {k: dimension.member(k) for k in set(keys)}
        return {
            f"{dimension.name}.{attr}": Column.from_values(
                [members[k][attr] for k in keys],
                dtype=cls._attr_dtype(dimension, attr),
            )
            for attr in attrs
        }

    @staticmethod
    def _attr_dtype(dimension: Dimension, attr: str) -> DType:
        if attr in dimension.attributes:
            return dimension.attributes[attr].dtype
        if isinstance(dimension, SnowflakeDimension):
            for rigger in dimension.outriggers.values():
                if attr in rigger.attributes:
                    return rigger.attributes[attr].dtype
        raise DimensionError(
            f"dimension {dimension.name!r} has no attribute {attr!r}"
        )

    def __repr__(self) -> str:
        return (
            f"StarSchema({self.name!r}, fact={self.fact.name!r} "
            f"[{self.fact.num_rows} rows], dims=[{', '.join(self.dimensions)}])"
        )
