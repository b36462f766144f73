"""System catalog: table metadata (schemas, keys, constraints)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import StorageError, TableExistsError, TableNotFoundError
from repro.tabular.dtypes import DType


@dataclass
class TableMeta:
    """Metadata for one stored table."""

    name: str
    schema: dict[str, DType]
    primary_key: str | None = None
    not_null: frozenset[str] = frozenset()
    #: schema version, carried through snapshots
    version: int = 1
    #: foreign keys: local column -> (table, column)
    foreign_keys: dict[str, tuple[str, str]] = field(default_factory=dict)

    def validate(self) -> None:
        """Check internal consistency of the declaration."""
        if not self.schema:
            raise StorageError(f"table {self.name!r} declared with no columns")
        if self.primary_key is not None and self.primary_key not in self.schema:
            raise StorageError(
                f"primary key {self.primary_key!r} is not a column of "
                f"table {self.name!r}"
            )
        unknown = set(self.not_null) - set(self.schema)
        if unknown:
            raise StorageError(
                f"not-null constraint on unknown columns {sorted(unknown)} "
                f"in table {self.name!r}"
            )
        for local, (ref_table, ref_col) in self.foreign_keys.items():
            if local not in self.schema:
                raise StorageError(
                    f"foreign key column {local!r} is not a column of "
                    f"table {self.name!r}"
                )


class Catalog:
    """Registry of table metadata for one engine instance."""

    def __init__(self) -> None:
        self._metas: dict[str, TableMeta] = {}

    def create(
        self,
        name: str,
        schema: Mapping[str, DType | str],
        primary_key: str | None = None,
        not_null: set[str] | frozenset[str] = frozenset(),
        foreign_keys: Mapping[str, tuple[str, str]] | None = None,
    ) -> TableMeta:
        """Register a new table; raises when the name is taken."""
        if name in self._metas:
            raise TableExistsError(f"table {name!r} already exists")
        meta = TableMeta(
            name=name,
            schema={k: DType.coerce(v) for k, v in schema.items()},
            primary_key=primary_key,
            not_null=frozenset(not_null),
            foreign_keys=dict(foreign_keys or {}),
        )
        meta.validate()
        for local, (ref_table, ref_col) in meta.foreign_keys.items():
            referenced = self.get(ref_table)
            if ref_col not in referenced.schema:
                raise StorageError(
                    f"foreign key {name}.{local} references unknown column "
                    f"{ref_table}.{ref_col}"
                )
        self._metas[name] = meta
        return meta

    def get(self, name: str) -> TableMeta:
        """Fetch metadata; raises :class:`TableNotFoundError` when absent."""
        try:
            return self._metas[name]
        except KeyError:
            known = ", ".join(sorted(self._metas)) or "(none)"
            raise TableNotFoundError(
                f"table {name!r} not found (known tables: {known})"
            ) from None

    def names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(self._metas)
