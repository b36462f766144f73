"""The classic DGMS baseline: DG-SQL over flat stores, no warehouse.

Used by bench P1 to compare architectures.  It supports the same four
phases as the DD-DGMS — but every multivariate question must be expressed
as a flat GROUP BY, there is no dimensional metadata (no hierarchies, so
no drill-down), no cardinality dimension (patient-distinct counts must be
written manually per query), and derived/feedback attributes require
schema surgery on the operational table.
"""

from __future__ import annotations

from repro.dgsql.executor import DGSQLExecutor
from repro.storage.engine import StorageEngine
from repro.tabular.table import Table


class ClassicDGMS:
    """DG-SQL-intermediated DGMS over one flat attendance table."""

    def __init__(self, source: Table, table_name: str = "attendances"):
        self.table_name = table_name
        self.engine = StorageEngine()
        self.engine.create_table(
            table_name, dict(source.schema), primary_key="visit_id"
        )
        with self.engine.transaction():
            _, rejected = self.engine.insert(table_name, source)
            if rejected:
                raise rejected[0][1]
        self.executor = DGSQLExecutor(self.engine)

    def query(self, sql: str):
        """Run one DG-SQL statement (SELECT / LEARN / PREDICT)."""
        return self.executor.execute(sql)

    def crosstab(self, row_column: str, col_column: str,
                 where: str = "") -> Table:
        """A two-way count the flat way: GROUP BY both columns.

        Note what is missing relative to the warehouse path: no member
        metadata (empty cells simply vanish), no hierarchy to drill, and
        the caller must already know both column names exist.
        """
        clause = f" WHERE {where}" if where else ""
        return self.query(
            f"SELECT {row_column}, {col_column}, COUNT(*) AS n "
            f"FROM {self.table_name}{clause} "
            f"GROUP BY {row_column}, {col_column}"
        )

    def distinct_patients(self, where: str = "") -> int:
        """Patient-distinct count, hand-written per query."""
        clause = f" WHERE {where}" if where else ""
        result = self.query(
            f"SELECT COUNT(DISTINCT patient_id) AS patients "
            f"FROM {self.table_name}{clause}"
        )
        return int(result.row(0)["patients"])

    def learn(self, model: str, target: str, features: list[str]) -> Table:
        """Phase 1 via DG-SQL LEARN."""
        return self.query(
            f"LEARN {model} PREDICTING {target} FROM {self.table_name} "
            f"USING {', '.join(features)}"
        )

    def predict(self, model: str, givens: dict[str, object]) -> dict:
        """Phase 2 via DG-SQL PREDICT."""
        rendered = ", ".join(
            f"{column} = {value!r}" if isinstance(value, str) else f"{column} = {value}"
            for column, value in givens.items()
        )
        return self.query(f"PREDICT {model} GIVEN {rendered}")
