"""Columnar table engine — the in-memory substrate under every other layer.

This package is a small, dependency-free (numpy only) replacement for the
slice of pandas the DD-DGMS stack needs: typed columns with null masks,
filtering via composable expressions, group-by aggregation and CSV
round-trips.

Quick tour::

    from repro.tabular import Table, col

    t = Table.from_rows(
        [{"age": 61, "sex": "F"}, {"age": 45, "sex": "M"}],
        schema={"age": "int", "sex": "str"},
    )
    older = t.filter(col("age") > 50)
    by_sex = t.groupby("sex").agg(n=("age", "count"), mean_age=("age", "mean"))
"""

from repro.tabular.dtypes import DType
from repro.tabular.column import Column
from repro.tabular.expressions import Expression, col, lit
from repro.tabular.factorize import Factorization, factorize, factorize_column
from repro.tabular.table import Table
from repro.tabular.groupby import GroupBy
from repro.tabular.csvio import read_csv, write_csv

__all__ = [
    "DType",
    "Column",
    "Expression",
    "col",
    "lit",
    "Factorization",
    "factorize",
    "factorize_column",
    "Table",
    "GroupBy",
    "read_csv",
    "write_csv",
]
