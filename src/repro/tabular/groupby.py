"""Group-by aggregation over tables.

Aggregations are requested as ``output_name=(input_column, function)``
pairs, mirroring the named-aggregation style analysts already know::

    summary = table.groupby("age_group", "gender").agg(
        patients=("patient_id", "nunique"),
        mean_fbg=("fbg", "mean"),
    )

Supported functions: ``count`` (non-null), ``size`` (rows), ``sum``,
``mean``, ``min``, ``max``, ``std``, ``nunique``, ``first``, ``last``.

The key columns are factorised to dense group codes
(:mod:`repro.tabular.factorize`) and every function is a numpy segment
kernel over them — ``np.bincount`` for count/size, ``reduceat`` for
integer sums and min/max, sorted-segment reductions elsewhere.  Float
sum/mean/std reduce each group's values, in row order, with one
``np.sum``/``np.mean``/``np.std`` call rather than ``bincount``
accumulation, so a group's answer is exactly what numpy gives for that
group alone (pairwise and sequential float summation disagree in the
last ulp on large groups).

Semantics, checked against the independent row-at-a-time reference in
``tests/_kernel_reference.py`` over tables with nulls, NaN, ``±0.0``,
``1e16``-scale floats, dates, bools and strings in keys and values:

* groups appear in first-occurrence order; a null key forms a ``None``
  group; all NaN keys form one group; ``-0.0`` and ``0.0`` form one
  group, keyed by whichever came first;
* zero keys make one group over every row — SQL's aggregate without
  GROUP BY — so a grand total has exactly one row, even over no rows;
* ``count``/``sum``/``mean``/``std``/``min``/``max``/``nunique`` skip
  nulls and give ``None`` (``0`` for counts) when a group has no value;
  ``min``/``max`` propagate NaN; ``nunique`` counts NaN once and
  ``±0.0`` once; ``first``/``last`` are the group's first/last row's
  value, null included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.errors import ColumnNotFoundError, TabularError
from repro.tabular.column import Column
from repro.tabular.dtypes import DType
from repro.serving.resilience import checkpoint
from repro.tabular.factorize import Factorization, factorize, factorize_column

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tabular.table import Table


#: the aggregation functions ``GroupBy.agg`` accepts
FUNCTIONS = (
    "count", "size", "sum", "mean", "min",
    "max", "std", "nunique", "first", "last",
)

#: groups between cooperative cancellation checkpoints in the per-group
#: Python loops — coarse enough to be free, fine enough that a timed-out
#: query stops within a few hundred numpy calls
CHECK_EVERY_GROUPS = 256


class _GroupedColumn:
    """One input column, permuted into group order, with lazy projections.

    The lazy caches are lock-free but safe to race on: each property
    computes its value into locals, assigns any dependent attribute
    *before* the attribute that guards the fast path, and every
    computation is deterministic — concurrent first readers may duplicate
    work, never observe a torn state.
    """

    def __init__(self, column: Column, engine: "_VectorEngine"):
        self.column = column
        self.engine = engine
        self._svalid: np.ndarray | None = None
        self._pdata: np.ndarray | None = None
        self._pcodes: np.ndarray | None = None
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._valid_counts: np.ndarray | None = None
        self._pvcodes: np.ndarray | None = None
        self._n_value_codes = 0

    @property
    def svalid(self) -> np.ndarray:
        """Validity mask permuted into group order."""
        if self._svalid is None:
            self._svalid = self.column.valid[self.engine.order]
        return self._svalid

    @property
    def pdata(self) -> np.ndarray:
        """Non-null data, group-major, row-ascending within each group."""
        if self._pdata is None:
            svalid = self.svalid
            # _pcodes before _pdata: pcodes' fast path keys off _pdata
            self._pcodes = self.engine.sorted_codes[svalid]
            self._pdata = self.column.data[self.engine.order][svalid]
        return self._pdata

    @property
    def pcodes(self) -> np.ndarray:
        """Group code per element of :attr:`pdata`."""
        self.pdata
        return self._pcodes  # type: ignore[return-value]

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-group [start, end) offsets into :attr:`pdata`."""
        if self._bounds is None:
            groups = np.arange(self.engine.n_groups)
            self._bounds = (
                np.searchsorted(self.pcodes, groups, side="left"),
                np.searchsorted(self.pcodes, groups, side="right"),
            )
        return self._bounds

    @property
    def pvcodes(self) -> np.ndarray:
        """Factorised value codes aligned with :attr:`pdata` (for nunique)."""
        if self._pvcodes is None:
            codes, uniques = factorize_column(self.column)
            # _n_value_codes before _pvcodes: n_value_codes keys off _pvcodes
            self._n_value_codes = len(uniques)
            self._pvcodes = codes[self.engine.order][self.svalid]
        return self._pvcodes

    @property
    def n_value_codes(self) -> int:
        """Size of the value-code space behind :attr:`pvcodes`."""
        self.pvcodes
        return self._n_value_codes

    def valid_counts(self) -> np.ndarray:
        """Non-null element count per group."""
        if self._valid_counts is None:
            self._valid_counts = np.bincount(
                self.engine.codes[self.column.valid],
                minlength=self.engine.n_groups,
            )
        return self._valid_counts


class _VectorEngine:
    """Shared per-``agg()`` state: group codes sorted once, reused by all plans."""

    def __init__(self, fact: Factorization):
        self.fact = fact
        self.codes = fact.codes
        self.n_groups = fact.n_groups
        self.order = np.argsort(fact.codes, kind="stable")
        self.sorted_codes = fact.codes[self.order]
        self._columns: dict[int, _GroupedColumn] = {}
        self._sizes: np.ndarray | None = None

    def grouped(self, column: Column) -> _GroupedColumn:
        key = id(column)
        if key not in self._columns:
            self._columns[key] = _GroupedColumn(column, self)
        return self._columns[key]

    def sizes(self) -> np.ndarray:
        if self._sizes is None:
            self._sizes = np.bincount(self.codes, minlength=self.n_groups)
        return self._sizes

    def _per_group(
        self,
        starts: np.ndarray,
        ends: np.ndarray,
        one_group: Callable[[int, int], object],
    ) -> list[object]:
        """``[one_group(a, b) for a, b in zip(starts, ends)]``.

        The float reductions run one numpy call per group — a Python-level
        loop that dominates wide group-bys, so it checkpoints every
        :data:`CHECK_EVERY_GROUPS` groups.
        """
        out: list[object] = []
        for i, (a, b) in enumerate(zip(starts, ends)):
            if i % CHECK_EVERY_GROUPS == 0:
                checkpoint()  # cancellation point at chunk granularity
            out.append(one_group(int(a), int(b)))
        return out

    # -- kernels; each returns one Python value per group -----------------

    def count(self, column: Column) -> list[object]:
        return [int(c) for c in self.grouped(column).valid_counts()]

    def size(self, column: Column) -> list[object]:
        return [int(c) for c in self.sizes()]

    def sum(self, column: Column) -> list[object]:
        column._require_numeric("sum")
        g = self.grouped(column)
        starts, ends = g.bounds
        if column.dtype is DType.INT:
            # int64 addition is associative: reduceat == np.sum exactly
            sums = np.zeros(self.n_groups, dtype=np.int64)
            nonempty = ends > starts
            if g.pdata.size:
                sums[nonempty] = np.add.reduceat(g.pdata, starts[nonempty])
            return [
                int(s) if ne else None for s, ne in zip(sums, nonempty)
            ]
        pdata = g.pdata
        return self._per_group(
            starts, ends,
            lambda a, b: float(pdata[a:b].sum()) if b > a else None,
        )

    def mean(self, column: Column) -> list[object]:
        column._require_numeric("mean")
        g = self.grouped(column)
        starts, ends = g.bounds
        pdata = g.pdata
        return self._per_group(
            starts, ends,
            lambda a, b: float(pdata[a:b].mean()) if b > a else None,
        )

    def std(self, column: Column) -> list[object]:
        column._require_numeric("std")
        g = self.grouped(column)
        starts, ends = g.bounds
        pdata = g.pdata
        return self._per_group(
            starts, ends,
            lambda a, b: float(pdata[a:b].std()) if b > a else None,
        )

    def _extremum(self, column: Column, ufunc, py_reduce) -> list[object]:
        g = self.grouped(column)
        starts, ends = g.bounds
        if column.dtype is DType.STR:
            return [
                py_reduce(g.pdata[a:b].tolist()) if b > a else None
                for a, b in zip(starts, ends)
            ]
        out: list[object] = [None] * self.n_groups
        nonempty = np.flatnonzero(ends > starts)
        if len(nonempty):
            vals = ufunc.reduceat(g.pdata, starts[nonempty])
            for slot, v in zip(nonempty, vals):
                out[int(slot)] = column._to_python(v)
        return out

    def min(self, column: Column) -> list[object]:
        return self._extremum(column, np.minimum, min)

    def max(self, column: Column) -> list[object]:
        return self._extremum(column, np.maximum, max)

    def nunique(self, column: Column) -> list[object]:
        g = self.grouped(column)
        if g.pdata.size == 0:
            return [0] * self.n_groups
        # factorised values compare cheaply regardless of dtype (str included)
        p, n_values = g.pvcodes, g.n_value_codes
        cells = self.n_groups * n_values
        if cells <= max(4 * len(p), 1 << 16):
            # dense (group, value) occupancy grid: O(n) scatter, no sort
            seen = np.zeros(cells, dtype=bool)
            seen[g.pcodes * n_values + p] = True
            counts = seen.reshape(self.n_groups, n_values).sum(axis=1)
        else:
            within = np.lexsort((p, g.pcodes))
            values, codes = p[within], g.pcodes[within]
            new = np.ones(len(values), dtype=bool)
            new[1:] = (values[1:] != values[:-1]) | (codes[1:] != codes[:-1])
            counts = np.bincount(codes[new], minlength=self.n_groups)
        return [int(c) for c in counts]

    def first(self, column: Column) -> list[object]:
        if not len(self.codes):
            return [None] * self.n_groups  # the zero-key group over no rows
        return column.take(self.fact.first_rows).to_list()

    def last(self, column: Column) -> list[object]:
        if not len(self.codes):
            return [None] * self.n_groups
        ends = np.searchsorted(
            self.sorted_codes, np.arange(self.n_groups), side="right"
        )
        return column.take(self.order[ends - 1]).to_list()


class GroupBy:
    """Lazy grouping over key columns; ``agg`` materialises the result.

    Groups appear in order of first occurrence, keeping results stable and
    deterministic.  Rows whose key tuple contains a null still form a group
    keyed by ``None`` — clinical data is full of partially-known records and
    silently dropping them would bias counts.  With no keys the whole
    table is one group (a grand total).

    The factorisation of the key columns is computed once per ``GroupBy``
    and shared across ``agg()`` calls, so repeated aggregations over the
    same keys (the OLAP cube's access pattern) pay the grouping cost once.
    The lazy caches are deterministic and assigned whole, so concurrent
    readers sharing one ``GroupBy`` (the epoch-cached cube path) can at
    worst duplicate the factorisation, never corrupt it.
    """

    def __init__(self, table: "Table", keys: list[str]):
        for key in keys:
            if key not in table:
                raise ColumnNotFoundError(key, table.column_names)
        self.table = table
        self.keys = keys
        self._fact: Factorization | None = None
        self._engine: _VectorEngine | None = None

    def factorization(self) -> Factorization:
        """Dense group codes for the key columns (cached)."""
        if self._fact is None:
            obs.count("tabular.factorize.miss")
            with obs.span(
                "factorize", keys=",".join(self.keys), rows=len(self.table)
            ):
                self._fact = factorize(self.table, self.keys)
        else:
            obs.count("tabular.factorize.hit")
        return self._fact

    def _vector_engine(self) -> "_VectorEngine":
        """Sorted group order plus per-column projections (cached)."""
        if self._engine is None:
            self._engine = _VectorEngine(self.factorization())
        return self._engine

    def agg(self, **named: tuple[str, str]) -> "Table":
        """Aggregate each group; returns key columns plus one per request.

        The output schema is explicit: counts are ``int``, ``mean``/``std``
        are ``float`` and every other function keeps its input column's
        type, so all-null cells (a sum over an all-null measure, a grand
        total over no rows) never degrade to inferred ``str``.
        """
        from repro.tabular.table import Table

        if not named:
            raise TabularError("agg() requires at least one aggregation")
        plans: list[tuple[str, str, str]] = []
        for out_name, spec in named.items():
            if not (isinstance(spec, tuple) and len(spec) == 2):
                raise TabularError(
                    f"aggregation {out_name!r} must be (column, function), "
                    f"got {spec!r}"
                )
            in_name, func_name = spec
            if func_name not in FUNCTIONS:
                raise TabularError(
                    f"unknown aggregation {func_name!r} "
                    f"(valid: {', '.join(sorted(FUNCTIONS))})"
                )
            self.table.column(in_name)  # raise early if absent
            plans.append((out_name, in_name, func_name))

        with obs.span(
            "groupby.agg",
            keys=",".join(self.keys),
            rows=len(self.table),
            aggs=len(plans),
        ):
            engine = self._vector_engine()
            columns: dict[str, Column] = {
                key: self.table.column(key).take(engine.fact.first_rows)
                for key in self.keys
            }
            for out_name, in_name, func_name in plans:
                checkpoint()  # between plan kernels: each is one hot segment pass
                source = self.table.column(in_name)
                if func_name in ("count", "size", "nunique"):
                    dtype = DType.INT
                elif func_name in ("mean", "std"):
                    dtype = DType.FLOAT
                else:
                    dtype = source.dtype
                columns[out_name] = Column.from_values(
                    getattr(engine, func_name)(source), dtype=dtype
                )
        return Table(columns)

    def size(self) -> "Table":
        """Shorthand for a single row-count aggregation named ``size``."""
        anchor = self.keys[0] if self.keys else self.table.column_names[0]
        return self.agg(size=(anchor, "size"))
