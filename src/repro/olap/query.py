"""Programmatic cube queries — the "drag and drop" analogue.

Paper Fig. 4 shows measures and attributes dragged into a query area to
"dynamically generate queries and view the aggregated results".  The
:class:`QueryBuilder` is that interaction as an API: each call corresponds
to one drag, and :meth:`QueryBuilder.execute` renders the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import contextlib

from repro import obs
from repro.errors import OLAPError
from repro.obs.explain import ExplainReport, profile
from repro.olap.crosstab import Crosstab
from repro.olap.cube import Cube
from repro.serving.resilience import (
    Deadline,
    active_degradations,
    current_deadline,
    deadline_scope,
)
from repro.tabular.expressions import Expression, col


def serving_scope(cube, *, deadline=None, budget_s=None):
    """The cube's admission/deadline scope, or a no-op without a runtime.

    Every query front-end (builder, MDX, DG-SQL) enters execution through
    this: with ``SystemConfig(serving=...)`` configured it takes one
    admission slot and installs the per-query deadline; unconfigured
    systems keep the historical unbounded behaviour.
    """
    serving = cube.runtime.serving
    if serving is not None:
        return serving.query_scope(deadline=deadline, budget_s=budget_s)
    if deadline is None and budget_s is not None:
        # no admission control configured, but the caller asked for a
        # deadline: honour it (chained under any active outer deadline)
        deadline = Deadline(budget_s, parent=current_deadline())
    if deadline is not None:
        return deadline_scope(deadline)
    return contextlib.nullcontext()

#: Accepted aggregation spellings → canonical names used by the kernels.
AGG_ALIASES = {"avg": "mean", "average": "mean", "distinct": "nunique"}


def _canonical_agg(aggregation: str) -> str:
    return AGG_ALIASES.get(aggregation, aggregation)


@dataclass(frozen=True)
class MeasureSpec:
    """A measure request built fluently: ``measure("fbg").avg()``.

    Each aggregation method returns a *finalised* spec the builder accepts
    directly; :meth:`named` overrides the output column name.  Plain
    ``(target, aggregation)`` tuples remain accepted everywhere a spec is
    — the fluent form is just the discoverable spelling of the same thing.
    """

    target: str
    aggregation: str | None = None
    name: str | None = None

    def _agg(self, aggregation: str) -> "MeasureSpec":
        return replace(self, aggregation=aggregation)

    def avg(self) -> "MeasureSpec":
        """Arithmetic mean (canonical name: ``mean``)."""
        return self._agg("mean")

    mean = avg

    def sum(self) -> "MeasureSpec":
        """Sum of non-null values."""
        return self._agg("sum")

    def min(self) -> "MeasureSpec":
        """Smallest non-null value."""
        return self._agg("min")

    def max(self) -> "MeasureSpec":
        """Largest non-null value."""
        return self._agg("max")

    def std(self) -> "MeasureSpec":
        """Population standard deviation."""
        return self._agg("std")

    def count(self) -> "MeasureSpec":
        """Number of non-null values."""
        return self._agg("count")

    def nunique(self) -> "MeasureSpec":
        """Number of distinct values."""
        return self._agg("nunique")

    def size(self) -> "MeasureSpec":
        """Number of rows, nulls included."""
        return self._agg("size")

    def named(self, name: str) -> "MeasureSpec":
        """Set the output column name."""
        return replace(self, name=name)


def measure(target: str) -> MeasureSpec:
    """Start a fluent measure spec: ``measure("fbg").avg()``."""
    return MeasureSpec(target)


@dataclass(frozen=True)
class CubeQuery:
    """A declarative cube query: axes, one aggregation, filters.

    Immutable — the OLAP verbs in :mod:`repro.olap.operations` return new
    queries, so an exploration session is an inspectable chain of states.
    """

    rows: tuple[str, ...] = ()
    columns: tuple[str, ...] = ()
    #: (target, aggregation); target "records" counts fact rows
    value: tuple[str, str] = (Cube.RECORDS, "size")
    value_name: str = "records"
    #: level → allowed members (a dice); empty means unrestricted
    member_filters: dict[str, tuple[object, ...]] = field(default_factory=dict)

    def axis_levels(self) -> list[str]:
        """All levels used on either axis."""
        return list(self.rows) + list(self.columns)

    def with_filter(self, level: str, values: tuple[object, ...]) -> "CubeQuery":
        """A copy with an added/merged member restriction on ``level``."""
        filters = dict(self.member_filters)
        if level in filters:
            merged = tuple(v for v in filters[level] if v in set(values))
            filters[level] = merged
        else:
            filters[level] = tuple(values)
        return replace(self, member_filters=filters)

    def predicate(self) -> Expression | None:
        """The combined filter expression (``None`` when unrestricted)."""
        expr: Expression | None = None
        for level, values in self.member_filters.items():
            clause = col(level).isin(list(values))
            expr = clause if expr is None else (expr & clause)
        return expr

    def describe(self) -> str:
        """One-line rendering (slow-query log, EXPLAIN headers)."""
        parts = [f"{self.value[1]}({self.value[0]}) AS {self.value_name}"]
        if self.rows:
            parts.append("ROWS " + ", ".join(self.rows))
        if self.columns:
            parts.append("COLUMNS " + ", ".join(self.columns))
        for level, values in self.member_filters.items():
            rendered = ", ".join(str(v) for v in values)
            parts.append(f"WHERE {level} IN ({rendered})")
        return " | ".join(parts)

    def execute(self, cube: Cube) -> Crosstab:
        """Run against a cube and pivot into a crosstab.

        A query with no column levels gets a single synthetic column named
        after the value, so results are always a grid.
        """
        rows = tuple(cube.check_level(level) for level in self.rows)
        columns = tuple(cube.check_level(level) for level in self.columns)
        if not rows and not columns:
            raise OLAPError("query has no levels on either axis")
        filters = {
            cube.check_level(level): values
            for level, values in self.member_filters.items()
        }
        normalised = replace(
            self, rows=rows, columns=columns, member_filters=filters
        )
        aggregate = cube.aggregate(
            normalised.axis_levels(),
            {self.value_name: self.value},
            filters=normalised.predicate(),
        )
        if not columns:
            aggregate = aggregate.with_column(
                "__all__", [self.value_name] * aggregate.num_rows, dtype="str"
            )
            return Crosstab.from_aggregate(
                aggregate, list(rows), ["__all__"], self.value_name
            )
        if not rows:
            aggregate = aggregate.with_column(
                "__all__", [self.value_name] * aggregate.num_rows, dtype="str"
            )
            return Crosstab.from_aggregate(
                aggregate, ["__all__"], list(columns), self.value_name
            )
        return Crosstab.from_aggregate(
            aggregate, list(rows), list(columns), self.value_name
        )


class QueryBuilder:
    """Fluent, immutable construction of :class:`CubeQuery` objects.

    Every method returns a **new** builder; the receiver is never mutated.
    A partially built query can therefore be held and branched safely::

        base = cube.query().rows("personal.age_band")
        by_gender = base.columns("personal.gender")   # base is unchanged
        grid = (by_gender
                    .count_distinct("personal.patient_id", name="patients")
                    .where("conditions.diabetes_status", "Diabetic")
                    .execute())

    Measures are requested either as a ``(target, aggregation)`` tuple or
    fluently via :func:`measure` — ``.measure(("fbg", "avg"))`` and
    ``.measure(measure("fbg").avg())`` are the same query.  The canonical
    form is the fluent one; aggregation spellings are normalised
    (``avg`` → ``mean``) either way.
    """

    def __init__(
        self,
        cube: Cube,
        query: CubeQuery | None = None,
        *,
        budget_s: float | None = None,
    ):
        self._cube = cube
        self._query = query if query is not None else CubeQuery()
        self._budget_s = budget_s

    def _with(self, query: CubeQuery) -> "QueryBuilder":
        return QueryBuilder(self._cube, query, budget_s=self._budget_s)

    def within(self, budget_s: float | None) -> "QueryBuilder":
        """A new builder whose execution carries a deadline of ``budget_s``.

        Overrides the system's ``default_deadline_s`` for this query
        (``None`` restores it).  Expiry raises
        :class:`~repro.errors.QueryTimeoutError` at the next cooperative
        checkpoint; no partial result is ever returned or cached.
        """
        return QueryBuilder(self._cube, self._query, budget_s=budget_s)

    def rows(self, *levels: str) -> "QueryBuilder":
        """A new builder with levels on the row axis (replacing any)."""
        qualified = tuple(self._cube.check_level(level) for level in levels)
        return self._with(replace(self._query, rows=qualified))

    def columns(self, *levels: str) -> "QueryBuilder":
        """A new builder with levels on the column axis (replacing any)."""
        qualified = tuple(self._cube.check_level(level) for level in levels)
        return self._with(replace(self._query, columns=qualified))

    def measure(
        self,
        target: "str | tuple[str, str] | MeasureSpec",
        aggregation: str | None = None,
        name: str | None = None,
    ) -> "QueryBuilder":
        """A new builder whose cell value is an aggregation of ``target``.

        Accepts the three equivalent spellings::

            .measure("fbg", "avg")                 # positional
            .measure(("fbg", "avg"))               # spec tuple
            .measure(measure("fbg").avg())         # fluent (canonical)

        ``target`` is a fact measure, the implicit ``records``, or a level
        (which is qualified against the cube).
        """
        if isinstance(target, MeasureSpec):
            if target.aggregation is None:
                raise OLAPError(
                    f"measure spec for {target.target!r} names no "
                    "aggregation — finish it with .avg()/.sum()/..."
                )
            if aggregation is not None:
                raise OLAPError(
                    "pass either a finished measure spec or a separate "
                    "aggregation, not both"
                )
            target, aggregation, name = (
                target.target, target.aggregation, name or target.name
            )
        elif isinstance(target, tuple):
            if aggregation is not None:
                raise OLAPError(
                    "pass either a (target, aggregation) tuple or a "
                    "separate aggregation, not both"
                )
            target, aggregation = target
        elif aggregation is None:
            raise OLAPError(
                f"measure({target!r}) needs an aggregation — pass "
                "(target, agg), measure(target).avg(), or two arguments"
            )
        aggregation = _canonical_agg(aggregation)
        if target != Cube.RECORDS and target not in self._cube.schema.fact.measures:
            target = self._cube.check_level(target)
        return self._with(replace(
            self._query,
            value=(target, aggregation),
            value_name=name or f"{aggregation}_{target.split('.')[-1]}",
        ))

    def count_records(self, name: str = "records") -> "QueryBuilder":
        """A new builder counting fact rows per cell (the default value)."""
        return self._with(replace(
            self._query, value=(Cube.RECORDS, "size"), value_name=name
        ))

    def count_distinct(self, level: str, name: str | None = None) -> "QueryBuilder":
        """A new builder counting distinct level members (e.g. patients)."""
        qualified = self._cube.check_level(level)
        return self._with(replace(
            self._query,
            value=(qualified, "nunique"),
            value_name=name or f"distinct_{qualified.split('.')[-1]}",
        ))

    def where(self, level: str, *values: object) -> "QueryBuilder":
        """A new builder restricting a level to the given members."""
        if not values:
            raise OLAPError(f"where({level!r}) requires at least one value")
        qualified = self._cube.check_level(level)
        return self._with(self._query.with_filter(qualified, tuple(values)))

    def build(self) -> CubeQuery:
        """The accumulated immutable query."""
        return self._query

    def execute(self) -> Crosstab:
        """Build and run against the owning cube.

        With ``SystemConfig(serving=...)`` configured, execution first
        passes the admission gate (shedding with
        :class:`~repro.errors.ServingOverloadError` under overload) and
        runs under the query's deadline (see :meth:`within`).
        """
        query = self._query
        with serving_scope(self._cube, budget_s=self._budget_s):
            with obs.span("query", query=query.describe()):
                return query.execute(self._cube)

    def explain(self) -> ExplainReport:
        """Run once under a recording tracer and return the measured plan.

        Works regardless of global observability configuration; the
        returned report carries the plan tree (which lattice node answered
        or how many fact rows were scanned, wall time per stage), any
        active serving degradations, and the result grid in ``.result``.
        """
        query = self._query
        source = query.describe()
        with serving_scope(self._cube, budget_s=self._budget_s):
            result, plan = profile(
                "query", lambda: query.execute(self._cube), query=source
            )
        degraded = active_degradations()
        if degraded:
            plan.attrs["degraded"] = ",".join(sorted(degraded))
        return ExplainReport(query=source, plan=plan, result=result)
