"""Evaluation of parsed MDX against a :class:`~repro.olap.cube.Cube`."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro import obs
from repro.errors import EvaluationError
from repro.obs.explain import ExplainReport, PlanNode, profile
from repro.olap.crosstab import Crosstab
from repro.olap.cube import Cube
from repro.olap.mdx.ast import (
    CrossJoin,
    DistinctCountRef,
    ExplicitSet,
    FilterSet,
    LevelMembers,
    MdxQuery,
    MeasureRef,
    MemberChildren,
    MemberRef,
    OrderSet,
    SetExpr,
    TopCount,
)
from repro.olap.mdx.parser import parse_mdx
from repro.olap.query import serving_scope
from repro.serving.resilience import active_degradations
from repro.tabular.dtypes import DType
from repro.tabular.expressions import Expression, col


@dataclass(frozen=True)
class _Member:
    """A resolved member: qualified level + typed value."""

    level: str
    value: object

    def label(self) -> str:
        return "∅" if self.value is None else str(self.value)


@dataclass(frozen=True)
class _Measure:
    """A resolved measure: display name + (target, aggregation)."""

    name: str
    target: str
    aggregation: str


def _coerce_member_value(cube: Cube, level: str, text: str) -> object:
    """Interpret a bracketed member value in the level's dtype."""
    dtype = cube.flat.schema[level]
    if dtype is DType.STR:
        return text
    try:
        if dtype is DType.INT:
            return int(text)
        if dtype is DType.FLOAT:
            return float(text)
        if dtype is DType.BOOL:
            return text.lower() in ("true", "1", "yes")
    except ValueError:
        pass
    return text


def _resolve_measure(cube: Cube, ref: MeasureRef | DistinctCountRef) -> _Measure:
    if isinstance(ref, DistinctCountRef):
        level = cube.check_level(ref.level)
        return _Measure(f"distinctcount_{ref.attribute}", level, "nunique")
    if ref.name == Cube.RECORDS:
        return _Measure(Cube.RECORDS, Cube.RECORDS, "size")
    if ref.name in cube.schema.fact.measures:
        measure = cube.schema.fact.measures[ref.name]
        return _Measure(ref.name, ref.name, measure.default_aggregation)
    raise EvaluationError(
        f"unknown measure {ref.name!r} "
        f"(cube has: {', '.join(cube.measure_names)})"
    )


def _resolve_set(cube: Cube, expr: SetExpr) -> list[tuple]:
    """Expand a set expression to a list of tuples of _Member/_Measure."""
    if isinstance(expr, LevelMembers):
        level = cube.check_level(expr.level)
        return [(_Member(level, value),) for value in cube.level_members(level)]
    if isinstance(expr, ExplicitSet):
        resolved: list[tuple] = []
        for tup in expr.tuples:
            refs = []
            for ref in tup:
                if isinstance(ref, MemberRef):
                    level = cube.check_level(ref.level)
                    refs.append(_Member(level, _coerce_member_value(cube, level, ref.value)))
                elif isinstance(ref, (MeasureRef, DistinctCountRef)):
                    refs.append(_resolve_measure(cube, ref))
                else:  # pragma: no cover - parser prevents this
                    raise EvaluationError(f"unexpected ref {ref!r} in set")
            resolved.append(tuple(refs))
        return resolved
    if isinstance(expr, CrossJoin):
        left = _resolve_set(cube, expr.left)
        right = _resolve_set(cube, expr.right)
        return [l + r for l in left for r in right]
    if isinstance(expr, MemberChildren):
        return _resolve_children(cube, expr)
    if isinstance(expr, TopCount):
        inner = _resolve_set(cube, expr.inner)
        measure = (
            _resolve_measure(cube, expr.measure)
            if expr.measure is not None
            else _Measure(Cube.RECORDS, Cube.RECORDS, "size")
        )
        scored = [(_tuple_value(cube, tup, measure), tup) for tup in inner]
        scored.sort(key=lambda pair: (-(pair[0] if pair[0] is not None else float("-inf"))))
        return [tup for __, tup in scored[: expr.count]]
    if isinstance(expr, FilterSet):
        inner = _resolve_set(cube, expr.inner)
        measure = _resolve_measure(cube, expr.measure)
        kept = []
        for tup in inner:
            value = _tuple_value(cube, tup, measure)
            if value is not None and _compare(value, expr.comparator, expr.threshold):
                kept.append(tup)
        return kept
    if isinstance(expr, OrderSet):
        inner = _resolve_set(cube, expr.inner)
        measure = _resolve_measure(cube, expr.measure)
        scored = [(_tuple_value(cube, tup, measure), tup) for tup in inner]
        missing_last = float("inf") if not expr.descending else float("-inf")
        scored.sort(
            key=lambda pair: pair[0] if pair[0] is not None else missing_last,
            reverse=expr.descending,
        )
        return [tup for __, tup in scored]
    raise EvaluationError(f"unsupported set expression {expr!r}")


def _resolve_children(cube: Cube, expr: MemberChildren) -> list[tuple]:
    """Members of the next finer hierarchy level under a coarse member."""
    coarse = cube.check_level(expr.level)
    found = cube.hierarchy_for(coarse)
    if found is None:
        raise EvaluationError(
            f".CHILDREN on {coarse!r}, which belongs to no drill hierarchy"
        )
    dim_name, hierarchy = found
    attr = coarse.split(".", 1)[1]
    try:
        finer_attr = hierarchy.drill_down(attr)
    except Exception as exc:  # finest level: no children
        raise EvaluationError(str(exc)) from exc
    finer = f"{dim_name}.{finer_attr}"
    parent_value = _coerce_member_value(cube, coarse, expr.value)
    restricted = cube.flat.filter(col(coarse).eq(parent_value))
    return [(_Member(finer, value),) for value in restricted.column(finer).unique()]


def _tuple_value(cube: Cube, tup: tuple, measure: "_Measure") -> float | None:
    """The aggregate value of one axis tuple (for TOPCOUNT/FILTER/ORDER)."""
    predicate: Expression | None = None
    for ref in tup:
        if isinstance(ref, _Member):
            clause = col(ref.level).eq(ref.value)
            predicate = clause if predicate is None else (predicate & clause)
    total = cube.grand_total(
        {"value": (measure.target, measure.aggregation)}, filters=predicate
    )
    value = total["value"]
    return float(value) if value is not None else None


def _compare(value: float, comparator: str, threshold: float) -> bool:
    if comparator == ">":
        return value > threshold
    if comparator == ">=":
        return value >= threshold
    if comparator == "<":
        return value < threshold
    if comparator == "<=":
        return value <= threshold
    if comparator == "=":
        return value == threshold
    if comparator == "<>":
        return value != threshold
    raise EvaluationError(f"unknown comparator {comparator!r}")


def _axis_signature(tuples: list[tuple], axis: str) -> tuple[list[str], bool]:
    """Validate uniformity; returns (member levels in order, has_measure)."""
    if not tuples:
        # a FILTER/TOPCOUNT can legitimately select nothing: empty axis
        return [], False
    signatures = set()
    for tup in tuples:
        levels = tuple(ref.level for ref in tup if isinstance(ref, _Member))
        n_measures = sum(1 for ref in tup if isinstance(ref, _Measure))
        if n_measures > 1:
            raise EvaluationError(
                f"a tuple on {axis} contains more than one measure"
            )
        signatures.add((levels, n_measures > 0))
    if len(signatures) > 1:
        raise EvaluationError(
            f"tuples on {axis} are not uniform: mixed levels/measures "
            f"{sorted(signatures)}"
        )
    levels, has_measure = signatures.pop()
    return list(levels), has_measure


def execute_mdx(cube: Cube, query: MdxQuery | str) -> "Crosstab | ExplainReport":
    """Run an MDX query (text or parsed).

    Returns the result :class:`Crosstab` — or, for an ``EXPLAIN``-prefixed
    query, an :class:`~repro.obs.explain.ExplainReport` whose plan tree is
    *measured* (the query runs once under a recording tracer): per-stage
    parse/resolve/aggregate/pivot timings, rows scanned, and whether a
    materialised lattice node or a base fact scan produced the numbers.
    The report's ``result`` attribute carries the grid.

    A text query is parsed once, under the ``mdx.parse`` span; whether it
    is an ``EXPLAIN`` is known only after that parse, so an ``EXPLAIN``
    plan takes the parse's measured time as its first stage.
    """
    source = query if isinstance(query, str) else query.render()
    parse_ms = None
    with serving_scope(cube):
        with obs.span("mdx", query=source):
            if isinstance(query, str):
                started = time.perf_counter()
                with obs.span("mdx.parse", chars=len(source)):
                    query = parse_mdx(source)
                parse_ms = (time.perf_counter() - started) * 1000.0
            if not query.explain:
                return _evaluate(cube, query)
        bare = replace(query, explain=False)
        result, plan = profile("mdx", lambda: _evaluate(cube, bare), query=source)
    if parse_ms is not None:
        plan.children.insert(
            0, PlanNode("mdx.parse", round(parse_ms, 4), {"chars": len(source)})
        )
        plan.duration_ms = round(plan.duration_ms + parse_ms, 4)
    degraded = active_degradations()
    if degraded:
        plan.attrs["degraded"] = ",".join(sorted(degraded))
    return ExplainReport(query=source, plan=plan, result=result)


def _evaluate(cube: Cube, query: MdxQuery) -> Crosstab:
    """Resolve, aggregate and pivot one parsed (non-EXPLAIN) query."""
    if query.cube != cube.name:
        raise EvaluationError(
            f"query addresses cube {query.cube!r} but this cube is "
            f"{cube.name!r}"
        )

    with obs.span("mdx.resolve") as resolve_sp:
        col_tuples = _resolve_set(cube, query.columns)
        row_tuples = (
            _resolve_set(cube, query.rows) if query.rows is not None else [()]
        )
        resolve_sp.set(row_tuples=len(row_tuples), col_tuples=len(col_tuples))
    col_levels, col_has_measure = _axis_signature(col_tuples, "COLUMNS")
    if query.rows is not None:
        row_levels, row_has_measure = _axis_signature(row_tuples, "ROWS")
    else:
        row_levels, row_has_measure = [], False
    if col_has_measure and row_has_measure:
        raise EvaluationError("measures may appear on only one axis")

    # Slicer: member refs filter; measure ref selects the default cell value.
    slicer_members: list[_Member] = []
    slicer_measure: _Measure | None = None
    for ref in query.slicer:
        if isinstance(ref, MemberRef):
            level = cube.check_level(ref.level)
            slicer_members.append(
                _Member(level, _coerce_member_value(cube, level, ref.value))
            )
        elif isinstance(ref, (MeasureRef, DistinctCountRef)):
            if slicer_measure is not None:
                raise EvaluationError("slicer contains more than one measure")
            slicer_measure = _resolve_measure(cube, ref)
        else:  # pragma: no cover - parser prevents this
            raise EvaluationError(f"unexpected slicer ref {ref!r}")

    grouping = row_levels + col_levels
    overlap = set(row_levels) & set(col_levels)
    if overlap:
        raise EvaluationError(
            f"levels {sorted(overlap)} appear on both axes"
        )

    # Measures used anywhere; default when none.
    measures: dict[str, _Measure] = {}
    for tup in row_tuples + col_tuples:
        for ref in tup:
            if isinstance(ref, _Measure):
                measures.setdefault(ref.name, ref)
    if slicer_measure is not None:
        measures.setdefault(slicer_measure.name, slicer_measure)
    default_measure = (
        slicer_measure
        if slicer_measure is not None
        else _Measure(Cube.RECORDS, Cube.RECORDS, "size")
    )
    if not measures:
        measures[default_measure.name] = default_measure

    # Filters: slicer plus the union of member values mentioned per level.
    predicate: Expression | None = None
    for member in slicer_members:
        clause = col(member.level).eq(member.value)
        predicate = clause if predicate is None else (predicate & clause)
    per_level: dict[str, set] = {}
    for tup in row_tuples + col_tuples:
        for ref in tup:
            if isinstance(ref, _Member):
                per_level.setdefault(ref.level, set()).add(ref.value)
    for level, values in per_level.items():
        clause = col(level).isin(sorted(values, key=lambda v: (str(type(v)), str(v))))
        predicate = clause if predicate is None else (predicate & clause)

    aggregations = {
        m.name: (m.target, m.aggregation) for m in measures.values()
    }
    aggregate = cube.aggregate(grouping, aggregations, filters=predicate)

    with obs.span("mdx.pivot", cells=aggregate.num_rows):
        # Index aggregate rows by their grouping-tuple for cell lookup.
        index: dict[tuple, dict[str, object]] = {}
        for row in aggregate.iter_rows():
            key = tuple(row[level] for level in grouping)
            index[key] = row

        def tuple_members(tup: tuple) -> dict[str, object]:
            return {
                ref.level: ref.value for ref in tup if isinstance(ref, _Member)
            }

        def tuple_measure(tup: tuple) -> _Measure | None:
            for ref in tup:
                if isinstance(ref, _Measure):
                    return ref
            return None

        def key_label(tup: tuple) -> tuple:
            return tuple(
                ref.label() if isinstance(ref, _Member) else ref.name
                for ref in tup
            ) or ("all",)

        row_keys = [key_label(t) for t in row_tuples]
        col_keys = [key_label(t) for t in col_tuples]
        cells: dict[tuple[tuple, tuple], object] = {}
        for r_tup, r_key in zip(row_tuples, row_keys):
            r_members = tuple_members(r_tup)
            r_measure = tuple_measure(r_tup)
            for c_tup, c_key in zip(col_tuples, col_keys):
                members = dict(r_members)
                members.update(tuple_members(c_tup))
                measure = tuple_measure(c_tup) or r_measure or default_measure
                lookup = tuple(members.get(level) for level in grouping)
                row = index.get(lookup)
                if row is not None:
                    cells[(r_key, c_key)] = row[measure.name]

        if query.non_empty_rows:
            row_keys = [
                r for r in row_keys
                if any((r, c) in cells for c in col_keys)
            ]
        if query.non_empty_columns:
            col_keys = [
                c for c in col_keys
                if any((r, c) in cells for r in row_keys)
            ]

        row_level_names = row_levels + (["measure"] if row_has_measure else [])
        col_level_names = col_levels + (["measure"] if col_has_measure else [])
        return Crosstab(
            row_level_names or ["all"],
            col_level_names or ["all"],
            row_keys,
            col_keys,
            cells,
            value_name=default_measure.name,
        )
