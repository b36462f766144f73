"""Execution of DG-SQL statements against a storage engine."""

from __future__ import annotations

from repro.errors import EvaluationError
from repro.dgsql.ast import (
    AggregateItem,
    BoolExpr,
    ColumnItem,
    Condition,
    LearnStatement,
    PredictStatement,
    SelectStatement,
    Statement,
    WhereExpr,
)
from repro.dgsql.parser import parse_dgsql
from repro.mining.naive_bayes import NaiveBayesClassifier
from repro.serving.resilience import checkpoint
from repro.storage.engine import StorageEngine
from repro.tabular.expressions import Expression, col
from repro.tabular.table import Table

_AGG_MAP = {
    "COUNT": "count",
    "SUM": "sum",
    "AVG": "mean",
    "MIN": "min",
    "MAX": "max",
}


def _condition_expression(condition: Condition) -> Expression:
    reference = col(condition.column)
    if condition.operator == "is_null":
        return reference.is_null()
    if condition.operator == "is_not_null":
        return reference.is_not_null()
    if condition.operator == "=":
        return reference.eq(condition.value)
    if condition.operator == "<>":
        return ~reference.eq(condition.value)
    if condition.operator == "<":
        return reference < condition.value
    if condition.operator == "<=":
        return reference <= condition.value
    if condition.operator == ">":
        return reference > condition.value
    if condition.operator == ">=":
        return reference >= condition.value
    if condition.operator == "in":
        return reference.isin(list(condition.value))  # type: ignore[arg-type]
    if condition.operator == "between":
        low, high = condition.value  # type: ignore[misc]
        return reference.between(low, high)
    raise EvaluationError(f"unknown operator {condition.operator!r}")


def _where_expression(node: WhereExpr) -> Expression:
    """Compile the boolean tree into a tabular filter expression."""
    if isinstance(node, Condition):
        return _condition_expression(node)
    if isinstance(node, BoolExpr):
        compiled = [_where_expression(operand) for operand in node.operands]
        combined = compiled[0]
        for clause in compiled[1:]:
            combined = (combined & clause) if node.operator == "and" else (combined | clause)
        return combined
    raise EvaluationError(f"unknown where node {node!r}")


class DGSQLExecutor:
    """Runs DG-SQL over an engine; holds the learned-model registry.

    This is the whole "classic DGMS" in miniature: reporting via SELECT,
    learning via LEARN (naive Bayes over the flat table) and prediction via
    PREDICT — with no dimensional model anywhere, which is exactly the
    architecture the paper argues the warehouse improves on.
    """

    def __init__(self, engine: StorageEngine, *, serving=None):
        self.engine = engine
        self.models: dict[str, NaiveBayesClassifier] = {}
        #: optional :class:`~repro.serving.admission.ServingRuntime`; when
        #: set, every statement passes the admission gate and runs under
        #: the configured default deadline
        self.serving = serving

    def execute(self, source: str | Statement) -> Table | dict[str, object]:
        """Run one statement.

        SELECT and LEARN return a :class:`Table` (LEARN's is a one-row
        summary); PREDICT returns a dict with the predicted label and the
        class distribution.
        """
        statement = parse_dgsql(source) if isinstance(source, str) else source
        if self.serving is not None:
            with self.serving.query_scope():
                return self._dispatch(statement)
        return self._dispatch(statement)

    def _dispatch(self, statement: Statement) -> Table | dict[str, object]:
        if isinstance(statement, SelectStatement):
            return self._execute_select(statement)
        if isinstance(statement, LearnStatement):
            return self._execute_learn(statement)
        if isinstance(statement, PredictStatement):
            return self._execute_predict(statement)
        raise EvaluationError(f"unsupported statement {statement!r}")

    # ------------------------------------------------------------------

    def _execute_select(self, statement: SelectStatement) -> Table:
        table = self.engine.scan(statement.table)
        checkpoint()
        if statement.where is not None:
            table = table.filter(_where_expression(statement.where))
            checkpoint()

        has_aggregates = any(
            isinstance(item, AggregateItem) for item in statement.items
        )
        aggregated = statement.group_by or has_aggregates
        if not aggregated and statement.order_by is not None:
            # ORDER BY may name a column that the projection drops, so plain
            # selects sort before projecting (grouped queries sort after —
            # there ORDER BY refers to output columns like an alias).
            table = table.sort_by(
                statement.order_by, descending=statement.order_desc
            )
        if statement.select_star:
            result = table
        elif aggregated:
            result = self._aggregate(statement, table)
            if statement.having is not None:
                result = result.filter(_where_expression(statement.having))
            if statement.order_by is not None:
                result = result.sort_by(
                    statement.order_by, descending=statement.order_desc
                )
        else:
            result = table.select([item.name for item in statement.items])
            renames = {
                item.name: item.alias
                for item in statement.items
                if isinstance(item, ColumnItem) and item.alias
            }
            if renames:
                result = result.rename(renames)
        if statement.limit is not None:
            result = result.head(statement.limit)
        return result

    def _aggregate(self, statement: SelectStatement, table: Table) -> Table:
        aggregations: dict[str, tuple[str, str]] = {}
        for item in statement.items:
            if isinstance(item, ColumnItem):
                if item.name not in statement.group_by:
                    raise EvaluationError(
                        f"column {item.name!r} must appear in GROUP BY or "
                        "inside an aggregate"
                    )
                continue
            function = _AGG_MAP[item.function]
            if item.column is None:
                anchor = statement.group_by[0] if statement.group_by else table.column_names[0]
                aggregations[item.output_name] = (anchor, "size")
            elif item.distinct:
                if item.function != "COUNT":
                    raise EvaluationError("DISTINCT is only valid inside COUNT")
                aggregations[item.output_name] = (item.column, "nunique")
            else:
                aggregations[item.output_name] = (item.column, function)
        if not aggregations:
            raise EvaluationError("GROUP BY query selects no aggregates")

        # no GROUP BY is a global aggregate: exactly one output row
        result = table.groupby(*statement.group_by).agg(**aggregations)
        if not statement.group_by:
            return result
        wanted = [
            item.output_name if isinstance(item, AggregateItem) else item.name
            for item in statement.items
        ]
        result = result.select(
            [c for c in result.column_names if c in set(wanted) | set(statement.group_by)]
        )
        renames = {
            item.name: item.alias
            for item in statement.items
            if isinstance(item, ColumnItem) and item.alias
        }
        return result.rename(renames) if renames else result

    # ------------------------------------------------------------------

    def _execute_learn(self, statement: LearnStatement) -> Table:
        table = self.engine.scan(statement.table)
        if statement.where is not None:
            table = table.filter(_where_expression(statement.where))
        rows = table.to_rows()
        model = NaiveBayesClassifier().fit(
            rows, statement.target, list(statement.features)
        )
        self.models[statement.model] = model
        return Table.from_rows(
            [
                {
                    "model": statement.model,
                    "target": statement.target,
                    "features": ", ".join(statement.features),
                    "classes": ", ".join(model.classes),
                    "rows": len(rows),
                }
            ]
        )

    def _execute_predict(self, statement: PredictStatement) -> dict[str, object]:
        model = self.models.get(statement.model)
        if model is None:
            raise EvaluationError(
                f"no model named {statement.model!r}; run LEARN first "
                f"(known: {', '.join(sorted(self.models)) or 'none'})"
            )
        probabilities = model.predict_proba(dict(statement.givens))
        label = max(sorted(probabilities), key=lambda c: probabilities[c])
        return {
            "model": statement.model,
            "prediction": label,
            "probabilities": probabilities,
        }
