"""Tests for the DG-SQL baseline: lexer, parser, executor."""

import pytest

from repro.errors import EvaluationError, LexError, ParseError
from repro.dgsql.ast import (
    AggregateItem,
    BoolExpr,
    ColumnItem,
    Condition,
    LearnStatement,
    PredictStatement,
    SelectStatement,
)
from repro.dgsql.executor import DGSQLExecutor
from repro.dgsql.lexer import SqlTokenType, tokenize_sql
from repro.dgsql.parser import parse_dgsql
from repro.storage.engine import StorageEngine


class TestLexer:
    def test_operators(self):
        tokens = tokenize_sql("a <= 5 AND b <> 'x'")
        ops = [t.text for t in tokens if t.type is SqlTokenType.OPERATOR]
        assert ops == ["<=", "<>"]

    def test_string_literal(self):
        tokens = tokenize_sql("WHERE s = 'hello world'")
        strings = [t for t in tokens if t.type is SqlTokenType.STRING]
        assert strings[0].text == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize_sql("WHERE s = 'oops")

    def test_numbers(self):
        tokens = tokenize_sql("5 -3 2.75")
        values = [t.text for t in tokens if t.type is SqlTokenType.NUMBER]
        assert values == ["5", "-3", "2.75"]

    def test_keywords_vs_idents(self):
        tokens = tokenize_sql("SELECT fbg FROM visits")
        assert tokens[0].type is SqlTokenType.KEYWORD
        assert tokens[1].type is SqlTokenType.IDENT


class TestParser:
    def test_select_star(self):
        statement = parse_dgsql("SELECT * FROM t")
        assert isinstance(statement, SelectStatement)
        assert statement.select_star

    def test_full_select(self):
        statement = parse_dgsql(
            "SELECT g, COUNT(*) AS n, AVG(v) AS m FROM t "
            "WHERE a >= 40 AND s = 'yes' GROUP BY g ORDER BY n DESC LIMIT 5"
        )
        assert statement.items[0] == ColumnItem("g")
        assert statement.items[1] == AggregateItem("COUNT", None, False, "n")
        assert statement.where == BoolExpr(
            "and", (Condition("a", ">=", 40), Condition("s", "=", "yes"))
        )
        assert statement.group_by == ("g",)
        assert statement.order_by == "n" and statement.order_desc
        assert statement.limit == 5

    def test_count_distinct(self):
        statement = parse_dgsql("SELECT COUNT(DISTINCT pid) FROM t")
        item = statement.items[0]
        assert item.distinct and item.column == "pid"

    def test_is_null_conditions(self):
        statement = parse_dgsql("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL")
        assert statement.where.operands[0].operator == "is_null"
        assert statement.where.operands[1].operator == "is_not_null"

    def test_sum_star_rejected(self):
        with pytest.raises(ParseError):
            parse_dgsql("SELECT SUM(*) FROM t")

    def test_learn(self):
        statement = parse_dgsql(
            "LEARN m PREDICTING diabetes FROM visits USING fbg, bmi"
        )
        assert statement == LearnStatement("m", "diabetes", "visits", ("fbg", "bmi"))

    def test_predict(self):
        statement = parse_dgsql("PREDICT m GIVEN fbg = 7.5, sex = 'F'")
        assert isinstance(statement, PredictStatement)
        assert statement.givens == {"fbg": 7.5, "sex": "F"}

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_dgsql("DELETE FROM t")

    def test_negative_limit_rejected(self):
        with pytest.raises(ParseError):
            parse_dgsql("SELECT * FROM t LIMIT -1")


@pytest.fixture()
def executor():
    db = StorageEngine()
    db.create_table(
        "visits",
        {"vid": "int", "pid": "int", "sex": "str", "age": "int",
         "fbg": "float", "diabetes": "str"},
        primary_key="vid",
    )
    rows = [
        (1, 1, "F", 62, 7.4, "yes"),
        (2, 1, "F", 63, 7.9, "yes"),
        (3, 2, "M", 45, 5.1, "no"),
        (4, 3, "F", 71, None, "no"),
        (5, 4, "M", 58, 6.0, "no"),
        (6, 5, "F", 66, 8.2, "yes"),
    ]
    with db.transaction():
        for vid, pid, sex, age, fbg, diabetes in rows:
            db.insert("visits", {"vid": vid, "pid": pid, "sex": sex,
                                 "age": age, "fbg": fbg, "diabetes": diabetes})
    return DGSQLExecutor(db)


class TestExecutor:
    def test_select_star_where(self, executor):
        result = executor.execute("SELECT * FROM visits WHERE age > 60")
        assert result.num_rows == 4

    def test_projection_and_alias(self, executor):
        result = executor.execute("SELECT sex AS gender FROM visits LIMIT 2")
        assert result.column_names == ["gender"]
        assert result.num_rows == 2

    def test_group_by_aggregates(self, executor):
        result = executor.execute(
            "SELECT sex, COUNT(*) AS n, AVG(fbg) AS mean_fbg "
            "FROM visits GROUP BY sex ORDER BY sex"
        )
        by_sex = {row["sex"]: row for row in result.to_rows()}
        assert by_sex["F"]["n"] == 4
        assert by_sex["F"]["mean_fbg"] == pytest.approx((7.4 + 7.9 + 8.2) / 3)

    def test_global_aggregate(self, executor):
        result = executor.execute(
            "SELECT COUNT(DISTINCT pid) AS patients, MAX(fbg) AS peak FROM visits"
        )
        assert result.row(0) == {"patients": 5, "peak": 8.2}

    def test_is_null_filter(self, executor):
        result = executor.execute("SELECT vid FROM visits WHERE fbg IS NULL")
        assert result.column("vid").to_list() == [4]

    def test_order_and_limit(self, executor):
        result = executor.execute(
            "SELECT vid FROM visits ORDER BY fbg DESC LIMIT 2"
        )
        assert result.column("vid").to_list() == [6, 2]

    def test_ungrouped_column_rejected(self, executor):
        with pytest.raises(EvaluationError, match="GROUP BY"):
            executor.execute("SELECT sex, COUNT(*) FROM visits")

    def test_learn_then_predict(self, executor):
        summary = executor.execute(
            "LEARN dm PREDICTING diabetes FROM visits USING fbg, age"
        )
        assert summary.row(0)["classes"] == "no, yes"
        outcome = executor.execute("PREDICT dm GIVEN fbg = 8.0, age = 65")
        assert outcome["prediction"] == "yes"
        assert outcome["probabilities"]["yes"] > 0.5

    def test_predict_without_learn(self, executor):
        with pytest.raises(EvaluationError, match="no model"):
            executor.execute("PREDICT ghost GIVEN fbg = 5")

    def test_ne_operator(self, executor):
        result = executor.execute("SELECT vid FROM visits WHERE sex <> 'F'")
        assert result.column("vid").to_list() == [3, 5]


class TestGlobalAggregateTypes:
    """A global aggregate keeps its types when no value reaches it."""

    @pytest.fixture()
    def sql(self):
        db = StorageEngine()
        db.create_table("t", {"id": "int", "x": "float"}, primary_key="id")
        with db.transaction():
            db.insert("t", {"id": 1, "x": 4.5})
            db.insert("t", {"id": 2, "x": None})
        return DGSQLExecutor(db)

    def test_no_matching_row_keeps_float_avg(self, sql):
        result = sql.execute("SELECT AVG(x), COUNT(*) FROM t WHERE x > 100")
        assert result.to_rows() == [{"avg_x": None, "count_all": 0}]
        assert result.schema == {"avg_x": "float", "count_all": "int"}

    def test_all_null_slice_keeps_float_avg(self, sql):
        result = sql.execute("SELECT AVG(x), COUNT(*) FROM t WHERE id = 2")
        assert result.to_rows() == [{"avg_x": None, "count_all": 1}]
        assert result.schema == {"avg_x": "float", "count_all": "int"}
