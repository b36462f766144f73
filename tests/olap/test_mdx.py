"""Tests for the MDX subset: lexer, parser, evaluator."""

import pytest

from repro.errors import EvaluationError, LexError, ParseError
from repro.olap.cube import Cube
from repro.olap.mdx.ast import CrossJoin, ExplicitSet, LevelMembers, MemberRef
from repro.olap.mdx.lexer import TokenType, tokenize
from repro.olap.mdx.parser import parse_mdx
from repro.olap.mdx.evaluator import execute_mdx
from repro.tabular import Table
from repro.warehouse.dimension import Dimension
from repro.warehouse.fact import Measure
from repro.warehouse.loader import DimensionSpec, WarehouseLoader


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT { [a].[b] } ON COLUMNS FROM c")
        kinds = [t.type for t in tokens]
        assert kinds[0] is TokenType.KEYWORD
        assert TokenType.BRACKETED in kinds
        assert kinds[-1] is TokenType.EOF

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select")
        assert tokens[0].text == "SELECT"

    def test_bracketed_values_keep_spaces(self):
        tokens = tokenize("[very good]")
        assert tokens[0].text == "very good"

    def test_unterminated_bracket(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("[abc")

    def test_empty_bracket(self):
        with pytest.raises(LexError, match="empty"):
            tokenize("[]")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("SELECT ; FROM")


class TestParser:
    def test_full_query(self):
        query = parse_mdx(
            "SELECT [p].[gender].MEMBERS ON COLUMNS, "
            "{[p].[band].[60-80]} ON ROWS FROM discri "
            "WHERE [c].[diabetes].[yes]"
        )
        assert isinstance(query.columns, LevelMembers)
        assert isinstance(query.rows, ExplicitSet)
        assert query.cube == "discri"
        assert query.slicer[0] == MemberRef("c", "diabetes", "yes")

    def test_axes_order_free(self):
        query = parse_mdx(
            "SELECT [p].[x].MEMBERS ON ROWS, [p].[y].MEMBERS ON COLUMNS FROM c"
        )
        assert query.rows.attribute == "x"
        assert query.columns.attribute == "y"

    def test_columns_required(self):
        with pytest.raises(ParseError, match="COLUMNS"):
            parse_mdx("SELECT [p].[x].MEMBERS ON ROWS FROM c")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ParseError, match="twice"):
            parse_mdx(
                "SELECT [p].[x].MEMBERS ON ROWS, [p].[y].MEMBERS ON ROWS FROM c"
            )

    def test_crossjoin(self):
        query = parse_mdx(
            "SELECT CROSSJOIN([p].[x].MEMBERS, [p].[y].MEMBERS) ON COLUMNS FROM c"
        )
        assert isinstance(query.columns, CrossJoin)

    def test_tuple_sets(self):
        query = parse_mdx(
            "SELECT {([p].[x].[a], [p].[y].[b]), [p].[x].[c]} ON COLUMNS FROM c"
        )
        assert len(query.columns.tuples) == 2
        assert len(query.columns.tuples[0]) == 2

    def test_measures_ref(self):
        query = parse_mdx("SELECT {[Measures].[records]} ON COLUMNS FROM c")
        ref = query.columns.tuples[0][0]
        assert ref.name == "records"

    def test_distinctcount(self):
        query = parse_mdx(
            "SELECT {DISTINCTCOUNT([card].[pid])} ON COLUMNS FROM c"
        )
        ref = query.columns.tuples[0][0]
        assert ref.level == "card.pid"

    def test_members_needs_level(self):
        with pytest.raises(ParseError, match="MEMBERS"):
            parse_mdx("SELECT [p].[x].[v].MEMBERS ON COLUMNS FROM c")

    def test_render_round_trip(self):
        text = (
            "SELECT {[Measures].[records]} ON COLUMNS, "
            "CROSSJOIN([p].[x].MEMBERS, [p].[y].MEMBERS) ON ROWS "
            "FROM c WHERE [z].[w].[v]"
        )
        assert parse_mdx(parse_mdx(text).render()).render() == parse_mdx(text).render()

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_mdx("SELECT [p].[x].MEMBERS ON COLUMNS FROM c extra")


@pytest.fixture()
def mdx_cube():
    rows = [
        {"gender": "F", "band": "60-80", "pid": 1, "fbg": 7.0},
        {"gender": "F", "band": "60-80", "pid": 1, "fbg": 8.0},
        {"gender": "M", "band": "60-80", "pid": 2, "fbg": 6.0},
        {"gender": "F", "band": "40-60", "pid": 3, "fbg": 5.0},
    ]
    loader = WarehouseLoader(
        "discri", "facts",
        [
            DimensionSpec(Dimension("p", {"gender": "str", "band": "str"})),
            DimensionSpec(Dimension("card", {"pid": "int"})),
        ],
        [Measure.of("fbg", "float", "mean")],
    )
    loader.load(Table.from_rows(rows))
    return Cube(loader.schema)


class TestEvaluator:
    def test_members_by_members(self, mdx_cube):
        grid = execute_mdx(
            mdx_cube,
            "SELECT [p].[gender].MEMBERS ON COLUMNS, "
            "[p].[band].MEMBERS ON ROWS FROM discri",
        )
        assert grid.value(("60-80",), ("F",)) == 2
        assert grid.value(("40-60",), ("M",)) is None

    def test_slicer_filters(self, mdx_cube):
        grid = execute_mdx(
            mdx_cube,
            "SELECT [p].[gender].MEMBERS ON COLUMNS, "
            "[p].[band].MEMBERS ON ROWS FROM discri WHERE [p].[gender].[F]",
        )
        # slicing on gender=F still leaves the M column empty, not wrong
        assert grid.value(("60-80",), ("M",)) is None
        assert grid.value(("60-80",), ("F",)) == 2

    def test_explicit_member_set_restricts(self, mdx_cube):
        grid = execute_mdx(
            mdx_cube,
            "SELECT {[p].[band].[60-80]} ON COLUMNS FROM discri",
        )
        assert grid.value(("all",), ("60-80",)) == 3

    def test_measures_axis(self, mdx_cube):
        grid = execute_mdx(
            mdx_cube,
            "SELECT {[Measures].[records], [Measures].[fbg], "
            "DISTINCTCOUNT([card].[pid])} ON COLUMNS, "
            "[p].[band].MEMBERS ON ROWS FROM discri",
        )
        assert grid.value(("60-80",), ("records",)) == 3
        assert grid.value(("60-80",), ("fbg",)) == pytest.approx(7.0)
        assert grid.value(("60-80",), ("distinctcount_pid",)) == 2

    def test_crossjoin_rows(self, mdx_cube):
        grid = execute_mdx(
            mdx_cube,
            "SELECT {[Measures].[records]} ON COLUMNS, "
            "CROSSJOIN([p].[band].MEMBERS, [p].[gender].MEMBERS) ON ROWS "
            "FROM discri",
        )
        assert grid.value(("60-80", "F"), ("records",)) == 2

    def test_wrong_cube_name(self, mdx_cube):
        with pytest.raises(EvaluationError, match="addresses cube"):
            execute_mdx(mdx_cube, "SELECT [p].[gender].MEMBERS ON COLUMNS FROM other")

    def test_unknown_measure(self, mdx_cube):
        with pytest.raises(EvaluationError, match="unknown measure"):
            execute_mdx(
                mdx_cube, "SELECT {[Measures].[zzz]} ON COLUMNS FROM discri"
            )

    def test_measures_on_both_axes_rejected(self, mdx_cube):
        with pytest.raises(EvaluationError, match="only one axis"):
            execute_mdx(
                mdx_cube,
                "SELECT {[Measures].[records]} ON COLUMNS, "
                "{[Measures].[fbg]} ON ROWS FROM discri",
            )

    def test_non_uniform_axis_rejected(self, mdx_cube):
        with pytest.raises(EvaluationError, match="not uniform"):
            execute_mdx(
                mdx_cube,
                "SELECT {[p].[gender].[F], [p].[band].[60-80]} ON COLUMNS "
                "FROM discri",
            )

    def test_same_level_both_axes_rejected(self, mdx_cube):
        with pytest.raises(EvaluationError, match="both axes"):
            execute_mdx(
                mdx_cube,
                "SELECT [p].[gender].MEMBERS ON COLUMNS, "
                "[p].[gender].MEMBERS ON ROWS FROM discri",
            )

    def test_typed_member_coercion(self, mdx_cube):
        grid = execute_mdx(
            mdx_cube,
            "SELECT {[card].[pid].[1]} ON COLUMNS FROM discri",
        )
        assert grid.value(("all",), ("1",)) == 2

    def test_matches_query_builder(self, mdx_cube):
        """MDX and the drag-and-drop builder agree cell by cell (Fig 4)."""
        mdx_grid = execute_mdx(
            mdx_cube,
            "SELECT [p].[gender].MEMBERS ON COLUMNS, "
            "[p].[band].MEMBERS ON ROWS FROM discri",
        )
        builder_grid = (
            mdx_cube.query().rows("band").columns("gender").count_records().execute()
        )
        for row_key in builder_grid.row_keys:
            for col_key in builder_grid.col_keys:
                assert builder_grid.value(row_key, col_key) == mdx_grid.value(
                    row_key, col_key
                )


class TestParseOnce:
    QUERY = (
        "SELECT [p].[gender].MEMBERS ON COLUMNS, "
        "[p].[band].MEMBERS ON ROWS FROM discri"
    )

    @pytest.fixture()
    def parses(self, monkeypatch):
        from repro.olap.mdx import evaluator

        calls = []

        def counted(source):
            calls.append(source)
            return parse_mdx(source)

        monkeypatch.setattr(evaluator, "parse_mdx", counted)
        return calls

    def test_a_text_query_is_parsed_once(self, mdx_cube, parses):
        execute_mdx(mdx_cube, self.QUERY)
        assert parses == [self.QUERY]

    def test_an_explain_query_is_parsed_once_and_shows_the_parse(
        self, mdx_cube, parses
    ):
        report = execute_mdx(mdx_cube, "EXPLAIN " + self.QUERY)
        assert len(parses) == 1
        stages = [node.op for node in report.plan.children]
        assert stages[0] == "mdx.parse"
        parse = report.plan.children[0]
        assert parse.attrs["chars"] == len("EXPLAIN " + self.QUERY)
        assert 0 < parse.duration_ms <= report.total_ms
