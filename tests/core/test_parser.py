"""Unit tests for the LyriC parser."""

from fractions import Fraction

import pytest

from repro.core import ast
from repro.core.parser import parse, parse_query, parse_view
from repro.errors import LyricSyntaxError
from repro.model.oid import LiteralOid
from repro.model.paths import PathExpression, VarRef
from repro.workloads import manufacturing, mda, office, temporal


class TestBasicQueries:
    def test_minimal(self):
        query = parse_query("SELECT X FROM Desk X")
        assert len(query.select) == 1
        assert query.from_items == (ast.FromItem("Desk", "X"),)
        assert query.where is None

    def test_multiple_from(self):
        query = parse_query(
            "SELECT X FROM Desk X, Office_Object Y, Drawer Z")
        assert [f.class_name for f in query.from_items] \
            == ["Desk", "Office_Object", "Drawer"]

    def test_cst_class_in_from(self):
        query = parse_query("SELECT X FROM CST(2) X")
        assert query.from_items[0].class_name == "CST(2)"

    def test_named_select_items(self):
        query = parse_query("SELECT first = X, second = Y "
                            "FROM Desk X, Desk Y")
        assert query.select[0].name == "first"
        assert query.select[1].name == "second"

    def test_oid_function_of(self):
        query = parse_query(
            "SELECT X FROM Desk X OID FUNCTION OF X")
        assert query.oid_function_of == ("X",)

    def test_case_insensitive_keywords(self):
        query = parse_query("select X from Desk X where X.color")
        assert isinstance(query.where, ast.WPath)

    def test_statement_dispatch(self):
        assert isinstance(parse("SELECT X FROM Desk X"), ast.Query)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(LyricSyntaxError):
            parse_query("SELECT X FROM Desk X extra")


class TestPathExpressions:
    def where(self, text) -> ast.Where:
        return parse_query(f"SELECT X FROM Desk X WHERE {text}").where

    def test_simple_path_predicate(self):
        node = self.where("X.drawer.color")
        assert isinstance(node, ast.WPath)
        assert str(node.path) == "X.drawer.color"

    def test_selectors(self):
        node = self.where("X.drawer[Y].color['red']")
        path = node.path
        assert path.steps[0].selector == VarRef("Y")
        assert path.steps[1].selector == LiteralOid("red")

    def test_numeric_selector(self):
        node = self.where("X.size[3]")
        assert node.path.steps[0].selector == LiteralOid(Fraction(3))

    def test_comparison_to_literal(self):
        node = self.where("X.color = 'red'")
        assert isinstance(node, ast.WCompare)
        assert node.op == "="
        assert node.right == LiteralOid("red")

    def test_comparison_normalization(self):
        assert self.where("X.a == 3").op == "="
        assert self.where("X.a <> 3").op == "!="

    def test_contains(self):
        node = self.where("X.drawers contains Y.drawers")
        assert node.op == "contains"

    def test_boolean_structure(self):
        node = self.where("X.a and (X.b or not X.c)")
        assert isinstance(node, ast.WAnd)
        assert isinstance(node.parts[1], ast.WOr)
        assert isinstance(node.parts[1].parts[1], ast.WNot)


class TestFormulas:
    def test_select_formula(self):
        query = parse_query("""
            SELECT ((u,v) | E and D and x = 6 and y = 4)
            FROM Desk X WHERE X.extent[E] and X.translation[D]
        """)
        item = query.select[0].expr
        assert isinstance(item, ast.FormulaOut)
        assert item.formula.head == ("u", "v")
        body = item.formula.body
        assert isinstance(body, ast.FAnd)
        assert isinstance(body.parts[0], ast.FRef)
        assert isinstance(body.parts[2], ast.FAtom)

    def test_ref_with_args(self):
        query = parse_query("""
            SELECT ((u,v) | E(w,z) and w = u) FROM Desk X
        """)
        ref = query.select[0].expr.formula.body.parts[0]
        assert ref.args == ("w", "z")

    def test_path_ref_in_formula(self):
        query = parse_query("""
            SELECT ((w,z) | DSK.drawer.extent(w,z) and z >= w)
            FROM Desk DSK
        """)
        ref = query.select[0].expr.formula.body.parts[0]
        assert isinstance(ref.source, PathExpression)
        assert ref.args == ("w", "z")

    def test_sat_keyword(self):
        query = parse_query(
            "SELECT X FROM Desk X WHERE SAT(E and x <= 3)")
        assert isinstance(query.where, ast.WSat)

    def test_double_paren_sat(self):
        query = parse_query(
            "SELECT X FROM Desk X WHERE ((L(x,y) and 0 <= x <= 10))")
        assert isinstance(query.where, ast.WSat)

    def test_entailment(self):
        query = parse_query(
            "SELECT X FROM Desk X WHERE (C(p,q) |= p = 0)")
        assert isinstance(query.where, ast.WEntails)

    def test_entailment_projection_operands(self):
        query = parse_query("""
            SELECT X FROM Desk X
            WHERE ((x) | E) |= ((y) | 0 <= y)
        """)
        assert isinstance(query.where, ast.WEntails)
        assert query.where.left.head == ("x",)

    def test_chained_atom(self):
        query = parse_query(
            "SELECT ((x) | 0 <= x <= 10) FROM Desk D")
        body = query.select[0].expr.formula.body
        assert isinstance(body, ast.FAnd)
        assert len(body.parts) == 2

    def test_disjunctive_formula(self):
        query = parse_query(
            "SELECT ((x) | x < 0 or x > 1) FROM Desk D")
        assert isinstance(query.select[0].expr.formula.body, ast.FOr)

    def test_arithmetic(self):
        query = parse_query(
            "SELECT ((u) | u = 2*x + 3 - y/2) FROM Desk D")
        atom = query.select[0].expr.formula.body
        assert isinstance(atom, ast.FAtom)

    def test_path_constant_in_formula(self):
        query = parse_query(
            "SELECT ((u) | u <= D.width) FROM Desk D")
        atom = query.select[0].expr.formula.body
        assert isinstance(atom.right, ast.APath)


class TestOptimize:
    def test_max(self):
        query = parse_query("""
            SELECT MAX(u SUBJECT TO ((u,v) | E)) FROM Desk D
        """)
        expr = query.select[0].expr
        assert isinstance(expr, ast.OptimizeOut)
        assert expr.kind is ast.OptimizeKind.MAX
        assert expr.formula.head == ("u", "v")

    def test_min_point(self):
        query = parse_query("""
            SELECT MIN_POINT(u + v SUBJECT TO ((u,v) | E)) FROM Desk D
        """)
        assert query.select[0].expr.kind is ast.OptimizeKind.MIN_POINT

    def test_bare_body_subject_to(self):
        query = parse_query(
            "SELECT MAX(x SUBJECT TO E and x <= 3) FROM Desk D")
        assert query.select[0].expr.formula.head is None


class TestCreateView:
    VIEW = """
        CREATE VIEW Overlap AS SUBCLASS OF Office_Object
        SELECT first = X, second = Y
        SIGNATURE first => Office_Object, second =>> Office_Object
        FROM Office_Object X, Office_Object Y
        OID FUNCTION OF X, Y
        WHERE X.extent[U] and Y.extent[V] and ((U and V))
    """

    def test_parses(self):
        view = parse_view(self.VIEW)
        assert view.name == "Overlap"
        assert view.superclass == "Office_Object"
        assert view.query.oid_function_of == ("X", "Y")

    def test_signature(self):
        view = parse_view(self.VIEW)
        assert view.signature[0] == ast.SignatureItem(
            "first", "Office_Object", False)
        assert view.signature[1].set_valued

    def test_view_oid_function_name(self):
        view = parse_view(self.VIEW)
        assert view.query.oid_function_name == "Overlap"

    def test_parse_view_rejects_query(self):
        with pytest.raises(LyricSyntaxError):
            parse_view("SELECT X FROM Desk X")

    def test_parse_query_rejects_view(self):
        with pytest.raises(LyricSyntaxError):
            parse_query(self.VIEW)


#: A WHERE satisfiability predicate written in projection form.
PROJECTION_PREDICATE = """
    SELECT X FROM Office_Object X
    WHERE X.extent[E] and ((u,v) | E and u <= 2)
"""


class TestRenderedAstParsesBack:
    @pytest.mark.parametrize("text", [
        pytest.param(getattr(module, name),
                     id=f"{module.__name__.rpartition('.')[2]}.{name}")
        for module in (office, temporal, mda, manufacturing)
        for name in sorted(vars(module)) if name.endswith("_QUERY")
    ] + [pytest.param(TestCreateView.VIEW, id="view"),
         pytest.param(PROJECTION_PREDICATE, id="projection-predicate")])
    def test_round_trip(self, text):
        tree = parse(text)
        assert parse(str(tree)) == tree


class TestErrors:
    def test_missing_from(self):
        with pytest.raises(LyricSyntaxError):
            parse_query("SELECT X WHERE X.color")

    def test_error_carries_position(self):
        try:
            parse_query("SELECT X\nFROM Desk")
        except LyricSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected a syntax error")

    def test_unbalanced_formula(self):
        with pytest.raises(LyricSyntaxError):
            parse_query("SELECT ((u | E) FROM Desk D")
