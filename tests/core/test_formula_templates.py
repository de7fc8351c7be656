"""Formula templates: a WHERE ``SAT`` formula's template packs each row
into exactly the unit that instantiating the formula and packing the
result gives — field for field, over every shape the template covers —
and leaves every other shape and cell to that per-row path."""

import random
from fractions import Fraction

import pytest

from bench import text as bench_text
from repro import lyric
from repro.constraints import matrix
from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.terms import Variable
from repro.core import ast, formulas
from repro.core.parser import parse_query
from repro.core.semantics import analyze
from repro.core.translator import _Translator
from repro.model.database import Database
from repro.model.oid import CstOid, LiteralOid
from repro.model.office import build_office_database
from repro.model.schema import AttributeDef, CSTSpec, Schema
from repro.runtime import numeric
from repro.runtime.context import ExecutionStats, QueryContext
from repro.sqlc import batch

OBJECTS = 4


def shapes_database() -> Database:
    """``Shape`` objects with a plain extent, an extent declared with
    its variables reversed (so a rename moves the lead variable), and
    a numeric weight for row-bound atoms."""
    schema = Schema()
    schema.ensure_cst_class(2)
    schema.define("Shape", attributes=[
        AttributeDef("extent", CSTSpec(["x", "y"])),
        AttributeDef("flipped", CSTSpec(["y", "x"])),
        AttributeDef("w", "real")])
    db = Database(schema)
    square = ConjunctiveConstraint([
        LinearConstraint.build(Variable("a"), Relop.LE, 5),
        LinearConstraint.build(Variable("b"), Relop.GE, -5)])
    for i in range(OBJECTS):
        db.add_object(f"s{i}", "Shape", {
            "extent": CSTObject((Variable("a"), Variable("b")), square),
            "flipped": CSTObject((Variable("a"), Variable("b")), square),
            "w": LiteralOid(Fraction(i))})
    return db


def _atom(rng: random.Random, names) -> LinearConstraint:
    relop = rng.choice([Relop.EQ, Relop.NE, Relop.LE, Relop.LT, Relop.GE])
    lhs = sum(rng.choice([-3, -1, 0, 1, 2]) * Variable(n).as_expression()
              for n in names)
    return LinearConstraint.build(lhs, relop,
                                  Fraction(rng.randint(-9, 9),
                                           rng.choice([1, 1, 2, 3])))


#: Stored atoms every conjunctive cell may share, so duplicates meet
#: across the two references of a formula.
SHARED = (("a", "b"), Relop.LE, 4), (("a",), Relop.EQ, 1)


def _cell(rng: random.Random, dimension: int = 2) -> CstOid:
    """A conjunctive cell over stored names ``a, b`` (``c`` in 3-D),
    not canonicalized, so equalities, disequalities, trivial and
    shared atoms all survive into the stored rows."""
    names = ("a", "b", "c")[:dimension]
    atoms = [_atom(rng, names) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.5:
        used, relop, bound = rng.choice(SHARED)
        atoms.append(LinearConstraint.build(
            sum(Variable(n).as_expression() for n in used), relop,
            bound))
    if rng.random() < 0.1:
        atoms.append(LinearConstraint.build(0, Relop.LE, -1))
    schema = tuple(Variable(n) for n in names)
    return CstOid(CSTObject(schema, ConjunctiveConstraint(atoms),
                            canonicalize=False))


def _odd_cell(rng: random.Random):
    """A cell the template must hand back to the per-row path."""
    kind = rng.randrange(3)
    if kind == 0:
        return LiteralOid(Fraction(3))
    if kind == 1:
        return _cell(rng, dimension=3)
    x = Variable("a")
    return CstOid(CSTObject(
        (Variable("a"), Variable("b")),
        DisjunctiveConstraint([
            ConjunctiveConstraint([LinearConstraint.build(x, Relop.LE, 0)]),
            ConjunctiveConstraint([LinearConstraint.build(x, Relop.GE, 2)])]),
        canonicalize=False))


def _sat_formula(analysis) -> ast.CstFormula:
    found = []

    def walk(node):
        if isinstance(node, ast.WSat):
            found.append(node.formula)
        elif isinstance(node, (ast.WAnd, ast.WOr)):
            for part in node.parts:
                walk(part)

    walk(analysis.query.where)
    return found[0]


def _compiled(db, text):
    analysis = analyze(db.schema, parse_query(text))
    formula = _sat_formula(analysis)
    columns = _Translator(db, analysis).formula_variables(formula)
    return analysis, formula, columns, formulas.compile_template(
        analysis, formula, columns)


def _fields(unit):
    if unit is None:
        return None
    return [None if ps is None else
            tuple(getattr(ps, name) for name in matrix.PackedSystem.__slots__)
            for ps in unit]


def _reference(db, analysis, formula, columns, values):
    """What the per-row path packs: the instantiated body's unit."""
    try:
        constraint = formulas.instantiate_formula(
            db, analysis, formula, dict(zip(columns, values)))
    except Exception:
        return None
    return matrix.pack_constraint(constraint)


def _rows(db, columns, rng, count, odd=0.0):
    objects = [o.oid for o in db.objects()]
    rows = []
    for _ in range(count):
        row = []
        for name in columns:
            if name in ("A", "B"):
                row.append(rng.choice(objects))
            elif name == "N":
                row.append(LiteralOid(Fraction(rng.randint(-6, 6))))
            else:
                row.append(_odd_cell(rng) if rng.random() < odd
                           else _cell(rng))
        rows.append(tuple(row))
    return rows


#: Every templated shape: explicit arguments, the declared spec, a spec
#: and arguments that reverse the stored order (the ``=`` / ``!=`` lead
#: moves), ``$param`` atoms, and atoms over row-bound numbers.
TEMPLATED = [
    "SAT(E(x,y) and F(x,y) and x + y <= $k)",
    "SAT(E and F)",
    "SAT(E(y,x) and F)",
    "SAT(G and F(x,y) and x - y != $k)",
    "SAT(G(u,v) and E(v,u) and (TRUE and 2*u = v))",
    "SAT(E and $lo <= x <= $hi)",
    "SAT(E and F and x <= N and y >= A.w - 3 and 1 <= 2)",
    "SAT(E and F and $hi <= $lo)",
]

PARAMS = {"k": LiteralOid(Fraction(7, 2)), "lo": LiteralOid(Fraction(-2)),
          "hi": LiteralOid(Fraction(3))}


@pytest.mark.parametrize("sat", TEMPLATED)
@pytest.mark.parametrize("odd", [0.0, 0.3])
def test_template_units_equal_the_instantiated_units(sat, odd):
    db = shapes_database()
    text = ("SELECT A FROM Shape A, Shape B WHERE A.extent[E] "
            "and B.extent[F] and A.flipped[G] and A.w[N] and " + sat)
    analysis, formula, columns, template = _compiled(db, text)
    assert template is not None
    rng = random.Random(f"{sat}/{odd}")
    rows = _rows(db, columns, rng, 120, odd)
    ctx = QueryContext(stats=ExecutionStats(), params=PARAMS)
    with ctx.activate():
        units = formulas.formula_units(db, analysis, formula, columns,
                                       template, rows)
        expected = [_reference(db, analysis, formula, columns, values)
                    for values in rows]
    assert [_fields(u) for u in units] == [_fields(u) for u in expected]
    templated = ctx.stats.template_rows
    if odd:
        assert 0 < templated < len(rows)
    else:
        assert templated == len(rows)


def test_an_unbound_parameter_gives_no_units():
    """A template whose ``$param`` atom cannot be instantiated leaves
    every row to the per-row path, which raises — so the exact test
    reproduces the error."""
    db = shapes_database()
    analysis, formula, columns, template = _compiled(
        db, "SELECT A FROM Shape A WHERE A.extent[E] and SAT(E and x <= $k)")
    rows = _rows(db, columns, random.Random(1), 10)
    with QueryContext(stats=ExecutionStats()).activate():
        assert formulas.formula_units(db, analysis, formula, columns,
                                      template, rows) == [None] * 10


@pytest.mark.parametrize("sat", [
    "SAT(E or F)",
    "SAT(E and not F)",
    "SAT(E(x,x) and F)",
    "SAT(A.extent(x,y) and F)",
])
def test_other_shapes_get_no_template(sat):
    db = shapes_database()
    text = ("SELECT A FROM Shape A, Shape B WHERE A.extent[E] "
            "and B.extent[F] and " + sat)
    assert _compiled(db, text)[3] is None


def test_an_interface_renamed_edge_gets_no_template():
    """The implicit equalities of Section 3.2 stay on the per-row
    path."""
    db, _ = build_office_database()
    _, _, _, template = _compiled(db, """
        SELECT DSK FROM Desk DSK
        WHERE DSK.drawer_center[DC] and DSK.drawer.translation[DD]
          and SAT(DC(p,q) and DD(w1,z1,x1,y1,u1,v1) and x1 = -2)
    """)
    assert template is None


@pytest.mark.skipif(not numeric.numeric_available(),
                    reason="the batch kernel needs the fast extra")
class TestTemplateRowsAreBooked:
    def _run(self, query):
        inst = bench_text.build_dense(3, {"n": 6, "extra": 4, "atoms": 5,
                                    "drawn": 20})
        ctx = QueryContext(stats=ExecutionStats(), cache=None)
        lyric.stream(inst.db, query, ctx=ctx,
                     params=bench_text.distinct_k(0)).result()
        return ctx.stats

    def test_the_dense_join_packs_every_candidate_by_template(self):
        stats = self._run(bench_text.DENSE_JOIN_QUERY)
        assert stats.index_candidates >= batch.MIN_BATCH
        assert stats.template_rows == stats.index_candidates

    def test_an_or_bodied_join_packs_none_by_template(self):
        stats = self._run("""
            SELECT A, B FROM Lft A, Rgt B
            WHERE A.extent[E] and B.extent[F]
              and SAT((E(x,y) and F(x,y)) or x + y <= $k)
        """)
        decided = stats.numeric_accepts + stats.numeric_rejects
        assert decided + stats.numeric_fallbacks >= batch.MIN_BATCH
        assert stats.template_rows == 0
