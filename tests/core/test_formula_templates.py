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
from repro.constraints.parser import parse_constraint
from repro.constraints.terms import Variable
from repro.core import ast, formulas
from repro.core.parser import parse_query
from repro.core.semantics import analyze
from repro.core.translator import _Translator
from repro.errors import InfeasibleError, ResourceExhausted
from repro.model.database import Database
from repro.model.oid import CstOid, LiteralOid
from repro.model.office import build_office_database
from repro.model.schema import AttributeDef, CSTSpec, Schema
from repro.runtime import ExecutionGuard
from repro.runtime.cache import ConstraintCache
from repro.runtime.context import ExecutionStats, QueryContext
from repro.sqlc import batch
from repro.workloads import office

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


# ---------------------------------------------------------------------------
# SELECT formulas: templated bodies and the memoized exact step
# ---------------------------------------------------------------------------


def _select_compiled(db, text, index=1):
    analysis = analyze(db.schema, parse_query(text))
    item = analysis.query.select[index].expr
    columns = tuple(dict.fromkeys(
        _Translator(db, analysis).formula_variables(item.formula)))
    return analysis, item, columns, formulas.compile_template(
        analysis, item.formula, columns)


def _outcome(compute):
    """A SELECT item's value field for field — its printed form and its
    repr (a CST oid's content) — or the error it raises."""
    try:
        value = compute()
    except Exception as exc:    # compared, not swallowed
        return type(exc).__name__, str(exc)
    return str(value), repr(value)


def _evaluate(db, analysis, item, env, template):
    if isinstance(item, ast.FormulaOut):
        return CstOid(formulas.formula_to_cst(db, analysis, item.formula,
                                              env, template))
    return formulas.optimize(db, analysis, item, env, template)


def _same_body(db, analysis, item, columns, template, values):
    """The templated body equals the instantiated one, columns and rows
    in order; ``False`` when the template does not cover the row."""
    fixed = formulas._fixed_rows(db, analysis, template)
    body = None if fixed is None else formulas.template_body(
        db, analysis, template, fixed, values)
    if body is None:
        return False
    reference = formulas._system(db, analysis, item.formula,
                                 dict(zip(columns, values)), None)
    assert body.columns == reference.columns
    assert body.rows == reference.rows
    return True


#: Every templated SELECT shape: a projection (over declared specs,
#: explicit and reversed arguments, ``$params`` and row-bound atoms),
#: then MAX, MIN, MAX_POINT and MIN_POINT.
SELECT_TEMPLATED = [
    "((x,y) | E and F and x + y <= $k)",
    "((u) | G(u,v) and E(v,u) and 2*u = v)",
    "((x) | E(x,y) and F(y,x) and x <= N and y >= A.w - 3)",
    "MAX(x SUBJECT TO ((x,y) | E and F and $lo <= x + y <= $hi))",
    "MIN(x - y SUBJECT TO ((x,y) | E and F and $lo <= x <= $hi))",
    "MAX_POINT(x + 2*y SUBJECT TO ((x,y) | E and F and x <= $k))",
    "MIN_POINT(y SUBJECT TO (E(x,y) and $lo <= y <= $hi))",
]


@pytest.mark.parametrize("item", SELECT_TEMPLATED)
@pytest.mark.parametrize("odd", [0.0, 0.3])
def test_select_template_bodies_and_results_equal_the_per_row_ones(
        item, odd):
    db = shapes_database()
    text = ("SELECT A, " + item + " FROM Shape A, Shape B "
            "WHERE A.extent[E] and B.extent[F] and A.flipped[G] "
            "and A.w[N]")
    analysis, node, columns, template = _select_compiled(db, text)
    assert template is not None
    rng = random.Random(f"{item}/{odd}")
    rows = _rows(db, columns, rng, 60, odd)
    covered = 0
    cached = QueryContext(stats=ExecutionStats(), params=PARAMS)
    per_row = QueryContext(stats=ExecutionStats(), params=PARAMS,
                           cache=None)
    for values in rows + rows:      # the second pass hits the memo
        env = dict(zip(columns, values))
        with cached.activate():
            covered += _same_body(db, analysis, node, columns, template,
                                  values)
            got = _outcome(lambda: _evaluate(db, analysis, node, env,
                                             template))
        with per_row.activate():
            want = _outcome(lambda: _evaluate(db, analysis, node, env,
                                              None))
        assert got == want
    if odd:
        assert 0 < covered < 2 * len(rows)
    else:
        assert covered == 2 * len(rows)
    assert cached.stats.cache_hits > 0


def office_instance():
    return office.generate(8, seed=5).db


OFFICE_SELECT = [
    ("projection", bench_text.PROJECTION_QUERY),
    ("max", bench_text.MAX_QUERY),
    ("min", bench_text.MAX_QUERY.replace("MAX(", "MIN(")),
    ("max_point", bench_text.MAX_QUERY.replace("MAX(", "MAX_POINT(")),
    ("min_point", bench_text.MAX_QUERY.replace("MAX(", "MIN_POINT(")),
    ("placed_extent", office.PLACED_EXTENT_QUERY),
]

OFFICE_PARAMS = {"px": 5, "py": 7}


def _printed(result):
    return sorted((str(row.oid), tuple(map(str, row.values)),
                   tuple(map(repr, row.values))) for row in result)


@pytest.mark.parametrize("name,text", OFFICE_SELECT,
                         ids=[name for name, _ in OFFICE_SELECT])
def test_office_select_shapes_run_from_templates(name, text):
    """The office SELECT shapes — the placed extent's vacuous
    ``catalog_object`` edge included — are templated, every row's body
    is the instantiated one, and the query's rows equal the per-row
    reference's (the naive evaluator, no cache), printed oid
    included, cold and from the memo; each result row books one
    template row."""
    db = office_instance()
    analysis, item, columns, template = _select_compiled(db, text)
    assert template is not None
    frm = text[text.index("FROM"):]
    rows = lyric.query(db, "SELECT " + ", ".join(columns) + " " + frm)
    assert len(rows) > 1
    ctx = QueryContext(params=lyric._coerce_params(OFFICE_PARAMS))
    with ctx.activate():
        assert all(_same_body(db, analysis, item, columns, template,
                              row.values) for row in rows)
    reference = _printed(lyric.query(
        db, text, ctx=QueryContext(cache=None), params=OFFICE_PARAMS))
    for _ in range(2):
        stats = ExecutionStats()
        result = lyric.stream(db, text, ctx=QueryContext(stats=stats),
                              params=OFFICE_PARAMS).result()
        assert _printed(result) == reference
        assert stats.template_rows == len(result)


FALLBACK_SELECT = [
    # An interface-renamed edge whose implicit equalities bind: the
    # drawer's (x,y) are the desk's (p,q).
    ("drawer_edge", """
        SELECT DSK, ((u1,v1) | C and DD(w1,z1,x1,y1,u1,v1)
                               and w1 = 0 and z1 = 0)
        FROM Desk DSK
        WHERE DSK.drawer_center[C] and DSK.drawer.translation[DD]
     """),
    ("or_body", """
        SELECT CO, ((u,v) | (E and D and x = $px and y = $py)
                            or (E and D and x = $py and y = $px))
        FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]
     """),
    ("not_body", """
        SELECT CO, MAX(u SUBJECT TO ((u,v) | E and D and x = $px
                                     and y = $py and not (u <= $px)))
        FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]
     """),
]


@pytest.mark.parametrize("name,text", FALLBACK_SELECT,
                         ids=[name for name, _ in FALLBACK_SELECT])
def test_other_select_shapes_fall_back_with_the_same_answers(name, text):
    db = office_instance()
    assert _select_compiled(db, text)[3] is None
    reference = _printed(lyric.query(
        db, text, ctx=QueryContext(cache=None), params=OFFICE_PARAMS))
    for _ in range(2):
        stats = ExecutionStats()
        result = lyric.stream(db, text, ctx=QueryContext(stats=stats),
                              params=OFFICE_PARAMS).result()
        assert _printed(result) == reference
        assert stats.template_rows == 0


class TestTheExactStepMemo:
    def test_row_order_is_part_of_the_key(self):
        """Equal as sets of rows, different in order: two entries."""
        first = parse_constraint("x <= 1 and y <= 2 and x + y >= 0")
        second = ConjunctiveConstraint.from_rows(
            first.columns, first.rows[::-1])
        assert first == second and first.rows != second.rows
        calls = []
        ctx = QueryContext(stats=ExecutionStats(), cache=ConstraintCache())
        with ctx.activate():
            for body in (first, second, first, second):
                formulas._memoized(("project", ("x",)), body,
                                   lambda: calls.append(1))
        assert len(calls) == 2
        assert ctx.stats.cache_hits == 2

    def _optimum(self, db, text, ctx):
        analysis, item, columns, template = _select_compiled(db, text)
        assert template is not None
        row = next(iter(lyric.query(
            db, "SELECT " + ", ".join(columns) + " "
            + text[text.index("FROM"):])))
        with ctx.activate():
            return formulas.optimize(db, analysis, item,
                                     dict(zip(columns, row.values)),
                                     template)

    def test_an_infeasible_lp_is_not_cached(self):
        db = office_instance()
        text = bench_text.MAX_QUERY.replace("y = $py", "x = $px + 1")
        ctx = QueryContext(stats=ExecutionStats(), cache=ConstraintCache(),
                           params=lyric._coerce_params(OFFICE_PARAMS))
        for _ in range(2):
            with pytest.raises(InfeasibleError):
                self._optimum(db, text, ctx)
        assert ctx.stats.cache_hits == 0

    def test_an_exhausted_lp_is_not_cached(self):
        db = office_instance()
        text = bench_text.MAX_QUERY
        cache = ConstraintCache()
        for _ in range(2):
            guard = ExecutionGuard(max_pivots=1)
            ctx = QueryContext(stats=ExecutionStats(), guard=guard,
                               cache=cache,
                               params=lyric._coerce_params(OFFICE_PARAMS))
            with pytest.raises(ResourceExhausted):
                self._optimum(db, text, ctx)
            assert guard.spend()["pivots"] >= 1
            assert ctx.stats.cache_hits == 0
        guard = ExecutionGuard()
        ctx = QueryContext(stats=ExecutionStats(), guard=guard,
                           cache=cache,
                           params=lyric._coerce_params(OFFICE_PARAMS))
        self._optimum(db, text, ctx)
        assert guard.spend()["pivots"] >= 1
