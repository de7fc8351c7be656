"""Instantiation of CST formulas (the constraint side of Section 4).

Given a variable environment produced by the evaluator, a
:class:`~repro.core.ast.CstFormula` is turned into a constraint-engine
object by:

1. evaluating pseudo-linear atoms — path expressions and object
   variables bound to numbers become rational constants, every other
   name becomes a constraint variable;
2. instantiating constraint-object references — the referenced CST
   value is renamed onto the attribute's declared variable schema
   ("variables are simply copied from the schema") or onto the explicit
   argument list ``O(x1..xn)``;
3. adding the **implicit equalities** of Section 4.1: for the last
   interface-renamed edge on the reference's binding path, each
   interface formal that occurs in the reference's schema is equated
   with the corresponding actual (``p = x1 and q = y1`` in the paper's
   drawer example) — together with textual variable identity inside the
   formula this reproduces every worked example in the paper;
4. composing with ``and``/``or``/``not`` under the family rules, and
   projecting onto the formula head.

A formula with a conjunctive spine is also compiled once per plan into
a :class:`FormulaTemplate` (Section 5 evaluates a fixed query, so for
each row the formula is the same linear system with that row's stored
constraints put in): :func:`template_body` assembles a row's body
straight from the stored integer rows, equal to the instantiated body
row for row.  :func:`formula_units` packs it for the numeric kernel
(WHERE ``SAT`` without a head); :func:`formula_to_cst` and
:func:`optimize` (SELECT) run their exact step — the projection, the
LP — on it once per distinct body, through the context's cache.

One refinement over a literal reading of the paper: an implicit edge
equality is only *emitted* when its actual-parameter variable is used
somewhere else in the formula (or is a head variable).  When the actual
is used nowhere, the equality merely links an otherwise-unconstrained
variable and is semantically vacuous; dropping it also prevents two
same-named edges of *different* parent objects (e.g. two
``catalog_object`` traversals in one formula) from accidentally
identifying both parents' coordinate frames through the shared literal
actual names.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.constraints import matrix
from repro.constraints.atoms import (
    Relop,
    Terms,
    add_terms,
    index_named,
    named_row,
    product_terms,
    remap_rows,
    scaled_terms,
)
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import (
    CSTObject,
    _conjoin_all,
    _conjoin_any,
    _disjoin_any,
)
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import LinearExpression, Variable
from repro.core import ast
from repro.core.semantics import AnalyzedQuery
from repro.errors import EvaluationError
from repro.model.database import Database
from repro.model.oid import CstOid, LiteralOid, Oid
from repro.model.paths import PathExpression, VarRef, path_values
from repro.runtime.context import current_context, param_value

#: A pending implicit equality from an interface-renamed edge:
#: (runtime oids of the edge's source object, actual spec variable,
#: renamed formal variable).
PendingEq = tuple[frozenset, Variable, Variable]

#: An anchor: a reference that can resolve an actual variable to the
#: name the formula actually uses for it — (runtime oids of the
#: reference's parent object, spec-variable -> used-variable map).
Anchor = tuple[frozenset, dict]


def instantiate_body(db: Database, analysis: AnalyzedQuery,
                     node: ast.Formula, env
                     ) -> tuple[object, list[PendingEq], list[Anchor]]:
    """The formula body as a constraint-engine object (one of the four
    families), plus the not-yet-emitted implicit edge equalities and
    the anchors that can resolve them."""
    if isinstance(node, ast.FAtom):
        return ConjunctiveConstraint.from_named(
            [_build_atom(db, analysis, node, env)]), [], []
    if isinstance(node, ast.FRef):
        return _ref_constraint(db, analysis, node, env)
    if isinstance(node, ast.FAnd):
        parts: list = []
        pending: list[PendingEq] = []
        anchors: list[Anchor] = []
        for part in node.parts:
            constraint, part_pending, part_anchors = instantiate_body(
                db, analysis, part, env)
            parts.append(constraint)
            pending.extend(part_pending)
            anchors.extend(part_anchors)
        return (_conjoin_all([ConjunctiveConstraint.true(), *parts]),
                pending, anchors)
    if isinstance(node, ast.FOr):
        # Implicit equalities are scoped to their own disjunct.
        parts = []
        for p in node.parts:
            constraint, part_pending, part_anchors = instantiate_body(
                db, analysis, p, env)
            parts.append(_apply_pending(
                constraint, part_pending, part_anchors, frozenset()))
        result = parts[0]
        for part in parts[1:]:
            result = _disjoin_any(result, part)
        return result, [], []
    if isinstance(node, ast.FNot):
        inner, pending, anchors = instantiate_body(
            db, analysis, node.part, env)
        inner = _apply_pending(inner, pending, anchors, frozenset())
        return _negate(inner), [], []
    if isinstance(node, ast.FTrue):
        return ConjunctiveConstraint.true(), [], []
    raise EvaluationError(f"unknown formula node {node!r}")


def _apply_pending(constraint, pending: list[PendingEq],
                   anchors: list[Anchor],
                   extra_used: frozenset[Variable]):
    """Emit the applicable implicit edge equalities.

    For each pending ``actual = formal'``: references whose parent
    object *is* the edge's source object and whose schema contains the
    actual variable resolve it to the name they use in this formula
    (the paper's "arguments of DSK.drawer_center must be equal to the
    arguments of DSK.drawer.translation").  Without such an anchor the
    equality is emitted with the literal actual name if — and only if —
    that name is used elsewhere in the formula or is a head variable;
    otherwise it is vacuous and dropped.
    """
    if not pending:
        return constraint
    used = frozenset(constraint.variables) | extra_used
    equalities = []
    for sources, actual, formal in pending:
        resolved = set()
        for parent_keys, rename in anchors:
            if sources and (parent_keys & sources) and actual in rename:
                resolved.add(rename[actual])
        if not resolved and actual in used:
            resolved = (actual,)
        equalities += [_equality(name, ({formal.name: 1}, 0))
                       for name in resolved if name != formal]
    if not equalities:
        return constraint
    return _conjoin_any(constraint,
                        ConjunctiveConstraint.from_named(equalities))


def instantiate_formula(db: Database, analysis: AnalyzedQuery,
                        formula: ast.CstFormula, env) -> object:
    """Instantiate and, when the formula has a head, project onto it."""
    if formula.head is not None:
        return formula_to_cst(db, analysis, formula, env).constraint
    body, pending, anchors = instantiate_body(
        db, analysis, formula.body, env)
    return _apply_pending(body, pending, anchors, frozenset())


def formula_to_cst(db: Database, analysis: AnalyzedQuery,
                   formula: ast.CstFormula, env,
                   template: "FormulaTemplate | None" = None) -> CSTObject:
    """The CST object denoted by a formula with a projection head —
    its body from ``template`` when that covers the row
    (:func:`_system`), projected once per distinct conjunctive body."""
    if formula.head is None:
        raise EvaluationError(
            "a SELECT-clause formula needs a projection head "
            "((x1..xn) | ...)")
    head_vars = [Variable(name) for name in formula.head]
    body = _system(db, analysis, formula, env, template)
    return _memoized(("project", formula.head), body, lambda: CSTObject(
        head_vars, _project(body, head_vars)))


def _system(db: Database, analysis: AnalyzedQuery,
            formula: ast.CstFormula, env,
            template: "FormulaTemplate | None"):
    """A SELECT formula's body with its implicit equalities: assembled
    from ``template`` when it covers the row, instantiated otherwise."""
    if template is not None:
        fixed = _fixed_rows(db, analysis, template)
        body = None if fixed is None else template_body(
            db, analysis, template, fixed,
            [env[name] for name in template.columns])
        if body is not None:
            return body
    body, pending, anchors = instantiate_body(
        db, analysis, formula.body, env)
    return _apply_pending(body, pending, anchors, frozenset(
        Variable(name) for name in formula.head or ()))


def _memoized(tag: tuple, body, compute):
    """``compute()`` — the exact step over a SELECT formula's ``body``
    — through the context's cache when the body is a conjunction,
    keyed on ``tag``, the column names and the rows *in order*:
    elimination's pivots and an optimum's vertex follow the row order,
    so two bodies equal as sets of rows are different keys."""
    if type(body) is not ConjunctiveConstraint:
        return compute()
    return current_context().memoized(
        (*tag, tuple([var.name for var in body.columns]), body.rows),
        compute)


def satisfiable(db: Database, analysis: AnalyzedQuery,
                formula: ast.CstFormula, env) -> bool:
    """The WHERE-clause satisfiability predicate."""
    body = instantiate_formula(db, analysis, formula, env)
    return body.is_satisfiable()


def entails(db: Database, analysis: AnalyzedQuery,
            lhs: ast.CstFormula, rhs: ast.CstFormula, env) -> bool:
    """The WHERE-clause implication predicate ``lhs |= rhs``.

    Variables are matched by name (the Section 4.2 semantics).  When
    both sides carry definite schemas with disjoint names and equal
    dimension — e.g. two bare references to CST objects of the same
    class — matching falls back to positional renaming of the right
    side onto the left schema.
    """
    left_constraint, left_schema = _side(db, analysis, lhs, env)
    right_constraint, right_schema = _side(db, analysis, rhs, env)

    if (left_schema is not None and right_schema is not None
            and len(left_schema) == len(right_schema)
            and not ({v.name for v in left_schema}
                     & {v.name for v in right_schema})):
        mapping = dict(zip(right_schema, left_schema))
        right_constraint = right_constraint.rename(mapping)

    lhs_dex = DisjunctiveExistentialConstraint.of(left_constraint)
    rhs_dex = DisjunctiveExistentialConstraint.of(right_constraint)
    return lhs_dex.entails(rhs_dex)


def _side(db, analysis, formula: ast.CstFormula, env):
    """Instantiate one side of ``|=``; returns (constraint, schema) where
    schema is a definite variable order or None."""
    if formula.head is not None:
        cst = formula_to_cst(db, analysis, formula, env)
        return cst.constraint, cst.schema
    if isinstance(formula.body, ast.FRef):
        cst, _ = _ref_cst_object(db, analysis, formula.body, env)
        return cst.constraint, cst.schema
    body = instantiate_formula(db, analysis, formula, env)
    return body, None


# ---------------------------------------------------------------------------
# Formula templates (a formula's body assembled from stored rows)
# ---------------------------------------------------------------------------


#: Template part kinds: a bare-variable reference, an atom whose leaves
#: are constants and ``$params`` only, an atom that reads the row.
_REF, _FIXED, _ROW_ATOM = range(3)


@dataclass(slots=True, eq=False)
class FormulaTemplate:
    """The conjunctive spine (``and`` / ``TRUE`` / references / atoms)
    of a formula, compiled once per plan over the row ``columns``.

    ``variables`` is every constraint variable the spine can mention,
    sorted by name: the columns of the rows a body is assembled from,
    before the columns a row does not use drop out (``slot`` gives each
    name's column).  ``parts`` follow
    the spine in conjunction order: ``(_REF, cell position, declared
    dimension, column of each stored schema position)`` — the
    positional rename stored schema → declared spec → explicit
    arguments as a column map — or ``(_FIXED | _ROW_ATOM, atom node)``.
    ``fixed`` holds the ``_FIXED`` atoms' rows for one set of parameter
    values, keyed on them and replaced as one tuple, so a session with
    other values never reads them (:func:`_fixed_rows`).
    """

    columns: tuple[str, ...]
    variables: tuple[Variable, ...]
    slot: dict[str, int]
    parts: tuple
    fixed: tuple | None = None


def compile_template(analysis: AnalyzedQuery, formula: ast.CstFormula,
                     columns: tuple[str, ...]
                     ) -> FormulaTemplate | None:
    """The template of a formula over the row ``columns``, or ``None``
    when the formula has a shape the template does not cover (``or`` /
    ``not``, a path-source reference, repeated arguments, a reference
    whose names are only known from the stored cell, or an
    interface-renamed edge whose implicit equalities are not vacuous
    whatever the row)."""
    spine: list[ast.Formula] = []
    if not _spine(formula.body, spine):
        return None
    names: set[str] = set()
    refs: dict[ast.FRef, tuple[int, tuple[str, ...]]] = {}
    row_atoms: set[ast.FAtom] = set()
    for node in spine:
        if isinstance(node, ast.FAtom):
            if _reads_row(node.left, columns, names) \
                    | _reads_row(node.right, columns, names):
                row_atoms.add(node)
            continue
        if not isinstance(node.source, str):
            return None
        info = analysis.ref_info.get(node)
        spec = info.spec if info is not None else None
        if node.args is not None:
            targets = tuple(node.args)
            if spec is not None and spec.dimension != len(targets):
                return None
        elif spec is not None:
            targets = tuple(v.name for v in spec.variables)
        else:
            return None
        if len(set(targets)) != len(targets):
            return None
        names.update(targets)
        refs[node] = (columns.index(node.source), targets)
    if not _edges_vacuous(analysis, refs):
        return None
    order = sorted(names)
    slot = {name: j for j, name in enumerate(order)}
    parts = []
    for node in spine:
        if isinstance(node, ast.FRef):
            position, targets = refs[node]
            parts.append((_REF, position, len(targets),
                          tuple(slot[t] for t in targets)))
        else:
            parts.append((_ROW_ATOM if node in row_atoms else _FIXED,
                          node))
    return FormulaTemplate(columns, tuple(Variable(n) for n in order),
                           slot, tuple(parts))


def _edges_vacuous(analysis: AnalyzedQuery,
                   refs: dict[ast.FRef, tuple[int, tuple[str, ...]]]
                   ) -> bool:
    """Whether the implicit equalities of the references'
    interface-renamed edges (:func:`_ref_constraint`) are vacuous
    whatever the row: each formal in a reference's spec is used under
    its actual's name, and no reference renames that name, so every
    equality :func:`_apply_pending` could emit equates a name with
    itself."""
    infos = [(analysis.ref_info.get(node), targets)
             for node, (_, targets) in refs.items()]
    edges = [(info, targets) for info, targets in infos
             if info is not None and info.last_edge is not None
             and info.last_edge.interface_args is not None]
    if not edges:
        return True
    if any(info is None or info.spec is None for info, _ in infos):
        return False
    renamed = {v.name for info, targets in infos
               for v, t in zip(info.spec.variables, targets) if v.name != t}
    for info, targets in edges:
        used = dict(zip(info.spec.variables, targets))
        for actual, formal in zip(info.last_edge.interface_args,
                                  info.edge_formals):
            if actual.name in renamed \
                    or used.get(formal, actual.name) != actual.name:
                return False
    return True


def _spine(node: ast.Formula, out: list) -> bool:
    """Collect the references and atoms of a conjunctive spine in
    conjunction order; ``False`` for any other shape."""
    if isinstance(node, ast.FAnd):
        return all(_spine(part, out) for part in node.parts)
    if isinstance(node, (ast.FRef, ast.FAtom)):
        out.append(node)
        return True
    return isinstance(node, ast.FTrue)


def _reads_row(node: ast.Arith, columns: tuple[str, ...],
               names: set[str]) -> bool:
    """Whether an atom side reads the row (a path, or a name the row
    binds); the names it leaves to the constraint go into ``names``."""
    if isinstance(node, ast.AName):
        if node.name in columns:
            return True
        names.add(node.name)
        return False
    if isinstance(node, ast.APath):
        return True
    if isinstance(node, ast.ABinary):
        return _reads_row(node.left, columns, names) \
            | _reads_row(node.right, columns, names)
    if isinstance(node, ast.ANeg):
        return _reads_row(node.operand, columns, names)
    return False


def template_body(db: Database, analysis: AnalyzedQuery,
                  template: FormulaTemplate, fixed: dict, values,
                  stored: dict | None = None
                  ) -> ConjunctiveConstraint | None:
    """A row's body assembled from ``template`` — ``values`` holds the
    row's values for ``template.columns`` — as
    ``ConjunctiveConstraint.from_rows(template.variables, rows)``: the
    reference cells' stored rows under the template's column map, the
    ``$param`` and constant atoms' rows (``fixed``, from
    :func:`_fixed_rows`) and the row-bound atoms' rows, in conjunction
    order — the instantiated body, columns and rows in order.  ``None``
    when the template does not cover the row (a cell that is not a CST
    object holding a conjunction of the declared dimension, an atom
    that does not instantiate); the per-row path then gives the body
    or the error.  ``stored`` memoizes cells' rows over one batch.
    Covered rows are booked as ``template_rows``."""
    rows: list = []
    env = None
    for i, part in enumerate(template.parts):
        kind = part[0]
        if kind == _REF:
            cell = values[part[1]]
            if stored is None:
                mapped = _cell_rows(cell, part[2], part[3])
            else:
                key = (i, id(cell))
                if key not in stored:
                    stored[key] = _cell_rows(cell, part[2], part[3])
                mapped = stored[key]
        elif kind == _FIXED:
            mapped = fixed[i]
        else:
            if env is None:
                env = dict(zip(template.columns, values))
            try:
                named = _build_atom(db, analysis, part[1], env)
            except Exception:
                return None
            mapped = _template_rows(*index_named([named]), template.slot)
        if mapped is None:
            return None
        rows += mapped
    current_context().stats.template_rows += 1
    return ConjunctiveConstraint.from_rows(template.variables, rows)


def _fixed_rows(db: Database, analysis: AnalyzedQuery,
                template: FormulaTemplate) -> dict | None:
    """The ``_FIXED`` parts' rows over the template's columns, by part
    index, for the active context's values of the query's parameters —
    built once per set of values; ``None`` when one of them does not
    instantiate."""
    params = current_context().params or {}
    key = tuple([params.get(name) for name in analysis.params])
    held = template.fixed
    if held is not None and held[0] == key:
        return held[1]
    fixed: dict[int, list] | None = {}
    for i, part in enumerate(template.parts):
        if part[0] == _FIXED:
            try:
                mapped = _template_rows(*index_named(
                    [_build_atom(db, analysis, part[1], {})]), template.slot)
            except Exception:
                mapped = None
            if mapped is None:
                fixed = None
                break
            fixed[i] = mapped
    template.fixed = (key, fixed)
    return fixed


def formula_units(db: Database, analysis: AnalyzedQuery,
                  formula: ast.CstFormula, columns: tuple[str, ...],
                  template: FormulaTemplate | None,
                  cells: list[tuple]) -> list:
    """The packed units (:mod:`repro.constraints.matrix`) of a WHERE
    ``SAT`` formula without a head for a batch of rows — ``cells[i]``
    holds row ``i``'s values for ``columns``.

    A row the template covers is packed from :func:`template_body`,
    which equals the instantiated body, so it gives the unit
    ``matrix.pack_constraint`` of that body would.  Any other row is
    instantiated and packed; one whose instantiation raises gets
    ``None``, so the exact test reproduces the error."""
    def generic(values: tuple):
        try:
            constraint = instantiate_formula(
                db, analysis, formula, dict(zip(columns, values)))
        except Exception:
            return None
        return matrix.pack_constraint(constraint)

    fixed = None if template is None \
        else _fixed_rows(db, analysis, template)
    if fixed is None:
        return [generic(values) for values in cells]
    stored: dict = {}
    converted: dict = {}
    units: list = []
    for values in cells:
        body = template_body(db, analysis, template, fixed, values,
                             stored)
        units.append(generic(values) if body is None
                     else _packed(body, converted))
    return units


def _packed(body: ConjunctiveConstraint, converted: dict) -> list:
    """``matrix.pack_constraint(body)``, each row's float form computed
    once per batch: ``converted`` maps ``id(row)`` to the row — held,
    so the id stays its own — and its :func:`~matrix.float_row`."""
    if body.is_syntactically_false():
        return []
    floats = []
    for row in body.rows:
        held = converted.get(id(row))
        if held is None:
            held = converted[id(row)] = (row, matrix.float_row(row[1],
                                                               row[3]))
        floats.append(held[1])
    return [matrix.pack_rows(body.columns, body.rows, floats)]


def _build_atom(db: Database, analysis: AnalyzedQuery,
                node: ast.FAtom, env) -> tuple:
    """The named row (``atoms.named_row``) an ``FAtom`` gives."""
    return named_row(_arith(db, analysis, node.left, env),
                     Relop(node.relop),
                     _arith(db, analysis, node.right, env))


def _equality(var: Variable, other: Terms) -> tuple:
    """The named row ``var = other``."""
    return named_row(({var.name: 1}, 0), Relop.EQ, other)


def _cell_rows(cell, dimension: int, targets: tuple[int, ...]
               ) -> list | None:
    """A reference cell's stored rows over the template's columns
    (stored schema position ``i`` to column ``targets[i]``), as
    :func:`_template_rows`; ``None`` unless the cell is a CST object
    holding a conjunction of ``dimension``."""
    if not isinstance(cell, CstOid):
        return None
    conj = cell.cst.constraint
    if type(conj) is not ConjunctiveConstraint \
            or cell.cst.dimension != dimension:
        return None
    return _template_rows(conj.columns, conj.rows, {
        var.name: j for var, j in zip(cell.cst.schema, targets)})


def _template_rows(columns, rows, column: dict[str, int]) -> list | None:
    """Rows over ``columns`` moved to the template's columns — the
    column remap a rename does, variable ``v`` to ``column[v.name]``;
    ``None`` when a variable has no column."""
    try:
        target = [column[var.name] for var in columns]
    except KeyError:
        return None
    return remap_rows(rows, target)


# ---------------------------------------------------------------------------
# Optimization operators
# ---------------------------------------------------------------------------


def optimize(db: Database, analysis: AnalyzedQuery,
             item: ast.OptimizeOut, env,
             template: "FormulaTemplate | None" = None) -> Oid:
    """Evaluate MAX/MIN/MAX_POINT/MIN_POINT; returns the result oid
    (a numeric literal, or a singleton-point CST object).  The body
    comes from ``template`` when that covers the row, and the LP runs
    once per distinct conjunctive body and objective."""
    from repro.constraints import lp

    system = _system(db, analysis, item.formula, env, template)
    coeffs, constant = _arith(db, analysis, item.objective, env)

    maximize = item.kind in (ast.OptimizeKind.MAX,
                             ast.OptimizeKind.MAX_POINT)
    # The lp module accepts every family: a disjunctive system is
    # optimized branch-wise (an extension over the paper's
    # existential-conjunctive typing; see lp._coerce_systems).  Its
    # objective is built when the LP runs.
    solve = lp.max_value if maximize else lp.min_value
    result = _memoized(
        ("max" if maximize else "min", tuple(sorted(coeffs.items())),
         constant),
        system, lambda: solve(LinearExpression(
            {Variable(name): c for name, c in coeffs.items()}, constant),
            system))

    if item.kind in (ast.OptimizeKind.MAX, ast.OptimizeKind.MIN):
        return LiteralOid(result.value)

    if item.formula.head is not None:
        point_vars = [Variable(n) for n in item.formula.head]
    else:
        point_vars = sorted(system.variables, key=lambda v: v.name)
    point = result.point_on(point_vars)
    return CstOid(CSTObject(point_vars, ConjunctiveConstraint.from_named(
        [_equality(var, ({}, point[var])) for var in point_vars])))


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _project(body, head_vars: list[Variable]):
    head = frozenset(head_vars)
    if isinstance(body, ConjunctiveConstraint):
        body = ExistentialConjunctiveConstraint.of_conjunctive(body)
    return body.project(head)


def _negate(body):
    if isinstance(body, ConjunctiveConstraint):
        return DisjunctiveConstraint.negation_of_conjunctive(body)
    if isinstance(body, DisjunctiveConstraint):
        return body.negate()
    raise EvaluationError(
        "negation is only defined on conjunctive and disjunctive "
        "formulas (Section 3.1)")


def _arith(db: Database, analysis: AnalyzedQuery, node: ast.Arith,
           env) -> Terms:
    """The term (with a fresh coefficient map) a node evaluates to."""
    if isinstance(node, ast.ANum):
        return {}, node.value
    if isinstance(node, ast.AName):
        bound = env.get(node.name)
        if bound is None:
            return {node.name: 1}, 0
        if isinstance(bound, LiteralOid) \
                and isinstance(bound.value, Fraction):
            return {}, bound.value
        raise EvaluationError(
            f"variable {node.name!r} is bound to {bound}, which is not "
            "a numeric constant usable in a pseudo-linear formula")
    if isinstance(node, ast.AParam):
        bound = param_value(node.name)
        if isinstance(bound, LiteralOid) \
                and isinstance(bound.value, Fraction):
            return {}, bound.value
        raise EvaluationError(
            f"parameter ${node.name} is bound to {bound}, which is not "
            "a numeric constant usable in a pseudo-linear formula")
    if isinstance(node, ast.APath):
        return {}, _numeric_path_value(db, node.path, env)
    if isinstance(node, ast.ABinary):
        coeffs, constant = left = _arith(db, analysis, node.left, env)
        other, scalar = right = _arith(db, analysis, node.right, env)
        if node.op in ("+", "-"):
            sign = 1 if node.op == "+" else -1
            add_terms(coeffs, other, sign)
            return coeffs, constant + sign * scalar
        if node.op == "*":
            return product_terms(left, right)
        if node.op == "/":
            if other:
                raise EvaluationError(
                    "division by a non-constant is not linear")
            try:
                return scaled_terms(coeffs, constant, 1 / Fraction(scalar))
            except ZeroDivisionError as exc:
                raise EvaluationError(
                    "division by zero in a pseudo-linear formula") from exc
        raise EvaluationError(f"unknown operator {node.op!r}")
    if isinstance(node, ast.ANeg):
        return scaled_terms(*_arith(db, analysis, node.operand, env), -1)
    raise EvaluationError(f"unknown arithmetic node {node!r}")


def _numeric_path_value(db: Database, path: PathExpression,
                        env) -> Fraction:
    values = path_values(db, path, env)
    if len(values) != 1:
        raise EvaluationError(
            f"path {path} must denote exactly one value in a "
            f"pseudo-linear formula; it denotes {len(values)}")
    (value,) = values
    if isinstance(value, LiteralOid) and isinstance(value.value, Fraction):
        return value.value
    raise EvaluationError(
        f"path {path} denotes {value}, which is not numeric")


def _ref_value(db: Database, ref: ast.FRef, env) -> CSTObject:
    if isinstance(ref.source, str):
        bound = env.get(ref.source)
        if bound is None:
            raise EvaluationError(
                f"constraint reference {ref.source!r} is unbound")
        if not isinstance(bound, CstOid):
            raise EvaluationError(
                f"constraint reference {ref.source!r} is bound to "
                f"{bound}, not a CST object")
        return bound.cst
    values = path_values(db, ref.source, env)
    cst_values = [v for v in values if isinstance(v, CstOid)]
    if len(cst_values) != 1:
        raise EvaluationError(
            f"path reference {ref.source} must denote exactly one CST "
            f"object; it denotes {len(cst_values)}")
    return cst_values[0].cst


def _ref_cst_object(db: Database, analysis: AnalyzedQuery,
                    ref: ast.FRef, env
                    ) -> tuple[CSTObject, tuple[Variable, ...]]:
    """The referenced CST object renamed onto its schema-variable names
    (the attribute's CST spec) and then onto explicit arguments — in
    one step, stored schema to final names — and the schema it has
    between the two."""
    cst = _ref_value(db, ref, env)
    info = analysis.ref_info.get(ref)
    spec = info.spec if info is not None else None
    schema = cst.schema
    if spec is not None:
        if cst.dimension != spec.dimension:
            raise EvaluationError(
                f"reference {ref}: stored CST object has dimension "
                f"{cst.dimension}, schema declares {spec.dimension}")
        schema = spec.variables
    if ref.args is None:
        return cst.rename(schema), schema
    if len(ref.args) != cst.dimension:
        raise EvaluationError(
            f"reference {ref}: {len(ref.args)} arguments for a "
            f"{cst.dimension}-dimensional CST object")
    return cst.rename([Variable(a) for a in ref.args]), schema


def _ref_constraint(db: Database, analysis: AnalyzedQuery,
                    ref: ast.FRef, env
                    ) -> tuple[object, list[PendingEq], list[Anchor]]:
    """Reference constraint plus pending implicit equalities and the
    reference's anchor record."""
    info = analysis.ref_info.get(ref)
    base, schema_before_args = _ref_cst_object(db, analysis, ref, env)

    used_names = dict(zip(schema_before_args, base.schema))

    anchors: list[Anchor] = []
    if info is not None and info.parent_prefix is not None:
        parent_keys = _prefix_oids(db, info.parent_prefix, env)
        if parent_keys:
            anchors.append((parent_keys, used_names))

    pending: list[PendingEq] = []
    if info is not None and info.last_edge is not None \
            and info.last_edge.interface_args is not None:
        source_keys = _prefix_oids(db, info.edge_source, env)
        schema_set = set(schema_before_args)
        for actual, formal in zip(info.last_edge.interface_args,
                                  info.edge_formals):
            if formal in schema_set:
                pending.append((source_keys, actual,
                                used_names[formal]))
    return base.constraint, pending, anchors


def _prefix_oids(db: Database, prefix, env) -> frozenset:
    """Runtime oids denoted by an object-path prefix (empty when the
    prefix is unknown or unresolvable)."""
    if prefix is None:
        return frozenset()
    if not prefix.steps and isinstance(prefix.head, VarRef):
        bound = env.get(prefix.head.name)
        return frozenset((bound,)) if bound is not None else frozenset()
    if not prefix.steps:
        return frozenset((prefix.head,))
    return frozenset(path_values(db, prefix, env))
