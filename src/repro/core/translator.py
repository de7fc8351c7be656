"""Translation of LyriC queries into flat SQL with constraints
(Section 5).

The naive implementation the paper sketches: flatten all path
expressions into joins over the class-extent and attribute relations of
:func:`repro.model.relations.flatten`, turn WHERE predicates into flat
selections (constraint predicates become closures over the constraint
engine), and compute SELECT-clause CST formulas as extended columns.

A path headed by a FROM variable scans its first attribute *restricted
to the variable's class* (``attr:a@C``) instead of joining ``class:C``
with ``attr:a``, so a query's CST columns come straight off catalog
relations.  The scans are joined left-deep in query order under one
selection; the optimizer's ``reorder-joins`` rule
(:func:`repro.sqlc.optimizer.plan_joins`) gives the join its shape
and places the WHERE conjuncts.

The translated plan is executed by :func:`repro.sqlc.engine.execute`,
optionally through the optimizer — giving a second, independent
evaluation path that the tests differential-check against the naive
evaluator.

Supported fragment: conjunctive binding skeletons with variable or
ground heads and attribute *names* (attribute variables need the
object-level evaluator), arbitrary boolean WHERE combinations of
comparisons and CST predicates over bound variables, and all SELECT
expression forms.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from repro.constraints.terms import Variable
from repro.core import ast, formulas
from repro.core.parser import parse_query
from repro.core.semantics import AnalyzedQuery, analyze
from repro.errors import SemanticError
from repro.model.database import Database
from repro.model.oid import CstOid, FunctionalOid, Oid
from repro.model.paths import PathExpression, VarRef
from repro.model.relations import (
    attribute_relation_name,
    extent_relation_name,
)
from repro.runtime.context import bound_db
from repro.sqlc import algebra


class TranslationError(SemanticError):
    """The query uses a feature outside the translatable fragment."""


# Plans are database-free: the closures compiled below resolve the
# database through :func:`repro.runtime.context.bound_db` at evaluation
# time (the pipeline's bind step sets ``ctx.db``), keeping the
# translate-time database only as a fallback for direct ``translate()``
# + ``plan.evaluate()`` callers.  This is what makes a compiled plan
# cacheable and reusable across databases sharing a schema.


@dataclass
class TranslatedQuery:
    plan: algebra.Plan
    columns: tuple[str, ...]
    #: Column holding the minted row oid, when OID FUNCTION OF is used.
    oid_column: str | None = None


def translate(db: Database, query: ast.Query | str) -> TranslatedQuery:
    if isinstance(query, str):
        query = parse_query(query)
    analysis = analyze(db.schema, query)
    return translate_analyzed(db, analysis)


def translate_analyzed(db: Database, analysis: AnalyzedQuery
                       ) -> TranslatedQuery:
    """Translate an already-analyzed query (the pipeline's translate
    phase; :func:`translate` wraps it for one-shot callers)."""
    return _Translator(db, analysis).translate()


class _Translator:
    def __init__(self, db: Database, analysis: AnalyzedQuery):
        self.db = db
        self.analysis = analysis
        self.query = analysis.query
        self._fresh = itertools.count()
        self.from_classes = {item.var: item.class_name
                             for item in self.query.from_items}
        #: FROM variables some path fragment already restricts to
        #: their class.
        self.restricted: set[str] = set()

    def fresh_column(self) -> str:
        return f"_p{next(self._fresh)}"

    # -- main ------------------------------------------------------------

    def translate(self) -> TranslatedQuery:
        # Paths first: flattening them says which FROM variables
        # still need their extent scanned.
        fragments: list[algebra.Plan] = []
        for path in self.analysis.skeleton:
            fragments.extend(self.flatten_path(path))
        extents: list[algebra.Plan] = [
            algebra.Rename(
                algebra.Scan(extent_relation_name(item.class_name),
                             ("oid",)),
                (("oid", item.var),))
            for item in self.query.from_items
            if item.var not in self.restricted]
        # One left-deep join in query order under one selection: the
        # shape is the optimizer's business (``reorder-joins``).
        plan = functools.reduce(algebra.NaturalJoin, extents + fragments)
        predicates = [self.compile_predicate(part) for part
                      in self.collect_residual(self.query.where)]
        if predicates:
            plan = algebra.Select(
                plan, predicates[0] if len(predicates) == 1
                else algebra.And(tuple(predicates)))

        # SELECT items become output columns (possibly computed).
        out_columns: list[str] = []
        for i, item in enumerate(self.query.select):
            column, plan = self.compile_select_item(item, i, plan)
            out_columns.append(column)

        oid_column = None
        if self.query.oid_function_of:
            oid_column = "_rowoid"
            names = self.query.oid_function_of
            fn = self.query.oid_function_name

            def mint(row, _names=names, _fn=fn):
                return FunctionalOid(_fn, [row[n] for n in _names])

            plan = algebra.Extend(plan, oid_column, mint, "oid-function")

        kept = tuple(out_columns) + ((oid_column,) if oid_column else ())
        plan = algebra.Distinct(algebra.Project(plan, kept))
        return TranslatedQuery(plan, tuple(out_columns), oid_column)

    # -- path flattening -------------------------------------------------------

    def flatten_path(self, path: PathExpression,
                     value_column: str | None = None
                     ) -> list[algebra.Plan]:
        """One plan fragment per step, joined by shared column names.

        The tail value lands in ``value_column`` (or the final
        selector's variable name / a fresh name).
        """
        plans: list[algebra.Plan] = []
        head = path.head
        if isinstance(head, VarRef):
            current = head.name
            ground: Oid | None = None
        else:
            current = self.fresh_column()
            ground = head
        if not path.steps and ground is not None:
            raise TranslationError(
                "a ground trivial path needs no translation")

        for index, step in enumerate(path.steps):
            if not isinstance(step.attribute, str):
                raise TranslationError(
                    "attribute variables are outside the translatable "
                    "fragment; use the naive evaluator")
            last = index == len(path.steps) - 1
            if isinstance(step.selector, VarRef):
                next_col = step.selector.name
                literal = None
            elif step.selector is not None:
                next_col = self.fresh_column()
                literal = step.selector
            else:
                next_col = (value_column if last and value_column
                            else self.fresh_column())
                literal = None

            # The first step of a path headed by a FROM variable
            # reads only that variable's class.
            head_class = self.from_classes.get(current) \
                if index == 0 and ground is None else None
            if head_class is not None:
                self.restricted.add(current)
            scan = algebra.Scan(
                attribute_relation_name(step.attribute, head_class),
                ("oid", "value"))
            fragment: algebra.Plan = algebra.Rename(
                scan, (("oid", current), ("value", next_col)))
            if ground is not None:
                fragment = algebra.Select(
                    fragment, algebra.ColumnLiteral(current, ground))
                ground = None
            if literal is not None:
                fragment = algebra.Select(
                    fragment, algebra.ColumnLiteral(next_col, literal))
            plans.append(fragment)
            current = next_col
        return plans

    # -- WHERE residue -----------------------------------------------------------

    def collect_residual(self, node: ast.Where | None) -> list[ast.Where]:
        """WHERE parts other than the skeleton paths (which became
        joins)."""
        if node is None:
            return []
        if isinstance(node, ast.WAnd):
            out: list[ast.Where] = []
            for part in node.parts:
                out.extend(self.collect_residual(part))
            return out
        if isinstance(node, ast.WPath):
            return []  # skeleton, already joined
        return [node]

    def compile_predicate(self, node: ast.Where) -> algebra.Predicate:
        if isinstance(node, ast.WAnd):
            return algebra.And(tuple(self.compile_predicate(p)
                                     for p in node.parts))
        if isinstance(node, ast.WOr):
            return algebra.Or(tuple(self.compile_predicate(p)
                                    for p in node.parts))
        if isinstance(node, ast.WNot):
            return algebra.Not(self.compile_predicate(node.part))
        if isinstance(node, ast.WCompare):
            return self.compile_compare(node)
        if isinstance(node, ast.WSat):
            return self.compile_cst(node.formula, kind="sat")
        if isinstance(node, ast.WEntails):
            return self.compile_entails(node)
        if isinstance(node, ast.WPath):
            raise TranslationError(
                "path predicates under disjunction or negation are "
                "outside the translatable fragment")
        raise TranslationError(f"cannot translate {node!r}")

    def compile_compare(self, node: ast.WCompare) -> algebra.Predicate:
        """Comparisons over bare variables become flat column
        predicates; comparisons involving multi-step paths compile to
        closures over the evaluator's comparison semantics (so both
        evaluation paths agree exactly, including under negation)."""
        left = self.simple_column(node.left)
        right = self.simple_column(node.right)
        if left is not None and right is not None and node.op == "=":
            if isinstance(right, Oid):
                if isinstance(left, Oid):
                    raise TranslationError(
                        "constant comparison needs no translation")
                return algebra.ColumnLiteral(left, right)
            if isinstance(left, Oid):
                return algebra.ColumnLiteral(right, left)
            return algebra.ColumnEq(left, right)
        if left is not None and right is not None and node.op == "!=":
            return algebra.Not(self.compile_compare(
                ast.WCompare(node.left, "=", node.right)))

        columns = tuple(dict.fromkeys(
            self.operand_variables(node.left)
            + self.operand_variables(node.right)))
        db = self.db

        def test(*values, _cols=columns, _node=node):
            from repro.core.evaluator import compare
            env = dict(zip(_cols, values))
            return compare(bound_db(db), _node, env)

        return algebra.CstPredicate(columns, test, f"compare:{node.op}")

    def simple_column(self, operand):
        """A bare variable's column name or a literal oid; None for
        multi-step paths."""
        if isinstance(operand, Oid):
            return operand
        if isinstance(operand, PathExpression) and not operand.steps \
                and isinstance(operand.head, VarRef):
            return operand.head.name
        return None

    def operand_variables(self, operand) -> tuple[str, ...]:
        if not isinstance(operand, PathExpression):
            return ()
        names: list[str] = []
        head = operand.head
        if isinstance(head, VarRef):
            names.append(head.name)
        for step in operand.steps:
            if isinstance(step.selector, VarRef) \
                    and step.selector.name not in names:
                names.append(step.selector.name)
        return tuple(names)

    # -- CST predicates ----------------------------------------------------------------

    def formula_variables(self, formula: ast.CstFormula) -> tuple[str, ...]:
        """Query variables the formula depends on (= columns the
        CstPredicate needs)."""
        names: list[str] = []
        refs: list[ast.FRef] = []

        def visit(node: ast.Formula) -> None:
            if isinstance(node, ast.FRef):
                refs.append(node)
                if isinstance(node.source, str):
                    if node.source not in names:
                        names.append(node.source)
                else:
                    head = node.source.head
                    if isinstance(head, VarRef) \
                            and head.name not in names:
                        names.append(head.name)
            elif isinstance(node, (ast.FAnd, ast.FOr)):
                for part in node.parts:
                    visit(part)
            elif isinstance(node, ast.FNot):
                visit(node.part)
            elif isinstance(node, ast.FAtom):
                for side in (node.left, node.right):
                    self._arith_vars(side, names)

        visit(formula.body)
        # An implicit edge equality resolves against the objects its
        # references' binding paths pass through
        # (``formulas._ref_constraint``): those variables are inputs too.
        infos = [info for info in map(self.analysis.ref_info.get, refs)
                 if info is not None]
        if any(info.last_edge is not None
               and info.last_edge.interface_args is not None
               for info in infos):
            for info in infos:
                for path in (info.parent_prefix, info.edge_source):
                    for name in self.operand_variables(path):
                        if name not in names:
                            names.append(name)
        return tuple(names)

    def _arith_vars(self, node: ast.Arith, names: list[str]) -> None:
        if isinstance(node, ast.AName):
            if node.name in self.analysis.var_info \
                    and node.name not in names:
                names.append(node.name)
        elif isinstance(node, ast.APath):
            head = node.path.head
            if isinstance(head, VarRef) and head.name not in names:
                names.append(head.name)
        elif isinstance(node, ast.ABinary):
            self._arith_vars(node.left, names)
            self._arith_vars(node.right, names)
        elif isinstance(node, ast.ANeg):
            self._arith_vars(node.operand, names)

    def compile_cst(self, formula: ast.CstFormula,
                    kind: str) -> algebra.Predicate:
        columns = self.formula_variables(formula)
        db, analysis = self.db, self.analysis

        def test(*values, _cols=columns):
            env = dict(zip(_cols, values))
            return formulas.satisfiable(bound_db(db), analysis,
                                        formula, env)

        units = None
        if formula.head is None:
            # Unprojected SAT formulas are exactly "the instantiated
            # body is satisfiable", so the batched numeric kernel can
            # classify the packed body directly — from the formula's
            # template where it covers the row.  (A projection head
            # changes the object tested, not its emptiness — but keep
            # heads on the exact path, where the row-wise test builds
            # them.)
            template = formulas.compile_template(analysis, formula,
                                                 columns)

            def units(cells, _cols=columns):
                return formulas.formula_units(bound_db(db), analysis,
                                              formula, _cols, template,
                                              cells)

        return algebra.CstPredicate(columns, test, "SAT",
                                    self._conjunct_boxers(formula),
                                    units)

    def _conjunct_boxers(self, formula: ast.CstFormula
                         ) -> tuple[tuple[str, object], ...]:
        """Bounding-box functions for the bare-variable references on
        the formula body's conjunctive spine — the
        :attr:`~repro.sqlc.algebra.CstPredicate.boxers` of a SAT
        predicate.

        Soundness of the pairwise-intersective contract: every spine
        reference's constraint is *conjoined* into the instantiated
        body (implicit edge equalities only add further conjuncts, and
        a projection head preserves emptiness), so if the cheap boxes
        of two spine references are disjoint on a shared formula
        variable, their conjunction — hence the whole body — is
        unsatisfiable.  References under ``or``/``not`` are not on the
        spine and get no boxer.  Each boxer mirrors the positional
        renaming of :func:`repro.core.formulas._ref_constraint`
        (stored schema -> declared spec variables -> explicit
        arguments), returning the unknown box ``{}`` whenever the exact
        path could behave differently (non-CST cell, dimension
        mismatch) so those rows always reach the exact test.
        """
        refs: list[ast.FRef] = []

        def spine(node: ast.Formula) -> None:
            if isinstance(node, ast.FAnd):
                for part in node.parts:
                    spine(part)
            elif isinstance(node, ast.FRef) \
                    and isinstance(node.source, str):
                refs.append(node)

        spine(formula.body)
        boxers: dict[str, object] = {}
        for ref in refs:
            if ref.source in boxers:
                continue
            info = self.analysis.ref_info.get(ref)
            spec_variables = tuple(info.spec.variables) \
                if info is not None and info.spec is not None else None
            args = tuple(ref.args) if ref.args is not None else None
            boxers[ref.source] = _RefBoxer(spec_variables, args)
        return tuple(sorted(boxers.items()))

    def compile_entails(self, node: ast.WEntails) -> algebra.Predicate:
        columns = tuple(dict.fromkeys(
            self.formula_variables(node.left)
            + self.formula_variables(node.right)))
        db, analysis = self.db, self.analysis

        def test(*values, _cols=columns):
            env = dict(zip(_cols, values))
            return formulas.entails(bound_db(db), analysis, node.left,
                                    node.right, env)

        return algebra.CstPredicate(columns, test, "|=")

    # -- SELECT ------------------------------------------------------------------------

    def compile_select_item(self, item: ast.SelectItem, index: int,
                            plan: algebra.Plan
                            ) -> tuple[str, algebra.Plan]:
        expr = item.expr
        if isinstance(expr, ast.PathOut):
            if not expr.path.steps and isinstance(expr.path.head, VarRef):
                name = expr.path.head.name
                if name not in plan.columns:
                    raise TranslationError(
                        f"SELECT variable {name!r} is not bound by the "
                        "translated joins")
                if item.name is None or item.name == name:
                    return name, plan
                # ``first = X``: the naive evaluator names the column
                # ``first``; copy the value under that name.
                return item.name, algebra.Extend(
                    plan, item.name, operator.itemgetter(name), name)
            raise TranslationError(
                "multi-step SELECT paths are outside the translatable "
                "fragment; bind the value with a selector variable")
        column = item.name or f"expr{index}"
        db, analysis = self.db, self.analysis
        if isinstance(expr, ast.FormulaOut):
            needed = self.formula_variables(expr.formula)
            formula = expr.formula
            template = formulas.compile_template(analysis, formula,
                                                 needed)

            def compute(row, _needed=needed, _formula=formula):
                env = {n: row[n] for n in _needed}
                return CstOid(formulas.formula_to_cst(
                    bound_db(db), analysis, _formula, env, template))

            return column, algebra.Extend(plan, column, compute,
                                          "cst-formula")
        if isinstance(expr, ast.OptimizeOut):
            needed = tuple(dict.fromkeys(
                self.formula_variables(expr.formula)))
            opt = expr
            template = formulas.compile_template(analysis, opt.formula,
                                                 needed)

            def compute_opt(row, _needed=needed, _opt=opt):
                env = {n: row[n] for n in _needed}
                return formulas.optimize(bound_db(db), analysis, _opt,
                                         env, template)

            return column, algebra.Extend(plan, column, compute_opt,
                                          opt.kind.value)
        raise TranslationError(f"cannot translate SELECT item {item!r}")


@dataclass(frozen=True)
class _RefBoxer:
    """A boxer (cell -> box, conventions of :mod:`repro.sqlc.index`)
    for one bare-variable constraint reference, mirroring the
    positional renaming chain of formula instantiation: the stored CST
    schema is renamed onto the attribute's declared ``spec_variables``
    (when any), then onto the explicit ``args`` (when any).  Any cell
    the exact path would reject or rename differently maps to the
    unknown box ``{}``, which never prunes.

    A value, not a closure: two references renamed alike box alike, so
    their plans share one box index per scanned relation."""

    spec_variables: tuple[Variable, ...] | None
    args: tuple[str, ...] | None

    def __call__(self, cell):
        if not isinstance(cell, CstOid):
            return {}
        try:
            cst = cell.cst
            schema = cst.schema
            target = list(schema)
            if self.spec_variables is not None:
                if len(self.spec_variables) != len(schema):
                    return {}
                target = list(self.spec_variables)
            if self.args is not None:
                if len(self.args) != len(schema):
                    return {}
                target = [Variable(a) for a in self.args]
            box = cst.cheap_box()
        except Exception:
            return {}
        if box is None:
            return None
        return {t: box[s] for s, t in zip(schema, target) if s in box}
