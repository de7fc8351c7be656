"""Plan algebra over flat constraint relations.

Plans are small immutable trees of operators (scan, select, project,
rename, join, product, union, distinct) over
:class:`~repro.sqlc.relation.ConstraintRelation`.  Selection predicates
include the constraint predicates of "SQL with constraints": CST-field
satisfiability and entailment tests, evaluated by the constraint engine.

This is the evaluation target of the Section 5 translation; the
optimizer (:mod:`repro.sqlc.optimizer`) rewrites these trees.

Plans are *database-free*: base relations are referenced by catalog
name (:class:`Scan`), and the closures inside
:class:`CstPredicate`/:class:`Extend` resolve the database through
:func:`repro.runtime.context.bound_db` at evaluation time.  That makes
a plan tree a pure function of (query, schema, options) — the contract
the compiled-plan cache (:mod:`repro.runtime.plancache`) relies on to
share one plan across executions, databases and parameter bindings.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import EvaluationError
from repro.model.oid import CstOid, Oid
from repro.runtime import context as context_mod
from repro.runtime.context import QueryContext
from repro.sqlc import index as index_mod
from repro.sqlc.relation import ConstraintRelation

#: The evaluation environment maps base-relation names to relations.
Catalog = Mapping[str, ConstraintRelation]


@functools.cache
def _field_names(node_type: type) -> tuple[str, ...]:
    """A node class's dataclass field names (``explain`` asks for every
    node of a plan, a dozen times a compile)."""
    return tuple(f.name for f in dataclasses.fields(node_type))


class Plan:
    """Base class of plan nodes.

    Every node is a frozen dataclass and holds no execution state: one
    tree is shared by every execution the plan cache hands it to, so
    options and counters live in the evaluating
    :class:`~repro.runtime.context.QueryContext`.
    """

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        raise NotImplementedError

    @property
    def columns(self) -> tuple[str, ...]:
        raise NotImplementedError

    def child_fields(self) -> dict[str, "Plan"]:
        """The node's Plan-valued dataclass fields, in declaration
        order — the one place that knows where a node keeps its inputs;
        :attr:`children` and :meth:`map_children` are built on it."""
        return {name: value for name in _field_names(type(self))
                if isinstance(value := getattr(self, name), Plan)}

    @property
    def children(self) -> tuple["Plan", ...]:
        """The node's inputs, left to right."""
        return tuple(self.child_fields().values())

    def map_children(self, fn: Callable[["Plan"], "Plan"]) -> "Plan":
        """This node with ``fn`` applied to each child — a copy where a
        child changed, the node itself where none did: the generic step
        of every tree walk, so a rewrite names only the nodes it treats
        specially."""
        changed = {name: new
                   for name, child in self.child_fields().items()
                   if (new := fn(child)) is not child}
        return dataclasses.replace(self, **changed) if changed else self

    def explain(self, depth: int = 0) -> str:
        pad = "  " * depth
        text = f"{pad}{self.describe()}"
        for child in self.children:
            text += "\n" + child.explain(depth + 1)
        return text

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(Plan):
    """A base relation by catalog name."""

    relation: str
    _columns: tuple[str, ...]

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        try:
            rel = catalog[self.relation]
        except KeyError:
            raise EvaluationError(
                f"unknown base relation {self.relation!r}") from None
        if rel.columns != self._columns:
            raise EvaluationError(
                f"catalog relation {self.relation!r} has columns "
                f"{rel.columns}, plan expected {self._columns}")
        return rel

    @property
    def columns(self) -> tuple[str, ...]:
        return self._columns

    def describe(self) -> str:
        return f"Scan({self.relation})"


@dataclass(frozen=True)
class Rename(Plan):
    """Column renaming."""

    child: Plan
    mapping: tuple[tuple[str, str], ...]

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        return self.child.evaluate(catalog, ctx).rename(
            dict(self.mapping))

    @property
    def columns(self) -> tuple[str, ...]:
        mapping = dict(self.mapping)
        return tuple(mapping.get(c, c) for c in self.child.columns)

    def describe(self) -> str:
        pairs = ", ".join(f"{a}->{b}" for a, b in self.mapping)
        return f"Rename({pairs})"


@dataclass(frozen=True)
class Project(Plan):
    child: Plan
    kept: tuple[str, ...]

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        return self.child.evaluate(catalog, ctx).project(self.kept)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.kept

    def describe(self) -> str:
        return f"Project({', '.join(self.kept)})"


@dataclass(frozen=True)
class Select(Plan):
    child: Plan
    predicate: "Predicate"

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        base = self.child.evaluate(catalog, ctx)
        # Batch evaluation routes extractable constraint predicates
        # through the numeric kernel when the context's numeric option
        # is active; the kept rows keep their input order.
        from repro.sqlc import batch
        kept = batch.filter_rows(base.columns, list(base),
                                 self.predicate, ctx=ctx)
        result = ConstraintRelation(base.name, base.columns)
        result._rows = kept
        return result

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns

    def describe(self) -> str:
        return f"Select({self.predicate})"


@dataclass(frozen=True)
class NaturalJoin(Plan):
    left: Plan
    right: Plan

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        return self.left.evaluate(catalog, ctx).natural_join(
            self.right.evaluate(catalog, ctx))

    @property
    def columns(self) -> tuple[str, ...]:
        left = self.left.columns
        return left + tuple(c for c in self.right.columns
                            if c not in left)

    def describe(self) -> str:
        shared = set(self.left.columns) & set(self.right.columns)
        return f"NaturalJoin(on {sorted(shared)})"


@dataclass(frozen=True, eq=False)
class IndexJoin(Plan):
    """A join accelerated by box indexes on one CST column per side.

    Equivalent to ``Select(predicate, NaturalJoin(left, right))`` — the
    optimizer rewrites that pattern into this node when ``predicate``
    contains an *intersective* constraint conjunct (one whose
    :attr:`CstPredicate.boxers` prove it false whenever the boxes of
    ``left_column`` and ``right_column`` are disjoint).  Evaluation
    probes the two box indexes to enumerate only box-overlapping
    candidate pairs, joins those, and runs the full exact ``predicate``
    on the candidates; pruned pairs are exactly pairs the exact
    predicate would have rejected, so results are identical to the
    unindexed plan (same rows, same order).

    When the context turns indexing or the interval prefilter off
    (``--no-index`` or ``QueryContext(prefilter=False)``) the node
    degrades to the plain nested enumeration — same exact-phase work
    as the unrewritten plan.
    """

    left: Plan
    right: Plan
    left_column: str
    right_column: str
    left_boxer: Callable
    right_boxer: Callable
    predicate: "Predicate"

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        ctx = context_mod.resolve(ctx)
        left = self.left.evaluate(catalog, ctx)
        right = self.right.evaluate(catalog, ctx)
        pairs = self._candidate_pairs(left, right, ctx)
        return self._join_candidates(left, right, pairs, ctx)

    @staticmethod
    def probes_index(ctx: QueryContext) -> bool:
        """Does a join evaluated under ``ctx`` probe box indexes (else
        it enumerates every pair)?"""
        return ctx.indexing and ctx.prefilter

    def _candidate_pairs(self, left: ConstraintRelation,
                         right: ConstraintRelation,
                         ctx: QueryContext) -> list[tuple[int, int]]:
        """Candidate row-position pairs via one monolithic box index
        per side (or full enumeration when indexing/prefilter is
        off)."""
        if not self.probes_index(ctx):
            return [(l, r) for l in range(len(left))
                    for r in range(len(right))]
        left_index = index_mod.index_for(
            left, self.left_column, self.left_boxer, ctx=ctx)
        right_index = index_mod.index_for(
            right, self.right_column, self.right_boxer, ctx=ctx)
        return index_mod.candidate_pairs(left_index, right_index, ctx=ctx)

    def _join_candidates(self, left: ConstraintRelation,
                         right: ConstraintRelation,
                         pairs: list[tuple[int, int]],
                         ctx: QueryContext) -> ConstraintRelation:
        """The exact tail shared by every candidate source: equality
        on shared columns, row assembly in ``(left, right)`` order, and
        the batched exact predicate."""
        shared = [c for c in left.columns if c in right.columns]
        other_only = [c for c in right.columns if c not in left.columns]
        out_columns = tuple(left.columns) + tuple(other_only)
        left_rows = list(left)
        right_rows = list(right)

        if shared:
            left_idx = [left.column_index(c) for c in shared]
            right_idx = [right.column_index(c) for c in shared]
            pairs = [
                (l, r) for l, r in pairs
                if all(left_rows[l][i] == right_rows[r][j]
                       for i, j in zip(left_idx, right_idx))]
        other_idx = [right.column_index(c) for c in other_only]
        rows = [left_rows[l] + tuple(right_rows[r][i] for i in other_idx)
                for l, r in pairs]
        from repro.sqlc import batch
        kept = batch.filter_rows(out_columns, rows, self.predicate,
                                 ctx=ctx)
        result = ConstraintRelation(
            f"({left.name}*{right.name})", out_columns)
        result._rows = kept
        return result

    @property
    def columns(self) -> tuple[str, ...]:
        left = self.left.columns
        return left + tuple(c for c in self.right.columns
                            if c not in left)

    def describe(self) -> str:
        return (f"IndexJoin({self.left_column} box-overlap "
                f"{self.right_column}; exact {self.predicate})")


@dataclass(frozen=True, eq=False)
class ShardedIndexJoin(IndexJoin):
    """Scatter-gather :class:`IndexJoin` over sharded relations.

    Selected by the optimizer when both sides scan
    :class:`~repro.sqlc.shard.ShardedConstraintRelation` catalog
    entries.  Candidate generation probes the per-shard box indexes
    pairwise, pruning shard *pairs* whose bounding envelopes are
    disjoint before any per-pair work
    (``ExecutionStats.shard_pairs_pruned``); surviving shard-local
    candidates map back to global row positions and sort into the same
    nested-loop order a monolithic index produces, so the exact phase
    — and therefore the result, byte for byte — is identical to
    :class:`IndexJoin`.

    Plans outlive catalogs (the plan cache shares them across
    executions): when a bound side turns out *not* to be sharded — the
    relation was rebuilt monolithic, or the node is evaluated against
    a hand-built catalog — the node degrades to the plain
    :class:`IndexJoin` path.  Sharding is an execution layout, never a
    correctness requirement.
    """

    def _candidate_pairs(self, left: ConstraintRelation,
                         right: ConstraintRelation,
                         ctx: QueryContext) -> list[tuple[int, int]]:
        from repro.sqlc.shard import ShardedConstraintRelation
        from repro.sqlc.shard import scatter_pairs
        if not (isinstance(left, ShardedConstraintRelation)
                and isinstance(right, ShardedConstraintRelation)) \
                or not self.probes_index(ctx):
            return super()._candidate_pairs(left, right, ctx)
        return scatter_pairs(
            left, right, self.left_column, self.right_column,
            self.left_boxer, self.right_boxer, ctx=ctx)

    def describe(self) -> str:
        return (f"ShardedIndexJoin({self.left_column} box-overlap "
                f"{self.right_column}; exact {self.predicate})")


@dataclass(frozen=True)
class Distinct(Plan):
    child: Plan

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        return self.child.evaluate(catalog, ctx).distinct()

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns


@dataclass(frozen=True)
class Union(Plan):
    left: Plan
    right: Plan

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        return self.left.evaluate(catalog, ctx).union(
            self.right.evaluate(catalog, ctx))

    @property
    def columns(self) -> tuple[str, ...]:
        return self.left.columns


@dataclass(frozen=True)
class Extend(Plan):
    """Append a computed column (used for SELECT-clause CST formulas
    and OID functions)."""

    child: Plan
    column: str
    compute: Callable[[dict[str, Oid]], Oid]
    label: str = "expr"

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        base = self.child.evaluate(catalog, ctx)
        result = ConstraintRelation(
            base.name, base.columns + (self.column,))
        for row in base:
            value = self.compute(base.row_dict(row))
            result.add_row(row + (value,))
        return result

    @property
    def columns(self) -> tuple[str, ...]:
        return self.child.columns + (self.column,)

    def describe(self) -> str:
        return f"Extend({self.column} := {self.label})"


@dataclass(frozen=True, eq=False)
class Materialized(Plan):
    """A leaf wrapping an already-computed relation.

    Used by ``explain_analyze`` to evaluate each plan node exactly once:
    a node is re-instantiated with its children replaced by the
    materialized results of their own single evaluation.
    """

    relation: ConstraintRelation

    def evaluate(self, catalog: Catalog,
                 ctx: QueryContext | None = None) -> ConstraintRelation:
        return self.relation

    @property
    def columns(self) -> tuple[str, ...]:
        return self.relation.columns

    def describe(self) -> str:
        return f"Materialized({len(self.relation)} rows)"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate:
    """A boolean test over a row (dict column -> oid)."""

    def __call__(self, row: dict[str, Oid]) -> bool:
        raise NotImplementedError

    @property
    def referenced_columns(self) -> frozenset[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnEq(Predicate):
    left: str
    right: str

    def __call__(self, row):
        return row[self.left] == row[self.right]

    @property
    def referenced_columns(self):
        return frozenset({self.left, self.right})

    def __str__(self):
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class ColumnLiteral(Predicate):
    column: str
    value: Oid

    def __call__(self, row):
        return row[self.column] == self.value

    @property
    def referenced_columns(self):
        return frozenset({self.column})

    def __str__(self):
        return f"{self.column} = {self.value}"


@dataclass(frozen=True)
class CstPredicate(Predicate):
    """A constraint predicate over the CST fields of a row.

    ``test`` receives the row's oids for ``columns`` (in order) and
    returns a bool; it is built by the translator from the query's
    SAT / ``|=`` formulas and closes over the constraint engine.

    ``boxers`` optionally maps a subset of ``columns`` to cheap
    bounding-box functions (cell -> box, conventions of
    :mod:`repro.sqlc.index`) carrying the *pairwise-intersective*
    contract: if the boxes of any two mapped columns are disjoint,
    ``test`` is provably false for that row.  The translator attaches
    boxers to SAT predicates over conjunctions; the optimizer uses them
    to select :class:`IndexJoin`.

    ``units`` optionally exposes the predicate to the batched numeric
    kernel: called with a batch of rows' oid tuples for ``columns``, it
    returns one packed unit (:mod:`repro.constraints.matrix`) per row,
    of a constraint such that ``test`` is exactly "that constraint is
    satisfiable" — ``None`` for a row it cannot pack, which then
    silently takes the exact row-wise path.  The translator attaches it
    to unprojected SAT predicates (:func:`repro.core.formulas.
    formula_units`); :mod:`repro.sqlc.batch` uses it to evaluate whole
    filters with one kernel call per chunk.
    """

    columns: tuple[str, ...]
    test: Callable[..., bool]
    label: str = "cst"
    boxers: tuple[tuple[str, Callable], ...] = ()
    units: Callable[[list], list] | None = None

    def __call__(self, row):
        return self.test(*(row[c] for c in self.columns))

    @property
    def referenced_columns(self):
        return frozenset(self.columns)

    def __str__(self):
        return f"{self.label}({', '.join(self.columns)})"


@dataclass(frozen=True)
class And(Predicate):
    parts: tuple[Predicate, ...]

    def __call__(self, row):
        return all(p(row) for p in self.parts)

    @property
    def referenced_columns(self):
        cols: frozenset[str] = frozenset()
        for p in self.parts:
            cols |= p.referenced_columns
        return cols

    def __str__(self):
        return " and ".join(str(p) for p in self.parts)


@dataclass(frozen=True)
class Or(Predicate):
    parts: tuple[Predicate, ...]

    def __call__(self, row):
        return any(p(row) for p in self.parts)

    @property
    def referenced_columns(self):
        cols: frozenset[str] = frozenset()
        for p in self.parts:
            cols |= p.referenced_columns
        return cols

    def __str__(self):
        return " or ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class Not(Predicate):
    part: Predicate

    def __call__(self, row):
        return not self.part(row)

    @property
    def referenced_columns(self):
        return self.part.referenced_columns

    def __str__(self):
        return f"not ({self.part})"


def is_cst(value: Oid) -> bool:
    """Helper for predicates: is the cell a constraint?"""
    return isinstance(value, CstOid)
