"""Plan rewriting as an ordered list of named rules.

The paper (Section 5) leaves a full constraint algebra and optimizer to
future work but bases the naive implementation on SQL with constraints;
we supply the classic rewrites every such engine needs, each expressed
as a named :class:`RewriteRule` with signature ``(plan, ctx) -> plan``:

* ``push-selections`` — a Select above a join whose predicate only
  references one side's columns moves below the join; conjunctions are
  split first so each conjunct sinks as deep as it can;
* ``reorder-joins`` — every tree of natural joins, with the selections
  on and inside it, is planned again from its *predicate graph*
  (:func:`plan_joins`): inputs that share columns are joined first,
  then inputs a conjunct ties together, and a cross product is left
  only where nothing connects two inputs; each conjunct sits on the
  lowest join that has its columns;
* ``cheap-predicates-first`` — conjuncts inside each Select reorder so
  free oid comparisons prune rows before exact-solver predicates run;
* ``select-index-joins`` (physical) — a Select whose conjunction holds
  an *intersective* constraint predicate (one carrying
  :attr:`~repro.sqlc.algebra.CstPredicate.boxers`) spanning both sides
  of the join below it becomes an :class:`~repro.sqlc.algebra.
  IndexJoin`, which probes per-relation box indexes to enumerate only
  box-overlapping candidate pairs before the exact test;
* ``select-sharded-joins`` (physical) — an IndexJoin whose two sides
  scan sharded catalog relations becomes a :class:`~repro.sqlc.algebra.
  ShardedIndexJoin`, scatter-gathering over per-shard box indexes and
  pruning shard pairs with disjoint bounding envelopes.

:data:`LOGICAL_RULES` and :data:`PHYSICAL_RULES` are what the staged
pipeline (:mod:`repro.core.pipeline`) runs as its rewrite phases;
:func:`optimize` remains the one-call wrapper applying everything.
The rewrites are semantics-preserving for the operators used by the
translator (set/bag equivalence up to row order).  Every rule walks the
tree with :meth:`~repro.sqlc.algebra.Plan.map_children` and names only
the nodes it treats specially, so a rewrite reaches below every node
type.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.runtime import context as context_mod
from repro.runtime.context import PhaseRecord, QueryContext
from repro.sqlc.algebra import (
    And,
    Catalog,
    ColumnEq,
    ColumnLiteral,
    CstPredicate,
    IndexJoin,
    NaturalJoin,
    Not,
    Or,
    Plan,
    Predicate,
    Project,
    Rename,
    Scan,
    Select,
    ShardedIndexJoin,
)


@dataclass(frozen=True)
class RewriteRule:
    """A named plan rewrite ``(plan, ctx) -> plan``."""

    name: str
    apply: Callable[[Plan, QueryContext], Plan]


def _rule_push_selections(plan: Plan, ctx: QueryContext) -> Plan:
    return push_selections(plan)


def _rule_reorder_joins(plan: Plan, ctx: QueryContext) -> Plan:
    # The catalog here is the *compile-time* snapshot and feeds row
    # estimates only: a plan-cache hit may execute a join order chosen
    # against stale sizes, which can cost performance, never
    # correctness.
    return reorder_joins(plan, ctx.catalog or {})


def _rule_cheap_predicates_first(plan: Plan, ctx: QueryContext) -> Plan:
    return order_cheap_predicates(plan)


def _rule_select_index_joins(plan: Plan, ctx: QueryContext) -> Plan:
    return select_index_joins(plan) if ctx.indexing else plan


def _rule_select_sharded_joins(plan: Plan, ctx: QueryContext) -> Plan:
    # Like reorder-joins, this reads the compile-time catalog snapshot:
    # a stale decision degrades to the monolithic path at evaluation
    # time (ShardedIndexJoin re-checks the bound relations), so a
    # plan-cache hit can only cost performance, never correctness.
    if ctx.indexing and ctx.catalog:
        return select_sharded_joins(plan, ctx.catalog)
    return plan


#: Logical rewrites (plan shape).  Join planning places the conjuncts
#: it finds itself, so pushdown need not run again after it.
LOGICAL_RULES: tuple[RewriteRule, ...] = (
    RewriteRule("push-selections", _rule_push_selections),
    RewriteRule("reorder-joins", _rule_reorder_joins),
    RewriteRule("cheap-predicates-first", _rule_cheap_predicates_first),
)

#: Physical rewrites (execution strategy), gated on context options.
PHYSICAL_RULES: tuple[RewriteRule, ...] = (
    RewriteRule("select-index-joins", _rule_select_index_joins),
    RewriteRule("select-sharded-joins", _rule_select_sharded_joins),
)

ALL_RULES: tuple[RewriteRule, ...] = LOGICAL_RULES + PHYSICAL_RULES


def apply_rules(plan: Plan, ctx: QueryContext,
                rules: Sequence[RewriteRule] | None = None,
                record: bool = False) -> Plan:
    """Run ``rules`` (default: all of them) in order over ``plan``.

    With ``record`` each rule appends a ``rewrite:<name>`` phase record
    (timing plus rendered before/after plans) to ``ctx.stats`` — the
    per-rule rows of the pipeline's ``--analyze`` trace."""
    text = plan.explain() if record else ""
    for rule in (ALL_RULES if rules is None else rules):
        started = time.perf_counter()
        rewritten = rule.apply(plan, ctx)
        if record:
            # A walk that changed nothing hands back the node it was
            # given (Plan.map_children): nothing to render again.
            after = text if rewritten is plan else rewritten.explain()
            ctx.stats.phases.append(PhaseRecord(
                name=f"rewrite:{rule.name}",
                seconds=time.perf_counter() - started,
                detail="changed" if after != text else "unchanged",
                plan_before=text, plan_after=after))
            text = after
        plan = rewritten
    return plan


def optimize(plan: Plan, catalog: Catalog | None = None,
             ctx: QueryContext | None = None) -> Plan:
    """Apply all rewrites; ``catalog`` (when given) provides the base
    relation sizes used by the join order.  Options (indexing) come
    from ``ctx`` or the ambient context."""
    base = context_mod.resolve(ctx)
    if catalog is not None:
        base = base.derive(catalog=catalog)
    return apply_rules(plan, base)


# ---------------------------------------------------------------------------
# Selection pushdown
# ---------------------------------------------------------------------------


def push_selections(plan: Plan) -> Plan:
    if isinstance(plan, Select):
        return _sink_conjuncts(push_selections(plan.child),
                               _split_conjuncts(plan.predicate))
    return plan.map_children(push_selections)


def _split_conjuncts(predicate: Predicate) -> list[Predicate]:
    if isinstance(predicate, And):
        out: list[Predicate] = []
        for part in predicate.parts:
            out.extend(_split_conjuncts(part))
        return out
    return [predicate]


def _sink_conjuncts(plan: Plan, conjuncts: list[Predicate]) -> Plan:
    """Push each conjunct as deep as possible into ``plan``."""
    if not conjuncts:
        return plan
    if isinstance(plan, NaturalJoin):
        left_cols = set(plan.left.columns)
        right_cols = set(plan.right.columns)
        left_side: list[Predicate] = []
        right_side: list[Predicate] = []
        stuck: list[Predicate] = []
        for pred in conjuncts:
            cols = pred.referenced_columns
            if cols <= left_cols:
                left_side.append(pred)
            elif cols <= right_cols:
                right_side.append(pred)
            else:
                stuck.append(pred)
        new = NaturalJoin(_sink_conjuncts(plan.left, left_side),
                          _sink_conjuncts(plan.right, right_side))
        return _wrap(new, stuck)
    if isinstance(plan, Rename):
        mapping = dict(plan.mapping)
        reverse = {b: a for a, b in mapping.items()}
        child_cols = set(plan.child.columns)
        pushable: list[Predicate] = []
        stuck: list[Predicate] = []
        for pred in conjuncts:
            renamed = _rename_predicate(pred, reverse)
            if renamed is not None \
                    and renamed.referenced_columns <= child_cols:
                pushable.append(renamed)
            else:
                stuck.append(pred)
        new = Rename(_sink_conjuncts(plan.child, pushable), plan.mapping)
        return _wrap(new, stuck)
    if isinstance(plan, Select):
        inner = _split_conjuncts(plan.predicate)
        return _sink_conjuncts(plan.child, inner + conjuncts)
    return _wrap(plan, conjuncts)


def _predicate_cost(pred: Predicate) -> int:
    """Relative evaluation cost: oid comparisons are free, constraint
    predicates call the exact solver.  Used to order conjuncts so that
    cheap tests prune rows before expensive ones run (``And`` is
    short-circuiting)."""
    if isinstance(pred, (ColumnEq, ColumnLiteral)):
        return 0
    if isinstance(pred, Not):
        return _predicate_cost(pred.part)
    if isinstance(pred, (And, Or)):
        return max((_predicate_cost(p) for p in pred.parts), default=0)
    if isinstance(pred, CstPredicate):
        return 2
    return 1


def _wrap(plan: Plan, conjuncts: list[Predicate]) -> Plan:
    if not conjuncts:
        return plan
    predicate = conjuncts[0] if len(conjuncts) == 1 \
        else And(tuple(conjuncts))
    return Select(plan, predicate)


def order_cheap_predicates(plan: Plan) -> Plan:
    """Reorder the conjuncts of every Select/IndexJoin predicate so
    cheap tests run first (stable sort: original order among equals) —
    semantics-preserving because conjunction is commutative and every
    predicate is a pure row test, and ``And`` short-circuits."""
    plan = plan.map_children(order_cheap_predicates)
    if isinstance(plan, (Select, IndexJoin)):
        return dataclasses.replace(
            plan, predicate=_order_conjuncts(plan.predicate))
    return plan


def _order_conjuncts(predicate: Predicate) -> Predicate:
    if isinstance(predicate, And):
        return And(tuple(sorted(predicate.parts, key=_predicate_cost)))
    return predicate


def _rename_predicate(pred: Predicate,
                      reverse: dict[str, str]) -> Predicate | None:
    """Predicate with columns renamed backwards through a Rename; None
    when the predicate type cannot be renamed structurally."""
    if isinstance(pred, ColumnEq):
        return ColumnEq(reverse.get(pred.left, pred.left),
                        reverse.get(pred.right, pred.right))
    if isinstance(pred, ColumnLiteral):
        return ColumnLiteral(reverse.get(pred.column, pred.column),
                             pred.value)
    if isinstance(pred, CstPredicate):
        return CstPredicate(
            tuple(reverse.get(c, c) for c in pred.columns),
            pred.test, pred.label,
            tuple((reverse.get(c, c), boxer)
                  for c, boxer in pred.boxers),
            pred.units)
    return None


# ---------------------------------------------------------------------------
# Join planning from the predicate graph
# ---------------------------------------------------------------------------


def plan_joins(leaves: Sequence[Plan], conjuncts: Sequence[Predicate],
               catalog: Catalog | None = None) -> Plan:
    """The natural join of ``leaves`` under the conjunction of
    ``conjuncts``, shaped by the *predicate graph*: the leaves are its
    vertices, a column two leaves share is an edge, and so is a
    conjunct whose columns lie on both sides.

    Leaves connected by shared columns are joined first, each such
    component from its smallest leaf (by ``catalog`` sizes where
    known) and in the order the components are given; the components
    are then joined along conjunct edges, a conjunct carrying boxers —
    one :func:`select_index_joins` can turn into an
    :class:`IndexJoin` — before any other; only components nothing
    ties together are multiplied.  Every conjunct lands on the lowest
    node that has all its columns, sunk into a leaf when one leaf has
    them.  The ``reorder-joins`` rule is the one caller: the
    translator emits a left-deep join in query order under one
    selection.
    """
    pending = list(conjuncts)

    def place(plan: Plan) -> Plan:
        columns = set(plan.columns)
        ready = [p for p in pending if p.referenced_columns <= columns]
        for pred in ready:
            pending.remove(pred)
        return _sink_conjuncts(plan, ready)

    def merge(parts: list[Plan],
              linked: Callable[[Plan, list[Plan]], int | None]
              ) -> list[Plan]:
        groups = []
        while parts:
            current = parts.pop(0)
            while (pick := linked(current, parts)) is not None:
                current = place(NaturalJoin(current, parts.pop(pick)))
            groups.append(current)
        return groups

    def shares_column(current: Plan, parts: list[Plan]) -> int | None:
        columns = set(current.columns)
        return next((i for i, part in enumerate(parts)
                     if columns & set(part.columns)), None)

    def shares_conjunct(current: Plan, parts: list[Plan]) -> int | None:
        columns = set(current.columns)
        pick = None
        for i, part in enumerate(parts):
            both = columns | set(part.columns)
            for pred in pending:
                if pred.referenced_columns <= both:
                    if isinstance(pred, CstPredicate) and pred.boxers:
                        return i
                    if pick is None:
                        pick = i
        return pick

    def any_left(current: Plan, parts: list[Plan]) -> int | None:
        return 0 if parts else None

    parts: list[Plan] = []
    for component in _column_components(leaves):
        parts += merge(
            sorted((place(leaf) for leaf in component),
                   key=lambda leaf: _estimate(leaf, catalog or {})),
            shares_column)
    for linked in (shares_conjunct, any_left):
        parts = merge(parts, linked)
    return _wrap(parts[0], pending)


def _column_components(leaves: Sequence[Plan]) -> list[list[Plan]]:
    """``leaves`` grouped into the connected components of the graph
    whose edges are shared column names; groups in the order of their
    first leaf."""
    groups: list[list[Plan]] = []
    for leaf in leaves:
        columns = set(leaf.columns)
        touched = [group for group in groups
                   if any(columns & set(member.columns)
                          for member in group)]
        if not touched:
            groups.append([leaf])
            continue
        home = touched[0]
        for group in touched[1:]:
            home += group
        home.append(leaf)
        groups = [group for group in groups
                  if group is home or all(group is not t for t in touched)]
    return groups


def reorder_joins(plan: Plan, catalog: Catalog) -> Plan:
    if isinstance(plan, (NaturalJoin, Select)):
        leaves: list[Plan] = []
        conjuncts: list[Predicate] = []
        _collect_join_graph(plan, leaves, conjuncts)
        if len(leaves) > 1:
            joined = plan_joins(
                [reorder_joins(leaf, catalog) for leaf in leaves],
                conjuncts, catalog)
            # Planning permutes the natural-join column order;
            # restore it so the rewrite is observationally neutral.
            return joined if joined.columns == plan.columns \
                else Project(joined, plan.columns)
    return plan.map_children(lambda child: reorder_joins(child, catalog))


def _collect_join_graph(plan: Plan, leaves: list[Plan],
                        conjuncts: list[Predicate]) -> None:
    """The inputs of a tree of natural joins and the conjuncts of the
    selections on and inside it (a selection commutes with a natural
    join above it: its columns stay present and unchanged)."""
    if isinstance(plan, NaturalJoin):
        _collect_join_graph(plan.left, leaves, conjuncts)
        _collect_join_graph(plan.right, leaves, conjuncts)
        return
    below = plan
    while isinstance(below, Select):
        below = below.child
    if below is not plan and isinstance(below, NaturalJoin):
        conjuncts.extend(_split_conjuncts(plan.predicate))
        _collect_join_graph(plan.child, leaves, conjuncts)
    else:
        leaves.append(plan)


def _estimate(plan: Plan, catalog: Catalog) -> int:
    if isinstance(plan, Scan):
        rel = catalog.get(plan.relation)
        return len(rel) if rel is not None else 1000
    if isinstance(plan, Select):
        return max(1, _estimate(plan.child, catalog) // 3)
    if isinstance(plan, NaturalJoin):
        return _estimate(plan.left, catalog) \
            * max(1, _estimate(plan.right, catalog))
    inputs = plan.children
    # A one-input operator (Project, Rename, Distinct, Extend) passes
    # its input's size through; anything else is a guess.
    return _estimate(inputs[0], catalog) if len(inputs) == 1 else 1000


# ---------------------------------------------------------------------------
# Index-join selection
# ---------------------------------------------------------------------------


def select_index_joins(plan: Plan) -> Plan:
    """Rewrite ``Select(..., NaturalJoin(L, R))`` into
    :class:`~repro.sqlc.algebra.IndexJoin` when a conjunct is a
    constraint predicate with boxers covering one column of each side.

    Soundness rests on the boxers' pairwise-intersective contract
    (:class:`~repro.sqlc.algebra.CstPredicate`): a pair whose boxes are
    disjoint on the chosen columns provably fails that conjunct, hence
    the whole conjunction — exactly the rows the unrewritten Select
    would have dropped.  Runs after pushdown/reordering so the Select
    directly above each join carries all the stuck cross-side
    conjuncts.
    """
    plan = plan.map_children(select_index_joins)
    if not isinstance(plan, Select):
        return plan
    join = plan.child
    kept = None
    # reorder_joins may interpose a column-order-restoring Project;
    # Select and Project commute when the predicate only references
    # kept columns (always true: it sits above the Project).
    if isinstance(join, Project) \
            and isinstance(join.child, NaturalJoin) \
            and plan.predicate.referenced_columns <= set(join.kept):
        kept = join.kept
        join = join.child
    if isinstance(join, NaturalJoin):
        rewritten = _try_index_join(
            join, _split_conjuncts(plan.predicate))
        if rewritten is not None:
            return rewritten if kept is None \
                else Project(rewritten, kept)
    return plan


def _try_index_join(join: NaturalJoin,
                    conjuncts: list[Predicate]) -> IndexJoin | None:
    left_cols = set(join.left.columns)
    right_cols = set(join.right.columns)
    for pred in conjuncts:
        if not isinstance(pred, CstPredicate) or not pred.boxers:
            continue
        boxer_map = dict(pred.boxers)
        # The indexed columns must live on exactly one side each:
        # shared columns are already equality-joined and ambiguous.
        left_pick = next(
            (c for c in pred.columns
             if c in boxer_map and c in left_cols
             and c not in right_cols), None)
        right_pick = next(
            (c for c in pred.columns
             if c in boxer_map and c in right_cols
             and c not in left_cols), None)
        if left_pick is None or right_pick is None:
            continue
        # Cheap conjuncts first, as _wrap would order a plain Select.
        ordered = sorted(conjuncts, key=_predicate_cost)
        predicate = ordered[0] if len(ordered) == 1 \
            else And(tuple(ordered))
        return IndexJoin(join.left, join.right, left_pick, right_pick,
                         boxer_map[left_pick], boxer_map[right_pick],
                         predicate)
    return None


# ---------------------------------------------------------------------------
# Sharded-join selection
# ---------------------------------------------------------------------------


def _scans_sharded(plan: Plan, catalog: Catalog) -> bool:
    """True when ``plan`` is a Scan of a sharded catalog relation,
    possibly under Rename wrappers (the shape the translator emits for
    aliased attribute scans) — renaming is shard-preserving, so the
    layout survives to evaluation time.  Any other operator (Select,
    Project, joins) materializes a fresh monolithic relation and
    disqualifies the side."""
    from repro.sqlc.shard import ShardedConstraintRelation
    while isinstance(plan, Rename):
        plan = plan.child
    return isinstance(plan, Scan) \
        and isinstance(catalog.get(plan.relation),
                       ShardedConstraintRelation)


def select_sharded_joins(plan: Plan, catalog: Catalog) -> Plan:
    """Upgrade every :class:`IndexJoin` whose sides both scan sharded
    relations to a :class:`ShardedIndexJoin`.  Semantics-preserving by
    construction: the sharded node produces the same candidate set in
    the same order as the monolithic index (envelope pruning only drops
    pairs the pairwise box test would drop), and degrades to the parent
    path when the bound relations turn out not to be sharded."""
    plan = plan.map_children(
        lambda child: select_sharded_joins(child, catalog))
    if isinstance(plan, IndexJoin) \
            and not isinstance(plan, ShardedIndexJoin) \
            and _scans_sharded(plan.left, catalog) \
            and _scans_sharded(plan.right, catalog):
        return ShardedIndexJoin(
            plan.left, plan.right, plan.left_column, plan.right_column,
            plan.left_boxer, plan.right_boxer, plan.predicate)
    return plan
