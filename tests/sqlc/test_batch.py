"""Batch-evaluation layer: kernel-backed filters must be row-for-row
identical to the row-wise evaluator, preserve ``And`` semantics and
error behaviour, and surface numeric counters through the engine."""

import pytest

from repro.constraints import matrix
from repro.constraints.cst_object import CSTObject
from repro.constraints.satisfiability import is_satisfiable
from repro.model.oid import LiteralOid
from repro.runtime.context import ExecutionStats, QueryContext
from repro.sqlc import batch, index
from repro.sqlc.algebra import (
    And,
    ColumnLiteral,
    CstPredicate,
    IndexJoin,
    NaturalJoin,
    Scan,
    Select,
)
from repro.sqlc.engine import execute
from repro.sqlc.relation import ConstraintRelation
from repro.workloads.random_constraints import (
    make_variables,
    overlapping_polytopes,
)

VARS = make_variables(2)


def _relation(name="T", count=24, seed=5):
    cons = overlapping_polytopes(count, 2, 6, seed=seed,
                                 spread=80, size=50)
    return ConstraintRelation(name, ("rid", "c"), [
        (LiteralOid(i), CSTObject(VARS, c))
        for i, c in enumerate(cons)])


def _cell_sat(cell):
    return cell.cst.is_satisfiable()


def _per_row(extract):
    """A batch packer from a per-row constraint extractor: a row whose
    extraction raises gets no unit and takes the exact path."""
    def units(cells):
        out = []
        for values in cells:
            try:
                constraint = extract(*values)
            except Exception:
                constraint = None
            out.append(matrix.pack_constraint(constraint)
                       if constraint is not None else None)
        return out
    return units


def _cell_predicate():
    return CstPredicate(("c",), _cell_sat, "SAT", (),
                        _per_row(lambda cell: cell.cst.constraint))


def _pair_catalog(n=14, seed=2):
    lefts = overlapping_polytopes(n, 2, 6, seed=seed,
                                  spread=80, size=50)
    rights = overlapping_polytopes(n, 2, 6, seed=seed + 99,
                                   spread=80, size=50)
    return {
        "L": ConstraintRelation("L", ("lid", "e"), [
            (LiteralOid(i), CSTObject(VARS, c))
            for i, c in enumerate(lefts)]),
        "R": ConstraintRelation("R", ("rid", "f"), [
            (LiteralOid(i), CSTObject(VARS, c))
            for i, c in enumerate(rights)]),
    }


def _sat_intersection(a, b):
    return is_satisfiable(a.cst.constraint.conjoin(b.cst.constraint))


def _conjoined(a, b):
    return a.cst.constraint.conjoin(b.cst.constraint)


def _pair_predicate():
    return CstPredicate(
        ("e", "f"), _sat_intersection, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)),
        _per_row(_conjoined))


def _same_relation(a, b):
    assert a.columns == b.columns
    assert list(map(repr, a)) == list(map(repr, b))


class TestFilterEquivalence:
    def test_select_rows_identical_numeric_on_and_off(self):
        catalog = {"T": _relation()}
        plan = Select(Scan("T", ("rid", "c")), _cell_predicate())
        with QueryContext(cache=None, numeric=False).activate():
            baseline = execute(plan, catalog, use_optimizer=False)
        with QueryContext(cache=None, numeric=True).activate():
            fast = execute(plan, catalog, use_optimizer=False)
        _same_relation(baseline, fast)

    def test_join_rows_identical_numeric_on_and_off(self):
        catalog = _pair_catalog()
        plan = Select(NaturalJoin(Scan("L", ("lid", "e")),
                                  Scan("R", ("rid", "f"))),
                      _pair_predicate())
        with QueryContext(cache=None, numeric=False).activate():
            baseline = execute(plan, catalog, use_optimizer=False)
        with QueryContext(cache=None, numeric=True).activate():
            fast = execute(plan, catalog, use_optimizer=False)
        _same_relation(baseline, fast)

    def test_index_join_rows_identical_numeric_on_and_off(self):
        catalog = _pair_catalog(seed=4)
        plan = IndexJoin(Scan("L", ("lid", "e")),
                         Scan("R", ("rid", "f")),
                         "e", "f", index.cst_cell_box,
                         index.cst_cell_box, _pair_predicate())
        index.clear_index_cache()
        with QueryContext(cache=None, numeric=False).activate():
            baseline = execute(plan, catalog, use_optimizer=False)
        index.clear_index_cache()
        with QueryContext(cache=None, numeric=True).activate():
            fast = execute(plan, catalog, use_optimizer=False)
        _same_relation(baseline, fast)

    def test_and_pre_and_post_parts_preserved(self):
        relation = _relation()
        keep_id = relation.column_index("rid")
        some_rid = list(relation)[3][keep_id]
        predicate = And((ColumnLiteral("rid", some_rid),
                         _cell_predicate()))
        plan = Select(Scan("T", ("rid", "c")), predicate)
        catalog = {"T": relation}
        with QueryContext(cache=None, numeric=False).activate():
            baseline = execute(plan, catalog, use_optimizer=False)
        with QueryContext(cache=None, numeric=True).activate():
            fast = execute(plan, catalog, use_optimizer=False)
        _same_relation(baseline, fast)
        # ... and with the constraint conjunct first.
        flipped = And((_cell_predicate(),
                       ColumnLiteral("rid", some_rid)))
        plan = Select(Scan("T", ("rid", "c")), flipped)
        with QueryContext(cache=None, numeric=True).activate():
            fast = execute(plan, catalog, use_optimizer=False)
        _same_relation(baseline, fast)

    def test_small_inputs_delegate_to_row_wise(self):
        relation = _relation(count=4)
        ctx = QueryContext(stats=ExecutionStats(), cache=None)
        rows = list(relation)
        kept = batch.filter_rows(relation.columns, rows,
                                 _cell_predicate(), ctx=ctx)
        assert kept == [r for r in rows
                        if _cell_predicate()(dict(zip(relation.columns,
                                                      r)))]
        assert ctx.stats.numeric_accepts == 0  # below MIN_BATCH

    def test_failing_extractor_falls_back_to_exact_test(self):
        relation = _relation()

        def broken(cell):
            raise RuntimeError("no extraction")

        predicate = CstPredicate(("c",), _cell_sat, "SAT", (),
                                 _per_row(broken))
        ctx = QueryContext(stats=ExecutionStats(), cache=None)
        rows = list(relation)
        kept = batch.filter_rows(relation.columns, rows, predicate,
                                 ctx=ctx)
        reference = [r for r in rows
                     if _cell_sat(r[relation.column_index("c")])]
        assert kept == reference
        assert ctx.stats.numeric_fallbacks == len(rows)

    def test_erroring_rows_still_raise(self):
        relation = ConstraintRelation("T", ("rid", "c"), [
            (LiteralOid(0), LiteralOid("not a cst"))])
        rows = list(relation) * 10   # above MIN_BATCH
        with pytest.raises(AttributeError):
            batch.filter_rows(
                relation.columns, rows, _cell_predicate(),
                ctx=QueryContext(stats=ExecutionStats(), cache=None))


class TestStatsSurfacing:
    def test_engine_surfaces_numeric_counters(self):
        catalog = {"T": _relation()}
        plan = Select(Scan("T", ("rid", "c")), _cell_predicate())
        stats = ExecutionStats()
        with QueryContext(cache=None).activate():
            execute(plan, catalog, use_optimizer=False, stats=stats)
        decided = stats.numeric_accepts + stats.numeric_rejects
        assert decided + stats.numeric_fallbacks == len(catalog["T"])
        assert decided > 0

    def test_numeric_off_under_fault_injection(self):
        """It is not off: a fault plan leaves the kernel on, and the
        batch filter decides rows through it."""
        from repro.runtime.faults import FaultPlan
        from repro.runtime.guard import ExecutionGuard
        guard = ExecutionGuard(faults=FaultPlan())
        ctx = QueryContext(stats=ExecutionStats(), guard=guard,
                           cache=None, numeric=True)
        assert ctx.numeric
        catalog = {"T": _relation()}
        plan = Select(Scan("T", ("rid", "c")), _cell_predicate())
        with ctx.activate():
            execute(plan, catalog, use_optimizer=False, stats=ctx.stats)
        assert ctx.stats.numeric_accepts + ctx.stats.numeric_rejects > 0
