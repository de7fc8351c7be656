"""Unit tests: box indexes, IndexJoin, optimizer selection, stats."""

import pytest

from repro.constraints.parser import parse_cst
from repro.errors import EvaluationError
from repro.model.oid import LiteralOid, oid
from repro.runtime.context import QueryContext
from repro.runtime.faults import FaultPlan
from repro.runtime.guard import ExecutionGuard
from repro.sqlc import index
from repro.sqlc.algebra import (
    CstPredicate,
    IndexJoin,
    NaturalJoin,
    Scan,
    Select,
)
from repro.sqlc.engine import ExecutionStats, execute, explain_analyze
from repro.sqlc.optimizer import optimize, select_index_joins
from repro.sqlc.relation import ConstraintRelation


@pytest.fixture(autouse=True)
def acct():
    """A cold index cache, and a fresh ambient context whose account
    the test reads the index counters from."""
    index.clear_index_cache()
    with QueryContext().activate() as ctx:
        yield ctx.stats


def _sat_intersection(a, b):
    return a.cst.intersect(b.cst).is_satisfiable()


def cst_predicate():
    return CstPredicate(
        ("e", "f"), _sat_intersection, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)))


@pytest.fixture
def catalog():
    """Two CST relations over the shared variable x: lefts at
    [0,4], [10,12], [3,5]; rights at [4,6], [100,101]."""
    lefts = ConstraintRelation("lefts", ("lid", "e"), [
        (oid("a"), parse_cst("((x) | 0 <= x <= 4)")),
        (oid("b"), parse_cst("((x) | 10 <= x <= 12)")),
        (oid("c"), parse_cst("((x) | 3 <= x <= 5)")),
    ])
    rights = ConstraintRelation("rights", ("rid", "f"), [
        (oid("p"), parse_cst("((x) | 4 <= x <= 6)")),
        (oid("q"), parse_cst("((x) | 100 <= x <= 101)")),
    ])
    return {"lefts": lefts, "rights": rights}


def join_plan():
    return Select(
        NaturalJoin(Scan("lefts", ("lid", "e")),
                    Scan("rights", ("rid", "f"))),
        cst_predicate())


def index_join_plan():
    return IndexJoin(Scan("lefts", ("lid", "e")),
                     Scan("rights", ("rid", "f")),
                     "e", "f", index.cst_cell_box, index.cst_cell_box,
                     cst_predicate())


class TestBoxIndex:
    def test_structure(self, catalog):
        built = index.BoxIndex(catalog["lefts"], "e",
                               index.cst_cell_box)
        assert built.n_rows == 3
        assert built.nonempty == [0, 1, 2]
        (var,) = built.bounded
        assert var.name == "x"
        assert [(float(lo), float(hi), pos)
                for lo, hi, pos in built.bounded[var]] \
            == [(0.0, 4.0, 0), (10.0, 12.0, 1), (3.0, 5.0, 2)]
        assert built.unbounded[var] == []

    def test_non_cst_cell_is_unknown_box(self):
        rel = ConstraintRelation("r", ("c",), [(LiteralOid(7),)])
        built = index.BoxIndex(rel, "c", index.cst_cell_box)
        assert built.boxes == [{}]
        assert built.nonempty == [0]

    def test_candidate_pairs_prune_and_order(self, catalog, acct):
        left = index.index_for(catalog["lefts"], "e",
                               index.cst_cell_box)
        right = index.index_for(catalog["rights"], "f",
                                index.cst_cell_box)
        pairs = index.candidate_pairs(left, right)
        # Only [0,4]x[4,6] and [3,5]x[4,6] overlap; sorted order.
        assert pairs == [(0, 0), (2, 0)]
        assert acct.index_candidates == 2
        assert acct.candidates_pruned == 4
        assert acct.index_probes < 6

    def test_unknown_boxes_always_candidates(self):
        lit = ConstraintRelation("lit", ("c",),
                                 [(LiteralOid(1),), (LiteralOid(2),)])
        cst = ConstraintRelation("cst", ("d",), [
            (parse_cst("((x) | 0 <= x <= 1)"),)])
        pairs = index.candidate_pairs(
            index.index_for(lit, "c", index.cst_cell_box),
            index.index_for(cst, "d", index.cst_cell_box))
        assert pairs == [(0, 0), (1, 0)]

    def test_grid_fallback_matches_sweep(self):
        # Long overlapping intervals: the sweep's active lists stay
        # full and every pair is a candidate.
        rows = [(parse_cst(f"((x) | {i} <= x <= {i + 50})"),)
                for i in range(8)]
        rel = ConstraintRelation("dense", ("c",), rows)
        built = index.index_for(rel, "c", index.cst_cell_box)
        pairs = index.candidate_pairs(built, built)
        assert pairs == [(i, j) for i in range(8) for j in range(8)]

    def test_cache_hit_and_version_invalidation(self, catalog, acct):
        rel = catalog["lefts"]
        first = index.index_for(rel, "e", index.cst_cell_box)
        again = index.index_for(rel, "e", index.cst_cell_box)
        assert again is first
        assert acct.index_builds == 1
        # A probed index has its sweep table: the extension inserts the
        # appended row's key into it.
        (var,) = first.bounded
        first_table = first.sweep_table(var)
        rel.add_row((oid("d"), parse_cst("((x) | 7 <= x <= 8)")))
        # A pure append extends the cached index (copy-on-extend)
        # instead of rebuilding; the old object stays frozen.
        extended = index.index_for(rel, "e", index.cst_cell_box)
        assert extended is not first
        assert extended.n_rows == 4
        assert first.n_rows == 3
        assert acct.index_builds == 1
        assert acct.index_extends == 1
        # The extended index is structurally identical to a rebuild.
        rebuilt = index.BoxIndex(rel, "e", index.cst_cell_box)
        assert extended.boxes == rebuilt.boxes
        assert extended.nonempty == rebuilt.nonempty
        assert extended.bounded == rebuilt.bounded
        assert extended.unbounded == rebuilt.unbounded
        assert extended._tables[var] == rebuilt.sweep_table(var)
        assert first.sweep_table(var) is first_table
        assert len(first_table) == 3


class TestIndexJoin:
    def test_matches_natural_join_select(self, catalog):
        baseline = execute(join_plan(), catalog, use_optimizer=False)
        indexed = execute(index_join_plan(), catalog,
                          use_optimizer=False)
        assert indexed.columns == baseline.columns
        assert list(indexed) == list(baseline)

    def test_disabled_indexing_same_result(self, catalog):
        with QueryContext(indexing=False).activate():
            off = execute(index_join_plan(), catalog,
                          use_optimizer=False)
        on = execute(index_join_plan(), catalog, use_optimizer=False)
        assert list(off) == list(on)

    def test_fault_plan_disables_pruning(self, catalog):
        """It does not: a fault plan leaves the box index on, so the
        faulted join prunes exactly as the unfaulted one does."""
        with QueryContext().activate() as plain:
            expected = execute(index_join_plan(), catalog,
                               use_optimizer=False)
        guard = ExecutionGuard(faults=FaultPlan())
        with QueryContext(guard=guard).activate() as ctx:
            result = execute(index_join_plan(), catalog,
                             use_optimizer=False)
        assert ctx.stats.index_probes == plain.stats.index_probes > 0
        assert ctx.stats.candidates_pruned > 0
        assert list(result) == list(expected)
        assert len(result) == 2

    def test_optimizer_selects_index_join(self, catalog):
        optimized = optimize(join_plan(), catalog)
        assert isinstance(optimized, IndexJoin)
        assert optimized.left_column == "e"
        assert optimized.right_column == "f"

    def test_optimizer_skips_without_boxers(self, catalog):
        plan = Select(
            NaturalJoin(Scan("lefts", ("lid", "e")),
                        Scan("rights", ("rid", "f"))),
            CstPredicate(("e", "f"), _sat_intersection, "SAT"))
        assert not isinstance(optimize(plan, catalog), IndexJoin)

    def test_optimizer_gate(self, catalog):
        with QueryContext(indexing=False).activate():
            optimized = optimize(join_plan(), catalog)
        assert not isinstance(optimized, IndexJoin)
        assert select_index_joins(join_plan()) != join_plan()

    def test_explain_renders_choice_and_counts(self, catalog):
        optimized = optimize(join_plan(), catalog)
        assert "IndexJoin(e box-overlap f" in optimized.explain()
        analyzed = explain_analyze(join_plan(), catalog)
        assert "pruned 4 of 6 pairs" in analyzed

    def test_execution_stats_counters(self, catalog):
        stats = ExecutionStats()
        execute(join_plan(), catalog, stats=stats)
        assert stats.index_probes > 0
        assert stats.candidates_pruned == 4
        assert stats.pool_dispatches == 0 and stats.parallel_fallbacks == 0


class TestStatsReset:
    def test_reused_stats_object_resets(self, catalog):
        guard = ExecutionGuard(max_pivots=10_000)
        stats = ExecutionStats()
        with QueryContext(cache=None).activate():
            execute(join_plan(), catalog, stats=stats, guard=guard)
            first = (stats.pivots, stats.simplex_calls,
                     stats.candidates_pruned)
            execute(join_plan(), catalog, stats=stats, guard=guard)
        # The guard accumulates across executions; the stats must not.
        assert (stats.pivots, stats.simplex_calls,
                stats.candidates_pruned) == first
        assert guard.simplex_calls >= 2 * stats.simplex_calls > 0

    def test_stale_warnings_cleared(self, catalog):
        stats = ExecutionStats()
        stats.warnings.append("stale")
        stats.exhausted = "pivots"
        execute(join_plan(), catalog, stats=stats)
        assert stats.warnings == []
        assert stats.exhausted is None


class TestRelationSatellites:
    def test_add_row_arity_error_names_relation(self):
        rel = ConstraintRelation("office", ("oid", "color"))
        with pytest.raises(EvaluationError) as exc:
            rel.add_row((oid("desk"),))
        message = str(exc.value)
        assert "office" in message
        assert "2 columns" in message
        assert "color" in message

    def test_select_and_identity_project_share_row_tuples(self):
        rel = ConstraintRelation("r", ("a", "b"), [
            (LiteralOid(1), LiteralOid(2)),
            (LiteralOid(3), LiteralOid(4)),
        ])
        first = next(iter(rel))
        selected = rel.select(lambda row: True)
        assert next(iter(selected)) is first
        projected = rel.project(("a", "b"))
        assert next(iter(projected)) is first
        reordered = rel.project(("b", "a"))
        assert next(iter(reordered)) == (LiteralOid(2), LiteralOid(1))
