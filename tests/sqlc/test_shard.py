"""Unit tests: sharded relations, envelope pruning, scatter-gather
joins, and the optimizer's sharded-join selection."""

import math
import random
from fractions import Fraction

import pytest

from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject
from repro.constraints.parser import parse_cst
from repro.errors import EvaluationError
from repro.model.oid import LiteralOid, oid
from repro.runtime.context import QueryContext
from repro.sqlc import index
from repro.sqlc.algebra import (
    CstPredicate,
    IndexJoin,
    Rename,
    Scan,
    ShardedIndexJoin,
)
from repro.sqlc.engine import explain_analyze
from repro.sqlc.optimizer import select_sharded_joins
from repro.sqlc.relation import ConstraintRelation
from repro.sqlc.shard import (
    SEAL_MIN,
    ShardedConstraintRelation,
    scatter_pairs,
)
from repro.workloads.random_constraints import (
    make_variables,
    scattered_boxes,
)


@pytest.fixture(autouse=True)
def _fresh_index_state():
    index.clear_index_cache()
    yield


def _sat_intersection(a, b):
    return a.cst.intersect(b.cst).is_satisfiable()


def _predicate():
    return CstPredicate(
        ("e", "f"), _sat_intersection, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)))


def _box_rows(count, seed=0, spread=100, size=5, prefix="r"):
    vars_ = make_variables(1)
    return [(oid(f"{prefix}{i}"), CSTObject(vars_, c))
            for i, c in enumerate(
                scattered_boxes(count, seed=seed, spread=spread,
                                size=size))]


class TestShardedRelation:
    def test_rejects_fewer_than_two_shards(self):
        with pytest.raises(EvaluationError):
            ShardedConstraintRelation("r", ("a",), shards=1)

    def test_rejects_unknown_partition_column(self):
        with pytest.raises(EvaluationError):
            ShardedConstraintRelation("r", ("a",), shards=2,
                                      partition_by="nope")

    def test_global_rows_match_plain_relation(self):
        rows = _box_rows(30)
        plain = ConstraintRelation("r", ("id", "c"), rows)
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), rows, shards=4, partition_by="c")
        assert list(sharded) == list(plain)
        assert sharded.columns == plain.columns
        assert len(sharded) == len(plain)

    def test_shards_partition_the_positions(self):
        rows = _box_rows(100)
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), rows, shards=4, partition_by="c")
        tables = sharded.shard_tables()
        seen = sorted(p for _, positions in tables
                      for p in positions)
        assert seen == list(range(100))
        stored = list(sharded)
        for rel, positions in tables:
            assert [stored[p] for p in positions] == list(rel)

    def test_rename_preserves_the_shard_layout(self):
        rows = _box_rows(100)
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), rows, shards=4, partition_by="c")
        before = sharded.shard_tables()
        renamed = sharded.rename({"id": "key", "c": "cst"})
        assert isinstance(renamed, ShardedConstraintRelation)
        assert renamed.columns == ("key", "cst")
        assert renamed.partition_by == "cst"
        assert list(renamed) == list(sharded)
        after = renamed.shard_tables()
        for (rel_b, pos_b), (rel_a, pos_a) in zip(before, after):
            assert pos_a == pos_b
            assert list(rel_a) == list(rel_b)
            assert rel_a.columns == ("key", "cst")

    def test_range_partitioning_waits_for_seal_min(self):
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), shards=2, partition_by="c")
        for row in _box_rows(SEAL_MIN - 1):
            sharded.add_row(row)
        assert not sharded.sealed
        sharded.add_row(_box_rows(1, seed=99, prefix="x")[0])
        assert sharded.sealed
        assert sum(sharded.shard_sizes()) == SEAL_MIN

    def test_first_shard_access_seals_a_young_relation(self):
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), _box_rows(5), shards=2,
            partition_by="c")
        assert not sharded.sealed
        sharded.shard_tables()
        assert sharded.sealed

    def test_round_robin_routes_by_position(self):
        rows = _box_rows(10)
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), rows, shards=2)
        assert sharded.sealed
        tables = sharded.shard_tables()
        assert tables[0][1] == [0, 2, 4, 6, 8]
        assert tables[1][1] == [1, 3, 5, 7, 9]

    def test_range_routing_is_deterministic(self):
        rows = _box_rows(200, seed=3)
        a = ShardedConstraintRelation(
            "r", ("id", "c"), rows, shards=4, partition_by="c")
        b = ShardedConstraintRelation(
            "r", ("id", "c"), rows, shards=4, partition_by="c")
        assert [p for _, ps in a.shard_tables() for p in ps] \
            == [p for _, ps in b.shard_tables() for p in ps]

    def test_keyless_cells_hash_route(self):
        rows = [(oid(f"o{i}"), LiteralOid(f"text{i}"))
                for i in range(SEAL_MIN + 10)]
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), rows, shards=3, partition_by="c")
        assert sum(sharded.shard_sizes()) == len(rows)

    def test_operators_degrade_to_plain_relations(self):
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), _box_rows(10), shards=2,
            partition_by="c")
        projected = sharded.project(["id"])
        assert type(projected) is ConstraintRelation
        assert len(projected) == 10


class TestAddRowsBatching:
    def test_add_rows_appends_and_bumps_version(self):
        rel = ConstraintRelation("r", ("a",))
        appended = rel.add_rows([(LiteralOid(i),) for i in range(5)])
        assert appended == 5
        assert len(rel) == 5

    def test_batch_observer_fires_once_per_batch(self):
        rel = ConstraintRelation("r", ("a",))
        single, batches = [], []
        rel.set_observer(lambda r, row: single.append(row),
                         lambda r, rows: batches.append(rows))
        rel.add_rows([(LiteralOid(i),) for i in range(5)])
        rel.add_row((LiteralOid(99),))
        assert len(batches) == 1 and len(batches[0]) == 5
        assert len(single) == 1

    def test_batchless_observer_gets_each_row(self):
        rel = ConstraintRelation("r", ("a",))
        single = []
        rel.set_observer(lambda r, row: single.append(row))
        rel.add_rows([(LiteralOid(i),) for i in range(5)])
        assert len(single) == 5

    def test_empty_batch_is_a_no_op(self):
        rel = ConstraintRelation("r", ("a",))
        fired = []
        rel.set_observer(None, lambda r, rows: fired.append(rows))
        assert rel.add_rows([]) == 0
        assert not fired

    def test_incremental_index_maintenance_after_batch(self):
        sharded = ShardedConstraintRelation(
            "r", ("id", "c"), _box_rows(100), shards=4,
            partition_by="c")
        sharded.register_index("c", index.cst_cell_box)
        built = [index.index_for(rel, "c", index.cst_cell_box)
                 for rel, _ in sharded.shard_tables()]
        sharded.add_rows(_box_rows(40, seed=5, prefix="n"))
        after = [index.index_for(rel, "c", index.cst_cell_box)
                 for rel, _ in sharded.shard_tables()]
        assert sum(ix.n_rows for ix in after) == 140
        # Untouched shards keep their object; touched shards extended.
        assert all(b.n_rows <= a.n_rows
                   for b, a in zip(built, after))


class TestEnvelopes:
    def test_envelope_hulls_bounded_rows(self):
        rel = ConstraintRelation("r", ("id", "c"), [
            (oid("a"), parse_cst("((x) | 0 <= x <= 4)")),
            (oid("b"), parse_cst("((x) | 10 <= x <= 12)")),
        ])
        env = index.BoxIndex(rel, "c", index.cst_cell_box).envelope()
        (var,) = env
        lo, hi = env[var]
        # The float hull brackets the exact hull [0, 12] within an ulp.
        assert lo <= 0 <= math.nextafter(lo, math.inf)
        assert math.nextafter(hi, -math.inf) <= 12 <= hi

    def test_empty_index_envelope_is_none(self):
        rel = ConstraintRelation("r", ("id", "c"), [
            (oid("a"), parse_cst("((x) | x <= 0 and x >= 1)")),
        ])
        assert index.BoxIndex(rel, "c",
                              index.cst_cell_box).envelope() is None

    def test_half_bounded_row_widens_to_infinity(self):
        # A row bounded only below keeps the variable with an +inf
        # hull endpoint — still sound (never prunes along that side)
        # and tighter than dropping the variable entirely.
        rel = ConstraintRelation("r", ("id", "c"), [
            (oid("a"), parse_cst("((x) | 0 <= x <= 4)")),
            (oid("b"), parse_cst("((x) | x >= 10)")),
        ])
        env = index.BoxIndex(rel, "c", index.cst_cell_box).envelope()
        (var,) = env
        lo, hi = env[var]
        assert lo <= 0 <= math.nextafter(lo, math.inf)
        assert hi == math.inf

    def test_envelopes_disjoint(self):
        rel_a = ConstraintRelation("a", ("id", "c"), [
            (oid("a"), parse_cst("((x) | 0 <= x <= 4)"))])
        rel_b = ConstraintRelation("b", ("id", "c"), [
            (oid("b"), parse_cst("((x) | 10 <= x <= 12)"))])
        env_a = index.BoxIndex(rel_a, "c",
                               index.cst_cell_box).envelope()
        env_b = index.BoxIndex(rel_b, "c",
                               index.cst_cell_box).envelope()
        assert index.envelopes_disjoint(env_a, env_b)
        assert index.envelopes_disjoint(env_a, None)
        assert not index.envelopes_disjoint(env_a, {})
        assert not index.envelopes_disjoint(env_a, env_a)


def _sharded_catalog(n_left=80, n_right=60, shards=4, spread=300,
                     seed=1):
    left_rows = _box_rows(n_left, seed=seed, spread=spread,
                          prefix="l")
    right_rows = _box_rows(n_right, seed=seed + 7919, spread=spread,
                           prefix="r")
    plain = {
        "L": ConstraintRelation("L", ("lid", "e"), left_rows),
        "R": ConstraintRelation("R", ("rid", "f"), right_rows),
    }
    sharded = {
        "L": ShardedConstraintRelation(
            "L", ("lid", "e"), left_rows, shards=shards,
            partition_by="e"),
        "R": ShardedConstraintRelation(
            "R", ("rid", "f"), right_rows, shards=shards,
            partition_by="f"),
    }
    return plain, sharded


def _index_join():
    return IndexJoin(Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
                     "e", "f", index.cst_cell_box,
                     index.cst_cell_box, _predicate())


def _sharded_join():
    return ShardedIndexJoin(
        Scan("L", ("lid", "e")), Scan("R", ("rid", "f")),
        "e", "f", index.cst_cell_box, index.cst_cell_box,
        _predicate())


class TestScatterGather:
    def test_scatter_pairs_match_monolithic_candidates(self):
        plain, sharded = _sharded_catalog()
        ctx = QueryContext()
        mono = index.candidate_pairs(
            index.index_for(plain["L"], "e", index.cst_cell_box),
            index.index_for(plain["R"], "f", index.cst_cell_box),
            ctx=ctx)
        pairs = scatter_pairs(
            sharded["L"], sharded["R"], "e", "f",
            index.cst_cell_box, index.cst_cell_box, ctx=ctx)
        assert pairs == mono
        assert ctx.stats.shard_pairs_pruned \
            + ctx.stats.shard_pairs_probed == 16

    def test_join_results_byte_identical(self):
        plain, sharded = _sharded_catalog()
        ctx1 = QueryContext()
        ctx2 = QueryContext()
        baseline = _index_join().evaluate(plain, ctx1)
        result = _sharded_join().evaluate(sharded, ctx2)
        assert baseline.columns == result.columns
        assert list(baseline) == list(result)

    def test_envelope_pruning_is_counted(self):
        _, sharded = _sharded_catalog(spread=2000)
        ctx = QueryContext()
        _sharded_join().evaluate(sharded, ctx)
        assert ctx.stats.shard_joins == 1
        assert ctx.stats.shard_pairs_pruned > 0
        assert ctx.stats.shard_pairs_probed \
            + ctx.stats.shard_pairs_pruned == 16

    def test_sharded_node_degrades_on_plain_relations(self):
        plain, _ = _sharded_catalog()
        ctx = QueryContext()
        result = _sharded_join().evaluate(plain, ctx)
        baseline = _index_join().evaluate(plain,
                                          QueryContext())
        assert list(result) == list(baseline)
        assert ctx.stats.shard_joins == 0

    def test_indexing_off_falls_back_to_all_pairs(self):
        _, sharded = _sharded_catalog(n_left=10, n_right=8)
        ctx = QueryContext().derive(indexing=False)
        result = _sharded_join().evaluate(sharded, ctx)
        baseline = _index_join().evaluate(
            sharded, QueryContext().derive(
                indexing=False))
        assert list(result) == list(baseline)
        assert ctx.stats.shard_joins == 0

    def test_explain_record_carries_shard_counts(self):
        _, sharded = _sharded_catalog()
        ctx = QueryContext()
        rendered = explain_analyze(_sharded_join(), sharded,
                                   use_optimizer=False, ctx=ctx)
        acct = ctx.stats
        assert acct.shard_pairs_pruned + acct.shard_pairs_probed == 16
        assert (f"[index: probed {acct.index_probes}, pruned "
                f"{acct.candidates_pruned} of {80 * 60} pairs, "
                f"{acct.index_candidates} candidates]") in rendered
        assert (f"[shards: 4x4, {acct.shard_pairs_pruned} shard pairs "
                f"pruned, {acct.shard_pairs_probed} probed]") in rendered


class TestOptimizerSelection:
    def test_upgrades_index_join_over_sharded_scans(self):
        _, sharded = _sharded_catalog()
        plan = select_sharded_joins(_index_join(), sharded)
        assert isinstance(plan, ShardedIndexJoin)

    def test_keeps_plain_index_join_over_plain_scans(self):
        plain, _ = _sharded_catalog()
        plan = select_sharded_joins(_index_join(), plain)
        assert isinstance(plan, IndexJoin)
        assert not isinstance(plan, ShardedIndexJoin)

    def test_upgrades_through_rename_wrappers(self):
        # The translator aliases scans under Rename; renaming is
        # shard-preserving, so the optimizer sees through it.
        left_rows = _box_rows(80, seed=1, spread=300, prefix="l")
        right_rows = _box_rows(60, seed=7920, spread=300, prefix="r")
        plain = {
            "L": ConstraintRelation("L", ("lid", "raw"), left_rows),
            "R": ConstraintRelation("R", ("rid", "raw"), right_rows),
        }
        sharded = {
            "L": ShardedConstraintRelation(
                "L", ("lid", "raw"), left_rows, shards=4,
                partition_by="raw"),
            "R": ShardedConstraintRelation(
                "R", ("rid", "raw"), right_rows, shards=4,
                partition_by="raw"),
        }
        renamed_join = IndexJoin(
            Rename(Scan("L", ("lid", "raw")), (("raw", "e"),)),
            Rename(Scan("R", ("rid", "raw")), (("raw", "f"),)),
            "e", "f", index.cst_cell_box, index.cst_cell_box,
            _predicate())
        plan = select_sharded_joins(renamed_join, sharded)
        assert isinstance(plan, ShardedIndexJoin)
        assert not isinstance(
            select_sharded_joins(renamed_join, plain),
            ShardedIndexJoin)

        ctx = QueryContext()
        baseline = renamed_join.evaluate(plain, QueryContext())
        result = plan.evaluate(sharded, ctx)
        assert [tuple(map(repr, r)) for r in result] \
            == [tuple(map(repr, r)) for r in baseline]
        assert ctx.stats.shard_joins == 1
        assert ctx.stats.shard_pairs_probed > 0

    def test_mixed_sides_stay_monolithic(self):
        plain, sharded = _sharded_catalog()
        catalog = {"L": sharded["L"], "R": plain["R"]}
        plan = select_sharded_joins(_index_join(), catalog)
        assert not isinstance(plan, ShardedIndexJoin)

    def test_full_pipeline_uses_sharded_join(self):
        from repro.model.office import build_office_database
        from repro import lyric
        text = """
            SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
            FROM Office_Object CO
            WHERE CO.extent[E] and CO.translation[D]
        """
        db, _ = build_office_database()
        plain_ctx = QueryContext()
        shard_ctx = QueryContext(shards=2)
        baseline = lyric.query(db, text, ctx=plain_ctx)
        result = lyric.query(db, text, ctx=shard_ctx)
        assert [tuple(map(repr, r)) for r in baseline.rows] \
            == [tuple(map(repr, r)) for r in result.rows]


def _cell_box_sides(count, overlaps, seed):
    """Two sides of ``count`` 1-D boxes with half-integer half-widths
    (1/2 to 5/2), each inside its own width-20 cell of a shuffled line;
    exactly ``overlaps`` right boxes share the cell and centre of a
    left box, so exactly that many left/right pairs intersect."""
    rng = random.Random(seed)
    (variable,) = make_variables(1)
    cells = list(range(-count, count))
    rng.shuffle(cells)

    def centre(cell):
        return Fraction(20 * cell + rng.randint(4, 16))

    def row(prefix, i, at):
        half = Fraction(rng.randint(1, 5), 2)
        box = ConjunctiveConstraint([
            LinearConstraint.build(variable, Relop.GE, at - half),
            LinearConstraint.build(variable, Relop.LE, at + half)])
        return oid(f"{prefix}{i}"), CSTObject([variable], box)

    left_centres = [centre(cell) for cell in cells[:count]]
    right_centres = left_centres[:overlaps] + [
        centre(cell) for cell in cells[count:2 * count - overlaps]]
    rng.shuffle(left_centres)
    rng.shuffle(right_centres)
    return ([row("l", i, at) for i, at in enumerate(left_centres)],
            [row("r", i, at) for i, at in enumerate(right_centres)])


class TestPinnedCounts:
    def test_sharded_join_books_pinned_counts(self):
        """A base load, then bursts each followed by the join (shard
        indexes extended in between): the coarse phase's counts are
        pinned, so a change to it cannot move them silently."""
        lefts, rights = _cell_box_sides(120, 12, seed=34)
        catalog = {
            "L": ShardedConstraintRelation(
                "L", ("lid", "e"), shards=16, partition_by="e"),
            "R": ShardedConstraintRelation(
                "R", ("rid", "f"), shards=16, partition_by="f")}
        catalog["L"].add_rows(lefts[:60])
        catalog["R"].add_rows(rights[:60])
        ctx = QueryContext()
        for start in range(60, 120, 15):
            catalog["L"].add_rows(lefts[start:start + 15])
            catalog["R"].add_rows(rights[start:start + 15])
            result = _sharded_join().evaluate(catalog, ctx)
        stats = ctx.stats
        assert len(result) == 12
        assert (stats.index_probes, stats.candidates_pruned,
                stats.shard_pairs_pruned, stats.shard_pairs_probed) \
            == (38, 39112, 921, 103)
