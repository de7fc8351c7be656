"""Incremental maintenance equivalence: box indexes brought current by
*extension* after appends must be indistinguishable from ones rebuilt
from scratch — including after a crash and recovery, where the store
replays the rows and the rebuilt index must match the incrementally
maintained one."""

import pytest

from repro.constraints.parser import parse_cst
from repro.runtime.context import QueryContext
from repro.sqlc import index as index_mod
from repro.sqlc.relation import ConstraintRelation
from repro.storage import Store


def box_cst(x0, x1, y0, y1):
    return parse_cst(
        f"((x,y) | {x0} <= x <= {x1} and {y0} <= y <= {y1})")


def fresh_relation(n=3):
    rel = ConstraintRelation("boxes", ("e",))
    for i in range(n):
        rel.add_row((box_cst(i, i + 2, 0, 1 + i),))
    return rel


def assert_indexes_equal(left, right):
    assert left.n_rows == right.n_rows
    assert left.boxes == right.boxes
    assert left.nonempty == right.nonempty
    assert set(left.bounded) == set(right.bounded)
    for var in left.bounded:
        assert left.bounded[var] == right.bounded[var]
        assert sorted(left.unbounded[var]) == sorted(right.unbounded[var])


@pytest.fixture(autouse=True)
def acct():
    """A fresh ambient context whose account the test reads the index
    counters from."""
    with QueryContext().activate() as ctx:
        yield ctx.stats


class TestIncrementalBoxIndex:
    def test_extended_equals_rebuilt_over_interleaved_appends(self):
        rel = fresh_relation(2)
        ctx = QueryContext()
        first = index_mod.index_for(rel, "e", index_mod.cst_cell_box,
                                    ctx=ctx)
        for round_no in range(1, 5):
            rel.add_row((box_cst(round_no * 3, round_no * 3 + 1,
                                 -round_no, round_no),))
            current = index_mod.index_for(
                rel, "e", index_mod.cst_cell_box, ctx=ctx)
            rebuilt = index_mod.BoxIndex(rel, "e",
                                         index_mod.cst_cell_box)
            assert_indexes_equal(current, rebuilt)
        assert ctx.stats.index_builds == 1
        assert ctx.stats.index_extends == 4
        # The original index never moved: copy-on-extend froze it.
        assert first.n_rows == 2

    def test_multi_row_append_extends_once(self, acct):
        rel = fresh_relation(3)
        index_mod.index_for(rel, "e", index_mod.cst_cell_box)
        for i in range(5):
            rel.add_row((box_cst(i, i + 1, i, i + 1),))
        current = index_mod.index_for(rel, "e",
                                      index_mod.cst_cell_box)
        assert current.n_rows == 8
        assert acct.index_extends == 1
        assert_indexes_equal(
            current,
            index_mod.BoxIndex(rel, "e", index_mod.cst_cell_box))

    def test_unbounded_and_empty_appends_extend_correctly(self):
        rel = fresh_relation(2)
        index_mod.index_for(rel, "e", index_mod.cst_cell_box)
        # A half-space (unbounded in y), then an empty cell.
        rel.add_row((parse_cst("((x,y) | x >= 5)"),))
        rel.add_row((parse_cst("((x,y) | x >= 1 and x <= 0)"),))
        current = index_mod.index_for(rel, "e",
                                      index_mod.cst_cell_box)
        assert_indexes_equal(
            current,
            index_mod.BoxIndex(rel, "e", index_mod.cst_cell_box))

    def test_version_gap_without_appends_rebuilds(self, acct):
        """A version delta that does not match the row delta (not a
        pure append) must fall back to a full rebuild, never extend."""
        rel = fresh_relation(3)
        index_mod.index_for(rel, "e", index_mod.cst_cell_box)
        rel._version += 1  # simulate an in-place, non-append mutation
        index_mod.index_for(rel, "e", index_mod.cst_cell_box)
        assert acct.index_builds == 2
        assert acct.index_extends == 0


class TestMaintenanceThroughStore:
    def test_recovered_relation_rebuild_equals_incremental(
            self, tmp_path, acct):
        """Rows appended through a live store keep the index current by
        extension; after crash recovery the replayed relation's rebuilt
        index must equal the incrementally maintained one."""
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        store.create_relation("boxes", ("e",))
        rel = store.relation("boxes")
        for i in range(3):
            rel.add_row((box_cst(i, i + 2, 0, i + 1),))
        index_mod.index_for(rel, "e", index_mod.cst_cell_box)
        for i in range(3, 6):
            rel.add_row((box_cst(i, i + 2, 0, i + 1),))
        incremental = index_mod.index_for(rel, "e",
                                          index_mod.cst_cell_box)
        assert acct.index_extends >= 1
        store.close()

        with Store.open(path) as reopened:
            recovered = reopened.relation("boxes")
            assert len(recovered) == 6
            rebuilt = index_mod.BoxIndex(recovered, "e",
                                         index_mod.cst_cell_box)
            assert_indexes_equal(incremental, rebuilt)

    def test_store_loaded_relation_supports_incremental_appends(
            self, tmp_path, acct):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        store.create_relation("boxes", ("e",))
        rel = store.relation("boxes")
        rel.add_row((box_cst(0, 1, 0, 1),))
        store.close()
        with Store.open(path) as reopened:
            rel = reopened.relation("boxes")
            index_mod.index_for(rel, "e", index_mod.cst_cell_box)
            rel.add_row((box_cst(2, 3, 2, 3),))
            current = index_mod.index_for(rel, "e",
                                          index_mod.cst_cell_box)
            assert current.n_rows == 2
            assert acct.index_extends == 1
            assert_indexes_equal(
                current,
                index_mod.BoxIndex(rel, "e", index_mod.cst_cell_box))
