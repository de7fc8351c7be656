"""Property tests: optimizer rewrites preserve plan semantics on
random relations and plans."""

from hypothesis import given, settings, strategies as st

from repro.constraints.parser import parse_cst
from repro.model.oid import LiteralOid, oid
from repro.sqlc import index
from repro.sqlc.algebra import (
    And,
    ColumnEq,
    ColumnLiteral,
    CstPredicate,
    IndexJoin,
    NaturalJoin,
    Not,
    Or,
    Project,
    Scan,
    Select,
)
from repro.sqlc.engine import execute
from repro.sqlc.optimizer import optimize, push_selections
from repro.sqlc.relation import ConstraintRelation

COLORS = ["red", "grey", "blue"]

OBJECTS = Scan("objects", ("oid", "color"))
SIZES = Scan("sizes", ("oid", "size"))
EXTENTS = Scan("extents", ("oid", "e"))
ZONES = Scan("zones", ("zid", "f"))


def _interval(lo, width):
    return parse_cst(f"((x) | {lo} <= x <= {lo + width})")


def _overlaps(a, b):
    return a.cst.intersect(b.cst).is_satisfiable()


def overlap_predicate():
    return CstPredicate(
        ("e", "f"), _overlaps, "SAT",
        (("e", index.cst_cell_box), ("f", index.cst_cell_box)))


@st.composite
def catalogs(draw):
    n_objects = draw(st.integers(min_value=0, max_value=8))
    objects = ConstraintRelation("objects", ("oid", "color"))
    sizes = ConstraintRelation("sizes", ("oid", "size"))
    extents = ConstraintRelation("extents", ("oid", "e"))
    for i in range(n_objects):
        objects.add_row((oid(f"o{i}"),
                         LiteralOid(draw(st.sampled_from(COLORS)))))
        if draw(st.booleans()):
            sizes.add_row((oid(f"o{i}"),
                           LiteralOid(draw(
                               st.integers(min_value=1, max_value=4)))))
        extents.add_row((oid(f"o{i}"),
                         _interval(draw(st.integers(0, 30)), 2)))
    zones = ConstraintRelation("zones", ("zid", "f"), [
        (oid(f"z{i}"), _interval(lo, 5))
        for i, lo in enumerate(draw(st.lists(st.integers(0, 30),
                                             max_size=3)))])
    return {"objects": objects, "sizes": sizes, "extents": extents,
            "zones": zones}


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(["color", "size", "eq"]))
        if kind == "color":
            return ColumnLiteral("color", LiteralOid(
                draw(st.sampled_from(COLORS))))
        if kind == "size":
            return ColumnLiteral("size", LiteralOid(
                draw(st.integers(min_value=1, max_value=4))))
        return ColumnEq("oid", "oid")
    op = draw(st.sampled_from(["and", "or", "not"]))
    if op == "not":
        return Not(draw(predicates(depth=depth - 1)))
    parts = tuple(draw(predicates(depth=depth - 1))
                  for _ in range(draw(st.integers(2, 3))))
    return And(parts) if op == "and" else Or(parts)


def rows_of(relation):
    return sorted(tuple(map(str, row)) for row in relation)


def projected_plan(predicate):
    return Project(Select(NaturalJoin(OBJECTS, SIZES), predicate),
                   ("oid", "size"))


def zone_join_plan(predicate):
    """The same selection under a constraint join: the optimizer turns
    the top of this plan into an ``IndexJoin``, so optimizing its
    output feeds the rules a plan that already contains one."""
    return Select(
        NaturalJoin(
            NaturalJoin(Select(NaturalJoin(OBJECTS, SIZES), predicate),
                        EXTENTS),
            ZONES),
        overlap_predicate())


class TestRewrites:
    @given(catalogs(), predicates())
    @settings(max_examples=60, deadline=None)
    def test_pushdown_preserves_semantics(self, catalog, predicate):
        plan = Select(NaturalJoin(OBJECTS, SIZES), predicate)
        raw = execute(plan, catalog, use_optimizer=False)
        pushed = execute(push_selections(plan), catalog,
                         use_optimizer=False)
        assert rows_of(raw) == rows_of(pushed)

    @given(catalogs(), predicates(),
           st.sampled_from([projected_plan, zone_join_plan]))
    @settings(max_examples=60, deadline=None)
    def test_full_optimizer_preserves_semantics(self, catalog,
                                                predicate, shape):
        plan = shape(predicate)
        raw = execute(plan, catalog, use_optimizer=False)
        optimized = execute(plan, catalog, use_optimizer=True)
        assert rows_of(raw) == rows_of(optimized)
        # The rules take their own output — IndexJoin included — as
        # input: nothing left to rewrite, and still the same rows.
        once = optimize(plan, catalog)
        assert ("IndexJoin(" in once.explain()) \
            == (shape is zone_join_plan)
        twice = optimize(once, catalog)
        assert twice.explain() == once.explain()
        assert rows_of(execute(twice, catalog, use_optimizer=False)) \
            == rows_of(raw)

    def test_selection_is_pushed_below_an_index_join(self):
        red = ColumnLiteral("color", LiteralOid("red"))
        plan = IndexJoin(
            NaturalJoin(Select(NaturalJoin(OBJECTS, SIZES), red),
                        EXTENTS),
            ZONES, "e", "f", index.cst_cell_box, index.cst_cell_box,
            overlap_predicate())
        lines = optimize(plan).explain().splitlines()
        at = next(i for i, line in enumerate(lines)
                  if line.strip() == "Select(color = 'red')")
        assert lines[at + 1].strip() == "Scan(objects)"
        assert lines[0].startswith("IndexJoin(")

    @given(catalogs())
    @settings(max_examples=40, deadline=None)
    def test_join_reorder_three_way(self, catalog):
        catalog = dict(catalog)
        catalog["extra"] = ConstraintRelation(
            "extra", ("oid",),
            [(row[0],) for row in catalog["objects"]][:3])
        plan = NaturalJoin(NaturalJoin(OBJECTS, SIZES),
                           Scan("extra", ("oid",)))
        raw = execute(plan, catalog, use_optimizer=False)
        optimized = execute(optimize(plan, catalog), catalog,
                            use_optimizer=False)
        assert rows_of(raw) == rows_of(optimized)
