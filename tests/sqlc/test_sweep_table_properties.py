"""Property tests: a box index's float sweep tables and envelopes keep
exactly the pairs the exact box test keeps.

Endpoints are drawn to stress the outward rounding: non-dyadic
``Fraction`` ends (thirds, sevenths) that no float holds, ends that
touch or lie 1/10**18 apart (closer than an ulp), ends beyond float
range (``10**400``), unbounded (``None``) ends, rows that leave a
variable free, unknown boxes (``{}``) and provably empty ones
(``None``)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import bounds
from repro.constraints.terms import Variable
from repro.model.oid import LiteralOid
from repro.runtime.context import QueryContext
from repro.sqlc import index
from repro.sqlc.relation import ConstraintRelation

VARIABLES = (Variable("x"), Variable("y"))
TINY = Fraction(1, 10**18)
HUGE = Fraction(10**400)

_BASE = st.one_of(
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 3, 7])),
    st.sampled_from([HUGE, -HUGE]),
)
_FINITE_END = st.builds(lambda base, nudge: base + nudge * TINY,
                        _BASE, st.integers(-1, 1))
_END = st.one_of(st.none(), _FINITE_END)


@st.composite
def _intervals(draw, ends=_END):
    lo, hi = draw(ends), draw(ends)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return (lo, lo is not None and draw(st.booleans()),
            hi, hi is not None and draw(st.booleans()))


_BOXES = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(VARIABLES), _intervals(), max_size=2),
)
_SIDES = st.lists(_BOXES, max_size=14)
#: Sides whose every row bounds x with finite ends, so their envelopes
#: keep x and the envelope test has something to prune.
_X_SIDES = st.lists(
    st.builds(lambda x, rest: {**rest, VARIABLES[0]: x},
              _intervals(_FINITE_END),
              st.dictionaries(st.just(VARIABLES[1]), _intervals(),
                              max_size=1)),
    min_size=1, max_size=14)


def _shifted(box, offset):
    if not box:
        return box
    return {var: (None if lo is None else lo + offset, lo_open,
                  None if hi is None else hi + offset, hi_open)
            for var, (lo, lo_open, hi, hi_open) in box.items()}


def _relation(boxes):
    """A relation whose row ``i`` holds ``LiteralOid(i)``, and a boxer
    reading ``boxes[i]`` for it (``boxes`` may grow later)."""
    rel = ConstraintRelation(
        "r", ("c",), [(LiteralOid(i),) for i in range(len(boxes))])
    return rel, lambda cell: boxes[int(cell.value)]


def _index(boxes):
    rel, boxer = _relation(boxes)
    return index.BoxIndex(rel, "c", boxer)


class TestSweepTable:
    @given(lefts=_SIDES, rights=_SIDES)
    @settings(max_examples=300, deadline=None)
    def test_candidates_are_the_exact_box_overlaps(self, lefts, rights):
        expected = [
            (l, r)
            for l in range(len(lefts)) for r in range(len(rights))
            if not bounds.boxes_disjoint(lefts[l], rights[r])]
        left, right = _index(lefts), _index(rights)
        assert index.candidate_pairs(left, right,
                                     ctx=QueryContext()) == expected
        # Each table row contains its exact interval (float-Fraction
        # comparisons are exact).
        for built in (left, right):
            for var, intervals in built.bounded.items():
                exact = {pos: (lo, hi) for lo, hi, pos in intervals}
                table = built.sweep_table(var)
                assert table == sorted(table)
                assert sorted(pos for _, _, pos in table) == list(exact)
                for lo, hi, pos in table:
                    assert lo <= exact[pos][0] and hi >= exact[pos][1]

    @given(lefts=st.one_of(_SIDES, _X_SIDES),
           rights=st.one_of(_SIDES, _X_SIDES),
           offset=st.one_of(st.integers(-70, 70),
                            st.sampled_from([TINY, HUGE])))
    @settings(max_examples=300, deadline=None)
    def test_disjoint_envelopes_mean_disjoint_pairs(self, lefts, rights,
                                                    offset):
        rights = [_shifted(box, offset) for box in rights]
        if index.envelopes_disjoint(_index(lefts).envelope(),
                                    _index(rights).envelope()):
            assert all(bounds.boxes_disjoint(a, b)
                       for a in lefts for b in rights)

    def test_separated_envelopes_prune(self):
        # The implication above is not vacuous: hulls a whole unit
        # apart are pruned, and hulls 1/10**18 apart (within an ulp)
        # are kept for the exact test.
        left = _index([{VARIABLES[0]: (Fraction(1, 3), False,
                                       Fraction(2, 3), False)}])
        for gap, pruned in ((1, True), (TINY, False)):
            right = _index([{VARIABLES[0]: (Fraction(2, 3) + gap, False,
                                            Fraction(5, 3), False)}])
            assert index.envelopes_disjoint(
                left.envelope(), right.envelope()) is pruned

    @given(first=_SIDES,
           bursts=st.lists(st.lists(_BOXES, min_size=1, max_size=6),
                           min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_extended_tables_equal_rebuilt(self, first, bursts):
        boxes = list(first)
        rel, boxer = _relation(boxes)
        ctx = QueryContext()
        current = index.index_for(rel, "c", boxer, ctx=ctx)
        for burst in bursts:
            for var in current.bounded:
                current.sweep_table(var)
            carried = set(current._tables)
            start = len(boxes)
            boxes.extend(burst)
            rel.add_rows([(LiteralOid(i),)
                          for i in range(start, len(boxes))])
            current = index.index_for(rel, "c", boxer, ctx=ctx)
            assert set(current._tables) == carried
            rebuilt = index.BoxIndex(rel, "c", boxer)
            assert current.bounded == rebuilt.bounded
            assert current.unbounded == rebuilt.unbounded
            for var in rebuilt.bounded:
                assert current.sweep_table(var) \
                    == rebuilt.sweep_table(var)
            assert current.envelope() == rebuilt.envelope()
        assert ctx.stats.index_builds == 1
        assert ctx.stats.index_extends == len(bursts)
