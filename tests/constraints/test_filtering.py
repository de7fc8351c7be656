"""Unit tests for bounding-box prefiltering (filter-and-refine)."""

from fractions import Fraction

import pytest

from repro.constraints.atoms import Ge, Le
from repro.constraints.cst_object import CSTObject
from repro.constraints.filtering import (
    boxes_overlap,
    interval_hull,
    overlap_join,
)
from repro.constraints.geometry import box
from repro.constraints.terms import variables
from repro.errors import DimensionError

x, y = variables("x y")


def unit_at(cx, cy):
    return box([x, y], [(cx, cx + 1), (cy, cy + 1)])


class TestBoxes:
    def test_hull(self):
        tri = CSTObject.from_atoms(
            [x, y], [Ge(x, 0), Ge(y, 0), Le(x + y, 2)])
        assert interval_hull(tri) == [(0, 2), (0, 2)]

    def test_overlap_test(self):
        assert boxes_overlap([(0, 2), (0, 2)], [(1, 3), (1, 3)])
        assert not boxes_overlap([(0, 1), (0, 1)], [(2, 3), (0, 1)])
        assert boxes_overlap([(0, 1), (0, 1)], [(1, 2), (1, 2)])  # touch

    def test_unbounded_sides_pass(self):
        assert boxes_overlap([(None, None)], [(5, 6)])
        assert boxes_overlap([(0, None)], [(100, 200)])
        assert not boxes_overlap([(None, 0)], [(1, 2)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            boxes_overlap([(0, 1)], [(0, 1), (0, 1)])


class TestOverlapJoin:
    def items(self):
        return [(i, unit_at(3 * (i % 3), 3 * (i // 3)))
                for i in range(6)]

    def test_same_matches_with_and_without_filter(self):
        items = self.items()
        with_filter, stats_f = overlap_join(items, prefilter=True)
        without, stats_n = overlap_join(items, prefilter=False)
        assert sorted(with_filter) == sorted(without)

    def test_filter_reduces_exact_tests(self):
        items = self.items()
        _, stats_f = overlap_join(items, prefilter=True)
        _, stats_n = overlap_join(items, prefilter=False)
        assert stats_f.exact_tests < stats_n.exact_tests
        assert stats_f.pairs_considered == stats_n.pairs_considered

    def test_dense_cluster_all_match(self):
        items = [(i, unit_at(Fraction(i, 10), 0)) for i in range(4)]
        matches, stats = overlap_join(items)
        assert stats.matches == 6  # all C(4,2) pairs overlap
