"""Tests for n-dimensional vertex enumeration."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.atoms import Eq, Ge, Le
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.geometry import vertices_2d, vertices_nd
from repro.constraints.terms import variables
from repro.errors import DimensionError
from repro.workloads.random_constraints import random_polytope

x, y, z, w = variables("x y z w")


def cube3():
    return ConjunctiveConstraint.of(
        Ge(x, 0), Le(x, 1), Ge(y, 0), Le(y, 1), Ge(z, 0), Le(z, 1))


class TestKnownShapes:
    def test_unit_cube_has_eight_vertices(self):
        verts = vertices_nd(cube3(), [x, y, z])
        assert len(verts) == 8
        assert (0, 0, 0) in verts
        assert (1, 1, 1) in verts

    def test_simplex(self):
        simplex = ConjunctiveConstraint.of(
            Ge(x, 0), Ge(y, 0), Ge(z, 0), Le(x + y + z, 1))
        verts = vertices_nd(simplex, [x, y, z])
        assert set(verts) == {(0, 0, 0), (1, 0, 0), (0, 1, 0),
                              (0, 0, 1)}
        assert all(type(c) is Fraction for v in verts for c in v)

    def test_tesseract(self):
        cube4 = ConjunctiveConstraint(
            [Ge(v, 0) for v in (x, y, z, w)]
            + [Le(v, 1) for v in (x, y, z, w)])
        assert len(vertices_nd(cube4, [x, y, z, w])) == 16

    def test_degenerate_face(self):
        square_on_plane = ConjunctiveConstraint.of(
            Ge(x, 0), Le(x, 1), Ge(y, 0), Le(y, 1), Eq(z, 2))
        verts = vertices_nd(square_on_plane, [x, y, z])
        assert len(verts) == 4
        assert all(v[2] == 2 for v in verts)

    def test_one_dimensional(self):
        segment = ConjunctiveConstraint.of(Ge(x, 3), Le(x, 7))
        assert vertices_nd(segment, [x]) == [(3,), (7,)]

    def test_extra_variable_rejected(self):
        with pytest.raises(DimensionError):
            vertices_nd(cube3(), [x, y])

    def test_empty_schema(self):
        assert vertices_nd(ConjunctiveConstraint.true(), []) == []


class TestConsistencyWith2D:
    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_matches_vertices_2d(self, seed):
        poly = random_polytope(2, 4, seed, variables=[x, y])
        from_2d = set(vertices_2d(poly, [x, y]))
        from_nd = set(vertices_nd(poly, [x, y]))
        assert from_2d == from_nd

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_vertices_are_members(self, seed):
        poly = random_polytope(3, 4, seed, variables=[x, y, z])
        for vertex in vertices_nd(poly, [x, y, z]):
            assert poly.holds_at(dict(zip([x, y, z], vertex)))
