"""Spatial operations through the language's own operators: a box is a
conjunction of bounds, a translation or a scaling is a conjunction
with ``u = x + dx`` / ``u = k*x`` rows projected onto ``u`` (as the
paper's ``translation`` attribute does), and the paper's "projection of
their cut" is a conjunction with ``var = value`` followed by a
restricted projection."""

from fractions import Fraction

from repro.constraints.atoms import Eq, Ge, Le
from repro.constraints.cst_object import CSTObject
from repro.constraints.terms import variables

x, y, z = variables("x y z")
u, v = variables("u v")


def box(schema, bounds):
    return CSTObject.from_atoms(schema, [
        atom for var, (lo, hi) in zip(schema, bounds)
        for atom in (Ge(var, lo), Le(var, hi))])


def cut(obj, var, value, remaining):
    return obj.conjoin_atoms([Eq(var, value)]).project(remaining)


class TestBox:
    def test_membership(self):
        b = box([x, y], [(0, 2), (1, 3)])
        assert b.contains_point(1, 2)
        assert not b.contains_point(3, 2)


class TestTransforms:
    def test_translate(self):
        b = box([x, y], [(0, 1), (0, 1)]).conjoin_atoms(
            [Eq(u, x + 10), Eq(v, y + 20)]).project([u, v])
        assert b.contains_point(10, 20)
        assert b.contains_point(11, 21)
        assert not b.contains_point(0, 0)

    def test_scale(self):
        b = box([x, y], [(0, 1), (0, 1)]).conjoin_atoms(
            [Eq(u, 2 * x), Eq(v, 2 * y)]).project([u, v])
        assert b.contains_point(2, 2)
        assert not b.contains_point(3, 0)


class TestCut:
    def test_cut_of_wedge(self):
        # Wedge 0 <= z <= x <= 1 in (x, z); cut at z = 1/2 leaves
        # 1/2 <= x <= 1.
        wedge = CSTObject.from_atoms(
            [x, z], [Ge(z, 0), Le(z - x, 0), Le(x, 1)])
        section = cut(wedge, z, Fraction(1, 2), [x])
        assert section.contains_point(Fraction(3, 4))
        assert not section.contains_point(Fraction(1, 4))

    def test_paper_half_foot_cut_shape(self):
        # 3-D box cut at height 1/2 gives its 2-D footprint.
        h, = variables("h")
        solid = box([x, y, h], [(0, 4), (0, 2), (0, 3)])
        footprint = cut(solid, h, Fraction(1, 2), [x, y])
        assert footprint.contains_point(4, 2)
        assert not footprint.contains_point(5, 0)
