"""Tests for stored methods (Section 2.1: attributes are 0-ary
methods; methods provide computation outside the complexity analysis)."""

from fractions import Fraction

import pytest

from repro import lyric
from repro.errors import IntegrityError, SchemaError
from repro.model.office import build_office_database, build_office_schema
from repro.model.oid import LiteralOid
from repro.model.schema import AttributeDef, MethodDef


def area_method(db, oid):
    """An office object's extent is a box: its area is its bounding
    box's."""
    (ulo, uhi), (vlo, vhi) = db.cst_value(oid, "extent").bounding_box()
    return (uhi - ulo) * (vhi - vlo)


def scaled_area(db, oid, factor):
    return area_method(db, oid) * factor.value


def corner_colors(db, oid):
    return ["red", "green"]


@pytest.fixture
def office_with_methods():
    db, oids = build_office_database()
    db.schema.add_method(
        "Office_Object",
        MethodDef("area", area_method, result="real"))
    db.schema.add_method(
        "Office_Object",
        MethodDef("scaled_area", scaled_area, result="real", arity=1))
    db.schema.add_method(
        "Drawer",
        MethodDef("corner_colors", corner_colors, result="string",
                  set_valued=True))
    return db, oids


class TestMethodDef:
    def test_validation(self):
        with pytest.raises(SchemaError):
            MethodDef("", lambda db, o: 1)
        with pytest.raises(SchemaError):
            MethodDef("m", "not callable")
        with pytest.raises(SchemaError):
            MethodDef("m", lambda db, o: 1, arity=-1)

    def test_str(self):
        m = MethodDef("area", lambda db, o: 1, result="real")
        assert "area()" in str(m)

    def test_name_clash_with_attribute_detected(self):
        schema = build_office_schema()
        schema.add_method("Office_Object",
                          MethodDef("color", lambda db, o: "red"))
        with pytest.raises(SchemaError):
            schema.validate()


class TestInvocation:
    def test_direct_invoke(self, office_with_methods):
        db, oids = office_with_methods
        (value,) = db.invoke_method(oids.standard_desk, "area")
        assert value == LiteralOid(32)  # 8 x 4 desk

    def test_invoke_with_args(self, office_with_methods):
        db, oids = office_with_methods
        (value,) = db.invoke_method(oids.standard_desk, "scaled_area",
                                    LiteralOid(2))
        assert value == LiteralOid(64)

    def test_arity_checked(self, office_with_methods):
        db, oids = office_with_methods
        with pytest.raises(IntegrityError):
            db.invoke_method(oids.standard_desk, "area", LiteralOid(1))

    def test_unknown_method(self, office_with_methods):
        db, oids = office_with_methods
        with pytest.raises(IntegrityError):
            db.invoke_method(oids.standard_desk, "levitate")

    def test_set_valued(self, office_with_methods):
        db, oids = office_with_methods
        values = db.invoke_method(oids.standard_drawer, "corner_colors")
        assert len(values) == 2

    def test_inheritance(self, office_with_methods):
        db, oids = office_with_methods
        # area is declared on Office_Object, invoked on a Desk.
        (value,) = db.invoke_method(oids.standard_desk, "area")
        assert value == LiteralOid(32)


class TestMethodsInPaths:
    def test_zero_ary_method_as_path_step(self, office_with_methods):
        """Paths treat 0-ary methods as attributes."""
        db, _ = office_with_methods
        result = lyric.query(db, """
            SELECT X.area FROM Desk X
        """)
        assert result.scalars() == [32]

    def test_method_in_where(self, office_with_methods):
        db, _ = office_with_methods
        result = lyric.query(db, """
            SELECT X FROM Office_Object X WHERE X.area = 32
        """)
        assert len(result) == 1
        empty = lyric.query(db, """
            SELECT X FROM Office_Object X WHERE X.area = 31
        """)
        assert len(empty) == 0

    def test_method_as_pseudo_linear_constant(self, office_with_methods):
        """The paper's pseudo-linear formulas: path expressions that
        instantiate to constants — including computed ones."""
        db, _ = office_with_methods
        result = lyric.query(db, """
            SELECT ((a) | 0 <= a <= X.area) FROM Desk X
        """)
        cst = result.single().values[0].cst
        assert cst.contains_point(32)
        assert not cst.contains_point(33)

    def test_stored_value_shadows_method(self, office_with_methods):
        """A stored attribute value wins over a method of the same
        name (methods only fill gaps)."""
        db, oids = office_with_methods
        # No clash in the schema; simulate by checking precedence with
        # an unset attribute vs the method: the method fires only when
        # nothing is stored.
        values = db.attribute_values(oids.standard_desk, "area")
        assert values == (LiteralOid(32),)
