"""Tests for attribute updates and database serialization."""

from fractions import Fraction

import pytest

from repro import lyric
from repro.constraints.parser import parse_cst
from repro.errors import IntegrityError, ModelError
from repro.model.office import add_file_cabinet, build_office_database
from repro.model.oid import CstOid, LiteralOid, oid
from repro.model.serialize import (
    dump_database,
    dump_oid,
    load_database,
    load_oid,
    read_database,
    save_database,
)


@pytest.fixture
def office():
    return build_office_database()


class TestUpdates:
    def test_move_desk(self, office):
        """'There is no reason that moving a desk would be limited in
        any way': relocating changes subsequent query answers."""
        db, oids = office
        before = lyric.query(db, """
            SELECT ((u,v) | E and D and L(x,y))
            FROM Object_in_Room O, Office_Object CO
            WHERE O.catalog_object[CO] and O.location[L]
              and CO.extent[E] and CO.translation[D]
        """).single().values[0]
        db.update_attribute(
            oids.my_desk, "location",
            parse_cst("((x,y) | x = 100 and y = 50)"))
        after = lyric.query(db, """
            SELECT ((u,v) | E and D and L(x,y))
            FROM Object_in_Room O, Office_Object CO
            WHERE O.catalog_object[CO] and O.location[L]
              and CO.extent[E] and CO.translation[D]
        """).single().values[0]
        assert before != after
        assert after.cst.contains_point(100, 50)

    def test_update_scalar(self, office):
        db, oids = office
        db.update_attribute(oids.standard_desk, "color", "blue")
        assert db.attribute_values(oids.standard_desk, "color") \
            == (LiteralOid("blue"),)

    def test_invalid_update_rolls_back(self, office):
        db, oids = office
        with pytest.raises(IntegrityError):
            db.update_attribute(oids.standard_desk, "extent",
                                parse_cst("((w) | w <= 1)"))
        # Old value intact:
        assert db.cst_value(oids.standard_desk,
                            "extent").contains_point(4, 2)

    def test_undeclared_attribute_rejected(self, office):
        db, oids = office
        with pytest.raises(IntegrityError):
            db.update_attribute(oids.standard_desk, "wheels", 4)

    def test_update_previously_unset(self, office):
        db, oids = office
        db.update_attribute(oids.standard_drawer, "color", "green")
        with pytest.raises(IntegrityError):
            db.update_attribute(oids.standard_drawer, "extent", "bad")

    def test_remove_object_guard(self, office):
        db, oids = office
        with pytest.raises(IntegrityError):
            db.remove_object(oids.standard_drawer)

    def test_remove_object_forced(self, office):
        db, oids = office
        db.remove_object(oids.standard_drawer, force=True)
        assert oids.standard_drawer not in db
        assert db.extent("Drawer") == ()
        # The dangling reference now fails validation:
        with pytest.raises(IntegrityError):
            db.validate()

    def test_remove_unreferenced(self, office):
        db, oids = office
        db.remove_object(oids.my_desk)
        assert oids.my_desk not in db
        db.validate()


class TestOidRoundtrip:
    CASES = None  # filled below

    def test_roundtrip(self, office):
        _, oids = office
        from repro.model.oid import (AttributeNameOid, ClassNameOid,
                                     FunctionalOid)
        cases = [
            oid("desk123"),
            LiteralOid("red"),
            LiteralOid(Fraction(22, 7)),
            CstOid(parse_cst("((x,y) | x + y <= 1)")),
            FunctionalOid("f", [oid("a"), LiteralOid(1)]),
            AttributeNameOid("color"),
            ClassNameOid("Desk"),
        ]
        for case in cases:
            assert load_oid(dump_oid(case)) == case

    def test_unknown_tag(self):
        with pytest.raises(ModelError):
            load_oid({"t": "mystery"})


class TestDatabaseRoundtrip:
    def test_roundtrip_preserves_query_answers(self, office):
        db, _ = office
        add_file_cabinet(db)
        clone = load_database(dump_database(db))
        query = """
            SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
            FROM Office_Object CO
            WHERE CO.extent[E] and CO.translation[D]
        """
        original = sorted(str(r.values) for r in lyric.query(db, query))
        restored = sorted(str(r.values)
                          for r in lyric.query(clone, query))
        assert original == restored

    def test_trusted_reload_rewrites_no_oid_in_any_family(self):
        """What a restart does to a format-2 store: canonicalising an
        existential form again can print it differently, so the reader
        that trusts its own bytes must take all four families as is."""
        from repro.model.database import Database
        from repro.model.schema import AttributeDef, CSTSpec, Schema
        from tests.model.test_serialize_roundtrip import (
            FAMILIES, family_object)
        schema = Schema()
        schema.define("Item", attributes=[
            AttributeDef("ext", CSTSpec(("x0", "x1"))),
            AttributeDef("more", CSTSpec(("x0", "x1")), set_valued=True)])
        db = Database(schema)
        for family, seed in zip(FAMILIES, (1, 2, 3, 5)):
            db.add_object(f"i{seed}", "Item", {
                "ext": family_object(family, seed),
                "more": [family_object(family, seed + 2)]})
        payload = dump_database(db)
        assert dump_database(load_database(payload, trusted=True)) == payload

    def test_roundtrip_preserves_extents(self, office):
        db, _ = office
        add_file_cabinet(db)
        clone = load_database(dump_database(db))
        for cls in ("Desk", "File_Cabinet", "Office_Object", "Drawer"):
            assert len(clone.extent(cls)) == len(db.extent(cls))

    def test_roundtrip_set_valued(self, office):
        db, _ = office
        cabinet = add_file_cabinet(db)
        clone = load_database(dump_database(db))
        assert len(clone.attribute_values(cabinet, "drawer_center")) == 2

    def test_schema_interfaces_survive(self, office):
        db, _ = office
        clone = load_database(dump_database(db))
        attr = clone.schema.resolve_attribute("Desk", "drawer")
        assert [v.name for v in attr.interface_args] == ["p", "q"]

    def test_file_roundtrip(self, office, tmp_path):
        db, _ = office
        path = str(tmp_path / "office.json")
        save_database(db, path)
        clone = read_database(path)
        assert len(clone) == len(db)

    def test_version_checked(self, office):
        db, _ = office
        payload = dump_database(db)
        payload["version"] = 99
        with pytest.raises(ModelError):
            load_database(payload)

    def test_json_compatible(self, office):
        import json
        db, _ = office
        text = json.dumps(dump_database(db))
        assert "standard_desk" in text
