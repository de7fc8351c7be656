"""Unit tests for the flat-relation encoding (Section 5)."""

import pytest

from repro import lyric
from repro.errors import EvaluationError
from repro.model.office import add_file_cabinet, build_office_database
from repro.model.oid import LiteralOid
from repro.model.relations import (
    attribute_relation_name,
    extent_relation_name,
    flatten,
)


@pytest.fixture
def office():
    return build_office_database()


class TestFlatten:
    def test_extent_relations_exist(self, office):
        db, _ = office
        catalog = flatten(db)
        for cls in ("Desk", "Office_Object", "Drawer", "Object_in_Room"):
            assert extent_relation_name(cls) in catalog

    def test_extent_includes_subclasses(self, office):
        db, oids = office
        catalog = flatten(db)
        rel = catalog[extent_relation_name("Office_Object")]
        members = {row[0] for row in rel}
        assert oids.standard_desk in members

    def test_attribute_relations(self, office):
        db, oids = office
        catalog = flatten(db)
        rel = catalog[attribute_relation_name("color")]
        pairs = {(row[0], row[1]) for row in rel}
        assert (oids.standard_desk, LiteralOid("red")) in pairs
        assert (oids.standard_drawer, LiteralOid("red")) in pairs

    def test_set_valued_unnested(self, office):
        db, _ = office
        cabinet = add_file_cabinet(db)
        catalog = flatten(db)
        rel = catalog[attribute_relation_name("drawer_center")]
        cabinet_rows = [row for row in rel if row[0] == cabinet]
        assert len(cabinet_rows) == 2

    def test_empty_class_has_empty_extent(self, office):
        db, _ = office
        catalog = flatten(db)
        assert len(catalog[extent_relation_name("Region")]) == 0

    def test_builtins_not_flattened(self, office):
        db, _ = office
        catalog = flatten(db)
        assert extent_relation_name("string") not in catalog


class TestCatalog:
    def test_kept_until_the_database_changes(self, office):
        db, oids = office
        catalog = flatten(db)
        assert flatten(db) is catalog
        db.update_attribute(oids.standard_desk, "color", "blue")
        changed = flatten(db)
        assert changed is not catalog
        pairs = set(changed[attribute_relation_name("color")])
        assert (oids.standard_desk, LiteralOid("blue")) in pairs
        # The catalog a running query holds is not changed under it.
        assert (oids.standard_desk, LiteralOid("red")) \
            in set(catalog[attribute_relation_name("color")])

    def test_shard_count_is_part_of_its_identity(self, office):
        db, _ = office
        plain = flatten(db)
        sharded = flatten(db, shards=4)
        assert sharded is not plain and flatten(db, shards=4) is sharded
        assert [tuple(row) for row in sharded["attr:color"]] \
            == [tuple(row) for row in plain["attr:color"]]

    def test_class_restricted_attribute_relation(self, office):
        db, oids = office
        add_file_cabinet(db)
        catalog = flatten(db)
        name = attribute_relation_name("color", "Desk")
        assert name == "attr:color@Desk"
        restricted = catalog[name]
        assert catalog[name] is restricted
        assert restricted.columns == ("oid", "value")
        # Exactly the join it stands for, in that join's order.
        assert list(restricted) == list(
            catalog[extent_relation_name("Desk")].natural_join(
                catalog[attribute_relation_name("color")]))
        assert {row[0] for row in restricted} == {oids.standard_desk}
        # Derived relations are not counted among the flat image.
        assert name not in list(catalog)
        assert "attr:color@NoSuchClass" not in catalog
        assert "attr:no_such_attribute@Desk" not in catalog

    def test_declared_attribute_nobody_sets_is_an_empty_relation(
            self, office):
        """``Region.region_name`` before any region exists: a path
        through it denotes nothing — it used to name an unknown
        relation and fail the translated query."""
        db, _ = office
        assert len(flatten(db)[attribute_relation_name(
            "region_name")]) == 0
        query = "SELECT R FROM Region R WHERE R.region_name[N]"
        assert len(lyric.query_translated(db, query)) \
            == len(lyric.query(db, query)) == 0

    def test_relations_are_frozen_and_views_name_their_origin(
            self, office):
        db, _ = office
        color = flatten(db)[attribute_relation_name("color")]
        with pytest.raises(EvaluationError, match="read-only"):
            color.add_row(next(iter(color)))
        view = color.rename({"oid": "X", "value": "C"})
        again = view.rename({"C": "D"})
        assert view.origin == (color, {"X": "oid", "C": "value"})
        assert again.origin == (color, {"X": "oid", "D": "value"})
        assert list(again) == list(color)
        # An ordinary relation's renaming is an independent copy.
        copy = color.project(("oid", "value")).rename({"oid": "X"})
        assert copy.origin is None
        copy.add_row(next(iter(color)))
        assert len(copy) == len(color) + 1
