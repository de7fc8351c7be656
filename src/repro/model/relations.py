"""Flattening an object database into flat constraint relations.

Section 5 of the paper: "the definition of a database in LyriC as a
general structure means that it is essentially a collection of flat
relations.  These represent the extent of classes and the mapping used
to represent attributes."  We materialize:

* one unary *extent* relation per class — ``class:Name(oid)`` — holding
  the full extent (subclass instances included), and
* one binary *attribute* relation per attribute name —
  ``attr:name(oid, value)`` — with set-valued attributes unnested to one
  row per member, and
* on demand, an attribute relation *restricted to a class* —
  ``attr:name@Class(oid, value)``, the rows of ``attr:name`` whose
  object is in ``class:Class`` — which is what a path ``X.name[V]``
  headed by a FROM variable of that class scans.

Together these are the :class:`Catalog` the Section 5 translation runs
against.  A database has one, built at the first translated query and
kept until the database, its schema or the requested shard count
changes (:func:`flatten`).
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.model.database import Database
from repro.model.schema import BUILTIN_CLASSES
from repro.runtime.context import ExecutionStats
from repro.runtime.locks import fork_safe_lock
from repro.sqlc.relation import ConstraintRelation

EXTENT_PREFIX = "class:"
ATTRIBUTE_PREFIX = "attr:"

#: Why :func:`flatten` built a catalog instead of returning the one the
#: database holds, in the order the causes are checked.
REBUILD_REASONS = ("first_use", "db_mutated", "schema_changed",
                   "shards_changed")


def extent_relation_name(class_name: str) -> str:
    return EXTENT_PREFIX + class_name


def attribute_relation_name(attribute: str,
                            class_name: str | None = None) -> str:
    """``attr:attribute``, or with ``class_name`` the attribute
    relation restricted to that class's extent."""
    name = ATTRIBUTE_PREFIX + attribute
    return name if class_name is None else f"{name}@{class_name}"


class Catalog(Mapping[str, ConstraintRelation]):
    """The flat relations of one database state, by name.

    Its relations are frozen: every query on the database scans these
    same objects (that identity is what the box-index cache and the
    shard layout hang on), so no plan node may change them.  Iteration
    and ``len`` cover the extent and attribute relations; a
    class-restricted attribute relation is derived from those two at
    its first lookup and kept.
    """

    def __init__(self, db: Database, shards: int, key: tuple) -> None:
        #: ``(database version, schema version, shards)`` it images.
        self.key = key
        self._shards = shards
        self._relations: dict[str, ConstraintRelation] = {}
        self._restricted: dict[str, ConstraintRelation] = {}

        for class_name in db.schema.class_names:
            if class_name in BUILTIN_CLASSES:
                continue
            name = extent_relation_name(class_name)
            self._relations[name] = ConstraintRelation(
                name, ("oid",),
                [(oid,) for oid in db.extent(class_name)]).freeze()

        # Every declared attribute has a relation, empty when no object
        # sets it: a path through it denotes nothing, as in the naive
        # evaluator, instead of naming an unknown relation.
        attribute_rows: dict[str, list] = {
            attr_name: []
            for class_name in db.schema.class_names
            for attr_name in db.schema.class_def(class_name).attributes}
        for obj in list(db.objects()):
            for attr_name in obj.attribute_names:
                rows = attribute_rows.setdefault(attr_name, [])
                for value in obj.values(attr_name):
                    rows.append((obj.oid, value))
        for attr_name, rows in attribute_rows.items():
            name = attribute_relation_name(attr_name)
            self._relations[name] = self._attribute_relation(name, rows)

    def _attribute_relation(self, name: str,
                            rows: list) -> ConstraintRelation:
        """With ``shards >= 2`` a relation range-partitioned on its
        ``value`` column — the CST-bearing column scatter-gather joins
        prune on.  Row content and order are the same either way."""
        if self._shards >= 2:
            from repro.sqlc.shard import ShardedConstraintRelation
            return ShardedConstraintRelation(
                name, ("oid", "value"), rows, shards=self._shards,
                partition_by="value").freeze()
        return ConstraintRelation(name, ("oid", "value"), rows).freeze()

    def __getitem__(self, name: str) -> ConstraintRelation:
        relation = self._relations.get(name)
        if relation is None:
            relation = self._restricted.get(name)
        if relation is not None:
            return relation
        attribute, at, class_name = name.partition("@")
        if not at or not attribute.startswith(ATTRIBUTE_PREFIX):
            raise KeyError(name)
        extent = self._relations[extent_relation_name(class_name)]
        with _BUILD_LOCK:
            relation = self._restricted.get(name)
            if relation is None:
                # Extent-major, as the join it replaces produced them.
                relation = self._attribute_relation(name, list(
                    extent.natural_join(self._relations[attribute])))
                self._restricted[name] = relation
        return relation

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)


#: One lock for every database: a catalog is built once per mutation,
#: and being module-level it can be kept out of forked workers' way.
_BUILD_LOCK = fork_safe_lock()


def _rebuild_reason(held: Catalog | None, key: tuple) -> str:
    """The first of :data:`REBUILD_REASONS` that explains why ``held``
    does not image ``key``."""
    if held is None:
        return REBUILD_REASONS[0]
    return next(reason for reason, old, new
                in zip(REBUILD_REASONS[1:], held.key, key) if old != new)


def flatten(db: Database, shards: int = 0,
            stats: ExecutionStats | None = None) -> Catalog:
    """The flat-relation encoding of the database: the catalog ``db``
    holds when it still images ``(db.version, db.schema.version,
    shards)``, else a new one, built under a lock and left on the
    database for the next caller.

    Extent relations are monolithic (unary oid lists with no geometry
    to partition); ``shards`` governs the attribute relations.
    ``stats`` receives ``catalog_hits`` / ``catalog_rebuilds`` and the
    rebuild's reason (:data:`REBUILD_REASONS`).

    Mutations must not run concurrently with each other (the server's
    write gate sees to that); a mutation concurrent with a build at
    worst leaves a catalog keyed to the older version, which the next
    call replaces.
    """
    catalog = db.flat_catalog
    if catalog is None \
            or catalog.key != (db.version, db.schema.version, shards):
        with _BUILD_LOCK:
            catalog = db.flat_catalog
            key = (db.version, db.schema.version, shards)
            if catalog is None or catalog.key != key:
                if stats is not None:
                    stats.catalog_rebuilds += 1
                    stats.catalog_rebuild_reason = _rebuild_reason(
                        catalog, key)
                db.flat_catalog = catalog = Catalog(db, shards, key)
                return catalog
    if stats is not None:
        stats.catalog_hits += 1
    return catalog
