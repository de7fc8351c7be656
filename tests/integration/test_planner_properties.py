"""The planner's differential suite: text through the translated path
≡ the naive evaluator, on a database that keeps changing.

One random scenario is a small database and a sequence of steps; a
step changes the database through one of its mutation routes — or not
at all, so the catalog is also *kept* — and then evaluates a random
1-3-FROM-item query under every combination of optimizer on/off,
indexing on/off and 0/4 shards, each compared in ``rows_bytes`` with
``lyric.query`` on the same database.  The naive evaluator reads the
objects, the translated path reads the database's flat catalog: a join
planned wrongly, a conjunct hung on the wrong node or a catalog that
outlived a mutation all show up as a differing byte string.

The plan goldens at the end pin the shape the join workload of the
benchmark must get: the index join directly on two catalog scans.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from bench import text as bench_text
from bench.common import rows_bytes
from bench.sizes import SIZES
from repro import lyric
from repro.constraints.parser import parse_cst
from repro.errors import EvaluationError
from repro.model.database import Database
from repro.model.relations import flatten
from repro.model.schema import AttributeDef, CSTSpec, Schema
from repro.runtime.context import ExecutionStats, QueryContext

#: (use_optimizer, indexing, shards).  A step runs them in this order
#: and the next step in reverse, so the shard count changes once per
#: step (one more invalidation route) and the first query after a
#: mutation asks for the shard count the catalog already has: only the
#: version check stands between it and the stale relations.
CONFIGS = [(optimizer, indexing, shards)
           for shards in (0, 4)
           for optimizer in (True, False)
           for indexing in (True, False)]

TAGS = ("red", "grey", "blue")


def span(rng: random.Random):
    lo = rng.randint(-12, 12)
    return parse_cst(f"((x) | {lo} <= x <= {lo + rng.randint(0, 6)})")


def item_values(rng: random.Random) -> dict:
    values: dict = {}
    if rng.random() < 0.85:
        values["span"] = span(rng)
    if rng.random() < 0.8:
        values["tag"] = rng.choice(TAGS)
    return values


def build_database(rng: random.Random) -> Database:
    """Items (some of the subclass Crate) with a 1-D ``span`` and a
    ``tag``, either of which may be unset, and shelves that hold sets
    of items and have a ``reach``."""
    schema = Schema()
    schema.ensure_cst_class(1)
    schema.define("Item", attributes=[
        AttributeDef("tag", "string"),
        AttributeDef("span", CSTSpec(["x"]))])
    schema.define("Crate", parents=["Item"])
    schema.define("Shelf", attributes=[
        AttributeDef("tag", "string"),
        AttributeDef("reach", CSTSpec(["x"])),
        AttributeDef("holds", "Item", set_valued=True)])
    db = Database(schema)
    for i in range(rng.randint(1, 6)):
        db.add_object(f"item_{i}", rng.choice(("Item", "Item", "Crate")),
                      item_values(rng))
    for i in range(rng.randint(0, 3)):
        db.add_object(f"shelf_{i}", "Shelf", shelf_values(db, rng))
    return db


def shelf_values(db: Database, rng: random.Random) -> dict:
    items = list(db.extent("Item"))
    return {"tag": rng.choice(TAGS), "reach": span(rng),
            "holds": rng.sample(items, rng.randint(0, min(3, len(items))))}


# -- mutation routes ----------------------------------------------------------


def mutate(db: Database, rng: random.Random, step: int) -> str:
    """Change ``db`` through one route (or none); returns its name."""
    items = list(db.extent("Item"))
    shelves = list(db.extent("Shelf"))
    route = rng.choice(("none", "add_object", "update_attribute",
                        "remove_object", "set", "unset", "view"))
    if route == "add_object":
        if rng.random() < 0.7:
            db.add_object(f"new_item_{step}",
                          rng.choice(("Item", "Crate")), item_values(rng))
        else:
            db.add_object(f"new_shelf_{step}", "Shelf",
                          shelf_values(db, rng))
    elif route == "update_attribute" and items:
        if shelves and rng.random() < 0.4:
            db.update_attribute(
                rng.choice(shelves), "holds",
                rng.sample(items, rng.randint(0, min(3, len(items)))))
        else:
            db.update_attribute(rng.choice(items), "span", span(rng))
    elif route == "remove_object" and items:
        # Forced: shelves may keep the oid in ``holds``, a dangling
        # member both evaluators must treat alike.
        db.remove_object(rng.choice(items), force=True)
    elif route == "set" and items:
        db.object(rng.choice(items)).set(
            *rng.choice((("span", span(rng)), ("tag", rng.choice(TAGS)))))
    elif route == "unset" and items:
        db.object(rng.choice(items)).unset(rng.choice(("span", "tag")))
    elif route == "view":
        lyric.view(db, f"""
            CREATE VIEW Pick{step} AS SUBCLASS OF Item
            SELECT src = A, tag = T
            SIGNATURE src => Item, tag => string
            FROM Item A OID FUNCTION OF A
            WHERE A.tag[T] and A.span[E]
              and SAT(E(x) and x >= {rng.randint(-6, 6)})
        """)
    else:
        return "none"
    return route


# -- random queries -------------------------------------------------------------


def random_query(db: Database, rng: random.Random) -> tuple[str, dict]:
    """A query in the translatable fragment over 1-3 FROM items:
    binding paths (CST attributes, tags, the set-valued ``holds`` —
    sometimes onto another FROM variable, sometimes two steps deep)
    and a few conjuncts over what they bind, drawn from SAT, ``|=``,
    comparisons, ``or``/``not`` and ``$params``."""
    classes = [name for name in db.schema.class_names
               if name in ("Item", "Crate", "Shelf")
               or name.startswith("Pick")]
    froms = [(var, rng.choice(classes))
             for var in "ABC"[:rng.randint(1, 3)]]
    # A lean query binds one CST attribute per FROM item and nothing
    # else: the shape whose join can sit on catalog scans.
    lean = rng.random() < 0.3
    paths: list[str] = []
    spans: list[str] = []          # variables bound to CST(x) objects
    tags: list[str] = []           # variables bound to strings
    for var, cls in froms:
        if lean or rng.random() < 0.8:
            attr = "reach" if cls == "Shelf" else "span"
            paths.append(f"{var}.{attr}[E{var}]")
            spans.append(f"E{var}")
        if lean:
            continue
        if rng.random() < 0.35:
            paths.append(f"{var}.tag[T{var}]")
            tags.append(f"T{var}")
        if cls == "Shelf" and rng.random() < 0.7:
            others = [v for v, c in froms if c != "Shelf"]
            if others and rng.random() < 0.6:
                paths.append(f"{var}.holds[{rng.choice(others)}]")
            else:
                paths.append(f"{var}.holds[H{var}].span[G{var}]")
                spans.append(f"G{var}")
        if cls.startswith("Pick") and rng.random() < 0.7:
            paths.append(f"{var}.src[S{var}]")

    def ref(var: str) -> str:
        return rng.choice((f"{var}(x)", var))

    def cst_conjunct(kinds: int = 6) -> str:
        kind = rng.randrange(kinds)
        # Two different variables where there are two: a join.
        one, two = rng.sample(spans, 2) if len(spans) > 1 \
            else spans * 2
        if kind == 0:
            return f"SAT({ref(one)} and {ref(two)})"
        if kind == 1:
            return f"SAT({one}(y) and {two}(y) and y <= $hi)"
        if kind == 2:
            return f"SAT({ref(one)} and $lo <= x <= $hi)"
        if kind == 3:
            return f"SAT({ref(one)} and (x <= $lo or x >= $hi))"
        if kind == 4:
            return f"SAT({one}(x) and not ({two}(x)))"
        return rng.choice((f"({one}(x) |= x <= $hi)",
                           f"({one}(x) |= {two}(x))"))

    def plain_conjunct() -> str:
        var, other = rng.choice(froms)[0], rng.choice(froms)[0]
        choices = [f"{var}.tag = '{rng.choice(TAGS)}'",
                   f"{var}.tag = $tag",
                   f"{var}.tag = {other}.tag",
                   f"{var} = {other}"]
        if tags:
            choices += [f"{rng.choice(tags)} = '{rng.choice(TAGS)}'",
                        f"{rng.choice(tags)} = {rng.choice(tags)}"]
        return rng.choice(choices)

    def conjunct() -> str:
        if spans and rng.random() < 0.6:
            return cst_conjunct()
        return plain_conjunct()

    # Kinds 0 and 1 are the intersective ones an index can serve.
    residue = [cst_conjunct(kinds=2)] if lean and len(spans) > 1 else []
    for _ in range(rng.randint(0, 3)):
        shape = rng.randrange(4)
        if shape == 0:
            residue.append(f"not {plain_conjunct()}")
        elif shape == 1:
            residue.append(f"({conjunct()} or {conjunct()})")
        else:
            residue.append(conjunct())

    select = [var for var, _ in froms]
    if tags and rng.random() < 0.3:
        select.append(rng.choice(tags))
    if spans and rng.random() < 0.3:
        select.append(f"cut = ((x) | {rng.choice(spans)}(x) and x <= $hi)")
    where = " and ".join(paths + residue)
    text = (f"SELECT {', '.join(select)} FROM "
            + ", ".join(f"{cls} {var}" for var, cls in froms)
            + (f" WHERE {where}" if where else ""))
    lo = rng.randint(-10, 8)
    params = {"lo": lo, "hi": lo + rng.randint(0, 8),
              "tag": rng.choice(TAGS)}
    return text, {name: value for name, value in params.items()
                  if f"${name}" in text}


# -- the property -----------------------------------------------------------------


class TestTranslatedEqualsNaive:
    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_every_configuration_on_a_changing_database(self, seed):
        rng = random.Random(seed)
        db = build_database(rng)
        for step in range(4):
            route = mutate(db, rng, step)
            query, params = random_query(db, rng)
            expected = rows_bytes(lyric.query(
                db, query, params=params,
                ctx=QueryContext(cache=None, plan_cache=None)))
            configs = CONFIGS if step % 2 == 0 else CONFIGS[::-1]
            for optimizer, indexing, shards in configs:
                ctx = QueryContext(indexing=indexing, shards=shards)
                result = lyric.query_translated(
                    db, query, use_optimizer=optimizer, ctx=ctx,
                    params=params)
                assert rows_bytes(result) == expected, (
                    f"seed {seed} step {step} after {route}: {query} "
                    f"{params} differs with optimizer={optimizer} "
                    f"indexing={indexing} shards={shards}")

    def test_the_generators_reach_what_they_are_for(self):
        """Not vacuous: over a fixed run of seeds the scenarios take
        every mutation route, and the queries return rows, join
        through an index and join sharded."""
        routes, rows, index_joins, sharded = set(), 0, 0, 0
        for seed in range(40):
            rng = random.Random(seed)
            db = build_database(rng)
            for step in range(4):
                routes.add(mutate(db, rng, step))
                query, params = random_query(db, rng)
                rows += len(lyric.query_translated(
                    db, query, params=params))
                plan = lyric.explain(db, query,
                                     ctx=QueryContext(shards=4))
                index_joins += "IndexJoin(" in plan
                sharded += "ShardedIndexJoin(" in plan
        assert routes == {"none", "add_object", "update_attribute",
                          "remove_object", "set", "unset", "view"}
        assert rows > 100 and index_joins > 20 and sharded > 10


# -- invalidation, one route at a time ----------------------------------------------


class TestEveryRouteDropsTheCatalog:
    QUERY = "SELECT A, T FROM Item A WHERE A.tag[T]"

    def tags(self, db) -> tuple[set, ExecutionStats]:
        stats = ExecutionStats()
        result = lyric.query_translated(
            db, self.QUERY, ctx=QueryContext(stats=stats))
        return {row.values[1].value for row in result}, stats

    def test_direct_set_is_seen_by_the_next_translated_query(self):
        """The regression: ``DBObject.set`` used to change the object
        behind the database's back."""
        db = build_database(random.Random(1))
        oid = db.add_object("probe", "Item", {"tag": "red"}).oid
        assert "red" in self.tags(db)[0]
        kept, stats = self.tags(db)
        assert stats.catalog_rebuilds == 0 and stats.catalog_hits >= 1

        db.object(oid).set("tag", "violet")
        seen, stats = self.tags(db)
        assert "violet" in seen
        assert stats.catalog_rebuilds == 1
        assert stats.catalog_rebuild_reason == "db_mutated"

        db.object(oid).unset("tag")
        assert "violet" not in self.tags(db)[0]
        db.object(oid).restore("tag", db.literals("string", ["teal"])[0])
        assert "teal" in self.tags(db)[0]

    def test_reasons_are_named(self):
        db = build_database(random.Random(2))
        assert self.tags(db)[1].catalog_rebuild_reason == "first_use"
        db.update_attribute(db.extent("Item")[0], "tag", "grey")
        assert self.tags(db)[1].catalog_rebuild_reason == "db_mutated"
        db.schema.define("Annex", parents=["Item"])
        assert self.tags(db)[1].catalog_rebuild_reason == "schema_changed"
        stats = ExecutionStats()
        lyric.query_translated(
            db, self.QUERY, ctx=QueryContext(stats=stats, shards=4))
        assert stats.catalog_rebuild_reason == "shards_changed"
        assert self.tags(db)[1].catalog_rebuild_reason == "shards_changed"
        assert self.tags(db)[1].catalog_rebuild_reason is None


# -- plan goldens ---------------------------------------------------------------------


class TestSparseJoinPlan:
    """``SPARSE_JOIN_QUERY`` at the benchmark's size (40 a side)."""

    def database(self):
        size = SIZES["full"]["sparse_join"]
        assert size["n"] == 40
        return bench_text.build_sparse(3, size).db

    def test_no_cross_product_and_an_index_join_on_scans(self):
        plan = lyric.explain(self.database(),
                             bench_text.SPARSE_JOIN_QUERY)
        assert "NaturalJoin(on [])" not in plan
        assert plan.splitlines()[2:] == [
            "    IndexJoin(E box-overlap F; exact SAT(E, F))",
            "      Rename(oid->A, value->E)",
            "        Scan(attr:extent@Lft)",
            "      Rename(oid->B, value->F)",
            "        Scan(attr:extent@Rgt)"]

    def test_sharded_join_is_selected_from_text(self):
        plan = lyric.explain(self.database(),
                             bench_text.SPARSE_JOIN_QUERY,
                             ctx=QueryContext(shards=16))
        assert "ShardedIndexJoin(" in plan
        assert "NaturalJoin(on [])" not in plan

    def test_probes_stay_near_the_candidates_and_indexes_are_kept(self):
        db = self.database()
        stats = ExecutionStats()
        first = lyric.query_translated(
            db, bench_text.SPARSE_JOIN_QUERY,
            ctx=QueryContext(stats=stats))
        assert stats.index_probes <= 80
        assert stats.index_builds == 2
        stats = ExecutionStats()
        again = lyric.query_translated(
            db, bench_text.SPARSE_JOIN_QUERY,
            ctx=QueryContext(stats=stats))
        assert stats.index_builds == 0 and stats.index_probes <= 80
        assert rows_bytes(again) == rows_bytes(first) \
            == rows_bytes(lyric.query(db, bench_text.SPARSE_JOIN_QUERY))
        # The same indexes serve a query that names its variables
        # differently: they belong to the catalog relations.
        stats = ExecutionStats()
        lyric.query_translated(db, """
            SELECT L, R FROM Lft L, Rgt R
            WHERE L.extent[P] and R.extent[Q] and SAT(P(x) and Q(x))
        """, ctx=QueryContext(stats=stats))
        assert stats.index_builds == 0 and stats.index_probes > 0

    def test_catalog_relations_are_read_only(self):
        catalog = flatten(self.database())
        relation = catalog["attr:extent@Lft"]
        with pytest.raises(EvaluationError, match="read-only"):
            relation.add_rows([relation._rows[0]])
        with pytest.raises(EvaluationError, match="read-only"):
            relation.rename({"value": "E"}).add_row(relation._rows[0])
