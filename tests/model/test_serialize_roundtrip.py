"""Property tests: serialization round trips over *random* schemas and
databases (satellite of the durable-storage PR — the WAL and snapshots
reuse this format, so its round trip must be exact for every oid
variant, huge and negative Fractions, strict/EQ/NE atoms, empty
interface renamings, and set-valued attributes)."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.constraints import canonical
from repro.constraints.atoms import Eq, Ge, Gt, Le, Lt, Ne
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import Variable
from repro.model.database import Database
from repro.model.oid import (
    AttributeNameOid,
    ClassNameOid,
    CstOid,
    FunctionalOid,
    LiteralOid,
    SymbolicOid,
)
from repro.model.schema import AttributeDef, CSTSpec, Schema
from repro.runtime.cache import ConstraintCache
from repro.runtime.context import ExecutionStats, QueryContext
from repro.workloads import random_constraints as rc
from repro.model.serialize import (
    dump_database,
    dump_oid,
    dump_schema,
    load_database,
    load_oid,
    load_schema,
)

X, Y = Variable("x"), Variable("y")

#: Rationals stressing the textual round trip: huge numerators,
#: negative values, denominators that do not divide powers of ten.
fractions = st.builds(
    Fraction,
    st.integers(min_value=-10**30, max_value=10**30),
    st.integers(min_value=1, max_value=10**15))

names = st.text(alphabet="abcdefghij_", min_size=1, max_size=8)


@st.composite
def atoms(draw):
    """One random linear atom over (x, y), any relop, any sign."""
    cx = draw(fractions)
    cy = draw(fractions)
    bound = draw(fractions)
    relop = draw(st.sampled_from([Eq, Ne, Le, Lt, Ge, Gt]))
    return relop(cx * X + cy * Y, bound)


@st.composite
def cst_objects(draw):
    body = ConjunctiveConstraint(
        draw(st.lists(atoms(), min_size=1, max_size=3)))
    return CSTObject((X, Y), body)


#: x0..x3: a family object's schema is (x0, x1); x2, x3 get quantified.
V = rc.make_variables(4)
FAMILIES = ("conjunctive", "disjunctive", "existential", "dex")
QUANTIFIER_FREE = FAMILIES[:2]


def family_constraint(family, seed):
    """A member of one of Section 3.1's four families over (x0, x1),
    from ``workloads/random_constraints.py`` (deterministic in
    ``seed``).  The existential ones keep a quantifier under
    canonicalisation: odd seeds take the chained system, where dropping
    redundant atoms makes a further elimination simplifying; even ones
    the dense system.  Neither canonical form moves when canonicalised
    again: ``canonical_existential`` iterates to a fixed point."""
    if family == "conjunctive":
        return rc.redundant_conjunction(2, 3, 2, seed)
    if family == "disjunctive":
        return rc.random_dnf(2, 3, 3, seed)
    body = rc.chained_projection_system(4, seed) if seed % 2 \
        else rc.dense_system(4, seed=seed)
    kept = ExistentialConjunctiveConstraint(body, V[2:])
    if family == "existential":
        return kept
    return DisjunctiveExistentialConstraint(
        [kept, ExistentialConjunctiveConstraint.of_conjunctive(
            rc.random_polytope(2, 2, seed))])


def family_object(family, seed):
    return CSTObject(V[:2], family_constraint(family, seed))


def family_objects(families=FAMILIES):
    return st.builds(family_object, st.sampled_from(families),
                     st.integers(min_value=0, max_value=10**6))


@st.composite
def oids(draw, depth=1):
    branches = [
        st.builds(SymbolicOid, names),
        st.builds(LiteralOid, fractions),
        st.builds(LiteralOid,
                  st.text(alphabet="abc xyz0189'!", max_size=12)),
        st.builds(AttributeNameOid, names),
        st.builds(ClassNameOid, names),
        st.builds(CstOid, cst_objects()),
    ]
    if depth > 0:
        branches.append(st.builds(
            FunctionalOid, names,
            st.lists(oids(depth=depth - 1), min_size=1, max_size=2)))
    return draw(st.one_of(branches))


class TestOidRoundtrip:
    @given(oids(depth=2))
    @settings(max_examples=80, deadline=None)
    def test_every_oid_variant_round_trips(self, oid):
        clone = load_oid(dump_oid(oid))
        assert clone == oid
        assert type(clone) is type(oid)
        # The dump itself is a fixed point (stable on-disk bytes).
        assert dump_oid(clone) == dump_oid(oid)

    @given(fractions)
    @settings(max_examples=50, deadline=None)
    def test_extreme_fractions_survive_exactly(self, value):
        clone = load_oid(dump_oid(LiteralOid(value)))
        assert clone.value == value

    @given(cst_objects())
    @settings(max_examples=30, deadline=None)
    def test_cst_text_round_trip_is_semantic_identity(self, cst):
        clone = load_oid(dump_oid(CstOid(cst)))
        assert clone == CstOid(cst)  # canonical-form equality
        assert clone.cst.dimension == cst.dimension


class TestTrustedDecode:
    """The reader that takes our own canonical text as what it is must
    stay a refinement of the one that canonicalises."""

    @given(family_objects())
    @settings(max_examples=40, deadline=None)
    def test_trusted_decode_is_the_identity(self, cst):
        clone = load_oid(dump_oid(CstOid(cst)), trusted=True).cst
        assert clone.oid_text() == cst.oid_text()
        assert type(clone.constraint) is type(cst.constraint)
        assert clone == cst and clone.oid_key == cst.oid_key
        assert clone.is_canonical == cst.is_canonical

    @given(family_objects(QUANTIFIER_FREE),
           st.sampled_from([V[:2], (Variable("b"), Variable("a"))]))
    @settings(max_examples=40, deadline=None)
    def test_trusted_equals_canonicalising_decode(self, cst, schema):
        cst = cst.rename(schema)
        payload = dump_oid(CstOid(cst))
        trusted, slow = load_oid(payload, trusted=True), load_oid(payload)
        assert trusted == slow and dump_oid(trusted) == dump_oid(slow)
        assert trusted.cst.is_canonical and cst.is_canonical
        # The flagged key is _canonical_key's, computed the long way.
        assert trusted.cst.oid_key == (2, canonical._canonical_key(
            cst.constraint, schema, QueryContext(cache=None)))

    def test_flagged_key_solves_nothing(self):
        """On a cold memo the key of a flagged object is one entry —
        the renamed constraint itself, kept because a warm hit costs
        2.5 us where renaming again costs 45 — with nothing under it:
        no ``canon``, ``sat`` or ``redundant`` computation."""
        cst = family_object("disjunctive", 3)
        payload, key = dump_oid(CstOid(cst)), cst.oid_key
        stats = ExecutionStats()
        with QueryContext(stats=stats, cache=ConstraintCache()).activate():
            clone = load_oid(payload, trusted=True).cst
            assert stats.cache_misses == 0
            assert clone.oid_key == key
            assert (stats.simplex_solves, stats.cache_misses) == (0, 1)
            assert load_oid(payload, trusted=True).cst.oid_key == key
            assert (stats.cache_hits, stats.cache_misses) == (1, 1)

    def test_uncanonical_object_is_dumped_canonical(self):
        redundant = CSTObject((X,), ConjunctiveConstraint(
            [Le(X, 1), Le(X, 2)]), canonicalize=False)
        assert not redundant.is_canonical
        payload = dump_oid(CstOid(redundant))
        assert payload["v"] == "((x) | x <= 1)"
        clone = load_oid(payload, trusted=True).cst
        assert clone.is_canonical and clone == redundant

    def test_untrusted_is_the_default(self):
        payload = {"t": "cst", "v": "((x) | x <= 1 and x <= 2)"}
        assert load_oid(payload).cst.oid_text() == "((x) | x <= 1)"
        assert load_oid(payload, trusted=True).cst.oid_text() == payload["v"]


@st.composite
def schemas(draw):
    """A random schema: a base class with an interface, a subclass,
    scalar/set-valued/CST/class-valued attributes, and optionally an
    *empty* interface renaming (the regression the truthiness bug ate).
    """
    schema = Schema()
    base_attrs = [AttributeDef("ext", CSTSpec(("x", "y"))),
                  AttributeDef("label", "string")]
    schema.define("Base", interface=("x", "y"), attributes=base_attrs)
    schema.define("Plain")  # no interface at all
    sub_attrs = [AttributeDef("nums", "real", set_valued=True)]
    if draw(st.booleans()):
        sub_attrs.append(AttributeDef("friend", "Base",
                                      interface_args=("p", "q")))
    if draw(st.booleans()):
        # Empty renaming: meaningful, distinct from "no renaming".
        sub_attrs.append(AttributeDef("other", "Plain",
                                      interface_args=()))
    if draw(st.booleans()):
        sub_attrs.append(AttributeDef("region", "Shape"))
        schema.ensure_cst_class(2)
        schema.define("Shape", parents=("CST(2)",),
                      cst_dimension=2)
    schema.define("Sub", parents=("Base",), attributes=sub_attrs)
    schema.validate()
    return schema


class TestSchemaRoundtrip:
    @given(schemas())
    @settings(max_examples=25, deadline=None)
    def test_schema_dump_is_fixed_point(self, schema):
        payload = dump_schema(schema)
        clone = load_schema(payload)
        assert dump_schema(clone) == payload
        assert set(clone.class_names) == set(schema.class_names)
        for name in schema.class_names:
            ours, theirs = schema.class_def(name), clone.class_def(name)
            assert ours.parents == theirs.parents
            assert ours.interface == theirs.interface
            for attr_name, attr in ours.attributes.items():
                other = theirs.attributes[attr_name]
                assert attr.set_valued == other.set_valued
                assert attr.interface_args == other.interface_args

    def test_empty_interface_args_survive(self):
        """Regression: ``interface_args=()`` must not collapse to
        ``None`` (truthiness vs ``is not None``)."""
        schema = Schema()
        schema.define("Plain")
        schema.define("Holder", attributes=[
            AttributeDef("p", "Plain", interface_args=())])
        clone = load_schema(dump_schema(schema))
        attr = clone.class_def("Holder").attributes["p"]
        assert attr.interface_args == ()
        assert attr.interface_args is not None


@st.composite
def databases(draw):
    schema = draw(schemas())
    db = Database(schema)
    count = draw(st.integers(min_value=0, max_value=4))
    created = []
    for i in range(count):
        values = {}
        if draw(st.booleans()):
            values["ext"] = draw(cst_objects())
        if draw(st.booleans()):
            values["label"] = draw(
                st.text(alphabet="abc xyz", max_size=6))
        cls = draw(st.sampled_from(["Base", "Sub"]))
        if cls == "Sub" and draw(st.booleans()):
            values["nums"] = frozenset(
                LiteralOid(f) for f in draw(
                    st.lists(fractions, max_size=3)))
        if cls == "Sub" and created and draw(st.booleans()) \
                and "friend" in schema.attributes_of("Sub"):
            values["friend"] = draw(st.sampled_from(created))
        obj = db.add_object(f"o{i}", cls, values)
        created.append(obj.oid)
    db.validate()
    return db


class TestDatabaseRoundtrip:
    @given(databases())
    @settings(max_examples=25, deadline=None)
    def test_database_dump_is_fixed_point(self, db):
        payload = dump_database(db)
        clone = load_database(payload)
        assert dump_database(clone) == payload
        assert len(clone) == len(db)
        for obj in db.objects():
            other = clone.object(obj.oid)
            assert other.class_name == obj.class_name
            for name in obj.attribute_names:
                assert other.get(name) == obj.get(name)
