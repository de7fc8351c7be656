"""CST objects: constraints as first-class objects with logical identity.

Section 3 of the paper: a CST object is a (possibly infinite) collection
of points in n-dimensional space, conceptually represented by a
constraint; its *logical oid* is the canonical form of that constraint,
invariant under renaming of variables.  CST objects are organized into
classes ``CST(n)`` by dimension (see :mod:`repro.model.schema` for the
class side); this module provides the value itself and its polymorphic
operations ("the familiar constraint manipulations such as intersection
and union").
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from repro.errors import DimensionError
from repro.constraints import bounds
from repro.constraints import canonical as canonical_mod
from repro.constraints import families
from repro.constraints.atoms import LinearConstraint
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import RationalLike, Variable, to_fraction
from repro.runtime.context import current_context

#: Union of the four family classes.
AnyConstraint = (ConjunctiveConstraint | DisjunctiveConstraint
                 | ExistentialConjunctiveConstraint
                 | DisjunctiveExistentialConstraint)

#: The quantifier-free families: irredundant-and-satisfiable is stable
#: there, so a canonical member is a fixed point of ``canonicalize``
#: (an existential one is too, but is not flagged).
_QUANTIFIER_FREE = (ConjunctiveConstraint, DisjunctiveConstraint)

#: Placeholder for a not-yet-computed cheap bounding box (``None`` is a
#: meaningful value: the box is provably empty).
_UNSET = object()


class CSTObject:
    """An n-dimensional constraint object.

    ``schema`` is the ordered tuple of dimension variables — e.g. the
    paper's ``extent : CST(w,z)`` has schema ``(w, z)``.  The free
    variables of ``constraint`` must be a subset of the schema.

    Equality and hashing are *semantic up to canonical form*: two CST
    objects with the same dimension and the same canonical key are the
    same logical oid, regardless of variable names.

    ``canonical=True`` is the caller's word that ``constraint`` is a
    canonical form (an :meth:`oid_text`, renamed or not): taken as is.
    """

    __slots__ = ("_schema", "_constraint", "_key", "_hash", "_sat",
                 "_box", "_canonical")

    def __init__(self, schema: Sequence[Variable],
                 constraint: AnyConstraint | LinearConstraint,
                 canonicalize: bool = True, *, canonical: bool = False):
        schema = tuple(schema)
        if len({v.name for v in schema}) != len(schema):
            raise DimensionError(
                f"duplicate variables in CST schema {schema}")
        if isinstance(constraint, LinearConstraint):
            constraint = ConjunctiveConstraint.of(constraint)
        free = _free_variables(constraint)
        extra = free - set(schema)
        if extra:
            raise DimensionError(
                f"constraint mentions variables outside the CST schema: "
                f"{sorted(v.name for v in extra)} not in "
                f"{[v.name for v in schema]}")
        if canonicalize and not canonical:
            constraint = canonical_mod.canonicalize(constraint)
        self._schema = schema
        self._constraint = constraint
        self._canonical = (canonicalize or canonical) \
            and isinstance(constraint, _QUANTIFIER_FREE)
        self._key: tuple | None = None
        self._hash: int | None = None
        self._sat: bool | None = None
        self._box: object = _UNSET

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_atoms(cls, schema: Sequence[Variable],
                   atoms: Iterable[LinearConstraint]) -> "CSTObject":
        return cls(schema, ConjunctiveConstraint(atoms))

    @classmethod
    def everything(cls, schema: Sequence[Variable]) -> "CSTObject":
        """All of n-dimensional space."""
        return cls(schema, ConjunctiveConstraint.true())

    @classmethod
    def empty(cls, schema: Sequence[Variable]) -> "CSTObject":
        return cls(schema, ConjunctiveConstraint.false())

    # -- inspection ----------------------------------------------------------------

    @property
    def schema(self) -> tuple[Variable, ...]:
        return self._schema

    @property
    def dimension(self) -> int:
        return len(self._schema)

    @property
    def constraint(self) -> AnyConstraint:
        return self._constraint

    @property
    def family(self) -> families.Family:
        return families.classify(self._constraint)

    @property
    def is_canonical(self) -> bool:
        """Known fixed point of ``canonicalize``: nothing left to solve."""
        return self._canonical

    @property
    def oid_key(self) -> tuple:
        """The alpha-invariant identity key (the logical oid's content)."""
        if self._key is None:
            self._key = (len(self._schema),
                         canonical_mod.canonical_key(
                             self._constraint, self._schema,
                             canonical=self._canonical))
        return self._key

    def oid_text(self) -> str:
        """Printable logical oid: the canonical constraint under its
        schema variable names, in the paper's projection notation."""
        names = ",".join(v.name for v in self._schema)
        return f"(({names}) | {self._constraint})"

    # -- point semantics ---------------------------------------------------------------

    def contains_point(self, *coordinates: RationalLike) -> bool:
        """Is the concrete point a member of the denoted point set?"""
        if len(coordinates) == 1 and isinstance(coordinates[0],
                                                (tuple, list)):
            coordinates = tuple(coordinates[0])
        if len(coordinates) != self.dimension:
            raise DimensionError(
                f"expected {self.dimension} coordinates, "
                f"got {len(coordinates)}")
        point = {v: to_fraction(c)
                 for v, c in zip(self._schema, coordinates)}
        return self._constraint.holds_at(point)

    def is_satisfiable(self) -> bool:
        """Nonempty as a point set (cached — the object is immutable)."""
        if self._sat is None:
            self._sat = self._constraint.is_satisfiable()
        return self._sat

    def sample_point(self) -> tuple[Fraction, ...] | None:
        point = self._constraint.sample_point()
        if point is None:
            return None
        return tuple(point.get(v, Fraction(0)) for v in self._schema)

    def cheap_box(self):
        """Syntactic per-variable bounds (no LP; see
        :func:`repro.constraints.bounds.constraint_box`), cached — the
        object is immutable.  ``None`` means provably empty."""
        if self._box is _UNSET:
            self._box = bounds.constraint_box(self._constraint)
        return self._box

    # -- polymorphic operations (the CST superclass methods) ------------------------------

    def rename(self, new_schema: Sequence[Variable]) -> "CSTObject":
        """Positional renaming onto a new variable schema — the query
        syntax ``O(x1..xn)`` of Section 4.2."""
        new_schema = tuple(new_schema)
        if len(new_schema) != self.dimension:
            raise DimensionError(
                f"renaming schema has {len(new_schema)} variables, "
                f"object has dimension {self.dimension}")
        if new_schema == self._schema:
            return self
        mapping = dict(zip(self._schema, new_schema))
        return CSTObject(new_schema, self._constraint.rename(mapping),
                         canonicalize=False, canonical=self._canonical)

    def intersect(self, other: "CSTObject") -> "CSTObject":
        """Constraint conjunction; schemas merge by variable name (the
        shared-name join semantics of Section 3.2).

        Fast path: when the two cheap bounding boxes are disjoint the
        intersection is provably empty, so the canonical FALSE object
        is returned without conjoining or canonicalizing.  Restricted
        to the unquantified families, whose canonical form of an empty
        set is exactly the FALSE conjunction — the shortcut is then
        observationally identical to the slow path.
        """
        schema = _merge_schemas(self._schema, other._schema)
        if current_context().prefilter \
                and isinstance(self._constraint, _QUANTIFIER_FREE) \
                and isinstance(other._constraint, _QUANTIFIER_FREE) \
                and bounds.boxes_disjoint(self.cheap_box(),
                                          other.cheap_box()):
            return CSTObject(schema, ConjunctiveConstraint.false(),
                             canonical=True)
        combined = _conjoin_any(self._constraint, other._constraint)
        return CSTObject(schema, combined)

    __and__ = intersect

    def union(self, other: "CSTObject") -> "CSTObject":
        schema = _merge_schemas(self._schema, other._schema)
        combined = _disjoin_any(self._constraint, other._constraint)
        return CSTObject(schema, combined)

    __or__ = union

    def conjoin_atoms(self, atoms: Iterable[LinearConstraint]
                      ) -> "CSTObject":
        extra = ConjunctiveConstraint(atoms)
        schema = _merge_schemas(self._schema, extra.columns)
        return CSTObject(schema, _conjoin_any(self._constraint, extra))

    def project(self, schema: Sequence[Variable]) -> "CSTObject":
        """``((schema) | self)`` — projection onto (possibly new)
        variables; family rules are applied by the constraint layer."""
        schema = tuple(schema)
        body = self._constraint
        if isinstance(body, ConjunctiveConstraint):
            body = ExistentialConjunctiveConstraint.of_conjunctive(body)
        result = body.project(schema)
        return CSTObject(schema, result)

    def entails(self, other: "CSTObject") -> bool:
        """The paper's ``|=`` between CST objects: containment of point
        sets (with variables matched by name)."""
        lhs = DisjunctiveExistentialConstraint.of(self._constraint)
        rhs = DisjunctiveExistentialConstraint.of(other._constraint)
        return lhs.entails(rhs)

    def overlaps(self, other: "CSTObject") -> bool:
        """Nonempty intersection (the view example's overlap predicate)."""
        return self.intersect(other).is_satisfiable()

    def bounding_box(self) -> list[tuple[Fraction | None, Fraction | None]]:
        """Exact per-dimension (min, max); None marks unboundedness."""
        from repro.constraints import lp
        box = []
        flat = self._flat_disjuncts()
        for var in self._schema:
            lows, highs = [], []
            for conj in flat:
                lo = lp.minimize(var, conj)
                hi = lp.maximize(var, conj)
                if lo.is_infeasible:
                    continue
                lows.append(lo.value if lo.is_optimal else None)
                highs.append(hi.value if hi.is_optimal else None)
            if not lows:
                box.append((None, None))
                continue
            box.append((
                None if any(v is None for v in lows) else min(lows),
                None if any(v is None for v in highs) else max(highs)))
        return box

    def _flat_disjuncts(self) -> list[ConjunctiveConstraint]:
        """The object as a list of conjunctions (quantified witnesses
        kept in-body, which is sound for per-free-variable bounds)."""
        c = self._constraint
        if isinstance(c, ConjunctiveConstraint):
            return [c]
        if isinstance(c, DisjunctiveConstraint):
            return list(c.disjuncts)
        if isinstance(c, ExistentialConjunctiveConstraint):
            return [c.body]
        return [d.body for d in c.disjuncts]

    # -- identity ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSTObject):
            return NotImplemented
        return self.oid_key == other.oid_key

    def __ne__(self, other: object) -> bool:
        if not isinstance(other, CSTObject):
            return NotImplemented
        return self.oid_key != other.oid_key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("CSTObject", self.oid_key))
        return self._hash

    def __repr__(self) -> str:
        return f"CSTObject{self.oid_text()}"

    def __str__(self) -> str:
        return self.oid_text()


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _free_variables(constraint) -> set[Variable]:
    return set(constraint.variables)


def _merge_schemas(a: tuple[Variable, ...], b: tuple[Variable, ...]
                   ) -> tuple[Variable, ...]:
    seen = set(a)
    return a + tuple(v for v in b if v not in seen)


def _conjoin_any(a, b):
    """Conjunction across families, producing the least family member."""
    fam = families.join(families.classify(a), families.classify(b))
    if fam is families.Family.CONJUNCTIVE:
        return _to_conjunctive(a).conjoin(_to_conjunctive(b))
    if fam is families.Family.EXISTENTIAL_CONJUNCTIVE:
        return _to_existential(a).conjoin(_to_existential(b))
    if fam is families.Family.DISJUNCTIVE:
        return _to_disjunctive(a).conjoin(_to_disjunctive(b))
    return DisjunctiveExistentialConstraint.of(a).conjoin(
        DisjunctiveExistentialConstraint.of(b))


def _conjoin_all(parts: list):
    """The conjunction of ``parts`` in order, folded left by
    :func:`_conjoin_any`; conjunctions conjoin in one column merge."""
    if all(type(part) is ConjunctiveConstraint for part in parts):
        return parts[0].conjoin(*parts[1:])
    result = parts[0]
    for part in parts[1:]:
        result = _conjoin_any(result, part)
    return result


def _disjoin_any(a, b):
    fam = families.join(families.classify(a), families.classify(b))
    if fam in (families.Family.CONJUNCTIVE, families.Family.DISJUNCTIVE):
        return _to_disjunctive(a).disjoin(_to_disjunctive(b))
    return DisjunctiveExistentialConstraint.of(a).disjoin(
        DisjunctiveExistentialConstraint.of(b))


def _to_conjunctive(c) -> ConjunctiveConstraint:
    if isinstance(c, ConjunctiveConstraint):
        return c
    if isinstance(c, ExistentialConjunctiveConstraint) \
            and c.is_quantifier_free():
        return c.body
    if isinstance(c, DisjunctiveConstraint) and len(c) == 1:
        return c.disjuncts[0]
    if isinstance(c, DisjunctiveConstraint) and len(c) == 0:
        return ConjunctiveConstraint.false()
    if isinstance(c, DisjunctiveExistentialConstraint):
        if len(c) == 0:
            return ConjunctiveConstraint.false()
        if len(c) == 1 and c.disjuncts[0].is_quantifier_free():
            return c.disjuncts[0].body
    raise TypeError(f"not conjunctive: {c!r}")


def _to_existential(c) -> ExistentialConjunctiveConstraint:
    if isinstance(c, ExistentialConjunctiveConstraint):
        return c
    if isinstance(c, DisjunctiveExistentialConstraint) and len(c) == 1:
        return c.disjuncts[0]
    return ExistentialConjunctiveConstraint.of_conjunctive(
        _to_conjunctive(c))


def _to_disjunctive(c) -> DisjunctiveConstraint:
    if isinstance(c, DisjunctiveConstraint):
        return c
    if isinstance(c, ConjunctiveConstraint):
        return DisjunctiveConstraint.of_conjunctive(c)
    if isinstance(c, ExistentialConjunctiveConstraint) \
            and c.is_quantifier_free():
        return DisjunctiveConstraint.of_conjunctive(c.body)
    if isinstance(c, DisjunctiveExistentialConstraint) \
            and all(d.is_quantifier_free() for d in c.disjuncts):
        return DisjunctiveConstraint(d.body for d in c.disjuncts)
    raise TypeError(f"not disjunctive: {c!r}")
