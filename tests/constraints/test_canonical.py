"""Unit tests for canonical forms and the alpha-invariant identity key."""

from repro.constraints.atoms import Eq, Ge, Le, Lt, Ne
from repro.constraints.canonical import (
    canonical_conjunctive,
    canonical_disjunctive,
    canonical_dex,
    canonical_existential,
    canonical_key,
    canonicalize,
)
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import variables

import pytest

x, y, z = variables("x y z")


def conj(*atoms):
    return ConjunctiveConstraint.of(*atoms)


class TestConjunctiveCanonical:
    def test_unsatisfiable_collapses(self):
        c = conj(Le(x, 0), Ge(x, 1))
        assert canonical_conjunctive(c).is_syntactically_false()

    def test_redundant_atom_removed(self):
        c = conj(Le(x, 1), Le(x, 5))
        assert canonical_conjunctive(c) == conj(Le(x, 1))

    def test_linear_combination_redundancy(self):
        # x <= 1 and y <= 1 imply x + y <= 2.
        c = conj(Le(x, 1), Le(y, 1), Le(x + y, 2))
        assert canonical_conjunctive(c) == conj(Le(x, 1), Le(y, 1))

    def test_no_redundancy_pass(self):
        c = conj(Le(x, 1), Le(x, 5))
        assert len(canonical_conjunctive(c, remove_redundant=False)) == 2

    def test_true_stays(self):
        assert canonical_conjunctive(ConjunctiveConstraint.true()).is_true()

    def test_equality_pair_kept_when_not_redundant(self):
        c = conj(Eq(x, 1), Le(y, x))
        result = canonical_conjunctive(c)
        assert result.is_satisfiable()
        assert result.holds_at({x: 1, y: 0})

    def test_strict_over_nonstrict(self):
        c = conj(Lt(x, 1), Le(x, 1))
        assert canonical_conjunctive(c) == conj(Lt(x, 1))


class TestDisjunctiveCanonical:
    def test_inconsistent_disjunct_deleted(self):
        d = DisjunctiveConstraint([
            conj(Le(x, 0), Ge(x, 1)),       # empty
            conj(Ge(x, 0), Le(x, 1)),
        ])
        assert len(canonical_disjunctive(d)) == 1

    def test_duplicates_after_canonicalization_merge(self):
        d = DisjunctiveConstraint([
            conj(Le(x, 1), Le(x, 5)),
            conj(Le(x, 1)),
        ])
        assert len(canonical_disjunctive(d)) == 1

    def test_redundant_disjuncts_not_removed(self):
        # [0,1] is contained in [0,2] but stays: disjunct-redundancy
        # detection is co-NP-complete and deliberately skipped.
        d = DisjunctiveConstraint([
            conj(Ge(x, 0), Le(x, 1)),
            conj(Ge(x, 0), Le(x, 2)),
        ])
        assert len(canonical_disjunctive(d)) == 2


class TestExistentialCanonical:
    def test_simplifies_and_canonicalizes(self):
        ex = ExistentialConjunctiveConstraint(
            conj(Eq(y, x), Le(y, 1), Le(x, 5)), [y])
        result = canonical_existential(ex)
        assert result.is_quantifier_free()
        assert result.body == conj(Le(x, 1))

    def test_dex(self):
        dex = DisjunctiveExistentialConstraint([
            ExistentialConjunctiveConstraint(
                conj(Le(x, 0), Ge(x, 1))),  # empty disjunct
            ExistentialConjunctiveConstraint(conj(Le(x, 1))),
        ])
        assert len(canonical_dex(dex)) == 1


class TestCanonicalize:
    def test_dispatch(self):
        assert canonicalize(conj(Le(x, 1))) == conj(Le(x, 1))

    def test_lowering_single_disjunct(self):
        # Canonicalization lowers a one-disjunct disjunction to its
        # conjunction so equal point sets share a logical oid.
        result = canonicalize(DisjunctiveConstraint([conj(Le(x, 1))]))
        assert isinstance(result, ConjunctiveConstraint)

    def test_genuine_disjunction_stays(self):
        result = canonicalize(DisjunctiveConstraint(
            [conj(Le(x, 0)), conj(Ge(x, 1))]))
        assert isinstance(result, DisjunctiveConstraint)

    def test_rejects_non_constraints(self):
        with pytest.raises(TypeError):
            canonicalize(42)


class TestCanonicalKey:
    def test_alpha_invariance(self):
        a = conj(Ge(x, 0), Le(x + y, 1))
        b = conj(Ge(z, 0), Le(z + y, 1))
        assert canonical_key(a, [x, y]) == canonical_key(b, [z, y])

    def test_semantic_normalization(self):
        a = conj(Le(2 * x, 2))
        b = conj(Le(x, 1), Le(x, 7))
        assert canonical_key(a, [x]) == canonical_key(b, [x])

    def test_different_regions_differ(self):
        assert canonical_key(conj(Le(x, 1)), [x]) \
            != canonical_key(conj(Le(x, 2)), [x])

    def test_schema_order_matters(self):
        # ((x,y) | x <= 0) and ((y,x) | x <= 0) denote different point
        # sets (the constrained dimension is the first vs the second).
        a = conj(Le(x, 0))
        assert canonical_key(a, [x, y]) != canonical_key(a, [y, x])

    def test_existential_key(self):
        a = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Le(y - x, 0)), [y])
        b = ExistentialConjunctiveConstraint(
            conj(Ge(z, 0), Le(z - x, 0)), [z])
        assert canonical_key(a, [x]) == canonical_key(b, [x])


@pytest.mark.parametrize("family", [
    "conjunctive", "disjunctive", "existential", "dex"])
def test_canonicalize_is_a_fixed_point(family):
    """Section 3.1's canonical form is the oid, so applying it again
    must change nothing — on the existential families too, where
    removing redundant atoms can make another elimination simplifying.
    Fixed seeds, so a failure reproduces."""
    from tests.model.test_serialize_roundtrip import family_constraint
    for seed in range(30):
        once = canonicalize(family_constraint(family, seed))
        again = canonicalize(once)
        assert type(again) is type(once)
        assert str(again) == str(once), seed
