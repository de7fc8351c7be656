"""Unit tests for existential conjunctive and disjunctive existential
constraints."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.atoms import Eq, Ge, Le, Lt, Ne
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import Variable, variables
from repro.errors import ConstraintFamilyError

x, y, z, w = variables("x y z w")


def conj(*atoms):
    return ConjunctiveConstraint.of(*atoms)


class TestConstruction:
    def test_quantified_restricted_to_occurring(self):
        ex = ExistentialConjunctiveConstraint(conj(Le(x, 1)), [y])
        assert ex.quantified == frozenset()

    def test_free_variables(self):
        ex = ExistentialConjunctiveConstraint(
            conj(Le(x + y, 1)), [y])
        assert ex.free_variables == {x}

    def test_variables_alias(self):
        ex = ExistentialConjunctiveConstraint(conj(Le(x + y, 1)), [y])
        assert ex.variables == {x}

    def test_type_check(self):
        with pytest.raises(TypeError):
            ExistentialConjunctiveConstraint("nope")


class TestFreshen:
    def test_no_clash_returns_self(self):
        ex = ExistentialConjunctiveConstraint(conj(Le(x + y, 1)), [y])
        assert ex.freshen(frozenset({z})) is ex

    def test_clash_renamed(self):
        ex = ExistentialConjunctiveConstraint(conj(Le(x + y, 1)), [y])
        fresh = ex.freshen(frozenset({y}))
        assert y not in fresh.quantified
        assert fresh.free_variables == {x}
        # Semantics unchanged: x <= 1 - q for some q; both satisfiable
        # with x arbitrary.
        assert fresh.is_satisfiable()


class TestConjoin:
    def test_capture_avoidance(self):
        # (exists y. x = y and y <= 0) and (y >= 5) must keep the free
        # y of the right side distinct from the quantified y.
        left = ExistentialConjunctiveConstraint(
            conj(Eq(x, y), Le(y, 0)), [y])
        right = conj(Ge(y, 5))
        combined = left.conjoin(right)
        assert y in combined.free_variables
        assert combined.is_satisfiable()
        # x must still be forced <= 0:
        assert not combined.conjoin(conj(Ge(x, 1))).is_satisfiable()

    def test_conjoin_atom(self):
        ex = ExistentialConjunctiveConstraint(conj(Le(x + y, 1)), [y])
        combined = ex.conjoin(Ge(x, 0))
        assert combined.free_variables == {x}


class TestProjection:
    def test_project_keeps_symbolic(self):
        # Projection does not force elimination when elimination would
        # grow the system; but simple cases are simplified away.
        ex = ExistentialConjunctiveConstraint.of_conjunctive(
            conj(Eq(y, x + 1), Le(y, 3)))
        projected = ex.project([x])
        assert projected.free_variables == {x}
        # equality made the elimination simplifying:
        assert projected.is_quantifier_free()
        assert projected.body.holds_at({x: 2})
        assert not projected.body.holds_at({x: 3})

    def test_project_adds_new_free_variables(self):
        ex = ExistentialConjunctiveConstraint.of_conjunctive(conj(Le(x, 1)))
        projected = ex.project([x, w])
        assert projected.free_variables == {x}

    def test_eliminate_all(self):
        ex = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Le(y, 1), Eq(x, 2 * y)), [y])
        flat = ex.eliminate_all()
        assert flat.holds_at({x: 2})
        assert not flat.holds_at({x: 3})

    def test_eliminate_all_with_disequality_raises(self):
        # No equality on y: Fourier-Motzkin would have to eliminate a
        # variable occurring in a disequality, which leaves the family.
        ex = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Le(y - x, 0), Ne(y, x)), [y])
        with pytest.raises(ConstraintFamilyError):
            ex.eliminate_all()

    def test_eliminate_all_disequality_removed_by_equality(self):
        # An equality witness substitutes the disequality away instead.
        ex = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Le(y, 1), Ne(y, 0), Eq(x, y)), [y])
        flat = ex.eliminate_all()
        assert flat.holds_at({x: 1})
        assert not flat.holds_at({x: 0})

    def test_to_disjunctive_splits_disequality(self):
        ex = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Le(y, 2), Ne(y, 1), Eq(x, y)), [y])
        d = ex.to_disjunctive()
        assert d.holds_at({x: 0})
        assert not d.holds_at({x: 1})


class TestSemantics:
    def test_holds_at_free_point(self):
        ex = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Le(y, 1), Eq(x, y + 1)), [y])
        assert ex.holds_at({x: Fraction(3, 2)})
        assert not ex.holds_at({x: 3})

    def test_holds_at_missing_binding(self):
        ex = ExistentialConjunctiveConstraint(conj(Le(x, 1)))
        with pytest.raises(KeyError):
            ex.holds_at({})

    def test_holds_at_pins_every_free_variable_and_ignores_the_rest(self):
        # exists y. x <= y <= z and y >= 0
        ex = ExistentialConjunctiveConstraint(
            conj(Le(x, y), Le(y, z), Ge(y, 0)), [y])
        assert ex.holds_at({x: 1, z: 2, w: 99})
        assert not ex.holds_at({x: 3, z: 2})
        assert not ex.holds_at({x: -5, z: -1})
        with pytest.raises(KeyError):
            ex.holds_at({x: 1, y: 1})

    def test_disjunctive_holds_at_binds_each_disjunct_its_own(self):
        # (exists y. x = y + 1 and 0 <= y <= 1) or (z >= 5)
        either = DisjunctiveExistentialConstraint([
            ExistentialConjunctiveConstraint(
                conj(Eq(x, y + 1), Ge(y, 0), Le(y, 1)), [y]),
            ExistentialConjunctiveConstraint(conj(Ge(z, 5)))])
        assert either.holds_at({x: 2, z: 0})
        assert either.holds_at({x: 0, z: 5})
        assert not either.holds_at({x: 0, z: 4})
        with pytest.raises(KeyError):
            either.holds_at({x: 0})

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.integers(-3, 3), st.integers(-6, 6),
                              st.sampled_from([Le, Lt, Eq, Ne])),
                    min_size=1, max_size=4),
           st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_holds_at_agrees_with_quantifier_elimination(
            self, rows, at_x, at_z):
        """Pinning the free variables and solving decides the same as
        eliminating the quantified one and evaluating."""
        ex = ExistentialConjunctiveConstraint(
            conj(*[make(a * x + b * y + c * z, k)
                   for a, b, c, k, make in rows]), [y])
        point = {x: Fraction(at_x, 2), z: Fraction(at_z, 3)}
        assert ex.holds_at(point) \
            == ex.to_disjunctive().holds_at(point)

    def test_sample_point_free_only(self):
        ex = ExistentialConjunctiveConstraint(
            conj(Ge(y, 5), Eq(x, y)), [y])
        point = ex.sample_point()
        assert set(point) == {x}
        assert point[x] >= 5

    def test_entails(self):
        narrow = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Le(y, 1), Eq(x, y)), [y])     # x in [0,1]
        wide = ExistentialConjunctiveConstraint(
            conj(Ge(y, -1), Le(y, 2), Eq(x, y)), [y])    # x in [-1,2]
        assert narrow.entails(wide)
        assert not wide.entails(narrow)

    def test_entails_with_shared_names(self):
        # Quantified y on the left must not capture the free x of the
        # right side's witness.
        left = ExistentialConjunctiveConstraint(
            conj(Ge(x, 0), Le(x, 1)))
        right = ExistentialConjunctiveConstraint(
            conj(Eq(x, y), Ge(y, -1), Le(y, 5)), [y])
        assert left.entails(right)


class TestSimplify:
    def test_equality_witness_eliminated(self):
        ex = ExistentialConjunctiveConstraint(
            conj(Eq(y, x + 1), Le(y, 3), Ge(y, 0)), [y])
        simplified = ex.simplify()
        assert simplified.is_quantifier_free()

    def test_growth_causing_witness_kept(self):
        # y bounded below by three atoms and above by three atoms: FM
        # would produce 9 atoms from 6, so y stays symbolic.
        atoms = [
            Ge(y - x, 0), Ge(y - z, 0), Ge(y - w, 0),
            Le(y + x, 10), Le(y + z, 10), Le(y + w, 10),
        ]
        ex = ExistentialConjunctiveConstraint(conj(*atoms), [y])
        simplified = ex.simplify()
        assert y in simplified.quantified

    def test_disequality_witness_kept(self):
        ex = ExistentialConjunctiveConstraint(
            conj(Ne(y, 0), Le(y - x, 0)), [y])
        assert y in ex.simplify().quantified


class TestIdentityAlpha:
    def test_alpha_equivalent_prefixes(self):
        a = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Eq(x, y)), [y])
        b = ExistentialConjunctiveConstraint(
            conj(Ge(z, 0), Eq(x, z)), [z])
        assert a == b
        assert hash(a) == hash(b)

    def test_different_bodies_differ(self):
        a = ExistentialConjunctiveConstraint(conj(Ge(y, 0), Eq(x, y)), [y])
        b = ExistentialConjunctiveConstraint(conj(Ge(y, 1), Eq(x, y)), [y])
        assert a != b

    def test_placeholder_names_avoid_free_variables(self):
        """A free variable named like a placeholder is not confused with
        the quantified variable renamed to it: these two differ at
        ``x = 0, __q0__ = 1``."""
        q = Variable("__q0__")
        a = ExistentialConjunctiveConstraint(
            conj(Eq(x, 0), Eq(y, 0), Eq(q, 1)), [y])
        b = ExistentialConjunctiveConstraint(
            conj(Eq(x, 0), Eq(y, 1), Eq(q, 0)), [y])
        assert a.holds_at({x: 0, q: 1}) and not b.holds_at({x: 0, q: 1})
        assert a != b
        assert len(DisjunctiveExistentialConstraint([a, b])) == 2
        renamed = ExistentialConjunctiveConstraint(
            conj(Eq(x, 0), Eq(z, 0), Eq(q, 1)), [z])
        assert a == renamed and hash(a) == hash(renamed)

    def test_identity_does_not_depend_on_quantified_names(self):
        """Exchanging the names of two quantified variables keeps the
        object: one key, one disjunct, one CST object."""
        a, b = variables("a b")

        def build(first, second):
            return ExistentialConjunctiveConstraint(
                conj(Le(x, first), Ne(first, second), Le(second, 3)),
                [first, second])

        one, two = build(a, b), build(b, a)
        assert one == two and hash(one) == hash(two)
        assert len(DisjunctiveExistentialConstraint([one, two])) == 1
        assert CSTObject([x], one) == CSTObject([x], two)

    def test_tied_signatures_try_every_order(self):
        """``a``/``c`` and ``b``/``d`` tie in signature but not in
        which partner each one has: however the four are named, the key
        is the least body over the orders of the tied variables."""
        names = variables("a b c d")

        def build(a, b, c, d):
            return ExistentialConjunctiveConstraint(
                conj(Le(a - b, 0), Le(c - d, 0), Le(a + d, 1),
                     Le(c + b, 1), Le(x, a)), [a, b, c, d])

        first = build(*names)
        for order in itertools.permutations(names):
            other = build(*order)
            assert other == first and hash(other) == hash(first)
        assert build(*names) != ExistentialConjunctiveConstraint(
            conj(Le(names[0] - names[1], 0), Le(names[2] - names[3], 0),
                 Le(names[0] + names[1], 1), Le(names[2] + names[3], 1),
                 Le(x, names[0])), names)


class TestDisjunctiveExistential:
    def build(self):
        left = ExistentialConjunctiveConstraint(
            conj(Ge(y, 0), Le(y, 1), Eq(x, y)), [y])    # x in [0,1]
        right = ExistentialConjunctiveConstraint(
            conj(Ge(y, 4), Le(y, 5), Eq(x, y)), [y])    # x in [4,5]
        return DisjunctiveExistentialConstraint([left, right])

    def test_membership(self):
        dex = self.build()
        assert dex.holds_at({x: Fraction(1, 2)})
        assert dex.holds_at({x: 4})
        assert not dex.holds_at({x: 2})

    def test_disjoin(self):
        dex = self.build().disjoin(conj(Eq(x, 100)))
        assert dex.holds_at({x: 100})
        assert len(dex) == 3

    def test_conjoin_distributes(self):
        dex = self.build().conjoin(conj(Le(x, 4)))
        assert dex.holds_at({x: 4})
        assert not dex.holds_at({x: 5})

    def test_project_guard(self):
        dex = self.build()
        with pytest.raises(ConstraintFamilyError):
            dex.project([], allow_quantification=False)
        dex.project([x], allow_quantification=False)  # keeps all free

    def test_entails(self):
        small = self.build()
        big = DisjunctiveExistentialConstraint(
            [ExistentialConjunctiveConstraint.of_conjunctive(
                conj(Ge(x, -1), Le(x, 10)))])
        assert small.entails(big)
        assert not big.entails(small)

    def test_of_lifts_families(self):
        from repro.constraints.disjunctive import DisjunctiveConstraint
        d = DisjunctiveConstraint([conj(Le(x, 1))])
        dex = DisjunctiveExistentialConstraint.of(d)
        assert len(dex) == 1

    def test_sample_point(self):
        point = self.build().sample_point()
        assert point is not None

    def test_false_true(self):
        assert DisjunctiveExistentialConstraint.false() \
            .is_syntactically_false()
        assert DisjunctiveExistentialConstraint.true().is_true()

    def test_to_disjunctive(self):
        flat = self.build().to_disjunctive()
        assert flat.holds_at({x: 1})
        assert not flat.holds_at({x: 3})


class TestClosureAtTheCstObjectLevel:
    """Section 3.1's closure where a stored object is existential:
    ``CSTObject.rename`` / ``.intersect`` dispatch to the family's own
    ``rename`` / ``conjoin``, which must not let a free name capture the
    bound ``y``.  Checked on points."""

    HALF = Fraction(1, 2)

    def low(self):
        # exists y. x + y <= 3 and y >= 1, i.e. x <= 2
        return ExistentialConjunctiveConstraint(
            conj(Le(x + y, 3), Ge(y, 1)), [y])

    def high(self):
        # exists y. x - y >= 10 and y >= 0, i.e. x >= 10
        return ExistentialConjunctiveConstraint(
            conj(Ge(x - y, 10), Ge(y, 0)), [y])

    def stored(self, constraint):
        # canonicalize=False keeps the prefix symbolic, as a restricted
        # projection stores it.
        return CSTObject([x], constraint, canonicalize=False)

    def test_rename_onto_the_bound_name(self):
        renamed = self.stored(self.low()).rename([y])
        assert renamed.schema == (y,)
        assert renamed.constraint.free_variables == {y}
        assert y not in renamed.constraint.quantified
        assert [renamed.contains_point(v)
                for v in (-5, 2, 2 + self.HALF, 3)] \
            == [True, True, False, False]

    def test_disjunctive_rename_and_holds_at(self):
        either = DisjunctiveExistentialConstraint(
            [self.low(), self.high()])
        renamed = self.stored(either).rename([y])
        assert [renamed.contains_point(v)
                for v in (2, 3, 10 - self.HALF, 10)] \
            == [True, False, False, True]
        # Pinning the free x leaves the bound y free to witness.
        assert [either.holds_at({x: v})
                for v in (2, 3, 10 - self.HALF, 10)] \
            == [True, False, False, True]

    def test_intersect_with_a_conjunctive_object(self):
        other = CSTObject([x, y], conj(Ge(x, 0), Ge(y, 10)))
        met = self.stored(self.low()).intersect(other)
        assert met.schema == (x, y)
        # 0 <= x <= 2 and y >= 10: the free y is not the witness.
        assert [met.contains_point(*p)
                for p in ((0, 10), (2, 100), (3, 10), (-1, 10),
                          (1, 9))] \
            == [True, True, False, False, False]
