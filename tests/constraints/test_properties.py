"""Property-based tests (hypothesis) for the constraint engine.

These pin down the semantic invariants everything else relies on:
normalization preserves satisfaction, sampled points are members,
projection is sound and complete on rational witnesses, canonical forms
preserve meaning, entailment is a preorder compatible with conjunction.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.constraints.atoms import LinearConstraint, Relop
from repro.constraints.canonical import canonical_conjunctive, canonicalize
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.implication import (
    conjunctive_entails_conjunctive,
    negated_atom_branches,
)
from repro.constraints.projection import eliminate_variable
from repro.constraints.satisfiability import sample_point
from repro.constraints.terms import LinearExpression, Variable

VARS = [Variable(name) for name in ("x", "y", "z")]

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50),
    max_denominator=8)

small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def expressions(draw):
    coeffs = {var: Fraction(draw(small_ints)) for var in VARS
              if draw(st.booleans())}
    constant = Fraction(draw(small_ints))
    return LinearExpression(coeffs, constant)


@st.composite
def atoms(draw, relops=(Relop.LE, Relop.LT, Relop.EQ, Relop.GE,
                        Relop.GT, Relop.NE)):
    expr = draw(expressions())
    relop = draw(st.sampled_from(relops))
    bound = Fraction(draw(small_ints))
    return LinearConstraint.build(expr, relop, bound)


@st.composite
def conjunctions(draw, max_atoms=5, relops=(Relop.LE, Relop.EQ)):
    n = draw(st.integers(min_value=0, max_value=max_atoms))
    return ConjunctiveConstraint([draw(atoms(relops=relops))
                                  for _ in range(n)])


@st.composite
def points(draw):
    return {var: draw(rationals) for var in VARS}


class TestExpressionLaws:
    @given(expressions(), expressions(), points())
    def test_addition_pointwise(self, a, b, p):
        assert (a + b).evaluate(p) == a.evaluate(p) + b.evaluate(p)

    @given(expressions(), small_ints, points())
    def test_scaling_pointwise(self, a, k, p):
        assert (a * k).evaluate(p) == a.evaluate(p) * k

    @given(expressions(), points())
    def test_negation_pointwise(self, a, p):
        assert (-a).evaluate(p) == -a.evaluate(p)

    @given(expressions(), expressions(), points())
    def test_substitution_pointwise(self, a, b, p):
        x = VARS[0]
        substituted = a.substitute({x: b})
        shifted = dict(p)
        shifted[x] = b.evaluate(p)
        assert substituted.evaluate(p) == a.evaluate(shifted)

    @given(expressions())
    def test_structural_hash_consistency(self, a):
        clone = LinearExpression(a.coefficients, a.constant_term)
        assert (a == clone) is True
        assert hash(a) == hash(clone)


class TestAtomLaws:
    @given(atoms(), points())
    def test_normalization_preserves_satisfaction(self, atom, p):
        # Rebuilding from the normalized parts yields the same truth.
        rebuilt = LinearConstraint.build(
            atom.expression, atom.relop, atom.bound)
        assert atom.holds_at(p) == rebuilt.holds_at(p)

    @given(atoms(), points())
    def test_negation_complements(self, atom, p):
        assert atom.holds_at(p) != atom.negate().holds_at(p)

    @given(atoms(), points())
    def test_negated_branches_cover_complement(self, atom, p):
        branches = negated_atom_branches(atom)
        assert (not atom.holds_at(p)) \
            == any(b.holds_at(p) for b in branches)

    @given(atoms(), small_ints, points())
    def test_scaling_invariance(self, atom, k, p):
        if k <= 0:
            return
        scaled = LinearConstraint.build(
            atom.expression * k, atom.relop, atom.bound * k)
        assert scaled == atom
        assert scaled.holds_at(p) == atom.holds_at(p)

    @given(atoms())
    def test_double_negation_identity(self, atom):
        assert atom.negate().negate() == atom


class TestSatisfiability:
    @given(conjunctions(relops=(Relop.LE, Relop.LT, Relop.EQ,
                                Relop.NE)))
    @settings(max_examples=40, deadline=None)
    def test_sample_point_is_member(self, conj):
        point = sample_point(conj)
        if point is not None:
            assert conj.holds_at(point)

    @given(conjunctions(), points())
    @settings(max_examples=40, deadline=None)
    def test_member_point_implies_satisfiable(self, conj, p):
        if conj.holds_at(p):
            assert conj.is_satisfiable()

    @given(conjunctions())
    @settings(max_examples=30, deadline=None)
    def test_conjunction_with_false_unsat(self, conj):
        assert not conj.conjoin(
            ConjunctiveConstraint.false()).is_satisfiable()


class TestProjection:
    @given(conjunctions(), points())
    @settings(max_examples=40, deadline=None)
    def test_soundness(self, conj, p):
        """Membership is preserved under elimination: if p satisfies
        the conjunction, its restriction satisfies the projection."""
        x = VARS[0]
        if conj.holds_at(p):
            projected = eliminate_variable(conj, x)
            assert projected.holds_at(p)

    @given(conjunctions())
    @settings(max_examples=40, deadline=None)
    def test_completeness_on_witness(self, conj):
        """Points of the projection extend to full witnesses: check via
        satisfiability of the projection exactly when the original is
        satisfiable (x is unconstrained outside conj)."""
        x = VARS[0]
        projected = eliminate_variable(conj, x)
        assert projected.is_satisfiable() == conj.is_satisfiable()


class TestCanonical:
    @given(conjunctions(), points())
    @settings(max_examples=40, deadline=None)
    def test_canonical_preserves_membership(self, conj, p):
        canonical = canonical_conjunctive(conj)
        assert conj.holds_at(p) == canonical.holds_at(p)

    @given(conjunctions())
    @settings(max_examples=40, deadline=None)
    def test_canonical_never_grows(self, conj):
        assert len(canonical_conjunctive(conj)) <= len(conj)

    @given(conjunctions())
    @settings(max_examples=30, deadline=None)
    def test_canonical_idempotent(self, conj):
        once = canonical_conjunctive(conj)
        twice = canonical_conjunctive(once)
        assert once == twice


class TestEntailment:
    @given(conjunctions())
    @settings(max_examples=30, deadline=None)
    def test_reflexive(self, conj):
        assert conjunctive_entails_conjunctive(conj, conj)

    @given(conjunctions(), conjunctions())
    @settings(max_examples=30, deadline=None)
    def test_conjunction_strengthens(self, a, b):
        assert conjunctive_entails_conjunctive(a.conjoin(b), a)
        assert conjunctive_entails_conjunctive(a.conjoin(b), b)

    @given(conjunctions(), conjunctions(), points())
    @settings(max_examples=40, deadline=None)
    def test_entailment_respects_points(self, a, b, p):
        if conjunctive_entails_conjunctive(a, b) and a.holds_at(p):
            assert b.holds_at(p)

    @given(conjunctions(), conjunctions())
    @settings(max_examples=20, deadline=None)
    def test_canonicalization_invariant(self, a, b):
        direct = conjunctive_entails_conjunctive(a, b)
        canonical = conjunctive_entails_conjunctive(
            canonical_conjunctive(a), canonical_conjunctive(b))
        assert direct == canonical


class TestDisjunctive:
    @given(st.lists(conjunctions(max_atoms=3), max_size=3), points())
    @settings(max_examples=40, deadline=None)
    def test_membership_is_any(self, parts, p):
        d = DisjunctiveConstraint(parts)
        expected = any(c.holds_at(p) for c in d.disjuncts)
        assert d.holds_at(p) == expected

    @given(st.lists(conjunctions(max_atoms=2), max_size=2), points())
    @settings(max_examples=30, deadline=None)
    def test_negation_complements(self, parts, p):
        d = DisjunctiveConstraint(parts)
        assert d.holds_at(p) != d.negate().holds_at(p)

    @given(st.lists(conjunctions(max_atoms=3), max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_canonicalize_preserves_satisfiability(self, parts):
        d = DisjunctiveConstraint(parts)
        assert canonicalize(d).is_satisfiable() == d.is_satisfiable()


class TestParserRoundtrip:
    @given(conjunctions(relops=(Relop.LE, Relop.LT, Relop.EQ,
                                Relop.NE)))
    @settings(max_examples=50, deadline=None)
    def test_str_reparses_to_equal(self, conj):
        from repro.constraints.parser import parse_constraint
        text = str(conj)
        reparsed = parse_constraint(text.lower())
        if conj.is_true():
            assert reparsed.is_true()
        elif conj.is_syntactically_false():
            assert reparsed.is_syntactically_false()
        else:
            assert reparsed == conj


# Renaming targets: the atoms' own variables (so a renaming can permute
# them — which moves the ``=``/``!=`` lead variable — or merge two),
# one name sorting before all of them and one after.
TARGETS = VARS + [Variable("a"), Variable("w")]

renamings = st.dictionaries(st.sampled_from(VARS),
                            st.sampled_from(TARGETS))


def _rebuilt(atom, mapping):
    """Renaming as it was before the structural path: through
    ``build`` and full normalisation."""
    return LinearConstraint.build(atom.expression.rename(mapping),
                                  atom.relop, atom.bound)


class TestStructuralRename:
    """The renaming that skips normalisation (injective on the atom's
    variables) and the one that does not (variables merged) both equal
    the ``build``-based renaming, down to hash and ordering key."""

    @given(atoms(), renamings)
    @settings(max_examples=300, deadline=None)
    def test_atom_rename_equals_rebuild(self, atom, mapping):
        renamed, expected = atom.rename(mapping), _rebuilt(atom, mapping)
        assert renamed == expected
        assert hash(renamed) == hash(expected)
        assert renamed.sort_key() == expected.sort_key()
        assert str(renamed) == str(expected)
        assert renamed.expression.coefficients \
            == expected.expression.coefficients
        assert renamed.expression.constant_term == 0

    @given(atoms(relops=(Relop.EQ, Relop.NE)))
    def test_equalities_keep_the_lead_coefficient_positive(self, atom):
        # x -> w pushes x behind y and z: the lead variable changes
        # whenever x had one of them beside it.
        renamed = atom.rename({VARS[0]: Variable("w")})
        if not renamed.is_trivial:
            lead = min(renamed.variables, key=lambda v: v.name)
            assert renamed.expression.coefficient(lead) > 0

    @given(conjunctions(relops=(Relop.LE, Relop.LT, Relop.EQ,
                                Relop.NE)), renamings)
    @settings(max_examples=200, deadline=None)
    def test_conjunction_rename_equals_rebuild(self, conj, mapping):
        renamed = conj.rename(mapping)
        expected = ConjunctiveConstraint(
            _rebuilt(atom, mapping) for atom in conj.atoms)
        assert renamed.atoms == expected.atoms
        assert renamed == expected
        assert hash(renamed) == hash(expected)

    def test_identity_renaming_returns_the_atom(self):
        x, y = VARS[0], VARS[1]
        atom = LinearConstraint.build(x + 2 * y, Relop.LE, 3)
        assert atom.rename({}) is atom
        assert atom.rename({x: Variable("x"), VARS[2]: y}) is atom
        # A swap keeps the variable *set* and still changes the atom.
        assert atom.rename({x: y, y: x}) \
            == LinearConstraint.build(y + 2 * x, Relop.LE, 3)
