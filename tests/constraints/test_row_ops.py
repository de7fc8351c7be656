"""Atoms derived from atoms are integer row operations.

:mod:`repro.constraints.atoms` derives an equality substitution, a
Fourier-Motzkin combination, a negation, a disequality split, the
strict-inequality slack and a merging rename by combining stored
integer rows and normalising once.  Each must be the very atom the
rational expression arithmetic gives: this module keeps that
arithmetic — solve, substitute, rebuild through
:meth:`LinearConstraint.build` — as an oracle and compares
``sort_key()`` and the printed form.

It also pins experiment E9 (dense-system elimination, Section 3.1):
the intermediate atom counts, and for dimensions 3 and 4 every printed
intermediate system, held in ``fixtures/e9_elimination.txt``.
Regenerate that file (only when a printed form is meant to change)
with::

    PYTHONPATH=src:. python -m tests.constraints.test_row_ops
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from repro.constraints.atoms import (
    Eq,
    Le,
    LinearConstraint,
    Relop,
    combine_rows,
    eliminate_row,
    index_atoms,
    row_atoms,
)
from repro.constraints.projection import (
    eliminate_variable,
    project_conjunctive,
    prune_syntactic,
)
from repro.constraints.terms import LinearExpression, Variable
from repro.workloads.random_constraints import dense_system, make_variables

FIXTURE = Path(__file__).parent / "fixtures" / "e9_elimination.txt"

VARS = [Variable(name) for name in ("A", "x", "y", "z")]
EPS = Variable("__eps__")
RELOPS = list(Relop)

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4)
bounds = st.fractions(min_value=-20, max_value=20, max_denominator=9)


# -- the oracle: today's LinearExpression derivations ----------------------
#
# Each returns the derived relation ``expr relop 0`` before any
# normalisation.


def solve(pivot, var):
    """The equality ``pivot`` solved for ``var``."""
    coeff = pivot.coefficient(var)
    rest = pivot.expression - LinearExpression({var: coeff})
    return (LinearExpression.constant(pivot.bound) - rest) / coeff


def oracle_eliminate(atom, var, pivot):
    substituted = atom.expression.substitute({var: solve(pivot, var)})
    return substituted - atom.bound, atom.relop


def oracle_fm(lo, hi, var):
    """The FM step as ``residual(lo) relop residual(hi)``, where an atom
    ``c*var + r relop b`` bounds ``var`` by ``(b - r) / c``."""
    def residual(atom):
        coeff = atom.coefficient(var)
        return (LinearExpression.constant(atom.bound)
                - (atom.expression - LinearExpression({var: coeff}))) / coeff
    strict = lo.relop is Relop.LT or hi.relop is Relop.LT
    return residual(lo) - residual(hi), Relop.LT if strict else Relop.LE


def oracle_negate(atom):
    return atom.expression - atom.bound, atom.relop.negated


def oracle_split(atom):
    expr = atom.expression - atom.bound
    return (expr, Relop.LT), (expr, Relop.GT)


def oracle_slack(atom):
    return atom.expression + EPS - atom.bound, Relop.LE


def oracle_rename(atom, mapping):
    return atom.expression.rename(mapping) - atom.bound, atom.relop


_STORED = (Relop.EQ, Relop.LE, Relop.LT, Relop.NE)
_TRUE_KEY = LinearConstraint.build(0, Relop.EQ, 0).sort_key()
_FALSE_KEY = LinearConstraint.build(0, Relop.EQ, 1).sort_key()


def assert_derives(derived, relation):
    """``derived`` is the atom :meth:`LinearConstraint.build` makes of
    ``relation``, byte for byte, and — checked without the normaliser
    both share — the stored form of that relation: the same hyperplane
    over a coprime ``int`` row, scaled by a positive factor (any
    nonzero one for ``=`` / ``!=``, whose row leads positive)."""
    expr, relop = relation
    expected = LinearConstraint.build(expr, relop, 0)
    assert derived.sort_key() == expected.sort_key()
    assert str(derived) == str(expected)

    if relop in (Relop.GE, Relop.GT):
        expr, relop = -expr, relop.flipped
    if expr.is_constant():
        truth = relop.holds(expr.constant_term, Fraction(0))
        assert derived.sort_key() == (_TRUE_KEY if truth else _FALSE_KEY)
        return
    terms = list(expr)
    assert relop in _STORED
    assert derived.relop is relop
    assert [var for var, _ in derived.terms] == [var for var, _ in terms]
    coeffs = [coeff for _, coeff in derived.terms]
    assert all(type(coeff) is int for coeff in coeffs)
    assert gcd(*coeffs) == 1
    if relop in (Relop.EQ, Relop.NE):
        assert coeffs[0] > 0
    scale = terms[0][1] / coeffs[0]
    assert scale > 0 or relop in (Relop.EQ, Relop.NE)
    assert [coeff * scale for coeff in coeffs] == [c for _, c in terms]
    assert derived.bound * scale == -expr.constant_term


# -- strategies ------------------------------------------------------------


@st.composite
def expressions(draw, forced=None):
    """A sparse rational expression; ``forced`` maps a variable to a
    coefficient strategy it must be drawn from."""
    coeffs = {var: draw(coefficients) for var in VARS if draw(st.booleans())}
    for var, strategy in (forced or {}).items():
        coeffs[var] = draw(strategy)
    return LinearExpression(coeffs, draw(bounds))


@st.composite
def atoms(draw, relops=RELOPS, forced=None):
    return LinearConstraint.build(draw(expressions(forced)),
                                  draw(st.sampled_from(relops)),
                                  draw(bounds))


@st.composite
def related(draw, atom, relops=RELOPS, forced=None):
    """Another atom: independent, or a rational multiple of ``atom``'s
    row plus a sparse part — so combinations cancel down to trivial
    TRUE/FALSE atoms or lose some of their variables."""
    if not draw(st.booleans()):
        return draw(atoms(relops, forced))
    scale = draw(st.sampled_from([-3, -2, -1, Fraction(-1, 2), Fraction(1, 2),
                                  1, 2, 3]))
    extra = draw(expressions()) if draw(st.booleans()) else 0
    expr = atom.expression * scale + extra
    for var, strategy in (forced or {}).items():
        if expr.coefficient(var) == 0:
            expr = expr + draw(strategy) * var
    return LinearConstraint.build(expr, draw(st.sampled_from(relops)),
                                  draw(bounds))


nonzero = coefficients.filter(lambda c: c != 0)
positive = st.fractions(min_value=Fraction(1, 4), max_value=6,
                        max_denominator=4)
negative = positive.map(lambda c: -c)
renamings = st.dictionaries(st.sampled_from(VARS), st.sampled_from(VARS),
                            max_size=len(VARS))


# -- the row operations against the oracle -----------------------------------


def combine(atom, k, other, m, relop):
    """:func:`combine_rows` of two atoms' rows over their columns."""
    columns, (own, theirs) = index_atoms((atom, other))
    return row_atoms(columns, [combine_rows(k, own, m, theirs, relop)])[0]


def eliminate(atom, var, pivot):
    """:func:`eliminate_row` of ``atom``'s row through ``pivot``'s."""
    columns, (own, theirs) = index_atoms((atom, pivot))
    return row_atoms(columns, [
        eliminate_row(own, columns.index(var), theirs)])[0]


class TestAgainstExpressionArithmetic:
    @given(st.data())
    def test_eliminate(self, data):
        var = data.draw(st.sampled_from(VARS))
        pivot = data.draw(atoms([Relop.EQ], forced={var: nonzero}))
        atom = data.draw(related(pivot))
        assert_derives(eliminate(atom, var, pivot),
                       oracle_eliminate(atom, var, pivot))

    @given(st.data())
    def test_fm_combination(self, data):
        var = data.draw(st.sampled_from(VARS))
        inequalities = [Relop.LE, Relop.LT]
        lo = data.draw(atoms(inequalities, forced={var: negative}))
        hi = data.draw(related(lo, inequalities, forced={var: positive}))
        if hi.coefficient(var) < 0:
            hi = hi.negate()
        strict = lo.relop is Relop.LT or hi.relop is Relop.LT
        derived = combine(lo, hi.coefficient(var), hi, -lo.coefficient(var),
                          Relop.LT if strict else Relop.LE)
        assert var not in derived.variables
        assert_derives(derived, oracle_fm(lo, hi, var))

    @given(atoms(), st.integers(1, 5), st.integers(-5, 5), st.data())
    def test_combine(self, atom, k, m, data):
        assume(m != 0)
        other = data.draw(related(atom))
        relop = data.draw(st.sampled_from(RELOPS))
        expr = (atom.expression - atom.bound) * k \
            + (other.expression - other.bound) * m
        assert_derives(combine(atom, k, other, m, relop), (expr, relop))

    @given(atoms())
    def test_negate(self, atom):
        assert_derives(atom.negate(), oracle_negate(atom))

    @given(atoms([Relop.NE]))
    def test_split_disequality(self, atom):
        assume(not atom.is_trivial)
        below, above = atom.split_disequality()
        expected_below, expected_above = oracle_split(atom)
        assert_derives(below, expected_below)
        assert_derives(above, expected_above)

    @given(atoms())
    def test_strict_slack(self, atom):
        slack = Le(EPS, 0)
        assert_derives(combine(atom, 1, slack, 1, Relop.LE),
                       oracle_slack(atom))

    @given(atoms(), renamings)
    def test_rename(self, atom, mapping):
        assert_derives(atom.rename(mapping), oracle_rename(atom, mapping))


class TestEliminateChecks:
    def test_eliminate_keeps_an_atom_without_var(self):
        x, y = VARS[1:3]
        columns, (row, pivot) = index_atoms((Le(y, 2), Eq(x + y, 1)))
        assert eliminate_row(row, columns.index(x), pivot) is row

    def test_eliminate_through_a_negative_pivot_coefficient(self):
        x, y = VARS[1:3]
        # y = (x - 1)/2 substituted into x + y <= 3 gives 3*x <= 7.
        assert str(eliminate(Le(x + y, 3), y, Eq(x - 2 * y, 1))) \
            == "x <= 7/3"


# -- experiment E9, pinned ---------------------------------------------------


#: Atom counts after each elimination step of ``dense_system(dim, 42)``.
E9_SIZES = {3: [6, 9, 2], 4: [8, 15, 28, 1], 5: [10, 24, 70, 1150, 0]}


def elimination_steps(dim: int):
    """Each intermediate system of E9's elimination of all but the last
    variable, the input first."""
    system = dense_system(dim, seed=42)
    steps = [system]
    for var in make_variables(dim)[:-1]:
        system = prune_syntactic(eliminate_variable(system, var))
        steps.append(system)
    return steps


def render_e9() -> str:
    lines = []
    for dim in (3, 4):
        for step, system in enumerate(elimination_steps(dim)):
            lines.append(f"{dim}\tstep {step}\t{system}")
        keep = make_variables(dim)[-1:]
        full = project_conjunctive(dense_system(dim, seed=42), keep)
        lines.append(f"{dim}\tfull\t{full}")
    return "\n".join(lines) + "\n"


class TestE9:
    @pytest.mark.parametrize("dim", sorted(E9_SIZES))
    def test_intermediate_sizes(self, dim):
        assert [len(s) for s in elimination_steps(dim)] == E9_SIZES[dim]

    def test_printed_systems(self):
        assert render_e9() == FIXTURE.read_text()


if __name__ == "__main__":
    FIXTURE.write_text(render_e9())
