"""A conjunction stored as integer rows behaves as the atom tuple did.

:class:`ConjunctiveConstraint` stores sorted ``columns`` and
column-indexed ``rows``; its atoms are a view.  This module keeps the
atom-tuple conjunction it replaced — with the Fourier-Motzkin step,
syntactic pruning, eager projection and the existential simplifying
pass written over atoms — as a reference, and checks on drawn systems
(duplicates, TRUE/FALSE trivia, every relop, renamings that keep,
reorder or merge columns, ``keep`` sets and the disequality error path)
that every operation gives the same ordered atoms, the same printed
form, equal conjunctions with equal hashes, the same packed system and
a faithful pickle round trip.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import matrix
from repro.constraints.atoms import LinearConstraint, Relop, row_key
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.existential import ExistentialConjunctiveConstraint
from repro.constraints.projection import (
    eliminate_variable,
    fm_growth,
    project_conjunctive,
    prune_syntactic,
)
from repro.constraints.terms import LinearExpression, Variable
from repro.errors import ConstraintFamilyError

NAMES = ("a", "b", "x", "y")
VARS = [Variable(name) for name in NAMES]
#: Rename targets: the names above and some that sort between them.
TARGETS = [Variable(name) for name in ("a", "b", "c", "w", "x", "y", "z")]


# -- the reference: the atom-tuple conjunction ---------------------------


class Reference:
    """The atom-tuple ``ConjunctiveConstraint`` this module checks
    against: atoms cleaned and held in conjunction order."""

    def __init__(self, atoms=()):
        cleaned, seen = [], set()
        for atom in atoms:
            if atom.is_trivial:
                if not atom.trivial_truth():
                    cleaned = [FALSE_ATOM]
                    break
                continue
            if atom not in seen:
                seen.add(atom)
                cleaned.append(atom)
        self.atoms = tuple(cleaned)

    @property
    def variables(self):
        result = set()
        for atom in self.atoms:
            result.update(atom.variables)
        return frozenset(result)

    def equalities(self):
        return tuple(a for a in self.atoms if a.relop is Relop.EQ)

    def disequalities(self):
        return tuple(a for a in self.atoms if a.relop is Relop.NE)

    def is_syntactically_false(self):
        return self.atoms == (FALSE_ATOM,)

    def conjoin(self, other):
        return Reference(self.atoms + other.atoms)

    def rename(self, mapping):
        return Reference(ref_rename_atom(atom, mapping)
                         for atom in self.atoms)

    def eliminate_equalities(self, keep=frozenset()):
        atoms = list(self.atoms)
        changed = True
        while changed:
            changed = False
            for i, atom in enumerate(atoms):
                if atom.relop is not Relop.EQ:
                    continue
                candidates = [v for v in atom.variables if v not in keep]
                if not candidates:
                    continue
                var = min(candidates, key=lambda v: v.name)
                rest = atoms[:i] + atoms[i + 1:]
                atoms = [ref_eliminate(a, var, atom) for a in rest]
                changed = True
                break
        return Reference(atoms)

    def sorted_atoms(self):
        return tuple(sorted(self.atoms, key=LinearConstraint.sort_key))

    def __str__(self):
        if not self.atoms:
            return "TRUE"
        if self.is_syntactically_false():
            return "FALSE"
        return " and ".join(str(a) for a in self.sorted_atoms())


FALSE_ATOM = LinearConstraint.build(0, Relop.EQ, 1)


def ref_rename_atom(atom, mapping):
    """The renamed atom rebuilt from rational expression arithmetic."""
    expr = LinearExpression({})
    for var, coeff in atom.terms:
        expr = expr + coeff * mapping.get(var, var)
    return LinearConstraint.build(expr, atom.relop, atom.bound)


def ref_combine(atom, k, other, m, relop):
    """``k*atom + m*other relop k*bound + m*bound'`` rebuilt from
    rational expression arithmetic."""
    expr = ((atom.expression - atom.bound) * k
            + (other.expression - other.bound) * m)
    return LinearConstraint.build(expr, relop, 0)


def ref_eliminate(atom, var, pivot):
    """``atom`` with ``var`` substituted away through the equality
    ``pivot``: ``|p|*atom - sign(p)*c*pivot``; ``atom`` when ``c`` is 0."""
    c = atom.coefficient(var)
    if c == 0:
        return atom
    p = pivot.coefficient(var)
    return ref_combine(atom, abs(p), pivot, -c if p > 0 else c, atom.relop)


def ref_combine(atom, k, other, m, relop):
    """``k*atom + m*other relop k*bound + m*bound'`` rebuilt from
    rational expression arithmetic."""
    expr = ((atom.expression - atom.bound) * k
            + (other.expression - other.bound) * m)
    return LinearConstraint.build(expr, relop, 0)


def ref_eliminate(atom, var, pivot):
    """``atom`` with ``var`` substituted away through the equality
    ``pivot``: ``|p|*atom - sign(p)*c*pivot``; ``atom`` when ``c`` is 0."""
    c = atom.coefficient(var)
    if c == 0:
        return atom
    p = pivot.coefficient(var)
    return ref_combine(atom, abs(p), pivot, -c if p > 0 else c, atom.relop)


def ref_eliminate_variable(conj, var):
    for atom in conj.disequalities():
        if var in atom.variables:
            raise ConstraintFamilyError(f"{var} in {atom}")
    for pivot in conj.equalities():
        if var in pivot.variables:
            return Reference(ref_eliminate(atom, var, pivot)
                             for atom in conj.atoms if atom is not pivot)
    lower, upper, rest = [], [], []
    for atom in conj.atoms:
        coeff = atom.coefficient(var)
        if coeff > 0:
            upper.append((atom, coeff))
        elif coeff < 0:
            lower.append((atom, -coeff))
        else:
            rest.append(atom)
    derived = []
    for lo_atom, lo_coeff in lower:
        for hi_atom, hi_coeff in upper:
            strict = (lo_atom.relop is Relop.LT
                      or hi_atom.relop is Relop.LT)
            derived.append(ref_combine(
                lo_atom, hi_coeff, hi_atom, lo_coeff,
                Relop.LT if strict else Relop.LE))
    return Reference(rest + derived)


def ref_fm_growth(conj, var):
    lows = highs = 0
    for atom in conj.atoms:
        coeff = atom.coefficient(var)
        if coeff > 0:
            highs += 1
        elif coeff < 0:
            lows += 1
    return lows * highs - lows - highs


def ref_prune_syntactic(conj):
    best, others = {}, []
    for atom in conj.atoms:
        if atom.relop not in (Relop.LE, Relop.LT):
            others.append(atom)
            continue
        key = atom.terms
        current = best.get(key)
        if current is None or atom.bound < current.bound or (
                atom.bound == current.bound and atom.relop is Relop.LT):
            best[key] = atom
    return Reference(others + list(best.values()))


def ref_project_conjunctive(conj, free):
    free = frozenset(free)
    work = conj.eliminate_equalities(keep=free)
    candidates = sorted(work.variables - free, key=lambda v: v.name)
    order = sorted(candidates,
                   key=lambda v: (ref_fm_growth(work, v), v.name))
    for var in order:
        work = ref_prune_syntactic(ref_eliminate_variable(work, var))
    return work


def ref_simplify(body, quantified):
    """The existential simplifying pass over the reference."""
    quantified = set(quantified) & body.variables
    changed = True
    while changed and quantified:
        changed = False
        for var in sorted(quantified, key=lambda v: v.name):
            if var not in body.variables:
                quantified.discard(var)
                changed = True
                continue
            if any(var in a.variables for a in body.disequalities()):
                continue
            if any(var in a.variables for a in body.equalities()):
                body = ref_eliminate_variable(body, var)
                quantified.discard(var)
                changed = True
                continue
            if ref_fm_growth(body, var) <= 0:
                body = ref_prune_syntactic(ref_eliminate_variable(body, var))
                quantified.discard(var)
                changed = True
    return body, frozenset(quantified)


def ref_pack(conj):
    """The packed system of the reference, as the atom-tuple packer
    built it: columns from the sorted variables, one row per atom."""
    if conj.is_syntactically_false():
        return None
    variables = tuple(sorted(conj.variables, key=lambda v: v.name))
    index = {v: j for j, v in enumerate(variables)}
    rows, rhs, kinds, scales, exact = [], [], [], [], []
    has_eq = has_strict = has_ne = False
    for atom in conj.atoms:
        coeffs = tuple(coeff for _, coeff in atom.terms)
        exact.append((tuple(index[var] for var, _ in atom.terms), coeffs,
                      atom.relop, atom.bound))
        if atom.relop is Relop.NE:
            has_ne = True
            continue
        converted = matrix.float_row(coeffs, atom.bound)
        if converted is None:
            return None
        floats, value, scale = converted
        row = [0.0] * len(variables)
        for (var, _), f in zip(atom.terms, floats):
            row[index[var]] = f
        has_eq |= atom.relop is Relop.EQ
        has_strict |= atom.relop is Relop.LT
        kinds.append(matrix.ROW_EQ if atom.relop is Relop.EQ
                     else matrix.ROW_LE)
        rows.append(row)
        rhs.append(value)
        scales.append(scale)
    return (variables, rows, rhs, kinds, scales, has_eq, has_strict,
            has_ne, tuple(exact))


# -- drawing systems ------------------------------------------------------

RELOPS = list(Relop)


@st.composite
def atoms(draw):
    """An atom over up to three of the variables, every relop; zero
    coefficients give TRUE and FALSE trivia."""
    chosen = draw(st.lists(st.sampled_from(VARS), max_size=3, unique=True))
    expr = LinearExpression({var: Fraction(draw(st.integers(-3, 3)))
                             for var in chosen})
    bound = draw(st.fractions(min_value=-4, max_value=4,
                              max_denominator=3))
    return LinearConstraint.build(expr, draw(st.sampled_from(RELOPS)),
                                  bound)


@st.composite
def systems(draw):
    """A list of atoms in which some reappear (as the same atom, or
    scaled so that it normalizes to one already drawn)."""
    base = draw(st.lists(atoms(), max_size=6))
    if base and draw(st.booleans()):
        repeats = draw(st.lists(st.integers(0, len(base) - 1), max_size=3))
        for i in repeats:
            atom = base[i]
            scale = draw(st.sampled_from((1, 2, 3)))
            base.insert(draw(st.integers(0, len(base))),
                        LinearConstraint.build(scale * atom.expression,
                                               atom.relop,
                                               scale * atom.bound))
    return base


renamings = st.dictionaries(st.sampled_from(VARS), st.sampled_from(TARGETS),
                            max_size=4)
keep_sets = st.frozensets(st.sampled_from(VARS))


def both(atom_list):
    return ConjunctiveConstraint(atom_list), Reference(atom_list)


def assert_same(conj, ref):
    """Every observable of the row conjunction matches the reference."""
    assert isinstance(conj, ConjunctiveConstraint)
    assert conj.atoms == ref.atoms
    assert [a.sort_key() for a in conj.atoms] \
        == [a.sort_key() for a in ref.atoms]
    assert str(conj) == str(ref)
    assert [row_key(conj.columns, row) for row in conj.sorted_rows()] \
        == [atom.sort_key() for atom in ref.sorted_atoms()]
    assert conj.variables == ref.variables
    assert conj.columns == tuple(sorted(ref.variables, key=lambda v: v.name))
    assert len(conj) == len(ref.atoms)
    assert conj.is_syntactically_false() == ref.is_syntactically_false()
    # A conjunction built from the reference's atoms, in reverse, is
    # equal and hashes equal.
    again = ConjunctiveConstraint(reversed(ref.atoms))
    assert conj == again and hash(conj) == hash(again)
    packed = matrix.pack_conjunction(conj)
    expected = ref_pack(ref)
    if expected is None:
        assert packed is None
    else:
        assert (packed.variables, packed.rows, packed.rhs, packed.kinds,
                packed.scales, packed.has_equality, packed.has_strict,
                packed.has_disequality, packed.exact) == expected
    restored = pickle.loads(pickle.dumps(conj))
    assert restored == conj and hash(restored) == hash(conj)
    assert restored.atoms == conj.atoms and str(restored) == str(conj)


# -- the properties -----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(systems())
def test_construction(atom_list):
    assert_same(*both(atom_list))


@settings(max_examples=100, deadline=None)
@given(systems(), systems())
def test_conjoin(left, right):
    conj, ref = both(left)
    other, other_ref = both(right)
    assert_same(conj.conjoin(other), ref.conjoin(other_ref))
    for atom in right:
        assert_same(conj.conjoin(atom), ref.conjoin(Reference([atom])))
    # Conjoining several at once is conjoining them one after another.
    expected = ref
    for part in (other_ref, *[Reference([atom]) for atom in right], ref):
        expected = expected.conjoin(part)
    assert_same(conj.conjoin(other, *right, conj), expected)


@settings(max_examples=150, deadline=None)
@given(systems(), renamings)
def test_rename(atom_list, mapping):
    conj, ref = both(atom_list)
    assert_same(conj.rename(mapping), ref.rename(mapping))


@settings(max_examples=100, deadline=None)
@given(systems(), keep_sets)
def test_eliminate_equalities(atom_list, keep):
    conj, ref = both(atom_list)
    assert_same(conj.eliminate_equalities(keep),
                ref.eliminate_equalities(keep))


@settings(max_examples=150, deadline=None)
@given(systems(), st.sampled_from(VARS + [Variable("c")]))
def test_fourier_motzkin_step(atom_list, var):
    conj, ref = both(atom_list)
    assert fm_growth(conj, var) == ref_fm_growth(ref, var)
    try:
        expected = ref_eliminate_variable(ref, var)
    except ConstraintFamilyError:
        with pytest.raises(ConstraintFamilyError):
            eliminate_variable(conj, var)
        return
    assert_same(eliminate_variable(conj, var), expected)
    assert_same(prune_syntactic(conj), ref_prune_syntactic(ref))


@settings(max_examples=100, deadline=None)
@given(systems(), keep_sets)
def test_project_conjunctive(atom_list, free):
    conj, ref = both(atom_list)
    try:
        expected = ref_project_conjunctive(ref, free)
    except ConstraintFamilyError:
        with pytest.raises(ConstraintFamilyError):
            project_conjunctive(conj, free)
        return
    assert_same(project_conjunctive(conj, free), expected)


@settings(max_examples=100, deadline=None)
@given(systems(), keep_sets)
def test_existential_simplify(atom_list, quantified):
    conj, ref = both(atom_list)
    simplified = ExistentialConjunctiveConstraint(conj, quantified).simplify()
    body, kept = ref_simplify(ref, quantified)
    assert_same(simplified.body, body)
    assert simplified.quantified == kept


def test_disequality_blocks_elimination():
    x, y = VARS[2], VARS[3]
    conj = ConjunctiveConstraint.of(
        LinearConstraint.build(x + y, Relop.NE, 1),
        LinearConstraint.build(x, Relop.LE, 2))
    with pytest.raises(ConstraintFamilyError, match="x \\+ y != 1"):
        eliminate_variable(conj, x)


def test_printing_is_by_sort_key_not_by_row():
    """``2*x + y <= 1`` sorts before ``x + z <= 1`` as rows (columns
    ``(0, 1)`` before ``(0, 2)``) but after it as atoms (names and
    coefficients interleaved: ``("x", 1, ...)`` < ``("x", 2, ...)``)."""
    x, y, z = VARS[2], VARS[3], Variable("z")
    conj = ConjunctiveConstraint.of(
        LinearConstraint.build(2 * x + y, Relop.LE, 1),
        LinearConstraint.build(x + z, Relop.LE, 1))
    assert str(conj) == "x + z <= 1 and 2*x + y <= 1"
