"""Identity keys read rows, and query-formula atoms use the term algebra
of the CST text parser.

The canonical key of a conjunction is the renamed conjunction itself (it
compares column names and the set of rows), an existential keys on its
renamed body conjunction, and a disjunction orders its disjuncts by
their rows' keys.  A query formula's atom is a name-to-coefficient map
turned into a named row (:func:`~repro.constraints.atoms.named_row`).
This module keeps what those replaced as oracles — keys built from
``sorted(c.atoms, key=LinearConstraint.sort_key)`` and the
:class:`LinearExpression` arithmetic of the formula instantiator — and
checks that both agree: keys equal exactly when the old keys are,
equal keys hashing equal, disjunctions printing the same, and formula
atoms giving the same rows, or the same error.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings, strategies as st

from repro.constraints.atoms import (
    LinearConstraint,
    Relop,
    expression_row,
    index_named,
    remap_rows,
)
from repro.constraints.canonical import canonical_key, canonicalize
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import LinearExpression, Variable
from repro.core import ast, formulas
from repro.errors import EvaluationError
from repro.model.oid import LiteralOid
from repro.runtime.context import QueryContext, param_value

VARS = [Variable(name) for name in ("x", "y", "z", "u")]


# -- the oracles: keys from sorted atoms -------------------------------------


def old_sorted(conj: ConjunctiveConstraint) -> tuple:
    return tuple(sorted(conj.atoms, key=LinearConstraint.sort_key))


def old_alpha(ex: ExistentialConjunctiveConstraint) -> tuple:
    """The least renamed body over every order of the quantified
    variables, so that alpha-equivalent prefixes key equal however
    their variables are named."""
    def renamed(order) -> tuple:
        mapping = {var: Variable(f"__q{i}__") for i, var in enumerate(order)}
        body = ex.body.rename(mapping) if mapping else ex.body
        return old_sorted(body), frozenset(mapping.values())
    return min(map(renamed, permutations(ex.quantified)),
               key=lambda alpha: [atom.sort_key() for atom in alpha[0]])


def old_key(renamed) -> tuple:
    """The last step of the old ``canonical._canonical_key``."""
    if isinstance(renamed, ConjunctiveConstraint):
        return ("conj", old_sorted(renamed))
    if isinstance(renamed, DisjunctiveConstraint):
        return ("dis", frozenset(map(old_sorted, renamed.disjuncts)))
    if isinstance(renamed, ExistentialConjunctiveConstraint):
        return ("ex", old_alpha(renamed))
    return ("dex", frozenset(map(old_alpha, renamed.disjuncts)))


def old_canonical_key(constraint, schema) -> tuple:
    mapping = {var: Variable(f"_{i}") for i, var in enumerate(schema)}
    return old_key(canonicalize(canonicalize(constraint).rename(mapping)))


def old_disjunct_order(dis: DisjunctiveConstraint) -> list:
    return sorted(dis.disjuncts, key=lambda d: tuple(
        atom.sort_key() for atom in old_sorted(d)))


def old_str(dis: DisjunctiveConstraint) -> str:
    if not dis.disjuncts:
        return "FALSE"
    return " or ".join(f"({d})" for d in old_disjunct_order(dis))


# -- constraints ---------------------------------------------------------------


@st.composite
def atoms(draw) -> LinearConstraint:
    """An atom over up to three variables; no variables makes it
    trivially true or false."""
    used = draw(st.lists(st.sampled_from(VARS), max_size=3, unique=True))
    expr = LinearExpression({var: draw(st.integers(-3, 3)) for var in used})
    return LinearConstraint.build(expr, draw(st.sampled_from(list(Relop))),
                                  draw(st.integers(-3, 3)))


@st.composite
def atom_lists(draw, min_size: int = 0) -> list:
    return draw(st.lists(atoms(), min_size=min_size, max_size=4))


@st.composite
def variants(draw, items: list, fresh) -> list:
    """``items`` permuted, maybe with one dropped, one repeated or a
    fresh one added — often equal as a set, often not."""
    out = list(draw(st.permutations(items)))
    edit = draw(st.sampled_from(["none", "drop", "repeat", "add"]))
    if edit == "drop" and out:
        out.pop(draw(st.integers(0, len(out) - 1)))
    elif edit == "repeat" and out:
        out.append(draw(st.sampled_from(out)))
    elif edit == "add":
        out.append(draw(fresh))
    return out


@st.composite
def conjunction_pairs(draw) -> tuple:
    first = draw(atom_lists())
    return (ConjunctiveConstraint(first),
            ConjunctiveConstraint(draw(variants(first, atoms()))))


@st.composite
def existential_pairs(draw) -> tuple:
    """Two existentials whose bodies and prefixes are drawn as variants;
    the second's quantified variables are sometimes renamed apart."""
    body = draw(atom_lists(min_size=1))
    quantified = draw(st.lists(st.sampled_from(VARS), max_size=2,
                               unique=True))
    first = ExistentialConjunctiveConstraint(
        ConjunctiveConstraint(body), quantified)
    other_body = ConjunctiveConstraint(draw(variants(body, atoms())))
    other_quantified = draw(variants(quantified, st.sampled_from(VARS)))
    second = ExistentialConjunctiveConstraint(other_body, other_quantified)
    if draw(st.booleans()):
        second = ExistentialConjunctiveConstraint(
            second.body.rename({var: Variable(f"w{var.name}")
                                for var in second.quantified}),
            [Variable(f"w{var.name}") for var in second.quantified])
    return first, second


@st.composite
def disjunction_pairs(draw) -> tuple:
    first = draw(st.lists(atom_lists(min_size=1).map(ConjunctiveConstraint),
                          max_size=3))
    second = draw(variants(first,
                           atom_lists(min_size=1).map(ConjunctiveConstraint)))
    return DisjunctiveConstraint(first), DisjunctiveConstraint(second)


schemas = st.lists(st.sampled_from(VARS), min_size=1, max_size=4,
                   unique=True)


def assert_identity_as_before(new_a, new_b, old_a, old_b) -> None:
    assert (new_a == new_b) == (old_a == old_b)
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)


class TestKeysAsBefore:
    @settings(max_examples=200, deadline=None)
    @given(conjunction_pairs())
    def test_conjunction(self, pair):
        a, b = pair
        assert_identity_as_before(a, b, old_sorted(a), old_sorted(b))

    @settings(max_examples=200, deadline=None)
    @given(existential_pairs())
    def test_existential(self, pair):
        a, b = pair
        assert_identity_as_before(a, b, old_alpha(a), old_alpha(b))
        if not any(ex.is_true() or ex.is_syntactically_false()
                   for ex in pair):
            dex = DisjunctiveExistentialConstraint(pair)
            assert len(dex) == (1 if old_alpha(a) == old_alpha(b) else 2)

    @settings(max_examples=150, deadline=None)
    @given(disjunction_pairs())
    def test_disjunction(self, pair):
        a, b = pair
        assert_identity_as_before(a, b, old_disjunct_order(a),
                                  old_disjunct_order(b))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(conjunction_pairs(), existential_pairs(),
                     disjunction_pairs()), schemas)
    def test_canonical_key(self, pair, schema):
        with QueryContext(cache=None).activate():
            new = [canonical_key(c, schema) for c in pair]
            old = [old_canonical_key(c, schema) for c in pair]
        assert new[0][0] == old[0][0] and new[1][0] == old[1][0]
        assert_identity_as_before(*new, *old)


class TestDisjunctionsPrintAsBefore:
    @settings(max_examples=200, deadline=None)
    @given(disjunction_pairs())
    def test_str(self, pair):
        for dis in pair:
            assert str(dis) == old_str(dis)
            assert list(dis.sorted_disjuncts()) == old_disjunct_order(dis)


# -- formula atoms: the old LinearExpression instantiation as the oracle -------


def old_arith(node: ast.Arith, env) -> LinearExpression:
    if isinstance(node, ast.ANum):
        return LinearExpression.constant(node.value)
    if isinstance(node, ast.AName):
        bound = env.get(node.name)
        if bound is None:
            return Variable(node.name).as_expression()
        if isinstance(bound, LiteralOid) \
                and isinstance(bound.value, Fraction):
            return LinearExpression.constant(bound.value)
        raise EvaluationError(
            f"variable {node.name!r} is bound to {bound}, which is not "
            "a numeric constant usable in a pseudo-linear formula")
    if isinstance(node, ast.AParam):
        bound = param_value(node.name)
        if isinstance(bound, LiteralOid) \
                and isinstance(bound.value, Fraction):
            return LinearExpression.constant(bound.value)
        raise EvaluationError(
            f"parameter ${node.name} is bound to {bound}, which is not "
            "a numeric constant usable in a pseudo-linear formula")
    if isinstance(node, ast.ABinary):
        left = old_arith(node.left, env)
        right = old_arith(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if not right.is_constant():
            raise EvaluationError("division by a non-constant is not linear")
        try:
            return left / right.constant_term
        except ZeroDivisionError as exc:
            raise EvaluationError(
                "division by zero in a pseudo-linear formula") from exc
    assert isinstance(node, ast.ANeg)
    return -old_arith(node.operand, env)


ENV = {"k": LiteralOid(Fraction(3, 2)), "s": LiteralOid("text")}
PARAMS = {"p": LiteralOid(Fraction(-2)), "q": LiteralOid("word")}
#: The template columns of the names an atom can leave to the constraint.
SLOT = {"x": 0, "y": 1, "z": 2}
SLOT_VARS = tuple(Variable(name) for name in SLOT)

numbers = st.fractions(min_value=-3, max_value=3, max_denominator=3)
leaves = st.one_of(
    st.builds(ast.ANum, numbers),
    st.builds(ast.AName, st.sampled_from(["x", "y", "z", "k", "s"])),
    st.builds(ast.AParam, st.sampled_from(["p", "q", "unbound"])),
)
ariths = st.recursive(leaves, lambda inner: st.one_of(
    st.builds(ast.ABinary, st.sampled_from("+-*/"), inner, inner),
    st.builds(ast.ANeg, inner),
), max_leaves=6)
formula_atoms = st.builds(
    ast.FAtom, ariths, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    ariths)


def outcome(compute):
    """What ``compute()`` gives, or the error's type, message and cause
    type."""
    try:
        return ("ok", compute())
    except Exception as exc:
        return ("error", type(exc), str(exc), type(exc.__cause__))


def described(named: tuple) -> tuple:
    """A named row with its value types, its conjunction's columns and
    rows, and its rows assembled over the template columns."""
    variables, coeffs, relop, bound = named
    conj = ConjunctiveConstraint.from_rows(*index_named([named]))
    slotted = formulas._template_rows(*index_named([named]), SLOT)
    return (named, tuple(map(type, coeffs)), type(bound),
            conj.columns, conj.rows,
            None if slotted is None
            else ConjunctiveConstraint.from_rows(SLOT_VARS, slotted).rows)


def old_described(node: ast.FAtom) -> tuple:
    row = expression_row(old_arith(node.left, ENV),
                         Relop(node.relop),
                         old_arith(node.right, ENV))
    conj = ConjunctiveConstraint.of(LinearConstraint(*row))
    try:
        target = [SLOT[var.name] for var in conj.columns]
    except KeyError:
        slotted = None
    else:
        slotted = ConjunctiveConstraint.from_rows(
            SLOT_VARS, remap_rows(conj.rows, target)).rows
    return (row, tuple(map(type, row[1])), type(row[3]),
            conj.columns, conj.rows, slotted)


class TestFormulaAtomsAsBefore:
    @settings(max_examples=400, deadline=None)
    @given(formula_atoms)
    def test_rows_and_errors(self, node):
        with QueryContext(params=PARAMS).activate():
            new = outcome(lambda: described(
                formulas._build_atom(None, None, node, ENV)))
            old = outcome(lambda: old_described(node))
        assert new == old

    @settings(max_examples=200, deadline=None)
    @given(ariths)
    def test_objective(self, node):
        """MAX / MIN build their objective from the term: the same
        expression as before."""
        with QueryContext(params=PARAMS).activate():
            new = outcome(lambda: formulas._arith(None, None, node, ENV))
            old = outcome(lambda: old_arith(node, ENV))
        assert new[0] == old[0]
        if new[0] == "ok":
            coeffs, constant = new[1]
            expr = LinearExpression(
                {Variable(name): c for name, c in coeffs.items()}, constant)
            assert expr._same(old[1])
        else:
            assert new == old
