"""The CST text parser builds integer rows straight from the text.

:mod:`repro.constraints.parser` tokenizes in one scan, keeps a term as
coefficients by variable name plus a constant, turns a comparison into
a row through :func:`~repro.constraints.atoms._normal_row` and builds
one conjunction from all the rows of an ``and``.  This module keeps the
derivation it replaced as an oracle — a per-token tokenizer,
:class:`LinearExpression` arithmetic, one
:func:`~repro.constraints.atoms.expression_row` /
:meth:`ConjunctiveConstraint.from_rows` per comparison, folded by
:func:`~repro.constraints.cst_object._conjoin_all` — and checks that
both give the same columns, rows (in order), printed forms, reprs and
oid keys, trusted and untrusted, and the same error type and message
on bad input.
"""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import parser
from repro.constraints.atoms import expression_row, index_named
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject, _conjoin_all
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import LinearExpression, Variable
from repro.errors import ConstraintError, ConstraintSyntaxError
from repro.runtime.context import QueryContext


# -- the oracle: the previous tokenizer and arithmetic levels ---------------

_REFERENCE_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<relop><=|>=|==|!=|<>|<|>|=)
  | (?P<punct>[-+*/(),.|])
""", re.VERBOSE)


def _reference_tokens(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            raise ConstraintSyntaxError(
                f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        kind, value = match.lastgroup, match.group()
        if kind == "ws":
            continue
        if kind == "ident" and value.lower() in parser._KEYWORDS:
            tokens.append(("kw", value.lower()))
        else:
            tokens.append((kind, value))
    tokens.append(("eof", ""))
    return tokens


class _Reference(parser._Parser):
    """The parser with its previous tokenizer, ``and`` fold, comparison
    and arithmetic levels; the unit and entry levels are shared."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _reference_tokens(text)
        self.pos = 0

    def parse_disjunct(self):
        parts = [self.parse_unit()]
        while self.accept("kw", "and"):
            parts.append(self.parse_unit())
        return _conjoin_all(parts)

    def parse_comparison(self):
        left = self.parse_arith()
        if self.peek()[0] != "relop":
            raise ConstraintSyntaxError(
                f"expected a comparison operator after {left} "
                f"in {self.text!r}")
        rows = []
        while self.peek()[0] == "relop":
            op = self.next()[1]
            right = self.parse_arith()
            rows.append(expression_row(left, parser._RELOPS[op], right))
            left = right
        return ConjunctiveConstraint.from_rows(*index_named(rows))

    def parse_arith(self):
        negate = self.accept("punct", "-")
        result = self.parse_term()
        if negate:
            result = -result
        while True:
            if self.accept("punct", "+"):
                result = result + self.parse_term()
            elif self.accept("punct", "-"):
                result = result - self.parse_term()
            else:
                return result

    def parse_term(self):
        result = self.parse_factor()
        while True:
            if self.accept("punct", "*"):
                result = result * self.parse_factor()
            elif self.accept("punct", "/"):
                divisor = self.parse_factor()
                if not divisor.is_constant():
                    raise ConstraintSyntaxError(
                        "division by a non-constant is not linear")
                try:
                    result = result / divisor.constant_term
                except ZeroDivisionError as exc:
                    raise ConstraintSyntaxError(
                        f"division by zero in {self.text!r}") from exc
            else:
                return result

    def parse_factor(self):
        kind, value = self.peek()
        if kind == "number":
            self.next()
            number = Fraction(value)
            if self.peek()[0] == "ident":
                return Variable(self.next()[1]).as_expression() * number
            return LinearExpression.constant(number)
        if kind == "ident":
            self.next()
            return Variable(value).as_expression()
        if kind == "punct" and value == "(":
            self.next()
            inner = self.parse_arith()
            self.expect("punct", ")")
            return inner
        if kind == "punct" and value == "-":
            self.next()
            return -self.parse_factor()
        raise ConstraintSyntaxError(
            f"expected a number, variable or '(', found "
            f"{value or kind!r} in {self.text!r}")


def reference_cst(text: str, trusted: bool = False) -> CSTObject:
    return _Reference(text).parse_cst(trusted)


def reference_constraint(text: str):
    return _Reference(text).parse_constraint()


# -- comparing outcomes ---------------------------------------------------------


def _systems(constraint) -> list:
    """The stored columns and rows of every conjunction in
    ``constraint``, with each existential's quantified names."""
    if isinstance(constraint, ConjunctiveConstraint):
        return [(constraint.columns, constraint.rows)]
    if isinstance(constraint, ExistentialConjunctiveConstraint):
        return [sorted(var.name for var in constraint.quantified),
                *_systems(constraint.body)]
    assert isinstance(constraint, (DisjunctiveConstraint,
                                   DisjunctiveExistentialConstraint))
    return [_systems(disjunct) for disjunct in constraint.disjuncts]


def _describe(result) -> tuple:
    if isinstance(result, CSTObject):
        return ("cst", result.schema, repr(result), str(result),
                result.oid_text(), result.oid_key,
                type(result.constraint), _systems(result.constraint))
    return (type(result), repr(result), str(result), _systems(result))


def outcome(parse, text: str, *args) -> tuple:
    """What parsing ``text`` gives, under no memo (a trusted parse seeds
    one): the description of the result, or the error's type, message
    and cause type."""
    with QueryContext(cache=None).activate():
        try:
            return _describe(parse(text, *args))
        except ConstraintError as exc:
            return ("error", type(exc), str(exc), type(exc.__cause__))


def assert_same(text: str) -> None:
    if text.startswith("(("):
        for trusted in (False, True):
            assert outcome(parser.parse_cst, text, trusted) \
                == outcome(reference_cst, text, trusted)
    else:
        assert outcome(parser.parse_constraint, text) \
            == outcome(reference_constraint, text)


# -- texts ---------------------------------------------------------------------------

NAMES = st.sampled_from(["x", "y", "z", "u"])
RELOPS = st.sampled_from(["<=", "<", ">=", ">", "=", "==", "!=", "<>"])

integers = st.integers(0, 12).map(str)
decimals = st.builds("{}.{}".format, st.integers(0, 9), st.integers(0, 99))
ratios = st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 6))
numbers = st.one_of(integers, decimals, ratios)

factors = st.one_of(
    numbers,
    NAMES,
    st.builds("{}{}".format, st.one_of(integers, decimals), NAMES),
    st.builds("{}*{}".format, numbers, NAMES),
    st.builds("{}/{}".format, NAMES, st.integers(1, 5)),
)

ariths = st.recursive(factors, lambda inner: st.one_of(
    st.builds("-{}".format, inner),
    st.builds("({})".format, inner),
    st.builds("{} {} {}".format, inner, st.sampled_from("+-"), inner),
    st.builds("{}*({})".format, numbers, inner),
    st.builds("({})/{}".format, inner, st.integers(1, 4)),
), max_leaves=5)


@st.composite
def comparisons(draw) -> str:
    """A comparison or a chain (``0 <= x < y <= 3``); sides drawn from
    ``numbers`` alone make it trivially true or false."""
    sides = st.one_of(ariths, numbers)
    parts = [draw(sides)]
    for _ in range(draw(st.integers(1, 3))):
        parts += [draw(RELOPS), draw(sides)]
    return " ".join(parts)


@st.composite
def conjunctions(draw) -> str:
    """An ``and`` of comparisons, some of them repeated."""
    parts = draw(st.lists(comparisons(), min_size=1, max_size=4))
    parts += draw(st.lists(st.sampled_from(parts), max_size=2))
    return " and ".join(draw(st.permutations(parts)))


formulas = st.recursive(
    st.one_of(conjunctions(), st.sampled_from(["true", "false"])),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(" and ".join),
        st.lists(inner, min_size=2, max_size=2).map(" or ".join),
        st.builds("({})".format, inner),
        st.builds("exists {} . {}".format, NAMES, inner),
        st.builds("not ({})".format, inner),
    ), max_leaves=4)

heads = st.sampled_from(["((x,y) | {})", "((x) | {})", "((x,y,z,u) | {})"])


class TestSameAsTheReference:
    @settings(max_examples=200, deadline=None)
    @given(conjunctions())
    def test_conjunction_of_comparisons(self, body):
        assert_same(body)

    @settings(max_examples=150, deadline=None)
    @given(heads, conjunctions())
    def test_cst_of_comparisons(self, head, body):
        assert_same(head.format(body))

    @settings(max_examples=150, deadline=None)
    @given(formulas)
    def test_formula(self, body):
        assert_same(body)

    @settings(max_examples=100, deadline=None)
    @given(heads, formulas)
    def test_cst_formula(self, head, body):
        assert_same(head.format(body))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(conjunctions(), formulas), st.data())
    def test_damaged_text(self, body, data):
        """One character put in anywhere: mostly errors, which must be
        the same type with the same message."""
        at = data.draw(st.integers(0, len(body)))
        char = data.draw(st.sampled_from(list("$*/()-+<=.,|x 0")))
        assert_same(body[:at] + char + body[at:])

    @pytest.mark.parametrize("text", [
        "x*y <= 1",
        "(x + 1)*(y - 1) <= 1",
        "x/y <= 1",
        "x/(y - y + 2) <= 1",
        "1/0 <= x",
        "x/(2 - 2) <= 1",
        "x <= 1 $",
        "x + 1",
        "x + 1 and y <= 2",
        "3*x - x - 2x + 1/2",
        "x <=",
        "<= x",
        "((x) | x*y <= 1)",
        "((x) | x <= 1/0)",
        "((x) | x + y)",
        "((x) | x <= 1",
        "2 <= 3 x",
        "0x + 0*y <= 1",
        "x - x < 0",
        "1 <= 2 and 0 = 1",
        "x <= 1 and 1 = 1 and x <= 1",
    ])
    def test_edge_text(self, text):
        assert_same(text)
        if not text.startswith("(("):
            assert_same(f"((x,y) | {text})")


def test_a_chain_in_an_and_is_one_conjunction():
    """The rows of every comparison of an ``and`` in order, over the
    union of their columns."""
    conj = parser.parse_constraint("0 <= x < y <= 3 and y >= 1/2 and x <= 1")
    assert [var.name for var in conj.columns] == ["x", "y"]
    assert [str(atom) for atom in conj.atoms] == [
        "-x <= 0", "x - y < 0", "y <= 3", "-y <= -1/2", "x <= 1"]
