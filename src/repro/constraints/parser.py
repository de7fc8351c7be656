"""Textual syntax for constraints and CST objects.

The concrete syntax follows the paper's projection notation::

    ((x,y) | -4 <= x <= 4 and -2 <= y <= 2)
    ((u,v) | exists w,z . u = 6 + w and v = 4 + z and -4 <= w <= 4)
    ((x)   | x < 0 or x > 1)

Grammar (informal)::

    cst        := '(' '(' varlist ')' '|' body ')'
    body       := disjunct ('or' disjunct)*
    disjunct   := unit ('and' unit)*
    unit       := 'not' unit
                | 'exists' varlist '.' unit
                | '(' body ')'
                | comparison
    comparison := arith (relop arith)+           -- chains allowed
    relop      := '<=' | '<' | '>=' | '>' | '=' | '==' | '!=' | '<>'
    arith      := ['-'] term (('+'|'-') term)*
    term       := factor ('*' factor)*
    factor     := NUMBER | IDENT | '(' arith ')'

Numbers may be integers, decimals, or rationals like ``3/4`` (the ``/``
binds tighter than arithmetic; ``x/2`` divides a variable by two).  A
comparison (chain) parses straight to a conjunction's integer rows
(:func:`~repro.constraints.atoms.expression_row`); no atom is built.
"""

from __future__ import annotations

import re
from fractions import Fraction

from repro.errors import ConstraintSyntaxError
from repro.constraints.atoms import Relop, expression_row, index_named
from repro.constraints.canonical import seed_canonical
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject, _conjoin_all, _disjoin_any
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import LinearExpression, Variable

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<relop><=|>=|==|!=|<>|<|>|=)
  | (?P<punct>[-+*/(),.|])
""", re.VERBOSE)

_KEYWORDS = {"and", "or", "not", "exists", "true", "false"}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ConstraintSyntaxError(
                f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        kind = match.lastgroup
        value = match.group()
        if kind == "ws":
            continue
        if kind == "ident" and value.lower() in _KEYWORDS:
            tokens.append(("kw", value.lower()))
        else:
            tokens.append((kind, value))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, value: str | None = None) -> str:
        tok_kind, tok_value = self.peek()
        if tok_kind != kind or (value is not None and tok_value != value):
            wanted = value or kind
            raise ConstraintSyntaxError(
                f"expected {wanted!r}, found {tok_value or tok_kind!r} "
                f"in {self.text!r}")
        return self.next()[1]

    def accept(self, kind: str, value: str | None = None) -> bool:
        tok_kind, tok_value = self.peek()
        if tok_kind == kind and (value is None or tok_value == value):
            self.next()
            return True
        return False

    # -- entry points --------------------------------------------------------

    def parse_cst(self, trusted: bool = False) -> CSTObject:
        self.expect("punct", "(")
        self.expect("punct", "(")
        schema = self.parse_varlist()
        self.expect("punct", ")")
        self.expect("punct", "|")
        body = self.parse_body()
        self.expect("punct", ")")
        self.expect("eof")
        return _projected(schema, body, trusted)

    def parse_constraint(self):
        body = self.parse_body()
        self.expect("eof")
        return body

    def parse_varlist(self) -> list[Variable]:
        names = [self.expect("ident")]
        while self.accept("punct", ","):
            names.append(self.expect("ident"))
        return [Variable(n) for n in names]

    # -- formula levels ------------------------------------------------------------

    def parse_body(self):
        result = self.parse_disjunct()
        while self.accept("kw", "or"):
            result = _disjoin_any(result, self.parse_disjunct())
        return result

    def parse_disjunct(self):
        parts = [self.parse_unit()]
        while self.accept("kw", "and"):
            parts.append(self.parse_unit())
        return _conjoin_all(parts)

    def parse_unit(self):
        kind, value = self.peek()
        if kind == "kw" and value == "not":
            self.next()
            inner = self.parse_unit()
            return _negate(inner)
        if kind == "kw" and value == "exists":
            self.next()
            quantified = self.parse_varlist()
            self.expect("punct", ".")
            inner = self.parse_unit()
            return _quantify(inner, quantified)
        if kind == "kw" and value == "true":
            self.next()
            return ConjunctiveConstraint.true()
        if kind == "kw" and value == "false":
            self.next()
            return ConjunctiveConstraint.false()
        if kind == "punct" and value == "(":
            # Could be a parenthesized formula or a parenthesized
            # arithmetic subexpression starting a comparison; try the
            # formula first, backtrack on failure.
            saved = self.pos
            try:
                self.next()
                inner = self.parse_body()
                self.expect("punct", ")")
                # If a relop follows, this was arithmetic after all.
                if self.peek()[0] == "relop":
                    raise ConstraintSyntaxError("arithmetic context")
                return inner
            except ConstraintSyntaxError:
                self.pos = saved
        return self.parse_comparison()

    def parse_comparison(self):
        left = self.parse_arith()
        kind, value = self.peek()
        if kind != "relop":
            raise ConstraintSyntaxError(
                f"expected a comparison operator after {left} "
                f"in {self.text!r}")
        rows = []
        while self.peek()[0] == "relop":
            op = self.next()[1]
            right = self.parse_arith()
            rows.append(expression_row(left, _RELOPS[op], right))
            left = right
        return ConjunctiveConstraint.from_rows(*index_named(rows))

    # -- arithmetic ---------------------------------------------------------------------

    def parse_arith(self) -> LinearExpression:
        negate = False
        if self.accept("punct", "-"):
            negate = True
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

    def parse_term(self) -> LinearExpression:
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

    def parse_factor(self) -> LinearExpression:
        kind, value = self.peek()
        if kind == "number":
            self.next()
            number = Fraction(value)
            # Implicit multiplication: "2x" arrives as two tokens.
            if self.peek()[0] == "ident":
                var = Variable(self.next()[1])
                return var.as_expression() * number
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


_RELOPS = {
    "<=": Relop.LE, "<": Relop.LT, ">=": Relop.GE, ">": Relop.GT,
    "=": Relop.EQ, "==": Relop.EQ, "!=": Relop.NE, "<>": Relop.NE,
}


def _negate(constraint):
    if isinstance(constraint, ConjunctiveConstraint):
        return DisjunctiveConstraint.negation_of_conjunctive(constraint)
    if isinstance(constraint, DisjunctiveConstraint):
        return constraint.negate()
    raise ConstraintSyntaxError(
        "negation is only defined on conjunctive and disjunctive "
        "formulas (Section 3.1)")


def _quantify(constraint, quantified: list[Variable]):
    if isinstance(constraint, ConjunctiveConstraint):
        return ExistentialConjunctiveConstraint(constraint, quantified)
    if isinstance(constraint, ExistentialConjunctiveConstraint):
        return ExistentialConjunctiveConstraint(
            constraint.body, constraint.quantified | set(quantified))
    if isinstance(constraint, (DisjunctiveConstraint,
                               DisjunctiveExistentialConstraint)):
        dex = DisjunctiveExistentialConstraint.of(constraint)
        keep = dex.free_variables - set(quantified)
        return dex.project(keep)
    raise ConstraintSyntaxError(f"cannot quantify {constraint!r}")


def _projected(schema: list[Variable], body,
               trusted: bool = False) -> CSTObject:
    free = set(_free_vars(body))
    hidden = free - set(schema)
    if hidden:
        if isinstance(body, ConjunctiveConstraint):
            body = ExistentialConjunctiveConstraint(body, hidden)
        elif isinstance(body, ExistentialConjunctiveConstraint):
            body = ExistentialConjunctiveConstraint(
                body.body, body.quantified | hidden)
        else:
            body = DisjunctiveExistentialConstraint.of(body).project(
                set(schema) & free)
    cst = CSTObject(schema, body, canonical=trusted)
    if trusted and cst.is_canonical:
        seed_canonical(body)
    return cst


def _free_vars(body):
    return body.variables


def parse_cst(text: str, trusted: bool = False) -> CSTObject:
    """Parse a CST object in projection notation
    ``((x,y) | x + y <= 1 and ...)``.  ``trusted`` says the text is an
    :meth:`CSTObject.oid_text` nothing could have altered
    (:mod:`repro.model.serialize` says where): the object is built from
    it as is and, when quantifier-free, seeds the memo as its own
    canonical form."""
    try:
        return _Parser(text).parse_cst(trusted)
    except RecursionError:
        raise ConstraintSyntaxError(
            "constraint too deeply nested to parse") from None


def parse_constraint(text: str):
    """Parse a bare constraint formula (no projection head); returns a
    member of the most specific applicable family."""
    try:
        return _Parser(text).parse_constraint()
    except RecursionError:
        raise ConstraintSyntaxError(
            "constraint too deeply nested to parse") from None
