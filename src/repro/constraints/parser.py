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
binds tighter than arithmetic; ``x/2`` divides a variable by two).

Every stored or shipped CST text comes back through here, so the parser
builds no expression object.  The text is tokenized in one scan.  A
term is a map from variable names to coefficients plus a constant (an
integer in the text stays an ``int``; decimals and ``/`` give
fractions): :data:`~repro.constraints.atoms.Terms`, the term algebra
query formulas use too.  A comparison becomes a row through
:func:`~repro.constraints.atoms.named_row`, and an ``and`` of
comparisons is one conjunction built from all their rows at once
(:meth:`ConjunctiveConstraint.from_named`); only an ``and``
with other parts (``exists``, ``not``, a parenthesised formula,
``true`` / ``false``) is folded formula by formula.
"""

from __future__ import annotations

import re
from fractions import Fraction

from repro.errors import ConstraintSyntaxError
from repro.constraints.atoms import (
    Relop,
    Terms,
    add_terms,
    named_row,
    product_terms,
    scaled_terms,
)
from repro.constraints.canonical import seed_canonical
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.constraints.cst_object import CSTObject, _conjoin_all, _disjoin_any
from repro.constraints.disjunctive import DisjunctiveConstraint
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.terms import Variable, format_terms

#: One token after any whitespace; a character no other kind starts is
#: ``bad``.
_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<relop><=|>=|==|!=|<>|<|>|=)
  | (?P<punct>[-+*/(),.|])
  | (?P<bad>\S))
""", re.VERBOSE)

_KEYWORDS = {"and", "or", "not", "exists", "true", "false"}

_ONE = Fraction(1)
_SIGNS = {("punct", "+"): 1, ("punct", "-"): -1}
_TIMES, _DIVIDE = ("punct", "*"), ("punct", "/")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        if kind == "ident":
            lowered = value.lower()
            if lowered in _KEYWORDS:
                kind, value = "kw", lowered
        elif kind == "bad":
            raise ConstraintSyntaxError(
                f"unexpected character {value!r} at offset "
                f"{match.start(kind)}")
        append((kind, value))
    append(("eof", ""))
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
        tok_kind, tok_value = self.tokens[self.pos]
        if tok_kind != kind or (value is not None and tok_value != value):
            wanted = value or kind
            raise ConstraintSyntaxError(
                f"expected {wanted!r}, found {tok_value or tok_kind!r} "
                f"in {self.text!r}")
        return self.next()[1]

    def accept(self, kind: str, value: str | None = None) -> bool:
        tok_kind, tok_value = self.tokens[self.pos]
        if tok_kind == kind and (value is None or tok_value == value):
            self.pos += 1
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
        if all(type(part) is list for part in parts):
            return ConjunctiveConstraint.from_named(
                [row for part in parts for row in part])
        return _conjoin_all([_formula(part) for part in parts])

    def parse_unit(self):
        """A formula, or the named rows of a comparison (chain): a list,
        so that :meth:`parse_disjunct` builds one conjunction from all
        the rows of an ``and``."""
        kind, value = self.peek()
        if kind == "kw" and value == "not":
            self.next()
            inner = _formula(self.parse_unit())
            return _negate(inner)
        if kind == "kw" and value == "exists":
            self.next()
            quantified = self.parse_varlist()
            self.expect("punct", ".")
            inner = _formula(self.parse_unit())
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

    def parse_comparison(self) -> list[tuple]:
        """The rows of a comparison (chain), each over its own variables
        (what :func:`~repro.constraints.atoms.index_named` reads)."""
        left = self.parse_arith()
        if self.peek()[0] != "relop":
            coeffs, constant = left
            shown = format_terms([(Variable(name), coeffs[name])
                                  for name in sorted(coeffs)], constant)
            raise ConstraintSyntaxError(
                f"expected a comparison operator after {shown} "
                f"in {self.text!r}")
        rows = []
        while self.peek()[0] == "relop":
            relop = _RELOPS[self.next()[1]]
            right = self.parse_arith()
            rows.append(named_row(left, relop, right))
            left = right
        return rows

    # -- arithmetic ---------------------------------------------------------------------

    def parse_arith(self) -> Terms:
        negate = self.accept("punct", "-")
        coeffs, constant = self.parse_term()
        if negate:
            coeffs, constant = scaled_terms(coeffs, constant, -1)
        while True:
            sign = _SIGNS.get(self.tokens[self.pos])
            if sign is None:
                return coeffs, constant
            self.pos += 1
            other, other_constant = self.parse_term()
            add_terms(coeffs, other, sign)
            constant += sign * other_constant

    def parse_term(self) -> Terms:
        term = self.parse_factor()
        while True:
            token = self.tokens[self.pos]
            if token != _TIMES and token != _DIVIDE:
                return term
            self.pos += 1
            other, scalar = factor = self.parse_factor()
            if token == _TIMES:
                term = product_terms(term, factor)
                continue
            if other:
                raise ConstraintSyntaxError(
                    "division by a non-constant is not linear")
            try:
                term = scaled_terms(*term, _ONE / scalar)
            except ZeroDivisionError as exc:
                raise ConstraintSyntaxError(
                    f"division by zero in {self.text!r}") from exc

    def parse_factor(self) -> Terms:
        kind, value = self.peek()
        if kind == "number":
            self.next()
            number = Fraction(value) if "." in value else int(value)
            # Implicit multiplication: "2x" arrives as two tokens.
            if self.peek()[0] == "ident":
                name = self.next()[1]
                return ({name: number} if number else {}), 0
            return {}, number
        if kind == "ident":
            self.next()
            return {value: 1}, 0
        if kind == "punct" and value == "(":
            self.next()
            inner = self.parse_arith()
            self.expect("punct", ")")
            return inner
        if kind == "punct" and value == "-":
            self.next()
            return scaled_terms(*self.parse_factor(), -1)
        raise ConstraintSyntaxError(
            f"expected a number, variable or '(', found "
            f"{value or kind!r} in {self.text!r}")


def _formula(unit):
    """A unit :meth:`_Parser.parse_unit` gave, as a formula."""
    return ConjunctiveConstraint.from_named(unit) if type(unit) is list \
        else unit


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
