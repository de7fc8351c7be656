"""Abstract syntax of LyriC queries (Section 4.2).

The AST separates three sub-languages:

* **path expressions** — reused from :mod:`repro.model.paths`;
* **CST formulas** — constraint formulas over constraint variables,
  constraint-object references and pseudo-linear arithmetic (which may
  embed path expressions that instantiate to numeric constants);
* **queries** — SELECT/FROM/WHERE with OID FUNCTION OF, plus
  CREATE VIEW ... AS SUBCLASS OF.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from repro.model.oid import Oid
from repro.model.paths import PathExpression

# ---------------------------------------------------------------------------
# Arithmetic inside pseudo-linear formulas
# ---------------------------------------------------------------------------


class Arith:
    """Base of arithmetic terms (pseudo-linear: linear once every path
    expression and bound object variable is instantiated)."""


@dataclass(frozen=True)
class ANum(Arith):
    value: Fraction

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class AName(Arith):
    """An identifier: a constraint variable, or an object variable bound
    to a numeric literal (decided during instantiation)."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class AParam(Arith):
    """A query parameter ``$name`` in arithmetic position.  It must be
    bound to a numeric constant at execution time; compiled plans keep
    the slot symbolic so one plan serves every binding."""

    name: str

    def __str__(self):
        return f"${self.name}"


@dataclass(frozen=True)
class APath(Arith):
    """A path expression that must instantiate to a numeric constant."""

    path: PathExpression

    def __str__(self):
        return str(self.path)


@dataclass(frozen=True)
class ABinary(Arith):
    op: str  # '+', '-', '*', '/'
    left: Arith
    right: Arith

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class ANeg(Arith):
    operand: Arith

    def __str__(self):
        return f"-({self.operand})"


# ---------------------------------------------------------------------------
# CST formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base of CST formula nodes."""


@dataclass(frozen=True)
class FAtom(Formula):
    """A pseudo-linear comparison ``left relop right``."""

    left: Arith
    relop: str  # one of '=', '!=', '<', '<=', '>', '>='
    right: Arith

    def __str__(self):
        return f"{self.left} {self.relop} {self.right}"


@dataclass(frozen=True)
class FRef(Formula):
    """A constraint-object reference ``O`` or ``O(x1..xn)``.

    ``source`` is a variable name or a path expression denoting a CST
    object; ``args`` optionally renames its variable schema
    positionally (Section 4.2: "if the variables are not specified,
    they are simply copied from the schema").
    """

    source: Union[str, PathExpression]
    args: tuple[str, ...] | None = None

    def __str__(self):
        base = str(self.source)
        if self.args is not None:
            base += f"({','.join(self.args)})"
        return base


@dataclass(frozen=True)
class FAnd(Formula):
    parts: tuple[Formula, ...]

    def __str__(self):
        return " and ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class FOr(Formula):
    parts: tuple[Formula, ...]

    def __str__(self):
        return " or ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class FNot(Formula):
    part: Formula

    def __str__(self):
        return f"not ({self.part})"


@dataclass(frozen=True)
class FTrue(Formula):
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class CstFormula:
    """A formula with an optional projection head ``((x1..xn) | body)``.

    Without a head the formula is used as a predicate (satisfiability);
    with a head it denotes an n-dimensional CST object.
    """

    head: tuple[str, ...] | None
    body: Formula

    def __str__(self):
        if self.head is None:
            return str(self.body)
        return f"(({','.join(self.head)}) | {self.body})"


# ---------------------------------------------------------------------------
# SELECT clause items
# ---------------------------------------------------------------------------


class OptimizeKind(enum.Enum):
    MAX = "MAX"
    MIN = "MIN"
    MAX_POINT = "MAX_POINT"
    MIN_POINT = "MIN_POINT"


class SelectExpr:
    """Base of SELECT-clause expressions."""


@dataclass(frozen=True)
class PathOut(SelectExpr):
    """A scalar path expression (a bare variable is a trivial path)."""

    path: PathExpression

    def __str__(self):
        return str(self.path)


@dataclass(frozen=True)
class FormulaOut(SelectExpr):
    """A disjunctive existential formula creating a new CST object."""

    formula: CstFormula

    def __str__(self):
        return str(self.formula)


@dataclass(frozen=True)
class OptimizeOut(SelectExpr):
    """``MAX/MIN/MAX_POINT/MIN_POINT(f SUBJECT TO formula)``."""

    kind: OptimizeKind
    objective: Arith
    formula: CstFormula

    def __str__(self):
        return (f"{self.kind.value}({self.objective} SUBJECT TO "
                f"{self.formula})")


@dataclass(frozen=True)
class SelectItem:
    expr: SelectExpr
    name: str | None = None

    def __str__(self):
        if self.name:
            return f"{self.name} = {self.expr}"
        return str(self.expr)


# ---------------------------------------------------------------------------
# WHERE clause
# ---------------------------------------------------------------------------


class Where:
    """Base of WHERE-clause nodes."""


@dataclass(frozen=True)
class Param:
    """A query parameter ``$name`` in comparison-operand position.
    Resolved to an oid from the active context's bindings at execution
    time, never at compile time — the parameter slot is what lets a
    cached plan serve all bindings."""

    name: str

    def __str__(self):
        return f"${self.name}"


@dataclass(frozen=True)
class WPath(Where):
    """A path expression used as a boolean predicate (true iff some
    database path satisfies a ground instance)."""

    path: PathExpression

    def __str__(self):
        return str(self.path)


@dataclass(frozen=True)
class WCompare(Where):
    """Comparison of path-expression values (sets of tail objects)."""

    left: Union[PathExpression, Oid, "Param"]
    op: str  # '=', '!=', '<', '<=', '>', '>=', 'contains', 'in'
    right: Union[PathExpression, Oid, "Param"]

    def __str__(self):
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class WSat(Where):
    """The satisfiability predicate: a CST formula used as a boolean."""

    formula: CstFormula

    def __str__(self):
        # A formula that carries its variable list is the predicate
        # itself (Section 4.2); ``SAT(`` takes only a bare body.
        if self.formula.head is not None:
            return str(self.formula)
        return f"SAT({self.formula})"


@dataclass(frozen=True)
class WEntails(Where):
    """The implication predicate ``formula |= formula``."""

    left: CstFormula
    right: CstFormula

    def __str__(self):
        return f"{self.left} |= {self.right}"


@dataclass(frozen=True)
class WAnd(Where):
    parts: tuple[Where, ...]

    def __str__(self):
        return " and ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class WOr(Where):
    parts: tuple[Where, ...]

    def __str__(self):
        return " or ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class WNot(Where):
    part: Where

    def __str__(self):
        return f"not ({self.part})"


# ---------------------------------------------------------------------------
# Queries and views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FromItem:
    class_name: str
    var: str

    def __str__(self):
        return f"{self.class_name} {self.var}"


@dataclass(frozen=True)
class Query:
    select: tuple[SelectItem, ...]
    from_items: tuple[FromItem, ...]
    where: Where | None = None
    oid_function_of: tuple[str, ...] | None = None
    oid_function_name: str = "result"

    def __str__(self):
        return self.render()

    def render(self, signature: tuple[SignatureItem, ...] = ()) -> str:
        """The query as text; a view's SIGNATURE clause sits between
        SELECT and FROM, where the grammar reads it."""
        text = "SELECT " + ", ".join(str(s) for s in self.select)
        if signature:
            text += "\nSIGNATURE " + ", ".join(
                str(s) for s in signature)
        text += "\nFROM " + ", ".join(str(f) for f in self.from_items)
        if self.oid_function_of:
            text += "\nOID FUNCTION OF " + ", ".join(self.oid_function_of)
        if self.where is not None:
            text += f"\nWHERE {self.where}"
        return text


@dataclass(frozen=True)
class SignatureItem:
    """One ``attr => Class`` (scalar) or ``attr =>> Class`` (set-valued)
    declaration in a view's SIGNATURE clause."""

    name: str
    target: str
    set_valued: bool = False

    def __str__(self):
        arrow = "=>>" if self.set_valued else "=>"
        return f"{self.name} {arrow} {self.target}"


@dataclass(frozen=True)
class CreateView:
    """``CREATE VIEW name AS SUBCLASS OF super SELECT ...``.

    When ``name`` is one of the query's variables the view is
    *parameterized*: one subclass is created per binding of that
    variable (the paper's Region classification example).
    """

    name: str
    superclass: str
    query: Query
    signature: tuple[SignatureItem, ...] = ()

    def __str__(self):
        return (f"CREATE VIEW {self.name} AS SUBCLASS OF "
                f"{self.superclass}\n"
                f"{self.query.render(self.signature)}")
