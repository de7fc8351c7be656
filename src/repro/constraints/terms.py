"""Variables and linear expressions over exact rational coefficients.

This is the user arithmetic that *builds* constraint atoms: comparing
two expressions builds a :class:`repro.constraints.atoms.LinearConstraint`,
which stores its own normalized integer row (see
:mod:`repro.constraints.atoms`).  The CST text parser does not come
through here; it shares only :func:`format_terms` /
:func:`format_fraction`, which print a term.  Everything is immutable
and hashable.

Arithmetic is exact (:class:`fractions.Fraction`): canonical forms, and
therefore object identity (Section 3 of the paper: constraints are
first-class objects whose identity is their canonical form), must not
depend on floating-point rounding.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Union

from repro.errors import NonLinearError

#: Anything accepted where a rational number is required.
RationalLike = Union[int, Fraction, str, Rational]


_ZERO = Fraction(0)


def to_fraction(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact :class:`Fraction`.

    Floats are accepted but converted via their decimal string
    representation (``Fraction(str(value))``) so that ``0.1`` becomes
    ``1/10`` rather than the binary expansion of the IEEE double.  This is
    what a user typing ``0.1`` means.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational constants")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    raise TypeError(f"cannot interpret {value!r} as a rational constant")


class Variable:
    """A real-valued constraint variable, identified by its name.

    Variables support arithmetic, producing :class:`LinearExpression`, so
    constraint systems read naturally::

        x, y = Variable("x"), Variable("y")
        atom = 2 * x + 3 * y <= 5
    """

    __slots__ = ("_name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError(f"invalid variable name: {name!r}")
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    # -- conversion ---------------------------------------------------

    def as_expression(self) -> "LinearExpression":
        return LinearExpression({self: Fraction(1)}, Fraction(0))

    # -- identity -----------------------------------------------------
    #
    # ``==`` and ``!=`` between two Variables are *boolean* name identity:
    # Variables are dict/set keys throughout the engine, so their equality
    # protocol must stay a plain bool.  To build the equality *constraint*
    # between two variables use ``Eq(x, y)`` (from repro.constraints.atoms)
    # or promote one side: ``+x == y``.  Comparing a Variable against a
    # constant or expression builds a constraint atom, as the hash values
    # of Variables never coincide with those of numbers in practice.

    def __eq__(self, other: object):
        if isinstance(other, Variable):
            return self._name == other._name
        if isinstance(other, (LinearExpression, int, Fraction, float)):
            return self.as_expression() == other
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, Variable):
            return self._name != other._name
        if isinstance(other, (LinearExpression, int, Fraction, float)):
            return self.as_expression() != other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Variable", self._name))

    def __repr__(self) -> str:
        return f"Variable({self._name!r})"

    def __str__(self) -> str:
        return self._name

    def __lt__(self, other):
        return self.as_expression() < other

    def __le__(self, other):
        return self.as_expression() <= other

    def __gt__(self, other):
        return self.as_expression() > other

    def __ge__(self, other):
        return self.as_expression() >= other

    # -- arithmetic (delegate to LinearExpression) ---------------------

    def __add__(self, other):
        return self.as_expression() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.as_expression() - other

    def __rsub__(self, other):
        return (-self.as_expression()) + other

    def __mul__(self, other):
        return self.as_expression() * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.as_expression() / other

    def __neg__(self):
        return -self.as_expression()

    def __pos__(self):
        return self.as_expression()


def variables(names: str) -> tuple[Variable, ...]:
    """Create several variables at once from a space- or comma-separated
    string: ``x, y, z = variables("x y z")``."""
    parts = [p for chunk in names.split(",") for p in chunk.split()]
    return tuple(Variable(p) for p in parts)


class LinearExpression:
    """An immutable linear expression ``sum(coeff_i * var_i) + constant``.

    Zero coefficients are never stored.  Comparison operators build
    :class:`repro.constraints.atoms.LinearConstraint` atoms.
    """

    __slots__ = ("_coefficients", "_constant", "_hash")

    def __init__(self,
                 coeffs: Mapping[Variable, RationalLike] | None = None,
                 constant: RationalLike = 0):
        cleaned: dict[Variable, Fraction] = {}
        if coeffs:
            for var, coeff in coeffs.items():
                if not isinstance(var, Variable):
                    raise TypeError(f"expected Variable, got {var!r}")
                frac = to_fraction(coeff)
                if frac != 0:
                    cleaned[var] = frac
        self._coefficients = cleaned
        self._constant = to_fraction(constant)
        self._hash: int | None = None

    # -- construction helpers -----------------------------------------

    @classmethod
    def constant(cls, value: RationalLike) -> "LinearExpression":
        return cls({}, value)

    @classmethod
    def coerce(cls, value) -> "LinearExpression":
        """Coerce a variable, expression or rational constant."""
        if isinstance(value, LinearExpression):
            return value
        if isinstance(value, Variable):
            return value.as_expression()
        return cls.constant(to_fraction(value))

    # -- inspection ----------------------------------------------------

    @property
    def coefficients(self) -> Mapping[Variable, Fraction]:
        return dict(self._coefficients)

    @property
    def constant_term(self) -> Fraction:
        return self._constant

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset(self._coefficients)

    def coefficient(self, var: Variable) -> Fraction:
        return self._coefficients.get(var, Fraction(0))

    def is_constant(self) -> bool:
        return not self._coefficients

    def __iter__(self) -> Iterator[tuple[Variable, Fraction]]:
        return iter(sorted(self._coefficients.items(), key=lambda kv: kv[0].name))

    # -- evaluation & substitution --------------------------------------

    def evaluate(self, point: Mapping[Variable, RationalLike]) -> Fraction:
        """Value of the expression at ``point`` (must bind every variable)."""
        return self._constant + evaluate_terms(
            self._coefficients.items(), point)

    def substitute(self, bindings: Mapping[Variable, "LinearExpression | Variable | RationalLike"]) -> "LinearExpression":
        """Replace variables by expressions (or constants) simultaneously."""
        result = LinearExpression.constant(self._constant)
        for var, coeff in self._coefficients.items():
            if var in bindings:
                result = result + LinearExpression.coerce(bindings[var]) * coeff
            else:
                result = result + LinearExpression({var: coeff})
        return result

    def rename(self, mapping: Mapping[Variable, Variable]) -> "LinearExpression":
        """Rename variables.  Distinct variables must stay distinct."""
        coeffs: dict[Variable, Fraction] = {}
        for var, coeff in self._coefficients.items():
            target = mapping.get(var, var)
            coeffs[target] = coeffs.get(target, Fraction(0)) + coeff
        return LinearExpression(coeffs, self._constant)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "LinearExpression":
        other = LinearExpression.coerce(other)
        coeffs = dict(self._coefficients)
        for var, coeff in other._coefficients.items():
            coeffs[var] = coeffs.get(var, Fraction(0)) + coeff
        return LinearExpression(coeffs, self._constant + other._constant)

    __radd__ = __add__

    def __sub__(self, other) -> "LinearExpression":
        return self + (-LinearExpression.coerce(other))

    def __rsub__(self, other) -> "LinearExpression":
        return (-self) + other

    def __neg__(self) -> "LinearExpression":
        return LinearExpression(
            {v: -c for v, c in self._coefficients.items()}, -self._constant)

    def __pos__(self) -> "LinearExpression":
        return self

    def __mul__(self, other) -> "LinearExpression":
        if isinstance(other, (LinearExpression, Variable)):
            other_expr = LinearExpression.coerce(other)
            if other_expr.is_constant():
                other = other_expr.constant_term
            elif self.is_constant():
                return other_expr * self._constant
            else:
                raise NonLinearError(
                    "product of two non-constant expressions is not linear")
        scalar = to_fraction(other)
        return LinearExpression(
            {v: c * scalar for v, c in self._coefficients.items()},
            self._constant * scalar)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LinearExpression":
        scalar = to_fraction(other)
        if scalar == 0:
            raise ZeroDivisionError("division of expression by zero")
        return self * (Fraction(1) / scalar)

    # -- comparisons build constraint atoms ------------------------------

    def __le__(self, other):
        from repro.constraints.atoms import LinearConstraint, Relop
        return LinearConstraint.build(self, Relop.LE, other)

    def __ge__(self, other):
        from repro.constraints.atoms import LinearConstraint, Relop
        return LinearConstraint.build(self, Relop.GE, other)

    def __lt__(self, other):
        from repro.constraints.atoms import LinearConstraint, Relop
        return LinearConstraint.build(self, Relop.LT, other)

    def __gt__(self, other):
        from repro.constraints.atoms import LinearConstraint, Relop
        return LinearConstraint.build(self, Relop.GT, other)

    def __eq__(self, other):
        if isinstance(other, LinearExpression) and self._same(other):
            return True
        if isinstance(other, (LinearExpression, Variable, int, Fraction, float, str)):
            from repro.constraints.atoms import LinearConstraint, Relop
            return LinearConstraint.build(self, Relop.EQ, other)
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, LinearExpression) and self._same(other):
            return False
        if isinstance(other, (LinearExpression, Variable, int, Fraction, float, str)):
            from repro.constraints.atoms import LinearConstraint, Relop
            return LinearConstraint.build(self, Relop.NE, other)
        return NotImplemented

    # -- structural identity ---------------------------------------------

    def _same(self, other: "LinearExpression") -> bool:
        """Structural equality (used for hashing and canonical forms)."""
        return (self._constant == other._constant
                and self._coefficients == other._coefficients)

    def __hash__(self) -> int:
        if self._hash is None:
            items = tuple(sorted(((v.name, c) for v, c in self._coefficients.items())))
            self._hash = hash(("LinearExpression", items, self._constant))
        return self._hash

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"LinearExpression({self})"

    def __str__(self) -> str:
        return format_terms(
            sorted(self._coefficients.items(), key=lambda kv: kv[0].name),
            self._constant)


def format_fraction(value: Fraction) -> str:
    """Render a fraction compactly (``3`` not ``3/1``)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def evaluate_terms(terms: Iterable[tuple[Variable, RationalLike]],
                   point: Mapping[Variable, RationalLike]) -> Fraction:
    """``sum(coeff * point[var])`` over ``(var, coeff)`` pairs (``point``
    must bind every variable)."""
    total = _ZERO
    for var, coeff in terms:
        if var not in point:
            raise KeyError(f"point does not bind variable {var.name!r}")
        total += coeff * to_fraction(point[var])
    return total


def format_terms(terms: Iterable[tuple[Variable, RationalLike]],
                 constant: Fraction = _ZERO) -> str:
    """Render ``sum(coeff * var) + constant`` from ``(var, coeff)``
    pairs in the order given (``2*x - y + 3``)."""
    parts: list[str] = []
    for var, coeff in terms:
        if coeff == 1:
            term = var.name
        elif coeff == -1:
            term = f"-{var.name}"
        else:
            term = f"{format_fraction(coeff)}*{var.name}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        elif parts:
            parts.append(f"- {term[1:]}")
        else:
            parts.append(term)
    if constant != 0 or not parts:
        if parts and constant > 0:
            parts.append(f"+ {format_fraction(constant)}")
        elif parts:
            parts.append(f"- {format_fraction(-constant)}")
        else:
            parts.append(format_fraction(constant))
    return " ".join(parts)

