"""Unit tests for variables and linear expressions."""

from fractions import Fraction

import pytest

from repro.constraints.terms import (
    LinearExpression,
    Variable,
    format_fraction,
    to_fraction,
    variables,
)
from repro.errors import NonLinearError

x, y, z = variables("x y z")


class TestToFraction:
    def test_int(self):
        assert to_fraction(3) == Fraction(3)

    def test_fraction_passthrough(self):
        f = Fraction(2, 7)
        assert to_fraction(f) is f

    def test_float_uses_decimal_string(self):
        assert to_fraction(0.1) == Fraction(1, 10)

    def test_string(self):
        assert to_fraction("3/4") == Fraction(3, 4)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(True)

    def test_other_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(object())


class TestVariable:
    def test_name(self):
        assert x.name == "x"

    def test_equality_is_name_identity(self):
        assert Variable("x") == x
        assert not (Variable("x") == y)

    def test_hashable(self):
        assert len({Variable("x"), Variable("x"), y}) == 2

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_variables_helper_commas_and_spaces(self):
        a, b, c = variables("a, b c")
        assert (a.name, b.name, c.name) == ("a", "b", "c")

    def test_str(self):
        assert str(x) == "x"

    def test_comparison_with_constant_builds_atom(self):
        atom = x <= 5
        assert "x" in str(atom)


class TestArithmetic:
    def test_add_variables(self):
        expr = x + y
        assert expr.coefficient(x) == 1
        assert expr.coefficient(y) == 1

    def test_scalar_multiplication(self):
        expr = 3 * x
        assert expr.coefficient(x) == 3

    def test_right_subtraction(self):
        expr = 5 - x
        assert expr.coefficient(x) == -1
        assert expr.constant_term == 5

    def test_division(self):
        expr = (2 * x) / 4
        assert expr.coefficient(x) == Fraction(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            (x + 1) / 0

    def test_negation(self):
        expr = -(x + 2)
        assert expr.coefficient(x) == -1
        assert expr.constant_term == -2

    def test_zero_coefficients_dropped(self):
        expr = x - x + 3
        assert expr.is_constant()
        assert expr.constant_term == 3

    def test_nonlinear_product_rejected(self):
        with pytest.raises(NonLinearError):
            (x + 1) * (y + 1)

    def test_product_with_constant_expression(self):
        expr = (x + 1) * LinearExpression.constant(2)
        assert expr.coefficient(x) == 2
        assert expr.constant_term == 2


class TestEvaluation:
    def test_evaluate(self):
        expr = 2 * x + 3 * y - 1
        assert expr.evaluate({x: 1, y: 2}) == 7

    def test_evaluate_missing_binding(self):
        with pytest.raises(KeyError):
            (x + y).evaluate({x: 1})

    def test_substitute_expression(self):
        expr = 2 * x + y
        result = expr.substitute({x: y + 1})
        assert result.coefficient(y) == 3
        assert result.constant_term == 2

    def test_substitute_constant(self):
        expr = 2 * x + y
        result = expr.substitute({x: 5})
        assert result.coefficient(y) == 1
        assert result.constant_term == 10

    def test_rename(self):
        expr = 2 * x + y
        renamed = expr.rename({x: z})
        assert renamed.coefficient(z) == 2
        assert renamed.coefficient(x) == 0

    def test_rename_merges_coefficients(self):
        expr = 2 * x + 3 * y
        merged = expr.rename({x: y})
        assert merged.coefficient(y) == 5


class TestDisplay:
    def test_format_fraction_integral(self):
        assert format_fraction(Fraction(3)) == "3"

    def test_format_fraction_proper(self):
        assert format_fraction(Fraction(1, 2)) == "1/2"

    def test_str_is_deterministic(self):
        expr = y + 2 * x - 3
        assert str(expr) == "2*x + y - 3"

    def test_str_of_constant_zero(self):
        assert str(LinearExpression.constant(0)) == "0"


class TestStructuralIdentity:
    def test_hash_consistency(self):
        assert hash(x + y) == hash(y + x)

    def test_equality_operator_on_identical_is_true(self):
        assert (x + y) == (y + x)
