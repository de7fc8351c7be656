"""Tests for the exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchy:
    def test_single_root(self):
        leaves = [
            errors.ConstraintFamilyError, errors.NonLinearError,
            errors.InfeasibleError, errors.UnboundedError,
            errors.ConstraintSyntaxError, errors.DimensionError,
            errors.SchemaError, errors.UnknownClassError,
            errors.UnknownAttributeError, errors.IntegrityError,
            errors.UnknownObjectError, errors.LyricSyntaxError,
            errors.SemanticError, errors.EvaluationError,
        ]
        for leaf in leaves:
            assert issubclass(leaf, errors.ReproError)

    def test_layer_bases(self):
        assert issubclass(errors.ConstraintFamilyError,
                          errors.ConstraintError)
        assert issubclass(errors.UnknownClassError, errors.SchemaError)
        assert issubclass(errors.LyricSyntaxError, errors.QueryError)

    def test_catch_all_from_query(self):
        """A single except clause suffices for any library failure."""
        from repro import lyric
        from repro.model.office import build_office_database
        db, _ = build_office_database()
        for bad in ("SELECT", "SELECT X FROM Ghost X",
                    "SELECT ((u) | u <= D.color) FROM Drawer D"):
            with pytest.raises(errors.ReproError):
                lyric.query(db, bad)

    def test_lyric_syntax_error_location(self):
        exc = errors.LyricSyntaxError("boom", line=3, column=7)
        assert "line 3" in str(exc)
        assert "column 7" in str(exc)
        assert exc.line == 3

    def test_lyric_syntax_error_without_location(self):
        exc = errors.LyricSyntaxError("boom")
        assert str(exc) == "boom"

    def test_resource_exhausted_subtree(self):
        for leaf in (errors.DeadlineExceeded, errors.PivotBudgetExceeded,
                     errors.BranchBudgetExceeded,
                     errors.DisjunctBudgetExceeded,
                     errors.CanonicalizationBudgetExceeded,
                     errors.QueryCancelled):
            assert issubclass(leaf, errors.ResourceExhausted)
            assert issubclass(leaf, errors.ReproError)
        assert issubclass(errors.InjectedFaultError,
                          errors.ConstraintError)


class TestAdversarialInputs:
    """Hostile inputs surface as documented ReproError subclasses —
    never as a bare RecursionError / ZeroDivisionError / KeyError."""

    def test_deeply_nested_query_is_syntax_error(self):
        from repro.core.parser import parse_query
        text = ("SELECT X FROM Desk X WHERE "
                + "not (" * 3000 + "X.color = 'red'" + ")" * 3000)
        with pytest.raises(errors.LyricSyntaxError):
            parse_query(text)

    def test_deeply_nested_constraint_is_syntax_error(self):
        from repro.constraints.parser import parse_constraint
        text = "(" * 4000 + "x <= 1" + ")" * 4000
        with pytest.raises(errors.ConstraintSyntaxError):
            parse_constraint(text)

    def test_deeply_nested_cst_is_syntax_error(self):
        from repro.constraints.parser import parse_cst
        text = "((x) | " + "(" * 4000 + "x <= 1" + ")" * 4000 + ")"
        with pytest.raises(errors.ConstraintSyntaxError):
            parse_cst(text)

    def test_division_by_zero_in_a_cst_is_syntax_error(self):
        from repro.constraints.parser import parse_cst
        with pytest.raises(errors.ConstraintSyntaxError) as info:
            parse_cst("((x) | x <= 1/0)")
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_division_by_zero_in_a_formula_is_evaluation_error(self):
        from repro import lyric
        from repro.model.office import build_office_database
        db, _ = build_office_database()
        text = ("SELECT CO, ((u,v) | E and D and x = 1/0 and y = 4) "
                "FROM Office_Object CO "
                "WHERE CO.extent[E] and CO.translation[D]")
        for run in (lyric.query, lyric.query_translated):
            with pytest.raises(errors.EvaluationError) as info:
                run(db, text)
            assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_wrong_dimension_cst_object(self):
        from repro.constraints.cst_object import CSTObject
        from repro.constraints.parser import parse_cst
        from repro.constraints.terms import variables
        x, y, z = variables("x y z")
        square = parse_cst("((x,y) | 0 <= x <= 1 and 0 <= y <= 1)")
        with pytest.raises(errors.DimensionError):
            square.contains_point(1)  # needs two coordinates
        with pytest.raises(errors.DimensionError):
            square.rename((x, y, z))  # 3 names for 2 columns
        cube = parse_cst("((x,y,z) | x = 0 and y = 0 and z = 0)")
        with pytest.raises(errors.DimensionError):
            CSTObject((x, y), cube.constraint)  # z outside the schema

    def test_unbounded_lp(self):
        from repro.constraints import lp
        from repro.constraints.atoms import Le
        from repro.constraints.terms import variables
        (x,) = variables("x")
        with pytest.raises(errors.UnboundedError):
            lp.max_value(x, Le(-x, 0))  # x >= 0, maximize x

    def test_infeasible_lp(self):
        from repro.constraints import lp
        from repro.constraints.atoms import Le
        from repro.constraints.conjunctive import ConjunctiveConstraint
        from repro.constraints.terms import variables
        (x,) = variables("x")
        system = ConjunctiveConstraint.of(Le(x, 0), Le(-x, -1))
        with pytest.raises(errors.InfeasibleError):
            lp.max_value(x, system)

    def test_epsilon_named_variable_is_decided(self):
        from repro.constraints.atoms import Lt
        from repro.constraints.conjunctive import ConjunctiveConstraint
        from repro.constraints.terms import Variable
        eps = Variable("__eps__")
        conj = ConjunctiveConstraint.of(Lt(eps, 1), Lt(-eps, -1))
        assert not conj.is_satisfiable()
        assert conj.sample_point() is None
        point = ConjunctiveConstraint.of(Lt(eps, 1)).sample_point()
        assert point[eps] < 1
