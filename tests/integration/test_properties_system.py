"""System-level property tests: LP optimality certificates, parser
robustness (fuzz), and the naive-vs-translated differential over
generated databases."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro import lyric
from repro.constraints import lp
from repro.constraints.terms import LinearExpression
from repro.errors import ReproError
from repro.workloads import office
from repro.workloads.random_constraints import (
    make_variables,
    random_polytope,
)


class TestLPCertificates:
    @given(st.integers(min_value=0, max_value=30),
           st.integers(min_value=2, max_value=4),
           st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_optimum_is_feasible_and_maximal(self, seed, dim, atoms):
        poly = random_polytope(dim, atoms, seed)
        vars_ = make_variables(dim)
        objective = LinearExpression(
            {v: i + 1 for i, v in enumerate(vars_)})
        result = lp.max_value(objective, poly)
        # The optimum point is feasible ...
        assert poly.holds_at(result.point)
        # ... attains the reported value ...
        assert objective.evaluate(result.point) == result.value
        # ... and no sampled feasible point beats it.
        sample = poly.sample_point()
        assert objective.evaluate(sample) <= result.value

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=15, deadline=None)
    def test_min_leq_max(self, seed):
        poly = random_polytope(3, 5, seed)
        vars_ = make_variables(3)
        objective = LinearExpression({vars_[0]: 1, vars_[1]: -1})
        low = lp.min_value(objective, poly)
        high = lp.max_value(objective, poly)
        assert low.value <= high.value


class TestParserFuzz:
    @given(st.text(
        alphabet=st.sampled_from(
            list("SELECTFROMWHERE XYZabc.,[]()|=<>+-*/'0123 \n")),
        max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_parser_never_crashes_unexpectedly(self, text):
        """Arbitrary input either parses or raises a library error —
        never an uncontrolled exception."""
        from repro.core.parser import parse
        try:
            parse(text)
        except ReproError:
            pass

    @given(st.text(alphabet=st.sampled_from(
        list("xyz0123456789 +-*/<>=(),.|")), max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_constraint_parser_never_crashes(self, text):
        from repro.constraints.parser import parse_constraint
        from repro.errors import ConstraintError
        try:
            parse_constraint(text)
        except ConstraintError:
            # Division by a literal zero is a ConstraintSyntaxError.
            pass


class TestDifferentialProperty:
    """The two evaluation paths agree on every translatable query over
    generated databases of random sizes/seeds."""

    QUERIES = [
        office.PLACED_EXTENT_QUERY,
        office.RED_LEFT_DRAWER_QUERY,
        "SELECT X FROM Office_Object X WHERE X.color = 'red'",
        "SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']",
    ]

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_agreement(self, n, seed, query_index):
        workload = office.generate(n, seed=seed)
        text = self.QUERIES[query_index]
        naive = lyric.query(workload.db, text)
        translated = lyric.query_translated(workload.db, text)
        assert sorted(str(r.values) for r in naive) \
            == sorted(str(r.values) for r in translated)
