"""Cached and cache-disabled runs must be indistinguishable.

The ISSUE-2 property: for randomized workloads, satisfiability
decisions, canonical forms, canonical keys, and full query results are
identical with the cache+prefilter on and off — including under a
``degrade`` guard.  The prefilter is refutation-only and the cache is
keyed on structural content, so any divergence is a bug.
"""

import pytest

from repro import lyric
from repro.constraints.canonical import (
    canonical_conjunctive,
    canonical_key,
)
from repro.constraints.conjunctive import ConjunctiveConstraint
from repro.core.translator import translate
from repro.model.office import (
    add_file_cabinet,
    add_regions,
    build_office_database,
)
from repro.model.relations import flatten
from repro.runtime import ExecutionGuard, QueryContext
from repro.runtime.cache import ConstraintCache
from repro.sqlc import engine
from repro.workloads.random_constraints import (
    make_variables,
    random_dnf,
    random_infeasible,
    random_polytope,
    redundant_conjunction,
)

QUERIES = [
    "SELECT X FROM Desk X",
    "SELECT R FROM Region R",
    ("SELECT CO, ((u,v) | E and D and x = 6 and y = 4) "
     "FROM Office_Object CO "
     "WHERE CO.extent[E] and CO.translation[D]"),
]


@pytest.fixture(scope="module")
def db():
    database, _ = build_office_database()
    add_file_cabinet(database)
    add_regions(database)
    return database


def cached():
    return QueryContext(cache=ConstraintCache()).activate()


def uncached():
    return QueryContext(cache=None, prefilter=False).activate()


class TestConstraintLevelEquivalence:
    def test_satisfiability_identical(self):
        cases = [random_polytope(3, 6, seed=s) for s in range(20)]
        cases += [random_infeasible(3, 6, seed=s) for s in range(20)]
        with uncached():
            plain = [c.is_satisfiable() for c in cases]
        with cached():
            memo = [ConjunctiveConstraint(c.atoms).is_satisfiable()
                    for c in cases]
        assert plain == memo

    def test_canonical_forms_identical(self):
        cases = [redundant_conjunction(3, 5, 4, seed=s)
                 for s in range(10)]
        cases += [random_polytope(3, 6, seed=s) for s in range(4)]
        cases += [random_infeasible(3, 6, seed=s) for s in range(4)]
        with uncached():
            plain = [canonical_conjunctive(c) for c in cases]
        with cached():
            memo = [canonical_conjunctive(
                ConjunctiveConstraint(c.atoms)) for c in cases]
        assert plain == memo

    def test_canonical_keys_identical(self):
        schema = tuple(make_variables(3))
        cases = [random_dnf(3, 3, 4, seed=s, infeasible_fraction=0.4)
                 for s in range(8)]
        with uncached():
            plain = [canonical_key(c, schema) for c in cases]
        with cached():
            memo = [canonical_key(c, schema) for c in cases]
        assert plain == memo


class TestQueryLevelEquivalence:
    @pytest.mark.parametrize("query", QUERIES)
    def test_evaluator_rows_identical(self, db, query):
        with uncached():
            plain = lyric.query(db, query)
        with cached():
            memo = lyric.query(db, query)
        assert plain.rows == memo.rows
        assert len(plain) == len(memo)

    @pytest.mark.parametrize("query", QUERIES)
    def test_flat_engine_identical(self, db, query):
        translated = translate(db, query)
        catalog = flatten(db)
        with uncached():
            plain = engine.execute(translated.plan, catalog)
        with cached():
            memo = engine.execute(translated.plan, catalog)
        assert plain.columns == memo.columns
        assert len(plain) == len(memo)
        assert set(map(repr, plain)) == set(map(repr, memo))

    def test_degrade_guard_identical(self, db):
        """Under a generous degrade guard neither mode exhausts, and
        the results (and the non-exhaustion) must agree."""
        query = QUERIES[2]
        with uncached():
            g1 = ExecutionGuard(max_pivots=10 ** 9,
                                max_branches=10 ** 9,
                                on_exhaustion="degrade")
            plain = lyric.query(db, query, guard=g1)
        with cached():
            g2 = ExecutionGuard(max_pivots=10 ** 9,
                                max_branches=10 ** 9,
                                on_exhaustion="degrade")
            memo = lyric.query(db, query, guard=g2)
        assert not plain.is_partial
        assert not memo.is_partial
        assert plain.rows == memo.rows
        # The cached run must not spend more than the uncached one.
        assert g2.pivots <= g1.pivots

    def test_warm_cache_skips_simplex_entirely(self, db):
        query = QUERIES[2]
        shared = ConstraintCache()
        with QueryContext(cache=shared).activate():
            first = lyric.query(db, query)
            g = ExecutionGuard()
            second = lyric.query(db, query, guard=g)
        assert first.rows == second.rows
        assert shared.hits > 0
