"""E7 — Section 5 claim: PTIME data complexity.

A *fixed* query (one CST projection + SAT filter per placed object) is
evaluated against office databases of growing size.  The paper claims
translation to flat SQL with linear constraints gives polynomial data
complexity; the harness fits the log-log slope of this series (expect
~1 for this single-join query; see EXPERIMENTS.md).

The second series is a *join* from text: two classes of scattered 1-D
boxes, ``SAT(E(x) and F(x))`` between them, at constant density.  The
pairs to test grow with n², the pairs that can meet with n; the slope
says which of the two the translated plan pays for."""

import pytest

from repro import lyric
from repro.workloads import office
from conftest import (
    SCATTERED_JOIN_QUERY,
    office_workload,
    scattered_join_database,
)

SIZES = [4, 8, 16, 32, 64]
JOIN_SIZES = [50, 100, 200, 400]


@pytest.mark.parametrize("n", SIZES)
def test_fixed_query_scaling_naive(benchmark, n):
    workload = office_workload(n)
    result = benchmark.pedantic(
        lyric.query, args=(workload.db, office.PLACED_EXTENT_QUERY),
        rounds=3, iterations=1, warmup_rounds=1)
    assert len(result) == n


@pytest.mark.parametrize("n", SIZES)
def test_fixed_query_scaling_translated(benchmark, n):
    workload = office_workload(n)
    result = benchmark.pedantic(
        lyric.query_translated,
        args=(workload.db, office.PLACED_EXTENT_QUERY),
        rounds=3, iterations=1, warmup_rounds=1)
    assert len(result) == n


@pytest.mark.parametrize("n", [4, 8, 16])
def test_quadratic_join_scaling(benchmark, n):
    """A two-variable join (the entailment filter query) grows with the
    number of desks — still polynomial, a steeper fixed query."""
    workload = office_workload(n)
    result = benchmark.pedantic(
        lyric.query, args=(workload.db, office.RED_LEFT_DRAWER_QUERY),
        rounds=3, iterations=1, warmup_rounds=1)
    assert len(result) <= n


@pytest.mark.parametrize("n", JOIN_SIZES)
def test_scattered_join_scaling_translated(benchmark, n):
    """The two-class SAT join from LyriC text, n boxes a side.  The
    database — and so its flat catalog and the box indexes on it — is
    the same object every round, as on a server."""
    db = scattered_join_database(n)
    result = benchmark.pedantic(
        lyric.query_translated, args=(db, SCATTERED_JOIN_QUERY),
        rounds=3, iterations=1, warmup_rounds=1)
    assert len(result) == len(lyric.query_translated(
        db, SCATTERED_JOIN_QUERY, use_optimizer=False)) if n <= 100 \
        else len(result) > 0
