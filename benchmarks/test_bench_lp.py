"""E11 — the MAX/MIN SUBJECT TO operators on the exact simplex
(rational results, fraction-free integer pivots), on growing systems.

Exactness is what canonical forms require.  The float (scipy/HiGHS)
leg of this ablation is retired; EXPERIMENTS.md keeps its table."""

import pytest

from repro.constraints import lp
from repro.constraints.terms import LinearExpression
from repro.workloads.random_constraints import (
    make_variables,
    random_polytope,
)

SIZES = [(4, 8), (6, 16), (8, 32)]  # (dimension, atoms)


def _objective(dim):
    vars_ = make_variables(dim)
    return LinearExpression({v: i + 1 for i, v in enumerate(vars_)})


@pytest.mark.parametrize("dim,atoms", SIZES)
def test_max_value(benchmark, dim, atoms):
    poly = random_polytope(dim, atoms, seed=dim)
    objective = _objective(dim)
    result = benchmark.pedantic(
        lp.max_value, args=(objective, poly),
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.attained
