"""E11 — the MAX/MIN SUBJECT TO operators: exact simplex (rational
results, fraction-free integer pivots) vs the scipy (HiGHS, float)
backend.

Exactness is what canonical forms require; the ablation shows what it
costs on growing systems."""

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
def test_exact_backend(benchmark, dim, atoms):
    poly = random_polytope(dim, atoms, seed=dim)
    objective = _objective(dim)
    result = benchmark.pedantic(
        lp.max_value, args=(objective, poly),
        kwargs={"backend": "exact"},
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.attained


@pytest.mark.parametrize("dim,atoms", SIZES)
def test_scipy_backend(benchmark, dim, atoms):
    pytest.importorskip("scipy")
    poly = random_polytope(dim, atoms, seed=dim)
    objective = _objective(dim)
    result = benchmark.pedantic(
        lp.max_value, args=(objective, poly),
        kwargs={"backend": "scipy"},
        rounds=3, iterations=1, warmup_rounds=1)
    assert result.attained


def test_backends_agree():
    pytest.importorskip("scipy")
    for dim, atoms in SIZES:
        poly = random_polytope(dim, atoms, seed=dim)
        objective = _objective(dim)
        exact = lp.max_value(objective, poly, backend="exact")
        approx = lp.max_value(objective, poly, backend="scipy")
        assert float(approx.value) == pytest.approx(
            float(exact.value), rel=1e-6)
