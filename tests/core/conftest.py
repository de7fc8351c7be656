"""Isolation for CLI and evaluator tests.

The resource-guard CLI tests run queries in-process with tiny budgets
and expect them to trip; a constraint cache warmed by earlier tests
would answer from memory without spending any budget.  Start each test
cold.
"""

import pytest

from repro.runtime import cache
from repro.runtime.context import default_context


@pytest.fixture(autouse=True)
def _cold_constraint_cache():
    cache.clear_global_cache()
    default_context().stats.reset()
    yield
