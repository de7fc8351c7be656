"""Isolation for guard and fault tests.

These tests assert exact budget spends (pivot counts, branch counts)
and budget trips, which a warm process-global constraint cache would
silently satisfy from memory.  Every test in this directory starts
with a cold cache and a fresh default-context account.
"""

import pytest

from repro.runtime import cache
from repro.runtime.context import default_context


@pytest.fixture(autouse=True)
def _cold_constraint_cache():
    cache.clear_global_cache()
    default_context().stats.reset()
    yield
