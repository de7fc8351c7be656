"""Isolation for CLI and evaluator tests.

The resource-guard CLI tests run queries in-process with tiny budgets
and expect them to trip; a constraint cache warmed by earlier tests
would answer from memory without spending any budget.  Likewise
``--explain --analyze`` prints the compile phases only on a plan-cache
miss, and every ``repro query`` compiles through the global plan
cache.  Start each test cold, as a fresh ``repro`` process would.
"""

from types import SimpleNamespace

import pytest

from repro import cli, lyric
from repro.runtime import cache
from repro.runtime.context import default_context
from repro.runtime.plancache import clear_global_plan_cache


@pytest.fixture(autouse=True)
def _cold_constraint_cache():
    cache.clear_global_cache()
    clear_global_plan_cache()
    default_context().stats.reset()
    yield


@pytest.fixture
def cli_built(monkeypatch):
    """What ``repro.cli.main`` built while it ran: every context
    ``_context_from`` made, every database ``_load`` returned, and the
    engine of every ``lyric.stream`` it started."""
    seen = SimpleNamespace(contexts=[], dbs=[], engines=[])
    real_context, real_load = cli._context_from, cli._load
    real_stream = lyric.stream

    def context_from(*args, **kwargs):
        seen.contexts.append(real_context(*args, **kwargs))
        return seen.contexts[-1]

    def load(args):
        seen.dbs.append(real_load(args))
        return seen.dbs[-1]

    def stream(*args, **kwargs):
        query_stream = real_stream(*args, **kwargs)
        seen.engines.append(query_stream.engine)
        return query_stream

    monkeypatch.setattr(cli, "_context_from", context_from)
    monkeypatch.setattr(cli, "_load", load)
    monkeypatch.setattr(lyric, "stream", stream)
    return seen
