"""Isolation property: two QueryContexts never bleed state.

The tentpole guarantee of the context refactor — two engines with
different caches, budgets, and options can run interleaved in one
process while keeping fully separate accounts: stats, cache contents,
and guard spend.  These tests interleave constraint-heavy executions
across two contexts and assert nothing crosses over.
"""

import re
import sys
import threading

import pytest

from bench import text as bench_text
from repro import lyric
from repro.model.office import build_office_database
from repro.runtime import context as context_mod
from repro.runtime.cache import ConstraintCache
from repro.runtime.context import QueryContext
from repro.runtime.guard import ExecutionGuard

#: Spends pivots/branches: each row runs exact satisfiability checks.
QUERY = """
    SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
    FROM Office_Object CO
    WHERE CO.extent[E] and CO.translation[D]
"""


@pytest.fixture
def office():
    db, _ = build_office_database()
    return db


def _context(cache_size, **guard_limits):
    return QueryContext(
        guard=ExecutionGuard(**guard_limits) if guard_limits else None,
        cache=ConstraintCache(maxsize=cache_size))


class TestInterleavedIsolation:
    def test_stats_accounts_stay_separate(self, office):
        ctx_a = _context(cache_size=4, max_pivots=100_000)
        ctx_b = _context(cache_size=512, max_pivots=100_000)

        # Interleave: A, B, A, B — counters for A must only move
        # during A's executions.
        lyric.query_translated(office, QUERY, ctx=ctx_a)
        a_after_first = ctx_a.stats.snapshot()

        lyric.query_translated(office, QUERY, ctx=ctx_b)
        assert ctx_a.stats.snapshot() == a_after_first, \
            "B's execution mutated A's stats account"
        assert ctx_b.stats.pivots > 0

        # A's account moves again when A runs.  Not its pivots: the
        # result's canonical form is the last entry A's four-entry
        # cache took, and since ISSUE 23 no second key pass evicts it.
        lyric.query_translated(office, QUERY, ctx=ctx_a)
        assert ctx_a.stats.cache_hits > a_after_first["cache_hits"]

    def test_caches_stay_separate(self, office):
        ctx_a = _context(cache_size=4)
        ctx_b = _context(cache_size=512)

        lyric.query_translated(office, QUERY, ctx=ctx_a)
        b_entries_before = len(ctx_b.cache)
        a_entries_after_a = len(ctx_a.cache)
        assert a_entries_after_a > 0
        assert b_entries_before == 0, \
            "A's execution populated B's cache"

        lyric.query_translated(office, QUERY, ctx=ctx_b)
        assert len(ctx_b.cache) > 0
        assert len(ctx_a.cache) == a_entries_after_a, \
            "B's execution populated A's cache"
        # The tiny cache actually evicted; the big one never had to.
        assert len(ctx_a.cache) <= 4
        assert ctx_b.cache.evictions == 0

    def test_guard_spend_stays_separate(self, office):
        ctx_a = _context(cache_size=64, max_pivots=100_000)
        ctx_b = _context(cache_size=64, max_pivots=100_000)

        lyric.query_translated(office, QUERY, ctx=ctx_a)
        spent_a = ctx_a.guard.pivots
        assert spent_a > 0
        assert ctx_b.guard.pivots == 0

        lyric.query_translated(office, QUERY, ctx=ctx_b)
        assert ctx_a.guard.pivots == spent_a

    def test_exhaustion_in_one_leaves_other_healthy(self, office):
        tight = QueryContext(
            guard=ExecutionGuard(max_pivots=1,
                                 on_exhaustion="degrade"),
            cache=ConstraintCache(maxsize=64))
        roomy = _context(cache_size=64, max_pivots=100_000)

        degraded = lyric.query_translated(office, QUERY, ctx=tight)
        assert degraded.warnings
        assert tight.stats.exhausted == "pivots"

        healthy = lyric.query_translated(office, QUERY, ctx=roomy)
        assert not healthy.warnings
        assert roomy.stats.exhausted is None
        assert len(healthy) > 0

    def test_nested_activation_routes_to_explicit_context(self, office):
        """An explicit ctx wins over the ambient one: running B's query
        inside A's activation must account to B."""
        ctx_a = _context(cache_size=64)
        ctx_b = _context(cache_size=64)
        with ctx_a.activate():
            lyric.query_translated(office, QUERY, ctx=ctx_b)
        assert ctx_b.stats.cache_misses > 0
        assert len(ctx_b.cache) > 0
        assert ctx_a.stats.cache_misses == 0
        assert len(ctx_a.cache) == 0

    def test_default_context_untouched(self, office):
        """Facade calls with explicit contexts must not grow the
        process-default account."""
        default_stats = context_mod.default_context().stats.snapshot()
        lyric.query_translated(office, QUERY,
                               ctx=_context(cache_size=64))
        lyric.query(office, QUERY, ctx=_context(cache_size=64))
        assert context_mod.default_context().stats.snapshot() \
            == default_stats

    def test_options_differ_per_context(self, office):
        """Indexing/optimizer toggles are per-context, and
        both contexts still compute the same rows."""
        plain = QueryContext(cache=ConstraintCache(maxsize=64),
                             indexing=False, use_optimizer=False)
        tuned = QueryContext(cache=ConstraintCache(maxsize=64))
        a = lyric.query_translated(office, QUERY,
                                   use_optimizer=False, ctx=plain)
        b = lyric.query_translated(office, QUERY, ctx=tuned)
        assert sorted(map(str, a)) == sorted(map(str, b))


class TestFacadesKeepTheContextsOptimizerSetting:
    """``lyric.stream``, ``query_translated`` and ``explain`` run the
    plan rewrites the context asks for; only an explicit
    ``use_optimizer=`` argument overrides it."""

    FACADES = {
        "stream": lambda db, ctx, **kw: lyric.stream(
            db, QUERY, ctx=ctx, **kw).result(),
        "query_translated": lambda db, ctx, **kw: lyric.query_translated(
            db, QUERY, ctx=ctx, **kw),
        "explain": lambda db, ctx, **kw: lyric.explain(
            db, QUERY, analyze=True, ctx=ctx, **kw),
    }

    @staticmethod
    def _rewrote(ctx):
        return any(phase.name.startswith(("rewrite", "physical-plan"))
                   for phase in ctx.stats.phases)

    @pytest.mark.parametrize("facade", sorted(FACADES))
    def test_context_off_stays_off(self, office, facade):
        ctx = QueryContext(use_optimizer=False, plan_cache=None)
        self.FACADES[facade](office, ctx)
        assert ctx.stats.phases and not self._rewrote(ctx)
        if facade != "explain":
            assert ctx.stats.optimized is False

    @pytest.mark.parametrize("facade", sorted(FACADES))
    def test_an_explicit_argument_overrides_the_context(
            self, office, facade):
        ctx = QueryContext(use_optimizer=False, plan_cache=None)
        self.FACADES[facade](office, ctx, use_optimizer=True)
        assert self._rewrote(ctx)


class TestIndexAccountIsolation:
    """An index join's probe counts belong to the context that ran it
    — not to the process, and not to the plan node, which the plan
    cache hands to every context."""

    JOIN = bench_text.SPARSE_JOIN_QUERY

    @pytest.fixture
    def scattered(self):
        return bench_text.build_sparse(
            3, {"n": 60, "overlaps": 3, "windows": 1}).db

    def _index_line(self, db):
        rendered = lyric.explain(db, self.JOIN, analyze=True)
        (line,) = re.findall(r"\[index: [^\]]*\]", rendered)
        return line

    def test_analyze_line_ignores_a_concurrent_join(self, scattered):
        alone = self._index_line(scattered)
        assert "probed 0" not in alone
        stop = threading.Event()

        def same_join_elsewhere():
            while not stop.is_set():
                lyric.query_translated(scattered, self.JOIN,
                                       ctx=QueryContext(cache=None))

        other = threading.Thread(target=same_join_elsewhere)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        other.start()
        try:
            seen = {self._index_line(scattered) for _ in range(40)}
        finally:
            stop.set()
            other.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not other.is_alive()
        assert seen == {alone}

    def test_contexts_share_a_cached_plan_not_an_account(self,
                                                         scattered):
        ctx_a, ctx_b = QueryContext(), QueryContext()
        lyric.query_translated(scattered, self.JOIN, ctx=ctx_a)
        once = (ctx_a.stats.index_probes, ctx_a.stats.index_candidates)
        assert min(once) > 0
        lyric.query_translated(scattered, self.JOIN, ctx=ctx_b)
        lyric.query_translated(scattered, self.JOIN, ctx=ctx_a)
        assert ctx_b.stats.plan_cache_hits == 1
        assert (ctx_b.stats.index_probes,
                ctx_b.stats.index_candidates) == once
        assert (ctx_a.stats.index_probes,
                ctx_a.stats.index_candidates) == (2 * once[0],
                                                  2 * once[1])
