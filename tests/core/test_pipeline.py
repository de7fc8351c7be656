"""The staged compile pipeline and its per-phase trace."""

import pytest

from bench import text as bench_text
from repro import lyric
from repro.core.pipeline import CompiledQuery, Pipeline, render_trace
from repro.model.office import build_office_database
from repro.runtime import ExecutionGuard, FaultPlan
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.plancache import clear_global_plan_cache
from repro.sqlc.optimizer import LOGICAL_RULES, PHYSICAL_RULES

QUERY = """
    SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
    FROM Office_Object CO
    WHERE CO.extent[E] and CO.translation[D]
"""


@pytest.fixture(autouse=True)
def fresh_plan_cache():
    # Phase-trace assertions assume a cold compile; a warm global plan
    # cache would replay a single "plan-cache" phase instead.
    clear_global_plan_cache()
    yield
    clear_global_plan_cache()


@pytest.fixture
def office():
    db, _ = build_office_database()
    return db


def _phase_names(ctx):
    return [record.name for record in ctx.stats.phases]


class TestCompilePhases:
    def test_compile_records_staged_phases_in_order(self, office):
        pipe = Pipeline(office)
        compiled = pipe.compile(QUERY)
        names = _phase_names(pipe.ctx)
        rewrites = [n for n in names if n.startswith("rewrite:")]
        assert names[:3] == ["parse", "translate", "logical-plan"]
        assert names[-1] == "physical-plan"
        assert names[3:-1] == rewrites
        assert isinstance(compiled, CompiledQuery)
        assert compiled.optimized

    def test_every_configured_rule_is_recorded(self, office):
        pipe = Pipeline(office)
        pipe.compile(QUERY)
        recorded = [n.removeprefix("rewrite:")
                    for n in _phase_names(pipe.ctx)
                    if n.startswith("rewrite:")]
        expected = [r.name for r in LOGICAL_RULES + PHYSICAL_RULES]
        assert recorded == expected
        # The acceptance floor: at least three *named* rewrite rules.
        assert len(set(recorded)) >= 3

    def test_rewrite_records_carry_plan_snapshots(self, office):
        pipe = Pipeline(office)
        pipe.compile(QUERY)
        rewrites = [r for r in pipe.ctx.stats.phases
                    if r.name.startswith("rewrite:")]
        for record in rewrites:
            assert record.plan_before
            assert record.plan_after
            assert record.detail in ("changed", "unchanged")

    def test_unoptimized_compile_skips_rewrite_phases(self, office):
        ctx = QueryContext(use_optimizer=False)
        pipe = Pipeline(office, ctx)
        compiled = pipe.compile(QUERY)
        names = _phase_names(pipe.ctx)
        assert names == ["parse", "translate", "logical-plan"]
        assert not compiled.optimized


class TestRunPhases:
    def test_run_appends_execute_phase(self, office):
        pipe = Pipeline(office)
        result = pipe.run(QUERY)
        names = _phase_names(pipe.ctx)
        assert names[-1] == "execute"
        assert names.count("execute") == 1
        assert len(result) > 0
        assert pipe.ctx.stats.optimized

    def test_run_matches_compile_then_execute(self, office):
        whole = Pipeline(office).run(QUERY)
        pipe = Pipeline(office)
        relation = pipe.execute(pipe.compile(QUERY))
        assert len(whole) == len(relation)

    def test_two_pipelines_have_isolated_traces(self, office):
        a, b = Pipeline(office), Pipeline(office)
        a.run(QUERY)
        assert _phase_names(b.ctx) == []
        b.compile(QUERY)
        assert "execute" in _phase_names(a.ctx)
        assert "execute" not in _phase_names(b.ctx)

    def test_phase_timings_are_nonnegative(self, office):
        pipe = Pipeline(office)
        pipe.run(QUERY)
        assert all(r.seconds >= 0.0 for r in pipe.ctx.stats.phases)


class TestRunTranslatedIntegration:
    def test_stats_parameter_receives_phase_trace(self, office):
        """The account of an explicit context receives the trace of a
        ``query_translated`` call."""
        stats = ExecutionStats()
        lyric.query_translated(office, QUERY,
                               ctx=QueryContext(stats=stats))
        names = [r.name for r in stats.phases]
        assert "parse" in names and "execute" in names
        assert stats.optimized


class TestQueryStreamAsAValue:
    @pytest.mark.parametrize("text, engine, max_pivots", [
        (QUERY, "translated", None),
        # An attribute variable is outside the translatable fragment.
        ("SELECT A FROM Drawer D WHERE D.A['red']", "naive", None),
        (QUERY, "translated", 1),
    ], ids=["translated", "naive-fallback", "degrade-to-partial"])
    def test_result_equals_the_materialising_call(
            self, office, text, engine, max_pivots):
        def fresh_ctx():
            guard = ExecutionGuard(
                max_pivots=max_pivots, on_exhaustion="degrade") \
                if max_pivots else None
            return QueryContext(stats=ExecutionStats(), cache=None,
                                guard=guard)
        materialise = lyric.query_translated \
            if engine == "translated" else lyric.query
        expected = materialise(office, text, ctx=fresh_ctx())
        assert expected.is_partial == bool(max_pivots)

        ctx = fresh_ctx()
        stream = lyric.stream(office, text, ctx=ctx)
        assert stream.engine == engine
        assert stream.stats is ctx.stats
        assert not stream.exhausted
        result = stream.result()
        assert stream.exhausted and list(stream) == []
        assert result.columns == expected.columns
        assert result.rows == expected.rows
        assert result.warnings == expected.warnings
        assert stream.stats.exhausted \
            == ("pivots" if max_pivots else None)


class TestEngineFallbacksAreCounted:
    """``lyric.stream`` books each naive fallback with its reason."""

    def test_an_attribute_variable_books_the_translator_reason(
            self, office):
        ctx = QueryContext(stats=ExecutionStats())
        lyric.stream(office, "SELECT A FROM Drawer D WHERE D.A['red']",
                     ctx=ctx).result()
        assert ctx.stats.engine_fallbacks == 1
        assert ctx.stats.engine_fallback_reason.startswith(
            "attribute variables are outside the translatable fragment")

    @pytest.mark.parametrize("options, engine, reason", [
        ({"translated": False}, "naive", "translated=False"),
        # A fault plan is no fallback: it runs on the translated engine.
        ({"guard": ExecutionGuard(faults=FaultPlan())}, "translated",
         None),
    ])
    def test_a_requested_fallback_names_itself(self, office, options,
                                               engine, reason):
        ctx = QueryContext(stats=ExecutionStats())
        stream = lyric.stream(office, QUERY, ctx=ctx, **options)
        stream.result()
        assert stream.engine == engine
        assert ctx.stats.engine_fallbacks == (reason is not None)
        assert ctx.stats.engine_fallback_reason == reason

    def test_the_dense_join_books_none(self):
        inst = bench_text.build_dense(3, {"n": 4, "extra": 4, "atoms": 5,
                                    "drawn": 20})
        ctx = QueryContext(stats=ExecutionStats())
        stream = lyric.stream(inst.db, bench_text.DENSE_JOIN_QUERY, ctx=ctx,
                              params=bench_text.distinct_k(0))
        stream.result()
        assert stream.engine == "translated"
        assert ctx.stats.engine_fallbacks == 0
        assert ctx.stats.engine_fallback_reason is None


class TestWarningsBelongToTheirRun:
    @pytest.mark.parametrize("run", [
        lambda db, text, ctx: lyric.query_translated(db, text, ctx=ctx),
        lambda db, text, ctx: lyric.stream(db, text, ctx=ctx).result(),
        lambda db, text, ctx: lyric.prepare(db, text).run(db, ctx=ctx),
        lambda db, text, ctx: Pipeline(db, ctx).run(text),
        lambda db, text, ctx: lyric.query(db, text, ctx=ctx),
    ], ids=["query_translated", "stream", "prepare", "pipeline",
            "query"])
    def test_complete_result_after_a_degraded_one(self, office, run):
        """``derive`` shares the stats account, so a degraded run's
        warning is still there for the next run on a derived context;
        that run is complete and must not say otherwise."""
        ctx = QueryContext(stats=ExecutionStats(), cache=None,
                           guard=ExecutionGuard(max_pivots=1,
                                                on_exhaustion="degrade"))
        assert run(office, QUERY, ctx).is_partial
        clean = run(office, "SELECT X FROM Desk X",
                    ctx.derive(guard=None))
        assert len(clean) == 1
        assert clean.warnings == () and not clean.is_partial


class TestRenderTrace:
    def test_render_lists_each_phase(self, office):
        pipe = Pipeline(office)
        pipe.run(QUERY)
        text = render_trace(pipe.ctx.stats)
        assert text.startswith("phase trace:")
        for name in _phase_names(pipe.ctx):
            assert name in text
        assert " ms" in text

    def test_render_empty_trace(self):
        text = render_trace(ExecutionStats())
        assert "(no phases recorded)" in text
