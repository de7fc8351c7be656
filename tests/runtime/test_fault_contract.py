"""The fault contract, per engine, end to end.

A :class:`~repro.runtime.faults.FaultPlan` injects faults and changes
nothing else: the run keeps the engine :func:`repro.lyric.stream`
picks, and the caches, prefilter, box index and float kernel its
context sets.  Each case runs on the naive evaluator
(:func:`repro.lyric.query`) and on the translated engine
(``lyric.stream(...).result()``) and checks the resource-governance guarantees there:

* ``fail`` raises the named :class:`~repro.errors.ResourceExhausted`
  subclass;
* ``degrade`` returns a partial result with a ``budget=...`` warning —
  a strict prefix on the naive engine, which yields rows as it goes,
  and empty on the flat engine, which evaluates bottom-up;
* every simplex call of a run can be made to fail;
* a cancel lands between the batches of a streaming pull.

Every case builds its context with caches of its own, so its tick
counts start cold and nothing it caches outlives it.  One case runs
against the global caches on purpose, to show a faulted run leaves
them sound.
"""

import ast
import pathlib
from fractions import Fraction

import pytest

import repro
from bench import text as bench_text
from repro import errors, lyric
from repro.core.parser import parse_query
from repro.core.pipeline import STREAM_CHECK_EVERY
from repro.runtime import ExecutionGuard, FaultPlan, QueryContext
from repro.runtime.cache import ConstraintCache, clear_global_cache
from repro.runtime.context import ExecutionStats
from repro.runtime.plancache import PlanCache, clear_global_plan_cache
from repro.server import procexec
from repro.workloads import office
from tests.server.harness import rows_bytes

PLACED_EXTENT = office.PLACED_EXTENT_QUERY

#: A WHERE-side disjunction, so the disjunct budget has a count.
DISJUNCTIVE = """
    SELECT CO FROM Office_Object CO
    WHERE CO.extent[E] and SAT(E(u,v) and (u <= 1 or v >= 2))
"""

#: Every pair of the join database: enough rows for a stream to pass
#: several :data:`STREAM_CHECK_EVERY` checkpoints.
ALL_PAIRS = "SELECT A, B FROM Lft A, Rgt B"

DENSE_PARAMS = {"k": Fraction(150)}


def fresh(guard=None, **options):
    """A context whose constraint and plan caches are its own."""
    return QueryContext(guard=guard, cache=ConstraintCache(),
                        plan_cache=PlanCache(), stats=ExecutionStats(),
                        **options)


def run_naive(db, text, ctx, params=None):
    return lyric.query(db, text, ctx=ctx, params=params)


def run_translated(db, text, ctx, params=None):
    stream = lyric.stream(db, text, ctx=ctx, params=params)
    assert stream.engine == "translated"
    return stream.result()


ENGINES = pytest.mark.parametrize(
    "run", [run_naive, run_translated], ids=["naive", "translated"])


@pytest.fixture(scope="module")
def db():
    return office.generate(4, 1).db


@pytest.fixture(scope="module")
def dense():
    return bench_text.build_dense(
        3, {"n": 4, "extra": 4, "atoms": 5, "drawn": 20}).db


@pytest.fixture(scope="module")
def pairs():
    return bench_text.build_dense(
        3, {"n": 12, "extra": 4, "atoms": 5, "drawn": 20}).db


class TestFail:
    @ENGINES
    @pytest.mark.parametrize("budget, error", [
        ("pivots", errors.PivotBudgetExceeded),
        ("branches", errors.BranchBudgetExceeded),
        ("canonical", errors.CanonicalizationBudgetExceeded),
        ("deadline", errors.DeadlineExceeded),
        ("disjuncts", errors.DisjunctBudgetExceeded),
    ])
    def test_exhaustion_raises_the_named_subclass(self, db, run, budget,
                                                  error):
        text = DISJUNCTIVE if budget == "disjuncts" else PLACED_EXTENT
        guard = ExecutionGuard(
            faults=FaultPlan(exhaust_budget=budget, exhaust_after=1))
        with pytest.raises(error) as info:
            run(db, text, fresh(guard))
        assert info.value.budget == budget
        assert info.value.fragment == "fault-injection"

    @ENGINES
    def test_cancel_raises_query_cancelled(self, db, run):
        guard = ExecutionGuard(faults=FaultPlan(cancel_at_checkpoint=1))
        with pytest.raises(errors.QueryCancelled):
            run(db, PLACED_EXTENT, fresh(guard))


class TestDegrade:
    @pytest.mark.parametrize("run, keeps_prefix", [
        (run_naive, True), (run_translated, False),
    ], ids=["naive", "translated"])
    @pytest.mark.parametrize("budget, spent", [
        ("pivots", "pivots"),
        ("branches", "branches"),
        ("canonical", "canonical_steps"),
    ])
    def test_a_partial_result_warns_with_its_budget(self, db, run,
                                                    keeps_prefix,
                                                    budget, spent):
        probe = ExecutionGuard()
        full = list(run(db, PLACED_EXTENT, fresh(probe)))
        guard = ExecutionGuard(
            on_exhaustion="degrade",
            faults=FaultPlan(exhaust_budget=budget,
                             exhaust_after=probe.spend()[spent] // 2))
        partial = run(db, PLACED_EXTENT, fresh(guard))
        assert partial.is_partial
        assert f"budget={budget}" in partial.warnings[0]
        rows = list(partial)
        if keeps_prefix:
            assert 0 < len(rows) < len(full)
            assert rows == full[:len(rows)]
        else:
            assert rows == []


class TestSimplexFaults:
    @ENGINES
    @pytest.mark.parametrize("case", ["placed_extent", "dense_join"])
    def test_every_simplex_call_can_fail(self, db, dense, run, case):
        # The float kernel decides every dense_join row without an
        # exact solve, so that case turns it off to have calls to fail.
        database, text, params, options = {
            "placed_extent": (db, PLACED_EXTENT, None, {}),
            "dense_join": (dense, bench_text.DENSE_JOIN_QUERY,
                           DENSE_PARAMS, {"numeric": False}),
        }[case]
        probe = ExecutionGuard()
        run(database, text, fresh(probe, **options), params)
        assert probe.simplex_calls > 0
        for k in range(1, probe.simplex_calls + 1):
            guard = ExecutionGuard(faults=FaultPlan(fail_simplex_at=k))
            with pytest.raises(errors.InjectedFaultError):
                run(database, text, fresh(guard, **options), params)

    def test_the_kernel_stays_on_under_a_fault_plan(self, dense):
        plain = fresh(numeric=False)
        expected = run_translated(dense, bench_text.DENSE_JOIN_QUERY,
                                  plain, DENSE_PARAMS)
        guard = ExecutionGuard(faults=FaultPlan(fail_simplex_at=1))
        ctx = fresh(guard, numeric=True)
        result = run_translated(dense, bench_text.DENSE_JOIN_QUERY, ctx,
                                DENSE_PARAMS)
        assert rows_bytes(result) == rows_bytes(expected)
        assert guard.simplex_calls == 0
        assert ctx.stats.numeric_accepts + ctx.stats.numeric_rejects \
            == ctx.stats.index_candidates > 0


def _stream_checkpoint(db, text):
    """The full rows of ``text`` and the number of the checkpoint the
    stream passes before yielding row ``STREAM_CHECK_EVERY + 1``."""
    probe = ExecutionGuard()
    full = list(lyric.stream(db, text, ctx=fresh(probe)).result())
    assert len(full) > 2 * STREAM_CHECK_EVERY
    in_plan = probe.checkpoints - (len(full) - 1) // STREAM_CHECK_EVERY
    return full, in_plan + 1


class TestStreamCancel:
    def test_a_cancel_lands_between_batches(self, pairs):
        full, at = _stream_checkpoint(pairs, ALL_PAIRS)
        guard = ExecutionGuard(faults=FaultPlan(cancel_at_checkpoint=at))
        stream = lyric.stream(pairs, ALL_PAIRS, ctx=fresh(guard))
        assert stream.engine == "translated"
        assert stream.next_batch(STREAM_CHECK_EVERY) \
            == full[:STREAM_CHECK_EVERY]
        with pytest.raises(errors.QueryCancelled):
            stream.next_batch(STREAM_CHECK_EVERY)

    def test_a_degraded_cancel_keeps_the_rows_before_it(self, pairs):
        full, at = _stream_checkpoint(pairs, ALL_PAIRS)
        guard = ExecutionGuard(on_exhaustion="degrade",
                               faults=FaultPlan(cancel_at_checkpoint=at))
        partial = lyric.stream(pairs, ALL_PAIRS, ctx=fresh(guard)).result()
        assert list(partial) == full[:STREAM_CHECK_EVERY]
        assert "cancel" in partial.warnings[0]


class TestFrontEnds:
    def test_prepared_query_run(self, db):
        guard = ExecutionGuard(
            on_exhaustion="degrade",
            faults=FaultPlan(exhaust_budget="pivots", exhaust_after=1))
        ctx = fresh(guard)
        result = lyric.prepare(db, PLACED_EXTENT).run(db, ctx=ctx)
        assert ctx.stats.engine_fallbacks == 0
        assert result.is_partial and len(result) == 0
        assert "budget=pivots" in result.warnings[0]

    def test_request_events(self, pairs):
        _, at = _stream_checkpoint(pairs, ALL_PAIRS)
        guard = ExecutionGuard(faults=FaultPlan(cancel_at_checkpoint=at))
        events = list(procexec.request_events(
            pairs, parse_query(ALL_PAIRS), True, fresh(guard)))
        shipped = sum(len(e[1]) for e in events if e[0] == "rows")
        assert shipped == STREAM_CHECK_EVERY
        assert events[-1][:2] == ("error", "cancelled")


class TestGlobalCachesStaySound:
    @ENGINES
    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_a_faulted_run_does_not_poison_them(self, db, run, where):
        clear_global_cache()
        clear_global_plan_cache()
        probe = ExecutionGuard()
        run(db, PLACED_EXTENT, fresh(probe))
        fail_at = 1 if where == "first" else probe.simplex_calls // 2
        guard = ExecutionGuard(faults=FaultPlan(fail_simplex_at=fail_at))
        with pytest.raises(errors.InjectedFaultError):
            run(db, PLACED_EXTENT, QueryContext(guard=guard))
        warm = QueryContext(stats=ExecutionStats())
        after = run(db, PLACED_EXTENT, warm)
        cold = run(db, PLACED_EXTENT,
                   QueryContext(cache=None, plan_cache=None))
        assert rows_bytes(after) == rows_bytes(cold)
        if where == "middle":
            assert warm.stats.cache_hits > 0


#: Where ``X.faults`` may be read, by module: anywhere in the modules
#: that inject faults (``None``), or only in the named functions —
#: the context's ``faults`` property.  The storage layer reads its own
#: write faults.
_FAULT_READERS = {
    "runtime/guard.py": None,
    "runtime/faults.py": None,
    "runtime/context.py": {"faults"},
}


def _fault_reads(node, scope=None):
    """``(enclosing function, line)`` of every ``X.faults`` load."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = node.name
    if isinstance(node, ast.Attribute) and node.attr == "faults" \
            and isinstance(node.ctx, ast.Load):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _fault_reads(child, scope)


def test_only_the_injectors_read_faults():
    """A fault plan reaches the engine only through the guard: nothing
    else under ``src/repro`` looks at it to pick another path."""
    package = pathlib.Path(repro.__file__).parent
    offenders = set()
    for path in package.rglob("*.py"):
        name = path.relative_to(package).as_posix()
        allowed = _FAULT_READERS.get(name, set())
        if allowed is None or name.startswith("storage/"):
            continue
        for scope, line in _fault_reads(ast.parse(path.read_text())):
            if scope not in allowed:
                offenders.add(f"{name}:{line}")
    assert not offenders
