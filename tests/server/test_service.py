"""The service layer without sockets: dedup, jobs, the read/write
gate, and the aggregate statistics account."""

import asyncio
import dataclasses
import os

import pytest

from repro import lyric
from repro.client import connect
from repro.errors import EvaluationError
from repro.runtime import ExecutionGuard, QueryContext
from repro.runtime.context import ExecutionStats, PhaseRecord
from repro.server import LyricServer, procexec
from repro.server.service import (
    QueryService,
    ServerLimits,
    ServiceStats,
    _Job,
    _ReadWriteGate,
)

from tests.server.harness import SLOW_QUERY, office_db


async def drain(subscription):
    """All of a subscription's events, terminal included."""
    return [event async for event in subscription.events()]


def row_events(events):
    return [e for e in events if e[0] == "rows"]


def terminal(events):
    return events[-1]


class TestDedup:
    def test_identical_concurrent_queries_share_one_execution(self):
        async def main():
            service = QueryService(office_db(12), executor_threads=2)
            try:
                query_ast = service.parse(SLOW_QUERY)
                first = await service.submit(query_ast)
                second = await service.submit(query_ast)
                assert first.deduped is False
                assert second.deduped is True
                a, b = await asyncio.gather(drain(first), drain(second))
                # Byte-identical: the same buffered event objects.
                assert row_events(a) == row_events(b)
                assert terminal(a)[0] == "done"
                assert terminal(a)[1]["rows"] == 144
                assert terminal(b)[1] == terminal(a)[1]
                assert service.stats.dedup_hits == 1
                assert service.stats.dedup_misses == 1
                # One execution was recorded, not two.
                assert service.stats.requests == 1
            finally:
                service.close()
        asyncio.run(main())

    def test_different_params_do_not_join(self):
        async def main():
            service = QueryService(office_db(4), executor_threads=2)
            try:
                from repro.model.oid import as_oid
                text = ("SELECT X FROM Office_Object X "
                        "WHERE X.color = $col")
                query_ast = service.parse(text)
                first = await service.submit(
                    query_ast, params={"col": as_oid("red")})
                second = await service.submit(
                    query_ast, params={"col": as_oid("blue")})
                assert second.deduped is False
                await asyncio.gather(drain(first), drain(second))
                assert service.stats.dedup_hits == 0
            finally:
                service.close()
        asyncio.run(main())

    def test_mutation_bumps_version_and_splits_the_key(self):
        async def main():
            service = QueryService(office_db(4), executor_threads=2)
            try:
                query_ast = service.parse(
                    "SELECT X FROM Office_Object X")
                await drain(await service.submit(query_ast))
                assert service.db_version == 0
                await service.run_view(
                    "CREATE VIEW Tall AS SUBCLASS OF Office_Object "
                    "SELECT CO FROM Office_Object CO")
                assert service.db_version == 1
                assert service.stats.mutations == 1
                # The same AST resubmitted must not join any
                # pre-mutation job (both submissions are misses).
                after = await service.submit(query_ast)
                assert after.deduped is False
                await drain(after)
                assert service.stats.dedup_hits == 0
            finally:
                service.close()
        asyncio.run(main())


class TestJob:
    def test_late_subscriber_replays_the_buffered_prefix(self):
        async def main():
            job = _Job(("key",), ExecutionGuard())
            job.publish(("rows", [(["a"], None)]))
            job.publish(("warning", "partial result: pivots"))
            early = job.attach(deduped=True)
            job.publish(("done", {"rows": 1}))
            late = job.attach(deduped=True)
            assert await drain(early) == await drain(late) == [
                ("rows", [(["a"], None)]),
                ("warning", "partial result: pivots"),
                ("done", {"rows": 1}),
            ]
        asyncio.run(main())

    def test_last_detach_cancels_the_shared_guard(self):
        async def main():
            guard = ExecutionGuard()
            job = _Job(("key",), guard)
            first = job.attach(deduped=False)
            second = job.attach(deduped=True)
            first.cancel()
            assert not guard.cancelled  # second still listening
            second.cancel()
            assert guard.cancelled
            # A cancelled subscriber's stream ends with the local
            # cancelled error, regardless of the shared job.
            assert terminal(await drain(first)) == \
                ("error", "cancelled", "query cancelled by client")
        asyncio.run(main())

    def test_cancel_is_idempotent(self):
        async def main():
            job = _Job(("key",), ExecutionGuard())
            subscription = job.attach(deduped=False)
            subscription.cancel()
            subscription.cancel()
            events = await drain(subscription)
            assert len(events) == 1  # exactly one cancelled terminal
        asyncio.run(main())


class TestReadWriteGate:
    def test_writer_waits_for_readers_and_blocks_new_ones(self):
        async def main():
            gate = _ReadWriteGate()
            order = []

            await gate.acquire_read()

            async def writer():
                await gate.acquire_write()
                order.append("write")
                await gate.release_write()

            async def late_reader():
                await gate.acquire_read()
                order.append("read")
                await gate.release_read()

            writer_task = asyncio.ensure_future(writer())
            await asyncio.sleep(0)       # writer now waiting
            reader_task = asyncio.ensure_future(late_reader())
            await asyncio.sleep(0.01)
            # Neither ran: the writer waits on us, the late reader
            # queues behind the waiting writer (writer-greedy).
            assert order == []
            await gate.release_read()
            await asyncio.gather(writer_task, reader_task)
            assert order == ["write", "read"]
        asyncio.run(main())

    def test_mutation_serializes_against_inflight_reads(self):
        async def main():
            service = QueryService(office_db(12), executor_threads=2)
            try:
                slow = await service.submit(service.parse(SLOW_QUERY))
                view = asyncio.ensure_future(service.run_view(
                    "CREATE VIEW Tall AS SUBCLASS OF Office_Object "
                    "SELECT CO FROM Office_Object CO"))
                events = await drain(slow)
                # The read ran to completion — the writer waited
                # instead of mutating under it.
                assert terminal(events)[0] == "done"
                summary = await view
                assert "Tall" in summary["classes"]
            finally:
                service.close()
        asyncio.run(main())


class TestServiceStats:
    def test_every_execution_field_survives_into_the_snapshot(self):
        """Mirror of the runtime field-survival regression: ANY
        non-skip ExecutionStats counter — including ones added after
        this test was written — must survive ``record_request`` into
        ``snapshot()["execution"]``, except the unbounded transcript
        fields (phases, warnings), which are deliberately stripped."""
        worker = ExecutionStats()
        expected = {}
        for f in dataclasses.fields(worker):
            how = f.metadata.get("merge", "sum")
            if how == "skip":
                continue
            if isinstance(getattr(worker, f.name), bool):
                value = True
            elif isinstance(getattr(worker, f.name), float):
                value = 1.5
            elif isinstance(getattr(worker, f.name), int):
                value = 7
            elif isinstance(getattr(worker, f.name), list):
                value = [PhaseRecord("synthetic", 0.1)] \
                    if f.name == "phases" else ["synthetic"]
            else:
                value = "synthetic"
            setattr(worker, f.name, value)
            if f.name not in ("phases", "warnings"):
                expected[f.name] = value

        stats = ServiceStats()
        stats.record_request(worker, rows=3, outcome="ok")
        execution = stats.snapshot()["execution"]

        assert "phases" not in execution
        assert "warnings" not in execution
        for name, value in expected.items():
            assert execution[name] == value, (
                f"counter {name!r} was lost in the aggregate: "
                f"sent {value!r}, snapshot has {execution.get(name)!r}")

    def test_catalog_rebuilds_are_counted_by_reason(self):
        stats = ServiceStats()
        assert stats.snapshot()["catalog_rebuild_reasons"] == {
            "first_use": 0, "db_mutated": 0, "schema_changed": 0,
            "shards_changed": 0}
        for reason in ("first_use", None, "db_mutated", "db_mutated"):
            request = ExecutionStats()
            request.catalog_hits = 1
            if reason is not None:
                request.catalog_rebuilds = 1
                request.catalog_rebuild_reason = reason
            stats.record_request(request)
        snapshot = stats.snapshot()
        assert snapshot["catalog_rebuild_reasons"] == {
            "first_use": 1, "db_mutated": 2, "schema_changed": 0,
            "shards_changed": 0}
        assert snapshot["execution"]["catalog_hits"] == 4
        assert snapshot["execution"]["catalog_rebuilds"] == 3

    def test_engine_fallbacks_are_counted_by_reason(self):
        """A request the engine rule ran naive is booked under the
        translator's reason; a translated one books nothing."""
        async def main():
            service = QueryService(office_db(4), executor_threads=2)
            try:
                for text in ("SELECT A FROM Drawer D WHERE D.A['red']",
                             "SELECT X FROM Office_Object X"):
                    await drain(await service.submit(service.parse(text)))
                snapshot = service.stats.snapshot()
                assert snapshot["execution"]["engine_fallbacks"] == 1
                (reason, count), = \
                    snapshot["engine_fallback_reasons"].items()
                assert "attribute variables" in reason and count == 1
            finally:
                service.close()
        asyncio.run(main())

    def test_outcomes_and_counters(self):
        stats = ServiceStats()
        stats.record_request(ExecutionStats(), rows=5, outcome="ok")
        stats.record_request(None, outcome="error")
        stats.record_request(None, outcome="cancelled")
        stats.note_dedup(True)
        stats.note_dedup(False)
        stats.note_mutation()
        stats.note_session(opened=True)
        stats.note_session(opened=False)
        snap = stats.snapshot()
        assert snap["requests"] == 3
        assert snap["failures"] == 1
        assert snap["cancellations"] == 1
        assert snap["rows_streamed"] == 5
        assert snap["dedup_hits"] == 1
        assert snap["dedup_misses"] == 1
        assert snap["mutations"] == 1
        assert snap["sessions_opened"] == 1
        assert snap["sessions_closed"] == 1

    def test_snapshot_is_json_able(self):
        import json
        stats = ServiceStats()
        worker = ExecutionStats()
        worker.pivots = 3
        stats.record_request(worker, rows=1)
        json.dumps(stats.snapshot())

    def test_aggregate_sums_across_requests(self):
        stats = ServiceStats()
        for _ in range(3):
            worker = ExecutionStats()
            worker.pivots = 10
            stats.record_request(worker, rows=2)
        snap = stats.snapshot()
        assert snap["execution"]["pivots"] == 30
        assert snap["rows_streamed"] == 6


class TestPrepared:
    """Server sessions keep :class:`repro.lyric.PreparedQuery` objects
    built over the service's parse memo."""

    def test_analyze_reports_parameter_slots(self):
        async def main():
            service = QueryService(office_db(4), executor_threads=2)
            try:
                text = ("SELECT X FROM Office_Object X "
                        "WHERE X.color = $col")
                statement = lyric.prepare(service.db, service.parse(text))
                assert statement.params == ("col",)
                # EXECUTE submits the very AST a QUERY of the same
                # text would: one dedup key, one cached plan.
                assert statement.query is service.parse(text)
            finally:
                service.close()
        asyncio.run(main())

    def test_check_params_names_every_missing_slot(self):
        statement = lyric.prepare(
            office_db(4), "SELECT X FROM Office_Object X "
                          "WHERE X.color = $px and X.color = $py")
        with pytest.raises(EvaluationError) as excinfo:
            statement.require_bound({})
        assert "$px" in str(excinfo.value)
        assert "$py" in str(excinfo.value)
        lyric.prepare(office_db(4), "SELECT X FROM Desk X") \
            .require_bound(None)  # nothing required: fine


class TestErrorPath:
    def test_worker_error_becomes_an_error_event(self):
        async def main():
            service = QueryService(office_db(4), executor_threads=2)
            try:
                # Semantically invalid: unknown class only detected at
                # execution time (parse succeeds).
                query_ast = service.parse("SELECT X FROM Nonexistent X")
                events = await drain(await service.submit(query_ast))
                kind, code, message = terminal(events)
                assert kind == "error"
                assert code == "semantic"
                assert "Nonexistent" in message
                assert service.stats.failures == 1
            finally:
                service.close()
        asyncio.run(main())

    def test_an_executor_body_that_raises_still_ends_the_job(
            self, monkeypatch):
        """The executor thread fails before the request body yields
        anything: every subscriber still gets an ``error`` terminal
        instead of waiting for ever."""
        def broken(*_args):
            raise RuntimeError("no request body")
        monkeypatch.setattr(procexec, "request_events", broken)

        async def main():
            service = QueryService(office_db(4), executor_threads=2,
                                   executor="thread")
            try:
                query_ast = service.parse("SELECT X FROM Desk X")
                first = await service.submit(query_ast)
                second = await service.submit(query_ast)
                assert second.deduped
                events = await asyncio.wait_for(asyncio.gather(
                    drain(first), drain(second)), timeout=10)
                for each in events:
                    assert each == [
                        ("error", "internal", "no request body")]
                assert service.stats.failures == 1
                # The job is gone: the next request runs afresh.
                monkeypatch.undo()
                again = await asyncio.wait_for(drain(
                    await service.submit(query_ast)), timeout=10)
                assert terminal(again)[0] == "done"
            finally:
                service.close()
        asyncio.run(main())

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_max_workers_must_be_positive_or_none(self, workers):
        with pytest.raises(ValueError, match="max_workers"):
            ServerLimits(max_workers=workers)
        assert ServerLimits(max_workers=None).max_workers is None
        assert ServerLimits(max_workers=3).max_workers == 3


needs_fork = pytest.mark.skipif(not procexec.fork_available(),
                                reason="the process executor needs fork")


class TestExecutorResolution:
    """``auto`` resolves to the thread executor whatever the machine;
    an explicit ``process`` and ``max_workers`` keep their meaning.
    No test here forks: the pool starts on the first process
    request."""

    @pytest.mark.parametrize("cpus", [1, 8])
    def test_auto_resolves_to_thread(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        service = QueryService(office_db(2), executor_threads=1)
        try:
            assert service.executor_mode == "thread"
            assert service._procexec is None
            assert service.stats.snapshot()["executor"] == "thread"
        finally:
            service.close()

    @needs_fork
    @pytest.mark.parametrize("cpus, workers", [(1, 2), (None, 2), (3, 3)])
    def test_explicit_process_sizes_its_pool_to_the_machine(
            self, monkeypatch, cpus, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        service = QueryService(office_db(2), executor_threads=1,
                               executor="process")
        try:
            assert service.executor_mode == "process"
            assert service._procexec.workers == workers
        finally:
            service.close()
        service = QueryService(office_db(2), executor_threads=1,
                               executor="process",
                               limits=ServerLimits(max_workers=5))
        try:
            assert service._procexec.workers == 5
        finally:
            service.close()

    def test_explicit_thread_stays_thread(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        service = QueryService(office_db(2), executor_threads=1,
                               executor="thread")
        try:
            assert service.executor_mode == "thread"
            assert service._procexec is None
        finally:
            service.close()

    def test_unknown_executor_is_refused(self):
        with pytest.raises(ValueError, match="auto/thread/process"):
            QueryService(office_db(2), executor="fibre")


def rewrite_phases(stats):
    return [p["name"] for p in stats["phases"]
            if p["name"].startswith("rewrite:")]


class TestBaseContext:
    """A request that does not send an option keeps the value of the
    service's base context."""

    QUERY = ("SELECT X FROM Office_Object X, Desk D "
             "WHERE X.color = D.color")

    @pytest.mark.parametrize("executor", [
        "thread", pytest.param("process", marks=needs_fork)])
    def test_use_optimizer_defaults_to_the_base_context(self, executor):
        async def main():
            service = QueryService(
                office_db(4), executor_threads=2, executor=executor,
                base_ctx=QueryContext(use_optimizer=False))
            try:
                query_ast = service.parse(self.QUERY)
                events = await drain(await service.submit(query_ast))
                assert terminal(events)[0] == "done"
                (stats,) = [e[1] for e in events if e[0] == "stats"]
                assert stats["optimized"] is False
                assert rewrite_phases(stats) == []
                # An explicit request option still wins.
                events = await drain(await service.submit(
                    query_ast, use_optimizer=True))
                (stats,) = [e[1] for e in events if e[0] == "stats"]
                assert stats["optimized"] is True
            finally:
                service.close()
        asyncio.run(main())

    def test_a_client_that_sends_no_option_keeps_the_base_context(self):
        async def main():
            service = QueryService(
                office_db(4), executor_threads=2, executor="thread",
                base_ctx=QueryContext(use_optimizer=False))
            server = LyricServer(service, port=0)
            await server.start()
            try:
                client = await connect(port=server.port)
                try:
                    stream = await client.stream(self.QUERY)
                    await stream.result()
                    assert stream.stats["optimized"] is False
                    assert rewrite_phases(stream.stats) == []
                finally:
                    await client.close()
            finally:
                await server.shutdown()
        asyncio.run(main())

    def test_base_params_hold_when_a_request_sends_none(self):
        from repro.model.oid import as_oid
        text = "SELECT X FROM Office_Object X WHERE X.color = $col"

        async def main():
            service = QueryService(
                office_db(4), executor_threads=2, executor="thread",
                base_ctx=QueryContext(params={"col": as_oid("red")}))
            try:
                query_ast = service.parse(text)
                events = await drain(await service.submit(query_ast))
                assert terminal(events)[0] == "done"
                expected = lyric.query(service.db, text,
                                       params={"col": "red"})
                assert terminal(events)[1]["rows"] == len(expected.rows)
            finally:
                service.close()
        asyncio.run(main())

    def test_a_base_guard_is_refused(self):
        with pytest.raises(ValueError, match="guard"):
            QueryService(office_db(2),
                         base_ctx=QueryContext(guard=ExecutionGuard()))
