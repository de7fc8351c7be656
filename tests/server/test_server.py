"""End-to-end server tests: framed protocol, line mode, admission,
cancellation, and graceful shutdown — server and client in one loop."""

import asyncio
import os
import signal
import subprocess
import sys

import pytest

from repro import lyric
from repro.client import ServerError, connect
from repro.errors import (
    EvaluationError,
    LyricSyntaxError,
    QueryCancelled,
)
from repro.runtime import ExecutionGuard
from repro.runtime.cache import clear_global_cache
from repro.storage.store import Store

from tests.server.harness import (
    SLOW_QUERY,
    client_for,
    held_after_first_batch,
    office_db,
    rows_bytes,
    serving,
    settled,
)


class TestEquivalence:
    """Acceptance criterion: server responses are byte-identical to
    in-process execution."""

    def test_translated_query_matches_in_process(self):
        db = office_db(6, seed=3)
        text = "SELECT X FROM Office_Object X WHERE X.color = 'red'"
        local = lyric.query_translated(db, text)

        async def main():
            async with serving(db) as server, \
                    client_for(server) as client:
                return await client.query(text)
        remote = asyncio.run(main())
        assert rows_bytes(remote) == rows_bytes(local)
        assert remote.columns == local.columns
        assert tuple(remote.warnings) == tuple(local.warnings)

    def test_naive_engine_matches_in_process(self):
        db = office_db(5, seed=1)
        text = "SELECT X, X.color FROM Office_Object X"
        local = lyric.query(db, text)

        async def main():
            async with serving(db) as server, \
                    client_for(server) as client:
                stream = await client.stream(text, translated=False)
                result = await stream.result()
                return result, stream.done
        remote, done = asyncio.run(main())
        assert rows_bytes(remote) == rows_bytes(local)
        assert done["engine"] == "naive"
        assert done["rows"] == len(local.rows)

    def test_untranslatable_query_falls_back_to_naive(self):
        db = office_db(4)
        text = "SELECT X.color FROM Desk X"  # outside the fragment
        local = lyric.query(db, text)

        async def main():
            async with serving(db) as server, \
                    client_for(server) as client:
                stream = await client.stream(text)  # translated=True
                result = await stream.result()
                return result, stream.done
        remote, done = asyncio.run(main())
        assert done["engine"] == "naive"
        assert rows_bytes(remote) == rows_bytes(local)

    def test_params_round_trip(self):
        db = office_db(6, seed=2)
        text = "SELECT X FROM Office_Object X WHERE X.color = $col"
        local = lyric.query_translated(db, text,
                                       params={"col": "red"})

        async def main():
            async with serving(db) as server, \
                    client_for(server) as client:
                return await client.query(text,
                                          params={"col": "red"})
        remote = asyncio.run(main())
        assert rows_bytes(remote) == rows_bytes(local)

    def test_degrade_is_byte_identical_including_partials(self):
        db = office_db(10, seed=4)
        guard_spec = {"max_canonical": 60, "on_exhaustion": "degrade"}

        clear_global_cache()
        local = lyric.query(
            db, SLOW_QUERY,
            guard=ExecutionGuard(on_exhaustion="degrade",
                                 max_canonical=60))
        assert local.warnings, "budget must trip for this test"

        async def main():
            clear_global_cache()
            async with serving(db) as server, \
                    client_for(server) as client:
                stream = await client.stream(SLOW_QUERY,
                                             translated=False,
                                             guard=guard_spec)
                result = await stream.result()
                return result, stream.done
        remote, done = asyncio.run(main())
        assert done["partial"] is True
        assert rows_bytes(remote) == rows_bytes(local)
        assert tuple(remote.warnings) == tuple(local.warnings)


class TestErrors:
    def test_syntax_error_raises_the_library_exception(self):
        async def main():
            async with serving() as server, \
                    client_for(server) as client:
                with pytest.raises(LyricSyntaxError):
                    await client.query("SELECT FROM WHERE")
                # The session survives a failed request.
                result = await client.query(
                    "SELECT X FROM Office_Object X")
                assert len(result.rows) > 0
        asyncio.run(main())

    def test_guard_fail_policy_raises_resource(self):
        from repro.errors import ResourceExhausted
        db = office_db(10, seed=4)

        async def main():
            clear_global_cache()
            async with serving(db) as server, \
                    client_for(server) as client:
                with pytest.raises(ResourceExhausted):
                    await client.query(
                        SLOW_QUERY, translated=False,
                        guard={"max_canonical": 60})
        asyncio.run(main())


class TestPreparedStatements:
    TEXT = "SELECT X FROM Office_Object X WHERE X.color = $col"

    def test_prepare_execute_matches_in_process(self):
        db = office_db(6, seed=5)
        local = lyric.query_translated(db, self.TEXT,
                                       params={"col": "red"})

        async def main():
            async with serving(db) as server, \
                    client_for(server) as client:
                reply = await client.prepare("by_color", self.TEXT)
                assert reply["params"] == ["col"]
                return await client.execute("by_color",
                                            params={"col": "red"})
        remote = asyncio.run(main())
        assert rows_bytes(remote) == rows_bytes(local)

    def test_unbound_parameter_is_an_evaluation_error(self):
        async def main():
            async with serving() as server, \
                    client_for(server) as client:
                await client.prepare("by_color", self.TEXT)
                with pytest.raises(EvaluationError) as excinfo:
                    await client.execute("by_color")
                assert "$col" in str(excinfo.value)
        asyncio.run(main())

    def test_unknown_name_is_a_bad_request(self):
        async def main():
            async with serving() as server, \
                    client_for(server) as client:
                with pytest.raises(ServerError) as excinfo:
                    await client.execute("never_prepared")
                assert excinfo.value.code == "bad_request"
        asyncio.run(main())


class TestCancellation:
    def test_cancel_mid_stream_leaves_the_session_usable(self):
        db = office_db(30, seed=0)

        async def main():
            async with serving(db) as server, \
                    client_for(server) as client, \
                    held_after_first_batch() as release:
                stream = await client.stream(SLOW_QUERY,
                                             translated=False)
                rows_seen = 0
                with pytest.raises(QueryCancelled):
                    async for _row in stream:
                        rows_seen += 1
                        if rows_seen == 3:
                            await stream.cancel()
                            # The cancel's reply means the server has
                            # cancelled the held execution.
                            release.set()
                assert 0 < rows_seen < 900  # genuinely mid-stream
                # Same connection, next query: fine.
                result = await client.query(
                    "SELECT X FROM Desk X")
                assert len(result.rows) > 0
                # The cancelled execution books itself when it stops.
                await settled(server)
                stats = await client.stats()
                assert stats["cancellations"] >= 1
        asyncio.run(main())

    def test_cancel_unknown_request_reports_not_found(self):
        async def main():
            async with serving() as server, \
                    client_for(server) as client:
                reply = await client.cancel(99999)
                assert reply["found"] is False
        asyncio.run(main())


class TestDedupOverTheWire:
    def test_concurrent_identical_queries_share_and_match(self):
        db = office_db(16, seed=0)

        async def main():
            async with serving(db) as server, \
                    client_for(server) as client:
                s1 = await client.stream(SLOW_QUERY,
                                         translated=False)
                s2 = await client.stream(SLOW_QUERY,
                                         translated=False)
                r1, r2 = await asyncio.gather(s1.result(),
                                              s2.result())
                assert rows_bytes(r1) == rows_bytes(r2)
                assert s1.done["dedup"] is False
                assert s2.done["dedup"] is True
                stats = await client.stats()
                assert stats["dedup_hits"] == 1
                # One shared execution was recorded.
                assert stats["requests"] == 1
        asyncio.run(main())


class TestMutations:
    def test_create_view_then_query_the_new_class(self):
        db = office_db(5, seed=1)

        async def main():
            async with serving(db) as server, \
                    client_for(server) as client:
                summary = await client.view(
                    "CREATE VIEW Everything AS SUBCLASS OF "
                    "Office_Object SELECT CO FROM Office_Object CO")
                assert "Everything" in summary["classes"]
                result = await client.query(
                    "SELECT X FROM Everything X")
                assert len(result.rows) \
                    == summary["instances"]["Everything"]
                stats = await client.stats()
                assert stats["mutations"] == 1
        asyncio.run(main())


class TestAdmission:
    def test_session_limit_rejects_with_a_code(self):
        async def main():
            async with serving(max_sessions=1) as server:
                async with client_for(server) as _client:
                    with pytest.raises(ServerError) as excinfo:
                        await connect(port=server.port)
                    assert excinfo.value.code == "max_sessions"
                # The slot frees up once the first session closes.
                await asyncio.sleep(0.05)
                async with client_for(server) as client:
                    assert (await client.handshake() or
                            client.hello)["server"] == "lyric"
        asyncio.run(main())


class TestLineMode:
    async def _chat(self, port, lines, until):
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port)
        for line in lines:
            writer.write(line.encode() + b"\n")
        await writer.drain()
        out = []
        while True:
            raw = await reader.readline()
            if not raw:
                break
            out.append(raw.decode().rstrip("\n"))
            if out[-1].startswith(until):
                break
        writer.close()
        return out

    def test_full_command_set(self):
        db = office_db(4, seed=0)

        async def main():
            async with serving(db) as server:
                port = server.port
                hello = await self._chat(port, ["hello"], "ok")
                assert hello[0].startswith("ok lyric v1 session=")

                out = await self._chat(
                    port,
                    ["query SELECT X FROM Office_Object X"],
                    "done")
                assert any(line.startswith("row ") for line in out)
                assert out[-1].endswith("rows via translated")

                out = await self._chat(
                    port,
                    ["prepare p as SELECT X FROM Office_Object X "
                     "WHERE X.color = $col",
                     "execute p ('red')"],
                    "done")
                assert out[0] == "prepared p ($col)"

                out = await self._chat(port, ["cancel 1"], "error")
                assert "line mode is sequential" in out[0]

                out = await self._chat(port, ["stats"], "stats")
                assert '"requests":' in out[0]

                out = await self._chat(port, ["close"], "bye")
                assert out[-1] == "bye"
        asyncio.run(main())

    def test_line_errors_keep_the_session_alive(self):
        async def main():
            async with serving() as server:
                out = await self._chat(
                    server.port,
                    ["query SELECT FROM", "hello"],
                    "ok")
                assert out[0].startswith("error syntax:")
                assert out[1].startswith("ok lyric")
        asyncio.run(main())


class TestGracefulShutdown:
    def test_drain_finishes_inflight_and_rejects_new_work(self):
        db = office_db(30, seed=0)

        async def main():
            async with serving(db, drain_timeout=30.0) as server:
                async with client_for(server) as streaming, \
                        client_for(server) as bystander, \
                        held_after_first_batch() as release:
                    stream = await streaming.stream(
                        SLOW_QUERY, translated=False)
                    rows = streaming_rows = []
                    async for row in stream:
                        streaming_rows.append(row)
                        break  # the query is definitely running
                    shutdown = asyncio.ensure_future(
                        server.shutdown())
                    # Test while the stream is in flight: as soon as
                    # the shutdown has begun, not a fixed time later.
                    while not server.shutting_down:
                        await asyncio.sleep(0)

                    # A brand-new connection is turned away with the
                    # shutting_down code...
                    with pytest.raises(ServerError) as excinfo:
                        await connect(port=server.port)
                    assert excinfo.value.code == "shutting_down"

                    # ...an existing session's new request likewise...
                    with pytest.raises(ServerError) as excinfo:
                        await bystander.query(
                            "SELECT X FROM Desk X")
                    assert excinfo.value.code == "shutting_down"

                    # ...but the in-flight stream, held until now,
                    # drains completely.
                    release.set()
                    async for row in stream:
                        rows.append(row)
                    assert stream.done is not None
                    assert stream.done["rows"] == 900
                    assert len(rows) == 900
                    await shutdown
        asyncio.run(main())

    def test_past_deadline_stragglers_are_cancelled(self):
        db = office_db(30, seed=0)

        async def main():
            async with serving(db, drain_timeout=0.05) as server:
                async with client_for(server) as client, \
                        held_after_first_batch() as release:
                    stream = await client.stream(SLOW_QUERY,
                                                 translated=False)
                    async for _row in stream:
                        break
                    shutdown = asyncio.ensure_future(
                        server.shutdown())
                    # The tiny drain window expires with the query
                    # still running (held); the force-cancel sweep
                    # reaches it and the client sees the cancelled code.
                    with pytest.raises(QueryCancelled):
                        async for _row in stream:
                            pass
                    release.set()
                    await shutdown
        asyncio.run(main())

    def test_shutdown_flushes_the_store(self, tmp_path):
        db = office_db(3)
        store = Store.create(str(tmp_path / "srv.store"), db)
        flushes = []
        real_flush = store.flush
        store.flush = lambda: (flushes.append(1), real_flush())[1]

        async def main():
            async with serving(db, store=store):
                pass  # no traffic: the shutdown path alone flushes
        asyncio.run(main())
        assert flushes
        store.close()


class TestServeCli:
    def test_serve_smoke_with_sigint_and_stats_dump(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--office",
             "--port", "0", "--dump-stats-on-exit"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=os.path.dirname(
                os.path.dirname(os.path.dirname(
                    os.path.abspath(__file__)))))
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening on "), line
            port = int(line.rsplit(":", 1)[1])

            async def main():
                client = await connect(port=port)
                try:
                    result = await client.query(
                        "SELECT X FROM Desk X")
                    assert len(result.rows) == 1
                finally:
                    await client.close()
            asyncio.run(main())

            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert '"requests": 1' in out
