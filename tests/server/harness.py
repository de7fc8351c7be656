"""Shared plumbing for the server test suite.

Every end-to-end test runs server and client inside a *single* event
loop (one ``asyncio.run`` per test) — ``LyricServer`` binds port 0 so
tests never collide on an address, and the executor threads the
service owns are torn down by ``server.shutdown()`` on the way out.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.client import connect
from repro.server import LyricServer, QueryService, ServerLimits
from repro.workloads import office

__all__ = ["SLOW_QUERY", "ServerLimits", "client_for", "office_db",
           "rows_bytes", "serving", "settled"]

#: A query whose cost scales quadratically with the database: every
#: object pair drags a four-way constraint conjunction through the
#: solver.  At ``office_db(30)`` it runs for ~1s — long enough that
#: cancellation and shutdown deterministically land mid-stream.
SLOW_QUERY = """
    SELECT A, B, ((u,v) | EA and DA and EB and DB)
    FROM Office_Object A, Office_Object B
    WHERE A.extent[EA] and A.translation[DA]
      and B.extent[EB] and B.translation[DB]
"""


def office_db(n: int = 6, seed: int = 0):
    return office.generate(n, seed=seed).db


def rows_bytes(result) -> bytes:
    """The canonical byte serialization results are compared in (same
    as the plan-cache property suite)."""
    return "\n".join(
        sorted(f"{r.oid!r}|{r.values!r}" for r in result)
    ).encode()


@contextlib.asynccontextmanager
async def serving(db=None, *, limits=None, store=None,
                  max_sessions: int = 64,
                  drain_timeout: float = 10.0,
                  executor_threads: int = 4,
                  executor: str = "thread"):
    service = QueryService(db if db is not None else office_db(),
                           store=store, limits=limits,
                           executor_threads=executor_threads,
                           executor=executor)
    server = LyricServer(service, port=0, max_sessions=max_sessions,
                         drain_timeout=drain_timeout)
    await server.start()
    try:
        yield server
    finally:
        await server.shutdown()


@contextlib.asynccontextmanager
async def client_for(server):
    client = await connect(port=server.port)
    try:
        yield client
    finally:
        await client.close()


async def settled(server, timeout: float = 60.0) -> None:
    """Wait until no job runs in the server's service.

    A client sees its cancel at once, while the detached execution
    runs on to its next guard checkpoint and only then records the
    request in the service's stats: whatever reads that account after
    a cancel waits for this first."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while server.service._jobs:
        if loop.time() > deadline:
            raise AssertionError(
                f"jobs still running after {timeout} s")
        await asyncio.sleep(0.01)
