"""Shared plumbing for the server test suite.

Every end-to-end test runs server and client inside a *single* event
loop (one ``asyncio.run`` per test) — ``LyricServer`` binds port 0 so
tests never collide on an address, and the executor threads the
service owns are torn down by ``server.shutdown()`` on the way out.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading

from repro.client import connect
from repro.server import LyricServer, QueryService, ServerLimits, procexec
from repro.workloads import office

__all__ = ["SLOW_QUERY", "ServerLimits", "client_for",
           "held_after_first_batch", "office_db", "rows_bytes", "serving",
           "settled"]

#: A query whose cost scales quadratically with the database: every
#: pair of placed objects drags its own two locations through two
#: entailments and a projection, so no two rows share a constraint
#: body and no cache collapses the work.  At ``office_db(30)`` it
#: yields 900 rows.  A test that needs it still running when something
#: happens holds it there with :func:`held_after_first_batch` rather
#: than trusting its run time.
SLOW_QUERY = """
    SELECT A, B, ((u,v) | L(x,y) and M(p,q) and u <= p + v - q)
    FROM Object_in_Room A, Object_in_Room B
    WHERE A.location[L] and B.location[M]
      and (L(x,y) and M(p,q) |= x + y <= p + q + 1000)
      and (L(x,y) and M(p,q) |= x - y <= p - q + 1000)
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


@contextlib.asynccontextmanager
async def held_after_first_batch():
    """Hold each thread-executed request after its first row batch.

    Wraps the service's event source, :func:`procexec.request_events`:
    a request publishes its first ``rows`` event, then its worker
    thread blocks on the yielded :class:`threading.Event` before
    computing more.  The test sets the event once the server state it
    needs holds (a cancel seen, a shutdown begun, a drain window
    expired), so the query is mid-stream then by construction, not
    because it happens to be slow.  Leaving the block sets the event;
    a hold that a failing test never releases ends after 60 s."""
    release = threading.Event()
    real = procexec.request_events

    def held(*args, **kwargs):
        holding = True
        for event in real(*args, **kwargs):
            yield event
            if holding and event[0] == "rows":
                holding = False
                release.wait(60.0)

    procexec.request_events = held
    try:
        yield release
    finally:
        release.set()
        procexec.request_events = real
