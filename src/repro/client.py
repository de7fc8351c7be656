"""The async client for the LyriC query server.

    from repro.client import connect

    client = await connect("127.0.0.1", 7407)
    result = await client.query("SELECT X FROM Desk X")   # a ResultSet
    async for row in await client.stream("SELECT X FROM Desk X"):
        ...
    await client.close()

One background reader task demultiplexes response frames to their
requests by id, so any number of queries may be in flight on one
connection — and :meth:`LyricClient.cancel` can target one of them
while its rows are still streaming.  Row values come back as tagged
terms and are rebuilt with :func:`repro.model.serialize.load_oid` —
trusted, so the server's canonical forms are taken as is, not solved
again — whose round trip is exact: a :class:`~repro.core.result.ResultSet`
materialized here compares equal, row for row and warning for
warning, with one produced in-process.
"""

from __future__ import annotations

import asyncio
from typing import Any, AsyncIterator, Mapping

from repro.errors import (
    EvaluationError,
    LyricSyntaxError,
    QueryCancelled,
    ReproError,
    ResourceExhausted,
    SemanticError,
)
from repro.core.result import ResultRow, ResultSet
from repro.model.oid import Oid
from repro.model.serialize import dump_oid, load_oid
from repro.server import protocol


class ServerError(ReproError):
    """An ``error`` frame, re-raised client-side with its wire code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.wire_message = message


#: Wire codes that map back onto the library's own exception types, so
#: client code can catch the same classes it would in-process.
_CODE_EXCEPTIONS: dict[str, type] = {
    "cancelled": QueryCancelled,
    "syntax": LyricSyntaxError,
    "semantic": SemanticError,
    "evaluation": EvaluationError,
}


def _raise_for(frame: dict) -> None:
    code = frame.get("code", "error")
    message = frame.get("message", "")
    exc_type = _CODE_EXCEPTIONS.get(code)
    if exc_type is QueryCancelled:
        raise QueryCancelled(message or "query cancelled")
    if exc_type is not None:
        raise exc_type(message)
    if code == "resource":
        raise ResourceExhausted(message, budget="remote",
                                limit=None, spent=None)
    raise ServerError(code, message)


def _encode_params(params: Mapping[str, object] | None
                   ) -> dict[str, Any] | None:
    if params is None:
        return None
    return {name: dump_oid(value) if isinstance(value, Oid)
            else value for name, value in params.items()}


def _query_options(translated: bool, use_optimizer: bool | None,
                   guard: Mapping[str, Any] | None) -> dict[str, Any]:
    """A QUERY/EXECUTE frame's ``options``; an option left as ``None``
    is not sent, so the server's own setting holds."""
    options: dict[str, Any] = {"translated": translated}
    if use_optimizer is not None:
        options["use_optimizer"] = use_optimizer
    if guard is not None:
        options["guard"] = dict(guard)
    return options


class RemoteStream:
    """One streaming request: rows as they arrive, then the trailer
    (warnings, stats, the done frame)."""

    def __init__(self, client: "LyricClient", request_id: int,
                 queue: asyncio.Queue) -> None:
        self._client = client
        self.request_id = request_id
        self._queue = queue
        self.warnings: list[str] = []
        self.stats: dict[str, Any] | None = None
        self.done: dict[str, Any] | None = None
        self._finished = False

    @property
    def columns(self) -> tuple[str, ...]:
        if self.done is None:
            raise RuntimeError("columns arrive with the done frame; "
                               "drain the stream first")
        return tuple(self.done["columns"])

    def __aiter__(self) -> AsyncIterator[ResultRow]:
        return self._rows()

    async def _rows(self) -> AsyncIterator[ResultRow]:
        while not self._finished:
            frame = await self._queue.get()
            kind = frame.get("type")
            if kind == "row":
                values = tuple(load_oid(v, trusted=True)
                               for v in frame["values"])
                oid = load_oid(frame["oid"], trusted=True) \
                    if frame.get("oid") is not None else None
                yield ResultRow(values, oid)
            elif kind == "warning":
                self.warnings.append(frame["message"])
            elif kind == "stats":
                self.stats = frame["stats"]
            elif kind == "done":
                self.done = frame
                self._finished = True
                self._client._release(self.request_id)
            elif kind == "error":
                self._finished = True
                self._client._release(self.request_id)
                _raise_for(frame)

    async def result(self) -> ResultSet:
        """Drain and materialize, exactly as the in-process API
        would."""
        rows = [row async for row in self]
        result = ResultSet(self.columns)
        for warning in self.warnings:
            result.add_warning(warning)
        for row in rows:
            result.add(row)
        return result

    async def cancel(self) -> None:
        await self._client.cancel(self.request_id)


class LyricClient:
    """A framed-protocol connection.  Use :func:`connect`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._next_id = 1
        self._inboxes: dict[int, asyncio.Queue] = {}
        self._closed = False
        self._conn_error: dict | None = None
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self.hello: dict[str, Any] | None = None

    # -- plumbing --------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await protocol.read_frame(self._reader)
                if frame is None:
                    break
                inbox = self._inboxes.get(frame.get("id"))
                if inbox is not None:
                    inbox.put_nowait(frame)
                elif frame.get("id") is None \
                        and frame.get("type") == "error":
                    # A connection-level rejection (max_sessions,
                    # shutting_down): fail every waiter.
                    for waiting in self._inboxes.values():
                        waiting.put_nowait(frame)
                    self._conn_error = frame
        except (protocol.ProtocolError, ConnectionError, OSError):
            pass
        finally:
            self._closed = True
            eof = {"id": None, "type": "error", "code": "closed",
                   "message": "connection closed"}
            for waiting in self._inboxes.values():
                waiting.put_nowait(eof)

    async def _request(self, payload: dict) -> int:
        if self._closed:
            raise ServerError("closed", "connection closed")
        request_id = self._next_id
        self._next_id += 1
        payload["id"] = request_id
        self._inboxes[request_id] = asyncio.Queue()
        async with self._write_lock:
            self._writer.write(protocol.encode_frame(payload))
            await self._writer.drain()
        return request_id

    def _release(self, request_id: int) -> None:
        self._inboxes.pop(request_id, None)

    async def _reply(self, request_id: int) -> dict:
        """The single reply frame of a non-streaming request."""
        frame = await self._inboxes[request_id].get()
        self._release(request_id)
        if frame.get("type") == "error":
            _raise_for(frame)
        return frame

    # -- verbs -----------------------------------------------------------

    async def handshake(self) -> dict:
        self.hello = await self._reply(
            await self._request({"op": "hello"}))
        return self.hello

    async def stream(self, text: str, *,
                     params: Mapping[str, object] | None = None,
                     translated: bool = True,
                     use_optimizer: bool | None = None,
                     guard: Mapping[str, Any] | None = None
                     ) -> RemoteStream:
        """Start a query; rows stream through the returned handle.
        ``use_optimizer`` left as ``None`` keeps the server's
        setting."""
        options = _query_options(translated, use_optimizer, guard)
        request_id = await self._request(
            {"op": "query", "text": text,
             "params": _encode_params(params), "options": options})
        return RemoteStream(self, request_id,
                            self._inboxes[request_id])

    async def query(self, text: str, **kwargs: Any) -> ResultSet:
        """Run a query to completion and materialize the result."""
        return await (await self.stream(text, **kwargs)).result()

    async def prepare(self, name: str, text: str) -> dict:
        return await self._reply(await self._request(
            {"op": "prepare", "name": name, "text": text}))

    async def execute_stream(self, name: str, *,
                             params: Mapping[str, object]
                             | None = None,
                             translated: bool = True,
                             use_optimizer: bool | None = None,
                             guard: Mapping[str, Any] | None = None
                             ) -> RemoteStream:
        options = _query_options(translated, use_optimizer, guard)
        request_id = await self._request(
            {"op": "execute", "name": name,
             "params": _encode_params(params), "options": options})
        return RemoteStream(self, request_id,
                            self._inboxes[request_id])

    async def execute(self, name: str, **kwargs: Any) -> ResultSet:
        return await (await self.execute_stream(name,
                                                **kwargs)).result()

    async def view(self, text: str) -> dict:
        return await self._reply(await self._request(
            {"op": "view", "text": text}))

    async def cancel(self, target: int) -> dict:
        return await self._reply(await self._request(
            {"op": "cancel", "target": target}))

    async def stats(self) -> dict:
        frame = await self._reply(
            await self._request({"op": "stats"}))
        return frame["stats"]

    async def close(self) -> None:
        if not self._closed:
            try:
                await self._reply(await self._request(
                    {"op": "close"}))
            except (ReproError, ConnectionError, OSError):
                pass
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def connect(host: str = "127.0.0.1", port: int = 7407, *,
                  handshake: bool = True) -> LyricClient:
    """Open a framed-protocol connection (and say HELLO)."""
    reader, writer = await asyncio.open_connection(host, port)
    client = LyricClient(reader, writer)
    if handshake:
        await client.handshake()
    return client
