"""One :class:`Session` per accepted connection.

A session owns the per-connection state — request ids in flight, the
prepared-statement namespace, the write half of the socket — and
translates between the wire and the shared
:class:`~repro.server.service.QueryService`.

Framed mode handles requests *concurrently*: each QUERY/EXECUTE
spawns a pump task that streams its subscription's events out as
frames, while the read loop keeps reading — which is what lets a
CANCEL for an in-flight request arrive and take effect mid-stream.
One write lock serializes frames onto the socket; a request's own
frames stay in order because they all flow through its single pump.

Line mode (telnet) is deliberately thinner: sequential
request/response, text rendering, no mid-query cancel.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro import lyric
from repro.model.oid import Oid, as_oid
from repro.model.serialize import load_oid
from repro.server import protocol
from repro.server.service import QueryService, Subscription


def _decode_params(payload: Any) -> dict[str, Oid] | None:
    """Wire parameter bindings -> oids.  Tagged terms go through
    :func:`load_oid` — untrusted: the client wrote them, so a ``cst``
    is canonicalised; plain scalars (numbers, strings) coerce like the
    ``params=`` mapping of the in-process API."""
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise protocol.ProtocolError("params must be an object")
    out: dict[str, Oid] = {}
    for name, value in payload.items():
        if isinstance(value, dict):
            out[name] = load_oid(value)
        else:
            out[name] = as_oid(value)
    return out


class Session:
    """The protocol state machine for one connection."""

    _ids = iter(range(1, 1 << 62))

    def __init__(self, service: QueryService,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.service = service
        self.reader = reader
        self.writer = writer
        self.session_id = next(Session._ids)
        #: request id -> live subscription (the CANCEL target table).
        self.active: dict[int, Subscription] = {}
        self.prepared: dict[str, lyric.PreparedQuery] = {}
        self._write_lock = asyncio.Lock()
        self._pumps: set[asyncio.Task] = set()
        self._closing = False

    # -- top level -------------------------------------------------------

    async def run(self) -> None:
        self.service.stats.note_session(opened=True)
        try:
            first = await self.reader.read(1)
            if not first:
                return
            if first == b"\x00":
                await self._run_framed(first)
            else:
                await self._run_lines(first)
        except (protocol.ProtocolError, ConnectionError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self._closing = True
            for subscription in list(self.active.values()):
                subscription.cancel()
            if self._pumps:
                await asyncio.gather(*self._pumps,
                                     return_exceptions=True)
            self.service.stats.note_session(opened=False)
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def force_cancel(self) -> None:
        """Cancel every in-flight request (shutdown past deadline)."""
        for subscription in list(self.active.values()):
            subscription.cancel()

    # -- framed mode -----------------------------------------------------

    async def _run_framed(self, prefix: bytes) -> None:
        while not self._closing:
            try:
                frame = await protocol.read_frame(self.reader, prefix)
            except protocol.ProtocolError as exc:
                await self._send({"id": None, "type": "error",
                                  "code": "bad_request",
                                  "message": str(exc)})
                return
            prefix = b""
            if frame is None:
                return
            if not await self._dispatch(frame):
                return

    async def _dispatch(self, frame: dict) -> bool:
        """Handle one request frame; False ends the session."""
        op = frame.get("op")
        request_id = frame.get("id")
        try:
            if op == "hello":
                await self._send({
                    "id": request_id, "type": "hello",
                    "server": "lyric", "version":
                        protocol.PROTOCOL_VERSION,
                    "session": self.session_id,
                    "engines": ["translated", "naive"]})
            elif op == "close":
                await self._send({"id": request_id, "type": "bye"})
                return False
            elif op == "stats":
                await self._send({
                    "id": request_id, "type": "stats",
                    "stats": self.service.stats.snapshot()})
            elif op == "cancel":
                target = frame.get("target")
                subscription = self.active.get(target)
                if subscription is not None:
                    subscription.cancel()
                await self._send({
                    "id": request_id, "type": "cancelled",
                    "target": target,
                    "found": subscription is not None})
            elif op in ("query", "execute", "view"):
                if self.service.draining:
                    await self._send({
                        "id": request_id, "type": "error",
                        "code": "shutting_down",
                        "message": "server is shutting down"})
                    return True
                if op == "view":
                    await self._handle_view(request_id, frame)
                else:
                    await self._start_query(request_id, frame, op)
            elif op == "prepare":
                name = frame.get("name")
                text = frame.get("text")
                if not isinstance(name, str) \
                        or not isinstance(text, str):
                    raise protocol.ProtocolError(
                        "prepare requires string 'name' and 'text'")
                statement = self._prepare(name, text)
                await self._send({
                    "id": request_id, "type": "prepared",
                    "name": name, "params": list(statement.params),
                    "warnings": statement.warnings})
            else:
                raise protocol.ProtocolError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - wire boundary
            await self._send({
                "id": request_id, "type": "error",
                "code": protocol.error_code(exc),
                "message": str(exc)})
        return True

    def _prepare(self, name: str, text: str) -> lyric.PreparedQuery:
        """PREPARE, in either dialect, over the service's parse memo:
        EXECUTE then submits the AST a QUERY of the same text would."""
        statement = lyric.prepare(self.service.db,
                                  self.service.parse(text))
        self.prepared[name] = statement
        return statement

    async def _start_query(self, request_id: Any, frame: dict,
                           op: str) -> None:
        options = frame.get("options") or {}
        params = _decode_params(frame.get("params"))
        if op == "execute":
            name = frame.get("name")
            statement = self.prepared.get(name)
            if statement is None:
                raise protocol.ProtocolError(
                    f"no prepared query {name!r}")
            statement.require_bound(params)
            query_ast = statement.query
        else:
            text = frame.get("text")
            if not isinstance(text, str):
                raise protocol.ProtocolError(
                    "query requires string 'text'")
            query_ast = self.service.parse(text)
        subscription = await self.service.submit(
            query_ast, params=params,
            translated=options.get("translated", True),
            use_optimizer=options.get("use_optimizer"),
            guard_spec=options.get("guard"))
        self.active[request_id] = subscription
        pump = asyncio.ensure_future(
            self._pump(request_id, subscription))
        self._pumps.add(pump)
        pump.add_done_callback(self._pumps.discard)

    async def _pump(self, request_id: Any,
                    subscription: Subscription) -> None:
        try:
            async for event in subscription.events():
                await self._write_event(request_id, subscription,
                                        event)
        except (ConnectionError, OSError):
            subscription.cancel()
        finally:
            self.active.pop(request_id, None)

    async def _write_event(self, request_id: Any,
                           subscription: Subscription,
                           event: tuple) -> None:
        kind = event[0]
        if kind == "rows":
            frames = [{"id": request_id, "type": "row",
                       "values": values, "oid": oid}
                      for values, oid in event[1]]
        elif kind == "warning":
            frames = [{"id": request_id, "type": "warning",
                       "message": event[1]}]
        elif kind == "stats":
            frames = [{"id": request_id, "type": "stats",
                       "stats": event[1]}]
        elif kind == "done":
            body = dict(event[1])
            body["dedup"] = subscription.deduped
            frames = [{"id": request_id, "type": "done", **body}]
        else:  # error
            frames = [{"id": request_id, "type": "error",
                       "code": event[1], "message": event[2]}]
        async with self._write_lock:
            for frame in frames:
                self.writer.write(protocol.encode_frame(frame))
            await self.writer.drain()

    async def _handle_view(self, request_id: Any,
                           frame: dict) -> None:
        text = frame.get("text")
        if not isinstance(text, str):
            raise protocol.ProtocolError(
                "view requires string 'text'")
        options = frame.get("options") or {}
        summary = await self.service.run_view(
            text, guard_spec=options.get("guard"))
        await self._send({"id": request_id, "type": "view",
                          **summary})

    async def _send(self, payload: dict) -> None:
        async with self._write_lock:
            self.writer.write(protocol.encode_frame(payload))
            await self.writer.drain()

    # -- line mode -------------------------------------------------------

    async def _run_lines(self, first: bytes) -> None:
        buffer = first
        while not self._closing:
            line = await self.reader.readline()
            raw = (buffer + line)
            buffer = b""
            if not raw.strip() and not line:
                return
            text = raw.decode("utf-8", "replace").strip()
            if not text:
                if not line:
                    return
                continue
            if not await self._line_command(text):
                return
            if not line:
                return

    async def _line_command(self, text: str) -> bool:
        lowered = text.lower().rstrip(";").strip()
        body = text.rstrip(";").strip()
        try:
            if lowered in ("close", "quit", "exit"):
                await self._say("bye")
                return False
            if lowered == "hello":
                await self._say(
                    f"ok lyric v{protocol.PROTOCOL_VERSION} "
                    f"session={self.session_id}")
                return True
            if lowered == "stats":
                await self._say("stats " + json.dumps(
                    self.service.stats.snapshot(),
                    separators=(",", ":")))
                return True
            if lowered.startswith("cancel"):
                await self._say("error bad_request: line mode is "
                                "sequential; nothing to cancel")
                return True
            if self.service.draining:
                await self._say(
                    "error shutting_down: server is shutting down")
                return True
            match = lyric.PREPARE_STATEMENT.match(body)
            if match:
                name = match.group(1)
                slots = self._prepare(name, match.group(2)).params
                suffix = (" (" + ", ".join(f"${p}" for p in slots)
                          + ")") if slots else ""
                await self._say(f"prepared {name}{suffix}")
                return True
            match = lyric.EXECUTE_STATEMENT.match(body)
            if match:
                statement = self.prepared.get(match.group(1))
                if statement is None:
                    await self._say(
                        f"error bad_request: no prepared query "
                        f"{match.group(1)!r}")
                    return True
                bindings = lyric.execute_bindings(match.group(2),
                                                  statement.params)
                statement.require_bound(bindings)
                await self._line_query(statement.query, bindings)
                return True
            if lowered.startswith("create"):
                summary = await self.service.run_view(body)
                for name in summary["classes"]:
                    count = summary["instances"].get(name, 0)
                    await self._say(f"{name}: {count} instances")
                await self._say("done")
                return True
            if lowered.startswith("query "):
                body = body[len("query "):]
            await self._line_query(self.service.parse(body), None)
            return True
        except Exception as exc:  # noqa: BLE001 - wire boundary
            await self._say(
                f"error {protocol.error_code(exc)}: {exc}")
            return True

    async def _line_query(self, query_ast,
                          params: dict | None) -> None:
        subscription = await self.service.submit(
            query_ast, params=params)
        rows = 0
        async for event in subscription.events():
            kind = event[0]
            if kind == "rows":
                for values, oid in event[1]:
                    rows += 1
                    # The service's own dump_oid output: trusted.
                    rendered = " | ".join(
                        str(load_oid(v, trusted=True)) for v in values)
                    if oid is not None:
                        oid = load_oid(oid, trusted=True)
                        rendered = f"<{oid}> | {rendered}"
                    await self._say(f"row {rendered}")
            elif kind == "warning":
                await self._say(f"warning {event[1]}")
            elif kind == "done":
                suffix = " (partial)" if event[1]["partial"] else ""
                await self._say(
                    f"done {event[1]['rows']} rows via "
                    f"{event[1]['engine']}{suffix}")
            elif kind == "error":
                await self._say(f"error {event[1]}: {event[2]}")

    async def _say(self, line: str) -> None:
        async with self._write_lock:
            self.writer.write(line.encode("utf-8") + b"\n")
            await self.writer.drain()
