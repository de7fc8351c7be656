"""``serve_mix`` — whole requests through ``repro serve``.

An office database is saved with ``model.serialize.save_database`` and
served by one ``python -m repro.cli serve <db.json> --port 0``
subprocess started with the CLI's defaults (so ``--executor auto`` is
what gets measured; what it resolved to is recorded).  One closed-loop
connection issues a seeded schedule of 70 % point lookups and 30 % CST
templates; the traced run adds a concurrent pass of two connections
with per-client parameters, so few requests collapse in the server's
in-flight dedup.  The load generator is this one process.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import os
import random
import sys
import time

from repro import lyric
from repro.client import LyricClient, connect
from repro.errors import ReproError
from repro.model.serialize import load_oid, save_database
from repro.runtime.context import QueryContext
from repro.server import protocol
from repro.workloads import office

from bench import layers
from bench.common import (
    ROOT,
    Clock,
    Pass,
    Sequence,
    Tally,
    WallClock,
    Yardstick,
    mean,
    median,
    peak_rss_mb,
    rows_bytes,
    scratch_dir,
)
from bench.text import (
    COLOR_LOOKUP,
    INVENTORY_LOOKUP,
    PROJECTION_QUERY,
    TRACE_OPS,
    Instance,
    Op,
    Template,
    TextWorkload,
    office_pools,
    replay,
    static_probes,
)

#: Connections of the timed run: one closed loop, so at most one
#: request is in flight and client, server and worker take turns on
#: the one CPU the run is pinned to.  More connections than that had
#: the processes queue for the CPU, and the latencies followed the
#: scheduler (``op_p50_ms`` spread 28 % between runs).
CLIENTS = 1
#: Connections of the traced run's concurrent pass, which is there to
#: exercise the in-flight dedup and the executor's fallbacks.
TRACE_CLIENTS = 2
#: ``save_database`` calls per pass: one takes a few milliseconds, too
#: short a sample on its own.
SAVES = 5


def build(seed: int, size: dict) -> Instance:
    """The office database plus one parameter-pair pool per client."""
    db = office.generate(size["n"], seed).db
    rng = random.Random(seed + 1)
    pools = office_pools(size["n"], 0, rng)
    for client in range(TRACE_CLIENTS):
        pools[f"pair{client}"] = office_pools(
            0, size["pairs"], rng)["pair"]
    return Instance(db, pools, seed)


def workload_for(client: int) -> TextWorkload:
    """Client ``client``'s mix.  Lookups take 14 of 20 slots, so the
    median request is a lookup; the projection is the slowest template
    and takes 4, so the p90 rank falls in the middle of its band."""
    return TextWorkload("serve_mix", build, (
        Template("lookup_color", COLOR_LOOKUP, 7, pool="col"),
        Template("lookup_inventory", INVENTORY_LOOKUP, 7, pool="inv"),
        Template("placed_extent", office.PLACED_EXTENT_QUERY, 2),
        Template("projection", PROJECTION_QUERY, 4,
                 pool=f"pair{client}"),
    ))


class Served:
    """One server subprocess and the connections to it."""

    def __init__(self, process: asyncio.subprocess.Process, port: int):
        self.process = process
        self.port = port
        self.clients: list[LyricClient] = []


@contextlib.asynccontextmanager
async def serving(db_path: str):
    """Start ``repro serve`` on ``db_path`` and wait for its
    "listening" line (interpreter start, imports, ``load_database``,
    bind); on the way out — failure included — close the connections,
    stop the process and wait for it to end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    process = await asyncio.create_subprocess_exec(
        sys.executable, "-m", "repro.cli", "serve", db_path,
        "--port", "0", stdout=asyncio.subprocess.PIPE, env=env)
    try:
        line = await asyncio.wait_for(process.stdout.readline(), 60)
        if not line.startswith(b"listening on "):
            raise RuntimeError(f"server did not start: {line!r}")
        served = Served(process, int(line.rsplit(b":", 1)[1]))
        try:
            yield served
        finally:
            for client in served.clients:
                await client.close()
    finally:
        if process.returncode is None:
            process.terminate()
            try:
                await asyncio.wait_for(process.wait(), 20)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()


async def request(client: LyricClient, template: Template,
                  params: dict | None):
    return await client.query(template.text, params=params)


async def first_requests(served: Served, inst: Instance, tally: Tally,
                         yardstick: Yardstick) -> tuple[float, list[float]]:
    """Connect to the fresh server and send each template's first
    request; ``(seconds to connect, cold ms per template)`` at the
    reference speed."""
    async def connect_one() -> None:
        served.clients.append(await connect(port=served.port))

    async def first(template: Template) -> None:
        bindings = template.bindings(inst)
        try:
            await request(served.clients[0], template, bindings[0])
            tally.ok()
        except ReproError as exc:
            tally.fail(f"cold {template.name}: {exc}")

    sequence = Sequence(yardstick)
    for step in [connect_one] + [
            functools.partial(first, template)
            for template in workload_for(0).templates]:
        sequence.start()
        await step()
        sequence.stop()
    connected, *cold = sequence.finish()
    return connected, [1000.0 * s for s in cold]


async def touch_pools(served: Served, inst: Instance, tally: Tally,
                      yardstick: Yardstick, clients: int = CLIENTS) -> float:
    """Bring the connections up to ``clients`` and send every pooled
    binding once per client, so the block starts with the caches as
    full as this workload can make them; the seconds it took, at the
    reference speed."""
    sequence = Sequence(yardstick)
    sequence.start()
    while len(served.clients) < clients:
        served.clients.append(await connect(port=served.port))
    for client_no, client in enumerate(served.clients):
        for template in workload_for(client_no).templates:
            for params in template.bindings(inst)[client_no == 0:]:
                try:
                    await request(client, template, params)
                    tally.ok()
                except ReproError as exc:
                    tally.fail(f"warm-up {template.name}: {exc}")
    sequence.stop()
    return sequence.finish()[0]


async def client_loop(client: LyricClient, client_no: int, ops: list[Op],
                      yardstick: Yardstick, keep: bool, tally: Tally):
    """One closed loop over the block: the next request goes out when
    the previous reply has fully arrived (and the yardstick has been
    sampled); ``(ms at the reference speed per request, kept)``.  With
    ``keep`` each template's first result is kept for the oracle."""
    wanted = {t.name: int(keep) for t in workload_for(client_no).templates}
    kept = []
    sequence = Sequence(yardstick)
    for op in ops:
        result = None
        sequence.start()
        try:
            result = await request(client, op.template, op.params)
            tally.ok()
        except ReproError as exc:
            tally.fail(f"client {client_no} op {op.index} "
                       f"({op.template.name}): {exc}")
        sequence.stop()
        if result is not None and wanted[op.template.name] > 0:
            wanted[op.template.name] -= 1
            kept.append((op, result))
    return [1000.0 * s for s in sequence.finish()], kept


async def _measure(seed: int, seconds: float, size: dict, tmp: str,
                   tally: Tally) -> tuple[list[Pass], list, dict, Instance]:
    """Passes until the clock runs out, as in ``text.measure``: every
    pass generates the database again, saves it, starts a server of
    its own on it, warms that up (the set-up; each template's first
    request is the pass's cold sample) and runs the block over one
    connection.

    This workload persists through the JSON file the server loads, so
    its storage figures are that path's: objects written per second of
    ``save_database``, objects per second of server start-up (spawn to
    listening: interpreter, imports, ``load_database``), file bytes
    per object."""
    passes, kept = [], []
    db_path = os.path.join(tmp, "db.json")
    clock = Clock(seconds, size["min_passes"])
    while clock.more():
        yardstick = Yardstick()
        inst, built = yardstick.timed(lambda: build(seed, size))
        _, saves = yardstick.timed_each(
            [lambda: save_database(inst.db, db_path)] * SAVES)
        # A server that is started only to be timed, then the pass's own.
        sequence = Sequence(yardstick)
        sequence.start()
        async with serving(db_path):
            sequence.stop()
        sequence.start()
        async with serving(db_path) as served:
            sequence.stop()
            starts = sequence.finish()
            connected, cold_ms = await first_requests(
                served, inst, tally, yardstick)
            touched = await touch_pools(served, inst, tally, yardstick)
            ops = list(itertools.islice(
                workload_for(0).schedule(seed * 31, inst), size["ops"]))
            # The first pass's first requests go to the oracle.
            began = time.perf_counter()
            latencies, held = await client_loop(
                served.clients[0], 0, ops, yardstick, not passes, tally)
            clock.add(time.perf_counter() - began)
            kept += held
            stats = await served.clients[0].stats()
        passes.append(Pass(
            yardstick.slowdown,
            built + saves[0] + starts[-1] + connected
            + sum(cold_ms) / 1000.0 + touched,
            cold_ms, latencies,
            median(saves) / len(inst.db), mean(starts) / len(inst.db),
            os.path.getsize(db_path) / len(inst.db)))
    return passes, kept, stats, inst


def measure(_name: str, seed: int, seconds: float, size: dict) -> dict:
    tally = Tally()
    with scratch_dir() as tmp:
        passes, kept, stats, inst = asyncio.run(
            _measure(seed, seconds, size, tmp, tally))
    # Every server has been waited for, so this is the largest
    # resident set any process of the served trees reached.
    rss = peak_rss_mb(children=True)
    reference = build(inst.seed, size).db
    for op, result in kept:
        expected = lyric.query(
            reference, op.template.text, params=op.params,
            ctx=QueryContext(cache=None, plan_cache=None))
        tally.check(rows_bytes(result) == rows_bytes(expected),
                    f"request {op.index} ({op.template.name}) differs "
                    f"from lyric.query")
    return {"passes": passes, "peak_rss_mb": rss, "tally": tally,
            "info": {"rows": len(inst.db), "oracle_ops": len(kept),
                     "executor": stats["executor"],
                     "process_requests": stats["process_requests"],
                     "process_fallbacks": stats["process_fallbacks"],
                     "dedup_hits": stats["dedup_hits"]}}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


async def decode_frames(blob: bytes) -> tuple[list[dict], float]:
    """Split ``blob`` back into frames with the protocol's own reader;
    ``(frames, seconds)``."""
    reader = asyncio.StreamReader()
    reader.feed_data(blob)
    reader.feed_eof()
    frames = []
    start = time.perf_counter()
    while (frame := await protocol.read_frame(reader)) is not None:
        frames.append(frame)
    return frames, time.perf_counter() - start


async def _served_passes(inst: Instance, ops: list, size: dict,
                         db_path: str, tally: Tally) -> dict:
    """What only a live server can tell: request latency over one
    sequential connection, connection cost, and the service's own
    counters after a short concurrent pass of every client."""
    save_database(inst.db, db_path)
    async with serving(db_path) as served:
        await first_requests(served, inst, tally, WallClock())
        await touch_pools(served, inst, tally, WallClock(), TRACE_CLIENTS)
        connects = []
        for _ in range(5):
            start = time.perf_counter()
            extra = await connect(port=served.port)
            connects.append(time.perf_counter() - start)
            await extra.close()
        remote: dict[str, list[float]] = {}
        for op in ops:
            start = time.perf_counter()
            await request(served.clients[0], op.template, op.params)
            remote.setdefault(op.template.name, []).append(
                time.perf_counter() - start)
            tally.ok()

        async def burst(client_no: int, client: LyricClient) -> None:
            stream = workload_for(client_no).schedule(
                inst.seed * 31 + client_no, inst)
            for op in itertools.islice(stream, len(ops)):
                await request(client, op.template, op.params)
                tally.ok()
        await asyncio.gather(*[burst(no, c) for no, c
                               in enumerate(served.clients)])
        stats = await served.clients[0].stats()
    return {"remote": remote, "connect_s": median(connects),
            "stats": stats}


def trace(_name: str, seed: int, size: dict) -> tuple[dict, Tally, dict]:
    tally = Tally()
    inst = build(seed, size)
    workload = workload_for(0)
    ops = list(itertools.islice(
        workload.schedule(seed * 31, inst), TRACE_OPS))
    with scratch_dir() as tmp:
        served = asyncio.run(_served_passes(
            inst, ops, size, os.path.join(tmp, "db.json"), tally))
        # The same operations in this process: the reference the
        # server's overhead is measured against, and the staged path.
        values, untraced, encoded = replay(workload, inst, ops, tally)
        values.update(static_probes(workload, inst, ops, tmp, tally))

    local: dict[str, list[float]] = {}
    for op, seconds in zip(ops, untraced):
        local.setdefault(op.template.name, []).append(seconds)
    overhead = sum(
        len(samples) * (median(samples) - median(local[template]))
        for template, samples in served["remote"].items()) / len(ops)

    frames, decode_s = asyncio.run(decode_frames(
        b"".join(frame for frames in encoded for frame in frames)))
    start = time.perf_counter()
    for frame in frames:
        if frame["type"] == "row":
            for value in frame["values"]:
                load_oid(value)
    rebuild_s = time.perf_counter() - start

    stats = served["stats"]
    pool = stats["pool"]
    values.update({
        "server.overhead_ms": 1000.0 * overhead,
        "server.frame_decode_us": 1e6 * decode_s / len(frames),
        "server.dedup_hit_ratio": layers.ratio(
            stats["dedup_hits"],
            stats["dedup_hits"] + stats["dedup_misses"]),
        "server.process_fallback_ratio": layers.ratio(
            stats["process_fallbacks"],
            stats["process_fallbacks"] + stats["process_requests"]),
        "client.connect_ms": 1000.0 * served["connect_s"],
        "client.decode_ms": 1000.0 * rebuild_s / len(ops),
        "runtime.pool_dispatches_per_op": layers.ratio(
            pool["pool_dispatches"], stats["requests"]),
        "runtime.parallel_fallbacks": pool["fallbacks"]
            + stats["execution"]["parallel_fallbacks"],
    })
    return values, tally, {
        "traced_ops": len(ops), "clients": TRACE_CLIENTS,
        "executor": stats["executor"],
        "requests": stats["requests"]}
