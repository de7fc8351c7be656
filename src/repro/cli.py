"""Command-line interface: run LyriC against JSON databases.

    python -m repro demo
    python -m repro dump-office office.json
    python -m repro query office.json "SELECT X FROM Desk X"
    python -m repro query --office "SELECT X FROM Desk X" --shards 4
    python -m repro view office.json "CREATE VIEW ... " --save out.json
    python -m repro schema office.json
"""

from __future__ import annotations

import argparse
import sys

from repro import lyric
from repro.core.pipeline import render_trace
from repro.core.translator import TranslationError
from repro.errors import (
    ConstraintSyntaxError,
    LyricSyntaxError,
    ReproError,
    ResourceExhausted,
    StoreCorruptError,
)
from repro.model.database import Database
from repro.model.office import (
    add_file_cabinet,
    add_regions,
    build_office_database,
)
from repro.model.serialize import read_database, save_database
from repro.runtime import (
    ConstraintCache,
    ExecutionGuard,
    ExecutionStats,
    PlanCache,
    QueryContext,
)
from repro.runtime import cache as cache_mod
from repro.storage import (
    CLEAN,
    DURABILITY_POLICIES,
    RECOVERED,
    Store,
    UNRECOVERABLE,
)

#: Exit codes: syntax problems, resource exhaustion, and store health
#: are distinguishable by scripts; every other library error is 1.
EXIT_ERROR = 1
EXIT_SYNTAX = 2
EXIT_RESOURCE = 3
#: The store opened, but recovery had to drop or repair something.
EXIT_STORE_RECOVERED = 4
#: No consistent state could be recovered at all.
EXIT_STORE_UNRECOVERABLE = 5


def _office_database() -> Database:
    db, _ = build_office_database()
    add_file_cabinet(db)
    add_regions(db)
    return db


def _load(args) -> Database:
    store_path = getattr(args, "store", None)
    if store_path:
        store = Store.open(
            store_path,
            readonly=getattr(args, "_store_readonly", True))
        args._open_store = store
        if store.report is not None \
                and store.report.state != CLEAN:
            for warning in store.report.warnings:
                print(f"store warning: {warning}", file=sys.stderr)
        return store.db
    if getattr(args, "office", False):
        return _office_database()
    if not args.database:
        raise SystemExit(
            "a database file is required (or pass --office or --store)")
    return read_database(args.database)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _shard_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"needs at least 2 shards, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be positive, got {text!r}")
    return value


def _add_context_options(parser: argparse.ArgumentParser) -> None:
    """The flags every executing subcommand gets — guard budgets, the
    constraint cache and the numeric kernel, which both engines read —
    folded by :func:`_context_from` into one
    :class:`~repro.runtime.QueryContext`."""
    group = parser.add_argument_group("resource limits")
    group.add_argument("--timeout", type=_positive_float,
                       metavar="SECONDS",
                       help="wall-clock deadline for the execution")
    group.add_argument("--max-pivots", type=_positive_int, metavar="N",
                       help="exact-simplex pivot budget")
    group.add_argument("--max-branches", type=_positive_int, metavar="N",
                       help="disequality branch budget")
    group.add_argument("--max-disjuncts", type=_positive_int, metavar="N",
                       help="cap on the size of any disjunction")
    group.add_argument("--max-canonical", type=_positive_int, metavar="N",
                       help="canonicalisation work budget")
    group.add_argument("--on-exhaustion", choices=("fail", "degrade"),
                       default="fail",
                       help="on budget exhaustion: fail the query "
                            "(default) or return a partial result "
                            "with a warning")
    group = parser.add_argument_group("constraint engine")
    group.add_argument("--no-cache", action="store_true",
                       help="disable constraint-level memoization and "
                            "the interval prefilter (the A/B baseline)")
    group.add_argument("--cache-size", type=_positive_int, metavar="N",
                       help="use a fresh constraint cache of at most "
                            "N entries for this command")
    group.add_argument("--no-numeric", action="store_true",
                       help="disable the float kernel, on by default "
                            "(its ε-sound rejects included): every "
                            "satisfiability check runs the exact "
                            "rational simplex")


def _add_plan_options(parser: argparse.ArgumentParser) -> None:
    """The flags only the translated engine reads: the plan cache and
    the plan's execution strategy.  ``query`` and ``shell`` take them,
    because :func:`repro.lyric.stream` runs translated; ``view`` keeps
    the reference evaluator and so does not."""
    group = parser.add_argument_group("plan cache")
    group.add_argument("--no-plan-cache", action="store_true",
                       help="compile every query from scratch "
                            "(disable the compiled-plan cache)")
    group.add_argument("--plan-cache-size", type=_positive_int,
                       metavar="N",
                       help="use a fresh compiled-plan cache of at "
                            "most N entries for this command")
    group = parser.add_argument_group("execution strategy")
    group.add_argument("--shards", type=_shard_count, metavar="N",
                       default=0,
                       help="range-partition catalog relations into N "
                            "shards with per-shard indexes maintained "
                            "at ingest, enabling scatter-gather joins "
                            "with shard-pair envelope pruning "
                            "(default 0 = monolithic; N >= 2)")
    group.add_argument("--no-index", action="store_true",
                       help="disable box-index join acceleration (the "
                            "optimizer keeps plain NaturalJoin plans)")


def _context_from(args, guard: ExecutionGuard | None = None
                  ) -> QueryContext:
    """One :class:`~repro.runtime.QueryContext` from the shared CLI
    flags: ``--no-cache``/``--cache-size`` pick the cache,
    ``--no-index`` and ``--shards`` the execution strategy, and the
    resource-limit flags the guard (``guard`` overrides when given —
    the shell derives a fresh one per statement)."""
    kwargs: dict = {
        "guard": guard if guard is not None else _guard_from(args),
        "indexing": not getattr(args, "no_index", False),
        "shards": getattr(args, "shards", 0),
        "stats": ExecutionStats(),
    }
    if getattr(args, "no_numeric", False):
        kwargs["numeric"] = False
    if getattr(args, "no_cache", False):
        kwargs["cache"] = None
        kwargs["prefilter"] = False
    elif getattr(args, "cache_size", None) is not None:
        kwargs["cache"] = ConstraintCache(maxsize=args.cache_size)
    if getattr(args, "no_plan_cache", False):
        kwargs["plan_cache"] = None
    elif getattr(args, "plan_cache_size", None) is not None:
        kwargs["plan_cache"] = PlanCache(maxsize=args.plan_cache_size)
    return QueryContext(**kwargs)


def _cache_status(args) -> str:
    if getattr(args, "no_cache", False):
        return "cache: disabled (prefilter off)"
    size = getattr(args, "cache_size", None)
    if size is not None:
        return f"cache: fresh, size {size}"
    counters = cache_mod.get_global_cache().counters()
    return (f"cache: global, size "
            f"{cache_mod.get_global_cache().maxsize} "
            f"({counters['entries']} entries)")


def _print_analysis(stats: ExecutionStats) -> None:
    """The ``--explain --analyze`` report: per-phase timing trace plus
    the execution's cache/prefilter/index effectiveness counters."""
    print(render_trace(stats))
    print(f"cache: {stats.cache_hits} hits, "
          f"{stats.cache_misses} misses, "
          f"{stats.cache_evictions} evictions, "
          f"{stats.cache_simplex_saved} simplex solves saved")
    print(f"prefilter: {stats.box_checks} checks, "
          f"{stats.box_refutations} refutations")
    print(f"index: {stats.index_probes} probes, "
          f"{stats.candidates_pruned} pairs pruned")
    if stats.shard_joins:
        print(f"shards: {stats.shard_joins} scatter-gather joins, "
              f"{stats.shard_pairs_probed} shard pairs probed, "
              f"{stats.shard_pairs_pruned} pruned by envelope")
    print(f"numeric: {stats.numeric_accepts} accepts, "
          f"{stats.numeric_rejects} rejects, "
          f"{stats.numeric_fallbacks} exact fallbacks, "
          f"{stats.template_rows} template rows")
    engine = f"engine: {stats.engine_fallbacks} naive fallbacks"
    if stats.engine_fallback_reason is not None:
        engine += f" ({stats.engine_fallback_reason})"
    print(engine)
    print(f"plan cache: {stats.plan_cache_hits} hits, "
          f"{stats.plan_cache_misses} misses, "
          f"{stats.plan_cache_invalidations} invalidations, "
          f"{stats.plan_compile_saved * 1000:.3f} ms compile saved")


def _guard_from(args) -> ExecutionGuard | None:
    """An ExecutionGuard from the CLI flags, or None when no limit was
    requested (the zero-overhead default)."""
    limits = {
        "deadline": getattr(args, "timeout", None),
        "max_pivots": getattr(args, "max_pivots", None),
        "max_branches": getattr(args, "max_branches", None),
        "max_disjuncts": getattr(args, "max_disjuncts", None),
        "max_canonical": getattr(args, "max_canonical", None),
    }
    if all(v is None for v in limits.values()):
        return None
    return ExecutionGuard(on_exhaustion=getattr(args, "on_exhaustion",
                                                "fail"),
                          **limits)


def cmd_demo(args) -> int:
    db = _office_database()
    print(f"office database: {len(db)} objects")
    print(db.schema)
    result = lyric.query(db, """
        SELECT CO, ((u,v) | E and D and x = 6 and y = 4)
        FROM Office_Object CO
        WHERE CO.extent[E] and CO.translation[D]
    """)
    print("\nSELECT CO, ((u,v) | E and D and x = 6 and y = 4) ...")
    print(result.pretty())
    return 0


def cmd_dump_office(args) -> int:
    save_database(_office_database(), args.path)
    print(f"wrote {args.path}")
    return 0


def cmd_query(args) -> int:
    db = _load(args)
    text = args.query
    if text == "-":
        text = sys.stdin.read()
    ctx = _context_from(args)
    if args.explain:
        if args.analyze:
            try:
                print(lyric.explain(db, text, analyze=True, ctx=ctx))
            except TranslationError:
                # No plan to annotate: run the engine rule, whose naive
                # fallback the analysis names on its ``engine:`` line.
                result = lyric.stream(db, text, ctx=ctx).result()
                print(f"no translated plan: {len(result)} rows from "
                      "the naive evaluator")
            _print_analysis(ctx.stats)
        else:
            print(lyric.explain(db, text, ctx=ctx))
        print(_cache_status(args))
        return 0
    result = lyric.stream(db, text, ctx=ctx).result()
    print(result.pretty(limit=args.limit))
    print(f"({len(result)} rows)")
    return 0


def cmd_shell(args) -> int:
    """A line-oriented REPL: statements end with ';'."""
    db = _load(args)
    print(f"LyriC shell — {len(db)} objects; "
          "end statements with ';', 'quit;' exits")
    buffer: list[str] = []
    stream = sys.stdin
    _shell_loop(db, args, buffer, stream)
    return 0


def _shell_loop(db: Database, args, buffer: list[str], stream) -> None:
    prepared: dict[str, lyric.PreparedQuery] = {}
    while True:
        try:
            line = stream.readline()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            break
        if not line:
            break
        buffer.append(line)
        if ";" not in line:
            continue
        text = "".join(buffer).strip().rstrip(";").strip()
        buffer = []
        if not text:
            continue
        if text.lower() in ("quit", "exit"):
            break
        try:
            # A fresh guard per statement: one exhausted query must not
            # poison the budgets of the next.
            ctx = _context_from(args, guard=_guard_from(args))
            prepare_match = lyric.PREPARE_STATEMENT.match(text)
            execute_match = lyric.EXECUTE_STATEMENT.match(text)
            if prepare_match:
                name = prepare_match.group(1)
                prepared[name] = lyric.prepare(db,
                                               prepare_match.group(2))
                slots = prepared[name].params
                suffix = (" (parameters: "
                          + ", ".join(f"${p}" for p in slots) + ")"
                          if slots else "")
                print(f"prepared {name}{suffix}")
                continue
            if text.lower().startswith("create"):
                created = lyric.view(db, text, ctx=ctx)
                for name in created.classes:
                    members = created.instances.get(name, [])
                    print(f"{name}: {len(members)} instances")
                continue
            if execute_match:
                name = execute_match.group(1)
                statement = prepared.get(name)
                if statement is None:
                    print(f"error: no prepared query {name!r}",
                          file=sys.stderr)
                    continue
                bindings = lyric.execute_bindings(
                    execute_match.group(2), statement.params)
                result = statement.run(db, ctx=ctx, params=bindings)
            else:
                result = lyric.stream(db, text, ctx=ctx).result()
            print(result.pretty())
            print(f"({len(result)} rows)")
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)


def cmd_view(args) -> int:
    db = _load(args)
    text = args.view
    if text == "-":
        text = sys.stdin.read()
    created = lyric.view(db, text, ctx=_context_from(args))
    for class_name in created.classes:
        members = created.instances.get(class_name, [])
        print(f"{class_name}: {len(members)} instances")
    if args.save:
        save_database(db, args.save)
        print(f"wrote {args.save}")
    return 0


def cmd_schema(args) -> int:
    db = _load(args)
    print(db.schema)
    return 0


# ---------------------------------------------------------------------------
# Durable store verbs
# ---------------------------------------------------------------------------


def cmd_db_save(args) -> int:
    """Create a durable store directory from a JSON database (or the
    built-in office database)."""
    db = _load(args)
    store = Store.create(args.store_dir, db=db,
                         durability=args.durability)
    try:
        print(f"created store {args.store_dir} "
              f"(generation {store.generation}, {len(db)} objects, "
              f"durability {store.durability})")
    finally:
        store.close()
    return 0


def cmd_db_load(args) -> int:
    """Recover a store read-only and report what came back.

    Exit 0 when the store is clean, {EXIT_STORE_RECOVERED} when
    recovery dropped or repaired something,
    {EXIT_STORE_UNRECOVERABLE} when no consistent state exists.
    """
    store = Store.open(args.store_dir, readonly=True)
    try:
        report = store.report
        print(f"{len(store.db)} objects, "
              f"{len(store.relations)} relations")
        assert report is not None
        print(report.describe())
    finally:
        store.close()
    return EXIT_STORE_RECOVERED if report.state == RECOVERED else 0


def cmd_db_verify(args) -> int:
    """Dry-run recovery: replay everything, touch nothing, exit with
    the store's health (0 clean / {EXIT_STORE_RECOVERED} recovered /
    {EXIT_STORE_UNRECOVERABLE} unrecoverable)."""
    report = Store.verify(args.store_dir)
    print(report.describe())
    return {CLEAN: 0, RECOVERED: EXIT_STORE_RECOVERED,
            UNRECOVERABLE: EXIT_STORE_UNRECOVERABLE}[report.state]


def cmd_db_snapshot(args) -> int:
    """Open a store writable, compact its WAL into a fresh snapshot
    generation, and prune old generations."""
    store = Store.open(args.store_dir, durability=args.durability)
    try:
        generation = store.snapshot()
        print(f"snapshot generation {generation} "
              f"({len(store.db)} objects)")
        state = store.report.state if store.report else CLEAN
    finally:
        store.close()
    return EXIT_STORE_RECOVERED if state == RECOVERED else 0


# ---------------------------------------------------------------------------
# The query server
# ---------------------------------------------------------------------------


def cmd_serve(args) -> int:
    """Serve the database over TCP (framed JSON + telnet line mode)."""
    import asyncio
    import json
    import signal

    from repro.server import LyricServer, QueryService, ServerLimits

    db = _load(args)
    store = getattr(args, "_open_store", None)
    limits = ServerLimits(
        deadline=args.guard_timeout,
        max_pivots=args.guard_max_pivots,
        max_branches=args.guard_max_branches,
        max_disjuncts=args.guard_max_disjuncts,
        max_canonical=args.guard_max_canonical,
        max_workers=args.max_workers)
    service = QueryService(db, store=store, limits=limits,
                           executor_threads=args.executor_threads,
                           executor=args.executor)
    server = LyricServer(service, host=args.host, port=args.port,
                         max_sessions=args.max_sessions,
                         drain_timeout=args.drain_timeout)
    if args.warm_pool:
        warmed = service.warm_pool()
        if warmed:
            print(f"warmed {warmed} pool workers", flush=True)

    async def serve() -> None:
        await server.start()
        # Scraped by scripts and the CI smoke test: the actual bound
        # port (``--port 0`` lets the OS pick).
        print(f"listening on {server.host}:{server.port}", flush=True)
        loop = asyncio.get_running_loop()

        def request_shutdown() -> None:
            asyncio.ensure_future(server.shutdown())

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix event loops
        await server.wait_closed()

    asyncio.run(serve())
    if args.dump_stats_on_exit:
        print(json.dumps(service.stats.snapshot(), indent=2,
                         sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LyriC constraint-object queries "
                    "(Brodsky & Kornatzky, SIGMOD 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the paper's worked example")
    demo.set_defaults(fn=cmd_demo)

    dump = sub.add_parser("dump-office",
                          help="write the office database as JSON")
    dump.add_argument("path")
    dump.set_defaults(fn=cmd_dump_office)

    query = sub.add_parser("query", help="evaluate a LyriC query")
    query.add_argument("database", nargs="?",
                       help="JSON database file")
    query.add_argument("query", help="query text, or - for stdin")
    query.add_argument("--office", action="store_true",
                       help="use the built-in office database")
    query.add_argument("--store", metavar="DIR",
                       help="read the database from a durable store "
                            "directory (opened read-only)")
    query.add_argument("--explain", action="store_true",
                       help="print the translated plan instead of "
                            "evaluating")
    query.add_argument("--analyze", action="store_true",
                       help="with --explain: execute the plan and "
                            "annotate each node with row counts and "
                            "cache statistics")
    query.add_argument("--limit", type=int, default=20,
                       help="rows to print")
    _add_context_options(query)
    _add_plan_options(query)
    query.set_defaults(fn=cmd_query)

    shell = sub.add_parser("shell", help="interactive LyriC shell")
    shell.add_argument("database", nargs="?")
    shell.add_argument("--office", action="store_true")
    shell.add_argument("--store", metavar="DIR",
                       help="work against a durable store directory "
                            "(mutations are write-ahead logged)")
    _add_context_options(shell)
    _add_plan_options(shell)
    shell.set_defaults(fn=cmd_shell, _store_readonly=False)

    view = sub.add_parser("view", help="execute a CREATE VIEW")
    view.add_argument("database", nargs="?")
    view.add_argument("view", help="view text, or - for stdin")
    view.add_argument("--office", action="store_true")
    view.add_argument("--store", metavar="DIR",
                      help="work against a durable store directory "
                           "(created views are write-ahead logged)")
    view.add_argument("--save", help="write the updated database here")
    _add_context_options(view)
    view.set_defaults(fn=cmd_view, _store_readonly=False)

    schema = sub.add_parser("schema", help="print a database's schema")
    schema.add_argument("database", nargs="?")
    schema.add_argument("--office", action="store_true")
    schema.add_argument("--store", metavar="DIR",
                        help="read the schema from a durable store")
    schema.set_defaults(fn=cmd_schema)

    serve = sub.add_parser(
        "serve", help="serve the database over TCP (framed JSON "
                      "protocol; telnet-friendly line mode)")
    serve.add_argument("database", nargs="?",
                       help="JSON database file")
    serve.add_argument("--office", action="store_true",
                       help="serve the built-in office database")
    serve.add_argument("--store", metavar="DIR",
                       help="serve a durable store directory "
                            "(opened writable; CREATE VIEW is "
                            "write-ahead logged)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7407,
                       help="TCP port (0 = let the OS pick; the "
                            "bound port is printed)")
    serve.add_argument("--max-sessions", type=_positive_int,
                       default=64,
                       help="concurrent connection limit (excess "
                            "connections get a max_sessions error "
                            "frame)")
    serve.add_argument("--drain-timeout", type=_positive_float,
                       default=5.0, metavar="SECONDS",
                       help="graceful-shutdown drain window before "
                            "in-flight queries are cancelled")
    serve.add_argument("--executor-threads", type=_positive_int,
                       default=8,
                       help="worker threads executing query bodies")
    serve.add_argument("--executor",
                       choices=("auto", "thread", "process"),
                       default="auto",
                       help="query executor: 'process' runs picklable "
                            "requests in worker pool processes "
                            "(distinct concurrent queries use every "
                            "core); 'auto' picks thread, whose "
                            "requests skip the worker hop")
    serve.add_argument("--warm-pool", action="store_true",
                       help="pre-fork the worker pool at startup so "
                            "the first process-executed request skips "
                            "the cold start")
    serve.add_argument("--max-workers", type=_positive_int,
                       default=None, metavar="N",
                       help="size of the process executor's worker "
                            "pool (requests beyond it wait for a "
                            "worker)")
    serve.add_argument("--dump-stats-on-exit", action="store_true",
                       help="print the aggregate service statistics "
                            "as JSON after shutdown")
    guards = serve.add_argument_group(
        "server-side guard caps (per-request budgets are the "
        "smaller of the client's request and these)")
    guards.add_argument("--guard-timeout", type=_positive_float,
                        metavar="SECONDS", default=None)
    guards.add_argument("--guard-max-pivots", type=_positive_int,
                        metavar="N", default=None)
    guards.add_argument("--guard-max-branches", type=_positive_int,
                        metavar="N", default=None)
    guards.add_argument("--guard-max-disjuncts", type=_positive_int,
                        metavar="N", default=None)
    guards.add_argument("--guard-max-canonical", type=_positive_int,
                        metavar="N", default=None)
    serve.set_defaults(fn=cmd_serve, _store_readonly=False)

    dbp = sub.add_parser(
        "db", help="durable store operations (save / load / verify / "
                   "snapshot)")
    dbsub = dbp.add_subparsers(dest="db_command", required=True)

    save = dbsub.add_parser(
        "save", help="create a durable store from a database")
    save.add_argument("store_dir", help="store directory to create")
    save.add_argument("database", nargs="?",
                      help="JSON database file")
    save.add_argument("--office", action="store_true",
                      help="use the built-in office database")
    save.add_argument("--durability", choices=DURABILITY_POLICIES,
                      default="batch",
                      help="fsync policy for the store's WAL "
                           "(default: batch)")
    save.set_defaults(fn=cmd_db_save)

    load = dbsub.add_parser(
        "load", help="recover a store and report what came back")
    load.add_argument("store_dir")
    load.set_defaults(fn=cmd_db_load)

    verify = dbsub.add_parser(
        "verify", help="dry-run recovery; exit 0 clean, "
                       f"{EXIT_STORE_RECOVERED} recovered, "
                       f"{EXIT_STORE_UNRECOVERABLE} unrecoverable")
    verify.add_argument("store_dir")
    verify.set_defaults(fn=cmd_db_verify)

    snapshot = dbsub.add_parser(
        "snapshot", help="compact a store's WAL into a new snapshot "
                         "generation")
    snapshot.add_argument("store_dir")
    snapshot.add_argument("--durability", choices=DURABILITY_POLICIES,
                          default="batch")
    snapshot.set_defaults(fn=cmd_db_snapshot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (LyricSyntaxError, ConstraintSyntaxError) as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except ResourceExhausted as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except StoreCorruptError as exc:
        print(f"store unrecoverable: {exc}", file=sys.stderr)
        return EXIT_STORE_UNRECOVERABLE
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        store = getattr(args, "_open_store", None)
        if store is not None:
            store.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
