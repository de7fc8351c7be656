"""The durable store: snapshot generations + a write-ahead log.

A store is a directory::

    store/
      CURRENT               # "<generation>\\n", updated by atomic rename
      snapshot-000001.lyrc  # binary header + canonical-JSON payload
      wal-000001.log        # mutations appended since snapshot 1
      snapshot-000002.lyrc  # newer generation (older ones retained as
      wal-000002.log        #  fallbacks, pruned past ``retain``)

The snapshot payload reuses :mod:`repro.model.serialize`'s JSON-able
format for the object database plus a row dump of every registered
flat relation; the WAL records every mutation after the snapshot —
``add_object`` / ``update_attribute`` / ``remove_object`` on the
database, ``add_class`` / ``cst_class`` DDL on the schema,
``create_relation`` DDL and ``add_row`` on flat relations — observed
through the model layer's mutation hooks, so user code mutates the
ordinary :class:`~repro.model.database.Database` /
:class:`~repro.sqlc.relation.ConstraintRelation` objects and
durability is automatic.

Recovery (:meth:`Store.open` / :meth:`Store.verify`) replays the
newest readable snapshot plus the longest valid WAL prefix, *chaining*
across generations: snapshot ``n`` is by construction equivalent to
snapshot ``n-1`` plus the complete ``wal-(n-1)``, so when snapshot
``n`` is damaged the chain ``snapshot-(n-1), wal-(n-1), wal-n`` still
reaches the latest state.  Torn tails, truncated records, bit-flipped
payloads, and missing files each degrade to the last consistent
prefix with an explicit warning in the :class:`RecoveryReport` —
``unrecoverable`` is reserved for *no readable snapshot at all*.
"""

from __future__ import annotations

import gc
import os
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.constraints.cst_object import CSTObject
from repro.constraints.parser import parse_cst
from repro.errors import (
    ReproError,
    StoreCorruptError,
    StoreError,
    StoreWriteError,
)
from repro.model.database import Database
from repro.model.schema import Schema
from repro.model.serialize import (
    dump_class_def,
    dump_database,
    dump_object,
    dump_oid,
    dump_value,
    load_class_def,
    load_database,
    load_oid,
    load_value,
    load_object_into,
)
from repro.runtime.context import current_context
from repro.runtime.faults import FaultPlan
from repro.sqlc.relation import ConstraintRelation
from repro.storage import format as fmt
from repro.storage.wal import (
    DURABILITY_POLICIES,
    StorageIO,
    WriteAheadLog,
    read_wal,
)

#: Recovery outcomes (also the CLI's exit-code vocabulary).
CLEAN = "clean"
RECOVERED = "recovered"
UNRECOVERABLE = "unrecoverable"

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{6})\.lyrc$")
_WAL_RE = re.compile(r"^wal-(\d{6})\.log$")


def _snapshot_name(generation: int) -> str:
    return f"snapshot-{generation:06d}.lyrc"


def _wal_name(generation: int) -> str:
    return f"wal-{generation:06d}.log"


@dataclass
class RecoveryReport:
    """What recovery found and what it had to give up.

    ``state`` is :data:`CLEAN` (every byte accounted for),
    :data:`RECOVERED` (a consistent state was reached but something was
    dropped or repaired — each event is a warning), or
    :data:`UNRECOVERABLE` (no snapshot generation was readable).
    """

    state: str = CLEAN
    generation: int = 0
    base_generation: int = 0
    records_applied: int = 0
    records_dropped: int = 0
    warnings: list[str] = field(default_factory=list)

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        if self.state == CLEAN:
            self.state = RECOVERED

    def describe(self) -> str:
        lines = [f"state: {self.state}",
                 f"generation: {self.generation} "
                 f"(snapshot {self.base_generation})",
                 f"records applied: {self.records_applied}"]
        if self.records_dropped:
            lines.append(f"records dropped: {self.records_dropped}")
        for message in self.warnings:
            lines.append(f"warning: {message}")
        return "\n".join(lines)


class Store:
    """A crash-safe, WAL-backed home for one constraint database.

    Use :meth:`create` for a fresh directory, :meth:`open` to recover
    an existing one, :meth:`verify` for a read-only recovery dry run.
    Mutations made through the attached :attr:`db` (and any relation
    from :meth:`create_relation` / :meth:`add_relation`) are logged
    automatically; :meth:`snapshot` compacts the log into a new
    generation.

    Logging is apply-then-log within one process: the in-memory
    mutation happens first, then the WAL record.  Under durability
    ``always`` every mutation that *returns* is on disk; after a
    failed write the store turns :attr:`broken` and refuses further
    mutations — reopening re-derives the consistent on-disk state.
    """

    def __init__(self, path: str, *, durability: str = "batch",
                 batch_size: int = 64,
                 faults: FaultPlan | None = None,
                 retain: int = 2, readonly: bool = False):
        if durability not in DURABILITY_POLICIES:
            raise StoreError(
                f"unknown durability policy {durability!r}; expected "
                f"one of {DURABILITY_POLICIES}")
        if retain < 1:
            raise StoreError(f"retain must be >= 1, got {retain}")
        self.path = os.fspath(path)
        self.durability = durability
        self.batch_size = batch_size
        self.retain = retain
        self.readonly = readonly
        self.io = StorageIO(faults)
        self.report: RecoveryReport | None = None
        self._db: Database | None = None
        self._relations: dict[str, ConstraintRelation] = {}
        self._generation = 0
        self._wal: WriteAheadLog | None = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def create(cls, path: str, db: Database | None = None,
               relations: Mapping[str, ConstraintRelation] | None = None,
               **options: Any) -> "Store":
        """Initialise a new store directory around ``db`` (a fresh
        empty database when omitted) and write generation 1."""
        store = cls(path, **options)
        if store.readonly:
            raise StoreError("cannot create a store read-only")
        os.makedirs(store.path, exist_ok=True)
        if any(_SNAPSHOT_RE.match(name) or name == "CURRENT"
               for name in os.listdir(store.path)):
            raise StoreError(
                f"{store.path!r} already contains a store; "
                f"use Store.open")
        store._db = db if db is not None else Database(Schema())
        store._relations = dict(relations or {})
        store.snapshot()
        store._wire_observers()
        return store

    @classmethod
    def open(cls, path: str, **options: Any) -> "Store":
        """Recover the store and resume appending (truncating any torn
        WAL tail and pruning unreachable newer generations so the disk
        state equals the recovered state).  Raises
        :class:`~repro.errors.StoreCorruptError` when unrecoverable;
        partial damage is reported in :attr:`report` instead."""
        store = cls(path, **options)
        report = RecoveryReport()
        # What recovery allocates lives on and holds no cycles; left on,
        # the collector runs a full pass inside some opens and not others.
        collecting = gc.isenabled()
        gc.disable()
        try:
            db, relations, tip = store._recover(report,
                                                repair=not store.readonly)
        finally:
            if collecting:
                gc.enable()
                gc.collect(0)
        store.report = report
        store._db = db
        store._relations = relations
        store._generation = tip
        if store.readonly:
            store._wire_readonly_observers()
        else:
            wal_path = os.path.join(store.path, _wal_name(tip))
            # A crash between snapshot rename and WAL creation leaves
            # the tip generation logless; recreate it on reopen.
            create = not os.path.exists(wal_path)
            store._wal = WriteAheadLog(
                wal_path, generation=tip,
                fingerprint=fmt.schema_fingerprint(db.schema),
                io=store.io, durability=store.durability,
                batch_size=store.batch_size, create=create)
            store._wire_observers()
        return store

    @classmethod
    def verify(cls, path: str) -> RecoveryReport:
        """Read-only recovery dry run: replays everything, touches
        nothing, and reports :data:`CLEAN` / :data:`RECOVERED` /
        :data:`UNRECOVERABLE` instead of raising."""
        store = cls(path, readonly=True)
        report = RecoveryReport()
        try:
            store._recover(report, repair=False, audit=True)
        except StoreCorruptError as exc:
            report.state = UNRECOVERABLE
            report.warnings.append(str(exc))
        return report

    # -- accessors -------------------------------------------------------

    @property
    def db(self) -> Database:
        if self._db is None:
            raise StoreError("store is closed")
        return self._db

    @property
    def relations(self) -> Mapping[str, ConstraintRelation]:
        return self._relations

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def broken(self) -> bool:
        return self._wal is not None and self._wal.broken

    @property
    def synced_records(self) -> int:
        """Records of the active WAL known durable (see
        :attr:`WriteAheadLog.synced_records`)."""
        return self._wal.synced_records if self._wal is not None else 0

    # -- relation catalog ------------------------------------------------

    def create_relation(self, name: str, columns: Iterable[str],
                        shards: int = 0,
                        partition_by: str | None = None
                        ) -> ConstraintRelation:
        """A new empty flat relation registered with the store: its
        DDL is logged now, every future ``add_row``/``add_rows``
        automatically.  With ``shards >= 2`` the relation is a
        :class:`~repro.sqlc.shard.ShardedConstraintRelation`; the
        shard layout is part of the DDL record and survives recovery.
        """
        self._require_writable()
        if name in self._relations:
            raise StoreError(f"relation {name!r} already exists")
        relation = _build_relation(name, tuple(columns), shards,
                                   partition_by)
        self._append(_relation_ddl(relation))
        self._relations[name] = relation
        relation.set_observer(self._on_add_row, self._on_add_rows)
        return relation

    def add_relation(self, relation: ConstraintRelation
                     ) -> ConstraintRelation:
        """Adopt an existing (possibly populated) relation: logs its
        DDL and current rows, then observes future mutations."""
        self._require_writable()
        if relation.name in self._relations:
            raise StoreError(
                f"relation {relation.name!r} already exists")
        self._append(_relation_ddl(relation))
        if len(relation):
            self._append({"op": "add_rows", "relation": relation.name,
                          "rows": [[dump_oid(cell) for cell in row]
                                   for row in relation]})
        self._relations[relation.name] = relation
        relation.set_observer(self._on_add_row, self._on_add_rows)
        return relation

    def relation(self, name: str) -> ConstraintRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise StoreError(f"no relation {name!r} in store") from None

    # -- durability operations -------------------------------------------

    def flush(self) -> None:
        """Make every logged mutation durable now."""
        self._require_writable()
        assert self._wal is not None
        self._wal.flush()

    def snapshot(self) -> int:
        """Write a new snapshot generation and rotate the WAL.

        The old WAL is flushed first, the snapshot lands via
        ``tmp + fsync + rename``, then ``CURRENT`` flips atomically;
        a crash in any window leaves a recoverable chain.  Returns the
        new generation number and prunes generations past ``retain``.
        """
        self._require_writable()
        if self._wal is not None:
            self._wal.flush()
        generation = self._generation + 1
        fingerprint = fmt.schema_fingerprint(self.db.schema)
        payload = fmt.canonical_json(self._snapshot_payload())
        blob = fmt.pack_snapshot(generation, fingerprint, payload)

        snap_path = os.path.join(self.path, _snapshot_name(generation))
        try:
            self._write_file(snap_path, blob)
            wal = WriteAheadLog(
                os.path.join(self.path, _wal_name(generation)),
                generation=generation, fingerprint=fingerprint,
                io=self.io, durability=self.durability,
                batch_size=self.batch_size, create=True)
            self._write_file(os.path.join(self.path, "CURRENT"),
                             f"{generation}\n".encode("ascii"))
        except StoreWriteError:
            # A half-done rotation leaves disk state ambiguous between
            # generations; appending to the old WAL past the new
            # snapshot would break the chain invariant (snapshot n ==
            # snapshot n-1 + complete wal n-1).  Refuse further
            # mutations; reopening re-derives the consistent state.
            if self._wal is not None:
                self._wal.mark_broken()
            raise
        if self._wal is not None:
            self._wal.close()
        self._wal = wal
        self._generation = generation
        self._prune()
        return generation

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        if self._db is not None:
            self._db.set_observer(None)
            self._db.schema.set_observer(None)
        for relation in self._relations.values():
            relation.set_observer(None)
        self._db = None

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- observers / logging ---------------------------------------------

    def _wire_observers(self) -> None:
        self.db.set_observer(self._on_db_event)
        self.db.schema.set_observer(self._on_schema_event)
        for relation in self._relations.values():
            relation.set_observer(self._on_add_row, self._on_add_rows)

    def _wire_readonly_observers(self) -> None:
        def refuse(event: str, **data: Any) -> None:
            raise StoreError(
                f"store {self.path!r} was opened read-only; "
                f"mutation {event!r} refused")

        self.db.set_observer(refuse)
        self.db.schema.set_observer(refuse)
        for relation in self._relations.values():
            relation.set_observer(
                lambda rel, row: refuse("add_row", relation=rel.name),
                lambda rel, rows: refuse("add_rows", relation=rel.name))

    def _on_db_event(self, event: str, **data: Any) -> None:
        if event == "add_object":
            self._append({"op": "add_object",
                          "object": dump_object(data["obj"])})
        elif event == "update_attribute":
            self._append({"op": "update_attribute",
                          "oid": dump_oid(data["oid"]),
                          "attribute": data["attribute"],
                          "value": dump_value(data["value"])})
        elif event == "remove_object":
            self._append({"op": "remove_object",
                          "oid": dump_oid(data["oid"]),
                          "force": bool(data["force"])})

    def _on_schema_event(self, event: str, **data: Any) -> None:
        if event == "add_class":
            self._append({"op": "add_class",
                          "class": dump_class_def(data["class_def"])})
        elif event == "cst_class":
            self._append({"op": "cst_class",
                          "dimension": data["dimension"]})

    def _on_add_row(self, relation: ConstraintRelation,
                    row: tuple) -> None:
        self._append({"op": "add_row", "relation": relation.name,
                      "row": [dump_oid(cell) for cell in row]})

    def _on_add_rows(self, relation: ConstraintRelation,
                     rows: list[tuple]) -> None:
        """One WAL record (hence at most one fsync) per ``add_rows``
        batch — the durability half of bulk-append batching."""
        self._append({"op": "add_rows", "relation": relation.name,
                      "rows": [[dump_oid(cell) for cell in row]
                               for row in rows]})

    def _append(self, record: dict) -> None:
        self._require_writable()
        assert self._wal is not None
        self._wal.append(record)

    def _require_writable(self) -> None:
        if self.readonly:
            raise StoreError(f"store {self.path!r} is read-only")
        if self._db is None:
            raise StoreError("store is closed")
        if self._wal is not None and self._wal.broken:
            raise StoreError(
                f"store {self.path!r} is broken after a failed write; "
                f"reopen it to recover")

    # -- snapshot payload -------------------------------------------------

    def _snapshot_payload(self) -> dict:
        dumped_relations = []
        for rel in self._relations.values():
            dumped = {"name": rel.name, "columns": list(rel.columns),
                      "rows": [[dump_oid(cell) for cell in row]
                               for row in rel]}
            shards = getattr(rel, "shard_count", 0)
            if shards:
                dumped["shards"] = shards
                dumped["partition_by"] = rel.partition_by
            dumped_relations.append(dumped)
        return {
            "database": dump_database(self.db),
            "relations": dumped_relations,
        }

    @staticmethod
    def _restore_payload(payload: Any, trusted: bool = False
                         ) -> tuple[Database, dict[str, ConstraintRelation]]:
        try:
            db = load_database(payload["database"], trusted)
            relations: dict[str, ConstraintRelation] = {}
            for dumped in payload["relations"]:
                relation = _build_relation(
                    dumped["name"], tuple(dumped["columns"]),
                    dumped.get("shards", 0),
                    dumped.get("partition_by"))
                relation.add_rows(
                    [[load_oid(cell, trusted) for cell in row]
                     for row in dumped["rows"]])
                relations[dumped["name"]] = relation
        except (ReproError, KeyError, TypeError) as exc:
            raise StoreCorruptError(
                f"snapshot payload does not restore: {exc}") from exc
        return db, relations

    # -- low-level file helpers -------------------------------------------

    def _write_file(self, path: str, data: bytes) -> None:
        """Crash-safe small-file write: tmp, fsync, atomic rename."""
        tmp = path + ".tmp"
        try:
            with open(tmp, "wb") as handle:
                self.io.write(handle, data)
                if self.durability != "off":
                    self.io.fsync(handle)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- recovery ---------------------------------------------------------

    def _scan_files(self) -> tuple[dict[int, str], dict[int, str]]:
        snapshots: dict[int, str] = {}
        wals: dict[int, str] = {}
        try:
            names = os.listdir(self.path)
        except FileNotFoundError:
            raise StoreCorruptError(
                f"{self.path!r} does not exist") from None
        for name in names:
            match = _SNAPSHOT_RE.match(name)
            if match:
                snapshots[int(match.group(1))] = \
                    os.path.join(self.path, name)
            match = _WAL_RE.match(name)
            if match:
                wals[int(match.group(1))] = \
                    os.path.join(self.path, name)
        return snapshots, wals

    def _read_current(self, report: RecoveryReport) -> int | None:
        path = os.path.join(self.path, "CURRENT")
        try:
            with open(path, "rb") as handle:
                return int(handle.read().strip())
        except FileNotFoundError:
            report.warn("CURRENT missing; scanning for the newest "
                        "readable snapshot")
        except ValueError:
            report.warn("CURRENT unreadable; scanning for the newest "
                        "readable snapshot")
        return None

    def _recover(self, report: RecoveryReport, *, repair: bool,
                 audit: bool = False
                 ) -> tuple[Database, dict[str, ConstraintRelation], int]:
        snapshots, wals = self._scan_files()
        if not snapshots:
            raise StoreCorruptError(
                f"{self.path!r} contains no snapshot; nothing to "
                f"recover")
        current = self._read_current(report)
        order = sorted(snapshots, reverse=True)
        if current is not None:
            if current in snapshots:
                order = [current] + [g for g in order if g != current]
            else:
                report.warn(f"CURRENT names generation {current} but "
                            f"no such snapshot exists")

        base = None
        state: tuple[Database, dict[str, ConstraintRelation]] | None = None
        fingerprint, base_trusted = b"", False
        for generation in order:
            try:
                with open(snapshots[generation], "rb") as handle:
                    gen, fingerprint, payload = \
                        fmt.read_snapshot(handle.read())
                if gen != generation:
                    raise StoreCorruptError(
                        f"snapshot header says generation {gen}, file "
                        f"name says {generation}")
                base_trusted = fmt.is_trusted(snapshots[generation])
                state = self._restore_payload(payload, base_trusted)
                if audit and base_trusted:
                    _audit_cells(report, f"snapshot {generation}", payload)
                base = generation
                break
            except StoreCorruptError as exc:
                report.warn(
                    f"snapshot {generation} unusable ({exc}); falling "
                    f"back")
        if base is None or state is None:
            raise StoreCorruptError(
                f"no readable snapshot in {self.path!r} "
                f"(tried generations {sorted(snapshots, reverse=True)})")
        report.base_generation = base
        db, relations = state

        tip = base
        last_gen = max([base, *[g for g in wals if g > base],
                        *[g for g in snapshots if g > base]])
        for generation in range(base, last_gen + 1):
            path = wals.get(generation)
            if path is None:
                if generation < last_gen:
                    report.warn(
                        f"wal {generation} missing; mutations after "
                        f"generation {tip} are lost")
                else:
                    report.warn(f"wal {generation} missing")
                break
            try:
                gen, fp, records, tail, valid_end = read_wal(path)
            except StoreCorruptError as exc:
                report.warn(f"wal {generation} unusable ({exc}); "
                            f"stopping replay")
                break
            stop = False
            if gen != generation:
                report.warn(
                    f"wal file {generation} carries generation {gen}; "
                    f"stopping replay")
                break
            if generation == base and fp != fingerprint:
                report.warn(
                    f"wal {generation} was written against a "
                    f"different schema snapshot; stopping replay")
                break
            trusted = fmt.is_trusted(path)
            applied = 0
            for record in records:
                try:
                    _apply_record(db, relations, record, trusted)
                except ReproError as exc:
                    report.warn(
                        f"wal {generation} record "
                        f"{report.records_applied + applied + 1} does "
                        f"not apply ({exc}); stopping replay")
                    stop = True
                    break
                applied += 1
            if audit and trusted:
                _audit_cells(report, f"wal {generation}", records[:applied])
            report.records_applied += applied
            report.records_dropped += len(records) - applied
            tip = generation
            if tail != fmt.TAIL_CLEAN:
                kind = ("torn tail" if tail == fmt.TAIL_TORN
                        else "corrupt record")
                report.warn(f"wal {generation}: {kind} after "
                            f"{applied} records; dropping the rest")
                stop = True
            if repair and (tail != fmt.TAIL_CLEAN
                           or generation == last_gen):
                self._truncate_wal(path, valid_end
                                   if tail != fmt.TAIL_CLEAN else None)
            if stop:
                break

        try:
            db.validate()
        except ReproError as exc:
            # Replayed state failed integrity — degrade to the bare
            # snapshot, which validated on load.
            report.warn(
                f"replayed state failed validation ({exc}); degrading "
                f"to snapshot {base} alone")
            report.records_dropped += report.records_applied
            report.records_applied = 0
            with open(snapshots[base], "rb") as handle:
                _gen, fingerprint, payload = \
                    fmt.read_snapshot(handle.read())
            db, relations = self._restore_payload(payload, base_trusted)
            tip = base

        if repair:
            self._prune_unreachable(tip, snapshots, wals, report,
                                    stale=current != tip)
        report.generation = tip
        return db, relations, tip

    def _truncate_wal(self, path: str, valid_end: int | None) -> None:
        """Cut a damaged tail off so the on-disk log equals the
        recovered prefix before new appends land."""
        if valid_end is None:
            return
        with open(path, "r+b") as handle:
            handle.truncate(valid_end)
            handle.flush()
            os.fsync(handle.fileno())

    def _prune_unreachable(self, tip: int, snapshots: dict[int, str],
                           wals: dict[int, str],
                           report: RecoveryReport, stale: bool) -> None:
        """Remove generations *newer* than the recovered tip (their
        contents build on state that no longer exists) and re-point a
        ``stale`` CURRENT at the tip: a clean open writes nothing."""
        doomed = sorted(g for g in set(snapshots) | set(wals)
                        if g > tip)
        for generation in doomed:
            for path in (snapshots.get(generation),
                         wals.get(generation)):
                if path is not None and os.path.exists(path):
                    os.unlink(path)
        if doomed:
            report.warn(f"pruned unreachable generations {doomed}")
        if stale:
            self._write_file(os.path.join(self.path, "CURRENT"),
                             f"{tip}\n".encode("ascii"))

    def _prune(self) -> None:
        snapshots, wals = self._scan_files()
        horizon = self._generation - self.retain
        for generation, path in list(snapshots.items()):
            if generation <= horizon:
                os.unlink(path)
        for generation, path in list(wals.items()):
            if generation <= horizon:
                os.unlink(path)


def _build_relation(name: str, columns: tuple,
                    shards: int = 0,
                    partition_by: str | None = None
                    ) -> ConstraintRelation:
    """A store-managed relation: sharded when the DDL says so.  A
    replayed/restored sharded relation re-derives its range boundaries
    from the rows it sees — possibly different boundaries than the
    original process used, which affects only pruning effectiveness,
    never row content or order."""
    if shards:
        from repro.sqlc.shard import ShardedConstraintRelation
        return ShardedConstraintRelation(
            name, columns, shards=shards, partition_by=partition_by)
    return ConstraintRelation(name, columns)


def _relation_ddl(relation: ConstraintRelation) -> dict:
    """The ``create_relation`` WAL record, shard layout included."""
    record: dict[str, Any] = {
        "op": "create_relation", "name": relation.name,
        "columns": list(relation.columns)}
    shards = getattr(relation, "shard_count", 0)
    if shards:
        record["shards"] = shards
        record["partition_by"] = relation.partition_by
    return record


def _cst_texts(payload: Any) -> Iterator[str]:
    """Every ``cst`` oid text of a decoded payload, in file order."""
    if isinstance(payload, dict):
        if payload.get("t") == "cst":
            yield payload["v"]
        else:
            for value in payload.values():
                yield from _cst_texts(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from _cst_texts(value)


def _audit_cells(report: RecoveryReport, where: str, payload: Any) -> None:
    """``verify``'s audit of what ``open`` takes on trust: canonicalise
    each quantifier-free cell of a format-2 file (already decoded once)
    from cold and warn of the first whose stored text is not the result
    — a writer bug, which no checksum can see."""
    with current_context().derive(cache=None).activate():
        for text in _cst_texts(payload):
            cst = parse_cst(text, trusted=True)
            if cst.is_canonical and text != CSTObject(
                    cst.schema, cst.constraint).oid_text():
                report.warn(f"{where} stores {text} as a canonical "
                            f"form, which it is not")
                return


def _apply_record(db: Database,
                  relations: dict[str, ConstraintRelation],
                  record: Any, trusted: bool = False) -> None:
    """Replay one WAL record against the recovering state."""
    if not isinstance(record, dict):
        raise StoreError(f"malformed WAL record {record!r}")
    op = record.get("op")
    if op == "add_object":
        load_object_into(db, record["object"], trusted)
    elif op == "update_attribute":
        db.update_attribute(load_oid(record["oid"], trusted),
                            record["attribute"],
                            load_value(record["value"], trusted))
    elif op == "remove_object":
        db.remove_object(load_oid(record["oid"], trusted),
                         force=record["force"])
    elif op == "add_class":
        db.schema.add_class(load_class_def(record["class"]))
    elif op == "cst_class":
        db.schema.ensure_cst_class(record["dimension"])
    elif op == "create_relation":
        name = record["name"]
        if name in relations:
            raise StoreError(f"relation {name!r} created twice")
        relations[name] = _build_relation(
            name, tuple(record["columns"]),
            record.get("shards", 0), record.get("partition_by"))
    elif op == "add_row":
        name = record["relation"]
        if name not in relations:
            raise StoreError(f"add_row to unknown relation {name!r}")
        relations[name].add_row(
            [load_oid(cell, trusted) for cell in record["row"]])
    elif op == "add_rows":
        name = record["relation"]
        if name not in relations:
            raise StoreError(f"add_rows to unknown relation {name!r}")
        relations[name].add_rows(
            [[load_oid(cell, trusted) for cell in row]
             for row in record["rows"]])
    else:
        raise StoreError(f"unknown WAL op {op!r}")
