"""Crash-recovery property tests for the durable store.

The invariant everything here checks: *whatever* the crash point —
every record boundary, every byte inside a record, a failed or torn
write, a crash mid-snapshot-rotation — reopening the store yields the
state after some prefix of the mutation history, with every record
acknowledged as fsync'd still present, and never an unhandled
exception.
"""

import gc
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.cst_object import CSTObject
from repro.constraints.existential import (
    DisjunctiveExistentialConstraint,
    ExistentialConjunctiveConstraint,
)
from repro.constraints.parser import parse_cst
from repro.constraints.terms import LinearExpression
from repro.errors import StoreCorruptError, StoreError, StoreWriteError
from repro.model.database import Database
from repro.model.oid import CstOid
from repro.model.schema import AttributeDef, CSTSpec, ClassDef, Schema
from repro.model.serialize import dump_database, dump_oid
from repro.runtime.cache import ConstraintCache
from repro.runtime.context import ExecutionStats, QueryContext
from repro.runtime.faults import FaultPlan
from repro.sqlc.relation import ConstraintRelation
from repro.storage import CLEAN, RECOVERED, UNRECOVERABLE, Store
from repro.storage import format as fmt
from repro.workloads import office, random_constraints as rc
from tests.model.test_serialize_roundtrip import FAMILIES, family_object

CST_A = "((x,y) | 0 <= x <= 4 and 1 <= y <= 3)"
CST_B = "((x,y) | x + y <= 10 and x >= -2)"

#: The mutation script.  Each op maps to EXACTLY one WAL record, so
#: "prefix of the history" and "prefix of the log" coincide.
OPS = [
    ("add_class",),
    ("add_object", "i1", {"name": "a"}),
    ("add_object", "i2", {"ext": CST_A}),
    ("create_relation", "R", ("a", "b")),
    ("add_row", "R", ("i1", CST_A)),
    ("update", "i1", "name", "b"),
    ("add_object", "i3", {"name": "c", "ext": CST_B}),
    ("add_row", "R", ("i3", CST_B)),
    ("remove", "i3"),
    ("add_object", "i4", {"name": "d"}),
    # One record per batch: a crash never leaves half of one behind.
    ("add_rows", "R", [("i4", CST_B), ("i2", CST_A)]),
    ("create_relation", "S", ("a", "b"), 4),
    ("add_rows", "S", [("i1", CST_A), ("i2", CST_B), ("i4", CST_A)]),
]


def _item_class():
    return ClassDef(name="Item", attributes={
        "name": AttributeDef("name", "string"),
        "ext": AttributeDef("ext", CSTSpec(("x", "y"))),
    })


def _coerce(values):
    return {k: parse_cst(v) if k == "ext" else v
            for k, v in values.items()}


def apply_op(op, db, create_relation, relation):
    kind = op[0]
    if kind == "add_class":
        db.schema.add_class(_item_class())
    elif kind == "add_object":
        db.add_object(op[1], "Item", _coerce(op[2]))
    elif kind == "create_relation":
        create_relation(*op[1:])
    elif kind == "add_row":
        relation(op[1]).add_row((op[2][0], parse_cst(op[2][1])))
    elif kind == "add_rows":
        relation(op[1]).add_rows(
            [(key, parse_cst(text)) for key, text in op[2]])
    elif kind == "update":
        db.update_attribute(
            next(o.oid for o in db.objects() if str(o.oid) == op[1]),
            op[2], op[3])
    elif kind == "remove":
        db.remove_object(
            next(o.oid for o in db.objects() if str(o.oid) == op[1]))
    else:  # pragma: no cover - script bug
        raise AssertionError(kind)


def run_ops_on_store(store, ops):
    def create_relation(name, columns, shards=0):
        store.create_relation(name, columns, shards=shards,
                              partition_by="b" if shards else None)

    for op in ops:
        apply_op(op, store.db, create_relation, store.relation)


def plain_state(k):
    """The in-memory state after the first ``k`` ops, no store."""
    db = Database(Schema())
    relations = {}

    def create_relation(name, columns, shards=0):
        # Unsharded whatever the store's layout: a sharded relation
        # must list the same rows in the same order.
        relations[name] = ConstraintRelation(name, columns)

    for op in OPS[:k]:
        apply_op(op, db, create_relation, relations.__getitem__)
    return db, relations


def fingerprint(db, relations):
    return fmt.canonical_json({
        "db": dump_database(db),
        "rels": {name: [[dump_oid(c) for c in row] for row in rel]
                 for name, rel in sorted(relations.items())},
    })


_PREFIXES = None


def prefix_fingerprints():
    global _PREFIXES
    if _PREFIXES is None:
        _PREFIXES = [fingerprint(*plain_state(k))
                     for k in range(len(OPS) + 1)]
    return _PREFIXES


def recovered_prefix(store):
    """Which prefix of the history the store's state equals; fails the
    test if it matches none (a torn state leaked through)."""
    fp = fingerprint(store.db, store.relations)
    prefixes = prefix_fingerprints()
    assert fp in prefixes, "recovered state matches no history prefix"
    return prefixes.index(fp)


def wal_file(directory):
    names = sorted(n for n in os.listdir(directory)
                   if n.startswith("wal-"))
    assert names, f"no WAL in {directory}"
    return os.path.join(directory, names[-1])


class TestCleanRoundTrip:
    def test_full_history_round_trips(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS)
        store.close()
        with Store.open(path) as reopened:
            assert reopened.report.state == CLEAN
            assert recovered_prefix(reopened) == len(OPS)

    def test_snapshot_compacts_and_round_trips(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS[:5])
        assert store.snapshot() == 2
        run_ops_on_store(store, OPS[5:])
        store.close()
        with Store.open(path) as reopened:
            assert reopened.report.state == CLEAN
            assert reopened.generation == 2
            assert recovered_prefix(reopened) == len(OPS)

    def test_verify_is_read_only(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS)
        store.close()
        before = sorted((p.name, p.stat().st_size)
                        for p in (tmp_path / "store").iterdir())
        report = Store.verify(path)
        assert report.state == CLEAN
        after = sorted((p.name, p.stat().st_size)
                       for p in (tmp_path / "store").iterdir())
        assert before == after


class TestCrashAtEveryRecord:
    """Fail or tear the write of record n, for every n: recovery must
    land exactly on the n-1 prefix, keeping every fsync'd record."""

    @pytest.mark.parametrize("n", range(1, len(OPS) + 1))
    def test_failed_write_of_record_n(self, tmp_path, n):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        store.io.faults = FaultPlan(fail_write_at=store.io.writes + n)
        with pytest.raises(StoreWriteError):
            run_ops_on_store(store, OPS)
        synced = store.synced_records
        assert synced == n - 1
        # The store is broken: further mutations are refused even
        # though the in-memory database would accept them.
        with pytest.raises(StoreError, match="broken"):
            store.db.add_object("late", "Item", {"name": "z"})
        store.close()
        with Store.open(path) as reopened:
            # A write that never reached the file leaves a clean log.
            assert reopened.report.state == CLEAN
            assert recovered_prefix(reopened) == n - 1
            assert reopened.report.records_applied >= synced

    @pytest.mark.parametrize("n", range(1, len(OPS) + 1))
    @pytest.mark.parametrize("torn_bytes", [1, 6])
    def test_torn_write_of_record_n(self, tmp_path, n, torn_bytes):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        store.io.faults = FaultPlan(
            torn_write_at=store.io.writes + n,
            torn_write_bytes=torn_bytes)
        with pytest.raises(StoreWriteError):
            run_ops_on_store(store, OPS)
        store.close()
        with Store.open(path) as reopened:
            assert reopened.report.state == RECOVERED  # torn tail
            assert recovered_prefix(reopened) == n - 1
        # The repair truncated the tail: a second open is clean.
        with Store.open(path) as again:
            assert again.report.state == CLEAN
            assert recovered_prefix(again) == n - 1

    def test_fsync_failure_is_a_crash_point_too(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        store.io.faults = FaultPlan(fail_fsync_at=store.io.fsyncs + 3)
        with pytest.raises(StoreWriteError, match="fsync"):
            run_ops_on_store(store, OPS)
        assert store.synced_records == 2
        store.close()
        with Store.open(path) as reopened:
            # The record's bytes DID land; only the acknowledgment
            # failed.  Recovery may keep it: prefix 2 or 3, never less.
            assert recovered_prefix(reopened) in (2, 3)


class TestCrashAtEveryByte:
    """Truncate the WAL at every byte offset: recovery always yields
    exactly the complete records before the cut."""

    @pytest.fixture(scope="class")
    def clean_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bytes")
        path = str(root / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS)
        store.close()
        return path

    def test_truncate_everywhere(self, clean_store, tmp_path):
        data = open(wal_file(clean_store), "rb").read()
        boundaries = [fmt.WAL_HEADER_SIZE] + [
            end for _start, end in fmt.iter_record_offsets(
                data, offset=fmt.WAL_HEADER_SIZE)]
        for cut in range(fmt.WAL_HEADER_SIZE, len(data)):
            work = str(tmp_path / f"cut{cut}")
            shutil.copytree(clean_store, work)
            with open(wal_file(work), "r+b") as handle:
                handle.truncate(cut)
            with Store.open(work) as store:
                expected = sum(1 for b in boundaries if b <= cut) - 1
                assert recovered_prefix(store) == expected
                if cut in boundaries:
                    assert store.report.state == CLEAN
                else:
                    assert store.report.state == RECOVERED
            shutil.rmtree(work)

    @given(st.integers(min_value=0, max_value=1_000_000),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_bit_flip_anywhere_yields_a_prefix(self, clean_store,
                                               tmp_path_factory,
                                               position, bit):
        work = str(tmp_path_factory.mktemp("flip") / "store")
        shutil.copytree(clean_store, work)
        victim = wal_file(work)
        data = bytearray(open(victim, "rb").read())
        position %= len(data)
        data[position] ^= 1 << bit
        with open(victim, "wb") as handle:
            handle.write(bytes(data))

        report = Store.verify(work)
        assert report.state in (CLEAN, RECOVERED)
        with Store.open(work) as store:
            prefix = recovered_prefix(store)
        if position < fmt.WAL_HEADER_SIZE:
            # Header damage invalidates the whole log, never more.
            assert prefix == 0
            assert report.state == RECOVERED
        else:
            # Exactly the records before the damaged one survive.
            ends = [end for _start, end in fmt.iter_record_offsets(
                open(wal_file(clean_store), "rb").read(),
                offset=fmt.WAL_HEADER_SIZE)]
            damaged = sum(1 for end in ends if end <= position)
            assert prefix == damaged
            assert report.state == RECOVERED
        shutil.rmtree(work)


class TestRotationCrashWindows:
    """Crash inside snapshot(): every write of the rotation sequence
    (snapshot blob, new WAL header, CURRENT flip) is a crash point.
    The store turns broken — appending to the old WAL past the new
    snapshot would break the chain — and reopening lands on the exact
    pre-rotation state."""

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_crash_mid_rotation(self, tmp_path, w):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS[:5])
        store.io.faults = FaultPlan(fail_write_at=store.io.writes + w)
        with pytest.raises(StoreWriteError):
            store.snapshot()
        store.io.faults = None
        assert store.broken
        with pytest.raises(StoreError, match="broken"):
            run_ops_on_store(store, OPS[5:6])
        store.close()
        with Store.open(path) as reopened:
            assert recovered_prefix(reopened) == 5
        # Recovery repaired to a stable generation: open again, still 5.
        with Store.open(path) as again:
            assert recovered_prefix(again) == 5
            again.snapshot()  # and rotation works again after repair
        with Store.open(path) as final:
            assert recovered_prefix(final) == 5

    def test_fsync_crash_mid_rotation(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS[:5])
        store.io.faults = FaultPlan(fail_fsync_at=store.io.fsyncs + 1)
        with pytest.raises(StoreWriteError, match="fsync"):
            store.snapshot()
        store.close()
        with Store.open(path) as reopened:
            assert recovered_prefix(reopened) == 5


class TestChainedGenerations:
    def test_corrupt_newest_snapshot_falls_back_across_wals(
            self, tmp_path):
        """Snapshot n dies; snapshot n-1 + wal n-1 + wal n still reach
        the exact latest state."""
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS[:5])
        store.snapshot()
        run_ops_on_store(store, OPS[5:])
        store.close()
        snap2 = tmp_path / "store" / "snapshot-000002.lyrc"
        blob = bytearray(snap2.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        snap2.write_bytes(bytes(blob))
        with Store.open(path) as reopened:
            assert reopened.report.state == RECOVERED
            assert any("falling back" in w
                       for w in reopened.report.warnings)
            assert recovered_prefix(reopened) == len(OPS)

    def test_missing_current_scans_for_newest(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS)
        store.close()
        (tmp_path / "store" / "CURRENT").unlink()
        with Store.open(path) as reopened:
            assert reopened.report.state == RECOVERED
            assert any("CURRENT" in w for w in reopened.report.warnings)
            assert recovered_prefix(reopened) == len(OPS)

    def test_all_snapshots_dead_is_unrecoverable(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS)
        store.close()
        for p in (tmp_path / "store").iterdir():
            if p.name.startswith("snapshot-"):
                p.write_bytes(b"nothing left")
        assert Store.verify(path).state == UNRECOVERABLE
        with pytest.raises(StoreCorruptError):
            Store.open(path)

    def test_retention_prunes_old_generations(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="batch", retain=2)
        run_ops_on_store(store, OPS[:3])
        for _ in range(3):
            store.snapshot()
        store.close()
        names = {p.name for p in (tmp_path / "store").iterdir()}
        assert "snapshot-000001.lyrc" not in names
        assert "snapshot-000003.lyrc" in names
        assert "snapshot-000004.lyrc" in names
        with Store.open(path) as reopened:
            assert recovered_prefix(reopened) == 3


class TestReadonlyAndBrokenSemantics:
    def test_readonly_refuses_mutation(self, tmp_path):
        path = str(tmp_path / "store")
        Store.create(path, durability="off").close()
        store = Store.open(path, readonly=True)
        with pytest.raises(StoreError, match="read-only"):
            store.db.schema.add_class(_item_class())
        with pytest.raises(StoreError, match="read-only"):
            store.snapshot()
        store.close()

    def test_adopted_relation_rows_are_logged(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        rel = ConstraintRelation("pre", ("c",),
                                 [(parse_cst(CST_A),)])
        store.add_relation(rel)
        rel.add_row((parse_cst(CST_B),))
        store.close()
        with Store.open(path) as reopened:
            assert len(reopened.relation("pre")) == 2

    def test_duplicate_relation_name_refused(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="off")
        store.create_relation("R", ("a",))
        with pytest.raises(StoreError, match="already exists"):
            store.create_relation("R", ("b",))
        store.close()

    def test_create_refuses_existing_store(self, tmp_path):
        path = str(tmp_path / "store")
        Store.create(path).close()
        with pytest.raises(StoreError, match="already contains"):
            Store.create(path)


class TestStoredCanonicalFormIsTheIdentity:
    """ISSUE 23: a format-2 file's ``cst`` payloads are taken for the
    canonical forms they are — restore solves nothing, a restart
    rewrites no oid — and ``verify`` audits exactly that trust."""

    def test_restart_rewrites_no_oid_in_any_family(self, tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        store.db.schema.add_class(ClassDef(name="Item", attributes={
            "ext": AttributeDef("ext", CSTSpec(("x0", "x1")))}))
        rel = store.create_relation("R", ("id", "c"))
        # Odd seeds take the chained existential systems; the dex of 11
        # keeps a quantifier under canonicalisation.
        for family, seed in zip(FAMILIES, (1, 2, 3, 11)):
            if family == "existential":
                store.snapshot()  # those two replay from the WAL
            cst = family_object(family, seed)
            store.db.add_object(f"i{seed}", "Item", {"ext": cst})
            rel.add_row((f"i{seed}", cst))
        kinds = {type(row[1].cst.constraint) for row in rel}
        assert {ExistentialConjunctiveConstraint,
                DisjunctiveExistentialConstraint} <= kinds
        live = fingerprint(store.db, store.relations)
        store.close()
        with Store.open(path) as reopened:
            assert reopened.report.state == CLEAN
            assert fingerprint(reopened.db, reopened.relations) == live
            reopened.snapshot()
        with Store.open(path) as again:
            assert fingerprint(again.db, again.relations) == live

    @pytest.mark.parametrize("cache", [ConstraintCache, lambda: None])
    def test_restore_solves_nothing(self, tmp_path, cache):
        """Counts, not clocks, on ``burst_store``-shaped rows."""
        path = str(tmp_path / "store")
        boxes = [CSTObject(rc.make_variables(2), box)
                 for box in rc.scattered_boxes(24, dimension=2, seed=5)]
        store = Store.create(path, durability="off")
        rel = store.create_relation("L", ("lid", "e"), shards=4,
                                    partition_by="e")
        rel.add_rows([(i, box) for i, box in enumerate(boxes[:12])])
        store.snapshot()
        rel.add_rows([(i, box) for i, box in enumerate(boxes[12:], 12)])
        store.close()
        stats = ExecutionStats()
        with QueryContext(stats=stats, cache=cache()).activate() as ctx:
            with Store.open(path) as reopened:
                rows = list(reopened.relation("L"))
            assert [row[1].cst for row in rows] == boxes
            assert {hash(row[1]) for row in rows} \
                == {hash(CstOid(box)) for box in boxes}
            assert stats.simplex_solves == 0
            if ctx.cache is not None:
                # The seeding: the same atoms again hit the memo.
                for box in boxes:
                    CSTObject.from_atoms(box.schema, box.constraint.atoms)
                assert stats.simplex_solves == 0
                assert stats.cache_hits >= len(boxes)

    def test_restore_builds_no_expression(self, tmp_path, monkeypatch):
        """The parser turns each stored CST text straight into integer
        rows: reopening an office store builds no ``LinearExpression``
        (a parse through expression arithmetic built 627 here)."""
        path = str(tmp_path / "store")
        Store.create(path, office.generate(6, 1).db).close()
        built = []
        init = LinearExpression.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LinearExpression, "__init__", counting)
        with QueryContext(cache=None).activate():
            with Store.open(path, readonly=True) as store:
                assert len(store.db) > 0
        assert len(built) == 0

    def test_verify_audits_what_open_trusts(self, tmp_path):
        """A wrong 'canonical' byte under a valid CRC can only be a
        writer bug; ``verify`` names it, ``open`` never pays to look."""
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        store.create_relation("R", ("c",)).add_row((parse_cst(CST_A),))
        store.close()
        assert Store.verify(path).state == CLEAN
        forged = "((x) | x <= 1 and x <= 2)"
        with open(wal_file(path), "ab") as handle:
            handle.write(fmt.encode_record(
                {"op": "add_row", "relation": "R",
                 "row": [{"t": "cst", "v": forged}]}))
        # A private memo: open enters the forged text there as its own
        # canonical form, and verify must not be fooled by that either.
        with QueryContext(cache=ConstraintCache()).activate():
            with Store.open(path, readonly=True) as store:
                assert store.report.state == CLEAN
                assert list(store.relation("R"))[-1][0].cst.oid_text() \
                    == forged
            report = Store.verify(path)
        assert report.state == RECOVERED
        assert [w for w in report.warnings if forged in w]

    def test_format_one_store_opens_and_upgrades(self, tmp_path):
        """The committed fixture was written by the parent commit
        (format 1): read through the canonicalising decoder, appended
        to in place, and format 2 from its next snapshot on."""
        path = str(tmp_path / "store")
        shutil.copytree(os.path.join(os.path.dirname(__file__),
                                     "fixtures", "store-v1"), path)
        assert not fmt.is_trusted(wal_file(path))
        assert Store.verify(path).state == CLEAN
        with Store.open(path) as store:
            assert store.report.state == CLEAN
            assert len(store.db) == 2 and len(store.relation("R")) == 3
            store.relation("R").add_row(("i2", parse_cst(CST_A)))
            before = fingerprint(store.db, store.relations)
            assert not fmt.is_trusted(wal_file(path))
        with Store.open(path) as store:
            assert fingerprint(store.db, store.relations) == before
            store.snapshot()
            assert fmt.is_trusted(wal_file(path))
        stats = ExecutionStats()
        with QueryContext(stats=stats, cache=None).activate():
            with Store.open(path) as store:
                assert fingerprint(store.db, store.relations) == before
        assert stats.simplex_solves == 0


class TestOpenIsSteady:
    """Counts, not clocks: nothing ``open`` does depends on the disk's
    mood or on where the collector's counters happen to stand."""

    @staticmethod
    def _store(tmp_path):
        path = str(tmp_path / "store")
        store = Store.create(path, durability="always")
        run_ops_on_store(store, OPS[:5])
        store.snapshot()
        run_ops_on_store(store, OPS[5:])
        store.close()
        return path

    def test_clean_open_writes_and_syncs_nothing(self, tmp_path):
        path = self._store(tmp_path)
        current = tmp_path / "store" / "CURRENT"
        stamp = current.stat().st_mtime_ns
        with Store.open(path) as store:
            assert store.report.state == CLEAN
            assert (store.io.writes, store.io.fsyncs) == (0, 0)
        assert current.stat().st_mtime_ns == stamp
        # A CURRENT that does not name the tip is still re-pointed.
        current.write_bytes(b"1\n")
        with Store.open(path) as store:
            assert recovered_prefix(store) == len(OPS)
            assert (store.io.writes, store.io.fsyncs) == (1, 1)
        assert current.read_bytes() == b"2\n"

    def test_open_pauses_the_collector(self, tmp_path, monkeypatch):
        """No pass of the cyclic collector lands inside recovery; one
        young pass over what was loaded follows it."""
        path = self._store(tmp_path)
        passes, marks = [], []

        def watch(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        recover = Store._recover

        def marking(self, *args, **kwargs):
            marks.append(len(passes))
            try:
                return recover(self, *args, **kwargs)
            finally:
                marks.append(len(passes))

        monkeypatch.setattr(Store, "_recover", marking)
        saved = gc.get_threshold()
        gc.callbacks.append(watch)
        # Thresholds this recovery trips many times over, collector on.
        gc.set_threshold(50, 2, 2)
        try:
            Store.open(path).close()
        finally:
            gc.set_threshold(*saved)
            gc.callbacks.remove(watch)
        assert marks[0] == marks[1]
        assert passes[marks[1]] == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_open_leaves_the_collector_as_found(self, tmp_path, enabled):
        path = self._store(tmp_path)
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "snapshot-000001.lyrc").write_bytes(b"dead")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            Store.open(path).close()
            assert gc.isenabled() == enabled
            with pytest.raises(StoreCorruptError):
                Store.open(str(broken))
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
