"""Unit tests for the on-disk framing: headers, records, checksums,
and the total-ness of ``scan_records`` under arbitrary damage."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StoreCorruptError
from repro.storage import format as fmt


def _records(n):
    return [{"op": "add_row", "relation": "r", "row": [i]}
            for i in range(n)]


def _log_bytes(records):
    return b"".join(fmt.encode_record(r) for r in records)


class TestSnapshotFraming:
    def test_round_trip(self):
        payload = fmt.canonical_json({"hello": [1, 2, 3]})
        blob = fmt.pack_snapshot(7, b"f" * 16, payload)
        generation, fingerprint, decoded = fmt.read_snapshot(blob)
        assert generation == 7
        assert fingerprint == b"f" * 16
        assert decoded == {"hello": [1, 2, 3]}

    def test_header_truncation(self):
        blob = fmt.pack_snapshot(1, b"\0" * 16, b"{}")
        with pytest.raises(StoreCorruptError, match="header"):
            fmt.read_snapshot(blob[:10])

    def test_payload_truncation(self):
        blob = fmt.pack_snapshot(1, b"\0" * 16,
                                 fmt.canonical_json({"k": 1}))
        with pytest.raises(StoreCorruptError, match="truncated"):
            fmt.read_snapshot(blob[:-3])

    def test_bad_magic(self):
        blob = b"EVIL" + fmt.pack_snapshot(1, b"\0" * 16, b"{}")[4:]
        with pytest.raises(StoreCorruptError, match="magic"):
            fmt.read_snapshot(blob)

    def test_bit_flip_fails_checksum(self):
        payload = fmt.canonical_json({"value": 12345})
        blob = bytearray(fmt.pack_snapshot(1, b"\0" * 16, payload))
        blob[fmt.SNAPSHOT_HEADER_SIZE + 4] ^= 0x40
        with pytest.raises(StoreCorruptError, match="checksum"):
            fmt.read_snapshot(bytes(blob))

    def test_version_gate(self):
        blob = bytearray(fmt.pack_snapshot(1, b"\0" * 16, b"{}"))
        blob[4] = 0xFF  # format version low byte
        with pytest.raises(StoreCorruptError, match="version"):
            fmt.read_snapshot(bytes(blob))


    def test_formats_one_and_two_are_read_and_nothing_else(self):
        blob = bytearray(fmt.pack_snapshot(1, b"\0" * 16, b"{}"))
        wal = bytearray(fmt.pack_wal_header(1, b"\0" * 16))
        assert blob[4] == wal[4] == fmt.STORAGE_FORMAT_VERSION == 2
        for version in (1, 2):
            blob[4] = wal[4] = version
            assert fmt.read_snapshot(bytes(blob))[0] == 1
            assert fmt.read_wal_header(bytes(wal))[0] == 1
        blob[4] = wal[4] = 3
        reason = "unsupported storage format version 3"
        with pytest.raises(StoreCorruptError, match=reason):
            fmt.read_snapshot(bytes(blob))
        with pytest.raises(StoreCorruptError, match=reason):
            fmt.read_wal_header(bytes(wal))


class TestWalHeader:
    def test_round_trip(self):
        data = fmt.pack_wal_header(3, b"s" * 16)
        assert fmt.read_wal_header(data) == (3, b"s" * 16)

    def test_truncated(self):
        data = fmt.pack_wal_header(3, b"s" * 16)
        with pytest.raises(StoreCorruptError, match="header"):
            fmt.read_wal_header(data[:5])


class TestScanRecords:
    def test_clean_log(self):
        records = _records(5)
        scanned, tail, end = fmt.scan_records(_log_bytes(records))
        assert scanned == records
        assert tail == fmt.TAIL_CLEAN
        assert end == len(_log_bytes(records))

    def test_empty_is_clean(self):
        assert fmt.scan_records(b"") == ([], fmt.TAIL_CLEAN, 0)

    def test_torn_tail_at_every_byte(self):
        """Truncation at ANY byte boundary yields a valid record
        prefix and never raises — the crash-at-every-byte guarantee
        at the framing layer."""
        records = _records(4)
        data = _log_bytes(records)
        boundaries = [end for _start, end
                      in fmt.iter_record_offsets(data)]
        for cut in range(len(data) + 1):
            scanned, tail, end = fmt.scan_records(data[:cut])
            assert scanned == records[:len(scanned)]
            complete = sum(1 for b in boundaries if b <= cut)
            assert len(scanned) == complete
            if cut in (0, *boundaries):
                assert tail == fmt.TAIL_CLEAN
            else:
                assert tail == fmt.TAIL_TORN
            assert end <= cut

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=120, deadline=None)
    def test_bit_flip_never_crashes(self, position, bit):
        """A single flipped bit anywhere classifies as a shorter valid
        prefix plus a corrupt (or torn) tail — never an exception,
        never a wrong record accepted silently."""
        records = _records(6)
        data = bytearray(_log_bytes(records))
        position %= len(data)
        data[position] ^= 1 << bit
        scanned, tail, _end = fmt.scan_records(bytes(data))
        boundaries = [0] + [end for _s, end
                            in fmt.iter_record_offsets(_log_bytes(records))]
        damaged_index = max(i for i, b in enumerate(boundaries)
                            if b <= position)
        assert len(scanned) <= len(records)
        # Records strictly before the damaged one always survive ...
        assert scanned[:damaged_index] == records[:damaged_index]
        # ... and a record is only ever reported verbatim.
        assert all(r in records for r in scanned)

    def test_absurd_length_is_corrupt_not_alloc(self):
        prefix = fmt._RECORD_PREFIX.pack(2**31, 0)
        scanned, tail, end = fmt.scan_records(prefix + b"x" * 50)
        assert scanned == []
        assert tail == fmt.TAIL_CORRUPT
        assert end == 0

    def test_offset_skips_header(self):
        header = fmt.pack_wal_header(1, b"\0" * 16)
        records = _records(2)
        data = header + _log_bytes(records)
        scanned, tail, _ = fmt.scan_records(
            data, offset=fmt.WAL_HEADER_SIZE)
        assert scanned == records
        assert tail == fmt.TAIL_CLEAN


class TestCanonicalJson:
    def test_key_order_is_irrelevant(self):
        a = fmt.canonical_json({"b": 1, "a": 2})
        b = fmt.canonical_json({"a": 2, "b": 1})
        assert a == b

    def test_fingerprint_tracks_schema(self):
        from repro.model.schema import AttributeDef, Schema
        one, two = Schema(), Schema()
        assert fmt.schema_fingerprint(one) == fmt.schema_fingerprint(two)
        two.define("Extra", attributes=[AttributeDef("n", "real")])
        assert fmt.schema_fingerprint(one) != fmt.schema_fingerprint(two)
