"""On-disk framing for the durable store: headers, records, checksums.

Two file kinds share one discipline — *every* byte that matters is
covered by an explicit length and a CRC32, so recovery never has to
guess whether it is reading data or a crash artifact:

* a **snapshot** file is a fixed binary header (magic, storage format
  version, generation number, schema fingerprint, payload length,
  payload CRC32) followed by one canonical-JSON payload — the
  JSON-able dictionaries of :mod:`repro.model.serialize`;
* a **WAL** file is a fixed binary header (magic, version, generation,
  the fingerprint of the snapshot it extends) followed by
  length-prefixed records, each ``u32 length | u32 crc32 | payload``.

Reading is *total*: :func:`scan_records` classifies whatever bytes it
is handed into a valid record prefix plus a tail status (``clean``, a
``torn`` partial record, or a ``corrupt`` checksum mismatch), and
:func:`read_snapshot` raises :class:`~repro.errors.StoreCorruptError`
with a reason instead of propagating decode garbage.  Torn tails are
the *expected* artifact of a crash mid-append; corrupt records in the
middle of a log indicate bit rot.  Both degrade, neither crashes.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from typing import Any, Iterator

from repro.errors import StoreCorruptError

#: Independent of the JSON payload's
#: :data:`repro.model.serialize.FORMAT_VERSION`.  1: ``cst`` payloads are
#: canonicalised again when read.  2 (same layout, same bytes): the
#: writer vouches that they are canonical forms (:func:`is_trusted`).
STORAGE_FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, 2)

MAGIC_SNAPSHOT = b"LYRS"
MAGIC_WAL = b"LYRW"

#: magic(4) | format version(u16) | generation(u64) | schema
#: fingerprint(16) | payload crc32(u32) | payload length(u64)
_SNAPSHOT_HEADER = struct.Struct("<4sHQ16sIQ")

#: magic(4) | format version(u16) | generation(u64) | snapshot schema
#: fingerprint(16)
_WAL_HEADER = struct.Struct("<4sHQ16s")

#: record length(u32) | record crc32(u32)
_RECORD_PREFIX = struct.Struct("<II")

SNAPSHOT_HEADER_SIZE = _SNAPSHOT_HEADER.size
WAL_HEADER_SIZE = _WAL_HEADER.size
RECORD_PREFIX_SIZE = _RECORD_PREFIX.size

#: Upper bound on a single record; a length prefix beyond this is
#: treated as corruption rather than attempted as an allocation.
MAX_RECORD_SIZE = 64 * 1024 * 1024

#: Tail classifications of :func:`scan_records`.
TAIL_CLEAN = "clean"
TAIL_TORN = "torn"
TAIL_CORRUPT = "corrupt"


def canonical_json(payload: Any) -> bytes:
    """Deterministic JSON bytes (sorted keys, no whitespace) — the
    same payload always produces the same checksum."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def schema_fingerprint(schema: Any) -> bytes:
    """A 16-byte digest of a schema's serialized form; snapshots carry
    it and each WAL names the snapshot schema it extends."""
    from repro.model.serialize import dump_schema
    digest = hashlib.sha256(canonical_json(dump_schema(schema)))
    return digest.digest()[:16]


def is_trusted(path: str) -> bool:
    """Does the snapshot or WAL file at ``path`` (header already
    validated by its reader below) vouch for its ``cst`` payloads?"""
    with open(path, "rb") as handle:
        return struct.unpack("<4xH", handle.read(6))[0] >= 2


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------


def pack_snapshot(generation: int, fingerprint: bytes,
                  payload: bytes) -> bytes:
    """Header + payload bytes of one snapshot file."""
    header = _SNAPSHOT_HEADER.pack(
        MAGIC_SNAPSHOT, STORAGE_FORMAT_VERSION, generation,
        fingerprint, _crc(payload), len(payload))
    return header + payload


def read_snapshot(data: bytes) -> tuple[int, bytes, Any]:
    """``(generation, fingerprint, decoded payload)`` of a snapshot
    file, or :class:`StoreCorruptError` naming what is wrong."""
    if len(data) < SNAPSHOT_HEADER_SIZE:
        raise StoreCorruptError(
            f"snapshot truncated inside the header "
            f"({len(data)} < {SNAPSHOT_HEADER_SIZE} bytes)")
    magic, version, generation, fingerprint, crc, length = \
        _SNAPSHOT_HEADER.unpack_from(data)
    if magic != MAGIC_SNAPSHOT:
        raise StoreCorruptError(f"bad snapshot magic {magic!r}")
    if version not in _READABLE_VERSIONS:
        raise StoreCorruptError(
            f"unsupported storage format version {version}")
    payload = data[SNAPSHOT_HEADER_SIZE:]
    if len(payload) != length:
        raise StoreCorruptError(
            f"snapshot payload truncated "
            f"({len(payload)} of {length} bytes)")
    if _crc(payload) != crc:
        raise StoreCorruptError("snapshot payload checksum mismatch")
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptError(
            f"snapshot payload undecodable despite matching checksum: "
            f"{exc}") from None
    return generation, fingerprint, decoded


# ---------------------------------------------------------------------------
# WAL files
# ---------------------------------------------------------------------------


def pack_wal_header(generation: int, fingerprint: bytes) -> bytes:
    return _WAL_HEADER.pack(MAGIC_WAL, STORAGE_FORMAT_VERSION,
                            generation, fingerprint)


def read_wal_header(data: bytes) -> tuple[int, bytes]:
    """``(generation, fingerprint)`` from the start of a WAL file."""
    if len(data) < WAL_HEADER_SIZE:
        raise StoreCorruptError(
            f"WAL truncated inside the header "
            f"({len(data)} < {WAL_HEADER_SIZE} bytes)")
    magic, version, generation, fingerprint = \
        _WAL_HEADER.unpack_from(data)
    if magic != MAGIC_WAL:
        raise StoreCorruptError(f"bad WAL magic {magic!r}")
    if version not in _READABLE_VERSIONS:
        raise StoreCorruptError(
            f"unsupported storage format version {version}")
    return generation, fingerprint


def encode_record(record: Any) -> bytes:
    """One WAL record: length-prefixed, checksummed canonical JSON."""
    payload = canonical_json(record)
    return _RECORD_PREFIX.pack(len(payload), _crc(payload)) + payload


def scan_records(data: bytes, offset: int = 0
                 ) -> tuple[list[Any], str, int]:
    """Decode the longest valid record prefix of ``data[offset:]``.

    Returns ``(records, tail, valid_end)``: the decoded records, the
    tail classification (:data:`TAIL_CLEAN`, :data:`TAIL_TORN`,
    :data:`TAIL_CORRUPT`), and the byte offset just past the last
    valid record — the truncation point a writer reopening this log
    must cut back to before appending.
    """
    records: list[Any] = []
    at = offset
    end = len(data)
    while at < end:
        if at + RECORD_PREFIX_SIZE > end:
            return records, TAIL_TORN, at
        length, crc = _RECORD_PREFIX.unpack_from(data, at)
        if length > MAX_RECORD_SIZE:
            # An absurd length prefix is bit rot, not a big record.
            return records, TAIL_CORRUPT, at
        start = at + RECORD_PREFIX_SIZE
        if start + length > end:
            return records, TAIL_TORN, at
        payload = data[start:start + length]
        if _crc(payload) != crc:
            return records, TAIL_CORRUPT, at
        try:
            records.append(json.loads(payload.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, TAIL_CORRUPT, at
        at = start + length
    return records, TAIL_CLEAN, at


def iter_record_offsets(data: bytes, offset: int = 0
                        ) -> Iterator[tuple[int, int]]:
    """``(start, end)`` byte ranges of the valid records in ``data``
    (introspection helper for tests and ``repro db verify``)."""
    at = offset
    end = len(data)
    while at + RECORD_PREFIX_SIZE <= end:
        length, crc = _RECORD_PREFIX.unpack_from(data, at)
        start = at + RECORD_PREFIX_SIZE
        if length > MAX_RECORD_SIZE or start + length > end:
            return
        if _crc(data[start:start + length]) != crc:
            return
        yield at, start + length
        at = start + length
