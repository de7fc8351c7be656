"""Serialization of schemas and databases to JSON-able dictionaries.

A practical necessity for an open-source release: constraint databases
must survive a round trip to disk.  CST values serialize through the
textual projection notation (the same concrete syntax users write), so
dumps are human-readable and diff-able; oids serialize as tagged
terms.

    from repro.model.serialize import dump_database, load_database
    payload = dump_database(db)          # plain dicts/lists/strings
    clone = load_database(payload)       # a fresh, validated Database

A ``cst`` payload written here is a canonical form (Section 3.1: the
logical oid itself); :func:`dump_oid` canonicalises a quantifier-free
object not known to be one before printing it.  A reader may rely on
that — ``trusted=True``: the object is the text as is, nothing solved —
only where the bytes are provably the writer's: a checksummed store
file of format 2, a frame of this server's reply.  A hand-editable JSON
file, a client's parameter, a format-1 file are not: the default.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from repro.constraints.cst_object import CSTObject
from repro.constraints.families import Family
from repro.constraints.parser import parse_cst
from repro.errors import ModelError
from repro.model.database import Database
from repro.model.oid import (
    AttributeNameOid,
    ClassNameOid,
    CstOid,
    FunctionalOid,
    LiteralOid,
    Oid,
    SymbolicOid,
)
from repro.model.schema import (
    AttributeDef,
    BUILTIN_CLASSES,
    CSTSpec,
    ClassDef,
    Schema,
)

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Oids
# ---------------------------------------------------------------------------


def dump_oid(oid: Oid) -> Any:
    """Oid -> JSON-able tagged value."""
    if isinstance(oid, SymbolicOid):
        return {"t": "sym", "v": oid.name}
    if isinstance(oid, LiteralOid):
        value = oid.value
        if isinstance(value, Fraction):
            return {"t": "num", "v": str(value)}
        return {"t": "str", "v": value}
    if isinstance(oid, CstOid):
        cst = oid.cst
        if not cst.is_canonical and cst.family <= Family.DISJUNCTIVE:
            # No quantifier will print: readers take it for canonical.
            cst = CSTObject(cst.schema, cst.constraint)
        return {"t": "cst", "v": cst.oid_text()}
    if isinstance(oid, FunctionalOid):
        return {"t": "fn", "f": oid.function,
                "a": [dump_oid(a) for a in oid.args]}
    if isinstance(oid, AttributeNameOid):
        return {"t": "attr", "v": oid.name}
    if isinstance(oid, ClassNameOid):
        return {"t": "class", "v": oid.name}
    raise ModelError(f"cannot serialize oid {oid!r}")


def load_oid(payload: Any, trusted: bool = False) -> Oid:
    tag = payload.get("t")
    if tag == "sym":
        return SymbolicOid(payload["v"])
    if tag == "num":
        return LiteralOid(Fraction(payload["v"]))
    if tag == "str":
        return LiteralOid(payload["v"])
    if tag == "cst":
        return CstOid(parse_cst(payload["v"], trusted))
    if tag == "fn":
        return FunctionalOid(payload["f"], [load_oid(a, trusted)
                                            for a in payload["a"]])
    if tag == "attr":
        return AttributeNameOid(payload["v"])
    if tag == "class":
        return ClassNameOid(payload["v"])
    raise ModelError(f"unknown oid tag {tag!r}")


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


def dump_class_def(cls: ClassDef) -> dict:
    """One class definition as a JSON-able dict (methods are code and
    do not serialize; a loaded class re-attaches them via
    :meth:`Schema.add_method`)."""
    return {
        "name": cls.name,
        "parents": list(cls.parents),
        "interface": [v.name for v in cls.interface],
        "cst_dimension": cls.cst_dimension,
        "attributes": [_dump_attribute(a)
                       for a in cls.attributes.values()],
    }


def load_class_def(payload: dict) -> ClassDef:
    return ClassDef(
        name=payload["name"],
        parents=tuple(payload["parents"]),
        interface=tuple(payload["interface"]),
        attributes={a["name"]: _load_attribute(a)
                    for a in payload["attributes"]},
        cst_dimension=payload.get("cst_dimension"))


def dump_schema(schema: Schema) -> dict:
    classes = []
    cst_dimensions = []
    for name in schema.class_names:
        if name in BUILTIN_CLASSES:
            continue
        cls = schema.class_def(name)
        if name.startswith("CST(") and name.endswith(")"):
            # Built-in CST classes are recorded by dimension only.
            cst_dimensions.append(cls.cst_dimension)
            continue
        classes.append(dump_class_def(cls))
    return {"version": FORMAT_VERSION, "classes": classes,
            "cst_classes": cst_dimensions}


def _dump_attribute(attr: AttributeDef) -> dict:
    out: dict = {"name": attr.name, "set_valued": attr.set_valued}
    if attr.is_cst:
        out["cst"] = list(attr.target.names)
    else:
        out["target"] = attr.target
        if attr.interface_args is not None:
            out["interface_args"] = [v.name
                                     for v in attr.interface_args]
    return out


def load_schema(payload: dict) -> Schema:
    if payload.get("version") != FORMAT_VERSION:
        raise ModelError(
            f"unsupported schema format version "
            f"{payload.get('version')!r}")
    schema = Schema()
    for dimension in payload.get("cst_classes", ()):
        schema.ensure_cst_class(dimension)
    # CST base classes may also appear only as parents (CST(n)).
    for cls in payload["classes"]:
        for parent in cls["parents"]:
            if parent.startswith("CST(") and parent.endswith(")"):
                schema.ensure_cst_class(int(parent[4:-1]))
    for cls in payload["classes"]:
        schema.add_class(load_class_def(cls))
    schema.validate()
    return schema


def _load_attribute(payload: dict) -> AttributeDef:
    if "cst" in payload:
        return AttributeDef(payload["name"], CSTSpec(payload["cst"]),
                            set_valued=payload["set_valued"])
    # ``is not None``, not truthiness: an *empty* renaming ``()`` is a
    # meaningful value (the target class declares no interface) and
    # must survive the round trip distinct from "no renaming".
    interface_args = payload.get("interface_args")
    return AttributeDef(
        payload["name"], payload["target"],
        set_valued=payload["set_valued"],
        interface_args=tuple(interface_args)
        if interface_args is not None else None)


# ---------------------------------------------------------------------------
# Database
# ---------------------------------------------------------------------------


def dump_value(raw: Any) -> Any:
    """One stored attribute value: a tagged set for set-valued
    attributes, a plain oid payload otherwise."""
    if isinstance(raw, frozenset):
        return {"set": [dump_oid(v) for v in sorted(raw, key=str)]}
    return dump_oid(raw)


def load_value(raw: Any, trusted: bool = False) -> Any:
    """Inverse of :func:`dump_value`; set values load as lists, which
    :meth:`DBObject.set` coerces back to frozensets."""
    if isinstance(raw, dict) and "set" in raw:
        return [load_oid(v, trusted) for v in raw["set"]]
    return load_oid(raw, trusted)


def dump_object(obj: Any) -> dict:
    """One stored object (oid, class, attribute values) as a
    JSON-able dict — the snapshot *and* WAL representation."""
    return {
        "oid": dump_oid(obj.oid),
        "class": obj.class_name,
        "values": {name: dump_value(obj.get(name))
                   for name in obj.attribute_names},
    }


def load_object_into(db: Database, payload: dict,
                     trusted: bool = False) -> None:
    """Add a :func:`dump_object` payload to ``db``."""
    db.add_object(load_oid(payload["oid"], trusted), payload["class"],
                  {name: load_value(raw, trusted)
                   for name, raw in payload["values"].items()})


def dump_database(db: Database) -> dict:
    return {
        "version": FORMAT_VERSION,
        "schema": dump_schema(db.schema),
        "objects": [dump_object(obj) for obj in db.objects()],
    }


def load_database(payload: dict, trusted: bool = False) -> Database:
    if payload.get("version") != FORMAT_VERSION:
        raise ModelError(
            f"unsupported database format version "
            f"{payload.get('version')!r}")
    schema = load_schema(payload["schema"])
    db = Database(schema)
    for obj in payload["objects"]:
        load_object_into(db, obj, trusted)
    db.validate()
    return db


def save_database(db: Database, path: str) -> None:
    """Write the database as JSON to ``path``."""
    import json
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dump_database(db), handle, indent=1)


def read_database(path: str) -> Database:
    """Load a database previously written by :func:`save_database`."""
    import json
    with open(path, encoding="utf-8") as handle:
        return load_database(json.load(handle))
