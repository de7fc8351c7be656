"""Object store: database instances of a schema.

Objects are tuple-objects (Section 2.1): each object has an oid, an
instance-of class, and values for attributes — a single oid for scalar
attributes, a set of oids for set-valued ones.  CST attribute values are
:class:`repro.model.oid.CstOid` wrapping :class:`CSTObject` values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.constraints.cst_object import CSTObject
from repro.errors import (
    IntegrityError,
    UnknownObjectError,
)
from repro.model.oid import CstOid, LiteralOid, Oid, as_oid
from repro.model.schema import AttributeDef, Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.model.relations import Catalog


class DBObject:
    """A stored tuple-object.

    :meth:`set`, :meth:`unset` and :meth:`restore` change the object in
    memory and tell the owning :class:`Database` (so derived state such
    as the flat catalog is dropped), but they are not validated and not
    logged: :meth:`Database.update_attribute` is the durable path.
    """

    __slots__ = ("_oid", "_class_name", "_values", "_owner")

    def __init__(self, oid: Oid, class_name: str,
                 values: Mapping[str, object] | None = None):
        self._oid = oid
        self._class_name = class_name
        self._values: dict[str, Oid | frozenset[Oid]] = {}
        #: The database storing this object (set by ``add_object``).
        self._owner: "Database | None" = None
        if values:
            for name, value in values.items():
                self.set(name, value)

    @property
    def oid(self) -> Oid:
        return self._oid

    @property
    def class_name(self) -> str:
        return self._class_name

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self._values)

    def set(self, attribute: str, value) -> None:
        """Assign an attribute value (a set/list means set-valued)."""
        if isinstance(value, (set, frozenset, list, tuple)):
            self._values[attribute] = frozenset(as_oid(v) for v in value)
        else:
            self._values[attribute] = as_oid(value)
        self._changed()

    def get(self, attribute: str) -> Oid | frozenset[Oid] | None:
        return self._values.get(attribute)

    def unset(self, attribute: str) -> None:
        """Remove an attribute value (missing is fine)."""
        self._values.pop(attribute, None)
        self._changed()

    def restore(self, attribute: str,
                value: Oid | frozenset[Oid] | None) -> None:
        """Reinstate a previously read raw value (rollback helper)."""
        if value is None:
            self._values.pop(attribute, None)
        else:
            self._values[attribute] = value
        self._changed()

    def _changed(self) -> None:
        # After the change, never before: a reader that sees the new
        # version must also see the new value.
        if self._owner is not None:
            self._owner._mutated()

    def values(self, attribute: str) -> tuple[Oid, ...]:
        """The attribute value as a tuple of oids (empty when absent;
        one element for scalar attributes)."""
        value = self._values.get(attribute)
        if value is None:
            return ()
        if isinstance(value, frozenset):
            return tuple(value)
        return (value,)

    def __repr__(self):
        return f"DBObject({self._oid}, {self._class_name})"


class Database:
    """A populated instance of a :class:`Schema`.

    CST objects may be stored both as attribute values and as
    first-class instances of CST classes (e.g. ``Region``); for the
    latter, :meth:`add_cst_instance` registers the CstOid itself in the
    class extent — a constraint *is* its oid.
    """

    def __init__(self, schema: Schema):
        schema.validate()
        self._schema = schema
        self._objects: dict[Oid, DBObject] = {}
        self._direct_extents: dict[str, list[Oid]] = {}
        #: Mutation observer ``(event, **data)`` — the durable store's
        #: write-ahead log subscribes here (:mod:`repro.storage`).
        self._observer = None
        self._version = 0
        #: The flat-relation catalog of the current state, kept here by
        #: :func:`repro.model.relations.flatten` (``None`` before the
        #: first translated query).
        self.flat_catalog: "Catalog | None" = None

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def version(self) -> int:
        """Mutation counter: moves whenever a stored object is added,
        removed or changed — through the database or directly through
        :class:`DBObject`.  Derived state is valid for one value of it
        (and of :attr:`Schema.version`)."""
        return self._version

    def _mutated(self) -> None:
        self._version += 1

    # -- mutation observation ------------------------------------------------

    def set_observer(self, observer) -> None:
        """Subscribe ``observer(event, **data)`` to mutations (or
        ``None`` to unsubscribe).  Events fire *after* a successful
        mutation: ``add_object(obj=)``, ``update_attribute(oid=,
        attribute=, value=)``, ``remove_object(oid=, force=)``."""
        self._observer = observer

    def _notify(self, event: str, **data) -> None:
        if self._observer is not None:
            self._observer(event, **data)

    # -- population ---------------------------------------------------------

    def add_object(self, oid: Oid | str, class_name: str,
                   values: Mapping[str, object] | None = None) -> DBObject:
        """Create and store an object; string oids become symbolic."""
        from repro.model.oid import SymbolicOid
        if isinstance(oid, str):
            oid = SymbolicOid(oid)
        self._schema.class_def(class_name)
        if oid in self._objects:
            raise IntegrityError(f"oid {oid} already present")
        obj = DBObject(oid, class_name, values)
        obj._owner = self
        self._objects[oid] = obj
        self._direct_extents.setdefault(class_name, []).append(oid)
        self._mutated()
        self._notify("add_object", obj=obj)
        return obj

    def add_cst_instance(self, class_name: str, cst: CSTObject,
                         values: Mapping[str, object] | None = None
                         ) -> DBObject:
        """Store a CST object as an instance of a CST class.

        The object's oid *is* the constraint (its canonical form); CST
        classes may attach extra attributes (e.g. a region's name).
        """
        class_def = self._schema.class_def(class_name)
        if class_def.cst_dimension is None:
            raise IntegrityError(
                f"class {class_name!r} is not a CST class")
        if cst.dimension != class_def.cst_dimension:
            raise IntegrityError(
                f"CST instance of {class_name!r} must have dimension "
                f"{class_def.cst_dimension}, got {cst.dimension}")
        return self.add_object(CstOid(cst), class_name, values)

    # -- lookup --------------------------------------------------------------------

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def object(self, oid: Oid) -> DBObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise UnknownObjectError(f"no object with oid {oid}") from None

    def maybe_object(self, oid: Oid) -> DBObject | None:
        return self._objects.get(oid)

    def objects(self) -> Iterator[DBObject]:
        return iter(self._objects.values())

    def direct_extent(self, class_name: str) -> tuple[Oid, ...]:
        """Oids whose instance-of class is exactly ``class_name``."""
        return tuple(self._direct_extents.get(class_name, ()))

    def extent(self, class_name: str) -> tuple[Oid, ...]:
        """Oids of all instances, including those of subclasses."""
        result: list[Oid] = []
        for sub in self._schema.subclasses(class_name):
            result.extend(self._direct_extents.get(sub, ()))
        return tuple(result)

    def is_instance(self, oid: Oid, class_name: str) -> bool:
        obj = self._objects.get(oid)
        if obj is None:
            return False
        return self._schema.is_subclass(obj.class_name, class_name)

    def attribute_values(self, oid: Oid, attribute: str
                         ) -> tuple[Oid, ...]:
        """Values of an attribute (or 0-ary method) on an object.

        A path step through an undefined or unset attribute yields no
        database paths (the XSQL semantics), so missing data returns
        an empty tuple rather than raising.  When no stored value
        exists but the class declares a 0-ary method of that name, the
        method is invoked ("an attribute is regarded as a 0-ary
        method").
        """
        obj = self._objects.get(oid)
        if obj is None:
            return ()
        stored = obj.values(attribute)
        if stored:
            return stored
        method = self._schema.methods_of(obj.class_name).get(attribute)
        if method is not None and method.arity == 0:
            return self.invoke_method(oid, attribute)
        return ()

    def invoke_method(self, oid: Oid, name: str, *args) -> tuple[Oid, ...]:
        """Invoke a stored method on an object; the result is coerced
        to a tuple of oids (one element for scalar methods)."""
        from repro.model.oid import as_oid
        obj = self.object(oid)
        method = self._schema.methods_of(obj.class_name).get(name)
        if method is None:
            raise IntegrityError(
                f"class {obj.class_name!r} has no method {name!r}")
        if len(args) != method.arity:
            raise IntegrityError(
                f"method {name!r} takes {method.arity} arguments, "
                f"got {len(args)}")
        result = method.implementation(self, oid, *args)
        if method.set_valued:
            return tuple(as_oid(v) for v in result)
        return (as_oid(result),)

    # -- integrity -------------------------------------------------------------------

    def validate(self) -> None:
        """Check every stored object against the schema.

        Verifies: attributes are declared (on the class or inherited),
        scalar vs set-valued shape, CST dimensions, and that
        class-valued attributes reference stored objects of a matching
        class (literals match built-in classes).
        """
        for obj in self._objects.values():
            declared = self._schema.attributes_of(obj.class_name)
            for name in obj.attribute_names:
                attr = declared.get(name)
                if attr is None:
                    raise IntegrityError(
                        f"{obj.oid}: attribute {name!r} not declared on "
                        f"class {obj.class_name!r}")
                self._validate_value(obj, attr)

    def _validate_value(self, obj: DBObject, attr: AttributeDef) -> None:
        value = obj.get(attr.name)
        if attr.set_valued != isinstance(value, frozenset):
            shape = "set-valued" if attr.set_valued else "scalar"
            raise IntegrityError(
                f"{obj.oid}.{attr.name}: expected {shape} value")
        for member in obj.values(attr.name):
            self._validate_member(obj, attr, member)

    def _validate_member(self, obj: DBObject, attr: AttributeDef,
                         member: Oid) -> None:
        if attr.is_cst:
            if not isinstance(member, CstOid):
                raise IntegrityError(
                    f"{obj.oid}.{attr.name}: expected a CST value")
            declared = attr.target.variables
            if member.cst.dimension != len(declared):
                raise IntegrityError(
                    f"{obj.oid}.{attr.name}: CST value has dimension "
                    f"{member.cst.dimension}, schema says {len(declared)}")
            return
        target = attr.target
        if isinstance(member, LiteralOid):
            if target in ("string", "real", "integer", "boolean"):
                return
            raise IntegrityError(
                f"{obj.oid}.{attr.name}: literal {member} cannot be an "
                f"instance of {target!r}")
        if isinstance(member, CstOid):
            target_def = self._schema.class_def(target)
            if target_def.cst_dimension is None:
                raise IntegrityError(
                    f"{obj.oid}.{attr.name}: CST oid stored in "
                    f"non-CST-class attribute {target!r}")
            if member not in self._objects:
                raise IntegrityError(
                    f"{obj.oid}.{attr.name}: CST instance not registered "
                    f"in class {target!r}")
            return
        referenced = self._objects.get(member)
        if referenced is None:
            raise IntegrityError(
                f"{obj.oid}.{attr.name}: dangling reference {member}")
        if not self._schema.is_subclass(referenced.class_name, target):
            raise IntegrityError(
                f"{obj.oid}.{attr.name}: {member} is a "
                f"{referenced.class_name!r}, expected {target!r}")

    # -- updates --------------------------------------------------------------------

    def update_attribute(self, oid: Oid, attribute: str, value) -> None:
        """General attribute update (Section 6: "updating CST
        attributes is completely general ... there is no reason that
        moving a desk would be limited in any way").

        The new value is validated against the schema immediately;
        an invalid update raises and leaves the object unchanged.
        """
        obj = self.object(oid)
        attr = self._schema.attributes_of(obj.class_name).get(attribute)
        if attr is None:
            raise IntegrityError(
                f"{oid}: attribute {attribute!r} not declared on class "
                f"{obj.class_name!r}")
        previous = obj.get(attribute)
        obj.set(attribute, value)
        try:
            self._validate_value(obj, attr)
        except IntegrityError:
            obj.restore(attribute, previous)
            raise
        self._notify("update_attribute", oid=oid, attribute=attribute,
                     value=obj.get(attribute))

    def remove_object(self, oid: Oid, *, force: bool = False) -> None:
        """Delete an object; refuses (without ``force``) when other
        stored objects still reference it."""
        obj = self.object(oid)
        if not force:
            for other in self._objects.values():
                if other.oid == oid:
                    continue
                for name in other.attribute_names:
                    if oid in other.values(name):
                        raise IntegrityError(
                            f"cannot remove {oid}: referenced by "
                            f"{other.oid}.{name} (use force=True)")
        del self._objects[oid]
        extent = self._direct_extents.get(obj.class_name, [])
        if oid in extent:
            extent.remove(oid)
        obj._owner = None
        self._mutated()
        self._notify("remove_object", oid=oid, force=force)

    # -- CST convenience ----------------------------------------------------------------

    def cst_value(self, oid: Oid, attribute: str) -> CSTObject | None:
        """The CST object stored at a scalar CST attribute, or None."""
        for value in self.attribute_values(oid, attribute):
            if isinstance(value, CstOid):
                return value.cst
        return None

    def literals(self, class_name: str,
                 values: Iterable[object]) -> list[Oid]:
        """Bulk-wrap literal values (helper for workload generators)."""
        return [as_oid(v) for v in values]
