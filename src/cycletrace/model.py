"""Machine model: resources, instruction classes, widths, latency tables.

A model is an immutable description of the simulated core.  Models load
from JSON text; loading validates every structural rule and rejects fields
it does not know about, so a typo fails loudly instead of silently
changing timing.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import ModelError


class ResourceDesc(namedtuple("ResourceDesc", "name units")):
    """An execution resource (a port or unit group) with parallel units."""

    __slots__ = ()


class InstrClass(namedtuple(
        "InstrClass", "name latency num_uops resource_usage may_load "
        "may_store is_branch context_latency_key",
        defaults=(1, (), False, False, False, None))):
    """Timing description shared by all instructions of one class.

    resource_usage lists (resource name, occupancy cycles) claims; each
    claim holds one unit of that resource busy for the given cycles.
    context_latency_key, when set, selects a latency table that overrides
    the static latency for instructions carrying context under that key.
    Context values compare as text, and a value absent from the table is
    an error: guessing a latency would silently skew results.
    """

    __slots__ = ()


class MachineModel(namedtuple(
        "MachineModel", "name dispatch_width retire_width "
        "reorder_buffer_size load_queue_size store_queue_size resources "
        "classes context_latency_tables")):
    __slots__ = ()

    def class_named(self, name: str) -> InstrClass | None:
        return {c.name: c for c in self.classes}.get(name)


# ---------------------------------------------------------------------------
# JSON codec: models here, and analysis reports through the same tables

_REQUIRED = object()
# Each JSON type's name in messages, and the types json.loads gives for
# it: an integer is a number too, and a bool is neither.
_TYPES = {int: ("an integer", (int,)), float: ("a number", (int, float)),
          str: ("a string", (str,)), bool: ("a boolean", (bool,)),
          dict: ("an object", (dict,)), list: ("a list", (list,))}


def _must(subject: str, name: str, v) -> ModelError:
    return ModelError(f"{subject} must be {name}, got {json.dumps(v)}")


class _Table:
    """One kind of JSON object, read into a tuple and written from one.

    what names the object in messages, and make builds its tuple from
    keyword arguments.  fields maps each JSON key, in the order of the
    tuple's items, to the argument it fills, its kind and its default
    (_REQUIRED when it has none).  A kind is a JSON type (int, float,
    str or bool), a table for a nested object, a _Map, [table] for a
    list of objects, or (kind, None) when null is allowed too.  An int
    kind is a count or a size, so a negative one is refused; a float
    kind reads an integer as a float.  An object may hold no other field.
    """

    __slots__ = ("what", "make", "fields")

    def __init__(self, what: str, make, fields: dict):
        self.what, self.make, self.fields = what, make, {}
        for key, (attr, kind, default) in fields.items():
            null = type(kind) is tuple
            base = kind[0] if null or type(kind) is list else kind
            table = base if type(base) in (_Table, _Map) else None
            name, types = _TYPES[list if type(kind) is list
                                 else dict if table else base]
            if null:
                name, types = f"{name} or null", (*types, type(None))
            self.fields[key] = (attr, kind, default, name, types, table)

    def read(self, obj, where: str, root: bool = False):
        """The tuple obj holds.  Messages name obj by where, a nested
        object by where and its what (by its what alone in a root), and a
        list entry by its index too, until its 'name' is read."""
        if type(obj) is not dict:
            raise _must(f"{where}:", "an object", obj)
        unknown = obj.keys() - self.fields
        if unknown:
            raise ModelError(f"{where}: unknown field(s) "
                             + ", ".join(map(repr, sorted(unknown))))
        values = {}
        for key, (attr, kind, default, name, types, table) in (
                self.fields.items()):
            if key not in obj:
                if default is _REQUIRED:
                    raise ModelError(f"{where}: missing field '{key}'")
                values[attr] = default
                continue
            v = obj[key]
            t = type(v)
            if t not in types:
                raise _must(f"{where}: field '{key}'", name, v)
            if t is int:
                if kind is float:
                    try:
                        v = float(v)
                    except OverflowError:  # past a float's range
                        raise _must(f"{where}: field '{key}'", name,
                                    v) from None
                elif v < 0:
                    raise ModelError(f"{where}: field '{key}' must not be "
                                     f"negative, got {v}")
            elif table is not None and v is not None:
                at = ("" if root else f"{where} ") + table.what
                v = table.read(v, at) if t is dict else tuple(
                    table.read(entry, f"{at}[{i}]")
                    for i, entry in enumerate(v))
            elif key == "name" and not root:
                where = f"{self.what} '{v}'"
            values[attr] = v
        return self.make(**values)

    def doc(self, value) -> dict:
        """value as the JSON object this table describes."""
        doc = {}
        for (key, (_, kind, *_, table)), v in zip(self.fields.items(),
                                                  value):
            if table is not None and v is not None:
                v = table.doc(v) if type(kind) is not list else [
                    table.doc(entry) for entry in v]
            doc[key] = v
        return doc


class _Map(namedtuple("_Map", "what kind")):
    """An object whose values, under any keys, all have one kind: int or
    a _Map.  Messages name a value by what and its key; an int value is
    a count or a size, so a negative one is refused."""

    __slots__ = ()

    def read(self, obj: dict, where: str) -> dict:
        """A copy of obj, whose values where and their keys name."""
        kind, out = self.kind, {}
        name, types = _TYPES[dict if type(kind) is _Map else kind]
        for key, v in obj.items():
            at = f"{where} '{key}'"
            if type(v) not in types:
                raise _must(at + ":" * (type(kind) is _Map), name, v)
            if type(kind) is _Map:
                v = kind.read(v, f"{at}: {kind.what}")
            elif v < 0:
                raise ModelError(f"{at} must not be negative, got {v}")
            out[key] = v
        return out

    def doc(self, value: dict) -> dict:
        return value


_USE = _Table("resource use", lambda resource, cycles: (resource, cycles), {
    "resource": ("resource", str, _REQUIRED), "cycles": ("cycles", int, 1)})
_RESOURCE = _Table("resource", ResourceDesc, {
    "name": ("name", str, _REQUIRED), "units": ("units", int, _REQUIRED)})
_CLASS = _Table("class", InstrClass, {
    "name": ("name", str, _REQUIRED),
    "latency": ("latency", int, _REQUIRED),
    "uops": ("num_uops", int, 1),
    "uses": ("resource_usage", [_USE], ()),
    "may_load": ("may_load", bool, False),
    "may_store": ("may_store", bool, False),
    "is_branch": ("is_branch", bool, False),
    "context_key": ("context_latency_key", (str, None), None),
})
_MODEL = _Table("model", MachineModel, {
    "name": ("name", str, _REQUIRED),
    "dispatch_width": ("dispatch_width", int, _REQUIRED),
    "retire_width": ("retire_width", int, None),  # None: dispatch_width
    "rob_size": ("reorder_buffer_size", int, _REQUIRED),
    "lq_size": ("load_queue_size", int, 16),
    "sq_size": ("store_queue_size", int, 16),
    "resources": ("resources", [_RESOURCE], ()),
    "classes": ("classes", [_CLASS], ()),
    "context_tables": ("context_latency_tables",
                       _Map("context table", _Map("latency for", int)), {}),
})


def _expect(cond: bool, message: str):
    if not cond:
        raise ModelError(message)


def _loads(text: str, error: type, what: str):
    """json.loads(text), raising error for every text it refuses; models,
    reports and stream frames are all decoded here."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(
            f"{what} at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError:
        raise error(
            f"{what}: integer past the interpreter's digit limit") from None
    except RecursionError:
        raise error(f"{what}: nested too deeply") from None


def load_model(text: str) -> MachineModel:
    """Parse and validate a machine model from JSON text."""
    raw = _loads(text, ModelError, "model parse error")
    model = _MODEL.read(raw, "model", root=True)
    width = model.retire_width
    # A copy of the tables, so that no two models share the default {}.
    model = model._replace(
        context_latency_tables=dict(model.context_latency_tables),
        retire_width=model.dispatch_width if width is None else width)
    validate_model(model)
    return model


def validate_model(model: MachineModel):
    """Check every structural rule; raise ModelError naming the entity."""
    _expect(model.dispatch_width >= 1, "model: dispatch_width must be >= 1")
    _expect(model.retire_width >= 1, "model: retire_width must be >= 1")
    _expect(
        model.reorder_buffer_size >= model.dispatch_width,
        "model: rob_size must be >= dispatch_width",
    )
    _expect(model.load_queue_size >= 1, "model: lq_size must be >= 1")
    _expect(model.store_queue_size >= 1, "model: sq_size must be >= 1")

    units: dict[str, int] = {}
    for r in model.resources:
        _expect(
            r.name not in units, f"resource '{r.name}': duplicate resource name"
        )
        units[r.name] = r.units
        _expect(r.units >= 1, f"resource '{r.name}': units must be >= 1")

    seen = set()
    for c in model.classes:
        where = f"class '{c.name}'"
        _expect(c.name not in seen, f"{where}: duplicate class name")
        seen.add(c.name)
        _expect(c.latency >= 1, f"{where}: latency must be >= 1")
        _expect(c.num_uops >= 1, f"{where}: uops must be >= 1")
        names = [rname for rname, _ in c.resource_usage]
        for rname, cycles in c.resource_usage:
            _expect(
                rname in units,
                f"{where}: uses undeclared resource '{rname}'",
            )
            _expect(
                cycles >= 1,
                f"{where}: occupancy on '{rname}' must be >= 1",
            )
            # Each claim holds its own unit, so one more claim than
            # units could never issue.
            claims = names.count(rname)
            _expect(
                claims <= units[rname],
                f"{where}: claims resource '{rname}' {claims} times but "
                f"it has {units[rname]} unit(s), so it could never issue",
            )
        if c.context_latency_key is not None:
            _expect(
                c.context_latency_key in model.context_latency_tables,
                f"{where}: no context table for key "
                f"'{c.context_latency_key}'",
            )

    for key, table in model.context_latency_tables.items():
        for value, lat in table.items():
            _expect(
                lat >= 1,
                f"context table '{key}': latency for '{value}' must be >= 1",
            )


def render_model(model: MachineModel) -> str:
    """Serialize a model to JSON text; load_model inverts this exactly."""
    return json.dumps(_MODEL.doc(model), indent=2) + "\n"
