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
# JSON load / render

_REQUIRED = object()


def _resource(obj, where: str) -> ResourceDesc:
    return ResourceDesc(**_read(obj, _RESOURCE, "resource"))


def _use(obj, where: str) -> tuple[str, int]:
    return tuple(_read(obj, _USE, f"{where} resource use").values())


def _instr_class(obj, where: str) -> InstrClass:
    return InstrClass(**_read(obj, _CLASS, "class"))


# Each table maps the JSON keys of one kind of object to the attribute a
# key fills, its JSON type and its default (_REQUIRED when it has none).
# A list of objects has for its type the function that reads one entry.
_RESOURCE = {"name": ("name", str, _REQUIRED),
             "units": ("units", int, _REQUIRED)}
_USE = {"resource": (0, str, _REQUIRED), "cycles": (1, int, 1)}  # a pair
_CLASS = {
    "name": ("name", str, _REQUIRED),
    "latency": ("latency", int, _REQUIRED),
    "uops": ("num_uops", int, 1),
    "uses": ("resource_usage", _use, ()),
    "may_load": ("may_load", bool, False),
    "may_store": ("may_store", bool, False),
    "is_branch": ("is_branch", bool, False),
    "context_key": ("context_latency_key", (str, type(None)), None),
}
_MODEL = {
    "name": ("name", str, _REQUIRED),
    "dispatch_width": ("dispatch_width", int, _REQUIRED),
    "retire_width": ("retire_width", int, None),  # None: dispatch_width
    "rob_size": ("reorder_buffer_size", int, _REQUIRED),
    "lq_size": ("load_queue_size", int, 16),
    "sq_size": ("store_queue_size", int, 16),
    "resources": ("resources", _resource, ()),
    "classes": ("classes", _instr_class, ()),
    "context_tables": ("context_latency_tables", dict, {}),
}
_ENTRIES = {_resource: _RESOURCE, _use: _USE, _instr_class: _CLASS}
_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a boolean",
               dict: "an object", (str, type(None)): "a string or null"}


def _expect(cond: bool, message: str):
    if not cond:
        raise ModelError(message)


def _is(v, kind) -> bool:
    """Whether v has kind's JSON type; a bool is never an integer."""
    return isinstance(v, kind) and isinstance(v, bool) == (kind is bool)


def _read(obj, keys: dict, what: str) -> dict:
    """obj's fields by attribute, each checked and defaulted by keys;
    messages call obj what, and a list entry by its name once read."""
    _expect(isinstance(obj, dict), f"{what}: expected an object")
    unknown = sorted(obj.keys() - keys)
    _expect(not unknown, f"{what}: unknown field(s) {', '.join(unknown)}")
    where = what
    fields = {}
    for key, (attr, kind, default) in keys.items():
        if key not in obj:
            _expect(default is not _REQUIRED,
                    f"{where}: missing field '{key}'")
            fields[attr] = default
            continue
        v = obj[key]
        if kind in _ENTRIES:
            _expect(isinstance(v, list),
                    f"{where}: field '{key}' must be a list")
            v = tuple(kind(entry, where) for entry in v)
        else:
            _expect(_is(v, kind),
                    f"{where}: field '{key}' must be {_TYPE_NAMES[kind]}")
        fields[attr] = v
        if key == "name" and what != "model":
            where = f"{what} '{v}'"
    return fields


def load_model(text: str) -> MachineModel:
    """Parse and validate a machine model from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(
            f"model parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    model = MachineModel(**_read(raw, _MODEL, "model"))
    # A copy, so that no two models share the default {}.
    tables = dict(model.context_latency_tables)
    for key, table in tables.items():
        where = f"context table '{key}'"
        _expect(isinstance(table, dict), f"{where}: must be an object")
        for value, lat in table.items():
            _expect(_is(lat, int),
                    f"{where}: latency for '{value}' must be an integer")
    width = model.retire_width
    model = model._replace(context_latency_tables=tables, retire_width=(
        model.dispatch_width if width is None else width))
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


def _doc(obj, keys: dict) -> dict:
    """obj as the JSON object keys describes, entries of lists included."""
    if type(obj) is tuple:  # a resource use, not a model named tuple
        return dict(zip(keys, obj))
    doc = {}
    for key, (attr, kind, _) in keys.items():
        v = getattr(obj, attr)
        if kind in _ENTRIES:
            v = [_doc(entry, _ENTRIES[kind]) for entry in v]
        doc[key] = v
    return doc


def render_model(model: MachineModel) -> str:
    """Serialize a model to JSON text; load_model inverts this exactly."""
    return json.dumps(_doc(model, _MODEL), indent=2) + "\n"
