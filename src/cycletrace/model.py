"""Machine model: resources, instruction classes, widths, latency tables.

A model is an immutable description of the simulated core.  Models load
from JSON text; loading validates every structural rule and rejects fields
it does not know about, so a typo fails loudly instead of silently
changing timing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ModelError


@dataclass(frozen=True)
class ResourceDesc:
    """An execution resource (a port or unit group) with parallel units."""

    name: str
    units: int


@dataclass(frozen=True)
class InstrClass:
    """Timing description shared by all instructions of one class.

    resource_usage lists (resource name, occupancy cycles) claims; each
    claim holds one unit of that resource busy for the given cycles.
    context_latency_key, when set, selects a latency table that overrides
    the static latency for instructions carrying context under that key.
    Context values compare as text, and a value absent from the table is
    an error: guessing a latency would silently skew results.
    """

    name: str
    latency: int
    num_uops: int = 1
    resource_usage: tuple[tuple[str, int], ...] = ()
    may_load: bool = False
    may_store: bool = False
    is_branch: bool = False
    context_latency_key: str | None = None


@dataclass(frozen=True)
class MachineModel:
    name: str
    dispatch_width: int
    retire_width: int
    reorder_buffer_size: int
    load_queue_size: int
    store_queue_size: int
    resources: tuple[ResourceDesc, ...]
    classes: tuple[InstrClass, ...]
    context_latency_tables: dict[str, dict[str, int]]
    _class_index: dict[str, InstrClass] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_class_index", {c.name: c for c in self.classes}
        )

    def class_named(self, name: str) -> InstrClass | None:
        return self._class_index.get(name)


# ---------------------------------------------------------------------------
# JSON load / render

_TOP_FIELDS = {
    "name", "dispatch_width", "retire_width", "rob_size",
    "lq_size", "sq_size", "resources", "classes", "context_tables",
}
_RESOURCE_FIELDS = {"name", "units"}
_CLASS_FIELDS = {
    "name", "latency", "uops", "uses",
    "may_load", "may_store", "is_branch", "context_key",
}
_USE_FIELDS = {"resource", "cycles"}


def _expect(cond: bool, message: str):
    if not cond:
        raise ModelError(message)


def _check_fields(obj: dict, allowed: set[str], where: str):
    _expect(isinstance(obj, dict), f"{where}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ModelError(
            f"{where}: unknown field(s) {', '.join(sorted(unknown))}"
        )


def _get_int(obj: dict, key: str, where: str, default=None) -> int:
    if key not in obj:
        if default is not None:
            return default
        raise ModelError(f"{where}: missing field '{key}'")
    v = obj[key]
    _expect(
        isinstance(v, int) and not isinstance(v, bool),
        f"{where}: field '{key}' must be an integer",
    )
    return v


def _get_str(obj: dict, key: str, where: str) -> str:
    if key not in obj:
        raise ModelError(f"{where}: missing field '{key}'")
    v = obj[key]
    _expect(isinstance(v, str), f"{where}: field '{key}' must be a string")
    return v


def _get_bool(obj: dict, key: str, where: str) -> bool:
    v = obj.get(key, False)
    _expect(isinstance(v, bool), f"{where}: field '{key}' must be a boolean")
    return v


def load_model(text: str) -> MachineModel:
    """Parse and validate a machine model from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ModelError(
            f"model parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    _check_fields(raw, _TOP_FIELDS, "model")

    name = _get_str(raw, "name", "model")
    dispatch_width = _get_int(raw, "dispatch_width", "model")
    retire_width = _get_int(raw, "retire_width", "model", default=dispatch_width)
    rob_size = _get_int(raw, "rob_size", "model")
    lq_size = _get_int(raw, "lq_size", "model", default=16)
    sq_size = _get_int(raw, "sq_size", "model", default=16)

    resources = []
    res_raw = raw.get("resources", [])
    _expect(isinstance(res_raw, list), "model: 'resources' must be a list")
    for entry in res_raw:
        _check_fields(entry, _RESOURCE_FIELDS, "resource")
        rname = _get_str(entry, "name", "resource")
        units = _get_int(entry, "units", f"resource '{rname}'")
        resources.append(ResourceDesc(rname, units))

    classes = []
    cls_raw = raw.get("classes", [])
    _expect(isinstance(cls_raw, list), "model: 'classes' must be a list")
    for entry in cls_raw:
        _check_fields(entry, _CLASS_FIELDS, "class")
        cname = _get_str(entry, "name", "class")
        where = f"class '{cname}'"
        latency = _get_int(entry, "latency", where)
        uops = _get_int(entry, "uops", where, default=1)
        uses = []
        uses_raw = entry.get("uses", [])
        _expect(isinstance(uses_raw, list), f"{where}: 'uses' must be a list")
        for use in uses_raw:
            _check_fields(use, _USE_FIELDS, f"{where} resource use")
            uses.append((
                _get_str(use, "resource", f"{where} resource use"),
                _get_int(use, "cycles", f"{where} resource use", default=1),
            ))
        ckey = entry.get("context_key")
        _expect(
            ckey is None or isinstance(ckey, str),
            f"{where}: 'context_key' must be a string or null",
        )
        classes.append(InstrClass(
            name=cname,
            latency=latency,
            num_uops=uops,
            resource_usage=tuple(uses),
            may_load=_get_bool(entry, "may_load", where),
            may_store=_get_bool(entry, "may_store", where),
            is_branch=_get_bool(entry, "is_branch", where),
            context_latency_key=ckey,
        ))

    tables_raw = raw.get("context_tables", {})
    _expect(
        isinstance(tables_raw, dict), "model: 'context_tables' must be an object"
    )
    tables: dict[str, dict[str, int]] = {}
    for key, table in tables_raw.items():
        where = f"context table '{key}'"
        _expect(isinstance(table, dict), f"{where}: must be an object")
        entries = {}
        for value, lat in table.items():
            _expect(
                isinstance(lat, int) and not isinstance(lat, bool),
                f"{where}: latency for '{value}' must be an integer",
            )
            entries[str(value)] = lat
        tables[key] = entries

    model = MachineModel(
        name=name,
        dispatch_width=dispatch_width,
        retire_width=retire_width,
        reorder_buffer_size=rob_size,
        load_queue_size=lq_size,
        store_queue_size=sq_size,
        resources=tuple(resources),
        classes=tuple(classes),
        context_latency_tables=tables,
    )
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
    doc = {
        "name": model.name,
        "dispatch_width": model.dispatch_width,
        "retire_width": model.retire_width,
        "rob_size": model.reorder_buffer_size,
        "lq_size": model.load_queue_size,
        "sq_size": model.store_queue_size,
        "resources": [
            {"name": r.name, "units": r.units} for r in model.resources
        ],
        "classes": [
            {
                "name": c.name,
                "latency": c.latency,
                "uops": c.num_uops,
                "uses": [
                    {"resource": rname, "cycles": cycles}
                    for rname, cycles in c.resource_usage
                ],
                "may_load": c.may_load,
                "may_store": c.may_store,
                "is_branch": c.is_branch,
                "context_key": c.context_latency_key,
            }
            for c in model.classes
        ],
        "context_tables": model.context_latency_tables,
    }
    return json.dumps(doc, indent=2) + "\n"
