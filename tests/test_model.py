"""Machine model loading, validation, rendering."""

import json
import random
import re

import pytest

import gen
from cycletrace import (
    AliasPolicy,
    AnalysisReport,
    ModelError,
    Pipeline,
    PoolStats,
    RegionSpec,
    SequenceBroker,
    SummaryStats,
    analyze,
    load_model,
    render_model,
    validate_model,
)
from cycletrace.analysis import RegionStats

MINIMAL = """
{
  "name": "tiny",
  "dispatch_width": 2,
  "rob_size": 8,
  "classes": [{"name": "nop", "latency": 1}]
}
"""


def test_load_minimal_applies_defaults():
    m = load_model(MINIMAL)
    assert m.name == "tiny"
    assert m.retire_width == 2          # defaults to dispatch_width
    assert m.load_queue_size == 16
    assert m.store_queue_size == 16
    assert m.resources == ()
    assert m.class_named("nop").latency == 1
    assert m.class_named("nope") is None


def test_load_full_model():
    m = load_model("""
    {
      "name": "full",
      "dispatch_width": 4,
      "retire_width": 2,
      "rob_size": 64,
      "lq_size": 3,
      "sq_size": 5,
      "resources": [{"name": "P0", "units": 2}],
      "classes": [
        {"name": "mul", "latency": 3, "uops": 2,
         "uses": [{"resource": "P0", "cycles": 2}],
         "context_key": "sz"},
        {"name": "ld", "latency": 4, "may_load": true},
        {"name": "st", "latency": 1, "may_store": true, "is_branch": false}
      ],
      "context_tables": {"sz": {"4": 2, "8": 5}}
    }
    """)
    assert m.retire_width == 2
    mul = m.class_named("mul")
    assert mul.num_uops == 2
    assert mul.resource_usage == (("P0", 2),)
    assert mul.context_latency_key == "sz"
    assert m.class_named("ld").may_load
    assert m.class_named("st").may_store
    assert m.context_latency_tables == {"sz": {"4": 2, "8": 5}}


def test_use_cycles_defaults_to_one():
    m = load_model("""
    {"name": "m", "dispatch_width": 1, "rob_size": 4,
     "resources": [{"name": "P0", "units": 1}],
     "classes": [{"name": "a", "latency": 1,
                  "uses": [{"resource": "P0"}]}]}
    """)
    assert m.class_named("a").resource_usage == (("P0", 1),)


def test_bad_json_reports_position():
    with pytest.raises(ModelError, match=r"line \d+, column \d+"):
        load_model('{"name": "x", }')


def test_unknown_field_rejected():
    with pytest.raises(ModelError, match="unknown field"):
        load_model('{"name": "m", "dispatch_width": 1, "rob_size": 4, '
                   '"classes": [], "speed": 9000}')


@pytest.mark.parametrize("text,message", [
    ('{"name": "m", "dispatch_width": 1, "rob_size": 4, '
     '"classes": [{"name": "a"}]}', "class 'a': missing field 'latency'"),
    ('{"name": "m", "dispatch_width": 1, "rob_size": 4, "classes": [], '
     '"resources": [{"units": 1}]}', r"resource\[0\]: missing field 'name'"),
])
def test_missing_required_field_rejected(text, message):
    with pytest.raises(ModelError, match=message):
        load_model(text)


def _model_text(**changes):
    """A valid model's JSON text with some top-level fields replaced."""
    doc = {"name": "m", "dispatch_width": 1, "rob_size": 4,
           "resources": [{"name": "P0", "units": 1}],
           "classes": [{"name": "a", "latency": 1}]}
    doc.update(changes)
    return json.dumps(doc)


def _class_text(**changes):
    return _model_text(classes=[{"name": "a", "latency": 1, **changes}])


@pytest.mark.parametrize("text,message", [
    (_model_text(dispatch_width=True),
     "model: field 'dispatch_width' must be an integer"),
    (_class_text(latency="1"),
     "class 'a': field 'latency' must be an integer"),
    (_class_text(may_load=1), "class 'a': field 'may_load' must be a boolean"),
    (_class_text(uses={}), "'uses' must be a list"),
    (_class_text(uses=[5]),
     "class 'a' resource use[0]: must be an object, got 5"),
    (_model_text(resources=[{"name": "P0", "units": 2.0}]),
     "resource 'P0': field 'units' must be an integer"),
    (_model_text(name=5), "model: field 'name' must be a string"),
    (_model_text(classes=5), "'classes' must be a list"),
    (_model_text(classes=[7]), "class[0]: must be an object, got 7"),
    ("[]", "model: must be an object, got []"),
    (_model_text(context_tables=[]), "'context_tables' must be an object"),
    (_model_text(context_tables={"k": 3}),
     "context table 'k': must be an object"),
    (_model_text(context_tables={"k": {"1": True}}),
     "context table 'k': latency for '1' must be an integer"),
    (_model_text(context_tables={"k": {"1": -1}}),
     "context table 'k': latency for '1' must not be negative, got -1"),
    (_class_text(context_key=5), "'context_key' must be a string or null"),
])
def test_wrong_json_type_rejected(text, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        load_model(text)


@pytest.mark.parametrize("mutation,message", [
    (dict(width=0), "dispatch_width"),
    (dict(retire=0), "retire_width"),
    (dict(rob=1), "rob_size must be >= dispatch_width"),
    (dict(lq=0), "lq_size"),
    (dict(sq=0), "sq_size"),
])
def test_validate_width_rules(mutation, message):
    m = gen.simple_model(**mutation)
    with pytest.raises(ModelError, match=message):
        validate_model(m)


def test_validate_duplicate_resource():
    m = gen.make_model([gen.make_class("a", 1)],
                       resources=[("P0", 1), ("P0", 2)])
    with pytest.raises(ModelError, match="duplicate resource"):
        validate_model(m)


def test_validate_duplicate_class():
    m = gen.make_model([gen.make_class("a", 1), gen.make_class("a", 2)])
    with pytest.raises(ModelError, match="duplicate class"):
        validate_model(m)


def test_validate_undeclared_resource():
    m = gen.make_model([gen.make_class("a", 1, uses=[("P9", 1)])])
    with pytest.raises(ModelError, match="undeclared resource 'P9'"):
        validate_model(m)


def test_validate_bad_latency_and_occupancy():
    with pytest.raises(ModelError, match="latency must be >= 1"):
        validate_model(gen.make_model([gen.make_class("a", 0)]))
    m = gen.make_model(
        [gen.make_class("a", 1, uses=[("P0", 0)])], resources=[("P0", 1)]
    )
    with pytest.raises(ModelError, match="occupancy"):
        validate_model(m)


def test_validate_rejects_more_claims_than_units():
    m = gen.make_model(
        [gen.make_class("pair", 1, uses=[("ALU", 1), ("ALU", 1)])],
        resources=[("ALU", 1)],
    )
    with pytest.raises(
        ModelError,
        match=r"class 'pair': claims resource 'ALU' 2 times but it has "
              r"1 unit\(s\)",
    ):
        validate_model(m)


def test_validate_allows_as_many_claims_as_units():
    m = gen.make_model(
        [gen.make_class("pair", 1, uses=[("ALU", 1), ("ALU", 2)])],
        resources=[("ALU", 2)],
    )
    validate_model(m)
    pipe = Pipeline(m)
    assert not gen.run_trace(pipe, [gen.ti(s, "pair") for s in range(4)])
    assert pipe.instructions_retired == 4


def test_validate_context_key_needs_table():
    m = gen.make_model([gen.make_class("a", 1, context_key="sz")])
    with pytest.raises(ModelError, match="context"):
        validate_model(m)


def test_validate_table_latencies_positive():
    m = gen.make_model(
        [gen.make_class("a", 1, context_key="sz")],
        tables={"sz": {"4": 0}},
    )
    with pytest.raises(ModelError, match=">= 1"):
        validate_model(m)


def test_render_round_trips():
    m = load_model("""
    {
      "name": "rt", "dispatch_width": 3, "retire_width": 1, "rob_size": 12,
      "lq_size": 2, "sq_size": 7,
      "resources": [{"name": "P0", "units": 2}, {"name": "P1", "units": 1}],
      "classes": [
        {"name": "a", "latency": 2, "uops": 3,
         "uses": [{"resource": "P0", "cycles": 2}, {"resource": "P1"}],
         "may_load": true, "context_key": "k"},
        {"name": "b", "latency": 1, "is_branch": true, "may_store": true}
      ],
      "context_tables": {"k": {"1": 1, "16": 9}}
    }
    """)
    assert load_model(render_model(m)) == m


# render_model's bytes for the model above: two-space indent, the model's
# keys in their table's order, every default written out.
RENDERED = """\
{
  "name": "rt",
  "dispatch_width": 3,
  "retire_width": 1,
  "rob_size": 12,
  "lq_size": 2,
  "sq_size": 7,
  "resources": [
    {
      "name": "P0",
      "units": 2
    },
    {
      "name": "P1",
      "units": 1
    }
  ],
  "classes": [
    {
      "name": "a",
      "latency": 2,
      "uops": 3,
      "uses": [
        {
          "resource": "P0",
          "cycles": 2
        },
        {
          "resource": "P1",
          "cycles": 1
        }
      ],
      "may_load": true,
      "may_store": false,
      "is_branch": false,
      "context_key": "k"
    },
    {
      "name": "b",
      "latency": 1,
      "uops": 1,
      "uses": [],
      "may_load": false,
      "may_store": true,
      "is_branch": true,
      "context_key": null
    }
  ],
  "context_tables": {
    "k": {
      "1": 1,
      "16": 9
    }
  }
}
"""


def test_render_model_writes_these_bytes():
    assert render_model(load_model(RENDERED)) == RENDERED


# A region report, and AnalysisReport.to_json's bytes for it: two-space
# indent, report_version first, then the report's keys in their table's
# order; floats as repr writes them, per_visit pairs as objects.
REPORT = AnalysisReport(
    model_name="rt", source="loop.trace", digest="ab" * 32,
    alias_policy="metadata", truncated=False,
    summary=SummaryStats(instructions=7, total_cycles=6, total_uops=9,
                         dispatch_width=2, uops_per_cycle=1.5,
                         ipc=7 / 6, block_rthroughput=3.0),
    pool=PoolStats(total_allocated=8, total_recycled=1, peak_live=7),
    missing_metadata=2,
    regions=RegionStats(visits=2, instructions=7, cycles=6,
                        per_visit=((4, 4), (3, 2))))
REPORT_TEXT = """\
{
  "report_version": 1,
  "model": "rt",
  "source": "loop.trace",
  "digest": "abababababababababababababababababababababababababababababababab",
  "alias_policy": "metadata",
  "truncated": false,
  "summary": {
    "instructions": 7,
    "total_cycles": 6,
    "total_uops": 9,
    "dispatch_width": 2,
    "uops_per_cycle": 1.5,
    "ipc": 1.1666666666666667,
    "block_rthroughput": 3.0
  },
  "pool": {
    "total_allocated": 8,
    "total_recycled": 1,
    "peak_live": 7
  },
  "missing_metadata": 2,
  "regions": {
    "visits": 2,
    "instructions": 7,
    "cycles": 6,
    "per_visit": [
      {
        "instructions": 4,
        "cycles": 4
      },
      {
        "instructions": 3,
        "cycles": 2
      }
    ]
  }
}
"""


def test_report_to_json_writes_these_bytes():
    assert REPORT.to_json() == REPORT_TEXT
    assert AnalysisReport.from_json(REPORT_TEXT) == REPORT


def test_models_and_reports_round_trip_through_the_codec():
    for seed in range(20):
        rng = random.Random(seed)
        insts = gen.random_trace(rng, rng.randint(1, 60))
        lo = rng.randrange(len(insts))
        hi = rng.randrange(lo, len(insts))
        spec = RegionSpec.from_ranges(
            [(insts[lo].address, insts[hi].address + 1, None)])
        for make in (gen.random_model, gen.wide_model):
            m = make(rng)
            assert load_model(render_model(m)) == m
            for policy in AliasPolicy:
                for regions in (None, spec):
                    report = analyze(m, SequenceBroker(insts),
                                     alias_policy=policy, regions=regions)
                    assert AnalysisReport.from_json(
                        report.to_json()) == report, seed
