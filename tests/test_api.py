"""The public API is what the README, the tests or the benchmark use."""

import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import cycletrace
import gen
from cycletrace import analysis, model

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_used_or_documented():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for folder in ("tests", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name != Path(__file__).name:
                text += path.read_text(encoding="utf-8")
    unused = [name for name in cycletrace.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []


def _json_keys(table) -> set:
    """The keys of a codec table and of every table nested in it."""
    keys = set(table.fields)
    for kind, *_ in table.fields.values():
        kind = kind[0] if isinstance(kind, (list, tuple)) else kind
        if isinstance(kind, model._Table):
            keys |= _json_keys(kind)
    return keys


def _readme_misses(heading: str, keys: set) -> list:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = text.split(heading, 1)[1].split("\n\n", 1)[0]
    return [key for key in sorted(keys)
            if not re.search(rf"\b{key}\b", paragraph)]


def test_readme_names_every_model_key():
    assert _readme_misses("**Machine model**",
                          _json_keys(model._MODEL)) == []


def test_readme_names_every_report_key():
    keys = _json_keys(analysis._REPORT) | {"report_version"}
    assert _readme_misses("**Report**", keys) == []


def test_readme_names_only_pipeline_methods_that_exist():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bPipeline\.(\w+)\(", text))
    assert "feed" in named
    missing = [name for name in sorted(named)
               if not hasattr(cycletrace.Pipeline, name)]
    assert missing == []


# What bench/tracing.py rebinds: (module, class or None, attribute, the
# number of positional parameters its wrapper passes on, or None where
# the wrapper passes any).  The tracer is not installed here, so a
# refactor that would break the traced benchmark fails this test too.
_TRACED = [
    ("trace", None, "parse_trace_line", None),
    ("trace", None, "from_wire", 1),
    ("brokers", "SequenceBroker", "fetch_batch", 2),
    ("brokers", "SocketBroker", "fetch_batch", 2),
    ("analysis", "_HashingBroker", "fetch_batch", None),
    ("analysis", "AnalysisReport", "to_json", None),
    ("analysis", None, "analyze", None),
    ("engine", "Pipeline", "run_until_starved", None),
    ("engine", "Pipeline", "feed", 2),
    ("engine", "Pipeline", "_wake", 2),
    ("engine", "Pipeline", "run_cycle", 1),
    ("lsunit", "MemQueues", "find_blocker", 5),
    ("views", "TimelineRecorder", "on_retire", None),
    ("views", None, "render_summary", None),
    ("views", None, "render_timeline", None),
]


def test_the_bench_tracer_finds_every_hook():
    for module, cls, name, arity in _TRACED:
        owner = getattr(cycletrace, module)
        if cls is not None:
            owner = getattr(owner, cls)
        fn = vars(owner).get(name)
        assert isinstance(fn, types.FunctionType), (module, cls, name)
        if arity is not None:  # raises TypeError if the call cannot bind
            inspect.signature(fn).bind(*range(arity))
    # The wire decode span unwraps the staticmethod.
    decode = vars(cycletrace.SocketBroker)["_decode_frame"]
    assert isinstance(decode, staticmethod)
    assert isinstance(decode.__func__, types.FunctionType)
    assert "stalled" in cycletrace.Batch._fields
    # The tracer wraps SequenceBroker.fetch_batch, so a file's fetches
    # are timed only while FileBroker inherits it.
    assert "fetch_batch" not in vars(cycletrace.FileBroker)
    # What the run_cycle wrapper reads around each cycle.
    pipe = cycletrace.Pipeline(gen.simple_model())
    for attr in ("entry", "executing", "deferred", "rob"):
        assert hasattr(getattr(pipe, attr), "__len__"), attr
    assert pipe.instructions_retired == 0


# Run in a fresh interpreter without site, so nothing but the package
# itself loads modules.
_COLD_IMPORT = """
import sys

unused = ("socket", "typing", "dataclasses", "inspect", "cycletrace.toyisa",
          "cycletrace.diff")
import cycletrace
assert [m for m in unused if m in sys.modules] == [], "import cycletrace"
import cycletrace.cli
assert [m for m in unused if m in sys.modules] == [], "import cycletrace.cli"

assert set(cycletrace.__all__) <= set(dir(cycletrace))
assert cycletrace.execute.__module__ == "cycletrace.toyisa"
assert "cycletrace.toyisa" in sys.modules
assert "cycletrace.diff" not in sys.modules
assert cycletrace.diff_reports.__module__ == "cycletrace.diff"
assert "cycletrace.diff" in sys.modules
assert "dataclasses" not in sys.modules, "toy ISA and diff"
# The other lazy names are still unresolved here.
namespace = {}
exec("from cycletrace import *", namespace)
assert sorted(namespace.keys() - {"__builtins__"}) == sorted(cycletrace.__all__)
for name in cycletrace.__all__:
    assert getattr(cycletrace, name) is namespace[name], name
assert not hasattr(cycletrace, "no_such_name")
"""


def test_import_loads_only_the_analyze_path():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _COLD_IMPORT],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
