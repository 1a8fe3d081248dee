"""cycletrace: streaming out-of-order pipeline analysis for instruction traces.

Feed an instruction trace (from a file, a socket, or the bundled toy
executor) through a configurable superscalar pipeline model, get cycle
counts, summaries, timelines, and differential comparisons between runs.

The toy ISA (toyisa) and the differential comparison (diff) load on
first use of one of their names, so that analyzing a trace does not
import them.
"""

from importlib import import_module

from .analysis import (
    AnalysisReport,
    RegionSpec,
    analyze,
    parse_regions,
)
from .brokers import (
    FileBroker,
    SequenceBroker,
    SocketBroker,
    send_trace,
    stream_to_socket,
)
from .engine import (
    InstrRecord,
    Pipeline,
    PoolStats,
)
from .errors import (
    AnalysisError,
    CycleTraceError,
    ModelError,
    ProgramError,
    ProtocolError,
    TraceParseError,
    TruncatedTraceError,
    UndefinedRatioError,
)
from .lsunit import AliasPolicy, MemQueues
from .model import (
    InstrClass,
    MachineModel,
    ResourceDesc,
    load_model,
    render_model,
    validate_model,
)
from .trace import (
    AccessKind,
    Batch,
    MemoryAccess,
    TraceInstruction,
    from_wire,
    parse_trace,
    parse_trace_line,
    render_instruction,
    render_trace,
    to_wire,
)
from .views import (
    SummaryStats,
    TimelineRecorder,
    TimelineRow,
    export_browser_trace,
    render_summary,
    render_timeline,
    summarize,
    timeline_trace_events,
)

__version__ = "0.1.0"

# Public names resolved, with their module, on first access.
_LAZY = {
    "diff_reports": "diff",
    "differential_throughput": "diff",
    "geometric_mean": "diff",
    "measured_delta_from_pairs": "diff",
    "parse_ground_truth": "diff",
    "prediction_error": "diff",
    "render_diff": "diff",
    "execute": "toyisa",
    "parse_program": "toyisa",
}


def __getattr__(name: str):
    if name in _LAZY:
        module = import_module(f".{_LAZY[name]}", __name__)
        value = globals()[name] = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [
    "AccessKind",
    "AliasPolicy",
    "AnalysisError",
    "AnalysisReport",
    "Batch",
    "CycleTraceError",
    "FileBroker",
    "InstrClass",
    "InstrRecord",
    "MachineModel",
    "MemQueues",
    "MemoryAccess",
    "ModelError",
    "Pipeline",
    "PoolStats",
    "ProgramError",
    "ProtocolError",
    "RegionSpec",
    "ResourceDesc",
    "SequenceBroker",
    "SocketBroker",
    "SummaryStats",
    "TimelineRecorder",
    "TimelineRow",
    "TraceInstruction",
    "TraceParseError",
    "TruncatedTraceError",
    "UndefinedRatioError",
    "analyze",
    "diff_reports",
    "differential_throughput",
    "execute",
    "export_browser_trace",
    "from_wire",
    "geometric_mean",
    "load_model",
    "measured_delta_from_pairs",
    "parse_ground_truth",
    "parse_program",
    "parse_regions",
    "parse_trace",
    "parse_trace_line",
    "prediction_error",
    "render_diff",
    "render_instruction",
    "render_model",
    "render_summary",
    "render_timeline",
    "render_trace",
    "send_trace",
    "stream_to_socket",
    "summarize",
    "timeline_trace_events",
    "to_wire",
    "validate_model",
]
