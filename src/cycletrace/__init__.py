"""cycletrace: streaming out-of-order pipeline analysis for instruction traces.

Feed an instruction trace (from a file, a socket, or the bundled toy
executor) through a configurable superscalar pipeline model, get cycle
counts, summaries, timelines, and differential comparisons between runs.
"""

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
from .diff import (
    diff_reports,
    differential_throughput,
    geometric_mean,
    measured_delta_from_pairs,
    parse_ground_truth,
    prediction_error,
    render_diff,
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
from .toyisa import ProgramError, execute, parse_program
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
