"""Result views: summary statistics, timeline rendering, trace export.

The timeline maps each retired instruction's timestamps onto one glyph
per cycle:

    D  dispatch cycle            =  waiting after dispatch
    e  executing (non-final)     E  final execution cycle
    -  awaiting retirement       R  retire cycle
    .  outside the instruction's lifetime

so a row always matches D (=)* (e)* E (-)* R and the e/E run length
equals the instruction's effective latency.  Columns share one origin,
the earliest dispatch in the window.
"""

from __future__ import annotations

import json
from collections import namedtuple
from decimal import ROUND_HALF_UP, Decimal

from .engine import InstrRecord, Pipeline
from .errors import AnalysisError


SummaryStats = namedtuple(
    "SummaryStats", "instructions total_cycles total_uops dispatch_width "
    "uops_per_cycle ipc block_rthroughput")


def summarize(pipeline: Pipeline) -> SummaryStats:
    """Aggregate statistics of a drained run."""
    if pipeline.has_work():
        raise AnalysisError("cannot summarize: pipeline still has work in flight")
    instructions = pipeline.instructions_retired
    cycles = pipeline.total_cycles
    uops = pipeline.uops_retired
    width = pipeline.model.dispatch_width

    # Reciprocal throughput of the whole trace treated as one block: the
    # binding constraint is either dispatch bandwidth or the most
    # contended resource.
    rthroughput = uops / width
    claimed = pipeline.resource_claimed  # summed on each read
    for res in pipeline.model.resources:
        rthroughput = max(rthroughput, claimed[res.name] / res.units)

    return SummaryStats(
        instructions=instructions,
        total_cycles=cycles,
        total_uops=uops,
        dispatch_width=width,
        uops_per_cycle=uops / cycles if cycles else 0.0,
        ipc=instructions / cycles if cycles else 0.0,
        block_rthroughput=rthroughput,
    )


def _decimal_str(value: float, places: int) -> str:
    quantum = Decimal(1).scaleb(-places)
    return str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def render_fields(pairs) -> str:
    """One 'Label:  value' line per (label, value) pair, values aligned."""
    return "".join(f"{label + ':':<18} {value}\n" for label, value in pairs)


def render_summary(stats: SummaryStats) -> str:
    return render_fields([
        ("Instructions", str(stats.instructions)),
        ("Total Cycles", str(stats.total_cycles)),
        ("Total uOps", str(stats.total_uops)),
        ("Dispatch Width", str(stats.dispatch_width)),
        ("uOps Per Cycle", _decimal_str(stats.uops_per_cycle, 2)),
        ("IPC", _decimal_str(stats.ipc, 2)),
        ("Block RThroughput", _decimal_str(stats.block_rthroughput, 1)),
    ])


# ---------------------------------------------------------------------------
# Timeline

TimelineRow = namedtuple(
    "TimelineRow", "seq_id iteration position name dispatched_at issued_at "
    "executed_at retired_at")


class TimelineRecorder:
    """Collects per-instruction timestamps as the pipeline retires them.

    window is an inclusive (first, last) sequence id range; None records
    everything.  Positions number the retired instructions within each
    iteration, counting instructions outside the window too, so a row
    keeps its position no matter how the window is set.  Only the current
    iteration's next position is kept: numbering restarts at 0 whenever
    the iteration changes, and analyze only ever increases it.
    """

    def __init__(self, window: tuple[int, int] | None = None):
        self.window = window
        self.rows: list[TimelineRow] = []
        self._iteration = 0
        self._position = 0  # of the next retirement in _iteration

    def attach(self, pipeline: Pipeline) -> "TimelineRecorder":
        pipeline.retire_sink = self.on_retire
        return self

    def on_retire(self, rec: InstrRecord, iteration: int):
        if iteration != self._iteration:
            self._iteration, self._position = iteration, 0
        position = self._position
        self._position = position + 1
        w = self.window
        if w is not None and not (w[0] <= rec.seq_id <= w[1]):
            return
        self.rows.append(TimelineRow(
            seq_id=rec.seq_id,
            iteration=iteration,
            position=position,
            name=rec.kind.cls.name,
            dispatched_at=rec.dispatched_at,
            issued_at=rec.issued_at,
            executed_at=rec.executed_at,
            retired_at=rec.retired_at,
        ))


def _row_glyphs(row: TimelineRow, origin: int, width: int) -> str:
    cells = ["."] * width
    d = row.dispatched_at - origin
    i = row.issued_at - origin
    x = row.executed_at - origin
    r = row.retired_at - origin
    cells[d] = "D"
    for c in range(d + 1, i):
        cells[c] = "="
    for c in range(i, x):
        cells[c] = "e"
    cells[x] = "E"
    for c in range(x + 1, r):
        cells[c] = "-"
    cells[r] = "R"
    return "".join(cells)


def render_timeline(rows: list[TimelineRow]) -> str:
    """Render rows as one aligned glyph line per instruction."""
    if not rows:
        return ""
    origin = min(r.dispatched_at for r in rows)
    width = max(r.retired_at for r in rows) - origin + 1
    out = []
    for row in rows:
        tag = f"[{row.iteration},{row.position}]"
        pad = tag.ljust(10) if len(tag) < 10 else tag + " "
        out.append(f"{pad}{_row_glyphs(row, origin, width)}   {row.name}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Browser trace export

def timeline_trace_events(rows: list[TimelineRow]) -> list[dict]:
    """Complete ("X" phase) trace events, one per instruction.

    Cycle numbers are emitted as microsecond timestamps: one cycle reads
    as one microsecond in a trace viewer.  Issue and completion cycles
    ride along in args.
    """
    return [
        {
            "name": row.name,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": row.dispatched_at,
            "dur": row.retired_at - row.dispatched_at,
            "args": {
                "seq": row.seq_id,
                "iteration": row.iteration,
                "issued_at": row.issued_at,
                "executed_at": row.executed_at,
            },
        }
        for row in rows
    ]


def export_browser_trace(rows: list[TimelineRow], sink) -> None:
    """Write the trace-event document (top-level array form) to a sink."""
    sink.write(json.dumps(timeline_trace_events(rows), indent=1) + "\n")
