"""Summary statistics, timeline rendering, and trace-event export."""

import io
import json
import tracemalloc

import pytest

import gen
from cycletrace import (
    AnalysisError,
    Pipeline,
    SummaryStats,
    TimelineRecorder,
    TimelineRow,
    export_browser_trace,
    render_summary,
    render_timeline,
    summarize,
    timeline_trace_events,
    views,
)
from gen import ti


def row(d, i, x, r, *, seq=0, iteration=0, position=0, name="op"):
    return TimelineRow(
        seq_id=seq, iteration=iteration, position=position, name=name,
        dispatched_at=d, issued_at=i, executed_at=x, retired_at=r,
    )


def glyphs(d, i, x, r):
    """Rendered glyph field of a single-row timeline."""
    line = render_timeline([row(d, i, x, r)]).rstrip("\n")
    return line[10:].rsplit("   ", 1)[0]


# -- summary ------------------------------------------------------------------

def test_summary_counts_and_ratios(model):
    # width 2: pairs dispatch at 0 and 1, retire at 2 and 3, so 4 cycles
    pipe, _ = gen.run_recorded(model, [ti(s, "nop") for s in range(4)])
    stats = summarize(pipe)
    assert stats.instructions == 4
    assert stats.total_cycles == 4
    assert stats.total_uops == 4
    assert stats.dispatch_width == 2
    assert stats.uops_per_cycle == pytest.approx(1.0)
    assert stats.ipc == pytest.approx(1.0)
    # four single-uop instructions over width 2, no unit claimed
    assert stats.block_rthroughput == pytest.approx(2.0)


def test_summary_rthroughput_tracks_the_hottest_unit(model):
    pipe, _ = gen.run_recorded(model, [ti(s, "mul") for s in range(4)])
    # four claims on the single ALU beat 4 uops / width 2
    assert summarize(pipe).block_rthroughput == pytest.approx(4.0)


def test_render_summary_layout(model):
    pipe, _ = gen.run_recorded(model, [ti(s, "nop") for s in range(4)])
    assert render_summary(summarize(pipe)) == (
        "Instructions:      4\n"
        "Total Cycles:      4\n"
        "Total uOps:        4\n"
        "Dispatch Width:    2\n"
        "uOps Per Cycle:    1.00\n"
        "IPC:               1.00\n"
        "Block RThroughput: 2.0\n"
    )


def test_ratios_round_half_up():
    stats = SummaryStats(
        instructions=1, total_cycles=1, total_uops=1, dispatch_width=1,
        uops_per_cycle=2.285, ipc=0.125, block_rthroughput=0.25,
    )
    text = render_summary(stats)
    assert "uOps Per Cycle:    2.29\n" in text
    assert "IPC:               0.13\n" in text
    assert "Block RThroughput: 0.3\n" in text


def test_empty_run_renders_zero_ratios(model):
    stats = summarize(Pipeline(model))
    assert stats.instructions == 0
    assert stats.total_cycles == 0
    text = render_summary(stats)
    assert "uOps Per Cycle:    0.00\n" in text
    assert "IPC:               0.00\n" in text
    assert "Block RThroughput: 0.0\n" in text


def test_summarize_rejects_in_flight_work(model):
    pipe = Pipeline(model)
    pipe.feed((ti(0, "add"),))
    with pytest.raises(AnalysisError, match="has work"):
        summarize(pipe)


# -- timeline glyphs ----------------------------------------------------------

@pytest.mark.parametrize("times,expect", [
    ((0, 1, 4, 16), "DeeeE-----------R"),   # lat 4, late retirement
    ((0, 1, 1, 2), "DER"),                  # single-cycle op
    ((0, 1, 2, 3), "DeER"),                 # lat 2
    ((0, 3, 3, 4), "D==ER"),                # waited two cycles to issue
    ((0, 2, 5, 6), "D=eeeER"),              # one-cycle wait, then lat 4
])
def test_glyph_shapes(times, expect):
    assert glyphs(*times) == expect


def test_rows_share_one_origin():
    rows = [
        row(0, 1, 1, 2, seq=0, name="add"),
        row(2, 3, 3, 4, seq=1, position=1, name="mul"),
    ]
    assert render_timeline(rows) == (
        "[0,0]     DER..   add\n"
        "[0,1]     ..DER   mul\n"
    )


def test_origin_is_the_earliest_dispatch_in_window():
    # window excludes the cycle-0 instruction; columns rebase to cycle 5
    rows = [row(5, 6, 6, 7, seq=3, position=3, name="add")]
    assert render_timeline(rows) == "[0,3]     DER   add\n"


def test_long_tags_keep_a_separating_space():
    text = render_timeline([row(0, 1, 1, 2, iteration=12345, position=67890)])
    assert text.startswith("[12345,67890] DER")


def test_empty_timeline_renders_empty():
    assert render_timeline([]) == ""


def test_rendered_glyphs_reconcile_with_timestamps(model):
    insts = []
    for s in range(12):
        kind = ("add", "mul", "load", "nop")[s % 4]
        if kind == "load":
            insts.append(ti(s, "load", loads=[(0x1000 + 16 * s, 8)]))
        else:
            insts.append(ti(s, kind, reads=[s % 3], writes=[(s + 1) % 3]))
    pipe, rows = gen.run_recorded(model, insts)
    text = render_timeline(rows)
    origin = min(r.dispatched_at for r in rows)
    width = max(r.retired_at for r in rows) - origin + 1
    for line, r in zip(text.splitlines(), rows):
        field = line[10:10 + width]
        # rebuild the expected glyph run from the row's own timestamps
        expect = ["."] * width
        d, i = r.dispatched_at - origin, r.issued_at - origin
        x, ret = r.executed_at - origin, r.retired_at - origin
        expect[d] = "D"
        for c in range(d + 1, i):
            expect[c] = "="
        for c in range(i, x):
            expect[c] = "e"
        expect[x] = "E"
        for c in range(x + 1, ret):
            expect[c] = "-"
        expect[ret] = "R"
        assert field == "".join(expect)
        # execution run length is the effective latency
        lat = r.executed_at - r.issued_at + 1
        assert field.count("e") + field.count("E") == lat


# -- recorder -----------------------------------------------------------------

def test_window_is_inclusive_and_keeps_positions(model):
    pipe = Pipeline(model)
    recorder = TimelineRecorder(window=(2, 3)).attach(pipe)
    gen.run_trace(pipe, [ti(s, "add") for s in range(5)])
    rows = sorted(recorder.rows, key=lambda r: r.seq_id)
    assert [r.seq_id for r in rows] == [2, 3]
    # positions count every retirement in the iteration, windowed or not
    assert [r.position for r in rows] == [2, 3]


def test_positions_restart_per_iteration(model):
    pipe = Pipeline(model)
    recorder = TimelineRecorder().attach(pipe)
    gen.run_trace(pipe, [ti(0, "add"), ti(1, "add")])
    pipe.iteration = 1
    gen.run_trace(pipe, [ti(2, "add"), ti(3, "add")])
    rows = sorted(recorder.rows, key=lambda r: r.seq_id)
    assert [(r.iteration, r.position) for r in rows] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


def _recorder_bytes(model, iterations):
    """Bytes allocated in views.py and still held after that many
    one-instruction iterations, under a window that matches no row."""
    pipe = Pipeline(model)
    tracemalloc.start()
    try:
        TimelineRecorder(window=(-2, -1)).attach(pipe)
        for i in range(iterations):
            pipe.iteration = i
            pipe.feed((ti(i, "add"),))
            pipe.drain()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, views.__file__)])
    return sum(stat.size for stat in held.statistics("filename"))


def test_recorder_memory_does_not_grow_with_iterations(model):
    assert _recorder_bytes(model, 5000) <= _recorder_bytes(model, 1000)


# -- trace events -------------------------------------------------------------

def test_trace_event_shape():
    events = timeline_trace_events([
        row(2, 3, 3, 5, seq=1, iteration=4, name="mul"),
    ])
    assert events == [{
        "name": "mul",
        "ph": "X",
        "pid": 1,
        "tid": 1,
        "ts": 2,
        "dur": 3,
        "args": {"seq": 1, "iteration": 4, "issued_at": 3, "executed_at": 3},
    }]


def test_trace_event_document_is_a_top_level_array(model):
    _, rows = gen.run_recorded(model, [ti(s, "add") for s in range(6)])
    sink = io.StringIO()
    export_browser_trace(rows, sink)
    text = sink.getvalue()
    assert text.lstrip().startswith("[")
    assert text.endswith("\n")
    events = json.loads(text)
    assert isinstance(events, list)
    assert len(events) == 6
    by_seq = {e["args"]["seq"]: e for e in events}
    for r in rows:
        e = by_seq[r.seq_id]
        assert e["ts"] == r.dispatched_at
        assert e["dur"] == r.retired_at - r.dispatched_at
        assert e["ph"] == "X"
