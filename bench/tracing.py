"""Per-layer spans for the traced run, installed from outside the program.

install() replaces public functions and methods of cycletrace's modules,
plus the analysis module's digesting broker and the pipeline's wake-up
hook, with wrappers that count calls and time them.  A span's self time is its
duration minus the time of wrapped calls made inside it, kept per thread
so the socket receiver's decoding does not leak into the engine's spans.
Around some calls the wrappers also look at the pipeline before and after
(idle cycles, deferred records, ROB occupancy, LSQ admissions).

Times are host seconds from time.perf_counter.  On socket_mix a span in
either thread also covers the time that thread waited for the GIL.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._local = threading.local()
        # observations made around calls
        self.fetched = 0
        self.stalled_fetches = 0
        self.backlog_peak = 0
        self.decoded = 0
        self.fed = 0
        self.wakes = 0
        self.idle_cycles = 0
        self.deferred_sum = 0
        self.rob_sum = 0
        self.admitted = 0

    def timed(self, name: str, fn, count: bool = True):
        """Wrap fn so each call adds to the span called name."""
        span = self.spans.setdefault(name, Span())
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if count:
                    span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return wrapper


def _replace_everywhere(original, replacement):
    """Rebind a function in every cycletrace module that imported it."""
    for name, module in list(sys.modules.items()):
        if name != "cycletrace" and not name.startswith("cycletrace."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(ct) -> Tracer:
    """Instrument the imported cycletrace package; returns the tracer."""
    t = Tracer()
    analysis, brokers, engine, lsunit, trace, views = (
        ct.analysis, ct.brokers, ct.engine, ct.lsunit, ct.trace, ct.views)

    # trace: text parse and wire decode
    _replace_everywhere(trace.parse_trace_line,
                        t.timed("trace.parse", trace.parse_trace_line))
    decode_one = t.timed("trace.wire_decode", trace.from_wire)

    def from_wire(obj):
        inst = decode_one(obj)
        t.decoded += 1
        return inst

    _replace_everywhere(trace.from_wire, from_wire)
    frame = brokers.SocketBroker.__dict__["_decode_frame"].__func__
    brokers.SocketBroker._decode_frame = staticmethod(
        t.timed("trace.wire_decode", frame, count=False))

    # brokers: refill, with batch size, stalls and the socket backlog
    for cls in (brokers.SequenceBroker, brokers.SocketBroker):
        fetch = t.timed("brokers.fetch", cls.fetch_batch)

        def fetch_batch(self, max_n, _fetch=fetch):
            batch = _fetch(self, max_n)
            t.fetched += len(batch.instructions)
            if batch.stalled:
                t.stalled_fetches += 1
            backlog = t.decoded - t.fetched
            if backlog > t.backlog_peak:
                t.backlog_peak = backlog
            return batch

        cls.fetch_batch = fetch_batch

    # analysis: digest (the hashing broker's own work), report, main loop
    hashing = analysis._HashingBroker
    hashing.fetch_batch = t.timed("analysis.digest", hashing.fetch_batch)
    report = analysis.AnalysisReport
    report.to_json = t.timed("analysis.report_json", report.to_json)
    _replace_everywhere(analysis.analyze,
                        t.timed("analysis.drive", analysis.analyze))

    # engine
    pipe = engine.Pipeline
    pipe.run_until_starved = t.timed("engine.drive", pipe.run_until_starved)
    feed = t.timed("engine.feed", pipe.feed)

    def feed_counted(self, instructions):
        accepted = feed(self, instructions)
        t.fed += accepted
        return accepted

    pipe.feed = feed_counted
    wake = pipe._wake

    def wake_counted(self, producer_seq):
        t.wakes += 1
        return wake(self, producer_seq)

    pipe._wake = wake_counted
    run_cycle = t.timed("engine.run_cycle", pipe.run_cycle)

    def run_cycle_observed(self):
        entry = len(self.entry)
        retired = self.instructions_retired
        executing = len(self.executing)
        wakes = t.wakes
        run_cycle(self)
        # Every completion and every single-cycle issue wakes; any other
        # issue grows the executing heap, dispatch shrinks the entry
        # buffer.  With none of these, nothing happened this cycle.
        if (len(self.entry) == entry and t.wakes == wakes
                and len(self.executing) == executing
                and self.instructions_retired == retired):
            t.idle_cycles += 1
        t.deferred_sum += len(self.deferred)
        t.rob_sum += len(self.rob)

    pipe.run_cycle = run_cycle_observed

    # lsunit: admission checks
    find = t.timed("lsunit.find_blocker", lsunit.MemQueues.find_blocker)

    def find_blocker(self, policy, seq, loads, stores):
        blocker = find(self, policy, seq, loads, stores)
        if blocker is None:
            t.admitted += 1
        return blocker

    lsunit.MemQueues.find_blocker = find_blocker

    # views: per-retirement sink and text rendering
    recorder = views.TimelineRecorder
    recorder.on_retire = t.timed("views.retire_sink", recorder.on_retire)
    for fn in (views.render_summary, views.render_timeline):
        _replace_everywhere(fn, t.timed("views.render", fn))
    return t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer, phases: dict) -> dict:
    """Per-layer metric values of one traced run, by metric name."""
    def s(name):
        return t.spans.get(name, Span())

    cycle = s("engine.run_cycle")
    blocker = s("lsunit.find_blocker")
    fetch = s("brokers.fetch")
    feed = s("engine.feed")
    return {
        "trace.parse_s": s("trace.parse").self_time,
        "trace.parse_calls": s("trace.parse").calls,
        "trace.wire_decode_s": s("trace.wire_decode").self_time,
        "trace.wire_decode_calls": s("trace.wire_decode").calls,
        "brokers.fetch_s": fetch.self_time,
        "brokers.fetch_calls": fetch.calls,
        "brokers.instr_per_fetch": _ratio(t.fetched, fetch.calls),
        "brokers.stalled_fetch_ratio": _ratio(t.stalled_fetches, fetch.calls),
        "brokers.backlog_peak": t.backlog_peak,
        "brokers.handshake_s": phases["open_s"],
        "model.load_s": phases["model_s"],
        "analysis.digest_s": s("analysis.digest").self_time,
        "analysis.report_json_s": s("analysis.report_json").self_time,
        "analysis.drive_s": s("analysis.drive").self_time,
        "engine.drive_s": s("engine.drive").self_time,
        "engine.feed_s": feed.self_time,
        "engine.feed_calls": feed.calls,
        "engine.instr_per_feed": _ratio(t.fed, feed.calls),
        "engine.run_cycle_s": cycle.self_time,
        "engine.run_cycle_calls": cycle.calls,
        "engine.us_per_cycle": _ratio(cycle.total, cycle.calls) * 1e6,
        "engine.idle_cycle_ratio": _ratio(t.idle_cycles, cycle.calls),
        "engine.deferred_per_cycle": _ratio(t.deferred_sum, cycle.calls),
        "engine.rob_occupancy_mean": _ratio(t.rob_sum, cycle.calls),
        "lsunit.find_blocker_s": blocker.self_time,
        "lsunit.find_blocker_calls": blocker.calls,
        "lsunit.admit_ratio": _ratio(t.admitted, blocker.calls),
        "lsunit.find_blocker_share": _ratio(
            blocker.self_time, blocker.self_time + cycle.self_time),
        "views.retire_sink_s": s("views.retire_sink").self_time,
        "views.render_s": s("views.render").self_time,
    }
