"""Acceptance gate: the eleven load-bearing guarantees of the package.

Each test is one independently checkable promise, at its stated
tolerance.  Randomized tests use fixed seeds so a failure reproduces.
"""

import io
import json
import math
import random
import socket
import threading
import time

import pytest

import gen
import refsim
from cycletrace import (
    AliasPolicy,
    AnalysisReport,
    FileBroker,
    Pipeline,
    PoolStats,
    SequenceBroker,
    SocketBroker,
    SummaryStats,
    TimelineRecorder,
    analyze,
    diff_reports,
    differential_throughput,
    execute,
    export_browser_trace,
    parse_program,
    prediction_error,
    render_summary,
    render_timeline,
    render_trace,
    send_trace,
)
from gen import make_class, make_model, ti


def run_with_times(model, insts, batch=None, policy=AliasPolicy.METADATA):
    """Total cycles plus every per-instruction timestamp, seq-ordered.

    With batch set, the trace comes at most batch instructions per fetch
    from a producer that stalls before every batch.
    """
    pipe = Pipeline(model, policy)
    times = []
    pipe.retire_sink = lambda rec, _it: times.append(
        (rec.seq_id, rec.dispatched_at, rec.issued_at,
         rec.executed_at, rec.retired_at)
    )
    if batch is None:
        assert not gen.run_trace(pipe, insts)
    else:
        broker = gen.ChunkedBroker(insts, batch, stall=True)
        assert not pipe.run_until_starved(broker)
    times.sort()
    return pipe.total_cycles, times


# 1. Cycle counts and timestamps must not depend on producer batching.

def test_streaming_batch_size_invariance():
    rng = random.Random(0xACCE01)
    lengths = [10, 5000]  # pin both extremes, then spread log-uniformly
    while len(lengths) < 200:
        lengths.append(int(math.exp(rng.uniform(math.log(10), math.log(5000)))))
    started = time.perf_counter()
    for n in lengths:
        model = gen.random_model(rng)
        insts = gen.random_trace(rng, n)
        baseline = run_with_times(model, insts)
        for batch in (1, 7, 64):
            assert run_with_times(model, insts, batch=batch) == baseline, (
                f"batch size {batch} diverged on a {n}-instruction trace"
            )
    assert time.perf_counter() - started < 60


# 2. The engine must agree exactly with a naive reference simulator.

def test_engine_matches_naive_reference_simulator():
    rng = random.Random(0xACCE02)
    policies = list(AliasPolicy)
    for case in range(1000):
        model = gen.random_model(rng)
        insts = gen.random_trace(rng, rng.randint(1, 25))
        policy = policies[case % len(policies)]
        expect_total, expect_times = refsim.simulate(model, insts, policy)
        pipe, rows = gen.run_recorded(model, insts, policy=policy)
        assert pipe.total_cycles == expect_total, f"case {case}"
        assert gen.times_of(rows) == expect_times, f"case {case}"


# 3. A shorter block order that contends for one port must run slower.

def contention_model():
    return make_model(
        [
            make_class("vmulps", 4, uses=[("P0", 1)]),
            make_class("vhaddps", 6, uops=2, uses=[("P5", 2)]),
            make_class("cmp", 1, uses=[("P6", 1)]),
            make_class("jle", 1, is_branch=True, uses=[("P6", 1)]),
            make_class("mulq", 4, uops=2, uses=[("P5", 3)]),
            make_class("jmp", 1, is_branch=True, uses=[("P6", 1)]),
            make_class("movl", 4, may_load=True, uses=[("LD", 1)]),
            make_class("addl", 1, uses=[("P0", 1)]),
            make_class("jno", 1, is_branch=True, uses=[("P6", 1)]),
            make_class("halt", 1),
        ],
        name="contended-port",
        width=4,
        rob=64,
        resources=[("P0", 1), ("P5", 1), ("P6", 1), ("LD", 1)],
    )


def iteration_trace(block, iterations):
    """N loop iterations: the shared head block, then branch block."""
    out = []
    seq = 0

    def emit(cls, **kw):
        nonlocal seq
        out.append(ti(seq, cls, **kw))
        seq += 1

    for i in range(iterations):
        emit("vmulps", reads=(0, 1), writes=(2,))
        emit("vhaddps", reads=(2, 2), writes=(3,))
        emit("vhaddps", reads=(3, 3), writes=(4,))
        emit("cmp", reads=(9, 0), writes=(10,))
        emit("jle", reads=(10,))
        if block == "short":
            emit("mulq", reads=(8,), writes=(8,))
            emit("jmp")
        else:
            emit("movl", reads=(5,), writes=(0,),
                 loads=((0x8000 + 8 * i, 8),))
            emit("addl", reads=(5,), writes=(5,))
            emit("jno", reads=(10,))
    return out


def test_shared_port_contention_slows_the_shorter_block_order():
    model = contention_model()
    n = 60
    short = iteration_trace("short", n)
    long = iteration_trace("long", n)
    assert len(short) < len(long)
    short_cycles, _ = run_with_times(model, short)
    long_cycles, _ = run_with_times(model, long)
    assert short_cycles / n > long_cycles / n, (
        f"expected the 7-instruction iterations ({short_cycles / n:.2f} "
        f"cycles each) to beat the 8-instruction ones "
        f"({long_cycles / n:.2f}) on the shared port"
    )


# 4. Memory use is bounded by the simulation window, not trace length.

def test_record_recycling_bounds_memory_by_window_not_trace_length(model):
    def pool_of(n):
        pipe = Pipeline(model)
        started = time.perf_counter()
        truncated = pipe.run_until_starved(gen.ChunkedBroker(gen.mix_trace(n), 64))
        elapsed = time.perf_counter() - started
        assert not truncated
        return pipe.pool_stats(), elapsed

    small, _ = pool_of(10 ** 3)
    large, elapsed = pool_of(10 ** 6)
    assert large.peak_live == small.peak_live
    assert small.total_allocated <= small.peak_live + 64
    assert large.total_allocated <= large.peak_live + 64
    assert elapsed < 120


# 5. A million instructions must stream through in half a minute.

def test_million_instruction_trace_within_time_budget(model):
    pipe = Pipeline(model)
    started = time.perf_counter()
    truncated = pipe.run_until_starved(SequenceBroker(gen.mix_trace(10 ** 6)))
    elapsed = time.perf_counter() - started
    assert not truncated
    assert pipe.instructions_retired == 10 ** 6
    assert elapsed <= 30, f"took {elapsed:.1f}s"


# 6. Pessimism about aliasing only ever adds cycles.
#
# The inequality is guaranteed only when alias blocking is the sole
# channel the policy can act through.  On models with shared finite
# ports, delaying a load can improve the greedy port schedule (a
# 22-instruction counterexample exists where assuming every access
# aliases SAVES a cycle), so the randomized sweep here draws models
# whose classes claim no ports.  Queue caps, dispatch and retire
# widths, and multi-uop dispatch all stay in play.

def cycles_under(model, insts, policy):
    total, _ = run_with_times(model, insts, policy=policy)
    return total


def portless_model(rng):
    classes = [
        make_class("alu", rng.randint(1, 4)),
        make_class("slow", rng.randint(5, 12)),
        make_class("wide", rng.randint(1, 3), uops=rng.randint(2, 4)),
        make_class("ld", rng.randint(2, 6), may_load=True),
        make_class("st", 1, may_store=True),
        make_class("fence", 1, may_load=True, may_store=True),
    ]
    return make_model(classes, width=rng.randint(1, 4),
                      rob=rng.choice([8, 16, 32]),
                      lq=rng.choice([2, 4, 8]),
                      sq=rng.choice([2, 4, 8]))


def mem_heavy_trace(rng, n):
    out = []
    for s in range(n):
        roll = rng.random()
        addr = 0x2000 + rng.randint(0, 48)
        size = rng.choice([1, 2, 4, 8])
        kw = {}
        if roll < 0.35:
            cls = "ld"
            kw["loads"] = [(addr, size)]
        elif roll < 0.60:
            cls = "st"
            kw["stores"] = [(addr, size)]
        elif roll < 0.65:
            cls = "fence"  # memory op with metadata withheld
        else:
            cls = rng.choice(["alu", "slow", "wide"])
        if rng.random() < 0.9:
            kw["reads"] = tuple(rng.sample(range(8), rng.randint(0, 2)))
            kw["writes"] = (rng.randint(0, 7),)
        out.append(ti(s, cls, **kw))
    return out


def test_alias_policy_cycle_monotonicity(model):
    rng = random.Random(0xACCE06)
    strict = 0
    for _ in range(200):
        fuzz_model = portless_model(rng)
        insts = mem_heavy_trace(rng, rng.randint(30, 150))
        none = cycles_under(fuzz_model, insts, AliasPolicy.NONE)
        meta = cycles_under(fuzz_model, insts, AliasPolicy.METADATA)
        both = cycles_under(fuzz_model, insts, AliasPolicy.ALL)
        assert none <= meta <= both
        strict += none < both
    assert strict > 50  # the sweep must exercise real blocking

    # exact metadata collapses onto each extreme
    def chain_trace(stride):
        return [
            ti(0, "mul", writes=[1]),
            ti(1, "mul", reads=[1], writes=[2]),
            ti(2, "store", reads=[2], stores=[(0x1000, 8)]),
            ti(3, "load", loads=[(0x1000 + stride, 8)], writes=[3]),
        ]

    overlapping = chain_trace(0)
    disjoint = chain_trace(64)
    assert cycles_under(model, overlapping, AliasPolicy.METADATA) \
        == cycles_under(model, overlapping, AliasPolicy.ALL)
    assert cycles_under(model, disjoint, AliasPolicy.METADATA) \
        == cycles_under(model, disjoint, AliasPolicy.NONE)
    # and the distinction is real: pessimism costs cycles here
    assert cycles_under(model, overlapping, AliasPolicy.NONE) \
        < cycles_under(model, overlapping, AliasPolicy.ALL)


# 7. Summary ratios round exactly as printed.

def test_summary_ratio_fields_render_golden():
    stats = SummaryStats(
        instructions=350,
        total_cycles=262,
        total_uops=600,
        dispatch_width=6,
        uops_per_cycle=600 / 262,
        ipc=350 / 262,
        block_rthroughput=5.0,
    )
    text = render_summary(stats)
    assert "uOps Per Cycle:    2.29\n" in text
    assert "IPC:               1.34\n" in text
    assert "Instructions:      350\n" in text
    assert "Dispatch Width:    6\n" in text
    assert "Block RThroughput: 5.0\n" in text


# 8. Differential throughput identities hold at tight tolerance.

def hand_report(cycles):
    return AnalysisReport(
        model_name="m", source="", digest="", alias_policy="metadata",
        truncated=False,
        summary=SummaryStats(100, cycles, 100, 2, 0.0, 0.0, 0.0),
        pool=PoolStats(0, 0, 0), missing_metadata=0, regions=None,
    )


def test_differential_throughput_identities(model):
    insts = list(gen.mix_trace(64))
    a = analyze(model, SequenceBroker(insts))
    b = analyze(model, SequenceBroker(insts))
    assert diff_reports(a, b).delta == 1.0  # exact, not approximate

    for base, cand in ((1000, 1100), (262, 350), (7, 13), (99991, 3)):
        product = (differential_throughput(base, cand)
                   * differential_throughput(cand, base))
        assert abs(product - 1.0) <= 1e-12

    for x in (1.0, 1.1, 0.097, 350 / 262):
        assert prediction_error(x, x) == 0.0

    report = diff_reports(hand_report(1000), hand_report(1100),
                          measured_delta=1.12)
    assert abs(report.delta - 1.10) <= 1e-12
    assert abs(report.error - 0.02) <= 1e-12


# 9. Timeline glyphs are a faithful projection of the timestamps.

def test_windowed_timeline_glyphs_reconcile_and_render_golden(model):
    insts = [
        ti(0, "mul", writes=[1]),
        ti(1, "add", reads=[1], writes=[2]),
        ti(2, "load", loads=[(0x1000, 8)], writes=[3]),
        ti(3, "add", writes=[5]),
        ti(4, "nop"),
        ti(5, "mul", writes=[4]),
        ti(6, "add", reads=[4], writes=[6]),
        ti(7, "nop"),
        ti(8, "nop"),
        ti(9, "nop"),
    ]
    pipe = Pipeline(model)
    recorder = TimelineRecorder(window=(0, 6)).attach(pipe)
    assert not gen.run_trace(pipe, insts)
    rows = recorder.rows
    assert len(rows) == 7

    text = render_timeline(rows)
    assert text == (
        "[0,0]     DeeER....   mul\n"
        "[0,1]     D==ER....   add\n"
        "[0,2]     .DeeeER..   load\n"
        "[0,3]     .DE---R..   add\n"
        "[0,4]     ..DE---R.   nop\n"
        "[0,5]     ..D=eeER.   mul\n"
        "[0,6]     ...D==E-R   add\n"
    )

    origin = min(r.dispatched_at for r in rows)
    for line, row in zip(text.splitlines(), rows):
        field = line[10:].rsplit("   ", 1)[0]
        d = row.dispatched_at - origin
        i = row.issued_at - origin
        x = row.executed_at - origin
        r = row.retired_at - origin
        assert field.count("D") == 1 and field[d] == "D"
        assert field[d + 1:i] == "=" * (i - d - 1)
        run = field[i:x + 1]
        assert run == "e" * (x - i) + "E"
        assert len(run) == row.executed_at - row.issued_at + 1
        assert field[x + 1:r] == "-" * (r - x - 1)
        assert field.count("R") == 1 and field[r] == "R"


# 10. The exported trace-event document is complete and well formed.

def test_browser_trace_export_is_valid_and_complete(model):
    insts = list(gen.mix_trace(100))
    pipe = Pipeline(model)
    recorder = TimelineRecorder().attach(pipe)
    assert not gen.run_trace(pipe, insts)
    sink = io.StringIO()
    export_browser_trace(recorder.rows, sink)

    events = json.loads(sink.getvalue())
    assert isinstance(events, list)
    assert len(events) == 100
    by_seq = {r.seq_id: r for r in recorder.rows}
    for event in events:
        assert event["ph"] == "X"
        row = by_seq[event["args"]["seq"]]
        assert event["ts"] == row.dispatched_at
        assert event["dur"] == row.retired_at - row.dispatched_at
        assert event["name"] == row.name


# 11. Streaming over a socket must be indistinguishable from a file.

LOOP_HEAVY_PROGRAM = """\
.map const mulq
.map add vmulps
.map mul vhaddps
.map ble jle
.map jump jmp
init:
    const r9, 30
    const r6, 1
    const r8, 1
loop:
    add r2, r0, r1
    mul r3, r2, r2
    mul r4, r3, r3
    cmp r9, r9, r6
    ble r8, r9, L0
halt
L0:
    const r7, 42
    jump loop
"""


class _Recording:
    """Passes a broker's batches through, keeping each one."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def fetch_batch(self, max_n):
        batch = self.inner.fetch_batch(max_n)
        self.batches.append(batch)
        return batch


def _file_and_socket_reports(tmp_path, model, trace, **kwargs):
    """analyze's reports on trace read from a file and sent over a
    socket, plus the batches the socket broker handed out."""
    trace_path = tmp_path / "stream.trace"
    trace_path.write_text(render_trace(trace))
    file_broker = FileBroker(str(trace_path))
    by_file = analyze(model, file_broker, **kwargs)
    file_broker.close()

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    result = {}

    def consume():
        # Analyzes while the producer is still sending: a quiet producer
        # pauses the simulation, so its timing cannot change the report.
        broker = SocketBroker.listen(port, accept_timeout=10)
        result["broker"] = _Recording(broker)
        result["report"] = analyze(model, result["broker"], **kwargs)
        broker.close()

    consumer = threading.Thread(target=consume)
    consumer.start()
    deadline = time.monotonic() + 10
    while True:
        try:
            send_trace("127.0.0.1", port, trace, model_hint="loop-heavy")
            break
        except OSError:
            assert time.monotonic() < deadline, "producer never connected"
            time.sleep(0.02)
    consumer.join(30)
    return by_file, result["report"], result["broker"].batches


def test_socket_stream_report_matches_file_report(tmp_path):
    model = contention_model()
    trace = list(execute(parse_program(LOOP_HEAVY_PROGRAM)))
    # every iteration runs the branch block after the loop block
    names = [t.class_name for t in trace[3:10]]
    assert names == ["vmulps", "vhaddps", "vhaddps", "cmp", "jle",
                     "mulq", "jmp"]

    by_file, by_socket, _ = _file_and_socket_reports(
        tmp_path, model, trace, entry_capacity=8)

    assert by_socket.digest == by_file.digest
    assert by_socket.summary == by_file.summary
    assert render_summary(by_socket.summary) == render_summary(by_file.summary)
    # identical in every field once the differing source labels are set aside
    assert by_socket == by_file


def test_socket_whole_frames_report_matches_file_report(tmp_path):
    # At the default capacity every frame is handed out whole, so the
    # digest hashes the text the socket broker built as it decoded.
    rng = random.Random(11)
    model = gen.wide_model(rng)
    trace = gen.random_trace(rng, 1000, gen.MEMORY_WEIGHTS)
    assert any(inst.mem for inst in trace)
    assert any(inst.context for inst in trace)

    by_file, by_socket, batches = _file_and_socket_reports(
        tmp_path, model, trace)

    with_text = [b for b in batches if b.text is not None]
    assert sum(len(b.instructions) for b in with_text) == len(trace)
    for batch in with_text:
        assert batch.text == render_trace(batch.instructions)
    assert by_socket.digest == by_file.digest
    assert by_socket == by_file


def test_socket_stream_timestamps_match_file_timestamps(tmp_path):
    # Every retirement's timestamps, not only the report's totals.
    model = contention_model()
    trace = list(execute(parse_program(LOOP_HEAVY_PROGRAM)))
    digest = gen.TimestampDigest()
    _file_and_socket_reports(tmp_path, model, trace, entry_capacity=8,
                             recorder=digest)
    by_file, by_socket = digest.digests
    assert by_socket == by_file == gen.timestamp_digest(model, trace)
