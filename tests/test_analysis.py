"""Whole-trace analysis: regions, digests, and report serialization."""

import hashlib
import inspect
import json
import random
import re
import socket
import threading
import tracemalloc

import pytest

import gen
import refsim
from cycletrace import (
    AccessKind,
    AliasPolicy,
    AnalysisError,
    AnalysisReport,
    Batch,
    FileBroker,
    MemoryAccess,
    Pipeline,
    PoolStats,
    RegionSpec,
    SequenceBroker,
    SocketBroker,
    SummaryStats,
    TimelineRecorder,
    TraceInstruction,
    TraceParseError,
    TruncatedTraceError,
    analyze,
    execute,
    parse_program,
    parse_regions,
    parse_trace,
    render_trace,
    to_wire,
)
from cycletrace import analysis
from gen import make_class, make_model, ti


class TruncatingBroker:
    """Delivers a fixed prefix, then fails like a dropped connection."""

    def __init__(self, insts, deliver):
        self._insts = list(insts)[:deliver]
        self._pos = 0

    def fetch_batch(self, max_n):
        if self._pos >= len(self._insts):
            raise TruncatedTraceError("producer disconnected before end of stream")
        take = tuple(self._insts[self._pos:self._pos + max_n])
        self._pos += len(take)
        return Batch(instructions=take)


# -- region specs -------------------------------------------------------------

def test_parse_regions_accepts_both_line_forms():
    spec = parse_regions(
        """
        # hot loops
        R 0x1000 0x1010
        S inner 0x2000 0x2040   # named range
        """
    )
    assert spec.entries == ((0x1000, 0x1010, None), (0x2000, 0x2040, "inner"))
    assert spec.ranges == ((0x1000, 0x1010), (0x2000, 0x2040))


def test_region_bounds_read_numbers_as_the_trace_does():
    spec = parse_regions("R 0010 0x20\nS f +0040 00050\n")
    assert spec.entries == ((10, 0x20, None), (40, 50, "f"))


@pytest.mark.parametrize("text", [
    "R \u0661 0x20\n", "S f 0x10 \u0662\u0660\n", "R 0x10 0x\u0662\n",
])
def test_region_bounds_refuse_non_ascii_digits(text):
    with pytest.raises(TraceParseError,
                       match="line 1: bad address in region line"):
        parse_regions(text)


def test_overlapping_ranges_merge():
    spec = parse_regions("R 0x10 0x20\nR 0x18 0x30\nR 0x40 0x50\n")
    assert spec.ranges == ((0x10, 0x30), (0x40, 0x50))


def test_contains_is_half_open():
    spec = parse_regions("R 0x10 0x20\n")
    assert not spec.contains(0x0F)
    assert spec.contains(0x10)
    assert spec.contains(0x1F)
    assert not spec.contains(0x20)


def test_contains_after_merge():
    spec = parse_regions("R 0x10 0x20\nR 0x18 0x30\n")
    assert spec.contains(0x2F)
    assert not spec.contains(0x30)


@pytest.mark.parametrize("text,match", [
    ("X 1 2\n", "bad region line"),
    ("R 0x10\n", "bad region line"),
    ("S sym 0x10\n", "bad region line"),
    ("R ten twenty\n", "bad address"),
    ("R 0x20 0x10\n", "bad region range"),
    ("", "declares no ranges"),
    ("# nothing\n", "declares no ranges"),
    ("R 0x10 0x20\nR 0x30 0x20\n", "line 2: bad region range"),
])
def test_parse_regions_rejects(text, match):
    with pytest.raises(TraceParseError, match=match):
        parse_regions(text)


def test_region_parse_errors_carry_line_numbers():
    with pytest.raises(TraceParseError, match="line 2"):
        parse_regions("R 0x10 0x20\nR nope 0x30\n")


# -- plain analysis -----------------------------------------------------------

def mixed_trace(n=40):
    insts = []
    for s in range(n):
        kind = ("add", "mul", "load", "store", "nop")[s % 5]
        if kind == "load":
            insts.append(ti(s, "load", loads=[(0x1000 + 8 * s, 8)]))
        elif kind == "store":
            insts.append(ti(s, "store", stores=[(0x1000 + 8 * s, 8)]))
        else:
            insts.append(ti(s, kind, reads=[s % 4], writes=[(s + 1) % 4]))
    return insts


def test_analyze_matches_a_direct_run(model):
    insts = mixed_trace()
    pipe, _ = gen.run_recorded(model, insts)
    report = analyze(model, SequenceBroker(insts), source="unit")
    assert report.model_name == model.name
    assert report.source == "unit"
    assert report.alias_policy == "metadata"
    assert not report.truncated
    assert report.regions is None
    assert report.summary.instructions == len(insts)
    assert report.summary.total_cycles == pipe.total_cycles


def test_analyze_is_batch_size_invariant(model):
    insts = mixed_trace()
    reports = [analyze(model, SequenceBroker(insts))] + [
        analyze(model, gen.ChunkedBroker(insts, k)) for k in (1, 7)
    ]
    assert len({r.summary.total_cycles for r in reports}) == 1
    assert len({r.digest for r in reports}) == 1


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("loop", ["plain", "regions"])
def test_stalling_producer_leaves_the_report_unchanged(k, loop):
    # A producer that pauses before every batch of k instructions: no
    # cycle may run on a part-filled entry buffer while it is quiet, so
    # the cycles and the pool stats match the unstalled run.
    model = gen.random_model(random.Random(3))
    insts = gen.random_trace(random.Random(1), 400)
    regions = None
    if loop == "regions":
        # two visits, with a gap between them: seqs 0-149 and 200-399
        base = 0x400000
        regions = RegionSpec.from_ranges([
            (base, base + 4 * 150, None),
            (base + 4 * 200, base + 4 * 400, None),
        ])

    def report(broker):
        return analyze(model, broker, regions=regions).to_json()

    assert report(gen.ChunkedBroker(insts, k, stall=True)) == \
        report(SequenceBroker(insts))


def test_a_region_over_the_whole_trace_keeps_every_timestamp():
    # One visit fed an instruction at a time, against one stream.
    rng = random.Random(13)
    model = gen.random_model(rng)
    insts = gen.random_trace(rng, 3000, gen.MEMORY_WEIGHTS)
    base = 0x400000
    whole = RegionSpec.from_ranges([(base, base + 4 * len(insts), None)])
    digest = gen.TimestampDigest()
    analyze(model, SequenceBroker(insts), recorder=digest)
    report = analyze(model, SequenceBroker(insts), recorder=digest,
                     regions=whole)
    assert report.regions.visits == 1
    plain, in_region = digest.digests
    assert in_region == plain == gen.timestamp_digest(model, insts)


def context_trace(n):
    """mixed_trace with a context token on every third instruction."""
    insts = mixed_trace(n)
    for inst in insts[::3]:
        inst.context = ("sz", str(inst.seq_id % 8))
    return insts


@pytest.mark.parametrize("make_broker", [
    pytest.param(SequenceBroker, id="sequence"),
    pytest.param(lambda insts: gen.ChunkedBroker(insts, 1), id="chunked1"),
    pytest.param(lambda insts: gen.ChunkedBroker(insts, 7), id="chunked7"),
    pytest.param(lambda insts: gen.ChunkedBroker(insts, 7, stall=True),
                 id="chunked7-stall"),
])
@pytest.mark.parametrize("insts", [
    pytest.param(mixed_trace(10), id="short"),
    # Longer than the entry buffer, with loads, stores and contexts.
    pytest.param(context_trace(600), id="long"),
])
def test_digest_is_the_hash_of_the_rendered_trace(model, make_broker, insts):
    report = analyze(model, make_broker(insts))
    assert report.summary.instructions == len(insts)
    expect = hashlib.sha256(render_trace(insts).encode("utf-8")).hexdigest()
    assert report.digest == expect


def test_different_traces_get_different_digests(model):
    a = analyze(model, SequenceBroker(mixed_trace(10)))
    b = analyze(model, SequenceBroker(mixed_trace(11)))
    assert a.digest != b.digest


_LOAD_16 = MemoryAccess(AccessKind.LOAD, 16, 8)


# The context-newline case renders as two valid lines, so without the
# refusal this one-instruction trace would share a digest with a
# two-instruction one.
@pytest.mark.parametrize("inst,message", [
    (TraceInstruction(10 ** 5000, 0, "add"),
     "past the interpreter's digit limit"),
    (TraceInstruction(0, 0, "add", (10 ** 5000,)),
     "past the interpreter's digit limit"),
    (TraceInstruction(0, 0, "add", (-1,)), "register -1"),
    (TraceInstruction(0, 0, "add", (True,)), "register True"),
    (TraceInstruction(0, 0, "add x"),
     "instruction field 'class' may contain no whitespace and no '#'"),
    (TraceInstruction(0, 0, "add#"),
     "instruction field 'class' may contain no whitespace and no '#'"),
    (TraceInstruction(0, 0, ""),
     "instruction field 'class' must be a non-empty string"),
    (TraceInstruction(0, 0, "add\udcff"),
     "instruction field 'class' is not UTF-8"),
    (TraceInstruction(0, 0, "add", context=("a=b", "c")),
     "instruction field 'ctx' key must be non-empty"),
    (TraceInstruction(0, 0, "add", context=("k\ud800", "v")),
     "instruction field 'ctx' is not UTF-8"),
    (TraceInstruction(0, 0, "add",
                      context=("k", "z\nI 1 0x0 nop R:- W:- C:x")),
     "instruction field 'ctx' value may contain no whitespace and no '#'"),
    (TraceInstruction(0, 0, "add", [1], []),
     "instruction field 'reads' must be a tuple of integers"),
    (TraceInstruction(0, 0, "add", context=("k", ["v"])),
     "instruction field 'ctx' must be a pair of strings"),
    (TraceInstruction(0, 1 << 64, "add"),
     "address 0x10000000000000000 out of range"),
    (TraceInstruction(0, -4, "add"), "address -0x4 out of range"),
    (TraceInstruction(True, 0, "add"),
     "instruction field 'seq' must be an integer"),
    (TraceInstruction(0, True, "add"),
     "instruction field 'addr' must be an integer"),
    (TraceInstruction(0, 0, "ld", mem=(_LOAD_16._replace(size=0),)),
     "access size 0 must be >= 1"),
    (TraceInstruction(0, 0, "ld", mem=(_LOAD_16._replace(
        address=(1 << 64) - 4),)),
     "access at 0xfffffffffffffffc size 8 wraps past 2^64"),
    (TraceInstruction(0, 0, "add", context="ab"),
     "instruction field 'ctx' must be a pair of strings"),
    (TraceInstruction(0, 0, "add", context=("a", "b", "c")),
     "instruction field 'ctx' must be a pair of strings"),
    (TraceInstruction(0, 0, "add", context=("a",)),
     "instruction field 'ctx' must be a pair of strings"),
    (TraceInstruction(0, 0, "ld", mem=(5,)),
     "memory entry 5 is not a MemoryAccess"),
    (TraceInstruction(0, 0, 5),
     "instruction field 'class' must be a non-empty string"),
    (object(), "is not an instruction"),
    (TraceInstruction(0, 0, "ld", mem=[_LOAD_16]),
     "instruction field 'mem' must be a tuple"),
], ids=["long-seq", "long-register", "negative-register", "bool-register",
        "class-space", "class-hash", "class-empty", "class-surrogate",
        "context-key-equals", "context-surrogate", "context-newline",
        "register-list", "context-list", "address-2^64", "address-negative",
        "bool-seq", "bool-address", "access-size-0", "access-wraps",
        "context-str", "context-3-tuple", "context-1-tuple",
        "access-not-an-access", "class-int", "not-an-instruction",
        "access-list"])
def test_digest_refuses_what_no_trace_line_carries(model, inst, message):
    # The file and wire inputs refuse these; an in-memory one must too,
    # or the digest would name a trace no file or stream can carry.
    with pytest.raises(AnalysisError, match=re.escape(message)):
        analyze(model, SequenceBroker([inst]))


# -- digest of file input -------------------------------------------------------

@pytest.fixture
def renders(monkeypatch):
    """Batch sizes the digest had to render, in order."""
    sizes = []

    def counting(instructions):
        sizes.append(len(instructions))
        return render_trace(instructions)

    monkeypatch.setattr(analysis, "render_trace", counting)
    return sizes


def sha256_of_rendering(insts):
    return hashlib.sha256(render_trace(insts).encode("utf-8")).hexdigest()


def file_digest(model, path):
    broker = FileBroker(str(path))
    try:
        return analyze(model, broker).digest
    finally:
        broker.close()


FILE_HEAD = (
    "I 0 0x400000 add R:1,2 W:3\n"
    "I 1 0x400004 load R:3 W:4 L:0x1000:8 C:sz=8\n"
)
FILE_TAIL = "I 3 0x40000c store R:4 W:- S:0x1000:8\n"


def test_canonical_file_is_hashed_as_read(model, tmp_path, renders):
    text = FILE_HEAD + "I 2 0x400008 add R:- W:2\n" + FILE_TAIL
    path = tmp_path / "t.trace"
    path.write_text(text)
    assert file_digest(model, path) == sha256_of_rendering(parse_trace(text))
    assert renders == []


@pytest.mark.parametrize("text, rendered", [
    (FILE_HEAD + "I 02 0x400008 add R:1 W:2\n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2 0X400008 add R:1 W:2\n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2 0x40000A add R:1 W:2\n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2 0x400008 add R:r1 W:2\n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2  0x400008 add R:1 W:2\n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2\t0x400008 add R:1 W:2\n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2 0x400008 add R:1 W:2 \n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2 0x400008 add R:1 W:2 # comment\n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2 0x400008 load R:1 W:2 C:sz=8 L:0x1000:8\n" + FILE_TAIL,
     True),
    (FILE_HEAD + "I 2 0x400008 add R: W:2\n" + FILE_TAIL, True),
    (FILE_HEAD + " I 2 0x400008 add R:1 W:2\n" + FILE_TAIL, True),
    (FILE_HEAD + "I 2 0x400008 add R:1 W:2\n" + FILE_TAIL.rstrip("\n"),
     True),
    # Lines that hold no instruction are not hashed either way, so the
    # instructions' own lines still hash as read.
    (FILE_HEAD + "\nI 2 0x400008 add R:1 W:2\n" + FILE_TAIL, False),
    (FILE_HEAD + "# note\nI 2 0x400008 add R:1 W:2\n" + FILE_TAIL, False),
], ids=[
    "zero-padded-seq", "0X-prefix", "upper-case-hex", "r-register",
    "double-space", "tab", "trailing-space", "trailing-comment",
    "context-before-load", "empty-R", "indented", "no-final-newline",
    "blank-line", "comment-line",
])
def test_near_miss_spellings_digest_as_rendered(model, tmp_path, renders,
                                                text, rendered):
    path = tmp_path / "t.trace"
    path.write_text(text)
    insts = parse_trace(text)
    digest = file_digest(model, path)
    assert bool(renders) == rendered
    assert digest == sha256_of_rendering(insts)
    assert digest == analyze(model, SequenceBroker(insts)).digest


def test_only_non_canonical_batches_are_rendered(model, tmp_path, renders):
    lines = render_trace(context_trace(600)).splitlines(keepends=True)
    lines[300] = lines[300].replace("R:", "R:r", 1)
    text = "".join(lines)
    path = tmp_path / "t.trace"
    path.write_text(text)
    assert file_digest(model, path) == sha256_of_rendering(parse_trace(text))
    assert renders == [256]  # the second of three 256-instruction batches


def test_file_broker_does_not_hold_a_run_of_comments(tmp_path):
    path = tmp_path / "t.trace"
    with open(path, "w", encoding="utf-8") as f:
        f.write("I 0 0x0 nop R:- W:-\n")
        f.write("# a comment line between two instructions\n" * 200_000)
        f.write("I 1 0x4 nop R:- W:-\n")
    broker = FileBroker(str(path))
    insts, texts = [], []
    tracemalloc.start()
    try:
        while True:
            batch = broker.fetch_batch(256)
            insts += batch.instructions
            texts.append(batch.text)
            if batch.end_of_stream:
                break
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        broker.close()
    assert insts == [ti(0, "nop", address=0), ti(1, "nop", address=4)]
    assert "".join(texts) == "I 0 0x0 nop R:- W:-\nI 1 0x4 nop R:- W:-\n"
    assert peak < 256 * 1024  # holding the comments would take ~20 MB


@pytest.mark.parametrize("entry_capacity", [8, 256])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_canonical_file_digest_never_renders(model, tmp_path, monkeypatch,
                                             newline, entry_capacity):
    # Every batch of a canonical file carries its text as read, at any
    # batch size and with either line ending.
    text = render_trace(context_trace(600))
    path = tmp_path / "t.trace"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text.replace("\n", newline))

    def refuse(instructions):
        raise AssertionError("the digest rendered a batch")

    monkeypatch.setattr(analysis, "render_trace", refuse)
    broker = FileBroker(str(path))
    try:
        report = analyze(model, broker, entry_capacity=entry_capacity)
    finally:
        broker.close()
    assert report.digest == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("source", ["file", "socket"])
def test_analyze_memory_does_not_grow_with_stream_length(model, tmp_path,
                                                         source):
    # The socket stream is encoded before tracing starts, so only the
    # receiving side's memory is counted.
    def peak(n):
        insts = mixed_trace(n)
        path = tmp_path / "t.trace"
        path.write_text(render_trace(insts))
        frames = (
            json.dumps({"t": "insts", "batch": [
                to_wire(inst) for inst in insts[at:at + 64]]}) + "\n"
            for at in range(0, n, 64))
        stream = ('{"t": "hello", "version": 1}\n' + "".join(frames)
                  + '{"t": "end"}\n').encode()
        tracemalloc.start()
        try:
            sender = None
            if source == "file":
                broker = FileBroker(str(path))
            else:
                producer, conn = socket.socketpair()
                sender = threading.Thread(target=producer.sendall,
                                          args=(stream,))
                sender.start()
                broker = SocketBroker(conn)
            try:
                assert analyze(model, broker).summary.instructions == n
            finally:
                broker.close()
                if sender is not None:
                    sender.join(10)
                    producer.close()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A reader that kept every line or frame would peak about 1.4 MB
    # higher at the larger size than at the smaller.
    small, large = peak(5_000), peak(20_000)
    assert large < 1.25 * small, (small, large)


def test_analyze_counts_missing_metadata(model):
    insts = [ti(0, "add"), ti(1, "load"), ti(2, "store")]  # no addresses
    report = analyze(model, SequenceBroker(insts))
    assert report.missing_metadata == 2
    assert report.alias_policy == "metadata"


def test_analyze_flags_truncated_streams(model):
    insts = mixed_trace(20)
    report = analyze(model, TruncatingBroker(insts, 12))
    assert report.truncated
    assert report.summary.instructions == 12


def test_analyze_attaches_a_recorder(model):
    rec = TimelineRecorder()
    analyze(model, SequenceBroker(mixed_trace(8)), recorder=rec)
    assert len(rec.rows) == 8


# -- region analysis ----------------------------------------------------------

LOOP_TEXT = """
.map const nop
.map cmp add
.map ble nop
.map halt nop
start:
    const r1, 3
    const r2, 1
loop:
    add r3, r3, r1
    mul r4, r3, r3
    cmp r1, r1, r2
    ble r2, r1, loop
halt
"""


def loop_case():
    prog = parse_program(LOOP_TEXT)
    trace = list(execute(prog))
    body = prog.label_address("loop")
    # cover add and mul only; cmp/ble break each visit
    spec = RegionSpec.from_ranges([(body, body + 8, None)])
    return trace, spec


def test_region_visits_segment_the_loop(model):
    trace, spec = loop_case()
    report = analyze(model, SequenceBroker(trace), regions=spec)
    r = report.regions
    assert r.visits == 3
    assert r.instructions == 6
    assert [n for n, _ in r.per_visit] == [2, 2, 2]
    # identical work per visit times identically after each drain
    assert len({c for _, c in r.per_visit}) == 1
    assert r.cycles == sum(c for _, c in r.per_visit)
    # out-of-region instructions never reach the pipeline
    assert report.summary.instructions == 6


def test_visits_ending_in_a_long_op_time_like_separate_runs(monkeypatch):
    # Each visit ends in a long-latency op, so its drain ends inside a
    # quiet window, which the next visit's first instruction must end.
    # Occupancy never exceeds latency, so every unit is free at each
    # drain and a visit times as its instructions alone.
    m = make_model(
        [
            make_class("alu", 1, uses=[("A", 1)]),
            make_class("div", 24, uses=[("D", 6)]),
            make_class("ld", 4, may_load=True, uses=[("A", 1), ("A", 2)]),
            make_class("out", 1),
        ],
        resources=[("A", 2), ("D", 1)],
    )
    rng = random.Random(11)
    trace, visits = [], []
    for _ in range(8):
        body = []
        for i in range(rng.randint(0, 12)):
            cls = rng.choice(["alu", "div", "ld"])
            body.append(ti(
                len(trace) + i, cls,
                reads=[rng.randrange(4)], writes=[rng.randrange(4)],
                loads=[(0x100, 8)] if cls == "ld" else (),
                address=0x1000 + 4 * i))
        body.append(ti(len(trace) + len(body), "div", reads=[0],
                       address=0x1000 + 4 * len(body)))
        trace += body + [ti(len(trace) + len(body), "out", address=0x9000)]
        visits.append(body)
    spec = RegionSpec.from_ranges([(0x1000, 0x2000, None)])
    run_cycle = Pipeline.run_cycle
    calls = 0

    def bounded(pipe):  # fail rather than hang if a drain never ends
        nonlocal calls
        calls += 1
        assert calls < 10_000
        run_cycle(pipe)

    monkeypatch.setattr(Pipeline, "run_cycle", bounded)
    report = analyze(m, SequenceBroker(trace), regions=spec)
    assert report.regions.per_visit == tuple(
        (len(body), refsim.simulate(m, body)[0]) for body in visits)


def test_region_visits_tag_timeline_iterations(model):
    trace, spec = loop_case()
    rec = TimelineRecorder()
    analyze(model, SequenceBroker(trace), regions=spec, recorder=rec)
    rows = sorted(rec.rows, key=lambda r: r.seq_id)
    assert [(r.iteration, r.position) for r in rows] == [
        (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
    ]
    assert [r.name for r in rows] == ["add", "mul"] * 3


def test_region_digest_covers_the_whole_stream(model):
    trace, spec = loop_case()
    with_regions = analyze(model, SequenceBroker(trace), regions=spec)
    without = analyze(model, SequenceBroker(trace))
    assert with_regions.digest == without.digest


def test_trace_ending_inside_a_region_closes_the_visit(model):
    trace, spec = loop_case()
    # cut right after the first visit's mul (seq 3): const const | add mul
    report = analyze(model, SequenceBroker(trace[:4]), regions=spec)
    assert report.regions.visits == 1
    assert report.regions.per_visit[0][0] == 2
    assert not report.truncated


def test_region_analysis_survives_truncation(model):
    trace, spec = loop_case()
    report = analyze(model, TruncatingBroker(trace, 4), regions=spec)
    assert report.truncated
    assert report.regions.visits == 1
    assert report.regions.instructions == 2


@pytest.mark.parametrize("stream", [
    [(0, 0x10), (5, 0x100), (3, 0x104), (6, 0x14)],  # both outside
    [(5, 0x10), (3, 0x100)],                         # outside after inside
    [(5, 0x100), (3, 0x10)],                         # inside after outside
])
@pytest.mark.parametrize("regions", [None, "R 0x10 0x20\n"])
def test_region_runs_keep_the_sequence_order_rule(model, stream, regions):
    # A SequenceBroker stream meets the rule only in the pipeline, which
    # never sees the instructions outside every region.
    insts = [ti(seq, "add", address=address) for seq, address in stream]
    spec = parse_regions(regions) if regions else None
    with pytest.raises(AnalysisError, match=(
            r"^instruction 3: sequence id not increasing \(previous 5\)$")):
        analyze(model, SequenceBroker(insts), regions=spec)


def visit_past_a_bad_chunk(tmp_path, bogus=None):
    """A FileBroker over 400 instructions, and the region of its visit.

    The visit runs from seq 200 past line 256, where the file broker's
    second chunk of lines starts; line 300, in that chunk, is malformed.
    Instruction bogus, if given, has a class no model defines.
    """
    insts = [ti(seq, "bogus" if seq == bogus else "add",
                address=0x100 if seq < 200 else 0x1000 + 4 * seq)
             for seq in range(400)]
    lines = render_trace(insts).splitlines(keepends=True)
    lines[299] = "I 299 0x14ac add R:- W:- L:oops\n"
    with pytest.raises(TraceParseError, match="line 300"):
        parse_trace("".join(lines))
    path = tmp_path / "t.trace"
    path.write_text("".join(lines), encoding="utf-8")
    return (FileBroker(str(path)),
            RegionSpec.from_ranges([(0x1000, 0x2000, None)]))


def test_a_visit_reports_its_early_error_before_a_later_chunk_is_read(
        model, tmp_path):
    # The unknown class comes first in the stream, so its error wins.
    broker, spec = visit_past_a_bad_chunk(tmp_path, bogus=210)
    try:
        with pytest.raises(AnalysisError,
                           match="instruction 210: unknown class"):
            analyze(model, broker, regions=spec)
    finally:
        broker.close()


def test_a_visit_with_a_clean_head_reports_the_later_chunks_error(
        model, tmp_path):
    # The head is fed, and then the read-ahead's error is raised.
    broker, spec = visit_past_a_bad_chunk(tmp_path)
    try:
        with pytest.raises(TraceParseError, match="line 300"):
            analyze(model, broker, regions=spec)
    finally:
        broker.close()


def test_no_region_hits_mean_zero_visits(model):
    trace, spec = loop_case()
    far = RegionSpec.from_ranges([(0x9000, 0x9010, None)])
    report = analyze(model, SequenceBroker(trace), regions=far)
    assert report.regions.visits == 0
    assert report.regions.per_visit == ()
    assert report.summary.instructions == 0
    assert report.summary.total_cycles == 0
    del spec


def test_whole_program_region_is_one_visit(model):
    # The visit is longer than the 8-entry buffer, so the region loop
    # finds the buffer full and runs cycles while it feeds.
    trace, _ = loop_case()
    assert len(trace) > 8
    everything = RegionSpec.from_ranges([(0x400000, 0x500000, None)])
    plain_rec, region_rec = TimelineRecorder(), TimelineRecorder()
    plain = analyze(model, SequenceBroker(trace), recorder=plain_rec,
                    entry_capacity=8)
    report = analyze(model, SequenceBroker(trace), regions=everything,
                     recorder=region_rec, entry_capacity=8)
    assert report.regions.visits == 1
    assert report.regions.instructions == len(trace)
    assert report.summary == plain.summary
    assert report.pool == plain.pool
    assert report.regions.cycles == report.summary.total_cycles
    assert region_rec.rows == plain_rec.rows


# -- report serialization -----------------------------------------------------

def test_report_round_trips_through_json(model):
    trace, spec = loop_case()
    report = analyze(
        model, SequenceBroker(trace), source="loop.trace", regions=spec,
        alias_policy=AliasPolicy.ALL,
    )
    text = report.to_json()
    assert text.endswith("\n")
    assert '"report_version": 1' in text
    assert AnalysisReport.from_json(text) == report


def test_report_without_regions_round_trips(model):
    report = analyze(model, SequenceBroker(mixed_trace(6)), source="x")
    assert AnalysisReport.from_json(report.to_json()) == report


def report_doc(**changes):
    """A valid report's JSON text with some top-level fields replaced."""
    doc = {
        "report_version": 1, "model": "m", "source": "", "digest": "",
        "alias_policy": "all", "truncated": False,
        "summary": {"instructions": 1, "total_cycles": 3, "total_uops": 1,
                    "dispatch_width": 2, "uops_per_cycle": 0.5, "ipc": 0.5,
                    "block_rthroughput": 0.5},
        "pool": {"total_allocated": 1, "total_recycled": 1, "peak_live": 1},
        "missing_metadata": 0,
        "regions": {"visits": 1, "instructions": 1, "cycles": 3,
                    "per_visit": [{"instructions": 1, "cycles": 3}]},
    }
    doc.update(changes)
    return json.dumps(doc)


def test_report_doc_is_valid():
    report = AnalysisReport.from_json(report_doc())
    assert report.regions.per_visit == ((1, 3),)
    assert report.summary.ipc == 0.5


def test_report_number_fields_read_integers_as_floats():
    # Only an integer field is a count; a number field takes any number.
    doc = json.loads(report_doc())
    doc["summary"].update(ipc=2, block_rthroughput=-1)
    summary = AnalysisReport.from_json(json.dumps(doc)).summary
    assert (summary.ipc, summary.block_rthroughput) == (2.0, -1.0)
    assert type(summary.ipc) is float


@pytest.mark.parametrize("text,match", [
    (report_doc(truncated=0),
     "report: field 'truncated' must be a boolean, got 0"),
    (report_doc(missing_metadata=False),
     "'missing_metadata' must be an integer, got false"),
    (report_doc(model=7), "'model' must be a string, got 7"),
    (report_doc(pool=[]), "'pool' must be an object, got \\[\\]"),
    (report_doc(regions={"visits": 1, "instructions": 1, "cycles": 3,
                         "per_visit": [[1, 3]]}),
     "regions visit\\[0\\]: must be an object, got \\[1, 3\\]"),
    (report_doc(regions={"visits": 1, "instructions": 1, "cycles": 3,
                         "per_visit": [{"instructions": 1, "cycles": 2.0}]}),
     "regions visit\\[0\\]: field 'cycles' must be an integer, got 2.0"),
    (report_doc(regions="none"), "'regions' must be an object or null"),
    # Past a float's range, a JSON integer is no number a report holds.
    (report_doc(summary={"instructions": 1, "total_cycles": 3,
                         "total_uops": 1, "dispatch_width": 2,
                         "uops_per_cycle": 0.5, "ipc": 10 ** 400,
                         "block_rthroughput": 0.5}),
     "summary: field 'ipc' must be a number, got 1000"),
    (report_doc(summary={"instructions": 1, "total_cycles": 3,
                         "total_uops": 1, "dispatch_width": 2,
                         "uops_per_cycle": 0.5, "ipc": 0.5,
                         "block_rthroughput": 0.5, "bogus": 1}),
     "summary: unknown field\\(s\\) 'bogus'"),
    ("not json", "not valid JSON"),
    pytest.param(
        '{"report_version": ' + "1" * 5000 + "}",
        "report is not valid JSON: integer past the interpreter's digit limit",
        id="digit-limit"),
    pytest.param("[" * 100_000, "report is not valid JSON: nested too deeply",
                 id="deep-nesting"),
    ("[]", "missing version"),
    ('{"report_version": 2}', "missing version"),
    # True and 1.0 equal 1, but only the integer is version 1.
    (report_doc(report_version=True), "missing version"),
    (report_doc(report_version=1.0), "missing version"),
    (report_doc(report_version="1"), "missing version"),
    ('{"report_version": 1}', "malformed analysis report"),
    (
        '{"report_version": 1, "model": "m", "source": "", "digest": "",'
        ' "alias_policy": "all", "truncated": false,'
        ' "summary": {"bogus": 1}, "pool": {}, "missing_metadata": 0,'
        ' "regions": null}',
        "malformed analysis report",
    ),
])
def test_from_json_rejects(text, match):
    with pytest.raises(TraceParseError, match=match):
        AnalysisReport.from_json(text)


@pytest.mark.parametrize("key,cls", [
    ("summary", SummaryStats), ("pool", PoolStats),
    ("regions", analysis.RegionStats), ("report", AnalysisReport),
])
def test_each_json_kind_table_names_exactly_its_types_fields(model, key,
                                                            cls):
    trace, spec = loop_case()
    doc = json.loads(analyze(model, SequenceBroker(trace),
                             regions=spec).to_json())
    fields = list(inspect.signature(cls).parameters)
    if key == "report":
        # The top level: its keys after report_version name the
        # report's fields in order, model for model_name.
        obj, names = doc, list(doc)[1:]
        assert names == ["model", *fields[1:]]
    else:
        obj, names = doc[key], list(doc[key])
        assert names == fields

    def read(part):
        AnalysisReport.from_json(json.dumps(
            part if key == "report" else {**doc, key: part}))

    for name in names:
        with pytest.raises(TraceParseError, match=re.escape(
                f"{key}: missing field '{name}'")):
            read({k: v for k, v in obj.items() if k != name})
    with pytest.raises(TraceParseError, match=re.escape(
            f"{key}: unknown field(s) 'bogus'")):
        read({**obj, "bogus": 0})
