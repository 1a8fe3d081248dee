"""Trace brokers: sequence, file, and the socket wire protocol."""

import gc
import io
import json
import re
import socket
import threading
import time
import warnings
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from cycletrace import (
    AnalysisError,
    Batch,
    FileBroker,
    Pipeline,
    ProtocolError,
    SequenceBroker,
    SocketBroker,
    TraceInstruction,
    TraceParseError,
    TruncatedTraceError,
    analyze,
    parse_trace,
    parse_trace_line,
    render_instruction,
    render_trace,
    send_trace,
    stream_to_socket,
    to_wire,
    trace,
)
from cycletrace.brokers import FRAME_INSTRUCTIONS, MAX_FRAME_BYTES
from gen import ti


def drain_broker(broker, max_n=64):
    got = []
    while True:
        batch = broker.fetch_batch(max_n)
        got.extend(batch.instructions)
        if batch.end_of_stream:
            return got


# -- SequenceBroker -----------------------------------------------------------

def test_sequence_broker_marks_final_batch():
    insts = [ti(s, "add") for s in range(5)]
    broker = SequenceBroker(insts)
    first = broker.fetch_batch(3)
    assert len(first.instructions) == 3 and not first.end_of_stream
    second = broker.fetch_batch(3)
    # Last real instructions share the batch with the end marker.
    assert len(second.instructions) == 2 and second.end_of_stream


def test_sequence_broker_ends_whole_batches_with_an_empty_one():
    insts = [ti(s, "add") for s in range(6)]
    broker = SequenceBroker(insts)
    batches = [broker.fetch_batch(3) for _ in range(3)]
    assert [b.instructions for b in batches] == [
        tuple(insts[:3]), tuple(insts[3:]), ()]
    assert [b.end_of_stream for b in batches] == [False, False, True]
    assert broker.fetch_batch(3) == Batch(end_of_stream=True)


def test_sequence_broker_end_is_idempotent():
    broker = SequenceBroker([ti(0, "add")])
    assert broker.fetch_batch(8).end_of_stream
    again = broker.fetch_batch(8)
    assert again.end_of_stream and not again.instructions


def test_sequence_broker_takes_generators():
    broker = SequenceBroker(ti(s, "add") for s in range(4))
    assert len(drain_broker(broker, 3)) == 4


# -- FileBroker ---------------------------------------------------------------

def test_file_broker_parses_lazily(tmp_path):
    insts = [ti(s, "add", writes=[s % 4]) for s in range(10)]
    path = tmp_path / "t.trace"
    path.write_text("# header\n" + render_trace(insts))
    broker = FileBroker(str(path))
    try:
        assert drain_broker(broker, 4) == insts
    finally:
        broker.close()


def test_file_broker_ends_whole_chunks_with_an_empty_batch(tmp_path):
    # Six lines, five instructions: a fetch asks for lines, and a read
    # short of max_n lines ends the stream.
    insts = [ti(s, "add") for s in range(5)]
    path = tmp_path / "t.trace"
    path.write_text("# header\n" + render_trace(insts))
    broker = FileBroker(str(path))
    try:
        batches = [broker.fetch_batch(3) for _ in range(3)]
        assert [list(b.instructions) for b in batches] == [
            insts[:2], insts[2:], []]
        assert [b.end_of_stream for b in batches] == [False, False, True]
        again = broker.fetch_batch(3)
        assert again.end_of_stream and not again.instructions
    finally:
        broker.close()


def test_file_broker_ends_the_stream_once_closed(tmp_path):
    insts = [ti(s, "add") for s in range(5)]
    path = tmp_path / "t.trace"
    path.write_text(render_trace(insts))
    broker = FileBroker(str(path))
    assert list(broker.fetch_batch(2).instructions) == insts[:2]
    broker.close()
    batch = broker.fetch_batch(2)
    assert batch.end_of_stream and not batch.instructions


def test_file_broker_reports_bad_line(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("I 0 0x0 add R:- W:-\nI 1 0x4 add R:-\n")
    broker = FileBroker(str(path))
    with pytest.raises(TraceParseError, match="line 2"):
        drain_broker(broker)
    broker.close()


def test_file_broker_rejects_seq_regression(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("I 4 0x0 add R:- W:-\n# gap\nI 2 0x4 add R:- W:-\n")
    broker = FileBroker(str(path))
    with pytest.raises(TraceParseError,
                       match="^line 3: sequence id 2 not greater than "
                             "previous 4$"):
        drain_broker(broker)
    broker.close()


@pytest.mark.parametrize("lineno", [2, 700])
def test_file_broker_refuses_a_line_that_is_not_utf8(tmp_path, lineno):
    lines = [f"I {s} {4 * s:#x} add R:- W:-\n".encode() for s in range(800)]
    lines[lineno - 1] = lines[lineno - 1].replace(b"add", b"a\xffdd")
    path = tmp_path / "t.trace"
    path.write_bytes(b"".join(lines))
    broker = FileBroker(str(path))
    try:
        with pytest.raises(TraceParseError,
                           match=f"^line {lineno}: not UTF-8$"):
            drain_broker(broker, 256)
    finally:
        broker.close()


def read_line_by_line(text):
    """The instructions of a trace text, or (error, line) of its first
    bad line, parsed one line at a time with parse_trace_line, which
    reads every spelling field by field."""
    insts = []
    last_seq = -1
    try:
        for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise TraceParseError("not UTF-8", lineno) from None
            inst = parse_trace_line(raw, lineno)
            if inst is None:
                continue
            if inst.seq_id <= last_seq:
                raise TraceParseError(
                    f"sequence id {inst.seq_id} not greater than previous "
                    f"{last_seq}", lineno)
            last_seq = inst.seq_id
            insts.append(inst)
    except TraceParseError as e:
        return str(e), e.line
    return insts


def is_canonical_line(line):
    """Whether line renders back to itself; comments and blank lines do
    not hold an instruction, so they do not count against a batch."""
    inst = parse_trace_line(line)
    return inst is None or render_instruction(inst) + "\n" == line


def drain_file(path, max_n):
    """FileBroker's instructions for the file, or (error, line).  A batch
    carries text exactly when every instruction line among its max_n
    lines is canonical, and that text is the rendering of its
    instructions."""
    broker = FileBroker(str(path))
    insts = []
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            while True:
                batch = broker.fetch_batch(max_n)
                lines = list(islice(f, max_n))
                assert (batch.text is not None) == all(
                    map(is_canonical_line, lines))
                if batch.text is not None:
                    assert batch.text == render_trace(batch.instructions)
                insts.extend(batch.instructions)
                if batch.end_of_stream:
                    return insts
    except TraceParseError as e:
        return str(e), e.line
    finally:
        broker.close()


@pytest.mark.parametrize("sep", [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\r", "\r\n",
], ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS", "CR", "CRLF"])
@pytest.mark.parametrize("text", [
    "I 0 0x0 add R:-{sep}W:-\nI 1 0x4 add R:- W:-\n",
    "I 0 0x0 add R:- W:-{sep}I 1 0x4 add R:- W:-\n",
    "I 0 0x0 add R:- W:-\n# note{sep}I 1 0x4 add R:- W:-\nI 2 0x8 add\n",
], ids=["in-record", "between-records", "in-comment"])
def test_parse_trace_splits_lines_as_a_file_is_read(tmp_path, sep, text):
    text = text.format(sep=sep)
    path = tmp_path / "t.trace"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    try:
        parsed = parse_trace(text)
    except TraceParseError as e:
        parsed = str(e), e.line
    assert parsed == drain_file(path, 256)


# Respellings of a rendered line (no newline) that no longer match it
# exactly, as test_near_miss_spellings_are_not_canonical lists them.
NEAR_MISSES = [
    lambda line: line.replace("I ", "I 0", 1),
    lambda line: line.replace(" 0x", " 0X", 1),
    lambda line: line.replace(" 0x", " 0x0", 1),
    lambda line: re.sub(r" 0x([0-9a-f]+) ",
                        lambda m: f" {int(m[1], 16)} ", line, count=1),
    lambda line: re.sub(r"R:([0-9])", r"R:r\1", line, count=1),
    lambda line: re.sub(r"W:([0-9])", r"W:0\1", line, count=1),
    lambda line: line.replace(" ", "  ", 1),
    lambda line: line.replace(" ", "\t", 1),
    lambda line: line + " ",
    lambda line: " " + line,
    lambda line: line + " # c",
    lambda line: line.replace("R:-", "R:", 1),
    lambda line: re.sub(r"(:0x[0-9a-f]+:)", r"\g<1>0", line, count=1),
    lambda line: line + "\r",
]


@st.composite
def trace_files(draw):
    """A trace text: rendered instructions, repeated past a few chunks,
    with comments (some quoting a line), blank lines, near-miss
    spellings, and perhaps one out-of-range line, one sequence
    regression, one line holding a byte that is not UTF-8 and one
    canonical line with a register past the digit limit, at random
    places."""
    body = draw(st.lists(gen.instructions, min_size=1, max_size=6))
    repeats = draw(st.integers(1, 600 // len(body)))
    lines = [
        render_instruction(TraceInstruction(
            seq, inst.address, inst.class_name, inst.reads, inst.writes,
            inst.mem, inst.context)) + "\n"
        for seq, inst in enumerate(body * repeats)
    ]
    at = st.integers(0, len(lines) - 1)
    for i, kind in draw(st.lists(st.tuples(at, st.integers(0, 3)),
                                 max_size=12)):
        if kind == 0:
            lines.insert(i, "# a comment\n")
        elif kind == 1:
            lines.insert(i, "\n")
        elif kind == 2:
            lines.insert(i, "# " + lines[i])  # quotes a canonical line
        else:
            respell = draw(st.sampled_from(NEAR_MISSES))
            lines[i] = respell(lines[i][:-1]) + "\n"
    if draw(st.booleans()):
        lines.insert(draw(at), "I 0 0x10000000000000000 nop R:- W:-\n")
    for bad in ("# caf\udce9\n",  # the byte 0xe9, read with surrogateescape
                f"I 0 0x0 nop R:{'1' * 5000} W:-\n"):
        if draw(st.integers(0, 3)) == 0:
            lines.insert(draw(at), bad)
    if draw(st.booleans()):
        i = draw(at)
        copy = lines[i]
        if draw(st.booleans()):
            copy = draw(st.sampled_from(NEAR_MISSES))(copy[:-1]) + "\n"
        lines.insert(i + draw(st.integers(0, 3)), copy)
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\n")
    return "".join(lines)


@settings(max_examples=60, deadline=None)
@given(trace_files())
def test_file_broker_reads_as_the_line_by_line_path(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("chunks") / "t.trace"
    with open(path, "w", encoding="utf-8", errors="surrogateescape",
              newline="") as f:
        f.write(text)
    expected = read_line_by_line(text)
    for max_n in (1, 7, 255, 256, 257):
        assert drain_file(path, max_n) == expected, max_n


@pytest.mark.parametrize("middle,line", [
    ("# c\n", "I 1 0x4 add R:- W:-\n"),
    ("", "I 1  0x4 add R:- W:-\n"),
    ("I 2  0x8 add R:- W:-\n", "I 2 0x8 add R:- W:-\n"),
    ("# c\nI 2  0x8 add R:- W:-\n# d\n", "I 1  0x4 add R:- W:-\n"),
], ids=["canonical-after-comment", "respelled-after-canonical",
        "canonical-after-respelled", "respelled-after-respelled"])
def test_file_broker_checks_order_across_other_lines(tmp_path, middle, line):
    text = ("I 0 0x0 add R:- W:-\nI 1 0x4 add R:- W:-\n" + middle + line
            + "I 9 0x24 add R:- W:-\n")
    path = tmp_path / "t.trace"
    path.write_text(text)
    expected = read_line_by_line(text)
    assert expected[0].startswith("line ")
    assert drain_file(path, 256) == expected


def test_file_broker_reads_only_the_other_lines_one_by_one(tmp_path,
                                                          monkeypatch):
    lines = [f"I {s} {4 * s:#x} add R:1 W:2\n" for s in range(600)]
    lines[3] = "# I 3 0xc add R:1 W:2\n"
    lines[300] = "I 300  0x4b0 add R:1 W:2\n"
    lines[301:301] = ["\n", "# a comment\n"]
    lines[-1] = lines[-1][:-1]
    text = "".join(lines)
    path = tmp_path / "t.trace"
    path.write_text(text)
    expected = read_line_by_line(text)
    parse = mock.Mock(wraps=trace.parse_trace_line)
    monkeypatch.setattr(trace, "parse_trace_line", parse)
    for max_n in (7, 256):
        parse.reset_mock()
        assert drain_file(path, max_n) == expected
        # The quoting comment, the respelled record, the blank line, the
        # comment and the last line, which has no newline.
        assert [c.args[0] for c in parse.call_args_list] == [
            lines[3], lines[300], "\n", "# a comment\n", lines[-1]]


@pytest.mark.parametrize("bad,message", [
    (None, None),
    ("I 600 0x10000000000000000 nop R:- W:-\n",
     "address 0x10000000000000000 out of range"),
    ("I 5 0x960 add R:- W:-\n", "sequence id 5 not greater than previous 598"),
    ("I 599 0x960 add R:-\n", "truncated instruction record"),
], ids=["valid", "out-of-range", "out-of-order", "malformed"])
def test_file_broker_reads_each_chunk_from_the_file_once(
        tmp_path, monkeypatch, bad, message):
    lines = [f"I {s} {4 * s:#x} add R:- W:-\n" for s in range(700)]
    if bad is not None:
        lines[599] = bad  # line 600, in the third 256-line chunk
    path = tmp_path / "t.trace"
    path.write_text("".join(lines))
    # Records every method called on the pattern.
    pattern = mock.Mock(wraps=trace._LINE)
    monkeypatch.setattr(trace, "_LINE", pattern)
    chunks = []  # the line count of each chunk read
    read = trace.ChunkReader.read

    def counted(self, text, n):
        chunks.append(n)
        return read(self, text, n)

    monkeypatch.setattr(trace.ChunkReader, "read", counted)
    got = drain_file(path, 256)
    if bad is None:
        assert len(got) == 700
    else:
        assert got == (f"line 600: {message}", 600)
    assert chunks == [256, 256, 188]
    # A chunk holding a bad line is read again line by line, without
    # the pattern, only for its error.
    assert [c[0] for c in pattern.mock_calls] == ["findall"] * 3


# -- SocketBroker -------------------------------------------------------------

HELLO = b'{"t": "hello", "version": 1}\n'


def loopback_sockets():
    """A connected (producer_sock, consumer_sock) pair on the loopback.

    The broker blocks until the producer sends, so the consumer socket
    gets a timeout: a regression fails the test instead of hanging it.
    """
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    client = socket.create_connection(("127.0.0.1", port))
    conn, _ = server.accept()
    server.close()
    conn.settimeout(10)
    return client, conn


def loopback_pair():
    """A (producer_sock, broker) pair that has completed the handshake.

    The broker's constructor waits for the hello, so the producer sends
    it before the broker is built and reads the ok reply after.
    """
    producer, conn = loopback_sockets()
    producer.sendall(HELLO)
    broker = SocketBroker(conn)
    assert producer.recv(64) == b'{"t": "ok"}\n'
    return producer, broker


def handshake(sock):
    """Send the hello and read the ok, as a producer opens a stream."""
    sock.sendall(HELLO)
    assert sock.recv(64) == b'{"t": "ok"}\n'


def streaming_pair(produce):
    """(producer_sock, broker, thread) with produce(producer_sock) running
    on a thread started before the broker is built."""
    producer, conn = loopback_sockets()
    thread = threading.Thread(target=produce, args=(producer,))
    thread.start()
    return producer, SocketBroker(conn), thread


def test_socket_round_trip():
    # Two full frames and a part-filled last one.
    insts = [ti(s, "add", writes=[s % 3])
             for s in range(2 * FRAME_INSTRUCTIONS + 20)]
    producer, broker, t = streaming_pair(lambda sock: stream_to_socket(
        sock, insts, model_hint="m1"))
    # The constructor has read the hello before any fetch.
    assert broker.model_hint == "m1"
    got = drain_broker(broker, 8)
    t.join(5)
    producer.close()
    broker.close()
    assert got == insts


def test_socket_ends_leave_no_unclosed_socket():
    # The producer reads the ok through a file over its socket, and a
    # failed handshake leaves no broker whose close() could release the
    # consumer's socket.
    insts = [ti(s, "add", writes=[s % 3]) for s in range(20)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        producer, broker, sender = streaming_pair(
            lambda sock: stream_to_socket(sock, insts))
        assert drain_broker(broker) == insts
        sender.join(5)
        assert not sender.is_alive()
        producer.close()
        broker.close()

        producer, conn = loopback_sockets()
        producer.sendall(b"not json at all\n")
        with pytest.raises(ProtocolError):
            SocketBroker(conn)
        producer.close()
        del producer, conn, broker, sender
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def test_socket_holds_back_a_producer_that_outruns_the_consumer(monkeypatch):
    # Each fetch decodes one frame, so the rest of the stream waits in
    # the socket buffers and the producer blocks in sendall until the
    # consumer catches up.
    n = 100_000

    def inst(s):
        return ti(s, "add", writes=[s % 4])

    decode = SocketBroker._decode_frame
    decoded = 0

    def counted_decode(line, last_seq):
        nonlocal decoded
        decoded += 1
        return decode(line, last_seq)

    monkeypatch.setattr(SocketBroker, "_decode_frame",
                        staticmethod(counted_decode))
    producer, broker, sender = streaming_pair(lambda sock: stream_to_socket(
        sock, (inst(s) for s in range(n))))
    try:
        batch = broker.fetch_batch(8)
        assert batch.instructions == tuple(
            inst(s) for s in range(FRAME_INSTRUCTIONS))
        time.sleep(0.5)
        assert decoded == 1  # one frame
        assert sender.is_alive()

        expected = FRAME_INSTRUCTIONS
        fetches = 1
        while not batch.end_of_stream:
            batch = broker.fetch_batch(64)
            fetches += 1
            assert decoded == fetches
            for got in batch.instructions:
                assert got == inst(expected)
                expected += 1
        assert expected == n
        sender.join(10)
        assert not sender.is_alive()
    finally:
        producer.close()
        broker.close()
    assert not sender.is_alive()


def test_socket_refuses_a_line_longer_than_the_frame_cap():
    def produce(sock):
        handshake(sock)
        sock.sendall(b"x" * (MAX_FRAME_BYTES + 1))
        sock.shutdown(socket.SHUT_WR)  # without the cap: a bad last frame

    producer, broker, sender = streaming_pair(produce)
    try:
        with pytest.raises(ProtocolError, match="longer than"):
            drain_broker(broker)
        sender.join(5)
        assert not sender.is_alive()
    finally:
        producer.close()
        broker.close()


def _padded(frame: bytes, size: int) -> bytes:
    """frame padded with JSON whitespace to size bytes, then a newline."""
    return frame.ljust(size) + b"\n"


def test_socket_accepts_a_frame_of_exactly_the_cap():
    inst = ti(0, "add", writes=[1])

    def produce(sock):
        handshake(sock)
        sock.sendall(_padded(_frame_of([inst])[:-1], MAX_FRAME_BYTES))
        sock.sendall(b'{"t": "end"}\n')

    producer, broker, sender = streaming_pair(produce)
    try:
        assert drain_broker(broker) == [inst]
        sender.join(5)
        assert not sender.is_alive()
    finally:
        producer.close()
        broker.close()


def test_socket_refuses_a_frame_one_byte_over_the_cap():
    def produce(sock):
        handshake(sock)
        sock.sendall(_padded(b'{"t": "end"}', MAX_FRAME_BYTES + 1))

    producer, broker, sender = streaming_pair(produce)
    try:
        with pytest.raises(ProtocolError, match=(
                f"^frame longer than {MAX_FRAME_BYTES} bytes$")):
            drain_broker(broker)
        sender.join(5)
        assert not sender.is_alive()
    finally:
        producer.close()
        broker.close()


def test_socket_listen_connect_round_trip():
    insts = [ti(s, "add") for s in range(7)]
    result = {}
    # listen() accepts inline, so pick a free port up front and retry the
    # producer until the consumer thread has bound it.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    def consume():
        broker = SocketBroker.listen(port, accept_timeout=5)
        result["got"] = drain_broker(broker)
        broker.close()

    t = threading.Thread(target=consume)
    t.start()
    for _ in range(100):
        try:
            send_trace("127.0.0.1", port, insts)
            break
        except OSError:
            time.sleep(0.02)
    t.join(10)
    assert result["got"] == insts


def test_socket_truncation_raises():
    # Two full frames and a part-filled last one before the cut.
    insts = [ti(s, "add") for s in range(2 * FRAME_INSTRUCTIONS + 10)]
    raised = []

    def produce(sock):
        # The source fails after its instructions: they are sent, and
        # the stream ends without the end frame.
        try:
            stream_to_socket(sock, gen.cut_short(insts))
        except TruncatedTraceError as e:
            raised.append(e)
        sock.close()

    producer, broker, t = streaming_pair(produce)
    got = []
    with pytest.raises(TruncatedTraceError):
        while True:
            batch = broker.fetch_batch(64)
            got.extend(batch.instructions)
            if batch.end_of_stream:
                break
    t.join(5)
    broker.close()
    assert len(raised) == 1  # the source's error reaches the caller
    assert got == insts  # everything sent before the cut is delivered


def test_source_error_wins_over_a_receiver_that_has_gone():
    # The receiver closes before the source fails, so flushing the
    # part-filled frame fails too; the source's error reaches the caller.
    sock, peer = socket.socketpair()
    peer.sendall(b'{"t": "ok"}\n')

    def source():
        peer.close()
        yield ti(0, "add")
        raise TruncatedTraceError("step budget exhausted before halt")

    with sock, pytest.raises(TruncatedTraceError):
        stream_to_socket(sock, source())


@pytest.mark.parametrize("bad", [
    TraceInstruction(2, 0, "add", reads=[1]),
    TraceInstruction(2, 0, "add", context=["sz", "4"]),
], ids=["list-reads", "list-context"])
def test_stream_to_socket_refuses_what_analyze_refuses(model, bad):
    insts = [ti(0, "add"), ti(1, "add")]
    with pytest.raises(AnalysisError, match="no trace line can carry"):
        analyze(model, SequenceBroker(insts + [bad]))
    # The instructions before it are sent, it is not, and no end frame
    # follows, as when the source raises.
    sock, peer = socket.socketpair()
    with sock, peer:
        peer.sendall(b'{"t": "ok"}\n')
        with pytest.raises(TraceParseError):
            stream_to_socket(sock, insts + [bad])
        sock.shutdown(socket.SHUT_WR)
        with peer.makefile("rb") as rfile:
            frames = [json.loads(line) for line in rfile]
    assert frames[0]["t"] == "hello"
    assert frames[1:] == [
        {"t": "insts", "batch": [to_wire(inst) for inst in insts]}]


def test_socket_fetch_waits_for_a_quiet_producer():
    insts = [ti(s, "add", writes=[s]) for s in range(3)]
    producer, broker = loopback_pair()

    def produce():
        time.sleep(0.2)
        frame = {"t": "insts", "batch": [to_wire(i) for i in insts]}
        producer.sendall((json.dumps(frame) + "\n").encode())

    sender = threading.Thread(target=produce)
    sender.start()
    try:
        batch = broker.fetch_batch(8)
        assert batch.instructions == tuple(insts)
        assert not batch.end_of_stream
    finally:
        sender.join(5)
        producer.close()
        broker.close()
    assert not sender.is_alive()


def _frame_of(insts):
    return (json.dumps({"t": "insts", "batch": [to_wire(i) for i in insts]})
            + "\n").encode()


@pytest.mark.parametrize("max_n", [64, 65, 256])
def test_socket_hands_out_a_frame_that_fits_whole(max_n):
    insts = [ti(s, "load", writes=[s % 8], loads=[(8 * s, 8)])
             for s in range(64)]
    producer, broker = loopback_pair()
    try:
        producer.sendall(_frame_of(insts))
        batch = broker.fetch_batch(max_n)
        assert batch.instructions == tuple(insts)
        assert not batch.end_of_stream
        producer.sendall(b'{"t": "end"}\n')
        assert broker.fetch_batch(max_n) == Batch(end_of_stream=True)
    finally:
        producer.close()
        broker.close()


def test_socket_hands_out_a_frame_larger_than_max_n_whole():
    insts = [ti(s, "add", writes=[s % 8]) for s in range(64)]
    producer, broker = loopback_pair()
    try:
        producer.sendall(_frame_of(insts))
        batch = broker.fetch_batch(10)
        assert batch.instructions == tuple(insts)
        assert batch.text == render_trace(insts)
        assert not batch.end_of_stream  # the end frame is not sent yet
        producer.sendall(b'{"t": "end"}\n')
        assert broker.fetch_batch(10) == Batch(end_of_stream=True)
        # After the end frame the broker answers without reading.
        producer.close()
        assert broker.fetch_batch(10) == Batch(end_of_stream=True)
    finally:
        producer.close()
        broker.close()


def test_socket_read_past_a_caller_set_timeout_is_a_truncated_trace():
    # The broker keeps whatever timeout its caller gave the socket.
    producer, conn = loopback_sockets()
    conn.settimeout(0.1)
    producer.sendall(HELLO)
    broker = SocketBroker(conn)
    try:
        with pytest.raises(TruncatedTraceError, match="timed out"):
            broker.fetch_batch(8)
    finally:
        producer.close()
        broker.close()


@pytest.mark.parametrize("first_frame,match", [
    (b'{"t": "insts", "batch": []}', "hello"),
    (b'{"t": "hello", "version": 2}', "version"),
    # Both equal 1, but neither is the integer 1.
    (b'{"t": "hello", "version": true}', "^unsupported protocol version True$"),
    (b'{"t": "hello", "version": 1.0}', "^unsupported protocol version 1.0$"),
    (b"not json at all", "frame"),
    (b'{"no_t": 1}', "frame"),
    (b'{"t": "hello", "version": 1, "model_hint": "\xff"}', "UTF-8"),
    (b'{"t": "hello", "version": ' + b"1" * 5000 + b"}",
     "^bad frame: integer past the interpreter's digit limit$"),
    (b"[" * 100_000, "^bad frame: nested too deeply$"),
])
def test_socket_bad_handshake(first_frame, match):
    producer, conn = loopback_sockets()
    with producer:
        producer.sendall(first_frame + b"\n")
        with pytest.raises(ProtocolError, match=match):
            SocketBroker(conn)
    assert conn.fileno() == -1  # the constructor closed it


def test_socket_end_before_the_hello_closes_the_socket():
    producer, conn = loopback_sockets()
    producer.close()
    with pytest.raises(ProtocolError,
                       match="^no hello frame from the producer$"):
        SocketBroker(conn)
    assert conn.fileno() == -1


@pytest.mark.parametrize("frame,message", [
    (b'{"t": "bogus"}', "unexpected frame type 'bogus'"),
    (b'{"t": "insts"}', "'insts' frame without a batch list"),
    (b'{"t": "insts", "batch": 5}', "'insts' frame without a batch list"),
    # json.loads refuses an integer past the digit limit with a bare
    # ValueError; the second frame is canonical, so the fast path sees
    # it first and declines it.
    (b'{"t": "insts", "batch": [{"seq": ' + b"1" * 5000 + b'}]}',
     "bad frame: integer past the interpreter's digit limit"),
    (b'{"t": "insts", "batch": [{"seq": ' + b"1" * 5000
     + b', "addr": 0, "class": "a", "reads": [], "writes": []}]}',
     "bad frame: integer past the interpreter's digit limit"),
    (b'{"t": "insts", "batch": ' + b"[" * 100_000,
     "bad frame: nested too deeply"),
    # A JSON-escaped lone surrogate has no UTF-8 encoding.
    (b'{"t": "insts", "batch": [{"seq": 0, "addr": 0, "class": "a\\udcff", '
     b'"reads": [], "writes": []}]}',
     "instruction field 'class' is not UTF-8"),
    (b'{"t": "insts", "batch": [{"seq": 0, "addr": 0, "class": "a", '
     b'"reads": [], "writes": [], "ctx": ["k", "\\ud800"]}]}',
     "instruction field 'ctx' is not UTF-8"),
], ids=["unknown-type", "no-batch", "batch-not-a-list", "long-seq",
        "long-seq-canonical", "deep", "class-surrogate", "ctx-surrogate"])
def test_socket_rejects_bad_stream_frames(frame, message):
    producer, broker = loopback_pair()
    try:
        producer.sendall(frame + b"\n")
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            broker.fetch_batch(8)
    finally:
        producer.close()
        broker.close()


def test_batches_of_zero_are_refused():
    with pytest.raises(ValueError, match="max_n must be >= 1"):
        SequenceBroker([ti(0, "add")]).fetch_batch(0)
    producer, broker = loopback_pair()
    try:
        with pytest.raises(ValueError, match="max_n must be >= 1"):
            broker.fetch_batch(0)
    finally:
        producer.close()
        broker.close()


@pytest.mark.parametrize("reply", [
    b'{"t": "nope"}\n', b'["ok"]\n', b"not json\n", b"",
    # Refused as the receiver refuses such a frame.
    b"\xff\n", b'{"t": ' + b"1" * 5000 + b"\n", b"[" * 100_000 + b"\n",
], ids=["other-type", "not-an-object", "not-json", "closed", "not-utf8",
        "long-int", "deep"])
def test_producer_refuses_a_receiver_that_does_not_say_ok(reply):
    producer, receiver = loopback_sockets()
    producer.settimeout(10)
    try:
        receiver.sendall(reply)
        receiver.shutdown(socket.SHUT_WR)
        with pytest.raises(ProtocolError, match=(
                "^receiver did not acknowledge the handshake$")):
            stream_to_socket(producer, [ti(0, "add")])
    finally:
        producer.close()
        receiver.close()


def test_socket_rejects_seq_regression():
    producer, broker = loopback_pair()
    frame = {"t": "insts", "batch": [
        {"seq": 3, "addr": 0, "class": "a"},
        {"seq": 3, "addr": 4, "class": "a"},
    ]}
    producer.sendall((json.dumps(frame) + "\n").encode())
    with pytest.raises(ProtocolError, match="sequence"):
        drain_broker(broker)
    producer.close()
    broker.close()


def test_pipeline_suspends_on_quiet_socket_then_finishes(model):
    inst = ti(0, "add", writes=[1])
    producer, broker = loopback_pair()

    def produce():
        frame = {"t": "insts", "batch": [to_wire(inst)]}
        producer.sendall((json.dumps(frame) + "\n").encode())
        time.sleep(0.2)  # quiet: the pipeline waits inside fetch_batch
        producer.sendall(b'{"t": "end"}\n')

    sender = threading.Thread(target=produce)
    sender.start()
    pipe = Pipeline(model)
    try:
        assert not pipe.run_until_starved(broker)
        assert pipe.instructions_retired == 1
        # the pause left the cycles of the unpaced run
        unpaced, _ = gen.run_recorded(model, [inst])
        assert pipe.total_cycles == unpaced.total_cycles
    finally:
        sender.join(5)
        producer.close()
        broker.close()
    assert not sender.is_alive()
