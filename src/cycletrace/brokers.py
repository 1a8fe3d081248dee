"""Instruction brokers: uniform batched access to a trace source.

A broker exposes one method, fetch_batch(max_n) -> Batch.  The sequence
and file brokers return at most max_n instructions; the socket broker
returns each frame whole, since Pipeline.feed takes a batch of any
length.  end_of_stream may arrive together with the final instructions
or in an empty batch after them; after that the broker keeps answering
end_of_stream.  A broker may block in fetch_batch until it has
instructions; an empty batch without end_of_stream means "nothing yet"
and is simply fetched again.

The file broker reads up to max_n lines per fetch and decodes them as
one chunk (trace.ChunkReader), which is the batch.  One regular
expression findall tiles the chunk into its lines: a canonical line's
fields are captured, and any other line is parsed with
trace.parse_trace_line.  The batch carries its canonical lines' text
(Batch.text) when the other lines hold no instruction.  A chunk holding
a bad line is read again line by line, only for its error.  The socket
broker hands out each decoded frame as one batch.

The wire protocol is newline-delimited JSON, one frame per line:

    {"t": "hello", "version": 1, "model_hint": "<name>"}
    -> receiver replies {"t": "ok"}
    {"t": "insts", "batch": [<instruction objects>]}   (repeated)
    {"t": "end"}

Sequence ids must increase across the whole stream; they are checked
once per frame, whichever decoder read it.  A malformed frame, a
non-monotonic sequence id or a frame line with more than MAX_FRAME_BYTES
(4 MiB) before its newline aborts with ProtocolError; a disconnect before
the end frame is reported as a truncated trace.  The socket broker reads
one frame per fetch, so a producer faster than the consumer is held back
by TCP flow control.

An 'insts' frame spelled exactly as stream_to_socket writes it is
canonical.  The socket broker reads such a frame in one regular
expression pass that both certifies it and captures every field, and
builds each instruction's canonical trace line as it goes, so the
frame's batch carries its text (Batch.text).  Any other frame, and a
canonical one that is out of range, is decoded by json and as from_wire
decodes each object, which renders its trace line to check it; the
lines are kept as the batch's text, so every 'insts' frame has its text.

The socket module is imported where a socket is opened (listen, connect
and send_trace), so reading a file does not load it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

from .errors import ProtocolError, TruncatedTraceError
from .model import _loads
from .trace import (
    _LOAD,
    _NUM,
    _STORE,
    U64_LIMIT,
    _InternTable,
    Batch,
    ChunkReader,
    MemoryAccess,
    TraceInstruction,
    _wire_line,
    render_trace,
    to_wire,
)

_END_BATCH = Batch(end_of_stream=True)

# A frame line with more than this many bytes before its newline is
# refused; a 64-instruction frame is a few kilobytes.
MAX_FRAME_BYTES = 4 << 20
_RECV_BYTES = 1 << 16  # buffer size of the socket's line reader

# A wire instruction object exactly as json.dumps writes to_wire's dict:
# default separators, to_wire's key order, unsigned decimals with no
# leading zero, and strings that json.dumps writes without an escape
# (ASCII from '!' to '~' but '"' and backslash) and that a trace line
# can carry: no '#' (trace._CLASS, _CTX_VALUE), and no '=' in a context
# key (_CTX_KEY).  Its groups are the sequence id, address, class, reads,
# writes, the memory entries as one string, context key and value.
_WIRE_STR = r"!$-\[\]-~"
_WIRE_REGS = rf"(?:{_NUM}(?:, {_NUM})*)?"
_WIRE_ACCESS = rf'\{{"kind": "[LS]", "addr": {_NUM}, "size": [1-9][0-9]*\}}'
_WIRE_OBJECT = (
    rf'\{{"seq": ({_NUM}), "addr": ({_NUM}), "class": "([{_WIRE_STR}]+)", '
    rf'"reads": \[({_WIRE_REGS})\], "writes": \[({_WIRE_REGS})\]'
    rf'(?:, "mem": \[({_WIRE_ACCESS}(?:, {_WIRE_ACCESS})*)\])?'
    rf'(?:, "ctx": \["([!$-<>-\[\]-~]+)", "([{_WIRE_STR}]*)"\])?\}}'
)
_WIRE_GROUPS = 8
_FRAME_HEAD = '{"t": "insts", "batch": ['
_FRAME_TAIL = "]}\n"


@functools.cache
def _wire_patterns():
    """The split of _WIRE_OBJECT and the findall that reads its memory
    entries, compiled on first use: a run that reads no socket does not
    pay the milliseconds they take to compile."""
    return (re.compile(_WIRE_OBJECT).split,
            re.compile(r'"kind": "([LS])", "addr": ([0-9]+), '
                       r'"size": ([0-9]+)').findall)


# Register-list text as sent ("1, 2") -> (registers, text in a trace
# line).  Raises ValueError for a register past the interpreter's digit
# limit.
_WIRE_REG_LISTS = _InternTable(
    lambda f: (tuple(map(int, f.split(", "))), f.replace(" ", "")) if f
    else ((), "-"))


def _read_canonical(line: bytes) -> Batch | None:
    """The Batch of a canonical 'insts' frame line, its text included.

    Returns None for any other line, and for a canonical one that
    from_wire would refuse: an address at or past 2^64, an access past
    2^64, or a number past the interpreter's digit limit.  So this path
    only declines a frame: what it takes, it decodes as json.loads and
    from_wire would.  Sequence order is the caller's to check.
    """
    split, read_accesses = _wire_patterns()
    # latin-1 makes each byte one character; a byte past ASCII, valid
    # UTF-8 or not, is in no character class of the pattern.
    parts = split(line.decode("latin-1"))
    # The text around and between the objects comes first and then after
    # each object's groups: the frame is canonical if that is the head,
    # a ", " between every two objects, and the tail.
    between = parts[::_WIRE_GROUPS + 1]
    if (len(between) < 2 or between[0] != _FRAME_HEAD
            or between[-1] != _FRAME_TAIL
            or between.count(", ") != len(between) - 2):
        return None
    fields = [iter(parts[1:])] * (_WIRE_GROUPS + 1)
    reg_lists = _WIRE_REG_LISTS
    insts = []
    lines = []
    try:
        for seq, addr, cname, r, w, mem, key, value, _ in zip(*fields):
            s = int(seq)  # ValueError past the interpreter's digit limit
            a = int(addr)
            if a >= U64_LIMIT:
                return None
            reads, r_text = reg_lists[r]
            writes, w_text = reg_lists[w]
            text = f"I {seq} {hex(a)} {cname} R:{r_text} W:{w_text}"
            accesses = ()
            if mem:
                accesses = []
                for kind, at, size in read_accesses(mem):
                    at = int(at)
                    n = int(size)
                    if at + n > U64_LIMIT:
                        return None
                    accesses.append(MemoryAccess(
                        _LOAD if kind == "L" else _STORE, at, n))
                    text += f" {kind}:{hex(at)}:{size}"
                accesses = tuple(accesses)
            context = None
            if key:
                context = (key, value)
                text += f" C:{key}={value}"
            insts.append(TraceInstruction(s, a, cname, reads, writes,
                                          accesses, context))
            lines.append(text)
    except ValueError:
        return None
    lines.append("")  # the last line's newline
    return Batch(tuple(insts), text="\n".join(lines))


def _json_frame(line: bytes) -> dict:
    """The frame line's JSON object, which has a 't' field."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("bad frame: not UTF-8") from None
    frame = _loads(text, ProtocolError, "bad frame")
    if not isinstance(frame, dict) or "t" not in frame:
        raise ProtocolError("frame is not an object with a 't' field")
    return frame


class BrokerStream:
    """Iterates a broker's batches, asking for max_n instructions each.

    Yields each batch's instructions, which may be none, until end of
    stream or a TruncatedTraceError; once the iteration stops, truncated
    says which of the two ended it.
    """

    def __init__(self, broker, max_n: int):
        self.broker = broker
        self.max_n = max_n
        self.truncated = False

    def __iter__(self) -> Iterator[Sequence[TraceInstruction]]:
        fetch, max_n = self.broker.fetch_batch, self.max_n
        while True:
            try:
                batch = fetch(max_n)
            except TruncatedTraceError:
                self.truncated = True
                return
            # Let go of the batch before the next fetch, so that its
            # source text (Batch.text) is not held while the next
            # batch's is read.
            instructions, ended = batch.instructions, batch.end_of_stream
            del batch
            yield instructions
            if ended:
                return


class SequenceBroker:
    """Serves instructions from any in-memory iterable or generator.

    A batch shorter than max_n ends the stream, so a stream whose length
    is a multiple of max_n ends with an empty batch.
    """

    def __init__(self, instructions: Iterable[TraceInstruction]):
        self._it: Iterator = iter(instructions)

    def fetch_batch(self, max_n: int) -> Batch:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        return self._read(max_n)

    def _read(self, max_n: int) -> Batch:
        batch = tuple(islice(self._it, max_n))
        # A short batch, empty included, means the iterable is used up.
        return Batch(batch, end_of_stream=len(batch) < max_n)

    def close(self):
        self._it = iter(())


class FileBroker(SequenceBroker):
    """Streams a trace file lazily, enforcing sequence id monotonicity.

    Each fetch reads up to max_n lines and decodes them as one chunk
    (trace.ChunkReader), which is the batch: one regular expression
    findall tiles the chunk into its lines, capturing each canonical
    line's fields, and each other line is parsed on its own.  A batch
    whose instructions were all read from canonical lines carries their
    text (Batch.text): on a canonical file, each batch carries its
    chunk's text as read.  Comment and blank lines count
    towards max_n, so a batch may hold fewer instructions, or none,
    without ending the stream.  A read that comes back short of max_n
    lines ends the stream, so a file whose line count is a multiple of
    max_n ends with an empty batch.

    The file is read with universal newlines, so a CRLF file reads as
    its LF twin.  A byte that is not UTF-8 is reported as a
    TraceParseError on its line.
    """

    def __init__(self, path: str):
        self._fh = open(path, "r", encoding="utf-8",
                        errors="surrogateescape")
        super().__init__(self._fh)  # the lines; close() ends them
        self._reader = ChunkReader()

    def _read(self, max_n: int) -> Batch:
        lines = list(islice(self._it, max_n))
        n = len(lines)
        text = "".join(lines)
        del lines  # not held while the chunk is decoded
        insts, text = self._reader.read(text, n)
        return Batch(insts, n < max_n, text=text)

    def close(self):
        super().close()
        self._fh.close()


class SocketBroker:
    """Receives a trace stream over a socket, with no thread of its own.

    Frames are read as lines through a buffered reader over the socket.
    The constructor reads the hello frame, sets model_hint and replies
    ok before it returns; if the handshake fails it closes the reader
    and the socket.  Each fetch reads and decodes one frame and hands it
    out whole, whatever max_n, so nothing is decoded ahead and TCP flow
    control holds back a producer that outruns the consumer.  Every
    'insts' frame's batch carries its text (Batch.text): a canonical
    frame's as it was read, any other's as its checks rendered it.
    fetch_batch blocks until the producer sends, so the pipeline simply
    waits for a quiet producer.
    The broker never sets the socket's timeout: listen and connect hand
    it a blocking socket, and a read that times out on a timeout the
    caller set is reported as a truncated trace.  A frame line with more
    than MAX_FRAME_BYTES before its newline is a ProtocolError.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._rfile = sock.makefile("rb", buffering=_RECV_BYTES)
        self.model_hint: str | None = None
        self._last_seq = -1
        self._eos = False
        try:
            line = self._next_line()
            if not line:
                raise ProtocolError("no hello frame from the producer")
            hello = _json_frame(line)
            if hello["t"] != "hello":
                raise ProtocolError(
                    f"expected 'hello' frame, got '{hello['t']}'")
            version = hello.get("version")
            # True and 1.0 equal 1, but only the integer is version 1.
            if type(version) is not int or version != 1:
                raise ProtocolError(
                    f"unsupported protocol version {version!r}")
            hint = hello.get("model_hint")
            self.model_hint = hint if isinstance(hint, str) else None
            sock.sendall(b'{"t": "ok"}\n')
        except BaseException:
            self.close()
            raise

    # Construction helpers -------------------------------------------------

    @classmethod
    def listen(
        cls,
        port: int,
        host: str = "127.0.0.1",
        accept_timeout: float | None = None,
    ) -> "SocketBroker":
        """Wait for one producer connection on host:port."""
        import socket

        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host, port))
            server.listen(1)
            server.settimeout(accept_timeout)
            conn, _ = server.accept()
        finally:
            server.close()
        return cls(conn)

    @classmethod
    def connect(cls, host: str, port: int) -> "SocketBroker":
        """Dial a producer that serves the trace stream."""
        import socket

        return cls(socket.create_connection((host, port)))

    # Reading ---------------------------------------------------------------

    def _next_line(self) -> bytes:
        """The next line with its newline, waiting for the producer.

        Once the producer has closed its end this returns what is left
        without a newline, then b"".
        """
        try:
            line = self._rfile.readline(MAX_FRAME_BYTES + 1)
        except OSError as e:
            raise TruncatedTraceError(f"stream failed: {e}") from None
        if len(line) > MAX_FRAME_BYTES and line[-1:] != b"\n":
            raise ProtocolError(f"frame longer than {MAX_FRAME_BYTES} bytes")
        return line

    @staticmethod
    def _decode_frame(line: bytes, last_seq: int) -> Batch:
        """The Batch of a stream frame line whose sequence ids follow
        last_seq: an 'insts' frame's instructions with their text, read
        by _read_canonical if the frame is canonical and rendered by
        _wire_line's checks if not, or the end batch."""
        batch = _read_canonical(line)
        if batch is None:
            frame = _json_frame(line)
            kind = frame["t"]
            if kind == "end":
                return _END_BATCH
            if kind != "insts":
                raise ProtocolError(f"unexpected frame type '{kind}'")
            objs = frame.get("batch")
            if not isinstance(objs, list):
                raise ProtocolError("'insts' frame without a batch list")
            decoded = [_wire_line(obj) for obj in objs]
            batch = Batch(tuple(inst for inst, _ in decoded),
                          text="".join(line for _, line in decoded))
        for inst in batch.instructions:
            if inst.seq_id <= last_seq:
                raise ProtocolError(
                    f"sequence id {inst.seq_id} not greater "
                    f"than previous {last_seq}"
                )
            last_seq = inst.seq_id
        return batch

    # Consumer side ----------------------------------------------------------

    def fetch_batch(self, max_n: int) -> Batch:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        if self._eos:
            return _END_BATCH
        line = self._next_line()
        if not line:
            raise TruncatedTraceError(
                "producer disconnected before end of stream")
        batch = self._decode_frame(line, self._last_seq)
        self._eos = batch.end_of_stream
        if batch.instructions:
            self._last_seq = batch.instructions[-1].seq_id
        return batch

    def close(self):
        self._rfile.close()
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Producer side

FRAME_INSTRUCTIONS = 64  # instructions per full 'insts' frame


def stream_to_socket(
    sock: socket.socket,
    instructions: Iterable[TraceInstruction],
    model_hint: str = "",
):
    """Send a trace over an open socket using the wire protocol.

    instructions may be a generator that produces the trace as it is
    sent.  If iterating it raises, what it produced is still sent and
    the error propagates without the end frame, which the receiver
    reports as a truncated trace.  An instruction that no trace line
    carries (render_trace) raises TraceParseError the same way, unsent.
    """
    hello = {"t": "hello", "version": 1, "model_hint": model_hint}
    sock.sendall((json.dumps(hello) + "\n").encode("utf-8"))
    # The reply is read as the receiver reads a frame.
    with sock.makefile("rb") as rfile:
        reply = rfile.readline(MAX_FRAME_BYTES + 1)
    try:
        ok = _json_frame(reply)["t"] == "ok"
    except ProtocolError:
        ok = False
    if not ok:
        raise ProtocolError("receiver did not acknowledge the handshake")

    def send(batch):
        if batch:
            frame = {"t": "insts", "batch": batch}
            sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))

    chunk: list[dict] = []
    try:
        for inst in instructions:
            render_trace((inst,))
            chunk.append(to_wire(inst))
            if len(chunk) == FRAME_INSTRUCTIONS:
                # Emptied before the send, so a failed send is not retried.
                batch, chunk = chunk, []
                send(batch)
    except BaseException:
        # A receiver that has gone must not hide the source's own error.
        with contextlib.suppress(OSError):
            send(chunk)
        raise
    send(chunk)
    sock.sendall(b'{"t": "end"}\n')


def send_trace(
    host: str,
    port: int,
    instructions: Iterable[TraceInstruction],
    model_hint: str = "",
):
    """Connect to a listening analyzer and stream a trace to it."""
    import socket

    with socket.create_connection((host, port)) as sock:
        stream_to_socket(sock, instructions, model_hint)
