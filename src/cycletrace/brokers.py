"""Instruction brokers: uniform batched access to a trace source.

A broker exposes one method, fetch_batch(max_n) -> Batch, returning at
most max_n instructions.  The final instructions may arrive together
with end_of_stream; after that the broker keeps answering end_of_stream.
A socket broker can also answer a stalled batch, meaning "nothing yet,
ask again", which is distinct from the stream being over.

The wire protocol is newline-delimited JSON, one frame per line:

    {"t": "hello", "version": 1, "model_hint": "<name>"}
    -> receiver replies {"t": "ok"}
    {"t": "insts", "batch": [<instruction objects>]}   (repeated)
    {"t": "end"}

Sequence ids must increase across the whole stream.  A malformed frame,
a non-monotonic sequence id or a line longer than MAX_FRAME_BYTES (4 MiB)
aborts with ProtocolError; a disconnect before the end frame is reported
as a truncated trace.  The socket broker reads only when it has nothing
left to hand out, so a producer faster than the consumer is held back by
TCP flow control.
"""

from __future__ import annotations

import json
import socket
from typing import Iterable, Iterator

from .errors import ProtocolError, TruncatedTraceError
from .trace import (
    Batch,
    TraceInstruction,
    from_wire,
    iter_trace_lines,
    to_wire,
)

_END_BATCH = Batch(end_of_stream=True)
_STALLED_BATCH = Batch(stalled=True)

# A line still without its newline past this many bytes is refused; a
# 64-instruction frame is a few kilobytes.
MAX_FRAME_BYTES = 4 << 20
_RECV_BYTES = 1 << 16


class SequenceBroker:
    """Serves instructions from any in-memory iterable or generator."""

    def __init__(self, instructions: Iterable[TraceInstruction]):
        self._it: Iterator[TraceInstruction] | None = iter(instructions)
        self._lookahead: TraceInstruction | None = None

    def fetch_batch(self, max_n: int) -> Batch:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        if self._it is None:
            return _END_BATCH
        out = []
        if self._lookahead is not None:
            out.append(self._lookahead)
            self._lookahead = None
        it = self._it
        while len(out) < max_n:
            try:
                out.append(next(it))
            except StopIteration:
                self._it = None
                return Batch(tuple(out), end_of_stream=True)
        # Peek one ahead so the last real batch carries end_of_stream.
        try:
            self._lookahead = next(it)
        except StopIteration:
            self._it = None
            return Batch(tuple(out), end_of_stream=True)
        return Batch(tuple(out))

    def close(self):
        self._it = None
        self._lookahead = None


class FileBroker(SequenceBroker):
    """Streams a trace file lazily, enforcing sequence id monotonicity."""

    def __init__(self, path: str):
        self._fh = open(path, "r", encoding="utf-8")
        super().__init__(iter_trace_lines(self._fh))

    def close(self):
        super().close()
        self._fh.close()


class SocketBroker:
    """Receives a trace stream over a socket, with no thread of its own.

    The constructor reads the hello frame, sets model_hint and replies
    ok before it returns, waiting as long as the socket's own timeout
    allows; if the handshake fails it closes the socket.  fetch_batch
    reads the socket only once every decoded instruction is handed out,
    so at most one frame is decoded ahead and TCP flow control holds back
    a producer that outruns the consumer; each batch comes from one
    frame.  With nothing decoded it waits up to poll_timeout for data,
    then answers a stalled batch and the pipeline pauses.  A line longer
    than MAX_FRAME_BYTES is a ProtocolError.
    """

    def __init__(self, sock: socket.socket, poll_timeout: float = 0.05):
        self._sock = sock
        self.model_hint: str | None = None
        self._buf = bytearray()  # received bytes not yet split into lines
        self._pending: tuple[TraceInstruction, ...] = ()
        self._pos = 0
        self._last_seq = -1
        self._eos = False
        try:
            line = self._next_line()
            if not line:
                raise ProtocolError("no hello frame from the producer")
            hello = self._decode_frame(line, expect="hello")
            version = hello.get("version")
            if version != 1:
                raise ProtocolError(
                    f"unsupported protocol version {version!r}")
            hint = hello.get("model_hint")
            self.model_hint = hint if isinstance(hint, str) else None
            sock.sendall(b'{"t": "ok"}\n')
            sock.settimeout(poll_timeout)
        except BaseException:
            sock.close()
            raise

    # Construction helpers -------------------------------------------------

    @classmethod
    def listen(
        cls,
        port: int,
        host: str = "127.0.0.1",
        poll_timeout: float = 0.05,
        accept_timeout: float | None = None,
    ) -> "SocketBroker":
        """Wait for one producer connection on host:port."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host, port))
            server.listen(1)
            server.settimeout(accept_timeout)
            conn, _ = server.accept()
        finally:
            server.close()
        return cls(conn, poll_timeout)

    @classmethod
    def connect(
        cls, host: str, port: int, poll_timeout: float = 0.05
    ) -> "SocketBroker":
        """Dial a producer that serves the trace stream."""
        sock = socket.create_connection((host, port))
        return cls(sock, poll_timeout)

    # Reading ---------------------------------------------------------------

    def _next_line(self) -> bytes | None:
        """The next line with its newline, or None if the socket timed out.

        Once the producer has closed its end this returns what is left
        without a newline, then b"".
        """
        buf = self._buf
        while True:
            end = buf.find(b"\n") + 1
            if end:
                line = buf[:end]
                del buf[:end]
                return line
            if len(buf) > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame longer than {MAX_FRAME_BYTES} bytes")
            try:
                chunk = self._sock.recv(_RECV_BYTES)
            except (TimeoutError, BlockingIOError):
                return None
            except OSError as e:
                raise TruncatedTraceError(f"stream failed: {e}") from None
            if not chunk:
                line = bytes(buf)
                buf.clear()
                return line
            buf += chunk

    @staticmethod
    def _decode_frame(line: bytes, expect: str | None = None) -> dict:
        try:
            frame = json.loads(line.decode("utf-8"))
        except UnicodeDecodeError:
            raise ProtocolError("bad frame: not UTF-8") from None
        except json.JSONDecodeError as e:
            raise ProtocolError(f"bad frame: {e.msg}") from None
        if not isinstance(frame, dict) or "t" not in frame:
            raise ProtocolError("frame is not an object with a 't' field")
        if expect is not None and frame["t"] != expect:
            raise ProtocolError(
                f"expected '{expect}' frame, got '{frame['t']}'"
            )
        return frame

    # Consumer side ----------------------------------------------------------

    def fetch_batch(self, max_n: int) -> Batch:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        pending, pos = self._pending, self._pos
        while pos == len(pending):
            if self._eos:
                return _END_BATCH
            line = self._next_line()
            if line is None:
                return _STALLED_BATCH
            if not line:
                raise TruncatedTraceError(
                    "producer disconnected before end of stream")
            frame = self._decode_frame(line)
            kind = frame["t"]
            if kind == "end":
                self._eos = True
                continue
            if kind != "insts":
                raise ProtocolError(f"unexpected frame type '{kind}'")
            batch = frame.get("batch")
            if not isinstance(batch, list):
                raise ProtocolError("'insts' frame without a batch list")
            insts = []
            last_seq = self._last_seq
            for obj in batch:
                inst = from_wire(obj)
                if inst.seq_id <= last_seq:
                    raise ProtocolError(
                        f"sequence id {inst.seq_id} not greater "
                        f"than previous {last_seq}"
                    )
                last_seq = inst.seq_id
                insts.append(inst)
            self._last_seq = last_seq
            pending, pos = tuple(insts), 0
        end = min(pos + max_n, len(pending))
        self._pending, self._pos = pending, end
        return Batch(pending[pos:end])

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Producer side

def stream_to_socket(
    sock: socket.socket,
    instructions: Iterable[TraceInstruction],
    model_hint: str = "",
    batch_size: int = 64,
    send_end: bool = True,
):
    """Send a trace over an open socket using the wire protocol.

    With send_end false the connection is closed without an end frame,
    which the receiver reports as a truncated trace.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    hello = {"t": "hello", "version": 1, "model_hint": model_hint}
    sock.sendall((json.dumps(hello) + "\n").encode("utf-8"))
    with sock.makefile("r", encoding="utf-8", newline="\n") as rfile:
        reply = rfile.readline()
    try:
        ok = json.loads(reply) if reply else None
    except json.JSONDecodeError:
        ok = None
    if not isinstance(ok, dict) or ok.get("t") != "ok":
        raise ProtocolError("receiver did not acknowledge the handshake")

    chunk: list[dict] = []
    for inst in instructions:
        chunk.append(to_wire(inst))
        if len(chunk) >= batch_size:
            frame = {"t": "insts", "batch": chunk}
            sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))
            chunk = []
    if chunk:
        frame = {"t": "insts", "batch": chunk}
        sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))
    if send_end:
        sock.sendall(b'{"t": "end"}\n')


def send_trace(
    host: str,
    port: int,
    instructions: Iterable[TraceInstruction],
    model_hint: str = "",
    batch_size: int = 64,
    send_end: bool = True,
):
    """Connect to a listening analyzer and stream a trace to it."""
    with socket.create_connection((host, port)) as sock:
        stream_to_socket(sock, instructions, model_hint, batch_size, send_end)
