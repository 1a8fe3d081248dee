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

Sequence ids must increase across the whole stream.  A malformed frame
or a non-monotonic sequence id aborts with ProtocolError; a disconnect
before the end frame is reported as a truncated trace.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
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
    """Receives a trace stream over a socket.

    A background thread owns the socket: it completes the handshake,
    validates frames, and hands instruction lists to the consumer through
    an ordered queue.  fetch_batch never blocks longer than poll_timeout;
    with nothing buffered and the stream still open it answers a stalled
    batch, and the pipeline pauses until the producer sends more.
    """

    def __init__(self, sock: socket.socket, poll_timeout: float = 0.05):
        self._sock = sock
        self.poll_timeout = poll_timeout
        self.model_hint: str | None = None
        self._queue: queue.Queue = queue.Queue()
        self._pending: list[TraceInstruction] = []
        self._pending_pos = 0
        self._eos = False
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._receive, daemon=True)
        self._thread.start()

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

    # Receiver thread -------------------------------------------------------

    def _receive(self):
        q = self._queue
        try:
            with self._sock.makefile("r", encoding="utf-8",
                                     newline="\n") as rfile:
                line = rfile.readline()
                hello = self._decode_frame(line, expect="hello")
                version = hello.get("version")
                if version != 1:
                    raise ProtocolError(
                        f"unsupported protocol version {version!r}")
                hint = hello.get("model_hint")
                self.model_hint = hint if isinstance(hint, str) else None
                self._sock.sendall(b'{"t": "ok"}\n')

                last_seq = -1
                while True:
                    line = rfile.readline()
                    if not line:
                        raise TruncatedTraceError(
                            "producer disconnected before end of stream"
                        )
                    frame = self._decode_frame(line)
                    kind = frame["t"]
                    if kind == "insts":
                        batch = frame.get("batch")
                        if not isinstance(batch, list):
                            raise ProtocolError(
                                "'insts' frame without a batch list")
                        insts = []
                        for obj in batch:
                            inst = from_wire(obj)
                            if inst.seq_id <= last_seq:
                                raise ProtocolError(
                                    f"sequence id {inst.seq_id} not greater "
                                    f"than previous {last_seq}"
                                )
                            last_seq = inst.seq_id
                            insts.append(inst)
                        if insts:
                            q.put(("insts", insts))
                    elif kind == "end":
                        q.put(("end", None))
                        return
                    else:
                        raise ProtocolError(f"unexpected frame type '{kind}'")
        except (ProtocolError, TruncatedTraceError) as e:
            q.put(("error", e))
        except OSError as e:
            q.put(("error", TruncatedTraceError(f"stream failed: {e}")))
        finally:
            try:
                self._sock.close()
            except OSError:
                pass

    @staticmethod
    def _decode_frame(line: str, expect: str | None = None) -> dict:
        if not line:
            raise ProtocolError("connection closed before handshake")
        try:
            frame = json.loads(line)
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

    def _drain_queue(self, block: bool):
        q = self._queue
        first = block
        while not self._eos and self._error is None:
            try:
                kind, payload = q.get(timeout=self.poll_timeout) if first \
                    else q.get_nowait()
            except queue.Empty:
                return
            first = False
            if kind == "insts":
                self._pending.extend(payload)
            elif kind == "end":
                self._eos = True
            else:
                self._error = payload

    def fetch_batch(self, max_n: int) -> Batch:
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        pending = self._pending
        pos = self._pending_pos
        have = len(pending) - pos
        if have < max_n:
            self._drain_queue(block=(have == 0))
            have = len(pending) - pos
        if have:
            take = min(have, max_n)
            out = tuple(pending[pos:pos + take])
            pos += take
            if pos >= len(pending):
                pending.clear()
                pos = 0
            self._pending_pos = pos
            exhausted = pos == 0 and not pending
            return Batch(out, end_of_stream=self._eos and exhausted)
        if self._error is not None:
            raise self._error
        if self._eos:
            return _END_BATCH
        return _STALLED_BATCH

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
