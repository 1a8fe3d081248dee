"""Trace brokers: sequence, file, and the socket wire protocol."""

import gc
import json
import socket
import threading
import time
import warnings

import pytest

import gen
from cycletrace import (
    Batch,
    FileBroker,
    Pipeline,
    ProtocolError,
    SequenceBroker,
    SocketBroker,
    TraceParseError,
    TruncatedTraceError,
    brokers,
    from_wire,
    render_trace,
    send_trace,
    stream_to_socket,
)
from cycletrace.brokers import MAX_FRAME_BYTES
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


# -- SocketBroker -------------------------------------------------------------

HELLO = b'{"t": "hello", "version": 1}\n'


def loopback_sockets():
    """A connected (producer_sock, consumer_sock) pair on the loopback."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    client = socket.create_connection(("127.0.0.1", port))
    conn, _ = server.accept()
    server.close()
    return client, conn


def loopback_pair():
    """A (producer_sock, broker) pair that has completed the handshake.

    The broker's constructor waits for the hello, so the producer sends
    it before the broker is built and reads the ok reply after.
    """
    producer, conn = loopback_sockets()
    producer.sendall(HELLO)
    broker = SocketBroker(conn, poll_timeout=0.01)
    assert producer.recv(64) == b'{"t": "ok"}\n'
    return producer, broker


def streaming_pair(produce):
    """(producer_sock, broker, thread) with produce(producer_sock) running
    on a thread started before the broker is built."""
    producer, conn = loopback_sockets()
    thread = threading.Thread(target=produce, args=(producer,))
    thread.start()
    return producer, SocketBroker(conn, poll_timeout=0.01), thread


def test_socket_round_trip():
    insts = [ti(s, "add", writes=[s % 3]) for s in range(20)]
    producer, broker, t = streaming_pair(lambda sock: stream_to_socket(
        sock, insts, model_hint="m1", batch_size=6))
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
    # The broker decodes a frame only once it has handed out the last
    # one, so the rest of the stream waits in the socket buffers and the
    # producer blocks in sendall until the consumer catches up.
    n = 100_000

    def inst(s):
        return ti(s, "add", writes=[s % 4])

    decoded = 0

    def counted_from_wire(obj):
        nonlocal decoded
        decoded += 1
        return from_wire(obj)

    monkeypatch.setattr(brokers, "from_wire", counted_from_wire)
    producer, broker, sender = streaming_pair(lambda sock: stream_to_socket(
        sock, (inst(s) for s in range(n))))
    try:
        batch = broker.fetch_batch(8)
        while batch.stalled:
            batch = broker.fetch_batch(8)
        assert batch.instructions == tuple(inst(s) for s in range(8))
        time.sleep(0.5)
        assert decoded <= 64  # one frame of stream_to_socket's default
        assert sender.is_alive()

        expected = 8
        while not batch.end_of_stream:
            batch = broker.fetch_batch(64)
            for got in batch.instructions:
                assert got == inst(expected)
                expected += 1
        assert expected == n
        sender.join(10)
        assert not sender.is_alive()
    finally:
        producer.close()
        broker.close()


def test_socket_refuses_a_line_longer_than_the_frame_cap():
    def produce(sock):
        stream_to_socket(sock, [], send_end=False)
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
    insts = [ti(s, "add") for s in range(10)]

    def produce(sock):
        stream_to_socket(sock, insts, send_end=False)
        sock.close()  # vanish without the end frame

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
    assert got == insts  # everything sent before the cut is delivered


def test_socket_stalls_while_producer_quiet():
    producer, broker = loopback_pair()
    batch = broker.fetch_batch(8)
    assert batch.stalled and not batch.instructions
    producer.close()
    broker.close()


@pytest.mark.parametrize("first_frame,match", [
    (b'{"t": "insts", "batch": []}', "hello"),
    (b'{"t": "hello", "version": 2}', "version"),
    (b"not json at all", "frame"),
    (b'{"no_t": 1}', "frame"),
    (b'{"t": "hello", "version": 1, "model_hint": "\xff"}', "UTF-8"),
])
def test_socket_bad_handshake(first_frame, match):
    producer, conn = loopback_sockets()
    with producer:
        producer.sendall(first_frame + b"\n")
        with pytest.raises(ProtocolError, match=match):
            SocketBroker(conn)
    assert conn.fileno() == -1  # the constructor closed it


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
    producer, broker = loopback_pair()
    pipe = Pipeline(model)
    try:
        frame = {"t": "insts", "batch": [
            {"seq": 0, "addr": 0, "class": "add", "writes": [1]},
        ]}
        producer.sendall((json.dumps(frame) + "\n").encode())
        # While the producer is quiet nothing is simulated, whether or not
        # its first frame has landed yet.
        outcome = pipe.run_until_starved(broker)
        assert not outcome.finished
        assert pipe.cycle == 0
        assert pipe.instructions_retired == 0

        producer.sendall(b'{"t": "end"}\n')
        outcome = gen.run_to_end(pipe, broker)
        assert not outcome.truncated
        assert pipe.instructions_retired == 1
    finally:
        producer.close()
        broker.close()
