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
    render_trace,
    send_trace,
    stream_to_socket,
)
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
    got = drain_broker(FileBroker(str(path)), 4)
    assert got == insts


def test_file_broker_reports_bad_line(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("I 0 0x0 add R:- W:-\nI 1 0x4 add R:-\n")
    broker = FileBroker(str(path))
    with pytest.raises(TraceParseError, match="line 2"):
        drain_broker(broker)


def test_file_broker_rejects_seq_regression(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("I 4 0x0 add R:- W:-\n# gap\nI 2 0x4 add R:- W:-\n")
    with pytest.raises(TraceParseError,
                       match="^line 3: sequence id 2 not greater than "
                             "previous 4$"):
        drain_broker(FileBroker(str(path)))


# -- SocketBroker -------------------------------------------------------------

def loopback_pair():
    """A connected (producer_sock, broker) pair on the loopback."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    client = socket.create_connection(("127.0.0.1", port))
    conn, _ = server.accept()
    server.close()
    return client, SocketBroker(conn, poll_timeout=0.01)


def test_socket_round_trip():
    insts = [ti(s, "add", writes=[s % 3]) for s in range(20)]
    producer, broker = loopback_pair()
    t = threading.Thread(
        target=stream_to_socket, args=(producer, insts),
        kwargs={"model_hint": "m1", "batch_size": 6},
    )
    t.start()
    got = drain_broker(broker, 8)
    t.join(5)
    producer.close()
    broker.close()
    assert got == insts
    assert broker.model_hint == "m1"


def test_socket_ends_leave_no_unclosed_socket():
    # Both ends read lines through a file over the socket; closing it with
    # the socket matters most on an error, whose traceback the broker
    # keeps in a reference cycle until garbage collection.
    insts = [ti(s, "add", writes=[s % 3]) for s in range(20)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        producer, broker = loopback_pair()
        sender = threading.Thread(target=stream_to_socket,
                                  args=(producer, insts))
        sender.start()
        assert drain_broker(broker) == insts
        sender.join(5)
        broker._thread.join(5)
        assert not sender.is_alive() and not broker._thread.is_alive()
        producer.close()
        broker.close()

        producer, broker = loopback_pair()
        producer.sendall(b"not json at all\n")
        with pytest.raises(ProtocolError):
            drain_broker(broker)
        broker._thread.join(5)
        assert not broker._thread.is_alive()
        producer.close()
        broker.close()
        del producer, broker, sender
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning)]
    assert leaks == []


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
    producer, broker = loopback_pair()

    def produce():
        stream_to_socket(producer, insts, send_end=False)
        producer.close()  # vanish without the end frame

    t = threading.Thread(target=produce)
    t.start()
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
    hello = {"t": "hello", "version": 1, "model_hint": ""}
    producer.sendall((json.dumps(hello) + "\n").encode())
    producer.recv(64)  # the ok frame
    batch = broker.fetch_batch(8)
    assert batch.stalled and not batch.instructions
    producer.close()
    broker.close()


@pytest.mark.parametrize("first_frame,match", [
    ('{"t": "insts", "batch": []}', "hello"),
    ('{"t": "hello", "version": 2}', "version"),
    ("not json at all", "frame"),
    ('{"no_t": 1}', "frame"),
])
def test_socket_bad_handshake(first_frame, match):
    producer, broker = loopback_pair()
    producer.sendall((first_frame + "\n").encode())
    with pytest.raises(ProtocolError, match=match):
        drain_broker(broker)
    producer.close()
    broker.close()


def test_socket_rejects_seq_regression():
    producer, broker = loopback_pair()
    producer.sendall(b'{"t": "hello", "version": 1}\n')
    producer.recv(64)
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

    def produce_first():
        hello = {"t": "hello", "version": 1, "model_hint": ""}
        producer.sendall((json.dumps(hello) + "\n").encode())
        producer.recv(64)
        frame = {"t": "insts", "batch": [
            {"seq": 0, "addr": 0, "class": "add", "writes": [1]},
        ]}
        producer.sendall((json.dumps(frame) + "\n").encode())

    produce_first()
    try:
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
