"""Socket producer: replays pre-encoded wire frames as fast as TCP takes them.

Usage: python3 producer.py FRAMES_FILE PORT

Reads the whole frame file first, prints 'ready', then dials
127.0.0.1:PORT until the analyzer listens, sends the hello frame, waits
for the analyzer's reply and sends every remaining frame in one stream.
Exits 0 once everything is sent, 1 on any failure.
"""

from __future__ import annotations

import json
import socket
import sys
import time

CONNECT_TIMEOUT_S = 60


def main(argv) -> int:
    path, port = argv[1], int(argv[2])
    with open(path, "rb") as f:
        hello = f.readline()
        rest = f.read()
    print("ready", flush=True)

    deadline = time.monotonic() + CONNECT_TIMEOUT_S
    while True:
        try:
            sock = socket.create_connection(("127.0.0.1", port))
            break
        except ConnectionRefusedError:
            if time.monotonic() > deadline:
                print("producer: analyzer never listened", file=sys.stderr)
                return 1
            time.sleep(0.001)
    with sock:
        sock.sendall(hello)
        reply = sock.makefile("rb").readline()
        try:
            ok = json.loads(reply).get("t") == "ok"
        except (ValueError, AttributeError):
            ok = False
        if not ok:
            print(f"producer: bad handshake reply {reply!r}", file=sys.stderr)
            return 1
        sock.sendall(rest)
        sock.shutdown(socket.SHUT_WR)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
