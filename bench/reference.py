"""A fixed piece of interpreter work that measures the host's speed.

The benchmark runs on shared hosts whose speed drifts by up to 1.5x
within minutes, which swamps any change to cycletrace in raw host time.
Each analyzer process runs reference_work() just before it opens the
broker and just after its analysis.  run.py scales each run's host
times by NOMINAL_S over the mean of the two reference times, so the
reported times are those of a host that runs the reference in NOMINAL_S
seconds.

The work mixes the two kinds of interpreter work cycletrace does, object
scheduling and text parsing, because the host's slow spells do not slow
every kind of work alike.  It imports nothing from cycletrace and keeps
a working set well under the analyzer's own peak memory; the collector
is off while it runs, so the analysis's heap does not change its cost.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import time

# About what reference_work() takes on a 2-vCPU Xeon VM under Python 3.11.
NOMINAL_S = 0.22
SCHEDULE_STEPS = 50_000
PARSE_STEPS = 30_000
WINDOW = 256


class _Record:
    __slots__ = ("seq", "ready", "deps")

    def __init__(self, seq, ready, deps):
        self.seq = seq
        self.ready = ready
        self.deps = deps


def _schedule(steps: int) -> int:
    # A toy scheduler: objects, dict window, dependence lists, a heap.
    window = {}
    heap = []
    total = 0
    for i in range(steps):
        deps = [window[i - k].ready for k in (1, 3, 17) if i - k in window]
        record = _Record(i, max(deps, default=0) + (i % 7), deps)
        window[i] = record
        heapq.heappush(heap, (record.ready + (i & 15), i))
        if i >= WINDOW:
            del window[i - WINDOW]
        while len(heap) > WINDOW:
            total += heapq.heappop(heap)[1] & 3
    return total


def _parse(steps: int) -> int:
    # Trace-like text: format, split, parse integers, hash.
    digest = hashlib.sha256()
    total = 0
    for i in range(steps):
        line = (f"{i} 0x{0x400000 + 4 * i:x} add r{i % 31} r{i * 7 % 31} "
                f"m:0x{8 * i:x}:8")
        fields = line.split()
        _, address, size = fields[5].split(":")
        total += (int(fields[0]) + int(fields[1], 16) + int(address, 16)
                  + int(size) + sum(int(r[1:]) for r in fields[3:5]))
        digest.update(line.encode())
    return total


def reference_work() -> float:
    """Host seconds the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _schedule(SCHEDULE_STEPS)
        _parse(PARSE_STEPS)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
