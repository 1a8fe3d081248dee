"""Whole-trace analysis: drive a pipeline from a broker, produce a report.

A report captures everything needed to compare two runs later: the model
name, where the trace came from and a digest of its content, the summary
statistics, allocator behavior, and optional per-region accounting.
Reports serialize to JSON so a later diff never needs the trace again.

Region filtering works on instruction addresses.  A region run streams
the broker just as a plain run does, and groups the stream by whether
each instruction lies in a region range; instructions outside every
range are dropped before they reach the pipeline (the digest still covers
them).  Each maximal run of in-region instructions is one visit: it
starts on a drained pipeline and is drained at its end, so visits are
timed independently, and the visit number becomes the timeline iteration
tag.

A visit's timestamps, relative to its first cycle, depend only on the
drained state it starts from and on what the stages read of its
instructions.  So a short visit is read whole and looked up by both
(_memoized): one seen twice is recorded, and each later one is replayed
from that record (Pipeline._record, Pipeline._replay) with the same
retirements, counters and end state, and no cycle run.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections import namedtuple
from itertools import chain, groupby, islice
from operator import attrgetter

from .brokers import BrokerStream
from .engine import Pipeline, PoolStats
from .errors import AnalysisError, ModelError, TraceParseError
from .lsunit import AliasPolicy
from .model import _REQUIRED, MachineModel, _loads, _Table
from .trace import read_int, render_trace
from .views import SummaryStats, TimelineRecorder, summarize


class RegionSpec(namedtuple("RegionSpec", "entries ranges starts")):
    """Address ranges of interest, half-open, merged when overlapping.

    entries are the (start, end, name) triples as given, ranges the
    merged (start, end) pairs in order, and starts their start addresses.
    """

    __slots__ = ()

    @classmethod
    def from_ranges(
        cls, entries: list[tuple[int, int, str | None]]
    ) -> "RegionSpec":
        for start, end, _ in entries:
            _check_range(start, end)
        merged: list[list[int]] = []
        for start, end, _ in sorted(entries):
            if merged and start < merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        ranges = tuple((s, e) for s, e in merged)
        return cls(
            entries=tuple(entries),
            ranges=ranges,
            starts=tuple(s for s, _ in ranges),
        )

    def contains(self, address: int) -> bool:
        idx = bisect_right(self.starts, address) - 1
        return idx >= 0 and address < self.ranges[idx][1]


def _check_range(start: int, end: int, line: int | None = None):
    if start < 0 or end <= start:
        raise TraceParseError(f"bad region range {start:#x}..{end:#x}", line)


def parse_regions(text: str) -> RegionSpec:
    """Parse a region file: 'R <start> <end>' or 'S <symbol> <start> <end>'."""
    entries: list[tuple[int, int, str | None]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if fields[0] == "R" and len(fields) == 3:
            name, bounds = None, fields[1:]
        elif fields[0] == "S" and len(fields) == 4:
            name, bounds = fields[1], fields[2:]
        else:
            raise TraceParseError(f"bad region line: '{body}'", lineno)
        try:
            start, end = read_int(bounds[0]), read_int(bounds[1])
        except ValueError:
            raise TraceParseError(
                f"bad address in region line: '{body}'", lineno
            ) from None
        _check_range(start, end, lineno)
        entries.append((start, end, name))
    if not entries:
        raise TraceParseError("region file declares no ranges")
    return RegionSpec.from_ranges(entries)


RegionStats = namedtuple("RegionStats", "visits instructions cycles per_visit")


class AnalysisReport(namedtuple(
        "AnalysisReport", "model_name source digest alias_policy truncated "
        "summary pool missing_metadata regions")):
    __slots__ = ()

    def to_json(self) -> str:
        doc = {"report_version": 1, **_REPORT.doc(self)}
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        """Read a report, checking that every field has its JSON type."""
        doc = _loads(text, TraceParseError, "report is not valid JSON")
        # True and 1.0 equal 1, but only the integer is version 1.
        version = type(doc) is dict and doc.pop("report_version", None)
        if type(version) is not int or version != 1:
            raise TraceParseError("not an analysis report (missing version)")
        try:
            return _REPORT.read(doc, "report", root=True)
        except ModelError as e:  # the codec's error class, for models too
            raise TraceParseError(f"malformed analysis report: {e}") from None


# A report's JSON objects, read and written by the model's codec.  Every
# field is required, and each key but 'model' names the attribute it
# fills.
def _required(**kinds) -> dict:
    return {key: (key, kind, _REQUIRED) for key, kind in kinds.items()}


_VISIT = _Table("visit", lambda instructions, cycles: (instructions, cycles),
                _required(instructions=int, cycles=int))
_REGIONS = _Table("regions", RegionStats, _required(
    visits=int, instructions=int, cycles=int, per_visit=[_VISIT]))
_SUMMARY = _Table("summary", SummaryStats, _required(
    instructions=int, total_cycles=int, total_uops=int, dispatch_width=int,
    uops_per_cycle=float, ipc=float, block_rthroughput=float))
_POOL = _Table("pool", PoolStats, _required(
    total_allocated=int, total_recycled=int, peak_live=int))
_REPORT = _Table("report", AnalysisReport, {
    "model": ("model_name", str, _REQUIRED), **_required(
        source=str, digest=str, alias_policy=str, truncated=bool,
        summary=_SUMMARY, pool=_POOL, missing_metadata=int,
        regions=(_REGIONS, None))})


class _HashingBroker:
    """Passes batches through while hashing the canonical trace text.

    A batch that carries its canonical text (Batch.text) is hashed as
    read; any other batch is rendered.  Either way the bytes hashed are
    render_trace of the batch's instructions.
    """

    def __init__(self, inner):
        self.inner = inner
        self._sha = hashlib.sha256()

    def fetch_batch(self, max_n: int):
        batch = self.inner.fetch_batch(max_n)
        text = batch.text
        if text is None:
            try:
                text = render_trace(batch.instructions)
            except TraceParseError as e:
                # Only in-memory input can fail: the file and wire
                # inputs refuse what no trace line carries.
                raise AnalysisError(
                    f"an instruction no trace line can carry: {e}") from None
        self._sha.update(text.encode("utf-8"))
        return batch

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def analyze(
    model: MachineModel,
    broker,
    *,
    source: str = "",
    alias_policy: AliasPolicy = AliasPolicy.METADATA,
    regions: RegionSpec | None = None,
    recorder: TimelineRecorder | None = None,
    entry_capacity: int = 256,
) -> AnalysisReport:
    """Run a full analysis over a broker's stream and build the report."""
    hashing = _HashingBroker(broker)
    pipe = Pipeline(model, alias_policy, entry_capacity)
    if recorder is not None:
        recorder.attach(pipe)

    if regions is None:
        truncated = pipe.run_until_starved(hashing)
        region_stats = None
    else:
        truncated, region_stats = _analyze_regions(pipe, hashing, regions)

    return AnalysisReport(
        model_name=model.name,
        source=source,
        digest=hashing.hexdigest(),
        alias_policy=alias_policy.value,
        truncated=truncated,
        summary=summarize(pipe),
        pool=pipe.pool_stats(),
        missing_metadata=pipe.missing_metadata,
        regions=region_stats,
    )


# A region run looks each visit of at most _MEMO_VISIT instructions up
# in a memo of at most _MEMO_SHAPES keys, emptied when full: seen once,
# a visit keeps only its key's hash; seen twice, it is recorded; from
# then on it is replayed.  Full, the memo holds 383 KiB when each of
# its instructions has a memory access and a context of its own, about
# 510 bytes per instruction (test_a_full_memo_holds_under_512_kib).
_MEMO_VISIT = 256
_MEMO_SHAPES = 3
# What the stages read of an instruction: all but its address and seq,
# which they read only to keep the instructions in order.
_shape = attrgetter("class_name", "reads", "writes", "mem", "context")


def _memoized(pipe, memo: dict, head: list) -> bool:
    """Replay or record a visit the memo has seen from the same drained
    state; False if it is for the caller to simulate."""
    key = (pipe._drained_state(), tuple(map(_shape, head)))
    h = hash(key)
    seen = memo.get(h)  # (), or (key, recorded visit)
    if seen is None:
        if len(memo) >= _MEMO_SHAPES:
            memo.clear()
        memo[h] = ()
        return False
    if not seen:
        memo[h] = (key, pipe._record(head))
    elif seen[0] == key:
        pipe._replay(head, seen[1])
    else:  # another key with the same hash
        return False
    return True


def _analyze_regions(pipe, broker, regions):
    stream = BrokerStream(broker, pipe.entry_capacity)
    contains, feed = regions.contains, pipe.feed
    per_visit: list[tuple[int, int]] = []
    memo: dict[int, tuple] = {}
    for inside, visit in groupby(chain.from_iterable(stream),
                                 key=lambda inst: contains(inst.address)):
        if not inside:
            pipe.skip(visit)
            continue
        pipe.iteration = len(per_visit)
        retired, cycles = pipe.instructions_retired, pipe.total_cycles
        # At most _MEMO_VISIT + 1 instructions are read ahead: a region
        # covering the whole program is one visit.
        head: list = []
        try:
            head.extend(islice(visit, _MEMO_VISIT + 1))
        except Exception:
            # What was read before a later chunk failed is fed first, so
            # that its errors win, as when each is fed once read.
            for inst in head:
                feed((inst,))
            raise
        if len(head) > _MEMO_VISIT or not _memoized(pipe, memo, head):
            for inst in chain(head, visit):
                feed((inst,))
            pipe.drain()
        per_visit.append((pipe.instructions_retired - retired,
                          pipe.total_cycles - cycles))
    stats = RegionStats(
        visits=len(per_visit),
        instructions=sum(n for n, _ in per_visit),
        cycles=sum(c for _, c in per_visit),
        per_visit=tuple(per_visit),
    )
    return stream.truncated, stats
