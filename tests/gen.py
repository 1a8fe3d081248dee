"""Builders and randomized generators shared across the test suite.

The random generators deliberately use tiny register and address spaces
so that dependency chains, resource contention, and memory conflicts all
occur constantly, not occasionally.
"""

from __future__ import annotations

import hashlib
import random

from hypothesis import strategies as st

from cycletrace import (
    AccessKind,
    AliasPolicy,
    Batch,
    InstrClass,
    MachineModel,
    MemoryAccess,
    Pipeline,
    RegionSpec,
    ResourceDesc,
    SequenceBroker,
    TimelineRecorder,
    TraceInstruction,
    TruncatedTraceError,
)


def make_model(
    classes,
    *,
    name="m",
    width=2,
    retire=None,
    rob=32,
    lq=16,
    sq=16,
    resources=(),
    tables=None,
) -> MachineModel:
    return MachineModel(
        name=name,
        dispatch_width=width,
        retire_width=width if retire is None else retire,
        reorder_buffer_size=rob,
        load_queue_size=lq,
        store_queue_size=sq,
        resources=tuple(ResourceDesc(n, u) for n, u in resources),
        classes=tuple(classes),
        context_latency_tables=tables or {},
    )


def make_class(
    name,
    latency,
    *,
    uops=1,
    uses=(),
    may_load=False,
    may_store=False,
    is_branch=False,
    context_key=None,
) -> InstrClass:
    return InstrClass(
        name=name,
        latency=latency,
        num_uops=uops,
        resource_usage=tuple(uses),
        may_load=may_load,
        may_store=may_store,
        is_branch=is_branch,
        context_latency_key=context_key,
    )


def ti(
    seq,
    cls,
    *,
    reads=(),
    writes=(),
    loads=(),
    stores=(),
    address=None,
    context=None,
) -> TraceInstruction:
    mem = tuple(
        MemoryAccess(AccessKind.LOAD, a, s) for a, s in loads
    ) + tuple(
        MemoryAccess(AccessKind.STORE, a, s) for a, s in stores
    )
    return TraceInstruction(
        seq_id=seq,
        address=0x400000 + 4 * seq if address is None else address,
        class_name=cls,
        reads=tuple(reads),
        writes=tuple(writes),
        mem=mem,
        context=context,
    )


def simple_model(**overrides) -> MachineModel:
    """Small fixed model most unit tests share."""
    defaults = dict(
        width=2,
        rob=32,
        resources=[("ALU", 1), ("MEM", 1)],
        classes=[
            make_class("add", 1, uses=[("ALU", 1)]),
            make_class("mul", 3, uses=[("ALU", 1)]),
            make_class("load", 4, may_load=True, uses=[("MEM", 1)]),
            make_class("store", 1, may_store=True, uses=[("MEM", 1)]),
            make_class("nop", 1),
        ],
    )
    classes = overrides.pop("classes", defaults.pop("classes"))
    defaults.update(overrides)
    return make_model(classes, **defaults)


def run_trace(pipe, instructions) -> bool:
    """Run a fully materialized instruction sequence through pipe; the
    result is whether the stream was truncated."""
    return pipe.run_until_starved(SequenceBroker(instructions))


def unit_waits(pipe) -> dict:
    """Class name -> its heap of records short of units (_UnitWaits), for
    each class of pipe that claims units."""
    return {name: kind.waiting for name, kind in pipe.classes.items()
            if kind.waiting is not None}


def enqueue(queues, seq, loads=(), stores=()):
    """Enter an entry into MemQueues as dispatch does: a queue slot per
    access, and its accesses pending until it executes."""
    queues.lq_used += len(loads)
    queues.sq_used += len(stores)
    if loads:
        queues.pending_loads[seq] = loads
    if stores:
        queues.pending_stores[seq] = stores


def run_recorded(model, insts, *, policy=AliasPolicy.METADATA):
    """Run a trace to completion; return (pipeline, rows sorted by seq)."""
    pipe = Pipeline(model, policy)
    recorder = TimelineRecorder().attach(pipe)
    assert not run_trace(pipe, insts)
    return pipe, sorted(recorder.rows, key=lambda r: r.seq_id)


class ChunkedBroker:
    """Serves a trace at most k instructions per fetch, as a producer batches.

    With stall set, a stalled batch comes before every batch of
    instructions, as from a producer that pauses between sends.
    """

    def __init__(self, instructions, k, *, stall=False):
        self._inner = SequenceBroker(instructions)
        self.k = k
        self.stall = stall
        self._stalled = False

    def fetch_batch(self, max_n):
        if self.stall and not self._stalled:
            self._stalled = True
            return Batch(stalled=True)
        self._stalled = False
        return self._inner.fetch_batch(min(max_n, self.k))


def cut_short(instructions):
    """Yields the instructions, then fails as a producer cut short does."""
    yield from instructions
    raise TruncatedTraceError("step budget exhausted before halt")


class TimestampDigest:
    """SHA-256 of every retirement's (seq, dispatched, issued, executed,
    retired, iteration), in retirement order.

    Attaches to a pipeline as a TimelineRecorder does, so analyze takes
    it as its recorder.  Each attach starts a new digest, and digests
    holds one per attached pipeline, in attach order.
    """

    def __init__(self):
        self._shas = []

    def attach(self, pipeline) -> "TimestampDigest":
        sha = hashlib.sha256()
        self._shas.append(sha)
        pipeline.retire_sink = lambda rec, iteration: sha.update(
            b"%d %d %d %d %d %d\n" % (
                rec.seq_id, rec.dispatched_at, rec.issued_at,
                rec.executed_at, rec.retired_at, iteration))
        return self

    @property
    def digests(self) -> list[str]:
        return [sha.hexdigest() for sha in self._shas]


def timestamp_digest(model, insts, *, policy=AliasPolicy.METADATA,
                     entry_capacity=256) -> str:
    """Run a trace to completion; return its TimestampDigest."""
    pipe = Pipeline(model, policy, entry_capacity)
    digest = TimestampDigest().attach(pipe)
    assert not run_trace(pipe, insts)
    return digest.digests[0]


def times_of(rows):
    """(dispatched, issued, executed, retired) per row, in seq order."""
    return [
        (r.dispatched_at, r.issued_at, r.executed_at, r.retired_at)
        for r in rows
    ]


# ---------------------------------------------------------------------------
# Randomized models and traces

def random_model(rng: random.Random) -> MachineModel:
    width = rng.choice([1, 2, 2, 4])
    rob = rng.choice([4, 8, 16, 48])
    classes = [
        make_class("alu", rng.randint(1, 3), uses=[("P0", 1)]),
        make_class("slow", rng.randint(3, 6), uses=[("P0", rng.randint(1, 2))]),
        make_class("mul", rng.randint(3, 5), uses=[("P1", rng.randint(1, 3))]),
        make_class("pair", rng.randint(1, 3), uops=2,
                   uses=[("P0", 1), ("P1", 1)]),
        make_class("wide", rng.randint(1, 3), uops=width + rng.randint(1, 5),
                   uses=[("P1", 1)]),
        make_class("ld", rng.randint(2, 5), may_load=True, uses=[("P2", 1)]),
        make_class("st", rng.randint(1, 2), may_store=True, uses=[("P2", 1)]),
        make_class("ctx", 2, uses=[("P0", 1)], context_key="sz"),
        make_class("fence", 1, may_load=True, may_store=True),
        make_class("skip", 1),
    ]
    return make_model(
        classes,
        name=f"fuzz-w{width}",
        width=width,
        retire=rng.choice([1, 2, 4]),
        rob=rob,
        lq=rng.choice([2, 4, 16]),
        sq=rng.choice([2, 4, 16]),
        resources=[
            ("P0", rng.randint(1, 2)),
            ("P1", rng.randint(1, 3)),
            ("P2", 1),
        ],
        tables={"sz": {"1": 1, "2": 2, "4": 4, "8": 8}},
    )


def wide_model(rng: random.Random) -> MachineModel:
    """Big-window models: the regimes random_model never reaches.

    Deep ROBs and memory queues, latencies up to 40, and a memory port
    with several units, with the same class names as random_model so
    random_trace drives both.
    """
    width = rng.choice([2, 4, 4, 6, 8])
    classes = [
        make_class("alu", rng.randint(1, 3), uses=[("P0", 1)]),
        make_class("slow", rng.randint(6, 40),
                   uses=[("P0", rng.randint(1, 4))]),
        make_class("mul", rng.randint(3, 12), uses=[("P1", rng.randint(1, 3))]),
        make_class("pair", rng.randint(1, 4), uops=2,
                   uses=[("P0", 1), ("P1", 1)]),
        make_class("wide", rng.randint(1, 3), uops=width + rng.randint(1, 9),
                   uses=[("P1", 1)]),
        make_class("ld", rng.randint(2, 40), may_load=True, uses=[("P2", 1)]),
        make_class("st", rng.randint(1, 4), may_store=True,
                   uses=[("P2", rng.randint(1, 2))]),
        make_class("ctx", 2, uses=[("P0", 1)], context_key="sz"),
        make_class("fence", 1, may_load=True, may_store=True),
        make_class("skip", 1),
    ]
    return make_model(
        classes,
        name=f"wide-w{width}",
        width=width,
        retire=rng.choice([1, 2, 4, 8]),
        rob=rng.choice([64, 256, 512]),
        lq=rng.choice([16, 32, 64]),
        sq=rng.choice([16, 32, 64]),
        resources=[
            ("P0", rng.randint(1, 3)),
            ("P1", rng.randint(1, 2)),
            ("P2", rng.randint(2, 4)),
        ],
        tables={"sz": {"1": 1, "2": 4, "4": 12, "8": 40}},
    )


CLASS_WEIGHTS = [
    ("alu", 6), ("slow", 2), ("mul", 2), ("pair", 2), ("wide", 1),
    ("ld", 3), ("st", 3), ("ctx", 1), ("fence", 1), ("skip", 2),
]


# Memory-heavy mix: loads and stores pile up in deep queues.
MEMORY_WEIGHTS = [
    ("alu", 3), ("slow", 2), ("mul", 1), ("pair", 1), ("wide", 1),
    ("ld", 8), ("st", 8), ("ctx", 1), ("fence", 1), ("skip", 1),
]


def random_trace(rng: random.Random, n: int,
                 weights=CLASS_WEIGHTS) -> list[TraceInstruction]:
    names = [c for c, w in weights for _ in range(w)]
    out = []
    for seq in range(n):
        cls = rng.choice(names)
        reads = tuple(
            rng.randrange(8) for _ in range(rng.randint(0, 2))
        )
        writes = (rng.randrange(8),) if rng.random() < 0.8 else ()
        loads = []
        stores = []
        if cls == "ld" and rng.random() < 0.9:
            loads.append((0x1000 + 8 * rng.randrange(6), rng.choice([1, 4, 8])))
        if cls == "st" and rng.random() < 0.9:
            stores.append((0x1000 + 8 * rng.randrange(6), rng.choice([1, 4, 8])))
        context = None
        if cls == "ctx":
            context = ("sz", rng.choice(["1", "2", "4", "8"]))
        elif rng.random() < 0.05:
            context = ("hint", "ignored")  # non-matching key: no effect
        out.append(ti(
            seq, cls,
            reads=reads,
            writes=writes,
            loads=loads,
            stores=stores,
            context=context,
        ))
    return out


# In-region instructions of region_trace lie in REGIONS; the filler
# between visits lies past it.
REGIONS = RegionSpec.from_ranges([(0x1000, 0x2000, None)])


def region_trace(rng: random.Random, visits: int, *, shapes=3,
                 length=(1, 40), one_off=0.1,
                 weights=CLASS_WEIGHTS) -> list[TraceInstruction]:
    """A region run's stream: each visit repeats one of a few random
    blocks of instructions, or now and then runs a block of its own, with
    out-of-region filler between visits and gaps in the sequence ids."""
    def block():
        return random_trace(rng, rng.randint(*length), weights)

    blocks = [block() for _ in range(shapes)]
    out: list[TraceInstruction] = []
    seq = 0
    for _ in range(visits):
        for i, inst in enumerate(
                block() if rng.random() < one_off else rng.choice(blocks)):
            seq += rng.choice((1, 1, 1, 5))
            out.append(TraceInstruction(
                seq, 0x1000 + 4 * i, inst.class_name, inst.reads,
                inst.writes, inst.mem, inst.context))
        for _ in range(rng.randint(1, 3)):
            seq += 1
            out.append(ti(seq, "alu", writes=(0,), address=0x8000))
    return out


# ---------------------------------------------------------------------------
# Hypothesis strategy for single instructions whose rendering is canonical

U64 = 1 << 64
# Tokens free of whitespace (str.split's), '#' and '='; no surrogates,
# which a UTF-8 file cannot hold.
_TOKEN = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"),
                  blacklist_characters="#="),
    min_size=1, max_size=4,
)
_ADDRESS = st.sampled_from([0, 1, U64 - 1]) | st.integers(0, U64 - 1)


@st.composite
def _access(draw):
    """(address, size) fitting below 2^64, often right at the top."""
    size = draw(st.integers(1, 64))
    address = draw(st.integers(0, 1 << 20)
                   | st.integers(U64 - (1 << 20), U64 - size))
    return address, size


_REGS = st.lists(st.integers(0, 300), max_size=3)
instructions = st.builds(
    ti,
    st.integers(0, 1 << 40),
    _TOKEN,
    reads=_REGS,
    writes=_REGS,
    loads=st.lists(_access(), max_size=3),
    stores=st.lists(_access(), max_size=3),
    address=_ADDRESS,
    context=st.none() | st.tuples(_TOKEN,
                                  _TOKEN | st.sampled_from(["", "a=b"])),
)
