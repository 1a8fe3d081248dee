"""Region runs replay repeated visits: exact against the reference loop.

refsim.analyze_regions is the region loop that simulates every visit,
one instruction per feed.  Each case runs analyze with the package's
loop and with that one, and compares the report bytes, the timestamp
digest and the timeline rows.  Pipeline.feed calls count the visits
that were simulated rather than replayed.
"""

import gc
import random
import tracemalloc

import pytest

import gen
import refsim
from cycletrace import (
    AliasPolicy,
    Pipeline,
    SequenceBroker,
    TimelineRecorder,
    TraceInstruction,
    analysis,
    analyze,
    parse_trace,
    render_trace,
)
from gen import make_class, make_model, ti

POLICIES = list(AliasPolicy)


class Observed:
    """A TimestampDigest and a TimelineRecorder on one pipeline, and every
    field of each record the pipeline retires."""

    def __init__(self):
        self.digest = gen.TimestampDigest()
        self.timeline = TimelineRecorder()
        self.records = []

    def attach(self, pipe):
        self.digest.attach(pipe)
        first = pipe.retire_sink
        self.timeline.attach(pipe)
        second = pipe.retire_sink

        def sink(rec, iteration):
            first(rec, iteration)
            second(rec, iteration)
            fields = {name: getattr(rec, name) for name in rec.__slots__}
            fields.update(kind=rec.kind.cls, iteration=iteration)
            self.records.append(fields)

        pipe.retire_sink = sink
        return self


def observe(monkeypatch, model, stream, policy, reference=False):
    """((report JSON, timestamp digest, timeline rows, retired records),
    feed calls) of a region run over gen.REGIONS; stream() makes the
    instructions."""
    feeds = 0
    feed = Pipeline.feed

    def counted(pipe, instructions):
        nonlocal feeds
        feeds += 1
        return feed(pipe, instructions)

    with monkeypatch.context() as m:
        m.setattr(Pipeline, "feed", counted)
        if reference:
            m.setattr(analysis, "_analyze_regions", refsim.analyze_regions)
        seen = Observed()
        report = analyze(model, SequenceBroker(stream()), alias_policy=policy,
                         regions=gen.REGIONS, recorder=seen)
    return (report.to_json(), seen.digest.digests[0], seen.timeline.rows,
            seen.records), feeds


def check(monkeypatch, model, stream, policy=AliasPolicy.METADATA):
    """Feed calls of the package's loop and of the reference loop, once
    their results are found equal."""
    got, feeds = observe(monkeypatch, model, stream, policy)
    want, reference_feeds = observe(monkeypatch, model, stream, policy,
                                    reference=True)
    assert got == want
    return feeds, reference_feeds


def with_hog(model):
    """model with 'hog', a class whose unit stays busy long after it
    retires, so a visit that ends with one delays the next."""
    return model._replace(classes=model.classes + (
        make_class("hog", 1, uses=[("P0", 9)]),))


HOG_WEIGHTS = gen.CLASS_WEIGHTS + [("hog", 1)]


@pytest.mark.parametrize("make_model_", [gen.random_model, gen.wide_model])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", range(4))
def test_replayed_visits_match_the_reference(monkeypatch, make_model_, policy,
                                             seed):
    # Random blocks with multi-uop spans, contexts, fences and untraced
    # accesses, some ending on a busy unit, repeated with seq gaps.
    rng = random.Random(0x7E5 + seed)
    model = with_hog(make_model_(rng))
    insts = gen.region_trace(rng, 40, weights=HOG_WEIGHTS)
    feeds, reference_feeds = check(monkeypatch, model, lambda: insts, policy)
    assert feeds < reference_feeds  # some visits were replayed


def repeat(blocks, rounds):
    """Each block in turn, rounds times over, as visits with filler."""
    insts, seq = [], 0
    for _ in range(rounds):
        for block in blocks:
            for i, inst in enumerate(block):
                insts.append(TraceInstruction(
                    seq, 0x1000 + 4 * i, inst.class_name, inst.reads,
                    inst.writes, inst.mem, inst.context))
                seq += 1
            insts.append(ti(seq, "nop", address=0x8000))
            seq += 1
    return insts


def test_a_repeated_visit_is_simulated_twice(monkeypatch, model):
    block = [ti(0, "load", writes=[1], loads=[(0x100, 8)]),
             ti(1, "mul", reads=[1], writes=[2]),
             ti(2, "store", reads=[2], stores=[(0x104, 4)]),
             ti(3, "add", reads=[2], writes=[1])]
    insts = repeat([block], 20)
    feeds, reference_feeds = check(monkeypatch, model, lambda: insts)
    # The first visit is seen, the second recorded, the rest replayed.
    assert (feeds, reference_feeds) == (2 * len(block), 20 * len(block))


@pytest.mark.parametrize("order", [
    # 'use' recorded from an idle unit, seen again right after 'hog'
    # left the unit busy: it must be simulated, not replayed.
    "uuhuu",
    # A replayed 'hog' leaves the unit as busy as a simulated one.
    "huhuhuhu",
])
def test_the_drained_state_is_part_of_a_visits_key(monkeypatch, order):
    model = make_model([make_class("hog", 1, uses=[("U", 12)]),
                        make_class("use", 1, uses=[("U", 1)]),
                        make_class("nop", 1)], resources=[("U", 1)])
    blocks = {"u": [ti(0, "use")], "h": [ti(0, "hog")]}
    insts = repeat([blocks[c] for c in order], 2)
    feeds, reference_feeds = check(monkeypatch, model, lambda: insts)
    assert feeds < reference_feeds


def test_more_repeated_shapes_than_the_memo_holds(monkeypatch):
    rng = random.Random(4)
    model = gen.random_model(rng)
    blocks = [gen.random_trace(rng, rng.randint(1, 12))
              for _ in range(analysis._MEMO_SHAPES + 1)]
    for order in (blocks, blocks[:2] + blocks + blocks[:2]):
        insts = repeat(order, 4)
        check(monkeypatch, model, lambda: insts)


def test_visits_whose_keys_share_a_hash(monkeypatch):
    # Every shape hashes alike, so the keys of visits of one length from
    # one drained state share a hash; they still compare by their fields.
    mismatches = 0
    shape = analysis._shape

    class Shape(tuple):
        def __hash__(self):
            return 0

        def __eq__(self, other):
            nonlocal mismatches
            same = tuple.__eq__(self, other)
            mismatches += not same
            return same

    monkeypatch.setattr(analysis, "_shape", lambda inst: Shape(shape(inst)))
    rng = random.Random(9)
    model = gen.random_model(rng)
    blocks = [gen.random_trace(rng, 6) for _ in range(3)]
    insts = repeat(blocks[:1] + blocks + blocks[1:] * 2, 3)
    feeds, reference_feeds = check(monkeypatch, model, lambda: insts)
    assert mismatches  # a lookup met another visit's key
    assert feeds < reference_feeds


@pytest.mark.parametrize("extra,simulated", [(0, 2), (1, 4)])
def test_a_visit_longer_than_the_cap_is_streamed(monkeypatch, extra,
                                                 simulated):
    rng = random.Random(5)
    model = gen.random_model(rng)
    block = gen.random_trace(rng, analysis._MEMO_VISIT + extra)
    insts = repeat([block], 4)
    feeds, reference_feeds = check(monkeypatch, model, lambda: insts)
    assert reference_feeds == 4 * len(block)
    assert feeds == simulated * len(block)


@pytest.mark.parametrize("policy", POLICIES)
def test_a_stream_cut_short_inside_a_visit(monkeypatch, policy):
    rng = random.Random(6)
    model = with_hog(gen.random_model(rng))
    insts = gen.region_trace(rng, 12, shapes=1, length=(20, 30), one_off=0,
                             weights=HOG_WEIGHTS)
    # Every visit has at least 20 instructions, so the last one's middle
    # is in the region.
    cut = len(insts) - 12
    assert gen.REGIONS.contains(insts[cut].address)
    feeds, reference_feeds = check(
        monkeypatch, model, lambda: gen.cut_short(insts[:cut]), policy)
    assert feeds < reference_feeds


def test_a_full_memo_holds_under_512_kib():
    # Each instruction as a trace file reads it, with a memory access and
    # a context of its own: the most a memo holds per instruction, short
    # of instructions with several accesses.
    rng = random.Random(8)
    model = gen.random_model(rng)
    pipe = Pipeline(model)
    memo = {}
    tracemalloc.start()
    try:
        blocks = []
        for shape in range(analysis._MEMO_SHAPES):
            block = []
            for i in range(analysis._MEMO_VISIT):
                access = [(0x100000 + 8 * rng.randrange(1 << 16), 8)]
                load = rng.random() < 0.5
                block.append(ti(
                    len(blocks) * analysis._MEMO_VISIT + i,
                    "ld" if load else "st",
                    reads=[rng.randrange(8), rng.randrange(8)],
                    writes=[rng.randrange(8)],
                    loads=access if load else (),
                    stores=() if load else access,
                    context=("hint", str(rng.randrange(10 ** 6)))))
            blocks.append(parse_trace(render_trace(block)))
        for head in blocks:
            assert not analysis._memoized(pipe, memo, head)  # seen
            assert analysis._memoized(pipe, memo, head)      # recorded
        assert all(memo.values())
        del blocks, block, head
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        memo.clear()
        gc.collect()
        size = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size < 512 * 1024


def test_a_pipeline_keeps_under_30_instance_attributes(monkeypatch):
    # CPython 3.11 shares at most 30 keys between a class's instance
    # dicts; past that every attribute read and write in the stages is
    # slower.  Recording, replaying and the timeline set attributes too.
    pipes, replays = [], []
    replay = Pipeline._replay
    monkeypatch.setattr(Pipeline, "_replay", lambda pipe, *args: (
        replays.append(args), replay(pipe, *args)))

    class Kept(TimelineRecorder):
        def attach(self, pipe):
            pipes.append(pipe)
            return super().attach(pipe)

    rng = random.Random(3)
    model = gen.random_model(rng)
    analyze(model, SequenceBroker(gen.region_trace(rng, 40)),
            regions=gen.REGIONS, recorder=Kept())
    assert replays
    assert len(vars(pipes[0])) < 30
