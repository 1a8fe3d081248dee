"""Pipeline timing oracles.

Every expected number in here was worked out by hand from the stage
semantics (retire, complete, issue, dispatch; issue no earlier than the
cycle after dispatch; an instruction of latency L issued at cycle c
finishes at c+L-1; total cycles = last retirement cycle + 1).
"""

import json
import math
import random

import pytest

import gen
import refsim
from cycletrace import (
    AliasPolicy,
    AnalysisError,
    Batch,
    MemQueues,
    ModelError,
    Pipeline,
    SequenceBroker,
    TimelineRecorder,
    TruncatedTraceError,
    analyze,
)
from gen import make_class, make_model, run_recorded, ti, times_of


def test_single_instruction_lat1(model):
    pipe, rows = run_recorded(model, [ti(0, "add")])
    # dispatch 0, issue 1, execute 1 (single cycle), retire 2
    assert times_of(rows) == [(0, 1, 1, 2)]
    assert pipe.total_cycles == 3


def test_single_instruction_lat4(model):
    pipe, rows = run_recorded(model, [ti(0, "load", loads=[(0x10, 8)])])
    assert times_of(rows) == [(0, 1, 4, 5)]
    assert pipe.total_cycles == 6


def test_executed_minus_issued_equals_latency(model):
    insts = [
        ti(0, "add", writes=[1]),
        ti(1, "mul", reads=[1], writes=[2]),
        ti(2, "load", reads=[2], loads=[(0x10, 8)]),
    ]
    _, rows = run_recorded(model, insts)
    lats = {"add": 1, "mul": 3, "load": 4}
    for row in rows:
        assert row.executed_at - row.issued_at + 1 == lats[row.name]


def test_raw_consumer_issues_when_producer_completes(model):
    insts = [ti(0, "mul", writes=[1]), ti(1, "add", reads=[1], writes=[2])]
    _, rows = run_recorded(model, insts)
    producer, consumer = rows
    # mul: d0 i1 x3; dependent add wakes the cycle the result appears
    assert (producer.issued_at, producer.executed_at) == (1, 3)
    assert consumer.issued_at == producer.executed_at


def test_single_cycle_chain_issues_within_one_cycle():
    # No resource claims, so a lat-1 chain collapses into one issue cycle.
    m = gen.simple_model(width=4)
    insts = [
        ti(0, "nop", writes=[1]),
        ti(1, "nop", reads=[1], writes=[2]),
        ti(2, "nop", reads=[2], writes=[3]),
    ]
    pipe, rows = run_recorded(m, insts)
    assert times_of(rows) == [(0, 1, 1, 2)] * 3
    assert pipe.total_cycles == 3


def test_resource_unit_serializes_issue(model):
    # Two independent adds, one ALU: second waits a cycle for the unit.
    insts = [ti(0, "add", writes=[1]), ti(1, "add", writes=[2])]
    _, rows = run_recorded(model, insts)
    assert times_of(rows) == [(0, 1, 1, 2), (0, 2, 2, 3)]


def test_two_units_issue_together():
    m = gen.simple_model(resources=[("ALU", 2), ("MEM", 1)])
    insts = [ti(0, "add", writes=[1]), ti(1, "add", writes=[2])]
    _, rows = run_recorded(m, insts)
    assert times_of(rows) == [(0, 1, 1, 2), (0, 1, 1, 2)]


def test_occupancy_holds_unit_across_cycles():
    m = gen.make_model(
        [make_class("op", 1, uses=[("P", 3)]), make_class("op2", 1, uses=[("P", 1)])],
        resources=[("P", 1)],
    )
    insts = [ti(0, "op"), ti(1, "op2")]
    _, rows = run_recorded(m, insts)
    # op claims P for cycles 1..3; op2 issues at 4
    assert times_of(rows) == [(0, 1, 1, 2), (0, 4, 4, 5)]


def test_multi_claim_is_atomic():
    # "both" needs P and Q at once; "holdq" keeps Q busy 2 cycles.
    m = gen.make_model(
        [
            make_class("holdq", 1, uses=[("Q", 2)]),
            make_class("both", 1, uses=[("P", 1), ("Q", 1)]),
            make_class("p_only", 1, uses=[("P", 1)]),
        ],
        resources=[("P", 1), ("Q", 1)],
        width=4,
    )
    insts = [ti(0, "holdq"), ti(1, "both"), ti(2, "p_only")]
    _, rows = run_recorded(m, insts)
    # holdq: Q busy 1..2.  both cannot claim at 1 or 2, and its failed
    # attempt must not hold P, so p_only issues at 1.
    assert times_of(rows)[0] == (0, 1, 1, 2)
    assert times_of(rows)[1][1] == 3
    assert times_of(rows)[2][1] == 1


def test_dispatch_budget_counts_uops():
    m = gen.make_model(
        [make_class("two", 1, uops=2), make_class("one", 1)],
        width=4, retire=4,
    )
    insts = [ti(0, "two"), ti(1, "two"), ti(2, "one")]
    _, rows = run_recorded(m, insts)
    dispatched = [t[0] for t in times_of(rows)]
    # 2+2 uops fill the width; the third instruction waits a cycle.
    assert dispatched == [0, 0, 1]


def test_wide_op_monopolizes_dispatch():
    m = gen.make_model(
        [make_class("wide", 1, uops=5), make_class("one", 1)],
        width=2, retire=4,
    )
    insts = [ti(0, "one"), ti(1, "wide"), ti(2, "one")]
    pipe, rows = run_recorded(m, insts)
    t = times_of(rows)
    assert t[0] == (0, 1, 1, 2)
    # 5 uops at width 2: occupies dispatch cycles 1,2,3; timestamps say 3.
    assert t[1][0] == 3
    assert t[1][1] == 4          # issue the cycle after its last slot
    assert t[2][0] == 4          # dispatch resumes after the wide op
    assert pipe.uops_retired == 7


def test_wide_op_needs_fresh_cycle():
    m = gen.make_model(
        [make_class("wide", 1, uops=3), make_class("one", 1)],
        width=2, retire=4,
    )
    # "one" uses a slot at cycle 0, so the wide op starts at cycle 1.
    insts = [ti(0, "one"), ti(1, "wide")]
    _, rows = run_recorded(m, insts)
    assert times_of(rows)[1][0] == 1 + 2 - 1  # cycles 1,2; stamped at 2


def test_rob_capacity_stalls_dispatch():
    m = gen.simple_model(width=2, rob=2)
    insts = [ti(s, "mul", writes=[s]) for s in range(4)]
    _, rows = run_recorded(m, insts)
    dispatched = [t[0] for t in times_of(rows)]
    # ROB of 2: a slot frees only when an older mul retires.
    assert dispatched[0] == 0 and dispatched[1] == 0
    assert dispatched[2] > 1 and dispatched[3] > dispatched[2] - 1
    retired = [t[3] for t in times_of(rows)]
    assert dispatched[2] == retired[0] and dispatched[3] == retired[1]


def test_retire_width_limits_per_cycle():
    m = gen.simple_model(width=4, retire=1,
                         resources=[("ALU", 4), ("MEM", 1)])
    insts = [ti(s, "add", writes=[s]) for s in range(3)]
    _, rows = run_recorded(m, insts)
    assert [t[3] for t in times_of(rows)] == [2, 3, 4]


def test_retirement_is_in_order():
    # Fast op behind a slow one retires with (not before) it.
    m = gen.simple_model(resources=[("ALU", 2), ("MEM", 1)])
    insts = [ti(0, "mul", writes=[1]), ti(1, "add", writes=[2])]
    _, rows = run_recorded(m, insts)
    t = times_of(rows)
    assert t[1][2] < t[0][2]          # add executes first
    assert t[0][3] == t[1][3] == 4    # both retire when mul is done


def _mem_model():
    # Store and load on separate units so blocking effects are purely
    # the disambiguation rules, never a port conflict.
    return make_model(
        [
            make_class("store3", 3, may_store=True, uses=[("STU", 1)]),
            make_class("loadx", 4, may_load=True, uses=[("LDU", 1)]),
        ],
        resources=[("STU", 1), ("LDU", 1)],
    )


def test_store_blocks_aliasing_load():
    insts = [
        ti(0, "store3", stores=[(0x100, 8)]),
        ti(1, "loadx", loads=[(0x104, 4)], writes=[2]),
    ]
    _, rows = run_recorded(_mem_model(), insts)
    t = times_of(rows)
    assert t[0] == (0, 1, 3, 4)
    assert t[1][1] == 3       # admitted the cycle the store's data appears


def test_disjoint_load_ignores_store():
    insts = [
        ti(0, "store3", stores=[(0x100, 8)]),
        ti(1, "loadx", loads=[(0x200, 8)], writes=[2]),
    ]
    _, rows = run_recorded(_mem_model(), insts)
    assert times_of(rows)[1][1] == 1  # issues immediately under METADATA


def test_alias_policy_changes_blocking():
    insts = [
        ti(0, "store3", stores=[(0x100, 8)]),
        ti(1, "loadx", loads=[(0x200, 8)], writes=[2]),
    ]
    _, rows_all = run_recorded(_mem_model(), insts, policy=AliasPolicy.ALL)
    _, rows_none = run_recorded(_mem_model(), insts, policy=AliasPolicy.NONE)
    assert times_of(rows_all)[1][1] == 3   # ALL: disjoint still blocks
    assert times_of(rows_none)[1][1] == 1


def test_missing_metadata_counts_and_blocks():
    insts = [
        ti(0, "store3"),                      # store with no S: metadata
        ti(1, "loadx", loads=[(0x200, 8)], writes=[2]),
    ]
    pipe, rows = run_recorded(_mem_model(), insts)
    assert pipe.missing_metadata == 1
    assert times_of(rows)[1][1] == 3          # sentinel conflicts with all


def test_load_queue_capacity_blocks_dispatch():
    m = gen.simple_model(lq=1)
    insts = [
        ti(0, "load", loads=[(0x0, 8)], writes=[1]),
        ti(1, "load", loads=[(0x100, 8)], writes=[2]),
    ]
    _, rows = run_recorded(m, insts)
    t = times_of(rows)
    # One LQ slot: the second load dispatches when the first retires.
    assert t[0] == (0, 1, 4, 5)
    assert t[1][0] == 5


def test_queue_capacity_counts_a_slot_per_access():
    m = gen.simple_model(lq=2, sq=1, width=4)
    insts = [
        ti(0, "load", loads=[(0x0, 1), (0x8, 1)]),
        ti(1, "store", stores=[(0x100, 1)]),
        ti(2, "load", loads=[(0x200, 1)]),
    ]
    # Two loads fill both LQ slots; the store's queue is apart, and the
    # third load waits until the first retires and frees them.
    assert times_of(run_recorded(m, insts)[1]) == [
        (0, 1, 4, 5), (0, 2, 2, 5), (5, 6, 9, 10)]
    # One SQ slot: the second store waits for the first to retire.
    insts = [ti(0, "store", stores=[(0x0, 1)]),
             ti(1, "store", stores=[(0x100, 1)])]
    assert times_of(run_recorded(m, insts)[1]) == [(0, 1, 1, 2), (2, 3, 3, 4)]


# -- where blocked records wait ----------------------------------------------
#
# A ready record that cannot issue waits on what blocks it: an older LSQ
# entry, its class's busy units, or the end of its dispatch span.  These
# step the pipeline to look at the waiting record, then check every
# timestamp against the reference simulator.

def _stepped(model, insts, cycles):
    pipe = Pipeline(model)
    recorder = TimelineRecorder().attach(pipe)
    pipe.feed(insts)
    for _ in range(cycles):
        pipe.run_cycle()
    return pipe, recorder


def _finish_like_reference(pipe, recorder, model, insts):
    pipe.drain()
    rows = sorted(recorder.rows, key=lambda r: r.seq_id)
    assert (pipe.total_cycles, times_of(rows)) == refsim.simulate(model, insts)
    return times_of(rows)


def _parking_model(store_latency):
    return make_model(
        [
            make_class("slow", 8),
            make_class("st", store_latency, may_store=True, uses=[("STU", 1)]),
            make_class("ld", 4, may_load=True, uses=[("LDU", 1)]),
        ],
        resources=[("STU", 1), ("LDU", 1)],
        width=4,
    )


def test_load_parked_on_store_issues_when_store_completes():
    m = _parking_model(store_latency=3)
    insts = [
        ti(0, "slow", writes=[1]),
        ti(1, "st", reads=[1], stores=[(0x100, 8)]),
        ti(2, "ld", loads=[(0x104, 4)], writes=[2]),
    ]
    pipe, recorder = _stepped(m, insts, 2)
    # Refused at cycle 1, the load waits on the store, not in the ready heap.
    assert [r.seq_id for r in pipe.queues.pending_stores[1].waiters] == [2]
    assert 2 not in gen.seqs(pipe.ready) + gen.seqs(pipe.deferred)
    t = _finish_like_reference(pipe, recorder, m, insts)
    # slow executes at 8, the store issues then and completes at 10.
    assert t[1][1:3] == (8, 10)
    assert t[2][1] == 10


def test_load_behind_single_cycle_store_issues_in_the_same_pass():
    m = _parking_model(store_latency=1)
    insts = [
        ti(0, "slow", writes=[1]),
        ti(1, "st", reads=[1], stores=[(0x100, 8)]),
        ti(2, "ld", loads=[(0x100, 8)], writes=[2]),
    ]
    pipe, recorder = _stepped(m, insts, 2)
    assert [r.seq_id for r in pipe.queues.pending_stores[1].waiters] == [2]
    t = _finish_like_reference(pipe, recorder, m, insts)
    assert t[1][1] == t[1][2] == t[2][1] == 8


# A record counts the distinct producers of its reads that have not
# executed (waiting), and a producer holds the records it releases when
# it executes (waiters).  Both are checked before the drain: a producer
# counted twice would leave its consumer waiting for ever.

def test_a_producer_read_through_two_registers_is_waited_on_once(model):
    insts = [ti(0, "mul", writes=[1, 2]), ti(1, "add", reads=[1, 2])]
    pipe, recorder = _stepped(model, insts, 1)
    producer, consumer = pipe.rob
    assert consumer.waiting == 1
    assert producer.waiters == [consumer]
    t = _finish_like_reference(pipe, recorder, model, insts)
    # The mul's one execution releases the add, which issues that cycle.
    assert t[1][1] == t[0][2] == 3


def test_reads_of_p_q_p_wait_on_each_producer_once(model):
    # P writes r1 and r3, Q writes r2, and the consumer reads r1, r2, r3:
    # P's second read comes after a read of Q, and still counts once.
    insts = [ti(0, "mul", writes=[1, 3]), ti(1, "add", writes=[2]),
             ti(2, "add", reads=[1, 2, 3])]
    pipe, recorder = _stepped(model, insts, 2)
    p, q, consumer = pipe.rob
    assert consumer.waiting == 2
    assert p.waiters == q.waiters == [consumer]
    t = _finish_like_reference(pipe, recorder, model, insts)
    # Q executes at 2 and P at 3, which releases the consumer.
    assert (t[1][2], t[0][2], t[2][1]) == (2, 3, 3)


def test_failed_multi_claim_blocks_its_class_but_frees_the_port():
    # "both" needs P and Q; "holdq" keeps the only Q unit busy 1..3.
    m = make_model(
        [
            make_class("holdq", 1, uses=[("Q", 3)]),
            make_class("both", 1, uses=[("P", 1), ("Q", 1)]),
            make_class("p_only", 1, uses=[("P", 1)]),
        ],
        resources=[("P", 2), ("Q", 1)],
        width=8,
    )
    insts = [ti(0, "holdq"), ti(1, "both"), ti(2, "both"),
             ti(3, "p_only"), ti(4, "p_only")]
    pipe, recorder = _stepped(m, insts, 2)
    # At cycle 1 the first "both" finds Q busy and claims nothing, so P
    # stays free; the second "both" is not tried, and both p_only records
    # take P.
    assert sorted(gen.unit_waits(pipe)["both"]) == [1, 2]
    assert gen.seqs(pipe.ready) == gen.seqs(pipe.deferred) == []
    t = _finish_like_reference(pipe, recorder, m, insts)
    assert [row[1] for row in t] == [1, 4, 5, 1, 1]


def test_record_in_dispatch_span_waits_for_its_last_slot():
    m = make_model([make_class("wide", 1, uops=5)], width=2)
    insts = [ti(0, "wide")]
    pipe, recorder = _stepped(m, insts, 1)
    # Dispatch slots 0, 1 and 2: stamped 2, retried each cycle until 3.
    for _ in range(2):
        pipe.run_cycle()
        assert gen.seqs(pipe.deferred) == [0]
    pipe.run_cycle()
    assert gen.seqs(pipe.deferred) == []
    t = _finish_like_reference(pipe, recorder, m, insts)
    assert t[0][:2] == (2, 3)


def test_latency_bound_chain_takes_the_quiet_path():
    # A serial chain of latency-30 ops: between a completion and the next
    # one no stage can act, so those cycles only advance the clock.
    m = make_model([make_class("slow", 30, uses=[("P", 1)])],
                   resources=[("P", 1)], rob=16)
    insts = [ti(s, "slow", reads=[1], writes=[1]) for s in range(2000)]
    pipe = Pipeline(m)
    recorder = TimelineRecorder().attach(pipe)
    run_cycle = pipe.run_cycle
    quiet = 0

    def observed():
        nonlocal quiet
        quiet += pipe.cycle < pipe._quiet_until
        run_cycle()

    pipe.run_cycle = observed
    assert not gen.run_trace(pipe, insts)
    rows = sorted(recorder.rows, key=lambda r: r.seq_id)
    assert (pipe.total_cycles, times_of(rows)) == refsim.simulate(m, insts)
    assert pipe.total_cycles == 30 + 29 * 1999 + 2
    assert quiet > 0.9 * pipe.total_cycles


def test_independent_stream_total_cycles():
    # n independent single-uop ops, no resource limits:
    # total = floor((n-1)/width) + latency + 2.
    for width, n, lat in [(1, 7, 1), (2, 10, 1), (4, 9, 3)]:
        cls = make_class("op", lat)
        m = make_model([cls], width=width, rob=1000)
        insts = [ti(s, "op") for s in range(n)]
        pipe, _ = run_recorded(m, insts)
        assert pipe.total_cycles == (n - 1) // width + lat + 2


def test_context_latency_override(model):
    ctx_cls = make_class("mulx", 2, uses=[("ALU", 1)], context_key="sz")
    m = gen.simple_model(
        classes=[ctx_cls], resources=[("ALU", 1)], tables={"sz": {"8": 6}}
    )
    _, rows = run_recorded(m, [ti(0, "mulx", context=("sz", "8"))])
    assert times_of(rows) == [(0, 1, 6, 7)]
    # Context under a different key does not select the table.
    _, rows = run_recorded(m, [ti(0, "mulx", context=("mode", "8"))])
    assert times_of(rows) == [(0, 1, 2, 3)]
    # Context values compare as text, so an int selects the table too.
    _, rows = run_recorded(m, [ti(0, "mulx", context=("sz", 8))])
    assert times_of(rows) == [(0, 1, 6, 7)]
    # A class without a context key keeps its static latency.
    plain = gen.simple_model(tables={"sz": {"8": 6}})
    _, rows = run_recorded(plain, [ti(0, "add", context=("sz", "8"))])
    assert times_of(rows) == [(0, 1, 1, 2)]


def test_unknown_context_value_names_instruction():
    ctx_cls = make_class("mulx", 2, context_key="sz")
    m = gen.simple_model(classes=[ctx_cls], tables={"sz": {"8": 6}})
    pipe = Pipeline(m)
    with pytest.raises(AnalysisError, match="instruction 3:.*sz=9"):
        pipe.feed([ti(3, "mulx", context=("sz", "9"))])


def test_feed_rejects_unknown_class(model):
    pipe = Pipeline(model)
    with pytest.raises(AnalysisError, match="unknown class 'frob'"):
        pipe.feed([ti(0, "frob")])


def test_feed_rejects_memory_on_plain_class(model):
    pipe = Pipeline(model)
    with pytest.raises(AnalysisError, match="may not load"):
        pipe.feed([ti(0, "add", loads=[(0x0, 8)])])
    with pytest.raises(AnalysisError, match="may not store"):
        pipe.feed([ti(1, "add", stores=[(0x0, 8)])])


def test_feed_rejects_nonmonotonic_seq(model):
    pipe = Pipeline(model)
    pipe.feed([ti(5, "add")])
    with pytest.raises(AnalysisError, match="not increasing"):
        pipe.feed([ti(5, "add")])


def test_counters_and_summary_inputs(model):
    insts = [ti(0, "add", writes=[1]), ti(1, "mul", reads=[1], writes=[2])]
    pipe, _ = run_recorded(model, insts)
    assert pipe.instructions_retired == 2
    assert pipe.uops_retired == 2
    assert pipe.resource_claimed["ALU"] == 2
    assert pipe.resource_claimed["MEM"] == 0


def test_empty_trace_finishes_at_zero_cycles(model):
    pipe = Pipeline(model)
    assert not gen.run_trace(pipe, [])
    assert pipe.total_cycles == 0


class Retirements:
    """Attaches to a pipeline as a TimelineRecorder does, and keeps the
    pipeline, the kind of every record its retire sink receives and the
    latest retirement cycle (-1 before any)."""

    def __init__(self):
        self.pipe = None
        self.kinds = []
        self.last = -1

    def attach(self, pipe):
        self.pipe = pipe

        def sink(rec, iteration):
            self.kinds.append(rec.kind)
            self.last = max(self.last, rec.retired_at)

        pipe.retire_sink = sink
        return self


def sink_checked_runs(monkeypatch, policy, seed, check):
    """Retirements of an empty run, a random plain run and a random region
    run that replays visits, under policy; check(retirements) runs after
    every drain and every replayed visit."""
    runs, replays = [], []
    drain, replay = Pipeline.drain, Pipeline._replay

    def drained(pipe):
        drain(pipe)
        check(runs[-1])

    def replayed(pipe, *args):
        replay(pipe, *args)
        replays.append(args)
        check(runs[-1])

    monkeypatch.setattr(Pipeline, "drain", drained)
    monkeypatch.setattr(Pipeline, "_replay", replayed)
    rng = random.Random(0xC10C + seed)
    model = gen.random_model(rng)
    for insts in ([], gen.random_trace(rng, 200, gen.MEMORY_WEIGHTS)):
        pipe = Pipeline(model, policy)
        runs.append(Retirements().attach(pipe))
        assert not gen.run_trace(pipe, insts)
    runs.append(Retirements())
    analyze(model, SequenceBroker(gen.region_trace(rng, 40)),
            alias_policy=policy, regions=gen.REGIONS, recorder=runs[-1])
    assert replays
    return runs


@pytest.mark.parametrize("policy", list(AliasPolicy))
@pytest.mark.parametrize("seed", range(2))
def test_the_clock_stands_one_past_the_last_retirement(monkeypatch, policy,
                                                       seed):
    def check(seen):
        assert seen.pipe.total_cycles == seen.last + 1

    runs = sink_checked_runs(monkeypatch, policy, seed, check)
    assert runs[0].pipe.total_cycles == 0


@pytest.mark.parametrize("policy", list(AliasPolicy))
@pytest.mark.parametrize("seed", range(2))
def test_the_counters_sum_what_the_sink_received(monkeypatch, policy, seed):
    def check(seen):
        pipe = seen.pipe
        claimed = dict.fromkeys(pipe.resource_claimed, 0)
        for kind in seen.kinds:
            for rname, occ in kind.cls.resource_usage:
                claimed[rname] += occ
        assert pipe.instructions_retired == len(seen.kinds)
        assert pipe.uops_retired == sum(kind.uops for kind in seen.kinds)
        assert pipe.resource_claimed == claimed

    for seen in sink_checked_runs(monkeypatch, policy, seed, check):
        check(seen)


# -- recycling and bounded state ---------------------------------------------

def test_pool_allocates_only_at_peak(model):
    insts = [ti(s, "add", writes=[s % 8]) for s in range(500)]
    pipe, _ = run_recorded(model, insts)
    stats = pipe.pool_stats()
    assert stats.total_allocated == stats.peak_live
    assert stats.total_recycled == 500
    assert stats.peak_live <= pipe.entry_capacity + model.reorder_buffer_size


def test_a_retired_record_carries_no_wake_up_state():
    # The pool reuses a retired record as it is: it must wait on no
    # producer and hold no waiters, or these would carry over.
    rng = random.Random(0x3A17)
    carried = []

    def check(rec, iteration):
        if rec.waiting or rec.waiters:
            carried.append(rec.seq_id)

    for policy in AliasPolicy:
        pipe = Pipeline(gen.wide_model(rng), policy)
        pipe.retire_sink = check
        insts = gen.random_trace(rng, 3000, gen.MEMORY_WEIGHTS)
        assert not gen.run_trace(pipe, insts)
        assert pipe.pool_stats().total_allocated < len(insts)
    assert carried == []


def test_directly_built_model_is_validated():
    # Two claims on a one-unit resource could never issue; a pipeline that
    # took this model unchecked failed with an IndexError at first issue.
    m = make_model([make_class("pair", 1, uses=[("P", 1), ("P", 1)])],
                   resources=[("P", 1)])
    with pytest.raises(ModelError, match="class 'pair': claims resource 'P'"):
        Pipeline(m)


def test_entry_buffer_below_dispatch_width_is_widened():
    # A buffer below the width would cap dispatch and change the cycles;
    # one dispatch width gives the cycles of any larger buffer.
    model = gen.wide_model(random.Random(0))
    width = model.dispatch_width
    assert width > 1
    for capacity in (0, 1, width - 1):
        assert Pipeline(model, entry_capacity=capacity).entry_capacity == width
    trace = gen.random_trace(random.Random(1), 400)
    cycles = set()
    for capacity in (width, width + 2, 256):
        pipe = Pipeline(model, entry_capacity=capacity)
        assert not gen.run_trace(pipe, trace)
        cycles.add(pipe.total_cycles)
    assert len(cycles) == 1


def test_peak_live_independent_of_trace_length(model):
    def peak(n):
        insts = (ti(s, "mul", reads=[(s - 1) % 4], writes=[s % 4])
                 for s in range(n))
        pipe = Pipeline(model, entry_capacity=32)
        assert not pipe.run_until_starved(SequenceBroker(insts))
        return pipe.pool_stats().peak_live

    assert peak(1_000) == peak(5_000)


# -- streaming control flow ---------------------------------------------------

class ScriptedBroker:
    """Answers its script in order, then ends the stream: a list is a
    batch of instructions, None an empty stalled batch.

    Records each request's size against the pipeline's free entry slots,
    and the cycle and entry buffer length at every stalled answer.  On a
    stalled answer it also checks that nothing staged was dropped: each
    instruction sent so far has retired or waits in the ROB or the entry
    buffer.
    """

    def __init__(self, script, pipe):
        self.script = list(script)
        self.pipe = pipe
        self.sent = 0
        self.requests = []
        self.stalls = []  # (cycle, entry buffer length)

    def fetch_batch(self, max_n):
        pipe = self.pipe
        self.requests.append((max_n, pipe.entry_capacity - len(pipe.entry)))
        if not self.script:
            return Batch(end_of_stream=True)
        step = self.script.pop(0)
        if step is None:
            held = pipe.instructions_retired + len(pipe.rob) + len(pipe.entry)
            assert held == self.sent
            self.stalls.append((pipe.cycle, len(pipe.entry)))
            return Batch(stalled=True)
        assert len(step) <= max_n
        self.sent += len(step)
        return Batch(instructions=tuple(step))


def test_stalled_fetches_run_no_cycle(model):
    pipe = Pipeline(model)
    i0 = ti(0, "add", writes=[1])
    i1 = ti(1, "add", reads=[1], writes=[2])
    broker = ScriptedBroker([None, [i0], None, None, [i1], None], pipe)
    assert not pipe.run_until_starved(broker)
    # A quiet producer pauses the simulation: the driver asks again
    # without running a cycle on the part-filled entry buffer.
    assert [cycle for cycle, _ in broker.stalls] == [0, 0, 0, 0]
    # The run is the unstalled one: I0 d0 i1 x1 r2, I1 d0 i2 x2 r3.
    assert pipe.instructions_retired == 2
    assert pipe.total_cycles == 4


class TruncatingBroker:
    def __init__(self, insts, after):
        self.insts = list(insts)
        self.after = after
        self.sent = 0

    def fetch_batch(self, max_n):
        from cycletrace import Batch

        if self.sent >= self.after:
            raise TruncatedTraceError("producer vanished")
        take = tuple(self.insts[self.sent:self.sent + min(max_n, 4)])
        self.sent += len(take)
        return Batch(instructions=take)


class CountingBroker(SequenceBroker):
    def __init__(self, insts):
        super().__init__(insts)
        self.calls = 0

    def fetch_batch(self, max_n):
        self.calls += 1
        return super().fetch_batch(max_n)


def test_stream_is_fetched_once_per_batch_not_once_per_cycle(model):
    insts = [ti(s, "add", writes=[s % 8]) for s in range(1000)]
    broker = CountingBroker(insts)
    pipe = Pipeline(model, entry_capacity=64)
    assert not pipe.run_until_starved(broker)
    assert pipe.instructions_retired == 1000
    assert pipe.total_cycles > 500  # one ALU: far more cycles than fetches
    assert broker.calls <= math.ceil(1000 / 64) + 2


def test_stalled_fetches_drop_no_staged_instruction(model):
    insts = [ti(s, "add", writes=[s % 4]) for s in range(10)]
    pipe = Pipeline(model, entry_capacity=4)
    recorder = TimelineRecorder().attach(pipe)
    # batches of 4 with a stall after each, then two more stalls
    script = []
    for s in range(0, 10, 4):
        script += [insts[s:s + 4], None]
    broker = ScriptedBroker(script + [None, None], pipe)
    assert not pipe.run_until_starved(broker)
    assert len(broker.stalls) == 5 and not broker.script
    # some batch outgrew the free slots, so part of it waited in staging
    assert any(max_n > free for max_n, free in broker.requests)
    # stalls were answered while a part-filled buffer waited, not drained
    assert any(0 < n < pipe.entry_capacity for _, n in broker.stalls)
    assert pipe.instructions_retired == 10
    _, ref_times = refsim.simulate(model, insts, AliasPolicy.METADATA)
    rows = sorted(recorder.rows, key=lambda r: r.seq_id)
    assert times_of(rows) == ref_times


def test_reports_are_byte_identical_across_batch_sizes():
    # A 64-entry ROB that fills behind a memory-heavy trace: with the entry
    # buffer full before every cycle, peak_live reaches the ROB plus the
    # whole buffer, so a refill that let the buffer run low would show in
    # the pool stats even where cycles stay the same.
    # 512 instructions are two whole batches of the 256 the driver asks
    # for, so SequenceBroker ends that stream with an empty batch.
    rng = random.Random(0)
    model = gen.wide_model(rng)
    assert model.reorder_buffer_size == 64
    for n in (600, 512):
        insts = gen.random_trace(rng, n, gen.MEMORY_WEIGHTS)
        reports = {
            batch: analyze(model, gen.ChunkedBroker(insts, batch)).to_json()
            for batch in (1, 7)
        }
        reports[None] = analyze(model, SequenceBroker(insts)).to_json()
        assert reports[1] == reports[7] == reports[None]
        pool = json.loads(reports[None])["pool"]
        assert pool["peak_live"] == 256 + model.reorder_buffer_size


@pytest.mark.parametrize("seed,factory,weights,small", [
    (1, gen.random_model, gen.CLASS_WEIGHTS, False),
    (2, gen.random_model, gen.MEMORY_WEIGHTS, True),
    (3, gen.wide_model, gen.CLASS_WEIGHTS, False),
    (4, gen.wide_model, gen.MEMORY_WEIGHTS, True),
])
def test_pushing_one_instruction_at_a_time_matches_run_trace(
        seed, factory, weights, small):
    # A region visit is fed one instruction per call, then drained.
    rng = random.Random(seed)
    model = factory(rng)
    capacity = model.dispatch_width if small else 256
    insts = gen.random_trace(rng, 400, weights)

    def run(drive):
        pipe = Pipeline(model, entry_capacity=capacity)
        recorder = TimelineRecorder().attach(pipe)
        drive(pipe)
        return recorder.rows, pipe.total_cycles, pipe.pool_stats()

    def one_at_a_time(pipe):
        for inst in insts:
            pipe.feed((inst,))
        pipe.drain()

    assert run(one_at_a_time) == run(lambda pipe: gen.run_trace(pipe, insts))


@pytest.mark.parametrize("capacity", [4, 256])
def test_one_feed_takes_a_list_longer_than_the_buffer(model, capacity):
    # feed runs the full-buffer cycles itself, so one call takes it all.
    insts = [ti(s, "mul" if s % 3 else "add", reads=[(s + 1) % 4],
                writes=[s % 4]) for s in range(capacity + 44)]

    def run(drive):
        pipe = Pipeline(model, entry_capacity=capacity)
        recorder = TimelineRecorder().attach(pipe)
        drive(pipe)
        return recorder.rows, pipe.total_cycles, pipe.pool_stats()

    def one_feed(pipe):
        assert pipe.feed(insts) == len(insts)
        assert len(pipe.entry) < capacity
        pipe.drain()

    rows, cycles, pool = run(one_feed)
    _, ref_times = refsim.simulate(model, insts, AliasPolicy.METADATA)
    assert times_of(sorted(rows, key=lambda r: r.seq_id)) == ref_times
    assert (rows, cycles, pool) == run(lambda pipe: gen.run_trace(pipe, insts))


def test_truncated_stream_drains_and_flags(model):
    insts = [ti(s, "add", writes=[s % 4]) for s in range(16)]
    pipe = Pipeline(model)
    assert pipe.run_until_starved(TruncatingBroker(insts, after=8))
    assert pipe.instructions_retired == 8
    assert not pipe.has_work()


def test_drain_helper_runs_to_empty(model):
    pipe = Pipeline(model)
    pipe.feed([ti(0, "mul", writes=[1]), ti(1, "mul", reads=[1], writes=[2])])
    pipe.drain()
    assert not pipe.has_work()
    assert pipe.instructions_retired == 2


def test_pipeline_attributes_stay_in_the_shared_key_table():
    # CPython 3.11 shares at most 30 keys between a class's instance
    # dicts; with a 30th attribute every attribute read and write in
    # run_cycle and feed takes a slower path (file_mix ran 2.5% slower).
    assert len(vars(Pipeline(gen.simple_model()))) < 30


# -- what the benchmark's tracer counts --------------------------------------
#
# bench/tracing.py times run_cycle and find_blocker and counts _wake calls
# to derive its per-layer metrics (us per cycle, idle cycles, admit
# ratio), so these calls keep their pattern.  The admission checks are
# pinned per alias policy on a trace with loads, stores, fences and a
# class that claims two resources (pair).

def _calls(monkeypatch, owner, name):
    """Record (arguments after self, result) of each call to a method."""
    calls = []
    method = vars(owner)[name]

    def recorded(self, *args):
        result = method(self, *args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return calls


@pytest.mark.parametrize("policy, checks", [
    (AliasPolicy.ALL, 153), (AliasPolicy.NONE, 118),
    (AliasPolicy.METADATA, 129)])
def test_traced_calls_follow_cycles_executions_and_admission_checks(
        monkeypatch, policy, checks):
    rng = random.Random(7)
    model = gen.random_model(rng)
    insts = gen.random_trace(rng, 200, gen.MEMORY_WEIGHTS)
    memory = [i.seq_id for i in insts if i.class_name in ("ld", "st", "fence")]
    assert {"ld", "st", "pair"} <= {inst.class_name for inst in insts}
    cycles = _calls(monkeypatch, Pipeline, "run_cycle")
    # Records are pooled, so each executed record's seq is read at the call.
    wakes = []
    wake = Pipeline._wake
    monkeypatch.setattr(Pipeline, "_wake", lambda self, rec: (
        wakes.append(rec.seq_id), wake(self, rec)))
    admissions = _calls(monkeypatch, MemQueues, "find_blocker")
    pipe = Pipeline(model, policy)
    assert not gen.run_trace(pipe, insts)

    assert len(cycles) == pipe.cycle == pipe.total_cycles
    assert sorted(wakes) == [i.seq_id for i in insts]
    assert len(admissions) == checks
    # Every memory record is admitted; on this trace, each only once.
    admitted = [seq for (_, seq, _, _), blocker in admissions
                if blocker is None]
    assert sorted(admitted) == memory


# -- timestamp digests --------------------------------------------------------

def test_timestamps_do_not_depend_on_entry_capacity():
    rng = random.Random(0xCA9)
    for maker in (gen.random_model, gen.wide_model) * 2:
        model = maker(rng)
        insts = gen.random_trace(rng, 2000, gen.MEMORY_WEIGHTS)
        digests = {
            gen.timestamp_digest(model, insts, entry_capacity=capacity)
            for capacity in (1, 7, 256, model.dispatch_width)}
        assert len(digests) == 1, model.name


# Every timestamp of 20,000-instruction traces with stores, fences and
# multi-uop classes, pinned: no change to how the stages keep their
# state may move one.  Longer than any trace the reference simulator runs.
_PINNED_DIGESTS = {
    ("random_model", AliasPolicy.ALL):
        "802d28378ed9caf4c96cbb0a145442d1e004745b55cd86edbb021196e19f60a0",
    ("random_model", AliasPolicy.NONE):
        "761709dbacdd894c4bd8c2c8ae1776f158e7a96f478357d152615d7cbd8dcf15",
    ("random_model", AliasPolicy.METADATA):
        "a3c3cd3a5e2b72b5d497184a542692880b9d312553d0c219ebd767294bd75486",
    ("wide_model", AliasPolicy.ALL):
        "fc2471d7044343e06326d2be1b08af28cc75e0261cdb4e0548a3f077c4a30d64",
    ("wide_model", AliasPolicy.NONE):
        "3db99e5e1297c3a7fd92f8e55cf710e13ee0dfde45fc7dc3847f356820dfcfcf",
    ("wide_model", AliasPolicy.METADATA):
        "ad419c517f9b4abdaeaf52f06f1e730defd656049d7d9e40d362c8f9e55e21fd",
}


@pytest.mark.parametrize("maker, policy", list(_PINNED_DIGESTS))
def test_long_trace_timestamps_are_pinned(maker, policy):
    rng = random.Random(20_000)
    model = getattr(gen, maker)(rng)
    insts = gen.random_trace(rng, 20_000, gen.MEMORY_WEIGHTS)
    assert {"pair", "wide", "st"} <= {inst.class_name for inst in insts}
    digest = gen.timestamp_digest(model, insts, policy=policy)
    assert digest == _PINNED_DIGESTS[maker, policy]
