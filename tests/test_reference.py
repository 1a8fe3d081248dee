"""Differential check against the naive reference simulator.

Short random traces over random models, compared timestamp-for-timestamp.
The full-scale sweep of small models lives in the acceptance suite; this
keeps a fast version in the regular run so engine regressions fail close
to the edit, and sweeps the big-window regimes the small models miss.
"""

import math
import random
from itertools import accumulate

import pytest

import gen
import refsim
from cycletrace import AliasPolicy, Pipeline
from gen import make_class, make_model


def both(model, insts, policy=AliasPolicy.METADATA):
    ref_total, ref_times = refsim.simulate(model, insts, policy)
    pipe, rows = gen.run_recorded(model, insts, policy=policy)
    return (ref_total, ref_times), (pipe.total_cycles, gen.times_of(rows))


@pytest.mark.parametrize("seed", range(8))
def test_random_traces_match_reference(seed):
    rng = random.Random(0xBEEF00 + seed)
    for _ in range(40):
        model = gen.random_model(rng)
        insts = gen.random_trace(rng, rng.randint(1, 25))
        ref, eng = both(model, insts)
        assert eng == ref


def test_wide_windows_match_reference():
    # Deep ROBs and queues, long latencies and several memory-port units,
    # over a plain and a memory-heavy mix: records stay blocked on memory
    # and on busy units for many cycles in a large window.
    rng = random.Random(0x51DE)
    policies = list(AliasPolicy)
    for case in range(200):
        model = gen.wide_model(rng)
        weights = gen.MEMORY_WEIGHTS if rng.random() < 1 / 3 else gen.CLASS_WEIGHTS
        # Log-uniform lengths keep the slow oracle's share of the run small.
        n = int(math.exp(rng.uniform(math.log(50), math.log(400))))
        insts = gen.random_trace(rng, n, weights)
        ref, eng = both(model, insts, policies[case % len(policies)])
        assert eng == ref, f"case {case}"


def peak_in_flight(times, insts, classes):
    """Most records of classes between dispatch and retirement in one
    cycle; a retirement frees its slot before that cycle's dispatch."""
    events = sorted(e for (d, _, _, r), inst in zip(times, insts)
                    if inst.class_name in classes for e in ((d, 1), (r, -1)))
    return max(accumulate(delta for _, delta in events))


@pytest.mark.parametrize("policy", list(AliasPolicy))
def test_an_aperiodic_rob_512_trace_matches_reference(monkeypatch, policy):
    # A memory-heavy random trace, with no shape that repeats, on a big
    # window with 64-entry memory queues: the load queue fills, and where
    # memory operations may alias a store releases dozens of parked ones.
    # On this mix the queues, not the ROB, bound the records in flight.
    rng = random.Random(0)
    model = gen.wide_model(rng)._replace(
        reorder_buffer_size=512, load_queue_size=64, store_queue_size=64)
    insts = gen.random_trace(rng, 2000, gen.MEMORY_WEIGHTS)
    released = []
    wake = Pipeline._wake
    monkeypatch.setattr(Pipeline, "_wake", lambda self, rec: (
        released.append(len(rec.waiters)), wake(self, rec)))
    ref, eng = both(model, insts, policy)
    assert eng == ref
    assert peak_in_flight(eng[1], insts, ("ld", "fence")) == 64
    assert max(released) > (5 if policy is AliasPolicy.NONE else 40)


def repeat_claim_model(rng):
    """Claims gen's models never make: one resource claimed twice, so two
    of its units must be free at once, and claims on two resources with
    different occupancies."""
    width = rng.choice([1, 2, 4])
    classes = [
        make_class("p2", rng.randint(1, 6),
                   uses=[("P", rng.randint(1, 4)), ("P", rng.randint(1, 4))]),
        make_class("pq", rng.randint(1, 6),
                   uses=[("P", rng.randint(1, 2)), ("Q", rng.randint(3, 7))]),
        make_class("q2", rng.randint(2, 8),
                   uses=[("Q", 1), ("Q", rng.randint(2, 5))]),
        make_class("p", rng.randint(1, 3), uses=[("P", rng.randint(1, 3))]),
        make_class("ld", rng.randint(2, 8), may_load=True,
                   uses=[("Q", 1), ("M", rng.randint(1, 3))]),
        make_class("st", rng.randint(1, 3), may_store=True,
                   uses=[("M", 1), ("M", 2)]),
        make_class("wide", rng.randint(1, 3), uops=width + rng.randint(1, 4),
                   uses=[("P", 2), ("P", 1)]),
        make_class("skip", 1),
    ]
    return make_model(
        classes,
        name=f"claims-w{width}",
        width=width,
        retire=rng.choice([1, 2, 4]),
        rob=rng.choice([8, 32, 128]),
        lq=rng.choice([2, 8]),
        sq=rng.choice([2, 8]),
        resources=[("P", rng.randint(2, 3)), ("Q", rng.randint(2, 3)),
                   ("M", 2)],
    )


REPEAT_CLAIM_WEIGHTS = [
    ("p2", 3), ("pq", 3), ("q2", 2), ("p", 3), ("ld", 3), ("st", 3),
    ("wide", 1), ("skip", 1),
]


def test_repeated_and_mixed_claims_match_reference():
    # A class's next-free cycle is the k-th smallest busy_until + 1 of a
    # resource it claims k times, the latest over its resources; these
    # models make k = 2 and unequal occupancies common.
    rng = random.Random(0x2C1A)
    policies = list(AliasPolicy)
    for case in range(200):
        model = repeat_claim_model(rng)
        insts = gen.random_trace(rng, rng.randint(5, 150),
                                 REPEAT_CLAIM_WEIGHTS)
        ref, eng = both(model, insts, policies[case % len(policies)])
        assert eng == ref, f"case {case}"


def whole_trace_writer(insts, rob, i, reg):
    """refsim.youngest_writer's reference: the writer found by a scan of
    the whole trace older than i, retired or not."""
    for j in range(i - 1, -1, -1):
        if reg in insts[j].writes:
            return j
    return None


@pytest.mark.parametrize("policy", list(AliasPolicy))
def test_the_window_scan_agrees_with_the_whole_trace_scan(monkeypatch,
                                                          policy):
    # Short and long traces on small windows, where writers retire long
    # before their last reader, and on big ones.
    rng = random.Random(0xD1A)
    cases = [(gen.random_model(rng), gen.random_trace(rng, n))
             for n in [rng.randint(1, 25) for _ in range(100)] + [200] * 20]
    cases += [(gen.wide_model(rng),
               gen.random_trace(rng, rng.randint(50, 400), gen.MEMORY_WEIGHTS))
              for _ in range(10)]
    window = [refsim.simulate(model, insts, policy) for model, insts in cases]
    monkeypatch.setattr(refsim, "youngest_writer", whole_trace_writer)
    assert [refsim.simulate(model, insts, policy)
            for model, insts in cases] == window


@pytest.mark.parametrize("shape", ["mix", "big_core_third"])
def test_bench_shaped_traces_match_reference(shape):
    # Every timestamp of a 70,000-instruction mix, and of a third of the
    # big-core trace: the oracle takes three times as long on all of it.
    if shape == "mix":
        model, insts = gen.simple_model(), list(gen.mix_trace(70_000))
    else:
        model, insts = gen.big_core_model(), gen.big_core_trace(50)
    ref, eng = both(model, insts)
    assert eng == ref


def test_reference_matches_under_every_policy(rng):
    for policy in AliasPolicy:
        for _ in range(25):
            model = gen.random_model(rng)
            insts = gen.random_trace(rng, rng.randint(1, 25))
            ref, eng = both(model, insts, policy)
            assert eng == ref, policy


def test_reference_agrees_on_handpicked_shapes(model):
    cases = [
        [gen.ti(0, "add", writes=[1]), gen.ti(1, "add", reads=[1])],
        [gen.ti(0, "mul", writes=[1]), gen.ti(1, "mul", reads=[1], writes=[1])],
        [
            gen.ti(0, "store", stores=[(0x10, 8)]),
            gen.ti(1, "load", loads=[(0x14, 2)], writes=[3]),
            gen.ti(2, "store", stores=[(0x14, 1)], reads=[3]),
        ],
        [gen.ti(s, "nop") for s in range(9)],
    ]
    for insts in cases:
        ref, eng = both(model, insts)
        assert eng == ref
