"""Differential check against the naive reference simulator.

Short random traces over random models, compared timestamp-for-timestamp.
The full-scale sweep of small models lives in the acceptance suite; this
keeps a fast version in the regular run so engine regressions fail close
to the edit, and sweeps the big-window regimes the small models miss.
"""

import math
import random

import pytest

import gen
import refsim
from cycletrace import AliasPolicy


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
