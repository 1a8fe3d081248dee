"""The benchmark's own tests, at tiny input sizes.

Run from the repository root: python3 -m pytest bench
"""

import json
import os
import shutil

import pytest

import reference
import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    CONTRACT = json.load(f)


def declared(kind):
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_lists_every_workload_and_metric():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == run.LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("seed", [run.DEFAULT_SEED, 7])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_correctly_and_emits_every_metric(workload, seed, trace):
    result = run.run_workload(workload, seed, 0, trace, size="tiny")
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_TIMED_RUNS
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for name in ("instr_per_s", "setup_s", "peak_rss_kib"):
        if name in result["metrics"]:
            assert result["metrics"][name]["value"] > 0


@pytest.fixture
def tiny_spec():
    workdir = os.path.join(run.WORK, f"test-{os.getpid()}")

    def make(workload, seed=run.DEFAULT_SEED):
        return workloads.prepare(workload, seed, "tiny",
                                 os.path.join(workdir, f"{workload}-{seed}"))
    yield make
    shutil.rmtree(workdir, ignore_errors=True)


@pytest.mark.parametrize("workload", ["file_mix", "big_core", "socket_mix"])
def test_one_run_cycle_call_per_simulated_cycle(tiny_spec, workload):
    result = run.analyze_once(tiny_spec(workload), traced=True)
    layers = result["layers"]
    assert set(layers) | {"bench.trace_overhead"} == set(run.LAYER_UNITS)
    assert layers["engine.run_cycle_calls"] == result["cycles"]
    assert layers["brokers.fetch_calls"] > 0
    assert layers["engine.feed_calls"] > 0


def test_region_run_feeds_one_instruction_at_a_time(tiny_spec):
    result = run.analyze_once(tiny_spec("toy_regions"), traced=True)
    layers = result["layers"]
    assert layers["engine.instr_per_feed"] == 1
    assert layers["lsunit.find_blocker_calls"] > 0
    assert layers["views.render_s"] > 0


def test_corrupted_expected_cycles_fail_every_run():
    expected = dict(run.load_expected("tiny")["file_mix"])
    expected["cycles"] += 1
    result = run.run_workload("file_mix", 7, 0, False, size="tiny",
                              expected=expected)
    assert not result["correct"]
    assert result["attempted"] >= run.MIN_TIMED_RUNS
    assert result["failed"] == result["attempted"]


def test_report_sha_is_checked_on_the_default_seed_only(tiny_spec):
    spec = tiny_spec("file_mix")
    result = run.analyze_once(spec)
    expected = dict(run.load_expected("tiny")["file_mix"], sha256="0" * 64)
    assert run.check_run(result, spec, expected, run.DEFAULT_SEED, None)
    assert not run.check_run(result, spec, expected, 7, None)
    assert run.check_run(result, spec, expected, 7, "1" * 64)


def test_seed_changes_inputs_but_not_simulated_results(tiny_spec):
    a = run.analyze_once(tiny_spec("big_core", 3))
    b = run.analyze_once(tiny_spec("big_core", 4))
    assert (a["cycles"], a["ipc"]) == (b["cycles"], b["ipc"])
    assert a["sha256"] != b["sha256"]


def test_host_times_are_scaled_to_reference_speed(tiny_spec):
    result = run.analyze_once(tiny_spec("file_mix"))
    assert result["ref_s"] > 0
    slow_host = {"ref_s": 2 * reference.NOMINAL_S}
    assert run.reference_seconds(slow_host, 3.0) == 1.5
