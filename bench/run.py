"""cycletrace benchmark: host time of the whole analyze path, layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--profile]

Workloads: file_mix, big_core, socket_mix, toy_regions (see README.md in
this directory).  Inputs are generated from the seed, then analyzed by
fresh processes (analyzer.py) importing cycletrace from ./src, one
process per timed run, until S seconds of runs are spent.

--trace 0 prints the end-to-end metrics: instr_per_s, setup_s and
peak_rss_kib, each the median over the timed runs.  Host times are scaled
to a host of reference speed, measured in each run (see reference.py),
so that the shared host's drifting speed does not show.  --trace 1 spends
half the time on timed runs, then makes one instrumented run and prints
the per-layer metrics with bench.trace_overhead.  --profile adds one
cProfile run and prints its tottime table to stderr; it is never a
timed run.  Every run's results are checked (see check_run); the last
stdout line is one JSON object with correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

import reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(BENCH, "expected.json")

WORKLOADS = ("file_mix", "big_core", "socket_mix", "toy_regions")
DEFAULT_SEED = 1
MIN_TIMED_RUNS = 3
RUN_TIMEOUT_S = 120

END_TO_END_UNITS = {"instr_per_s": "1/s", "setup_s": "s",
                    "peak_rss_kib": "KiB"}
LAYER_UNITS = {
    "trace.parse_s": "s", "trace.parse_calls": "count",
    "trace.wire_decode_s": "s", "trace.wire_decode_calls": "count",
    "brokers.fetch_s": "s", "brokers.fetch_calls": "count",
    "brokers.instr_per_fetch": "instr/call",
    "brokers.stalled_fetch_ratio": "ratio",
    "brokers.backlog_peak": "instr",
    "brokers.handshake_s": "s", "model.load_s": "s",
    "analysis.digest_s": "s", "analysis.report_json_s": "s",
    "analysis.drive_s": "s", "engine.drive_s": "s",
    "engine.feed_s": "s", "engine.feed_calls": "count",
    "engine.instr_per_feed": "instr/call",
    "engine.run_cycle_s": "s", "engine.run_cycle_calls": "count",
    "engine.us_per_cycle": "us",
    "engine.idle_cycle_ratio": "ratio",
    "engine.deferred_per_cycle": "records",
    "engine.rob_occupancy_mean": "records",
    "lsunit.find_blocker_s": "s", "lsunit.find_blocker_calls": "count",
    "lsunit.admit_ratio": "ratio", "lsunit.find_blocker_share": "ratio",
    "views.retire_sink_s": "s", "views.render_s": "s",
    "bench.trace_overhead": "ratio",
}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _stop(proc: subprocess.Popen):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _pinned(which: int):
    """A preexec_fn that pins the child to one of this process's CPUs:
    which=0 the first, which=-1 the last.

    Each analyzer process (all its threads) runs on the first CPU, the
    socket producer on the last.  Left to float over a shared host's
    CPUs, the GIL handoff between the socket receiver thread and the
    engine flips with the host's load between a receive backlog of about
    6k and about 35k instructions, and peak memory flips with it.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = sorted(os.sched_getaffinity(0))[which]
    return lambda: os.sched_setaffinity(0, {cpu})


def analyze_once(spec: dict, **flags) -> dict:
    """Run analyzer.py once in a fresh process; returns its result line.

    Raises RuntimeError when the process fails, times out or its socket
    producer fails.
    """
    spec = dict(spec, src=SRC, **flags)
    producer = None
    try:
        if spec["broker"] == "socket":
            spec["port"] = _free_port()
            producer = subprocess.Popen(
                [sys.executable, "-S", os.path.join(BENCH, "producer.py"),
                 spec["frames"], str(spec["port"])],
                stdout=subprocess.PIPE, text=True, preexec_fn=_pinned(-1))
            if producer.stdout.readline().strip() != "ready":
                raise RuntimeError("socket producer did not start")
        spec["spawned_at"] = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, "-S", os.path.join(BENCH, "analyzer.py"),
                 json.dumps(spec)],
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                preexec_fn=_pinned(0))
        except subprocess.TimeoutExpired:
            raise RuntimeError("analyzer timed out") from None
        if done.returncode != 0:
            raise RuntimeError(
                f"analyzer exited {done.returncode}: {done.stderr.strip()}")
        if producer is not None:
            if producer.wait(timeout=RUN_TIMEOUT_S) != 0:
                raise RuntimeError("socket producer failed")
        return json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        if producer is not None:
            _stop(producer)


def check_run(result: dict, spec: dict, expected: dict, seed: int,
              reference_sha: str | None) -> list[str]:
    """Why a finished run's results are wrong; empty when they are right.

    The seed never changes cycles, IPC or the timeline, so those are
    checked on every seed; the report SHA (source blanked) covers the
    trace digest, which depends on the seed, so it is checked on the
    default seed, and against the reference run of the same inputs
    (socket_mix against its file analysis, every run against the first).
    """
    errors = []
    if result["truncated"]:
        errors.append("report is truncated")
    if "regions" not in spec and result["instructions"] != spec["instructions"]:
        errors.append(f"{result['instructions']} instructions analyzed, "
                      f"{spec['instructions']} sent")
    for key in ("instructions", "cycles", "ipc", "views_sha256"):
        if key in expected and result.get(key) != expected[key]:
            errors.append(f"{key} {result.get(key)} != expected "
                          f"{expected[key]}")
    if seed == DEFAULT_SEED and result["sha256"] != expected["sha256"]:
        errors.append("report SHA-256 differs from the recorded one")
    if reference_sha is not None and result["sha256"] != reference_sha:
        errors.append("report differs from the reference run's")
    return errors


class Runs:
    """Attempted and failed analyses of one benchmark invocation."""

    def __init__(self, spec, expected, seed):
        self.spec = spec
        self.expected = expected
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.reference_sha = None

    def run(self, **flags) -> dict | None:
        self.attempted += 1
        try:
            result = analyze_once(self.spec, **flags)
        except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
            print(f"run failed: {e}", file=sys.stderr)
            self.failed += 1
            return None
        errors = check_run(result, self.spec, self.expected, self.seed,
                           self.reference_sha)
        if errors:
            print("run incorrect: " + "; ".join(errors), file=sys.stderr)
            self.failed += 1
            return None
        if self.reference_sha is None:
            self.reference_sha = result["sha256"]
        return result

    def timed(self, budget_s: float) -> list[dict]:
        """Fresh-process runs until the next one would overrun budget_s."""
        results = []
        attempts = 0
        started = time.monotonic()
        while True:
            attempts += 1
            run_started = time.monotonic()
            result = self.run()
            if result is not None:
                results.append(result)
            now = time.monotonic()
            if attempts >= MIN_TIMED_RUNS and (
                    now - started + (now - run_started) > budget_s):
                return results


def reference_seconds(result: dict, host_s: float) -> float:
    """host_s of one run, scaled to a host that runs the reference work
    in reference.NOMINAL_S seconds."""
    return host_s * reference.NOMINAL_S / result["ref_s"]


def load_expected(size: str) -> dict:
    with open(EXPECTED, "r", encoding="utf-8") as f:
        return json.load(f)[size]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 *, size: str = "full", expected: dict | None = None,
                 profile: bool = False) -> dict:
    """Generate, run and check one workload; returns the result object."""
    import workloads  # imports cycletrace, so only once src is on sys.path

    if expected is None:
        expected = load_expected(size)[workload]
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    try:
        spec = workloads.prepare(workload, seed, size, workdir)
        runs = Runs(spec, expected, seed)
        if spec["broker"] == "socket":
            # The socket report must equal the file report of the same trace.
            runs.run(broker="file")
        timed = runs.timed(seconds / 2 if trace else seconds)
        traced = runs.run(traced=True) if trace else None
        if profile:
            profiled = runs.run(profile=True)
            if profiled is not None:
                print(f"cProfile of one {workload} analysis, by tottime:\n"
                      + profiled["profile"], file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = {}
    if trace:
        if traced is not None and timed:
            values = dict(traced["layers"])
            timed_s = statistics.median(
                reference_seconds(r, r["elapsed_s"]) for r in timed)
            values["bench.trace_overhead"] = reference_seconds(
                traced, traced["elapsed_s"]) / timed_s - 1
        units = LAYER_UNITS
    else:
        if timed:
            values = {
                "instr_per_s": statistics.median(
                    r["instructions"] / reference_seconds(r, r["elapsed_s"])
                    for r in timed),
                "setup_s": statistics.median(
                    reference_seconds(r, r["setup_s"]) for r in timed),
                "peak_rss_kib": statistics.median(
                    r["peak_rss_kib"] for r in timed),
            }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    return {
        "correct": runs.failed == 0 and bool(values),
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="print a cProfile tottime table (untimed run)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cycletrace", "__init__.py")):
        print(f"error: no cycletrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), profile=args.profile)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate "
          f"{result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
