"""One analysis in a fresh process, as `cycletrace analyze` runs it.

Usage: python3 analyzer.py SPEC_JSON

The spec (written by run.py) names the source tree, the model file, the
broker and its inputs.  The process loads and validates the model, opens
the broker, parses the region file, analyzes the stream, renders the
views and the report JSON, and prints one JSON line with its timings,
the simulated results and a SHA-256 of the report with 'source' blanked.

setup_s runs from the parent's clock reading just before it started this
process (CLOCK_MONOTONIC is shared between processes) to the first fetch,
less the first reference run.  The analysis clock runs from the first
fetch until the report JSON is rendered.  The host's speed is measured
(reference.py) before the broker opens and after the analysis, and
reported as ref_s.  With "traced" set the package is instrumented first
(see tracing.py); with "profile" set the analysis runs under cProfile.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _peak_rss_kib() -> int:
    # VmHWM belongs to this process image; getrusage's ru_maxrss would
    # also count the parent's pages at the moment it started this one.
    with open("/proc/self/status", "r", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def _open_broker(ct, spec):
    kind = spec["broker"]
    if kind == "file":
        return ct.FileBroker(spec["trace"]), spec["trace"]
    if kind == "generator":
        import workloads

        gen = spec["generator"]
        stream = workloads.big_core_trace(gen["seed"], gen["groups"])
        return ct.SequenceBroker(stream), "generator"
    if kind == "socket":
        broker = ct.SocketBroker.listen(spec["port"], accept_timeout=60)
        # The receiver thread answers the hello; wait until it has.
        deadline = time.monotonic() + 60
        while broker.model_hint is None:
            if time.monotonic() > deadline:
                broker.close()
                raise TimeoutError("no handshake from the producer")
            time.sleep(0.0002)
        return broker, f"listen:{spec['port']}"
    raise ValueError(f"unknown broker '{kind}'")


def main(argv) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, spec["src"])
    import cycletrace as ct

    if not os.path.abspath(ct.__file__).startswith(spec["src"] + os.sep):
        raise ImportError(f"cycletrace imported from {ct.__file__}")
    tracer = None
    if spec.get("traced"):
        import tracing

        tracer = tracing.install(ct)

    clock = time.perf_counter
    start = clock()
    model = ct.load_model(_read(spec["model"]))
    ct.validate_model(model)
    model_s = clock() - start

    # Before the broker opens, so that no socket backlog builds meanwhile.
    import reference

    ref_before_s = reference.reference_work()

    start = clock()
    broker, source = _open_broker(ct, spec)
    open_s = clock() - start

    regions = None
    if spec.get("regions"):
        regions = ct.parse_regions(_read(spec["regions"]))
    recorder = None
    if spec.get("timeline"):
        recorder = ct.TimelineRecorder(tuple(spec["timeline"]))

    profiler = None
    if spec.get("profile"):
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    first_fetch = time.monotonic()
    try:
        report = ct.analyze(model, broker, source=source, regions=regions,
                            recorder=recorder)
    finally:
        broker.close()
    views = ""
    if recorder is not None:
        views = ct.render_summary(report.summary) + ct.render_timeline(
            recorder.rows)
    text = report.to_json()
    done = time.monotonic()
    if profiler is not None:
        profiler.disable()

    peak_rss_kib = _peak_rss_kib()
    ref_after_s = reference.reference_work()

    doc = json.loads(text)
    doc["source"] = ""
    normalized = json.dumps(doc, indent=2) + "\n"
    result = {
        "setup_s": first_fetch - spec["spawned_at"] - ref_before_s,
        "elapsed_s": done - first_fetch,
        "model_s": model_s,
        "open_s": open_s,
        "instructions": report.summary.instructions,
        "cycles": report.summary.total_cycles,
        "ipc": report.summary.ipc,
        "truncated": report.truncated,
        "sha256": hashlib.sha256(normalized.encode("utf-8")).hexdigest(),
        "report": normalized,
        "peak_rss_kib": peak_rss_kib,
        "ref_s": (ref_before_s + ref_after_s) / 2,
    }
    if recorder is not None:
        result["views_sha256"] = hashlib.sha256(
            views.encode("utf-8")).hexdigest()
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(
            tracer, {"model_s": model_s, "open_s": open_s})
    if profiler is not None:
        import io
        import pstats

        out = io.StringIO()
        pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(25)
        result["profile"] = out.getvalue()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
