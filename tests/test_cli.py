"""Command-line flows and exit codes, driven through main(argv)."""

import contextlib
import hashlib
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import gen
from cycletrace import (
    AnalysisReport,
    TruncatedTraceError,
    parse_trace,
    render_model,
    render_trace,
    stream_to_socket,
    to_wire,
)
from cycletrace.cli import _endpoint, main
from gen import ti

PROGRAM = """\
.map const nop
.map cmp add
.map ble nop
.map halt nop
start:
    const r1, 3
    const r2, 1
loop:
    add r3, r3, r1
    mul r4, r3, r3
    cmp r1, r1, r2
    ble r2, r1, loop
halt
"""
PROGRAM_INSTRUCTIONS = 15  # 2 setup + 3 trips of 4 + halt


@pytest.fixture
def model_file(tmp_path, model):
    p = tmp_path / "model.json"
    p.write_text(render_model(model))
    return str(p)


@pytest.fixture
def program_file(tmp_path):
    p = tmp_path / "prog.toy"
    p.write_text(PROGRAM)
    return str(p)


@pytest.fixture
def trace_file(tmp_path, model_file, program_file):
    p = tmp_path / "prog.trace"
    assert main(["trace", "--program", program_file, "--out", str(p)]) == 0
    return str(p)


def cycles_of(out: str) -> int:
    for line in out.splitlines():
        if line.startswith("Total Cycles:"):
            return int(line.split()[-1])
    raise AssertionError(f"no cycle count in output:\n{out}")


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# -- model-check --------------------------------------------------------------

def test_model_check_ok(model_file, capsys):
    assert main(["model-check", "--model", model_file]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "dispatch width 2" in out


def test_model_check_rejects_invalid_model(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "m", "dispatch_width": 2, "rob_size": 1}')
    assert main(["model-check", "--model", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_model_check_rejects_an_overclaimed_resource(tmp_path, capsys):
    p = tmp_path / "overclaimed.json"
    p.write_text(json.dumps({
        "name": "m", "dispatch_width": 1, "rob_size": 4,
        "resources": [{"name": "ALU", "units": 1}],
        "classes": [{"name": "pair", "latency": 1,
                     "uses": [{"resource": "ALU"}, {"resource": "ALU"}]}],
    }))
    assert main(["model-check", "--model", str(p)]) == 2
    err = capsys.readouterr().err
    assert "class 'pair': claims resource 'ALU' 2 times" in err
    assert "1 unit(s)" in err


def test_model_check_rejects_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    assert main(["model-check", "--model", str(p)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_model_file_is_an_input_error(capsys):
    assert main(["model-check", "--model", "/nonexistent/model.json"]) == 2
    assert "error:" in capsys.readouterr().err


# -- trace --------------------------------------------------------------------

def test_trace_writes_a_parseable_trace(trace_file):
    insts = parse_trace(Path(trace_file).read_text())
    assert len(insts) == PROGRAM_INSTRUCTIONS
    assert [i.seq_id for i in insts] == list(range(PROGRAM_INSTRUCTIONS))


def test_trace_to_stdout(program_file, capsys):
    assert main(["trace", "--program", program_file, "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == PROGRAM_INSTRUCTIONS


def test_trace_step_budget_exhaustion(tmp_path, program_file, capsys):
    p = tmp_path / "part.trace"
    rc = main(["trace", "--program", program_file,
               "--out", str(p), "--max-steps", "5"])
    assert rc == 4
    assert "warning" in capsys.readouterr().err
    assert len(parse_trace(p.read_text())) == 5


def test_trace_memory_does_not_grow_with_the_step_budget(tmp_path, capsys):
    # Each instruction is written as it executes, so a budget four times
    # larger needs no more memory.
    program = tmp_path / "spin.toy"
    program.write_text("loop:\nadd r1, r1, r2\nmul r3, r1, r1\n"
                       "cmp r4, r3, r1\njump loop\n")

    def peak(steps):
        tracemalloc.start()
        try:
            assert main(["trace", "--program", str(program),
                         "--out", str(tmp_path / "spin.trace"),
                         "--max-steps", str(steps)]) == 4
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # fills the renderer's register-text table
    small, large = peak(10_000), peak(40_000)
    assert large < 1.25 * small, (small, large)
    assert len((tmp_path / "spin.trace").read_text().splitlines()) == 40_000


def test_trace_to_a_reader_that_stops_early(tmp_path, capsys, monkeypatch):
    # A closed pipe ends the run quietly instead of as an input error.
    program = tmp_path / "spin.toy"
    program.write_text("loop:\nadd r1, r1, r2\njump loop\n")
    r, w = os.pipe()
    os.close(r)
    with os.fdopen(w, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["trace", "--program", str(program), "--out", "-",
                     "--max-steps", "1000"]) == 0
    assert capsys.readouterr().err == ""


def test_trace_piped_into_head(tmp_path):
    # `cycletrace trace --out - | head -1`, interpreter exit included.
    program = tmp_path / "spin.toy"
    program.write_text("loop:\nadd r1, r1, r2\njump loop\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "cycletrace.cli", "trace", "--program",
         str(program), "--out", "-", "--max-steps", "1000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""
    assert len(parse_trace(first)) == 1


def test_trace_rejects_bad_programs(tmp_path, capsys):
    p = tmp_path / "bad.toy"
    p.write_text("frobnicate r1\n")
    assert main(["trace", "--program", str(p), "--out", "-"]) == 2
    assert "unknown opcode" in capsys.readouterr().err


# -- analyze ------------------------------------------------------------------

def test_analyze_prints_a_summary(model_file, trace_file, capsys):
    assert main(["analyze", "--model", model_file, "--trace", trace_file]) == 0
    out = capsys.readouterr().out
    assert f"Instructions:      {PROGRAM_INSTRUCTIONS}\n" in out
    assert "Block RThroughput:" in out
    assert cycles_of(out) > 0


def test_analyze_writes_a_report(tmp_path, model_file, trace_file, capsys):
    report_path = tmp_path / "report.json"
    assert main(["analyze", "--model", model_file, "--trace", trace_file,
                 "--out", str(report_path)]) == 0
    report = AnalysisReport.from_json(report_path.read_text())
    assert report.source == trace_file
    assert report.summary.instructions == PROGRAM_INSTRUCTIONS
    assert report.summary.total_cycles == cycles_of(capsys.readouterr().out)


def test_analyze_with_regions(tmp_path, model_file, trace_file, capsys):
    regions = tmp_path / "regions.txt"
    regions.write_text("R 0x400008 0x400010\n")  # loop body: add + mul
    assert main(["analyze", "--model", model_file, "--trace", trace_file,
                 "--regions", str(regions)]) == 0
    out = capsys.readouterr().out
    assert "Region Visits:     3\n" in out
    assert "Region Instrs:     6\n" in out
    assert "Region Cycles:" in out


def test_analyze_with_timeline(model_file, trace_file, capsys):
    assert main(["analyze", "--model", model_file, "--trace", trace_file,
                 "--timeline", "0..3"]) == 0
    out = capsys.readouterr().out
    summary, _, timeline = out.partition("\n\n")
    assert "Instructions:" in summary
    lines = timeline.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("[0,") and "D" in line for line in lines)


def test_timeline_bounds_read_numbers_as_the_trace_does(
        model_file, trace_file, capsys):
    argv = ["analyze", "--model", model_file, "--trace", trace_file,
            "--timeline"]
    assert main(argv + ["1..3"]) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["01..0x3"]) == 0
    assert capsys.readouterr().out == plain
    assert main(argv + ["01..3z"]) == 1
    assert "invalid _window value: '01..3z'" in capsys.readouterr().err


def test_alias_policy_changes_timing(tmp_path, model_file, capsys):
    # the store waits on a mul chain; the load may hoist past it only
    # when the policy says the addresses cannot alias
    insts = [
        ti(0, "mul", writes=[1]),
        ti(1, "mul", reads=[1], writes=[2]),
        ti(2, "store", reads=[2], stores=[(0x1000, 8)]),
        ti(3, "load", loads=[(0x1000, 8)], writes=[3]),
    ]
    p = tmp_path / "alias.trace"
    p.write_text(render_trace(insts))
    results = {}
    for policy in ("none", "all"):
        assert main(["analyze", "--model", model_file, "--trace", str(p),
                     "--alias-policy", policy]) == 0
        results[policy] = cycles_of(capsys.readouterr().out)
    assert results["none"] < results["all"]


def test_analyze_unknown_class_is_an_analysis_error(
    tmp_path, model_file, capsys
):
    p = tmp_path / "weird.trace"
    p.write_text(render_trace([ti(0, "warp")]))
    rc = main(["analyze", "--model", model_file, "--trace", str(p)])
    assert rc == 4
    assert "analysis error" in capsys.readouterr().err


def test_analyze_a_model_wider_than_the_entry_buffer(
    tmp_path, trace_file, capsys
):
    # 300 is above analyze's default entry_capacity of 256.
    wide = tmp_path / "wide.json"
    wide.write_text(render_model(gen.simple_model(width=300, rob=300)))
    assert main(["model-check", "--model", str(wide)]) == 0
    assert main(["analyze", "--model", str(wide), "--trace", trace_file]) == 0
    out = capsys.readouterr().out
    assert f"Instructions:      {PROGRAM_INSTRUCTIONS}\n" in out
    assert "Dispatch Width:    300\n" in out


def test_analyze_missing_trace_file(model_file, capsys):
    rc = main(["analyze", "--model", model_file, "--trace", "/nonexistent"])
    assert rc == 2


def test_analyze_refuses_a_trace_that_is_not_utf8(tmp_path, model_file,
                                                  capsys):
    p = tmp_path / "t.trace"
    p.write_bytes(b"I 0 0x0 add R:- W:-\nI 1 0x4 a\xffdd R:- W:-\n")
    assert main(["analyze", "--model", model_file, "--trace", str(p)]) == 2
    assert capsys.readouterr().err == "error: line 2: not UTF-8\n"


def test_analyze_bad_region_file(tmp_path, model_file, trace_file, capsys):
    regions = tmp_path / "regions.txt"
    regions.write_text("R zero ten\n")
    rc = main(["analyze", "--model", model_file, "--trace", trace_file,
               "--regions", str(regions)])
    assert rc == 2
    assert "bad address" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,valid", [
    ("model-check", "--model", None),
    ("analyze", "--model", None),
    ("analyze", "--regions", b"R 0x0 0x10\n"),
    ("diff", "--base", None),
    ("diff", "--cand", None),
    ("diff", "--ground", b"G 1 2\n"),
    ("trace", "--program", b"halt\n"),
])
def test_an_input_file_that_is_not_utf8_is_an_input_error(
        tmp_path, model_file, trace_file, report_pair, capsys, command, flag,
        valid):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe" if valid is None else valid + b"\xff\n")
    base, cand = report_pair
    argv = {
        "model-check": ["--model", model_file],
        "analyze": ["--model", model_file, "--trace", trace_file],
        "diff": ["--base", base, "--cand", cand],
        "trace": ["--program", "unused", "--out", str(tmp_path / "t")],
    }[command]
    if flag in argv:
        argv[argv.index(flag) + 1] = str(bad)
    else:
        argv += [flag, str(bad)]
    capsys.readouterr()
    assert main([command] + argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8\n"


@pytest.mark.parametrize("command,flag", [
    ("analyze", "--model"), ("diff", "--base"),
])
@pytest.mark.parametrize("text", [
    pytest.param('{"name": ' + "1" * 5000 + "}", id="digit-limit"),
    pytest.param("[" * 100_000, id="deep-nesting"),
])
def test_json_past_the_decoder_limits_is_an_input_error(
        tmp_path, model_file, trace_file, report_pair, capsys, command, flag,
        text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    base, cand = report_pair
    argv = (["analyze", "--model", str(bad), "--trace", trace_file]
            if command == "analyze" else
            ["diff", "--base", str(bad), "--cand", cand])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "digit limit" in err or "nested too deeply" in err


# -- diff ---------------------------------------------------------------------

@pytest.fixture
def report_pair(tmp_path, model_file, program_file, trace_file):
    # candidate: the same program with one more loop trip
    longer = tmp_path / "longer.toy"
    longer.write_text(PROGRAM.replace("const r1, 3", "const r1, 4"))
    longer_trace = tmp_path / "longer.trace"
    assert main(["trace", "--program", str(longer),
                 "--out", str(longer_trace)]) == 0
    base, cand = tmp_path / "base.json", tmp_path / "cand.json"
    for trace, out in ((trace_file, base), (str(longer_trace), cand)):
        assert main(["analyze", "--model", model_file, "--trace", trace,
                     "--out", str(out)]) == 0
    return str(base), str(cand)


def test_diff_reports(report_pair, capsys):
    base, cand = report_pair
    capsys.readouterr()
    assert main(["diff", "--base", base, "--cand", cand]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Model:")
    delta_line = [l for l in out.splitlines() if l.startswith("Delta:")][0]
    assert float(delta_line.split()[-1]) > 1.0  # more work predicted slower
    assert "Prediction Error" not in out


def test_diff_with_ground_truth(tmp_path, report_pair, capsys):
    base, cand = report_pair
    base_cycles = AnalysisReport.from_json(
        Path(base).read_text()).summary.total_cycles
    cand_cycles = AnalysisReport.from_json(
        Path(cand).read_text()).summary.total_cycles
    ground = tmp_path / "ground.txt"
    ground.write_text(f"G {base_cycles} {cand_cycles}\n")
    capsys.readouterr()
    assert main(["diff", "--base", base, "--cand", cand,
                 "--ground", str(ground)]) == 0
    out = capsys.readouterr().out
    assert "Prediction Error:  0.0000" in out


def test_diff_rejects_zero_ground_truth_count(tmp_path, report_pair, capsys):
    base, cand = report_pair
    ground = tmp_path / "ground.txt"
    ground.write_text("G 100 110\nG 0 5\n")
    capsys.readouterr()
    assert main(["diff", "--base", base, "--cand", cand,
                 "--ground", str(ground)]) == 2
    assert "line 2: bad cycle count" in capsys.readouterr().err


def test_diff_mismatched_models(tmp_path, report_pair, capsys):
    base, _ = report_pair
    other = json.loads(Path(base).read_text())
    other["model"] = "different"
    cand = tmp_path / "other.json"
    cand.write_text(json.dumps(other))
    assert main(["diff", "--base", base, "--cand", str(cand)]) == 4
    assert "different models" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("alias_policy", "none", "alias_policy 'metadata' vs 'none'"),
    ("truncated", True, "the candidate report has truncated: true"),
])
def test_diff_refuses_incomparable_reports(tmp_path, report_pair, capsys,
                                           field, value, message):
    base, _ = report_pair
    other = json.loads(Path(base).read_text())
    other[field] = value
    cand = tmp_path / "other.json"
    cand.write_text(json.dumps(other))
    capsys.readouterr()
    assert main(["diff", "--base", base, "--cand", str(cand)]) == 4
    assert message in capsys.readouterr().err


def test_diff_rejects_non_report_json(tmp_path, report_pair, capsys):
    base, _ = report_pair
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"hello": 1}')
    assert main(["diff", "--base", base, "--cand", str(bogus)]) == 2


@pytest.mark.parametrize("version", [True, 1.0])
def test_diff_rejects_a_version_that_is_not_the_integer_one(
        tmp_path, report_pair, capsys, version):
    base, _ = report_pair
    other = json.loads(Path(base).read_text())
    other["report_version"] = version
    cand = tmp_path / "other.json"
    cand.write_text(json.dumps(other))
    capsys.readouterr()
    assert main(["diff", "--base", base, "--cand", str(cand)]) == 2
    assert "not an analysis report" in capsys.readouterr().err


@pytest.mark.parametrize("value, message", [
    # A string once crashed diff with a TypeError traceback, and true
    # was read as one cycle.
    ("35", "summary: field 'total_cycles' must be an integer, got \"35\""),
    (True, "summary: field 'total_cycles' must be an integer, got true"),
])
def test_diff_rejects_mistyped_report_fields(tmp_path, report_pair, capsys,
                                             value, message):
    base, _ = report_pair
    other = json.loads(Path(base).read_text())
    other["summary"]["total_cycles"] = value
    cand = tmp_path / "other.json"
    cand.write_text(json.dumps(other))
    capsys.readouterr()
    assert main(["diff", "--base", base, "--cand", str(cand)]) == 2
    err = capsys.readouterr().err
    assert f"error: malformed analysis report: {message}" in err
    assert "Traceback" not in err


# Report count fields, each by its path in the JSON document: how error
# messages name its object, and the path's keys.
COUNT_FIELDS = {
    "summary.instructions": ("summary", ("summary", "instructions")),
    "summary.total_cycles": ("summary", ("summary", "total_cycles")),
    "pool.peak_live": ("pool", ("pool", "peak_live")),
    "missing_metadata": ("report", ("missing_metadata",)),
    "regions.cycles": ("regions", ("regions", "cycles")),
    "regions.per_visit[0].instructions":
        ("regions visit[0]", ("regions", "per_visit", 0, "instructions")),
}


@pytest.mark.parametrize("name", COUNT_FIELDS)
def test_diff_rejects_negative_report_counts(tmp_path, report_pair, capsys,
                                            name):
    where, path = COUNT_FIELDS[name]
    base, _ = report_pair
    other = json.loads(Path(base).read_text())
    other["regions"] = {"visits": 1, "instructions": 5, "cycles": 9,
                        "per_visit": [{"instructions": 5, "cycles": 9}]}
    obj = other
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = -3
    cand = tmp_path / "other.json"
    cand.write_text(json.dumps(other))
    capsys.readouterr()
    assert main(["diff", "--base", base, "--cand", str(cand)]) == 2
    err = capsys.readouterr().err
    assert (f"error: malformed analysis report: {where}: field "
            f"'{path[-1]}' must not be negative, got -3") in err


def test_diff_reads_a_zero_cycle_report(tmp_path, report_pair, model_file,
                                        capsys):
    base, _ = report_pair
    empty_trace = tmp_path / "empty.trace"
    empty_trace.write_text("")
    empty = tmp_path / "empty.json"
    assert main(["analyze", "--model", model_file, "--trace",
                 str(empty_trace), "--out", str(empty)]) == 0
    capsys.readouterr()
    # Read as a report, then refused by diff: no ratio to a 0-cycle run.
    assert main(["diff", "--base", base, "--cand", str(empty)]) == 4
    err = capsys.readouterr().err
    assert "candidate cycle count must be positive, got 0" in err
    assert "malformed" not in err


# -- usage errors -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["analyze"],
    ["analyze", "--trace", "x"],
    ["analyze", "--model", "m", "--trace", "x", "--listen", "1"],
    ["analyze", "--model", "m", "--trace", "x", "--timeline", "5"],
    ["analyze", "--model", "m", "--trace", "x", "--timeline", "9..3"],
    ["analyze", "--model", "m", "--trace", "x", "--alias-policy", "maybe"],
    ["analyze", "--model", "m", "--connect", "no-port"],
    ["analyze", "--model", "m", "--connect", "[::1]"],
    ["analyze", "--model", "m", "--connect", "[::1]:"],
    ["analyze", "--model", "m", "--connect", "[]:9000"],
    ["trace", "--program", "p"],
    ["diff", "--base", "b"],
    ["analyze", "--model", "m", "--listen", "70000"],
    ["analyze", "--model", "m", "--connect", "127.0.0.1:70000"],
    ["trace", "--program", "p", "--connect", "127.0.0.1:70000"],
    ["trace", "--program", "p", "--out", "x.trace", "--max-steps", "0"],
    ["trace", "--program", "p", "--out", "x.trace", "--max-steps", "-3"],
    # Numbers are ASCII only, as everywhere else; int() reads these as
    # 9000 and 10.
    ["analyze", "--model", "m", "--listen", "\u0669\u0660\u0660\u0660"],
    ["analyze", "--model", "m", "--connect",
     "127.0.0.1:\u0669\u0660\u0660\u0660"],
    ["trace", "--program", "p", "--out", "x.trace", "--max-steps",
     "\u0661\u0660"],
])
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


@pytest.mark.parametrize("text, endpoint", [
    ("127.0.0.1:9000", ("127.0.0.1", 9000)),
    ("localhost:1", ("localhost", 1)),
    ("[::1]:9000", ("::1", 9000)),
    ("::1:9000", ("::1", 9000)),
])
def test_endpoint_strips_the_brackets_of_an_ipv6_host(text, endpoint):
    assert _endpoint(text) == endpoint


# -- sockets ------------------------------------------------------------------

def trace_into_listener(model_file, program, report, port, capsys, *args):
    """Exit statuses of trace --connect into analyze --listen on port.

    The analyzer runs on a thread; trace is retried until the analyzer
    takes the connection.  Returns (trace, analyze, analyzer stderr).
    """
    rc = {}

    def analyzer():
        rc["analyze"] = main([
            "analyze", "--model", model_file, "--listen", str(port),
            "--out", str(report),
        ])

    t = threading.Thread(target=analyzer)
    t.start()
    deadline = time.monotonic() + 10
    errs = []
    while True:
        code = main(["trace", "--program", program,
                     "--connect", f"127.0.0.1:{port}", *args])
        errs.append(capsys.readouterr().err)
        if "Connection refused" not in errs[-1]:
            break
        assert time.monotonic() < deadline, "producer never connected"
        time.sleep(0.02)
    t.join(10)
    assert not t.is_alive()
    errs.append(capsys.readouterr().err)
    return code, rc["analyze"], "".join(errs)


def test_stream_between_cli_processes(
    tmp_path, model_file, program_file, trace_file, capsys
):
    """trace --connect into analyze --listen matches the file-based run."""
    file_report = tmp_path / "file.json"
    assert main(["analyze", "--model", model_file, "--trace", trace_file,
                 "--out", str(file_report)]) == 0

    port = free_port()
    socket_report = tmp_path / "socket.json"
    codes = trace_into_listener(model_file, program_file, socket_report, port,
                                capsys)
    assert codes[:2] == (0, 0)
    assert "listening on" in codes[2]

    by_file = AnalysisReport.from_json(file_report.read_text())
    by_socket = AnalysisReport.from_json(socket_report.read_text())
    assert by_socket.digest == by_file.digest
    assert by_socket.summary == by_file.summary
    assert by_socket.source == f"listen:{port}"


def test_truncated_trace_over_a_socket_exits_four_on_both_sides(
    tmp_path, model_file, program_file, capsys
):
    report = tmp_path / "cut.json"
    trace_rc, analyze_rc, err = trace_into_listener(
        model_file, program_file, report, free_port(), capsys,
        "--max-steps", "10")
    assert (trace_rc, analyze_rc) == (4, 4)
    assert "warning: step budget of 10 exhausted before halt" in err
    assert "without an end-of-stream marker" in err
    cut = AnalysisReport.from_json(report.read_text())
    assert cut.truncated
    assert cut.summary.instructions == 10


@pytest.mark.parametrize("reply", [
    b"\xff\n", b'{"t": ' + b"1" * 5000 + b"\n", b"[" * 100_000 + b"\n",
], ids=["not-utf8", "long-int", "deep"])
def test_a_bad_handshake_reply_exits_three(program_file, capsys, reply):
    server = socket.create_server(("127.0.0.1", 0))

    def receiver():
        conn, _ = server.accept()
        with conn, conn.makefile("rb") as rfile:
            rfile.readline()  # the hello
            conn.sendall(reply)

    t = threading.Thread(target=receiver)
    t.start()
    try:
        code = main(["trace", "--program", program_file, "--connect",
                     f"127.0.0.1:{server.getsockname()[1]}"])
    finally:
        t.join(10)
        server.close()
    assert not t.is_alive()
    assert code == 3
    assert capsys.readouterr().err == (
        "protocol error: receiver did not acknowledge the handshake\n")


def test_program_error_over_a_socket_leaves_a_truncated_stream(
    tmp_path, model_file, capsys
):
    # Three instructions, then execution runs past the program.
    program = tmp_path / "runaway.toy"
    program.write_text(".map const nop\nconst r1, 3\n"
                       "add r2, r1, r1\nmul r3, r2, r1\n")
    written = tmp_path / "runaway.trace"
    assert main(["trace", "--program", str(program),
                 "--out", str(written)]) == 2
    assert "ran past the program" in capsys.readouterr().err
    assert [i.seq_id for i in parse_trace(written.read_text())] == [0, 1, 2]

    report = tmp_path / "runaway.json"
    trace_rc, analyze_rc, err = trace_into_listener(
        model_file, str(program), report, free_port(), capsys)
    assert (trace_rc, analyze_rc) == (2, 4)
    assert "ran past the program" in err
    cut = AnalysisReport.from_json(report.read_text())
    assert cut.truncated
    assert cut.summary.instructions == 3
    assert cut.digest == hashlib.sha256(
        written.read_text().encode("utf-8")).hexdigest()


def test_protocol_violation_exits_three(model_file, capsys):
    port = free_port()
    server = socket.socket()
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind(("127.0.0.1", port))
    server.listen(1)

    def misbehave():
        conn, _ = server.accept()
        conn.sendall(b'{"t": "surprise"}\n')
        conn.close()

    t = threading.Thread(target=misbehave)
    t.start()
    rc = main(["analyze", "--model", model_file,
               "--connect", f"127.0.0.1:{port}"])
    t.join(5)
    server.close()
    assert rc == 3
    assert "protocol error" in capsys.readouterr().err


def test_a_context_no_trace_line_carries_exits_three(model_file, capsys):
    # analyze refuses ("sz", 4) in memory, and so does stream_to_socket;
    # sent as it is by another producer, the receiver refuses it too,
    # rather than reading it as ("sz", "4").
    server = socket.create_server(("127.0.0.1", 0))
    bad = to_wire(ti(0, "add", context=("sz", 4)))
    frame = {"t": "insts", "batch": [bad]}

    def producer():
        conn, _ = server.accept()
        with conn, conn.makefile("rb") as rfile, \
                contextlib.suppress(OSError):
            conn.sendall(b'{"t": "hello", "version": 1, "model_hint": ""}\n')
            rfile.readline()  # the ok
            conn.sendall((json.dumps(frame) + '\n{"t": "end"}\n').encode())

    t = threading.Thread(target=producer)
    t.start()
    try:
        rc = main(["analyze", "--model", model_file,
                   "--connect", f"127.0.0.1:{server.getsockname()[1]}"])
    finally:
        t.join(10)
        server.close()
    assert not t.is_alive()
    assert rc == 3
    assert capsys.readouterr().err == (
        "protocol error: instruction field 'ctx' must be a pair of strings\n")


def test_analyze_connects_to_a_bracketed_ipv6_host(model_file, capsys,
                                                   tmp_path):
    server = socket.socket(socket.AF_INET6)
    try:
        server.bind(("::1", 0))
    except OSError:
        server.close()
        pytest.skip("no IPv6 loopback")
    server.listen(1)
    server.settimeout(10)
    port = server.getsockname()[1]
    insts = [ti(s, "add", writes=[s % 4]) for s in range(5)]

    def producer():
        try:
            conn, _ = server.accept()
        except TimeoutError:  # the analyzer never connected
            return
        with conn:
            stream_to_socket(conn, insts)

    t = threading.Thread(target=producer)
    t.start()
    report = tmp_path / "r.json"
    rc = main(["analyze", "--model", model_file, "--connect", f"[::1]:{port}",
               "--out", str(report)])
    t.join(15)
    server.close()
    assert not t.is_alive()
    assert rc == 0
    assert f"Instructions:      {len(insts)}\n" in capsys.readouterr().out
    # The report's source keeps the brackets, so the port stays readable.
    assert json.loads(report.read_text())["source"] == f"[::1]:{port}"


def test_truncated_stream_exits_four_with_a_partial_report(
    tmp_path, model_file, capsys
):
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    insts = [ti(s, "add", writes=[s % 4]) for s in range(6)]
    raised = []

    def producer():
        conn, _ = server.accept()
        with conn:
            try:
                stream_to_socket(conn, gen.cut_short(insts))
            except TruncatedTraceError as e:
                raised.append(e)

    t = threading.Thread(target=producer)
    t.start()
    report_path = tmp_path / "partial.json"
    rc = main(["analyze", "--model", model_file,
               "--connect", f"127.0.0.1:{port}", "--out", str(report_path)])
    t.join(5)
    server.close()
    assert not t.is_alive()
    assert len(raised) == 1
    assert rc == 4
    out, err = capsys.readouterr()
    assert "without an end-of-stream marker" in err
    assert f"Instructions:      {len(insts)}\n" in out
    report = AnalysisReport.from_json(report_path.read_text())
    assert report.truncated
    assert report.summary.instructions == len(insts)
    assert report.summary.total_cycles == cycles_of(out)


def test_a_connection_reset_in_the_handshake_exits_four(model_file, capsys):
    # The producer resets the connection (SO_LINGER 0) before its hello:
    # a stream truncated before its first frame, exit 4 as after it.
    server = socket.create_server(("127.0.0.1", 0))

    def producer():
        conn, _ = server.accept()
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        conn.close()

    t = threading.Thread(target=producer)
    t.start()
    try:
        rc = main(["analyze", "--model", model_file,
                   "--connect", f"127.0.0.1:{server.getsockname()[1]}"])
    finally:
        t.join(10)
        server.close()
    assert not t.is_alive()
    assert rc == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: stream failed: ")
    assert "reset" in err


def test_module_entry_point(model_file):
    proc = subprocess.run(
        [sys.executable, "-m", "cycletrace.cli",
         "model-check", "--model", model_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
