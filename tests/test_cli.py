"""Command-line flows and exit codes, driven through main(argv)."""

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import gen
from cycletrace import (
    AnalysisReport,
    parse_trace,
    render_model,
    render_trace,
    stream_to_socket,
)
from cycletrace.cli import main
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


def test_analyze_missing_trace_file(model_file, capsys):
    rc = main(["analyze", "--model", model_file, "--trace", "/nonexistent"])
    assert rc == 2


def test_analyze_bad_region_file(tmp_path, model_file, trace_file, capsys):
    regions = tmp_path / "regions.txt"
    regions.write_text("R zero ten\n")
    rc = main(["analyze", "--model", model_file, "--trace", trace_file,
               "--regions", str(regions)])
    assert rc == 2
    assert "bad address" in capsys.readouterr().err


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


def test_diff_mismatched_models(tmp_path, report_pair, capsys):
    base, _ = report_pair
    other = json.loads(Path(base).read_text())
    other["model"] = "different"
    cand = tmp_path / "other.json"
    cand.write_text(json.dumps(other))
    assert main(["diff", "--base", base, "--cand", str(cand)]) == 4
    assert "different models" in capsys.readouterr().err


def test_diff_rejects_non_report_json(tmp_path, report_pair, capsys):
    base, _ = report_pair
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"hello": 1}')
    assert main(["diff", "--base", base, "--cand", str(bogus)]) == 2


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
    ["trace", "--program", "p"],
    ["diff", "--base", "b"],
])
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


# -- sockets ------------------------------------------------------------------

def test_stream_between_cli_processes(
    tmp_path, model_file, program_file, trace_file, capsys
):
    """trace --connect into analyze --listen matches the file-based run."""
    file_report = tmp_path / "file.json"
    assert main(["analyze", "--model", model_file, "--trace", trace_file,
                 "--out", str(file_report)]) == 0

    port = free_port()
    socket_report = tmp_path / "socket.json"
    rc = {}

    def analyzer():
        rc["analyze"] = main([
            "analyze", "--model", model_file, "--listen", str(port),
            "--out", str(socket_report),
        ])

    t = threading.Thread(target=analyzer)
    t.start()
    deadline = time.monotonic() + 10
    while True:
        code = main(["trace", "--program", program_file,
                     "--connect", f"127.0.0.1:{port}"])
        if code == 0:
            break
        assert time.monotonic() < deadline, "producer never connected"
        time.sleep(0.02)
    t.join(10)
    assert rc["analyze"] == 0
    assert "listening on" in capsys.readouterr().err

    by_file = AnalysisReport.from_json(file_report.read_text())
    by_socket = AnalysisReport.from_json(socket_report.read_text())
    assert by_socket.digest == by_file.digest
    assert by_socket.summary == by_file.summary
    assert by_socket.source == f"listen:{port}"


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


def test_truncated_stream_exits_four_with_a_partial_report(
    tmp_path, model_file, capsys
):
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    insts = [ti(s, "add", writes=[s % 4]) for s in range(6)]

    def producer():
        conn, _ = server.accept()
        with conn:
            stream_to_socket(conn, insts, send_end=False)

    t = threading.Thread(target=producer)
    t.start()
    report_path = tmp_path / "partial.json"
    rc = main(["analyze", "--model", model_file,
               "--connect", f"127.0.0.1:{port}", "--out", str(report_path)])
    t.join(5)
    server.close()
    assert not t.is_alive()
    assert rc == 4
    out, err = capsys.readouterr()
    assert "without an end-of-stream marker" in err
    assert f"Instructions:      {len(insts)}\n" in out
    report = AnalysisReport.from_json(report_path.read_text())
    assert report.truncated
    assert report.summary.instructions == len(insts)
    assert report.summary.total_cycles == cycles_of(out)


def test_module_entry_point(model_file):
    proc = subprocess.run(
        [sys.executable, "-m", "cycletrace.cli",
         "model-check", "--model", model_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
