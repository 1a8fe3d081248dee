"""Command line front end.

Commands:
  analyze      run a trace (file or socket) through a machine model
  diff         compare two saved analysis reports
  trace        execute a toy program and emit its instruction trace
  model-check  load and validate a machine model file

Exit codes: 0 success, 1 usage error, 2 input or parse error,
3 wire-protocol error, 4 analysis error or truncated stream.

The diff and trace commands import the modules only they use, so
analyze does not load them.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import AnalysisReport, analyze, parse_regions
from .brokers import FileBroker, SocketBroker, send_trace
from .errors import (
    AnalysisError,
    ModelError,
    ProgramError,
    ProtocolError,
    TraceParseError,
    TruncatedTraceError,
)
from .lsunit import AliasPolicy
from .model import load_model
from .trace import read_int, render_trace
from .views import (
    TimelineRecorder,
    render_fields,
    render_summary,
    render_timeline,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # input errors, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError("expected FIRST..LAST")
    first, last = read_int(lo), read_int(hi)
    if last < first:
        raise ValueError("window end precedes start")
    return first, last


def _port(text: str) -> int:
    port = read_int(text)
    if not 1 <= port <= 65535:
        raise ValueError("port must be 1..65535")
    return port


def _steps(text: str) -> int:
    steps = read_int(text)
    if steps < 1:
        raise ValueError("step budget must be at least 1")
    return steps


def _endpoint(text: str) -> tuple[str, int]:
    # An IPv6 host may be bracketed ([::1]:9000) or not (::1:9000); the
    # port is always after the last colon.
    host, sep, port = text.rpartition(":")
    if host[:1] == "[" and host[-1:] == "]":
        host = host[1:-1]
    if not sep or not host:
        raise ValueError("expected HOST:PORT")
    return host, _port(port)


def build_parser() -> _Parser:
    parser = _Parser(prog="cycletrace", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze an instruction trace")
    p.add_argument("--model", required=True, help="machine model file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace file to analyze")
    src.add_argument("--connect", type=_endpoint, metavar="HOST:PORT",
                     help="pull the trace from a producer at HOST:PORT")
    src.add_argument("--listen", type=_port, metavar="PORT",
                     help="accept one producer connection on PORT")
    p.add_argument("--alias-policy", choices=[p.value for p in AliasPolicy],
                   default=AliasPolicy.METADATA.value,
                   help="memory aliasing assumption (default: metadata)")
    p.add_argument("--regions", help="region file restricting the analysis")
    p.add_argument("--timeline", type=_window, metavar="FIRST..LAST",
                   help="record and print a timeline for this seq_id window")
    p.add_argument("--out", help="write the analysis report (JSON) here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("diff", help="compare two analysis reports")
    p.add_argument("--base", required=True, help="baseline report file")
    p.add_argument("--cand", required=True, help="candidate report file")
    p.add_argument("--ground", help="measured cycle pairs for error reporting")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("trace", help="run a toy program, emit its trace")
    p.add_argument("--program", required=True, help="toy program file")
    dst = p.add_mutually_exclusive_group(required=True)
    dst.add_argument("--out", help="trace file to write ('-' for stdout)")
    dst.add_argument("--connect", type=_endpoint, metavar="HOST:PORT",
                     help="stream the trace to an analyzer at HOST:PORT")
    p.add_argument("--max-steps", type=_steps, default=100_000,
                   help="execution step budget (default: 100000)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("model-check", help="validate a machine model file")
    p.add_argument("--model", required=True, help="machine model file")
    p.set_defaults(func=_cmd_model_check)

    return parser


def _read(path: str, error: type = TraceParseError) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8") from None


def _cmd_analyze(args) -> int:
    model = load_model(_read(args.model, ModelError))
    regions = parse_regions(_read(args.regions)) if args.regions else None
    recorder = TimelineRecorder(args.timeline) if args.timeline else None

    if args.trace:
        broker = FileBroker(args.trace)
        source = args.trace
    elif args.connect:
        host, port = args.connect
        broker = SocketBroker.connect(host, port)
        # An IPv6 host is bracketed, so the port stays readable.
        source = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    else:
        print(f"listening on 127.0.0.1:{args.listen}", file=sys.stderr)
        broker = SocketBroker.listen(args.listen)
        source = f"listen:{args.listen}"

    try:
        report = analyze(
            model,
            broker,
            source=source,
            alias_policy=AliasPolicy(args.alias_policy),
            regions=regions,
            recorder=recorder,
        )
    finally:
        broker.close()

    if report.truncated:
        print("warning: trace ended without an end-of-stream marker",
              file=sys.stderr)
    sys.stdout.write(render_summary_block(report))
    if recorder is not None:
        text = render_timeline(recorder.rows)
        if text:
            sys.stdout.write("\n" + text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report.to_json())
    # A truncated stream still gets its summary and report, but no success.
    return 4 if report.truncated else 0


def render_summary_block(report: AnalysisReport) -> str:
    out = render_summary(report.summary)
    r = report.regions
    if r is not None:
        out += render_fields([("Region Visits", r.visits),
                              ("Region Instrs", r.instructions),
                              ("Region Cycles", r.cycles)])
    return out


def _cmd_diff(args) -> int:
    from .diff import (
        diff_reports,
        measured_delta_from_pairs,
        parse_ground_truth,
        render_diff,
    )

    base = AnalysisReport.from_json(_read(args.base))
    cand = AnalysisReport.from_json(_read(args.cand))
    measured = None
    if args.ground:
        measured = measured_delta_from_pairs(parse_ground_truth(_read(args.ground)))
    sys.stdout.write(render_diff(diff_reports(base, cand, measured)))
    return 0


def _cmd_trace(args) -> int:
    from .toyisa import execute, parse_program

    program = parse_program(_read(args.program))
    # Each instruction is written or sent as it executes, so a run cut
    # short keeps what it produced; a stream it cuts short ends without
    # the end frame, and the analyzer records the truncation too.
    instructions = execute(program, max_steps=args.max_steps)
    try:
        if args.connect:
            host, port = args.connect
            send_trace(host, port, instructions, model_hint=args.program)
        elif args.out == "-":
            try:
                sys.stdout.writelines(render_trace((i,)) for i in instructions)
                sys.stdout.flush()
            except BrokenPipeError:
                # The reader stopped early (`trace --out - | head`); what is
                # still buffered goes to devnull, not to a failing exit flush.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 0
        else:
            with open(args.out, "w", encoding="utf-8") as f:
                f.writelines(render_trace((i,)) for i in instructions)
    except TruncatedTraceError as e:
        print(f"warning: {e}", file=sys.stderr)
        return 4
    return 0


def _cmd_model_check(args) -> int:
    model = load_model(_read(args.model, ModelError))
    print(f"model '{model.name}' ok: dispatch width {model.dispatch_width}, "
          f"{len(model.classes)} classes, {len(model.resources)} resources")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (TraceParseError, ModelError, ProgramError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TruncatedTraceError as e:  # a stream cut before its first frame
        print(f"error: {e}", file=sys.stderr)
        return 4
    except ProtocolError as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return 3
    except AnalysisError as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
