"""Differential throughput: compare two analysis runs of related traces.

The quantity of interest is the ratio of candidate cycles to baseline
cycles.  A ratio above 1.0 means the candidate is predicted slower.
When measured cycle counts are available the prediction error is the
absolute difference between the measured ratio and the predicted one,
and a set of such errors aggregates by geometric mean.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .analysis import AnalysisReport
from .errors import AnalysisError, TraceParseError, UndefinedRatioError
from .trace import read_records
from .views import render_fields


def differential_throughput(base_cycles: float, candidate_cycles: float) -> float:
    """Ratio of candidate to baseline cycles.

    Both counts must be positive and finite.
    """
    for role, cycles in (("baseline", base_cycles),
                         ("candidate", candidate_cycles)):
        if cycles <= 0:
            raise UndefinedRatioError(
                f"{role} cycle count must be positive, got {cycles}")
        # Refuses NaN and infinity; unlike math.isfinite it takes an
        # integer too large for a float.
        if not cycles < math.inf:
            raise UndefinedRatioError(
                f"{role} cycle count must be finite, got {cycles}")
    return candidate_cycles / base_cycles


def prediction_error(predicted_delta: float, measured_delta: float) -> float:
    return abs(measured_delta - predicted_delta)


def geometric_mean(values) -> float:
    vals = list(values)
    if not vals:
        raise AnalysisError("geometric mean of an empty sequence")
    for v in vals:
        if v < 0:
            raise AnalysisError(f"geometric mean of a negative value {v}")
        if not v < math.inf:
            raise AnalysisError(f"geometric mean of a non-finite value {v}")
    if 0 in vals:
        return 0.0
    return math.exp(sum(map(math.log, vals)) / len(vals))


DiffReport = namedtuple(
    "DiffReport", "model_name base_source cand_source base_cycles "
    "cand_cycles delta measured_delta error", defaults=(None, None))


def diff_reports(
    base: AnalysisReport,
    candidate: AnalysisReport,
    measured_delta: float | None = None,
) -> DiffReport:
    """Compare two reports of the same-named model, baseline first.

    Reports from different models, from different alias policies, or of
    a truncated stream are refused: their cycle counts do not measure
    the same thing.
    """
    if base.model_name != candidate.model_name:
        raise AnalysisError(
            "cannot compare runs from different models: "
            f"'{base.model_name}' vs '{candidate.model_name}'"
        )
    if base.alias_policy != candidate.alias_policy:
        raise AnalysisError(
            "cannot compare runs under different alias policies: "
            f"alias_policy '{base.alias_policy}' vs "
            f"'{candidate.alias_policy}'"
        )
    for role, report in (("baseline", base), ("candidate", candidate)):
        if report.truncated:
            raise AnalysisError(
                f"cannot compare a truncated run: the {role} report has "
                "truncated: true"
            )
    delta = differential_throughput(
        base.summary.total_cycles, candidate.summary.total_cycles
    )
    error = None
    if measured_delta is not None:
        error = prediction_error(delta, measured_delta)
    return DiffReport(
        model_name=base.model_name,
        base_source=base.source,
        cand_source=candidate.source,
        base_cycles=base.summary.total_cycles,
        cand_cycles=candidate.summary.total_cycles,
        delta=delta,
        measured_delta=measured_delta,
        error=error,
    )


def parse_ground_truth(text: str) -> list[tuple[float, float]]:
    """Parse measured cycle pairs, one 'G <base> <candidate>' per line."""
    pairs: list[tuple[float, float]] = []
    for lineno, body in read_records(text):
        fields = body.split()
        if len(fields) != 3 or fields[0] != "G":
            raise TraceParseError(f"bad ground-truth line: '{body}'", lineno)
        try:
            # float() would also read other scripts' digits.
            if not body.isascii():
                raise ValueError
            pair = (float(fields[1]), float(fields[2]))
            if not all(math.isfinite(c) and c > 0 for c in pair):
                raise ValueError
        except ValueError:
            raise TraceParseError(
                f"bad cycle count in ground-truth line: '{body}'", lineno
            ) from None
        pairs.append(pair)
    if not pairs:
        raise TraceParseError("ground-truth file has no measurements")
    return pairs


def measured_delta_from_pairs(pairs) -> float:
    """Aggregate measured pairs into one ratio (geomean of per-pair ratios)."""
    return geometric_mean(
        differential_throughput(b, c) for b, c in pairs
    )


def render_diff(report: DiffReport) -> str:
    fields = [
        ("Model", report.model_name),
        ("Baseline", f"{report.base_source or '-'} ({report.base_cycles} cycles)"),
        ("Candidate", f"{report.cand_source or '-'} ({report.cand_cycles} cycles)"),
        ("Delta", f"{report.delta:.4f}"),
    ]
    if report.measured_delta is not None:
        fields.append(("Measured Delta", f"{report.measured_delta:.4f}"))
        fields.append(("Prediction Error", f"{report.error:.4f}"))
    return render_fields(fields)
