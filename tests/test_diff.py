"""Differential throughput math and diff reports."""

import math

import pytest

from cycletrace import (
    AliasPolicy,
    AnalysisError,
    SequenceBroker,
    TraceParseError,
    UndefinedRatioError,
    analyze,
    diff_reports,
    differential_throughput,
    geometric_mean,
    measured_delta_from_pairs,
    parse_ground_truth,
    prediction_error,
    render_diff,
)
from gen import make_class, make_model, ti


# -- ratio math ---------------------------------------------------------------

def test_identical_counts_give_exactly_one():
    assert differential_throughput(173, 173) == 1.0


def test_ratio_direction():
    assert differential_throughput(100, 150) == pytest.approx(1.5)
    assert differential_throughput(150, 100) == pytest.approx(2 / 3)


def test_swapped_ratios_multiply_to_one():
    d = differential_throughput(1234, 777)
    inv = differential_throughput(777, 1234)
    assert d * inv == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("base,cand", [(0, 10), (10, 0), (-1, 10), (10, -1)])
def test_non_positive_counts_are_undefined(base, cand):
    with pytest.raises(UndefinedRatioError, match="must be positive"):
        differential_throughput(base, cand)


@pytest.mark.parametrize("base,cand", [
    (math.nan, 3), (3, math.nan), (math.inf, 3), (3, math.inf)])
def test_non_finite_counts_are_undefined(base, cand):
    with pytest.raises(UndefinedRatioError, match="must be finite, got "):
        differential_throughput(base, cand)


def test_a_count_past_float_range_is_finite():
    assert differential_throughput(10**400, 2 * 10**400) == 2.0


def test_prediction_error_is_absolute():
    assert prediction_error(1.0, 1.0) == 0.0
    assert prediction_error(1.12, 1.10) == pytest.approx(0.02, abs=1e-12)
    assert prediction_error(1.10, 1.12) == pytest.approx(0.02, abs=1e-12)


def test_error_of_the_textbook_example():
    delta = differential_throughput(1000, 1100)
    assert prediction_error(delta, 1.12) == pytest.approx(0.02, abs=1e-12)


# -- geometric mean -----------------------------------------------------------

def test_geomean_basics():
    assert geometric_mean([2, 8]) == pytest.approx(4.0)
    assert geometric_mean([3]) == pytest.approx(3.0)
    assert geometric_mean([1, 1, 1]) == pytest.approx(1.0)


def test_geomean_of_a_zero_is_zero():
    assert geometric_mean([2, 0, 8]) == 0.0


def test_geomean_rejects_empty_and_negative():
    with pytest.raises(AnalysisError, match="empty"):
        geometric_mean([])
    with pytest.raises(AnalysisError, match="negative"):
        geometric_mean([1.0, -0.5])


@pytest.mark.parametrize("vals", [
    [math.nan, 2.0], [2.0, math.nan], [math.inf], [0.0, math.inf],
    [math.nan, 0.0]])
def test_geomean_rejects_non_finite_values(vals):
    with pytest.raises(AnalysisError, match="non-finite value"):
        geometric_mean(vals)


def test_geomean_is_scale_invariant():
    vals = [1.1, 0.9, 1.4, 0.7]
    scaled = [10 * v for v in vals]
    assert geometric_mean(scaled) == pytest.approx(10 * geometric_mean(vals))


def test_geomean_accepts_generators():
    assert geometric_mean(v for v in (2.0, 8.0)) == pytest.approx(4.0)


# -- diff reports -------------------------------------------------------------

def two_models():
    cls = [make_class("add", 1, uses=[("ALU", 1)])]
    fast = make_model(cls, name="twin", width=4, resources=[("ALU", 4)])
    slow = make_model(cls, name="twin", width=1, resources=[("ALU", 1)])
    return fast, slow


def test_diff_reports_end_to_end():
    fast, slow = two_models()
    insts = [ti(s, "add") for s in range(32)]
    base = analyze(fast, SequenceBroker(insts), source="fast.trace")
    cand = analyze(slow, SequenceBroker(insts), source="slow.trace")
    report = diff_reports(base, cand)
    assert report.model_name == "twin"
    assert report.base_source == "fast.trace"
    assert report.cand_source == "slow.trace"
    assert report.base_cycles == base.summary.total_cycles
    assert report.cand_cycles == cand.summary.total_cycles
    assert report.delta == pytest.approx(
        cand.summary.total_cycles / base.summary.total_cycles
    )
    assert report.measured_delta is None
    assert report.error is None


def test_self_diff_is_exactly_one(model):
    insts = [ti(s, "mul") for s in range(9)]
    a = analyze(model, SequenceBroker(insts))
    b = analyze(model, SequenceBroker(insts))
    assert diff_reports(a, b).delta == 1.0


def test_diff_with_ground_truth_attaches_error():
    fast, slow = two_models()
    insts = [ti(s, "add") for s in range(32)]
    base = analyze(fast, SequenceBroker(insts))
    cand = analyze(slow, SequenceBroker(insts))
    predicted = cand.summary.total_cycles / base.summary.total_cycles
    report = diff_reports(base, cand, measured_delta=predicted + 0.25)
    assert report.measured_delta == pytest.approx(predicted + 0.25)
    assert report.error == pytest.approx(0.25, abs=1e-12)


def test_diff_rejects_mismatched_models(model):
    other = make_model([make_class("add", 1)], name="other")
    a = analyze(model, SequenceBroker([ti(0, "add")]))
    b = analyze(other, SequenceBroker([ti(0, "add")]))
    with pytest.raises(AnalysisError, match="different models"):
        diff_reports(a, b)


def test_diff_rejects_mixed_alias_policies(model):
    insts = [ti(0, "store", stores=[(0x10, 8)]), ti(1, "load", loads=[(0, 8)])]
    a = analyze(model, SequenceBroker(insts))
    b = analyze(model, SequenceBroker(insts), alias_policy=AliasPolicy.ALL)
    with pytest.raises(AnalysisError,
                       match="alias_policy 'metadata' vs 'all'"):
        diff_reports(a, b)


def test_diff_rejects_a_truncated_report_on_either_side(model):
    whole = analyze(model, SequenceBroker([ti(0, "add")]))
    cut = whole._replace(truncated=True)
    for role, (base, cand) in (("baseline", (cut, whole)),
                               ("candidate", (whole, cut))):
        with pytest.raises(AnalysisError,
                           match=f"the {role} report has truncated: true"):
            diff_reports(base, cand)


# -- ground truth files -------------------------------------------------------

def test_parse_ground_truth():
    pairs = parse_ground_truth(
        """
        # measurements from hardware counters
        G 1000 1100
        G 400 380     # second workload
        """
    )
    assert pairs == [(1000.0, 1100.0), (400.0, 380.0)]


@pytest.mark.parametrize("text,match", [
    ("H 1 2\n", "bad ground-truth line"),
    ("G 1\n", "bad ground-truth line"),
    ("G 1 2 3\n", "bad ground-truth line"),
    ("G one two\n", "bad cycle count"),
    ("G nan 5\n", "bad cycle count"),
    ("G 10 inf\n", "bad cycle count"),
    ("G 1 2\nG -inf 2\n", "line 2: bad cycle count"),
    ("", "no measurements"),
    ("G 0 5\n", "bad cycle count"),
    ("G 4 -1\n", "bad cycle count"),
    ("G 1 2\nG 3 0\n", "line 2: bad cycle count"),
    ("G \u0661\u0660 12\n", "bad cycle count"),
])
def test_parse_ground_truth_rejects(text, match):
    with pytest.raises(TraceParseError, match=match):
        parse_ground_truth(text)


def test_measured_delta_aggregates_pairs_geometrically():
    pairs = [(100, 150), (100, 100), (200, 150)]
    expect = math.exp(
        (math.log(1.5) + math.log(1.0) + math.log(0.75)) / 3
    )
    assert measured_delta_from_pairs(pairs) == pytest.approx(expect, abs=1e-12)


def test_measured_delta_rejects_zero_cycle_pairs():
    with pytest.raises(UndefinedRatioError):
        measured_delta_from_pairs([(100, 110), (0, 50)])


# -- rendering ----------------------------------------------------------------

def test_render_diff_layout():
    fast, slow = two_models()
    insts = [ti(s, "add") for s in range(32)]
    base = analyze(fast, SequenceBroker(insts), source="a.trace")
    cand = analyze(slow, SequenceBroker(insts), source="b.trace")
    report = diff_reports(base, cand, measured_delta=diff_reports(base, cand).delta)
    text = render_diff(report)
    lines = text.splitlines()
    assert lines[0] == "Model:             twin"
    assert lines[1].startswith("Baseline:          a.trace (")
    assert lines[2].startswith("Candidate:         b.trace (")
    assert lines[3].startswith("Delta:             ")
    assert lines[4].startswith("Measured Delta:    ")
    assert lines[5] == "Prediction Error:  0.0000"
    # every label pads to the same value column
    assert all(line[18] == " " and line[19] != " " for line in lines)


def test_render_diff_without_ground_truth_omits_error_lines():
    fast, slow = two_models()
    insts = [ti(s, "add") for s in range(8)]
    report = diff_reports(
        analyze(fast, SequenceBroker(insts)),
        analyze(slow, SequenceBroker(insts)),
    )
    text = render_diff(report)
    assert "Measured Delta" not in text
    assert "Prediction Error" not in text
    assert text.count("\n") == 4
