import random

import pytest

import gen
from cycletrace import brokers, trace


@pytest.fixture(autouse=True)
def fresh_intern_tables():
    """Start each test with every intern table empty, whatever ran first."""
    trace._LINE_MIDDLES.clear()
    trace._LINE_ACCESSES.clear()
    trace._MIDDLES.clear()
    trace._CONTEXT_TEXT.clear()
    brokers._WIRE_REG_LISTS.clear()


@pytest.fixture
def model():
    return gen.simple_model()


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One verdict line per acceptance guarantee at the end of a run."""
    entries = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, ()):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if getattr(rep, "when", "call") != "call" and outcome == "passed":
                continue
            name = nodeid.split("::")[-1]
            entries.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if entries:
        terminalreporter.write_sep("-", "acceptance verdicts")
        for name, verdict in entries:
            terminalreporter.write_line(f"{verdict}  {name}")
