"""The README's quick start, run on the files in examples/.

Every command of the walk-through goes through main(argv) in a copy of
examples/, and what it prints must equal the README's output blocks.
"""

import re
import shlex
import shutil
from pathlib import Path

import pytest

from cycletrace.cli import main

ROOT = Path(__file__).resolve().parents[1]


def quick_start_blocks() -> list[tuple[str, str]]:
    """(language, text) of each fenced block in the README's quick start."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", section, re.S)


@pytest.fixture
def examples(tmp_path, monkeypatch):
    work = tmp_path / "examples"
    shutil.copytree(ROOT / "examples", work)
    monkeypatch.chdir(work)
    return work


def run(commands: str, capsys) -> str:
    """Run each `cycletrace ...` line through main; return the last's stdout.

    A README output block shows what the last command of the block above
    it prints.
    """
    for line in commands.splitlines():
        capsys.readouterr()
        argv = shlex.split(line)
        assert argv[0] == "cycletrace"
        assert main(argv[1:]) == 0, line
    return capsys.readouterr().out


def test_readme_listing_is_the_example_program():
    (lang, listing), *_ = quick_start_blocks()
    assert lang == ""
    assert listing == (ROOT / "examples" / "sum.toy").read_text()
    # sum-once.toy is sum.toy with the store moved after the ble.
    lines = listing.splitlines(keepends=True)
    store = lines.pop(lines.index("    store r4, r5\n"))
    lines.insert(lines.index("    ble r6, r9, loop\n") + 1, store)
    assert "".join(lines) == (ROOT / "examples" / "sum-once.toy").read_text()


def test_readme_quick_start_prints_what_it_shows(examples, capsys):
    _, analyze, summary, timeline, compare, diff = quick_start_blocks()
    assert [analyze[0], compare[0]] == ["sh", "sh"]
    assert run(analyze[1], capsys) == summary[1]

    command = analyze[1].splitlines()[-1].replace("--out report.json",
                                                  "--timeline 0..5")
    assert run(command, capsys) == summary[1] + "\n" + timeline[1]

    assert run(compare[1], capsys) == diff[1]
