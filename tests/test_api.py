"""The public API is what the README, the tests or the benchmark use."""

import re
from pathlib import Path

import cycletrace

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_is_used_or_documented():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for folder in ("tests", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            if path.name != Path(__file__).name:
                text += path.read_text(encoding="utf-8")
    unused = [name for name in cycletrace.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
