"""The public API is what the README, the tests or the benchmark use."""

import re
from pathlib import Path

import cycletrace
from cycletrace import model

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


def test_readme_names_every_model_key():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = text.split("**Machine model**", 1)[1].split("\n\n", 1)[0]
    keys = set()
    for table in (model._MODEL, model._RESOURCE, model._CLASS, model._USE):
        keys.update(table)
    missing = [key for key in sorted(keys)
               if not re.search(rf"\b{key}\b", paragraph)]
    assert missing == []


def test_readme_names_only_pipeline_methods_that_exist():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"\bPipeline\.(\w+)\(", text))
    assert "feed" in named
    missing = [name for name in sorted(named)
               if not hasattr(cycletrace.Pipeline, name)]
    assert missing == []
