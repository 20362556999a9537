"""Every test and path that CI names exists.

The workflow and the mutant lists of `scripts/mutate.py` name tests as
`tests/<file>.py::<name>` and scripts and data by their paths, and a
runner is the only other place a stale name would fail.  Both files are
read as text (the script's strings through `ast`, so that adjacent
literals join); a test id's parameter brackets are not part of its name.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LISTS = [ROOT / ".github" / "workflows" / "tests.yml", ROOT / "scripts" / "mutate.py"]
TEST_ID = re.compile(r"(tests/\w+\.py)::(\w+)")
PATH = re.compile(r"\b(?:src|tests|scripts)/[\w/.-]+\.(?:py|json)\b")


def _strings(path):
    """The workflow's text, or every string constant of a script."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return [text]
    return [node.value for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def _test_functions(path):
    """The names of the module-level test functions in `path`."""
    if not path.is_file():
        return set()
    return {node.name for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")}


@pytest.mark.parametrize("listing", LISTS, ids=lambda path: path.name)
def test_every_named_test_and_path_exists(listing):
    strings = _strings(listing)
    ids = {m.groups() for s in strings for m in TEST_ID.finditer(s)}
    paths = {m[0] for s in strings for m in PATH.finditer(s)}
    assert ids and paths
    assert sorted(f"{file}::{name}" for file, name in ids
                  if name not in _test_functions(ROOT / file)) == []
    assert sorted(path for path in paths if not (ROOT / path).exists()) == []
