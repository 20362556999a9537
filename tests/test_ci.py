"""Every test and path that CI names exists.

The workflow and the mutant lists of `scripts/mutate.py` name tests as
`tests/<file>.py::<name>` and scripts and data by their paths, and a
runner is the only other place a stale name would fail.  Both files are
read as text (the script's strings through `ast`, so that adjacent
literals join); a test id's parameter brackets are not part of its name.

The `weil` lines of the workflow's "Installed console script" step are
also run here, in-process through `cli.main` from the repository root, so
that a renamed flag or a moved file fails this suite and not only a
runner.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from weil.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
LISTS = [WORKFLOW, ROOT / "scripts" / "mutate.py"]
TEST_ID = re.compile(r"(tests/\w+\.py)::(\w+)")
PATH = re.compile(r"\b(?:src|tests|scripts)/[\w/.-]+\.(?:py|json)\b")
# `test "$(weil ARGS)" = EXPECTED`: the command's stdout, trailing newlines
# dropped, must be EXPECTED
COMPARED = re.compile(r'test "\$\(weil (.*)\)" = (\S+)')


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


def _console_script_lines():
    """(argv, expected stdout or None) for each `weil` line of the
    "Installed console script" step.  The line run under an ASCII output
    encoding is left out: `test_cli.py::test_text_is_utf8_whatever_the_locale`
    runs that case in a fresh process."""
    step = WORKFLOW.read_text(encoding="utf-8").split("- name: Installed console script")[1]
    lines = []
    for line in (s.strip() for s in step.split("- name:")[0].splitlines()):
        if line.startswith("weil "):
            lines.append((shlex.split(line)[1:], None))
        elif m := COMPARED.fullmatch(line):
            lines.append((shlex.split(m[1]), m[2]))
        elif "weil " in line and not line.startswith("#"):
            assert "PYTHONIOENCODING=ascii" in line, f"a weil line not replayed: {line}"
    return lines


@pytest.mark.parametrize("argv, expected", [pytest.param(*line, id=" ".join(line[0]))
                                             for line in _console_script_lines()])
def test_console_script_lines_pass_in_process(argv, expected, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    if expected is not None:
        assert capsys.readouterr().out.rstrip("\n") == expected
