"""No check in `weil` is one that `python -O` strips.

`python -O` removes `assert` statements and the code conditional on
`__debug__`, and sets `sys.flags.optimize`; nothing else changes
(https://docs.python.org/3/using/cmdline.html#cmdoption-O).  So a
package whose source uses none of the three computes and prints the same
under `python` and `python -O`, for every input.  The scan reads every
module of the imported package, wherever it was imported from.
"""

import ast
from pathlib import Path

import pytest

import weil

PACKAGE = Path(weil.__file__).parent


def optimize_dependent(source):
    """(line, what) for each node of `source` whose effect `-O` changes."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "use of __debug__"
        elif isinstance(node, ast.Attribute) and node.attr == "optimize":
            yield node.lineno, "read of .optimize"


def test_the_scan_finds_each_form():
    source = ("assert x, 'msg'\n"
              "if __debug__ and y:\n"
              "    pass\n"
              "level = sys.flags.optimize\n")
    assert sorted(optimize_dependent(source)) == [
        (1, "assert statement"), (2, "use of __debug__"), (4, "read of .optimize")]
    assert list(optimize_dependent("raise AssertionError('msg')\n")) == []


def test_no_source_line_depends_on_python_O():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert {"__init__.py", "cli.py", "quantum.py"} <= {path.name for path in paths}
    found = [f"{path}:{line}: {what}"
             for path in paths
             for line, what in optimize_dependent(path.read_text(encoding="utf-8"))]
    assert found == []


def test_every_module_and_script_parses_with_the_python_3_10_grammar():
    """pyproject declares Python >= 3.10, so every module of `weil` and every
    script under `scripts/` must parse under the 3.10 grammar.  This checks
    the grammar only, on a best-effort basis: `feature_version` rejects
    syntax such as `except*` (3.11), not a library call that 3.10 lacks."""
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(scripts.glob("*.py"))]:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
