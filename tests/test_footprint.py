"""What each entry point imports, read in fresh interpreters.

`import weil` gives the algebras and loads no command layer; `weil.cli`
loads the flat solver and leaves the check suites and the expression
language to the commands that run them, so `weil flat` neither compiles
nor holds them.  The deferred imports must still work from a cold start:
`check` and `eval`, run as `python -m weil.cli`, print what `cli.main`
prints in-process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weil
from weil.cli import main

SRC = str(Path(weil.__file__).parents[1])
LAYERS = ("weil.cli", "weil.flat", "weil.checks", "weil.expr")


def _run(args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _loaded_after(statement):
    """The command layers in sys.modules after `statement`, in a fresh
    interpreter."""
    proc = _run(["-c", f"import sys; {statement}; "
                       f"print(' '.join(m for m in {LAYERS!r} if m in sys.modules))"])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_import_weil_loads_no_command_layer():
    assert _loaded_after("import weil") == []


def test_import_weil_cli_loads_flat_alone():
    assert _loaded_after("import weil.cli") == ["weil.cli", "weil.flat"]


@pytest.mark.parametrize("argv", [
    ["check", "--builtin", "so3", "--samples", "2"],
    ["eval", "--builtin", "so3", "--rep", "trivial", "--quantum", "u1*x1"],
], ids=["check", "eval"])
def test_a_deferred_import_runs_from_a_cold_start(capsys, argv):
    proc = _run(["-m", "weil.cli", *argv])
    assert proc.returncode == 0, proc.stderr
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
