"""CLI outputs against goldens recorded before the element refactor.

`goldens/cli.json` holds, per case, a `weil` argument list with the
exit code and stdout it gave when recorded (see `goldens/record.py`),
and stderr for the expression-error cases.  Each case runs in-process
through `cli.main`; stdout, the exit code and any recorded stderr must
match byte for byte.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from weil.cli import main

CASES = json.loads((Path(__file__).parent / "goldens" / "cli.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_golden(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["argv"])
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    if "stderr" in case:
        assert err.getvalue() == case["stderr"]
