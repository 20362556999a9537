"""CLI outputs against goldens and pins.

`goldens/cli.json` holds, per case, a `weil` argument list with the
exit code and stdout it gave when recorded (see `goldens/record.py`),
and stderr for the expression-error cases.  Each case runs in-process
through `cli.main`; stdout, the exit code and any recorded stderr must
match byte for byte.

`goldens/pins.json` holds larger runs, each pinned by the sha256 of its
stdout alone: deeper flat reports and full `weil check` outputs.  A pin
says why it is there (`why`) and how long it may take (`budget_s`); its
argv runs from the goldens directory, so `--file so3-half.json` names
the algebra file there.  The pins are anchors: `record.py` never writes
them, and no hash is re-recorded.
"""

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

import pytest

from weil.cli import main

GOLDENS = Path(__file__).parent / "goldens"
CASES = json.loads((GOLDENS / "cli.json").read_text(encoding="utf-8"))
PINS = json.loads((GOLDENS / "pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_golden(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(case["argv"])
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    if "stderr" in case:
        assert err.getvalue() == case["stderr"]


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
def test_cli_pin(pin, monkeypatch):
    monkeypatch.chdir(GOLDENS)
    argv = " ".join(pin["argv"])
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(pin["argv"])
    seconds = time.perf_counter() - start
    assert code == 0, f"weil {argv}: exit {code}"
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == pin["sha256"], f"weil {argv}: sha256 {digest}, pinned {pin['sha256']}"
    assert seconds < pin["budget_s"], f"weil {argv}: {seconds:.1f} s, budget {pin['budget_s']} s"
