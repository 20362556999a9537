#!/usr/bin/env python3
"""Record the CLI goldens that `tests/test_goldens.py` replays.

Each case is a `weil` argument list; its exit code and stdout are run
in-process through `weil.cli.main` and written to `cli.json` next to
this file.  The expression-error cases (`ERRORS`) record stderr too, so
that each error message and its position are pinned.  Record once, from
the commit whose outputs are the reference, and re-record only when an
output is meant to change:

    PYTHONPATH=src python3 tests/goldens/record.py

It does not write `pins.json`: those sha256 pins of larger runs are
anchors, each recorded at an earlier commit, and are never re-recorded.
"""

import contextlib
import io
import json
from pathlib import Path

from weil.cli import main

OUT = Path(__file__).with_name("cli.json")

CONTEXTS = {"abelian(2)": ("classical", "quantum"), "heisenberg3": ("classical",),
            "so3": ("classical", "quantum"), "sl2": ("classical",)}

DEGREE_THREE = [("so3", "quantum"), ("so3", "classical"), ("sl2", "classical"),
                ("heisenberg3", "classical")]

SO3_ADJOINT ="[[0,0,0],[0,0,-1],[0,1,0]]"

EVALS = {
    ("adjoint", "classical"): [
        "d(C)", "d(y1)", "d(v2)", "L(1, v2*y3)", "iota(2, y1*y2*y3)", "comm(C, y1)",
        "d(d(y1))", "[[1,0,0],[0,2,0],[0,0,-1]]*v1 + tau(2)", "comm(tau(1), tau(2))",
        "d([[0,1,0],[0,0,0],[0,0,0]])", "C*C - 2*v1*tau(1)", "u1",
    ],
    ("trivial", "classical"): ["d(y1*y2)", "v1^3*y2 - 1/2*v2", "L(2, v1*y3)"],
    ("adjoint", "quantum"): [
        "QC", "comm(QC, u1)", "d(x1)", "L(3, u1*x2)", "iota(1, gamma)", "Dirac*Dirac",
        "comm(Dirac, x2)", f"{SO3_ADJOINT}*u1 + tau(1)*x1", "d(u2) - comm(Dirac, u2)", "C",
        "comm(QC, u1*tau(1))",
    ],
    ("trivial", "quantum"): [
        "gamma*gamma", "Dirac*Dirac", "u3^2*u1^2", "(u1*x1)^3", "comm(u1, u2)", "d(d(x1))",
    ],
}

# classical eval on algebras other than so3: a non-adjoint rep, structure
# constants of +-2 and a nilpotent adjoint; (builtin, rep) -> expressions
MAT2, UNIT2 = "[[1,2],[3,4]]", "[[1,0],[0,0]]"
MAT3, UNIT3 = "[[1,2,0],[0,3,4],[5,0,6]]", "[[1,0,0],[0,0,0],[0,0,0]]"
CLASSICAL_EVALS = {
    (name, rep): [
        f"d(v3*y1*y2*{mat})", f"L(3, v1^2*y2*{mat})", f"L(1, y1*y3*{mat} + 1/2*v2)",
        f"iota(2, y1*y2*y3*{mat})", f"d(d(v1*y2*{unit}))", "L(1, v2^2*y3*tau(1))",
        "d(tau(1)*y3)", "d(3*v1*y2 - 1/2*y1*y3)", "d(C)", f"d(y1*y2*y3*{mat})",
    ]
    for name, rep, mat, unit in (("sl2", "standard", MAT2, UNIT2),
                                 ("sl2", "adjoint", MAT3, UNIT3),
                                 ("heisenberg3", "adjoint", MAT3, UNIT3))
}
# all five calls of the expression language in one expression
CLASSICAL_EVALS[("sl2", "standard")].append("comm(tau(1), L(2, iota(1, d(v3*y1*tau(2)))))")

# full `weil check` runs at 5 samples, (builtin, rep, context): on so3 trivial
# every End V part is a 1x1 scalar, so every matrix product takes the scalar
# path; sl2's structure constants of +-2 scale End V parts by non-unit
# integers, and its standard rep is a 2-dimensional non-adjoint one;
# heisenberg3 has a nilpotent adjoint
CHECKS = [("so3", "adjoint", "classical"), ("sl2", "adjoint", "classical"),
          ("sl2", "standard", "classical"), ("heisenberg3", "adjoint", "classical"),
          ("so3", "adjoint", "quantum"), ("so3", "trivial", "quantum")]

# each fails (exit 2) at a different point of the grammar or the evaluator:
# every call form, rationals, matrices, exponents, names and generators
ERRORS = {
    ("so3", "adjoint", "classical"): [
        "tau", "tau(x)", "tau(1", "tau(4)", "d()", "d(y1", "L(v1)", "L(1 v1)", "L(4, v1)",
        "iota(0, y1)", "comm(v1)", "comm(v1 v2)", "comm(v1, v2", "1/0", "2/", "[[1,-2/00]]",
        "[[1,2],[3]]", "u1^33", "foo(1)", "QC", "v1 +",
    ],
    # u1 and C on the adjoint rep are stdout rows above
    ("so3", "trivial", "classical"): ["u1"],
    ("so3", "trivial", "quantum"): ["C"],
}


def cases():
    out = [["report", "--all-builtins"], ["report", "--all-builtins", "--max-degree", "2"]]
    out += [["check", "--builtin", name, "--rep", rep, f"--{context}", "--samples", "5"]
            for name, rep, context in CHECKS]
    for name, contexts in CONTEXTS.items():
        for context in contexts:
            for rep in ("adjoint", "trivial"):
                for n in (1, 2):
                    # so3 quantum adjoint at N = 2 is the benchmark's flat golden
                    if (name, context, rep, n) == ("so3", "quantum", "adjoint", 2):
                        continue
                    out.append(["flat", "--builtin", name, "--rep", rep, f"--{context}",
                                "--max-degree", str(n), "--json"])
    # one deeper report each: four levels, three of them past degree 0
    for name, context in DEGREE_THREE:
        out.append(["flat", "--builtin", name, "--rep", "adjoint", f"--{context}",
                    "--max-degree", "3", "--json"])
    for (rep, context), exprs in EVALS.items():
        for src in exprs:
            out.append(["eval", "--builtin", "so3", "--rep", rep, f"--{context}", src])
    for (name, rep), exprs in CLASSICAL_EVALS.items():
        for src in exprs:
            out.append(["eval", "--builtin", name, "--rep", rep, "--classical", src])
    return out


def error_cases():
    return [["eval", "--builtin", name, "--rep", rep, f"--{context}", src]
            for (name, rep, context), exprs in ERRORS.items() for src in exprs]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record():
    rows = []
    for argv in cases():
        code, stdout, _ = run(argv)
        rows.append({"argv": argv, "exit": code, "stdout": stdout})
    for argv in error_cases():
        code, stdout, stderr = run(argv)
        rows.append({"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr})
    OUT.write_text(json.dumps(rows, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    return rows


if __name__ == "__main__":
    print(f"recorded {len(record())} cases in {OUT}")
