#!/usr/bin/env python3
"""Run a fixed list of mutants against the tests that must kill them.

Each mutant replaces one piece of text, which must occur exactly once,
in one file of a fresh copy of `src/`, `tests/` and `scripts/` under a
temporary directory, and runs its tests there with a timeout, one mutant
at a time.  A mutant is killed when a test fails (pytest exit 1),
survives when they pass, and times out when they run past the limit; any
other pytest exit (a collection error, a test id not found) is an error.
The exit status is 1 if a mutant survived, errs or its text is missing,
else 0.

Usage: python scripts/mutate.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120  # per mutant; each runs in a few seconds

QUANTUM_TABLES = ["tests/test_quantum.py::test_tables_match_the_bracket_oracle",
                  "tests/test_quantum.py::test_operator_images_are_read_off_the_inner_elements"]
CLASSICAL_TABLES = ["tests/test_classical.py::test_tables_match_the_slot_oracle"]
BRACKET_CELLS = ["tests/test_element.py::test_cell_rule_is_tau_a_plus_s_a_tau",
                 *QUANTUM_TABLES, *CLASSICAL_TABLES]
CLOSURE_PREMISES = ["tests/test_flat.py::test_a_failed_premise_fails_the_closure"]
WRITTEN_ROWS = ["tests/test_flat.py::test_written_rows_solve_as_the_element_images"]
SOURCE_SCAN = ["tests/test_source.py::test_no_source_line_depends_on_python_O"]
CURVATURE_CHECK = ["tests/test_quantum.py::"
                   "test_curvature_cross_check_fires_on_a_wrong_four_term_formula"]
ONE_CONTEXT = ["tests/test_cli.py::test_check_takes_one_context"]
ROW_RULE = ["tests/test_flat.py::test_non_flat_vector_fails_exactly_the_rows_that_list_it",
            "tests/test_flat.py::test_an_added_vector_counts_alike_in_both_reports"]

# (name, file, old text, new text, tests)
MUTANTS = [
    ("bracket cells: A tau half with s fixed at -1", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += s * v", "cells[j * n + t, j * n + i] += -v",
     BRACKET_CELLS),
    ("bracket cells: A tau half transposed", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += s * v", "cells[j * n + i, j * n + t] += s * v",
     BRACKET_CELLS),
    ("bracket cells: a duplicate (out, in) overwritten, not summed", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += s * v", "cells[j * n + t, j * n + i] = s * v",
     BRACKET_CELLS),
    ("quantum split over r, not 2r", "src/weil/quantum.py",
     "(k, t, s, p, 2 * r)", "(k, t, s, p, r)", QUANTUM_TABLES),
    ("quantum split drops {tau, A}", "src/weil/quantum.py",
     "((1, pl + pr), (-1, pl - pr))", "((-1, pl - pr),)", QUANTUM_TABLES),
    ("quantum split drops [tau, A]", "src/weil/quantum.py",
     "((1, pl + pr), (-1, pl - pr))", "((1, pl + pr),)", QUANTUM_TABLES),
    ("classical endo terms with s = +1", "src/weil/classical.py",
     "endo_terms.append((key, t, -1, p, r))", "endo_terms.append((key, t, 1, p, r))",
     CLASSICAL_TABLES),
    ("quantum yx half unsigned", "src/weil/quantum.py",
     "yx = p1 if odd and len(k1[1]) & 1 else -p1", "yx = -p1", QUANTUM_TABLES),
    ("quantum M A and A M sides swapped", "src/weil/quantum.py",
     "(p1 * p, 0), r * r1)\n            for k, p, r in mono_mul(key, k1):\n"
     "                accumulate(sums, (k, t), (0, yx * p)",
     "(0, p1 * p), r * r1)\n            for k, p, r in mono_mul(key, k1):\n"
     "                accumulate(sums, (k, t), (yx * p, 0)", QUANTUM_TABLES),
    ("_cancel adds the pivot row", "src/weil/linalg.py",
     "y = row.get(j, 0) - v * x", "y = row.get(j, 0) + v * x", ["tests/test_linalg.py"]),
    ("closure: curvature images counted as 0", "src/weil/flat.py",
     "return sum(not alg._apply(i, alg.curvature).is_zero for i in range(2 * alg.lie.dim + 1))",
     "return 0", CLOSURE_PREMISES),
    ("closure: vector premises not counted", "src/weil/flat.py",
     "flat.curvature_image_failures + flat.commuting.count(False)",
     "flat.curvature_image_failures", CLOSURE_PREMISES),
    ("closure: all_closed ignores failures", "src/weil/flat.py",
     '"all_closed": failures == 0}', '"all_closed": True}', CLOSURE_PREMISES),
    ("rows list levels <= k for both kinds", "src/weil/flat.py",
     "level == k or (level < k and not alg.GRADED)", "level <= k", ROW_RULE),
    ("rows list level k alone for both kinds", "src/weil/flat.py",
     "level == k or (level < k and not alg.GRADED)", "level == k", ROW_RULE),
    ("flat rows: E_ij M half added, not subtracted", "src/weil/flat.py",
     "(0, k, mat, False, -p, r)", "(0, k, mat, False, p, r)", WRITTEN_ROWS),
    ("basic rows: endo terms with s = +1", "src/weil/flat.py",
     "(a, k, taus[t], False, s * p, r)", "(a, k, taus[t], False, p, r)", WRITTEN_ROWS),
    ("gamma cross-check as an assert", "src/weil/quantum.py",
     "if third * Fraction(1, 3) != gamma:\n            raise AssertionError(",
     "assert third * Fraction(1, 3) == gamma, (", SOURCE_SCAN),
    ("curvature cross-check under __debug__", "src/weil/quantum.py",
     "if curv != self.dirac_tau * self.dirac_tau:",
     "if __debug__ and curv != self.dirac_tau * self.dirac_tau:", SOURCE_SCAN),
    ("curvature cross-check compares the element with itself", "src/weil/quantum.py",
     "if curv != self.dirac_tau * self.dirac_tau:", "if curv != curv:", CURVATURE_CHECK),
    ("check takes --classical and --quantum together", "src/weil/cli.py",
     "if args.classical and args.quantum:", "if False:", ONE_CONTEXT),
]


def run_mutant(path, old, new, tests):
    """'killed', 'survived', 'timed out', 'error' or 'missing' (old text
    not found exactly once)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "missing"
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                                   *tests], cwd=tmp, env=env, timeout=TIMEOUT_S,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        except subprocess.TimeoutExpired:
            return "timed out"
        return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    counts = {}
    for name, path, old, new, tests in MUTANTS:
        start = time.perf_counter()
        outcome = run_mutant(path, old, new, tests)
        counts[outcome] = counts.get(outcome, 0) + 1
        print(f"{outcome:<10} {time.perf_counter() - start:6.1f} s  {name}", flush=True)
    print(", ".join(f"{counts.get(k, 0)} {k}"
                    for k in ("killed", "survived", "timed out", "error", "missing")))
    return 1 if any(counts.get(k) for k in ("survived", "error", "missing")) else 0


if __name__ == "__main__":
    sys.exit(main())
