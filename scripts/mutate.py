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
RENDER = ["tests/test_element.py::test_render_matches_the_fraction_oracle"]
POWERS = ["tests/test_expr.py::test_powers_are_repeated_products_of_the_base"]
FOOTPRINT = ["tests/test_footprint.py"]
INCLUSION = ["tests/test_flat.py::test_inclusion_columns_fail_when_flat_misses_the_basic_vectors"]
INCLUSION_ORACLE = ["tests/test_flat.py::test_inclusion_columns_match_the_rank_oracle"]
REPORT_DETAIL = ["tests/test_cli.py::test_report_prints_each_failing_identity_with_its_detail"]
WALK = ["tests/test_element.py::test_walk_matches_each_operator_apart",
        "tests/test_element.py::test_apply_into_with_sign_minus_one_cancels_the_operator"]
BRACKET_SIDES = ["tests/test_element.py::test_bracket_sides_sum_to_the_numeric_bracket"]
PRODUCTS = ["tests/test_element.py::test_product_and_supercommutator_match_the_oracles"]
RANDOM_DRAWS = ["tests/test_checks.py::test_random_draws_match_the_fraction_oracle"]
ROWS_ORACLE = ["tests/test_checks.py::test_rows_match_the_element_comparison_oracle"]
ROWS_UNDER_MUTANTS = ["tests/test_checks.py::test_rows_match_the_oracle_under_mutants"]
ROW_RULE = ["tests/test_flat.py::test_non_flat_vector_fails_exactly_the_rows_that_list_it",
            "tests/test_flat.py::test_an_added_vector_counts_alike_in_both_reports"]
# every table that reads `bracket_sides`: quantum images, flat rows, the [C, -] row
SIDES = [*BRACKET_SIDES, *QUANTUM_TABLES, *WRITTEN_ROWS, *ROWS_ORACLE]

# (name, file, old text, new text, tests)
MUTANTS = [
    ("cells: A M half with r fixed at -1", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += r * v", "cells[j * n + t, j * n + i] += -v",
     BRACKET_CELLS),
    ("cells: A M half transposed", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += r * v", "cells[j * n + i, j * n + t] += r * v",
     BRACKET_CELLS),
    ("cells: a duplicate (out, in) overwritten, not summed", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += r * v", "cells[j * n + t, j * n + i] = r * v",
     BRACKET_CELLS),
    ("cells: M A half ignores l", "src/weil/linalg.py",
     "cells[i * n + j, t * n + j] += l * v", "cells[i * n + j, t * n + j] += v",
     [*WRITTEN_ROWS, "tests/test_element.py::test_cell_rule_is_tau_a_plus_s_a_tau"]),
    ("quantum split over r, not 2r", "src/weil/quantum.py",
     "(k, t, s, p, 2 * r)", "(k, t, s, p, r)", QUANTUM_TABLES),
    ("quantum split drops {tau, A}", "src/weil/quantum.py",
     "((1, pl + pr), (-1, pl - pr))", "((-1, pl - pr),)", QUANTUM_TABLES),
    ("quantum split drops [tau, A]", "src/weil/quantum.py",
     "((1, pl + pr), (-1, pl - pr))", "((1, pl + pr),)", QUANTUM_TABLES),
    ("classical endo terms with s = +1", "src/weil/classical.py",
     "endo_terms.append((key, t, -1, p, r))", "endo_terms.append((key, t, 1, p, r))",
     CLASSICAL_TABLES),
    ("quantum yx half unsigned", "src/weil/element.py",
     "yx = 1 if len(k1[1]) & len(key[1]) & 1 else -1", "yx = -1",
     [*BRACKET_SIDES, *QUANTUM_TABLES]),
    ("quantum M A and A M sides swapped", "src/weil/element.py",
     "[(0, k, p, r) for k, p, r in self.mono_mul(k1, key)]\n                + [(1, k,",
     "[(1, k, p, r) for k, p, r in self.mono_mul(k1, key)]\n                + [(0, k,", SIDES),
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
    ("inclusion: basic_subset_flat without the flat premise", "src/weil/flat.py",
     '"basic_subset_flat": flat_ok and all(', '"basic_subset_flat": all(', INCLUSION),
    ("inclusion: s_basic_equals_flat without the rank", "src/weil/flat.py",
     "equal = span_rank(list(built.values())) == len(_at_level(alg, flat.levelled, k))",
     "equal = True", INCLUSION),
    ("inclusion: module premise without the [C, m] b term", "src/weil/flat.py",
     "basic.commuting[j]\n                     and (bracket(m) * basic.levelled[j][1]).is_zero)",
     "basic.commuting[j])", INCLUSION_ORACLE),
    ("report drops a failing identity's detail line", "src/weil/cli.py",
     'print(f"      {r.name}: {r.detail}")', "pass", REPORT_DETAIL),
    ("flat rows: E_ij M half added, not subtracted", "src/weil/element.py",
     "len(key[1]) & 1 else -1", "len(key[1]) & 1 else 1", SIDES),
    ("basic rows: endo terms with s = +1", "src/weil/flat.py",
     "(a, k, taus[t], 1, s, p, r)", "(a, k, taus[t], 1, 1, p, r)", WRITTEN_ROWS),
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
    ("a negative scalar printed without its sign", "src/weil/render.py",
     "neg = c < 0\n    mag = -c if neg else c", "neg = False\n    mag = abs(c)", RENDER),
    ("a scalar |c|/den printed as |c|", "src/weil/render.py",
     "format_ratio(mag, mat.den)", "str(mag)", RENDER),
    ("a power one product short", "src/weil/expr.py",
     "range(node.exponent - 1)", "range(node.exponent - 2)", POWERS),
    ("cli imports checks at module level", "src/weil/cli.py",
     "from . import ALGEBRAS, flat\n", "from . import ALGEBRAS, checks, flat\n", FOOTPRINT),
    ("quantum images skip tau_t terms in the other tensor factor", "src/weil/quantum.py",
     "if t is None and ((no_even", "if ((no_even", QUANTUM_TABLES),
    ("supercommuting halves summed as m1 m2 + m2 m1", "src/weil/element.py",
     "num = list(map(sub, num, m2._mul_num(m1)[0]))",
     "num = list(map(add, num, m2._mul_num(m1)[0]))", PRODUCTS),
    ("random_matrix over the max of the denominators, not the lcm", "src/weil/checks.py",
     "den = lcm(*{q.denominator for q in qs})", "den = max(q.denominator for q in qs)",
     RANDOM_DRAWS),
    ("row table: scalar entries drop {tau, I} at the first letter too", "src/weil/checks.py",
     "if scalar and not word and s == -1:", "if scalar and not word:", ROWS_ORACLE),
    ("row table: each row keeps only its first key'", "src/weil/checks.py",
     "entry.append((index, parts))", "entry.append((index, parts[:1]))", ROWS_UNDER_MUTANTS),
    ("row table: [C, -] adds the right product", "src/weil/element.py",
     "[(1, k, yx * p, r)", "[(1, k, -yx * p, r)", SIDES),
    ("walk ignores sign", "src/weil/element.py",
     "image, cells, taus = self.image_table, self.bracket_cells, self.rep.matrices",
     "image, cells, taus, sign = self.image_table, self.bracket_cells, self.rep.matrices, 1",
     WALK),
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
