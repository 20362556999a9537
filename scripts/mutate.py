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
ROWS_GUARD = ["tests/test_flat.py::test_rows_hold_no_zero_and_no_copy"]
SOURCE_SCAN = ["tests/test_source.py::test_no_source_line_depends_on_python_O"]
CURVATURE_CHECK = ["tests/test_quantum.py::"
                   "test_curvature_cross_check_fires_on_a_wrong_four_term_formula"]
ONE_CONSTRUCTION = ["tests/test_quantum.py::"
                    "test_distinguished_elements_equal_the_term_by_term_oracles"]
QUOTIENT = ["tests/test_symbol.py::test_the_quantum_quotient_is_acyclic"]
QUANTUM_CURVATURE = ["tests/test_quantum.py::test_curvature_trivial_cases"]
CLASSICAL_CURVATURE = ["tests/test_classical.py::test_curvature_closed_and_squares"]
ONE_CONTEXT = ["tests/test_cli.py::test_check_takes_one_context"]
RENDER = ["tests/test_element.py::test_render_matches_the_fraction_oracle"]
POWERS = ["tests/test_expr.py::test_powers_are_repeated_products_of_the_base"]
CHAINS = ["tests/test_expr.py::test_parse_precedence_and_whitespace"]
FOOTPRINT = ["tests/test_footprint.py"]
INCLUSION = ["tests/test_flat.py::test_inclusion_columns_fail_when_flat_misses_the_basic_vectors"]
INCLUSION_ORACLE = ["tests/test_flat.py::test_inclusion_columns_match_the_rank_oracle"]
REPORT_DETAIL = ["tests/test_cli.py::test_report_prints_each_failing_identity_with_its_detail"]
BRACKET_TERMS = ["tests/test_element.py::test_bracket_sides_sum_to_the_numeric_bracket"]
ALPHABET = ["tests/test_element.py::test_the_alphabet_stays_bounded"]
SPLIT_PRODUCTS = ["tests/test_quantum.py::test_images_sum_terms_over_differing_denominators"]
PREPARED = ["tests/test_element.py::test_prepared_brackets_match_the_per_call_oracle"]
PRODUCTS = ["tests/test_element.py::test_product_and_supercommutator_match_the_oracles"]
RANDOM_DRAWS = ["tests/test_checks.py::test_random_draws_match_the_fraction_oracle"]
ROWS_ORACLE = ["tests/test_checks.py::test_rows_match_the_element_comparison_oracle"]
ROWS_UNDER_MUTANTS = ["tests/test_checks.py::test_rows_match_the_oracle_under_mutants"]
STRUCTURE_WITNESSES = ["tests/test_checks.py::test_the_structure_rows_name_each_failing_witness",
                       "tests/test_checks.py::test_a_wrong_clifford_coefficient_fails_its_rows"]
DENSE_VALIDATION = ["tests/test_lie.py::test_sparse_validation_matches_dense_oracle"]
NAMED_REPS = ["tests/test_cli.py::test_file_reps_may_take_any_name_but_trivial_and_adjoint"]
FORM_SIZE = ["tests/test_lie.py::test_an_identity_form_of_the_wrong_size_is_not_orthonormal"]
ROW_RULE = ["tests/test_flat.py::test_non_flat_vector_fails_exactly_the_rows_that_list_it",
            "tests/test_flat.py::test_an_added_vector_counts_alike_in_both_reports"]
# every table that reads `bracket_terms`: quantum images, flat rows, the [C, -] row
SIDES = [*BRACKET_TERMS, *QUANTUM_TABLES, *WRITTEN_ROWS, *ROWS_ORACLE]

# (name, file, old text, new text, tests)
MUTANTS = [
    ("cells: A M half with s fixed at -1", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += s * v", "cells[j * n + t, j * n + i] += -v",
     BRACKET_CELLS),
    ("cells: A M half transposed", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += s * v", "cells[j * n + i, j * n + t] += s * v",
     BRACKET_CELLS),
    ("cells: a duplicate (out, in) overwritten, not summed", "src/weil/linalg.py",
     "cells[j * n + t, j * n + i] += s * v", "cells[j * n + t, j * n + i] = s * v",
     BRACKET_CELLS),
    ("cells: M A half also times s", "src/weil/linalg.py",
     "cells[i * n + j, t * n + j] += v", "cells[i * n + j, t * n + j] += s * v",
     [*WRITTEN_ROWS, "tests/test_element.py::test_cell_rule_is_tau_a_plus_s_a_tau"]),
    ("letters: s flipped when registered", "src/weil/element.py",
     "self.letters.append((mat, s, mat._cells(s)))",
     "self.letters.append((mat, -s, mat._cells(-s)))", [*CLASSICAL_TABLES, *ALPHABET]),
    ("letters: each lookup registers a new letter", "src/weil/element.py",
     "t = self._letter_ids.get((mat, s))", "t = None", ALPHABET),
    ("quantum split over r, not 2r", "src/weil/element.py",
     "halves.append((k, letters[s], p, 2 * r))", "halves.append((k, letters[s], p, r))",
     QUANTUM_TABLES),
    ("quantum split drops {tau, A}", "src/weil/element.py",
     "add_ratio(sums, (k, part, 1), plus * p, r)", "pass", QUANTUM_TABLES),
    ("quantum split drops [tau, A]", "src/weil/element.py",
     "add_ratio(sums, (k, part, -1), minus * p, r)", "pass", QUANTUM_TABLES),
    ("bracket_terms: each c I term overwrites its key's sum", "src/weil/element.py",
     "add_ratio(sums, (k, None, 0), plus * c * p, den * r)",
     "sums[k, None, 0] = (plus * c * p, den * r)", SPLIT_PRODUCTS),
    ("add_ratio: a sum over another denominator rescales only the new term",
     "src/weil/element.py", "q * (r // g) + p * (d // g)", "q + p * (d // g)", SPLIT_PRODUCTS),
    ("operand: a c I part prepared as a letter part", "src/weil/element.py",
     "None if c is not None else [mat, None, None]", "[mat, None, None]", PREPARED),
    ("classical End V images with s = +1", "src/weil/classical.py",
     "self.letter(t, -1)", "self.letter(t, 1)", CLASSICAL_TABLES),
    ("quantum yx half unsigned", "src/weil/element.py",
     "yx = 1 if odd1 & odd else -1", "yx = -1", [*BRACKET_TERMS, *QUANTUM_TABLES]),
    ("quantum M A and A M sides swapped", "src/weil/element.py",
     "((k1, key, 1, 1), (key, k1, yx, -yx))", "((k1, key, yx, -yx), (key, k1, 1, 1))", SIDES),
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
     "odd1 & odd else -1", "odd1 & odd else 1", SIDES),
    ("rows: every letter's cells taken with s = +1", "src/weil/flat.py",
     "maps = {t: (cells, mat.den)", "maps = {t: (mat._cells(1), mat.den)", WRITTEN_ROWS),
    ("rows: a cancelled cell kept as a zero entry", "src/weil/flat.py",
     "add_term(group[out], base + c, scale * v)",
     "group[out][base + c] = group[out].get(base + c, 0) + scale * v", ROWS_GUARD),
    ("rows: each row copied to drop its zeros", "src/weil/flat.py",
     "return [row for group in rows.values() for row in group if row]",
     "return [r for r in ({c: v for c, v in row.items() if v}\n"
     "                        for group in rows.values() for row in group) if r]", ROWS_GUARD),
    ("inner table: d's entry is D, not D + x_a tau_a", "src/weil/quantum.py",
     "if i < 2 * n else self.dirac_tau)", "if i < 2 * n else self.dirac)", QUANTUM_TABLES),
    ("gamma = (1/2) x_a g_a", "src/weil/quantum.py",
     "return Fraction(1, 3) * sum(", "return Fraction(1, 2) * sum(",
     [*ONE_CONSTRUCTION, *QUOTIENT]),
    ("curvature: sum_a (u_a + tau_a)^2 without its 1/2", "src/weil/quantum.py",
     "self.zero()) * Fraction(1, 2)", "self.zero()) * 1", [*ONE_CONSTRUCTION, *QUANTUM_CURVATURE]),
    ("classical curvature without its tau_1 term", "src/weil/classical.py",
     "self.tau(a) for a in range(self.lie.dim)", "self.tau(a) for a in range(1, self.lie.dim)",
     [*ONE_CONSTRUCTION, *CLASSICAL_CURVATURE]),
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
     "range(exponent - 1)", "range(exponent - 2)", POWERS),
    ("a chain's '-' evaluated as '+'", "src/weil/expr.py",
     '"-": operator.sub', '"-": operator.add', CHAINS),
    ("cli imports checks at module level", "src/weil/cli.py",
     "from . import ALGEBRAS, flat\n", "from . import ALGEBRAS, checks, flat\n", FOOTPRINT),
    ("brackets skip non-scalar parts in the other tensor factor", "src/weil/element.py",
     "if letters is None and ((no_even", "if ((no_even", QUANTUM_TABLES),
    ("supercommuting halves summed as m1 m2 + m2 m1", "src/weil/element.py",
     "num = list(map(sub, num, m2._mul_num(m1)[0]))",
     "num = list(map(add, num, m2._mul_num(m1)[0]))", PRODUCTS),
    ("random_matrix over the max of the denominators, not the lcm", "src/weil/checks.py",
     "den = lcm(*{r for _, r in pairs})", "den = max(r for _, r in pairs)",
     RANDOM_DRAWS),
    ("row table: scalar entries drop {tau, I} at the first letter too", "src/weil/checks.py",
     "scalar and not word and letters[t][1] == -1", "scalar and not word", ROWS_UNDER_MUTANTS),
    ("row table: each row keeps only its first key'", "src/weil/checks.py",
     "entry.append((index, parts))", "entry.append((index, parts[:1]))", ROWS_UNDER_MUTANTS),
    ("rows: [L_a,iota_b] witness names b before a", "src/weil/checks.py",
     'f", a={a + 1}, b={b + 1}"', 'f", a={b + 1}, b={a + 1}"', ROWS_UNDER_MUTANTS),
    ("rows: d.d without - [C, -]", "src/weil/checks.py",
     "((d + 1, -1, 1),)", "()", ROWS_ORACLE),
    ("row table: [C, -] adds the right product", "src/weil/element.py",
     "(key, k1, yx, -yx)", "(key, k1, -yx, yx)", SIDES),
    ("restriction rows: a key's d image drops its first term", "src/weil/checks.py",
     "alg.differential(alg.element({key: ident}))",
     "alg.element(dict(list(alg.differential(alg.element({key: ident})).terms.items())[1:]))",
     ROWS_ORACLE),
    ("lemma row: the image leaves out v^1 L_1", "src/weil/checks.py",
     "alg.lie_derivative(a, one) for a in range(lie.dim)",
     "alg.lie_derivative(a, one) for a in range(1, lie.dim)", ROWS_ORACLE),
    ("reference: d y^a with +1/2 f, not -1/2 f", "src/weil/checks.py",
     "dy[a] = dy[a] - y(j) * y(k) * (q / 2)", "dy[a] = dy[a] + y(j) * y(k) * (q / 2)",
     ROWS_ORACLE),
    ("quantum restriction image without its iota_a(X) tau_a terms", "src/weil/checks.py",
     "products_into(acc, alg.contraction(a, x), alg.tau(a), False, -1)", "pass", ROWS_ORACLE),
    ("exact rule: a row names only its first failing witness", "src/weil/checks.py",
     "cases if left != right])", "cases if left != right][:1])", STRUCTURE_WITNESSES),
    ("sampled rule: each draw checked on its first image only", "src/weil/checks.py",
     "zip(found, rows):", "zip(found, rows[:1]):", ROWS_UNDER_MUTANTS),
    ("antisymmetry pass also reads the a = b keys", "src/weil/lie.py",
     "if a < b and other is not None", "if a <= b and other is not None", DENSE_VALIDATION),
    ("catalog drops the extra reps", "src/weil/lie.py",
     '"adjoint": adjoint_rep(lie), **reps}', '"adjoint": adjoint_rep(lie)}', NAMED_REPS),
    ("orthonormal form read as any identity matrix", "src/weil/lie.py",
     "self.form.matrix == Matrix.identity(self.dim)", "self.form.is_orthonormal", FORM_SIZE),
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
