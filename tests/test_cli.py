import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import weil
from weil import ALGEBRAS, Matrix, QuantumAlgebra, builtin, cli, expr
from weil.checks import random_element
from weil.cli import main
from weil.expr import render
from weil.lie import MAX_DIM, MAX_F_ENTRIES, MAX_LISTED, load_algebra_file, validate_lie
from weil.quantum import QuantumElement

SO3_FILE = """
{
  "dim": 3,
  "f": [[1, 2, 3, "1"], [2, 3, 1, "1"], [1, 3, 2, "-1"]],
  "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
}
"""

# one structure constant's target corrupted: [e2,e3] = e2 instead of e1
CORRUPTED_FILE = """
{
  "dim": 3,
  "f": [[1, 2, 3, "1"], [2, 3, 2, "1"], [1, 3, 2, "-1"]],
  "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
}
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# so3 with the sign of f(1,3,2) flipped: [e1,e3] = e2 still satisfies the
# Jacobi identity, but B = I is no longer invariant
NON_INVARIANT_FORM_FILE = """
{
  "dim": 3,
  "f": [[1, 2, 3, "1"], [2, 3, 1, "1"], [1, 3, 2, "1"]],
  "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
}
"""


def test_validate_builtin(capsys):
    code, out, _ = run(["validate", "--builtin", "so3"], capsys)
    assert code == 0
    assert "ok    lie algebra so3" in out
    assert "orthonormal" in out


def test_validate_file(tmp_path, capsys):
    path = tmp_path / "so3.json"
    path.write_text(SO3_FILE)
    code, out, _ = run(["validate", str(path)], capsys)
    assert code == 0


def test_validate_corrupted_file_names_triple(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(CORRUPTED_FILE)
    code, out, _ = run(["validate", str(path)], capsys)
    assert code == 1
    assert "jacobi violation at (1,2,3)" in out


def test_check_classical_exit_zero(capsys):
    code, out, _ = run(
        ["check", "--builtin", "so3", "--rep", "adjoint", "--classical", "--samples", "10"],
        capsys,
    )
    assert code == 0
    assert "pass  cartan formula" in out
    assert "all identities hold" in out


def test_check_quantum_exit_zero(capsys):
    code, out, _ = run(
        ["check", "--builtin", "so3", "--rep", "adjoint", "--quantum", "--samples", "10"],
        capsys,
    )
    assert code == 0
    assert "gamma" in out
    assert "all identities hold" in out


def test_check_corrupted_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(CORRUPTED_FILE)
    code, out, _ = run(
        ["check", "--file", str(path), "--rep", "adjoint", "--classical"], capsys
    )
    assert code == 1
    assert "jacobi violation at (1,2,3)" in out


def test_eval_golden(capsys):
    code, out, _ = run(
        ["eval", "--builtin", "so3", "--rep", "adjoint", "--classical", "d(C)"], capsys
    )
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(
        ["eval", "--builtin", "so3", "--rep", "trivial", "--quantum", "gamma*gamma"],
        capsys,
    )
    assert code == 0 and out.strip() == "-1/8"
    code, out, _ = run(
        ["eval", "--builtin", "abelian(2)", "--rep", "trivial", "--classical", "d(d(y1))"],
        capsys,
    )
    assert code == 0 and out.strip() == "0"


def test_eval_error_position(capsys):
    code, _, err = run(
        ["eval", "--builtin", "so3", "--rep", "adjoint", "--classical", "u1"], capsys
    )
    assert code == 2
    assert "1:1" in err and "classical" in err


def test_eval_bound_errors_exit_two_with_position(capsys):
    for expression, pos in (("1/0", "1:3"), ("[[1/0]]", "1:5"), ("u3^33*u1", "1:4"),
                            ("2*" + "1" * 5000, "1:3"), ("u" + "2" * 5000, "1:1")):
        code, out, err = run(
            ["eval", "--builtin", "so3", "--rep", "trivial", "--quantum", expression], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: {pos}: "), err
        assert "Traceback" not in err


def test_eval_degree_and_nesting_bounds_exit_two_with_position(capsys):
    """Both ended in a RecursionError traceback: the PBW kernel recurses once
    per degree, the parser once per nesting level."""
    nested = "(" * 1200 + "{g}1" + ")" * 1200
    for context, g in (("classical", "v"), ("quantum", "u")):
        for expression, pos, what in (
            (f"{g}3*({g}1^32)^25", "1:11", "polynomial degree 800 exceeds the limit 64"),
            (f"{g}1^32*{g}1^32*{g}1", "1:12", "polynomial degree 65 exceeds the limit 64"),
            (nested.format(g=g), "1:101", "nested deeper than 100 levels"),
        ):
            code, out, err = run(["eval", "--builtin", "so3", "--rep", "trivial",
                                  f"--{context}", expression], capsys)
            assert code == 2 and out == "", expression
            assert err.startswith(f"error: {pos}: ") and what in err, err
            assert "Traceback" not in err
        code, out, _ = run(["eval", "--builtin", "so3", "--rep", "trivial",
                            f"--{context}", f"{g}1^32*{g}1^32"], capsys)
        assert code == 0 and out == f"{g}1^64\n"


def test_eval_term_pair_bound_exits_two_with_position(capsys):
    """(u1+...+u12)^8 ran for 20 s and printed 2 MB; its fourth power step
    pairs 1,365 terms of degree 4 with 12 of degree 1, 65,520 pairs
    weighted by degree, past the bound, and fails at the power's `^`."""
    expression = "(" + "+".join(f"u{i}" for i in range(1, 13)) + ")^8"
    code, out, err = run(["eval", "--builtin", "abelian(12)", "--rep", "trivial", "--quantum",
                          expression], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: 1:{expression.rindex('^') + 1}: "), err
    assert "1365 by 12 terms (65520 pairs weighted by degree) exceeds the limit 50000" in err


def test_eval_deep_word_bound_exits_two_before_the_product(capsys, monkeypatch):
    """(u3^32+u2^32)*(u1^32+u2^32) on so3 weighs 4,096 pairs by degree,
    far under that bound, and took 9 s.  Weighted by squared degree it
    is (2 * 32^2)^2 = 4,194,304, past the 2^21 bound: it fails at its
    `*` before the 2 by 2 product is computed.  One pair of degree-32
    words, 2^20, is admitted without being weighed."""
    shapes, mul = [], QuantumElement.__mul__

    def spy(x, y):
        shapes.append((len(x.terms), len(getattr(y, "terms", ()))))
        return mul(x, y)

    monkeypatch.setattr(QuantumElement, "__mul__", spy)
    expression = "(u3^32+u2^32)*(u1^32+u2^32)"
    code, out, err = run(["eval", "--builtin", "so3", "--rep", "trivial", "--quantum",
                          expression], capsys)
    assert code == 2 and out == ""
    assert err == (f"error: 1:{expression.index('*') + 1}: a product of 2 by 2 terms "
                   "(4194304 pairs weighted by squared degree) exceeds the limit 2097152\n")
    assert (2, 2) not in shapes
    so3 = builtin("so3")
    alg = QuantumAlgebra(so3.lie, so3.reps["trivial"])
    for i, j in ((2, 0), (0, 0)):
        x, y = (alg.element({(tuple(32 * (k == g) for k in range(3)), ()): Matrix.identity(1)})
                for g in (i, j))
        expr._check_product(x, y, (1, 1))
    assert "Traceback" not in err


def test_eval_refuses_a_product_of_deep_words_at_its_position(capsys):
    """164 by 273 terms of PBW degree up to 8: 44,772 pairs, under the
    bound unweighted, and about 5 s of work; weighted by degree it is
    refused at the `*`, before any pair is multiplied."""
    expression = "(u1+u2+u3)^8 * (u1+u2+u3+x1)^8"
    code, out, err = run(["eval", "--builtin", "so3", "--rep", "trivial", "--quantum",
                          expression], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: 1:{expression.index('*') + 1}: "), err
    assert "164 by 273 terms (1539450 pairs weighted by degree) exceeds the limit 50000" in err
    assert "Traceback" not in err


def test_negative_samples_exit_two(capsys):
    for argv in (
        ["check", "--builtin", "so3", "--classical", "--samples", "-5"],
        ["flat", "--builtin", "so3", "--classical", "--samples", "-1"],
        ["report", "--builtin", "abelian(2)", "--samples", "-1"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "" and "--samples must be non-negative" in err
    code, _, err = run(["report", "--builtin", "abelian(2)", "--max-degree", "-1"], capsys)
    assert code == 2 and "--max-degree must be non-negative" in err


def _fails_fast(argv, capsys, message):
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1.0, argv
    assert code == 2 and out == "", argv
    assert message in err and "Traceback" not in err, err


def test_samples_past_the_cap_exit_two_at_once(capsys):
    over = str(cli.MAX_SAMPLES + 1)
    for argv in (["check", "--builtin", "so3", "--quantum", "--samples", over],
                 ["flat", "--builtin", "so3", "--quantum", "--samples", over],
                 ["report", "--builtin", "so3", "--samples", over]):
        _fails_fast(argv, capsys, f"--samples must be at most {cli.MAX_SAMPLES}, got {over}")


def test_max_degree_past_the_column_cap_exits_two_at_once(capsys):
    """so3 adjoint: C(3 + 12, 3) 9 = 4,095 columns pass, N = 13 (5,040)
    fails; abelian(2) trivial: N = 89 (4,095) passes, N = 90 (4,186) fails."""
    for argv, columns in (
        (["flat", "--builtin", "so3", "--rep", "adjoint", "--quantum",
          "--max-degree", "13"], 5040),
        (["flat", "--builtin", "abelian(2)", "--rep", "trivial", "--max-degree", "90"], 4186),
        (["report", "--builtin", "so3", "--max-degree", "13"], 5040),
        (["report", "--all-builtins", "--max-degree", "13"], 5040),
    ):
        _fails_fast(argv, capsys, f"--max-degree {argv[-1]} gives {columns} domain columns")
    so3, abelian2 = builtin("so3"), builtin("abelian(2)")
    cli._require_domain_within_cap(so3.lie, so3.reps["adjoint"], 12)
    cli._require_domain_within_cap(so3.lie, so3.reps["adjoint"], 10)
    cli._require_domain_within_cap(abelian2.lie, abelian2.reps["trivial"], 89)


def test_so3_plus_so3_column_cap(tmp_path, capsys):
    """so3+so3 adjoint: N = 3 (84 x 36 = 3,024 columns) is admitted,
    N = 4 (7,560) fails fast."""
    path = tmp_path / "so3x2.json"
    _so3_blocks_file(path, 6)
    alg = load_algebra_file(str(path))
    cli._require_domain_within_cap(alg.lie, alg.reps["adjoint"], 3)
    _fails_fast(["flat", "--file", str(path), "--quantum", "--max-degree", "4", "--json"],
                capsys, "--max-degree 4 gives 7560 domain columns")


def test_flat_json_schema(capsys):
    code, out, _ = run(
        ["flat", "--builtin", "so3", "--rep", "adjoint", "--quantum",
         "--max-degree", "1", "--json"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["algebra"] == "quantum"
    assert data["lie"] == "so3"
    assert data["N"] == 1
    assert {row["deg"] for row in data["per_degree"]} == {0, 1}
    for row in data["per_degree"]:
        assert set(row) == {"deg", "dim_basic", "dim_flat", "basic_subset_flat",
                            "s_basic_equals_flat"}
    assert "decomposition" in data and "closure" in data
    assert data["seed"] == 0


def test_flat_text_output(capsys):
    code, out, _ = run(
        ["flat", "--builtin", "so3", "--rep", "adjoint", "--classical",
         "--max-degree", "1"],
        capsys,
    )
    assert code == 0
    assert "decomposition factor" in out


def test_flat_deterministic(capsys):
    args = ["flat", "--builtin", "so3", "--rep", "adjoint", "--quantum",
            "--max-degree", "1", "--json", "--seed", "7"]
    code1, out1, _ = run(args, capsys)
    code2, out2, _ = run(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("context", ["quantum", "classical"])
def test_flat_json_depends_on_seed_and_samples_only_through_the_echoed_fields(capsys, context):
    """The closure is decided by its premises, so `--seed` and `--samples`
    change only the echoed "seed", "samples" and "checked" fields of the
    report; its other bytes are those of the default run."""
    argv = ["flat", "--builtin", "so3", "--rep", "adjoint", f"--{context}",
            "--max-degree", "2", "--json"]
    code, base, _ = run(argv, capsys)
    assert code == 0
    for seed in (0, 7):
        for samples in (20, 3):
            code, out, _ = run(argv + ["--seed", str(seed), "--samples", str(samples)], capsys)
            expected = json.loads(base)
            expected["seed"] = seed
            closure = expected["closure"]
            closure.update(seed=seed, samples=samples,
                           checked={k: samples * bool(v) for k, v in closure["checked"].items()})
            assert code == 0 and out == json.dumps(expected, indent=2) + "\n", (seed, samples)


def test_usage_errors_exit_two(capsys):
    code, _, err = run(["check", "--builtin", "e8", "--classical"], capsys)
    assert code == 2 and "unknown builtin" in err
    code, _, err = run(["check", "--rep", "adjoint", "--classical"], capsys)
    assert code == 2
    code, _, err = run(
        ["check", "--builtin", "sl2", "--rep", "adjoint", "--quantum"], capsys
    )
    assert code == 2 and "orthonormal" in err
    code, _, err = run(
        ["eval", "--builtin", "so3", "--file", "x.json", "--classical", "C"], capsys
    )
    assert code == 2


def test_check_takes_one_context(capsys):
    code, out, err = run(["check", "--builtin", "so3", "--classical", "--quantum"], capsys)
    assert (code, out, err) == (2, "", "error: pass either --classical or --quantum, not both\n")


@pytest.mark.parametrize("command, extra", [("eval", ["C"]), ("flat", ["--json"])])
def test_eval_and_flat_refuse_an_algebra_that_fails_validation(tmp_path, capsys, command, extra):
    path = tmp_path / "bad.json"
    path.write_text(NON_INVARIANT_FORM_FILE)
    code, out, _ = run(["validate", str(path)], capsys)
    assert code == 1 and "FAIL  bilinear form" in out and "ok    lie algebra" in out
    code, out, err = run([command, "--file", str(path), *extra], capsys)
    assert (code, out, err) == (1, "", "algebra failed validation; run `weil validate`\n")


def test_report_needs_an_algebra(capsys):
    code, out, err = run(["report"], capsys)
    assert (code, out, err) == (2, "", "error: pass --all-builtins or --builtin NAME\n")


@pytest.mark.parametrize("flag", [["--file", "other.json"], ["--builtin", "so3"]])
def test_validate_file_conflicts_with_the_algebra_flags(tmp_path, capsys, flag):
    path = tmp_path / "so3.json"
    path.write_text(SO3_FILE)
    code, out, err = run(["validate", str(path), *flag], capsys)
    assert (code, out, err) == (2, "", "error: FILE conflicts with --file/--builtin\n")


def test_unknown_rep_exits_two(capsys):
    code, out, err = run(
        ["check", "--builtin", "heisenberg3", "--rep", "spin", "--classical"], capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: unknown representation 'spin' (have: adjoint, trivial)\n"


def test_report_single_builtin(capsys):
    code, out, _ = run(
        ["report", "--builtin", "abelian(2)", "--samples", "3", "--max-degree", "1"],
        capsys,
    )
    assert code == 0
    assert "report: all pass" in out


def test_report_all_builtins(capsys):
    code, out, _ = run(
        ["report", "--all-builtins", "--samples", "2", "--max-degree", "1"], capsys
    )
    assert code == 0
    assert "report: all pass" in out
    for name in ("abelian(2)", "heisenberg3", "so3", "sl2"):
        assert f"== {name} ==" in out
    # quantum sections only exist where an orthonormal form ships
    assert "sl2 rep adjoint (quantum)" not in out
    assert "so3 rep adjoint (quantum)" in out


def test_report_skips_a_builtin_that_fails_validation(tmp_path, capsys, monkeypatch):
    """A builtin whose algebra fails validation prints its validation
    report and nothing else, and the report goes on to the next builtin
    and ends in failure."""
    path = tmp_path / "bad.json"
    path.write_text(CORRUPTED_FILE)
    bad, real = load_algebra_file(path), cli.builtin
    monkeypatch.setattr(cli, "builtin", lambda name: bad if name == "so3" else real(name))
    code, out, _ = run(["report", "--all-builtins", "--samples", "1", "--max-degree", "0"], capsys)
    so3, sl2 = out.split("== so3 ==\n")[1].split("== sl2 ==\n")
    assert code == 1 and out.endswith("report: failures detected\n")
    assert so3.startswith("FAIL  lie algebra") and "jacobi violation at (1,2,3)" in so3
    assert "identities" not in so3 and "flat/basic" not in so3
    assert "pass  sl2 rep adjoint (classical)" in sl2 and "flat/basic" in sl2


def test_report_prints_each_failing_identity_with_its_detail(capsys, monkeypatch):
    """A failing identity turns its suite's status line to FAIL, prints
    its name and detail on a line of its own, and fails the report."""
    from weil import checks

    def planted(suite):
        return lambda *args, **kw: suite(*args, **kw) + [
            checks.CheckResult("planted identity", False, "lhs - rhs = u1")]

    for context in ("classical", "quantum"):
        name = f"{context}_suite"
        monkeypatch.setattr(checks, name, planted(getattr(checks, name)))
    code, out, _ = run(["report", "--builtin", "abelian(2)", "--samples", "1",
                        "--max-degree", "0"], capsys)
    lines = out.splitlines()
    status = [line for line in lines if line.startswith("FAIL  abelian(2) rep adjoint")]
    assert code == 1 and lines[-1] == "report: failures detected"
    assert len(status) == 2 and all(line.endswith("identities") for line in status)
    at = lines.index(status[0])
    assert lines[at + 1] == "      planted identity: lhs - rhs = u1"
    assert out.count("      planted identity: lhs - rhs = u1\n") == 2 * len(
        builtin("abelian(2)").reps)


@pytest.mark.parametrize("name", ["foo", "abelian(99)"])
def test_report_unknown_builtin_exits_two(capsys, name):
    code, out, err = run(["report", "--builtin", name], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "internal error" not in err, err


def test_abelian_takes_ascii_digits_only(capsys):
    """abelian(n) reads n in ASCII digits, as the file loader reads its
    scalars: an Arabic-Indic three names no algebra."""
    code, out, err = run(["validate", "--builtin", "abelian(\u0663)"], capsys)
    assert code == 2 and out == ""
    assert err == "error: unknown builtin algebra 'abelian(\u0663)'\n"


@pytest.mark.parametrize("name", [" abelian(2)", "abelian(2) ", "abelian(02)", " so3"])
def test_builtin_names_are_read_as_given(capsys, name):
    """One rule for every builtin name: no blank is stripped and n has no
    leading zero, so each of these is a usage error naming the input."""
    code, out, err = run(["validate", "--builtin", name], capsys)
    assert code == 2 and out == ""
    assert err == f"error: unknown builtin algebra {name!r}\n"


def test_abelian_zero_keeps_its_range_message(capsys):
    code, out, err = run(["validate", "--builtin", "abelian(0)"], capsys)
    assert code == 2 and out == "" and "abelian(n) needs 1 <= n" in err


INT_FLAGS = [("check", "--seed"), ("check", "--samples"), ("flat", "--seed"),
             ("flat", "--max-degree"), ("flat", "--samples"),
             ("report", "--max-degree"), ("report", "--samples"), ("report", "--seed")]


@pytest.mark.parametrize("command, flag", INT_FLAGS)
def test_integer_flags_take_ascii_digits_only(capsys, command, flag):
    """Every integer flag reads an optional minus sign and ASCII digits:
    `int` would also take an Arabic-Indic digit, underscores, a plus sign
    and surrounding blanks.  Each is refused with argparse's message and
    exit 2, as is a number too long for `int`; "-12" still parses, for
    the commands to refuse."""
    for value in ("\u0661", "1_0", "+1", " 1", "9" * 5000):
        code, out, err = run([command, "--builtin", "so3", flag, value], capsys)
        assert code == 2 and out == "", (flag, value)
        assert f"argument {flag}: invalid int value: {value!r}" in err, err
    for value, parsed in (("12", 12), ("-12", -12), ("007", 7)):
        args, _ = cli.build_parser().parse_known_args([command, flag, value])
        assert getattr(args, flag[2:].replace("-", "_")) == parsed


@pytest.mark.parametrize("content, message", [
    ('{"dim": 3, "f": 5}', "$.f: expected a list"),
    ('{"dim": 3, "reps": {"r": [1]}}', "$.reps.r: expected an object"),
    ('{"dim": 3, "reps": [1]}', "$.reps: expected an object"),
    ('{"dim": 3, "f": [[1, 2, 3, "1/0"]]}', "$.f[0][3]: expected an integer or a 'p/q' string"),
    ('{"dim": true}', "$.dim: expected a positive integer"),
    ('{"dim": 2, "B": [[1, 0], [0]]}', "$.B: expected rows of equal length"),
    ('{"dim": 2, "reps": {"r": {"dim_v": 1, "matrices": [[[1]], 7]}}}',
     "$.reps.r.matrices[1]: expected a list of rows"),
    ('{"dim": 1, "name": 7}', "$.name: expected a string"),
    ('{"dim": 1, "reps": {"adjoint": {"dim_v": 1, "matrices": [[[5]]]}}}',
     "$.reps.adjoint: expected a name other than the built-in trivial and adjoint"),
    ('{"dim": 1, "reps": {"trivial": {"dim_v": 1, "matrices": [[[0]]]}}}',
     "$.reps.trivial: expected a name other than the built-in trivial and adjoint"),
])
def test_validate_malformed_file_exits_two_with_json_path(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot load {path}: {message}"), err


def test_a_form_of_the_wrong_size_exits_two_before_any_command(tmp_path, capsys):
    """A 1x1 identity B on so3 is refused on load with its JSON path:
    `check --quantum` does not take it for an orthonormal form."""
    path = tmp_path / "small-form.json"
    path.write_text(SO3_FILE.replace('"B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]', '"B": [[1]]'))
    for argv in (["validate", str(path)], ["check", "--file", str(path), "--quantum"]):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot load {path}: $.B: expected a 3x3 matrix"), err


@pytest.mark.parametrize("command", ["check", "flat", "eval"])
def test_an_empty_rep_name_is_an_unknown_rep(capsys, command):
    """--rep '' names no representation; it is not read as the default."""
    expression = ["u1"] if command == "eval" else []
    code, out, err = run([command, "--builtin", "so3", "--rep", "", *expression], capsys)
    assert code == 2 and out == ""
    assert "unknown representation ''" in err, err


def test_file_reps_may_take_any_name_but_trivial_and_adjoint(tmp_path, capsys):
    """Reps named like the catalog helper's parameters load next to the
    built-in two, each under its own name, and validate lists them all."""
    path = tmp_path / "named-reps.json"
    names = ["lie", "name", "reps"]
    path.write_text(json.dumps({"dim": 2, "name": "named", "reps": {
        name: {"dim_v": 1, "matrices": [[[k]], [[0]]]} for k, name in enumerate(names, 1)}}))
    alg = load_algebra_file(path)
    assert sorted(alg.reps) == ["adjoint", *names, "trivial"]
    assert [(rep.name, rep.matrices[0]) for rep in map(alg.rep, names)] == [
        (name, Matrix.from_rows([[k]])) for k, name in enumerate(names, 1)]
    code, out, _ = run(["validate", str(path)], capsys)
    assert code == 0
    assert out.splitlines() == ["ok    lie algebra named", *[
        f"ok    representation {name}" for name in ("adjoint", "lie", "name", "reps", "trivial")]]


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = run(["check", "--builtin", "so3"], capsys)
    assert code == 3 and out == ""
    assert err == "internal error: KeyError: 'boom'\n"


EVAL_U1 = ["eval", "--builtin", "so3", "--rep", "trivial", "--quantum", "u1"]


@pytest.mark.parametrize("unbuffered, argv", [(True, EVAL_U1), (False, EVAL_U1), (False, ["--help"])],
                         ids=["print", "final-flush", "help"])
def test_a_closed_stdout_exits_one_silently(unbuffered, argv):
    """`weil ... | head` once head has exited: stdout is a pipe whose read
    end is closed.  Unbuffered, the print fails; buffered, the flush at the
    end, also after argparse's own output.  Either way exit 1, with nothing
    on stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(weil.__file__).parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "weil.cli", *argv],
                              stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_text_is_utf8_whatever_the_locale(tmp_path):
    """A rendering's tensor sign is printed, an algebra file's name read
    and an expression argument read as UTF-8 both under an ASCII output
    encoding and in the C locale with UTF-8 mode off: each run prints
    what the UTF-8 run prints."""
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"name": "café", "dim": 1, "f": []}, ensure_ascii=False),
                    encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "LC_ALL")}
    env["PYTHONPATH"] = str(Path(weil.__file__).parents[1])
    utf8 = {**env, "PYTHONUTF8": "1"}
    ascii_output = {**env, "PYTHONIOENCODING": "ascii"}
    c_locale = {**env, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

    def weil_cli(env, *argv):
        proc = subprocess.run([sys.executable, "-m", "weil.cli", *argv], capture_output=True,
                              env=env, timeout=60)
        return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")

    evaluate = ["eval", "--builtin", "so3", "--rep", "adjoint", "--quantum"]
    for env, argv, out in ((ascii_output, [*evaluate, "tau(1)*u1"],
                            "u1 ⊗ [[0,0,0],[0,0,-1],[0,1,0]]\n"),
                           (c_locale, ["validate", str(path)], "ok    lie algebra café\n"),
                           (c_locale, [*evaluate, "u1 ⊗ x1"], "u1 ⊗ x1 ⊗ I\n")):
        want = weil_cli(utf8, *argv)
        assert want[0] == 0 and want[1].startswith(out) and want[2] == "", want
        assert weil_cli(env, *argv) == want, argv


@pytest.mark.parametrize("value", ["1e400", "0.5", "1_0"])
def test_validate_rejects_entries_that_are_not_p_over_q(tmp_path, capsys, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "f": [[1, 2, 3, "1"], [2, 3, 1, value]]}))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot load {path}: $.f[1][3]: expected an integer "
                          f"or a 'p/q' string, got '{value}'"), err


def _so3_blocks_file(path, n):
    """so3 blocks, then abelian summands up to dimension n; B = I."""
    f = []
    for o in range(1, n - 1, 3):
        f += [[o, o + 1, o + 2, "1"], [o + 1, o + 2, o, "1"], [o, o + 2, o + 1, "-1"]]
    path.write_text(json.dumps({"dim": n, "f": f,
                                "B": [[int(i == j) for j in range(n)] for i in range(n)]}))


@pytest.mark.parametrize("blocks", [False, True], ids=["abelian", "so3-blocks"])
def test_validate_at_the_dim_cap_is_fast(tmp_path, capsys, blocks):
    path = tmp_path / "cap.json"
    if blocks:
        _so3_blocks_file(path, MAX_DIM)
    else:
        path.write_text(json.dumps({"dim": MAX_DIM}))
    start = time.perf_counter()
    code, out, _ = run(["validate", str(path)], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0 and "ok    representation adjoint" in out
    assert elapsed < 2.0, f"validate at dim {MAX_DIM} took {elapsed:.2f} s"


def test_dim_above_the_cap_exits_two(tmp_path, capsys):
    path = tmp_path / "big.json"
    _so3_blocks_file(path, MAX_DIM + 1)
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot load {path}: $.dim: expected at most {MAX_DIM}, "
                          f"got {MAX_DIM + 1}"), err
    code, out, err = run(["validate", "--builtin", f"abelian({MAX_DIM + 1})"], capsys)
    assert code == 2 and out == "" and "abelian(n) needs" in err


@pytest.mark.parametrize("context", ["classical", "quantum"])
@pytest.mark.parametrize("rep", ["trivial", "adjoint"])
def test_eval_reads_back_what_it_prints(capsys, context, rep):
    """Every printed element, a leading minus included ("-3/2*y1"),
    evaluates to the same printed text."""
    so3 = builtin("so3")
    alg = ALGEBRAS[context](so3.lie, so3.reps[rep])
    rng = random.Random(5)
    session = ["eval", "--builtin", "so3", "--rep", rep, f"--{context}"]
    texts = [render(random_element(alg, rng, max_degree=3))
             for _ in range(12)]
    texts += [f"-{texts[-1]}", "-u1" if context == "quantum" else "-v1"]
    for text in texts:
        code, out, err = run([*session, text], capsys)
        assert code == 0, (text, err)
        code, again, err = run([*session, out.rstrip("\n")], capsys)
        assert code == 0 and again == out, (text, out, err)
    assert any(t.startswith("-") for t in texts)


def test_eval_unknown_option_exits_two(capsys):
    for argv in (["eval", "--builtin", "so3", "--bogus", "u1"],
                 ["eval", "--builtin", "so3", "--bogus"],
                 ["eval", "--builtin", "so3", "-u1", "-u2"],
                 ["check", "--builtin", "so3", "-u1"],
                 ["eval", "--builtin", "so3", "--seed", "1", "u1"]):  # eval draws nothing
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", argv
        assert "unrecognized arguments" in err, argv
    code, out, err = run(["eval", "--builtin", "so3"], capsys)
    assert code == 2 and out == "" and "an expression is required" in err


def test_validate_caps_the_violations_it_prints(tmp_path, capsys):
    """A dense random f at dim 12 breaks Jacobi in hundreds of places: the
    report prints 20 of them and counts the rest, and keeps them all."""
    n = 12
    rng = random.Random(12)
    f = [[a, b, c, str(rng.choice([-2, -1, 1, 2]))]
         for a in range(1, n + 1) for b in range(a + 1, n + 1) for c in range(1, n + 1)]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"dim": n, "f": f}))
    code, out, _ = run(["validate", str(path)], capsys)
    violations = validate_lie(load_algebra_file(str(path)).lie).violations
    assert code == 1 and len(violations) > MAX_LISTED
    lines = out.splitlines()
    assert lines[0].startswith("FAIL  lie algebra")
    assert lines[1:MAX_LISTED + 1] == [f"      {v}" for v in violations[:MAX_LISTED]]
    assert lines[MAX_LISTED + 1] == f"      … and {len(violations) - MAX_LISTED} more"
    assert len(lines) == MAX_LISTED + 2


def test_structure_constants_above_the_cap_exit_two(tmp_path, capsys):
    """A file may list MAX_F_ENTRIES structure constants, not one more:
    validation runs over every listed entry."""
    n = MAX_DIM
    triples = [[a, b, c, "1"] for a in range(1, n + 1) for b in range(a + 1, n + 1)
               for c in range(1, n + 1)]
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"dim": n, "f": triples[:MAX_F_ENTRIES]}))
    assert len(load_algebra_file(str(path)).lie.entries) >= MAX_F_ENTRIES
    path.write_text(json.dumps({"dim": n, "f": triples[:MAX_F_ENTRIES + 1]}))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot load {path}: $.f: expected at most {MAX_F_ENTRIES} "
                          f"entries, got {MAX_F_ENTRIES + 1}"), err


def test_samples_zero_leaves_out_the_rows_that_only_sample(capsys):
    """With --samples 0 the classical suite leaves out its two restriction
    rows and its lemma row, which would pass with no case; its operator
    rows still run on the 1 + 3n generators, the quantum suite keeps all
    15 rows, and `weil report` counts only the rows that ran."""
    code, out, _ = run(["check", "--builtin", "so3", "--rep", "adjoint", "--classical",
                        "--samples", "0"], capsys)
    rows = [line for line in out.splitlines() if line.startswith(("pass", "FAIL"))]
    assert code == 0 and len(rows) == 5 and rows[0].startswith("pass  cartan formula")
    assert "restriction" not in out and "v^a L_a" not in out
    code, out, _ = run(["report", "--builtin", "so3", "--samples", "0", "--max-degree", "0"],
                       capsys)
    assert code == 0
    for rep in ("adjoint", "standard", "trivial"):
        assert f"pass  so3 rep {rep} (classical): 5/5 identities\n" in out
        assert f"pass  so3 rep {rep} (quantum): 15/15 identities\n" in out
