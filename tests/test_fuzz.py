"""Fuzzers for the two user inputs: algebra files and expressions.

An algebra file must end in exit 0 (valid), 1 (a validation failure)
or 2 (a usage error), and an expression in exit 0 or 2 (a malformed or
over-limit expression); any other exit, exit 3 (an internal error) or a
traceback counts as a bug.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weil.cli import main

json_scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
                | st.floats(allow_nan=False) | st.text(max_size=8))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                  max_size=4),
    max_leaves=12,
)


def mostly(common, rare):
    """`common` in about 4 of 5 draws, else `rare`."""
    return st.integers(0, 4).flatmap(lambda k: rare if k == 0 else common)


# mostly well-typed pieces, so that examples get past the schema into the
# validators; each piece is sometimes replaced by a malformed value
entry_values = mostly(st.sampled_from(["1", "-2/3", "−1/6", "2"]) | st.integers(-3, 3),
                      st.sampled_from(["1/0", "1e400", "0.5", "1_0", "+1", ""]) | json_values)
ordered = st.integers(1, 2).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 3)))
constant = st.tuples(ordered, st.integers(1, 3), entry_values).map(lambda t: [*t[0], *t[1:]])
structure_constants = st.lists(
    mostly(constant, st.lists(st.integers(-1, 5), max_size=4) | json_values),
    max_size=4)
matrices = mostly(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(entry_values, min_size=d, max_size=d), min_size=d, max_size=d)), json_values)
rep_specs = mostly(st.fixed_dictionaries({
    "dim_v": mostly(st.integers(1, 3), json_values),
    "matrices": mostly(st.lists(matrices, min_size=3, max_size=3), json_values)}), json_values)
algebra_files = mostly(
    st.fixed_dictionaries(
        {"dim": mostly(st.just(3), st.sampled_from([-1, 0, 1, 5, 49]) | json_values)},
        optional={"f": mostly(structure_constants, json_values), "B": matrices,
                  "reps": mostly(st.dictionaries(st.sampled_from(["r", "s"]), rep_specs,
                                                 max_size=2), json_values),
                  "name": json_values}),
    json_values,
)


def _run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


@given(algebra_files)
@settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_validate_random_json(tmp_path, capsys, data):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(data))
    code, err = _run(["validate", str(path)], capsys)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err


EXPR_TOKENS = [
    "u1", "u2", "u3", "u4", "x1", "x3", "v1", "y2", "C", "QC", "gamma", "Dirac", "I",
    "d", "L", "iota", "comm", "tau", "foo", "0", "1", "2", "3", "7", "1/2",
    "+", "-", "−", "*", "⊗", "^", "/", "(", ")", ",", "[", "]", "[[1]]", "[[1/0]]",
    "@", "",
]


@given(st.lists(st.sampled_from(EXPR_TOKENS), max_size=16), st.sampled_from([" ", ""]))
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_eval_random_token_streams(capsys, tokens, sep):
    code, err = _run(["eval", "--builtin", "so3", "--rep", "trivial", "--quantum",
                      sep.join(tokens)], capsys)
    assert code in (0, 2), err
    assert "Traceback" not in err
