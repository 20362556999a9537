import gc
import importlib.util
import sys
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weil
from weil.classical import ClassicalAlgebra
from weil.lie import (
    BilinearForm,
    LieData,
    RepData,
    adjoint_rep,
    builtin,
    load_algebra_file,
    trivial_rep,
    validate_form,
    validate_lie,
    validate_rep,
)
from weil.linalg import Matrix
from weil.quantum import QuantumAlgebra


def jacobi_oracle(lie):
    """Direct expansion of the Jacobi sum over every index quadruple."""
    n = lie.dim
    worst = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    s = sum(
                        lie.f(a, b, m) * lie.f(m, c, d)
                        + lie.f(b, c, m) * lie.f(m, a, d)
                        + lie.f(c, a, m) * lie.f(m, b, d)
                        for m in range(n)
                    )
                    if s != 0:
                        worst.append((a, b, c, d))
    return worst


def test_abelian_is_valid():
    alg = builtin("abelian(2)")
    assert validate_lie(alg.lie).ok
    assert alg.lie.dim == 2
    assert not alg.lie.entries


def test_a_float_structure_constant_raises_type_error():
    """LieData(3, {(0, 1, 2): 0.1}) once stored 0.1's binary rounding."""
    with pytest.raises(TypeError, match="not an exact scalar"):
        LieData(3, {(0, 1, 2): 0.1})
    assert LieData(3, {(0, 1, 2): Fraction(1, 10)}).f(1, 0, 2) == Fraction(-1, 10)


def _pairs_from_f(lie):
    """The nonzero (c, f^c_ab) per ordered pair, from the accessor `f`."""
    n = lie.dim
    pairs = {(a, b): tuple((c, lie.f(a, b, c)) for c in range(n) if lie.f(a, b, c))
             for a in range(n) for b in range(n)}
    return {k: v for k, v in pairs.items() if v}


def test_lie_and_rep_data_are_frozen():
    """Once built, a LieData's entries and attributes and a RepData's
    attributes cannot change, so `f` and `pair_brackets()`, which the PBW
    caches and the classical derivations read, cannot disagree."""
    lie = builtin("so3").lie
    assert dict(lie.pair_brackets()) == _pairs_from_f(lie)
    with pytest.raises(TypeError):
        lie.entries[(0, 1, 2)] = Fraction(2)
    with pytest.raises(FrozenInstanceError):
        lie.entries = {(0, 1, 2): Fraction(2)}
    with pytest.raises(FrozenInstanceError):
        lie.dim = 4
    with pytest.raises(FrozenInstanceError):
        adjoint_rep(lie).matrices = ()
    assert lie.f(0, 1, 2) == 1 and dict(lie.pair_brackets()) == _pairs_from_f(lie)


def test_perfbench_builds_its_lie_data_from_a_dict(monkeypatch):
    """perfbench's so3+so3 passes a plain dict of Fractions to LieData."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    algebra = workloads.so3_pair(weil)
    lie = algebra.lie
    assert validate_lie(lie).ok and validate_rep(lie, algebra.reps["adjoint"]).ok
    assert len(lie.entries) == 6 and dict(lie.pair_brackets()) == _pairs_from_f(lie)


def test_so3_is_valid(so3):
    assert validate_lie(so3.lie).ok
    assert jacobi_oracle(so3.lie) == []
    assert so3.lie.f(0, 1, 2) == 1
    assert so3.lie.f(1, 0, 2) == -1
    assert so3.lie.f(1, 2, 0) == 1
    assert so3.lie.f(2, 0, 1) == 1


def test_antisymmetry_violation_reported():
    bad = LieData(3, {(0, 1, 2): Fraction(1), (1, 0, 2): Fraction(1)})
    report = validate_lie(bad)
    assert not report.ok
    assert any("antisymmetry violation at (1,2,3)" in v for v in report.violations)


def test_rescaled_epsilon_bracket_still_satisfies_jacobi():
    # scaling one constant of so(3) only rescales the basis: still a Lie algebra
    scaled = LieData(3, {(0, 1, 2): Fraction(2), (1, 2, 0): Fraction(1),
                         (0, 2, 1): Fraction(-1)})
    assert validate_lie(scaled).ok
    assert jacobi_oracle(scaled) == []


def test_jacobi_violation_reported():
    # so(3) with one target index corrupted: [e2,e3] = e2 instead of e1
    bad = LieData(3, {(0, 1, 2): Fraction(1), (1, 2, 1): Fraction(1),
                      (0, 2, 1): Fraction(-1)})
    report = validate_lie(bad)
    assert not report.ok
    assert any("jacobi violation at (1,2,3)" in v for v in report.violations)
    assert jacobi_oracle(bad) != []


def invariance_oracle(lie, B):
    """Direct expansion of f^c_ab B_cd + f^c_ad B_bc over all triples."""
    n = lie.dim
    bad = []
    for a in range(n):
        for b in range(n):
            for d in range(n):
                s = sum(lie.f(a, b, c) * B[c, d] + lie.f(a, d, c) * B[b, c]
                        for c in range(n))
                if s != 0:
                    bad.append((a, b, d))
    return bad


def test_so3_form_valid_and_orthonormal(so3):
    report = validate_form(so3.lie, so3.form)
    assert report.ok
    assert report.orthonormal
    assert invariance_oracle(so3.lie, so3.form.matrix) == []


def test_abelian_form_valid(abelian2):
    report = validate_form(abelian2.lie, abelian2.form)
    assert report.ok and report.orthonormal


def test_sl2_with_identity_form_fails_invariance(sl2):
    report = validate_form(sl2.lie, BilinearForm(Matrix.identity(3)))
    assert not report.ok
    assert any("invariance violation" in v for v in report.violations)
    assert invariance_oracle(sl2.lie, Matrix.identity(3)) != []


def test_sl2_ships_no_form(sl2):
    assert sl2.form is None


def test_validate_form_non_orthonormal_flag(so3):
    B = BilinearForm(Matrix.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    report = validate_form(so3.lie, B)
    assert report.ok
    assert not report.orthonormal


def test_trivial_rep_valid(so3):
    assert validate_rep(so3.lie, trivial_rep(so3.lie)).ok


def test_trivial_reps_and_classical_values_keep_no_algebra_alive():
    """No cache keyed by Lie data outlives it: a trivial rep, and a
    classical value with its derivations, tables and curvature, go with
    their algebra."""
    refs = []
    for _ in range(20):
        lie = builtin("so3").lie
        alg = ClassicalAlgebra(lie, trivial_rep(lie))
        assert alg.differential(alg.odd_gen(0) * alg.curvature + alg.even_gen(1))
        refs.append(weakref.ref(lie))
    del lie, alg
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_so3_adjoint_valid_and_explicit(so3):
    ad = adjoint_rep(so3.lie)
    assert validate_rep(so3.lie, ad).ok
    assert ad.matrices[0] == Matrix.from_rows([[0, 0, 0], [0, 0, -1], [0, 1, 0]])


def test_scaled_generator_breaks_rep(so3):
    ad = adjoint_rep(so3.lie)
    broken = RepData("broken", (ad.matrices[0], ad.matrices[1], ad.matrices[2] * 2))
    report = validate_rep(so3.lie, broken)
    assert not report.ok
    assert any("pair (1,2)" in v for v in report.violations)


def test_rep_of_the_wrong_shape_is_reported(so3):
    """The file loader rejects both shapes before validation; through the
    API, `validate_rep` reports them instead of failing on a product."""
    ad = adjoint_rep(so3.lie).matrices
    short = validate_rep(so3.lie, RepData("short", ad[:2]))
    assert short.violations == ["2 matrices for dim 3"]
    skewed = validate_rep(so3.lie, RepData("skewed", (ad[0], Matrix.identity(2), ad[2])))
    assert skewed.violations == ["matrix 2 is 2x2, expected 3x3"]


def test_heisenberg_adjoint_nilpotent(heis3):
    ad = heis3.reps["adjoint"]
    assert validate_rep(heis3.lie, ad).ok
    for m in ad.matrices:
        assert (m * m).trace() == 0
        assert (m * m).is_zero


def test_sl2_brackets_and_standard_rep(sl2):
    lie = sl2.lie
    # [e,f] = h, [h,e] = 2e, [h,f] = -2f
    assert lie.f(0, 1, 2) == 1
    assert lie.f(2, 0, 0) == 2
    assert lie.f(2, 1, 1) == -2
    std = sl2.reps["standard"]
    assert validate_rep(lie, std).ok
    assert std.matrices[0] == Matrix.from_rows([[0, 1], [0, 0]])
    assert std.matrices[1] == Matrix.from_rows([[0, 0], [1, 0]])
    assert std.matrices[2] == Matrix.from_rows([[1, 0], [0, -1]])


@pytest.mark.parametrize("name", ["abelian(2)", "abelian(3)", "heisenberg3", "so3", "sl2"])
def test_every_builtin_fully_validates(name):
    alg = builtin(name)
    assert validate_lie(alg.lie).ok
    if alg.form is not None:
        assert validate_form(alg.lie, alg.form).ok
    for rep in alg.reps.values():
        assert validate_rep(alg.lie, rep).ok
    ad = adjoint_rep(alg.lie)
    assert validate_rep(alg.lie, ad).ok


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("e8")


SO3_JSON = """
{
  "dim": 3,
  "f": [[1, 2, 3, "1"], [2, 3, 1, "1"], [1, 3, 2, "-1"]],
  "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
  "reps": {"standard": {"dim_v": 3, "matrices": [
    [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
    [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
    [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
  ]}}
}
"""


def test_file_loader_round_trip(tmp_path, so3):
    path = tmp_path / "so3.json"
    path.write_text(SO3_JSON)
    alg = load_algebra_file(path)
    assert validate_lie(alg.lie).ok
    assert alg.lie.f(0, 1, 2) == 1
    assert alg.lie.has_orthonormal_form
    assert validate_rep(alg.lie, alg.reps["standard"]).ok
    # trivial and adjoint are synthesized for files too
    assert set(alg.reps) >= {"trivial", "adjoint", "standard"}
    assert alg.reps["adjoint"].matrices == adjoint_rep(so3.lie).matrices


def test_file_loader_rejects_bad_orientation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "f": [[2, 1, 1, "1"]]}')
    with pytest.raises(ValueError, match="a < b"):
        load_algebra_file(path)


def test_file_loader_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"dim": 3, "f": [[1, 2, 3, "1"], [1, 2, 3, "2"]]}')
    with pytest.raises(ValueError, match="duplicate"):
        load_algebra_file(path)


def test_an_identity_form_of_the_wrong_size_is_not_orthonormal(so3):
    """A 1x1 identity B on so3 is no orthonormal form: the quantum
    algebra refuses it, and `validate_form` reports its size."""
    lie = LieData(3, so3.lie.entries, form=BilinearForm(Matrix.identity(1)))
    assert not lie.has_orthonormal_form
    with pytest.raises(ValueError, match="orthonormal"):
        QuantumAlgebra(lie, trivial_rep(lie))
    assert validate_form(lie, lie.form).violations == ["form is 1x1, expected 3x3"]


# -- sparse validation and tables against the dense index loops -------------

constants = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])


@st.composite
def lie_data(draw):
    """Small structure-constant tables, Lie algebras or not.  Most list
    only a < b keys, as the loader does, so that the Jacobi sums run; the
    rest mix in both orientations and repeated or out-of-range indices."""
    n = draw(st.sampled_from([1, 2, 3, 3, 4, 4]))
    index = st.integers(0, n - 1)
    if draw(st.sampled_from([True, True, True, False])):
        triples = st.tuples(index, index, index).filter(lambda t: t[0] < t[1])
    else:
        index = index | st.integers(-1, n)
        triples = st.tuples(index, index, index)
    keys = draw(st.lists(triples, min_size=1, max_size=8, unique=True))
    lie = LieData(n, {k: draw(constants) for k in keys})
    size = draw(st.sampled_from([n, n, n + 1]))
    entries = draw(st.lists(st.integers(-1, 2), min_size=size * size, max_size=size * size))
    return lie, BilinearForm(Matrix(size, size, entries))


VALID_ALGEBRAS = [builtin(name).lie for name in ("abelian(3)", "heisenberg3", "so3", "sl2")]


def _same_validation(lie, form):
    sparse, dense = validate_lie(lie), oracles.dense_validate_lie(lie)
    assert (sparse.subject, sparse.violations) == (dense.subject, dense.violations)
    sparse, dense = validate_form(lie, form), oracles.dense_validate_form(lie, form)
    assert sparse.violations == dense.violations
    assert sparse.orthonormal == dense.orthonormal


def _same_tables(lie):
    """`pair_brackets`, the classical generator images read off it, and the
    adjoint rep against dense scans: same keys, rows and order; the End V
    images name the letters (tau_b, -1) of the nonzero tau_b, and only them."""
    pairs, action, dpairs = oracles.dense_lie_tables(lie)
    assert list(lie.pair_brackets().items()) == list(pairs.items())
    rep = adjoint_rep(lie)
    taus = rep.matrices
    alg = ClassicalAlgebra(lie, rep)
    n, ders = lie.dim, alg.derivations
    lie_ders, iotas, d = ders[:n], ders[n:2 * n], ders[2 * n]
    letters = [(m, s) for m, s, _ in alg.letters]
    assert set(letters) == {(t, -1) for t in taus if t}
    for a in range(n):
        for c in range(n):
            row = action.get((a, c), ())
            assert lie_ders[a].v.get(c, []) == [(b, (), q.numerator, q.denominator, None)
                                                for b, q in row]
            assert lie_ders[a].y.get(c, []) == [(None, (b,), q.numerator, q.denominator, None)
                                                for b, q in row]
        assert lie_ders[a].endo == (((None, (), 1, 1, letters.index((taus[a], -1))),)
                                    if taus[a] else ())
        assert not lie_ders[a].odd and iotas[a].odd
        assert (iotas[a].v, iotas[a].y, iotas[a].endo) == ({}, {a: ((None, (), 1, 1, None),)}, ())
        row = dpairs.get(a, ())
        assert d.v.get(a, []) == [(k, (j,), q.numerator, q.denominator, None) for j, k, q in row]
        assert d.y[a] == [(a, (), 1, 1, None)] + [(None, (j, k), q.numerator, 2 * q.denominator,
                                                   None) for j, k, q in row]
    assert d.odd and d.endo == tuple((None, (b,), 1, 1, letters.index((t, -1)))
                                     for b, t in enumerate(taus) if t)
    assert len(ders) == 2 * n + 1
    assert taus == oracles.dense_adjoint_rep(lie).matrices


@given(lie_data())
@settings(max_examples=150)
def test_sparse_validation_matches_dense_oracle(data):
    lie, form = data
    _same_validation(lie, form)
    _same_tables(lie)


@pytest.mark.parametrize("lie", VALID_ALGEBRAS, ids=lambda lie: lie.name)
def test_sparse_validation_matches_dense_oracle_on_builtins(lie):
    n = lie.dim
    for form in (BilinearForm(Matrix.identity(n)), BilinearForm(Matrix.identity(n) * 2),
                 BilinearForm(Matrix(n, n, [(i * 7 + 3) % 5 - 2 for i in range(n * n)]))):
        _same_validation(lie, form)
    _same_tables(lie)
