import json
import random
import time
import tracemalloc
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
# x_I h for every I and h, as `weil.flat` listed them before its reports
# stopped building the list; oracles.full_flat_basis is the block solve
from oracles import derived_full_flat_basis as full_flat_basis
from test_kernels import _so3_blocks
import weil.cli
import weil.element
import weil.flat
from weil import (ALGEBRAS, BilinearForm, LieData, Matrix, adjoint_rep, builtin,
                  load_algebra_file)
from weil.checks import random_element
from weil.classical import ClassicalAlgebra
from weil.cli import main
from weil.element import supercommutator
from weil.quantum import QuantumAlgebra
from weil.flat import (
    _at_level,
    basic_subspace,
    closure_report,
    decomposition_report,
    degree_monomials,
    flat_subspace,
    inclusion_report,
    monomials_up_to,
    span_rank,
)


def test_degree_monomials_enumeration():
    assert degree_monomials(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(degree_monomials(3, 2)) == 6
    assert monomials_up_to(2, 1) == [(0, 0), (0, 1), (1, 0)]


def sympy_commutant_dim(mats):
    """Independent oracle: kernel of stacked vec([T,X]) systems."""
    import sympy as sp

    d = mats[0].rows
    eye = sp.eye(d)
    blocks = [
        sp.kronecker_product(sp.Matrix(oracles.matrix_rows(t)), eye)
        - sp.kronecker_product(eye, sp.Matrix(oracles.matrix_rows(t)).T)
        for t in mats
    ]
    return len(sp.Matrix.vstack(*blocks).nullspace())


def test_degree_zero_flat_is_commutant(so3, sl2):
    for alg, rep_name in [(so3, "adjoint"), (sl2, "standard"), (sl2, "adjoint")]:
        lie, rep = alg.lie, alg.reps[rep_name]
        flat = flat_subspace(ClassicalAlgebra(lie, rep), 0)
        assert flat.dims[0] == sympy_commutant_dim(rep.matrices)
        assert flat.dims[0] == 1  # absolutely irreducible reps: scalars only


def test_degree_zero_basic_is_commutant(so3):
    lie, rep = so3.lie, so3.reps["adjoint"]
    basic = basic_subspace(ClassicalAlgebra(lie, rep), 0)
    # L_a on degree 0 is conjugation by tau_a, so basic = flat = commutant
    assert basic.dims[0] == sympy_commutant_dim(rep.matrices) == 1


def test_trivial_rep_everything_flat(so3):
    lie, rep = so3.lie, so3.reps["trivial"]
    flat = flat_subspace(ClassicalAlgebra(lie, rep), 2)
    for k in range(3):
        assert flat.dims[k] == len(degree_monomials(3, k))
    basic = basic_subspace(ClassicalAlgebra(lie, rep), 2)
    assert basic.dims[0] == 1


def test_every_basis_vector_satisfies_definition(so3):
    c = ClassicalAlgebra(so3.lie, so3.reps["adjoint"])
    flat = flat_subspace(c, 2)
    for level, v in flat.levelled:
        assert supercommutator(c.curvature, v).is_zero
        assert level == v.poly_degree()
    basic = basic_subspace(c, 2)
    for _, v in basic.levelled:
        for a in range(3):
            assert c.lie_derivative(a, v).is_zero


def test_curvature_is_basic_and_flat(so3):
    c = ClassicalAlgebra(so3.lie, so3.reps["adjoint"])
    curv = c.curvature
    for sub in (basic_subspace(c, 1), flat_subspace(c, 1)):
        level_one = _at_level(c, sub.levelled, 1)
        assert span_rank(level_one + [curv]) == span_rank(level_one)


def dense_lie_operator_dims(lie, rep, k):
    """Independent dense assembly of the stacked L_a system at degree k.

    Built straight from the structure constants acting on monomial
    coefficients, without the element machinery, then solved by sympy.
    """
    import sympy as sp

    n, d = lie.dim, rep.dim
    monos = degree_monomials(n, k)
    mono_index = {m: i for i, m in enumerate(monos)}
    units = [(i, j) for i in range(d) for j in range(d)]
    cols = len(monos) * d * d
    rows = []
    for a in range(n):
        block = [[Fraction(0)] * cols for _ in range(cols)]
        for mi, mono in enumerate(monos):
            for ui, (i, j) in enumerate(units):
                col = mi * d * d + ui
                # polynomial part: L_a v^c = -f^c_ab v^b
                for c in range(n):
                    if not mono[c]:
                        continue
                    for b in range(n):
                        q = -lie.f(a, b, c)
                        if not q:
                            continue
                        tgt = list(mono)
                        tgt[c] -= 1
                        tgt[b] += 1
                        row = mono_index[tuple(tgt)] * d * d + ui
                        block[row][col] += q * mono[c]
                # matrix part: [tau_a, E_ij]
                ta = rep.matrices[a]
                for r in range(d):
                    if ta[r, i]:
                        row = mi * d * d + r * d + j
                        block[row][col] += ta[r, i]
                for s in range(d):
                    if ta[j, s]:
                        row = mi * d * d + i * d + s
                        block[row][col] -= ta[j, s]
        rows.extend(block)
    return cols - sp.Matrix([[sp.Rational(x) for x in r] for r in rows]).rank()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_basic_dims_match_dense_oracle(so3, k):
    lie, rep = so3.lie, so3.reps["adjoint"]
    basic = basic_subspace(ClassicalAlgebra(lie, rep), k)
    assert basic.dims[k] == dense_lie_operator_dims(lie, rep, k)


def test_inclusion_classical_theorem(so3, sl2):
    for alg, rep_name in [(so3, "adjoint"), (so3, "standard"),
                          (sl2, "adjoint"), (sl2, "standard")]:
        report = inclusion_report(flat_subspace(ClassicalAlgebra(alg.lie, alg.reps[rep_name]), 2))
        for row in report["per_degree"]:
            assert row["basic_subset_flat"], (alg.name, rep_name, row)


def test_inclusion_abelian_basic_equals_flat(abelian2):
    lie, rep = abelian2.lie, abelian2.reps["adjoint"]
    report = inclusion_report(flat_subspace(ClassicalAlgebra(lie, rep), 2))
    for row in report["per_degree"]:
        # with f = 0 both conditions cut out polynomials valued in the
        # commutant, which for the zero matrices is everything
        assert row["dim_basic"] == row["dim_flat"]
        assert row["basic_subset_flat"] and row["s_basic_equals_flat"]


def _add(flat, level, vector):
    """Append (level, vector) to the `flat_subspace` result `flat`, before
    any report has bracketed its premises."""
    assert "commuting" not in vars(flat)
    flat.levelled.append((level, vector))


@pytest.mark.parametrize("kind, level_one, columns", [
    (ClassicalAlgebra, lambda alg: [], (True, False)),
    (QuantumAlgebra, lambda alg: [], (True, False)),
    # as many vectors as the S-module has rank, spanning something else
    (ClassicalAlgebra, lambda alg: oracles.hor_basis(alg, [(0, 0, 1)])[:4], (False, False)),
], ids=["dropped", "dropped-quantum", "swapped"])
def test_inclusion_columns_fail_when_flat_misses_the_basic_vectors(so3, kind, level_one,
                                                                    columns):
    """With the level-1 flat vectors of so3 adjoint dropped, the basic
    vectors still pass [C, b] = 0, so `basic_subset_flat` holds, but the
    module's rank exceeds the 0 flat vectors left and
    `s_basic_equals_flat` fails.  Swapped for vectors with [C, h] != 0,
    the flat premise fails both columns."""
    flat = flat_subspace(kind(so3.lie, so3.reps["adjoint"]), 1)
    flat.levelled[:] = [(level, v) for level, v in flat.levelled if level != 1]
    for v in level_one(flat.alg):
        _add(flat, 1, v)
    rows = inclusion_report(flat)["per_degree"]
    assert [(row["basic_subset_flat"], row["s_basic_equals_flat"]) for row in rows] == \
        [(True, True), columns]


def _scaled_rows(fm, den=None):
    """The rows of the oracle's Fraction matrix fm scaled by the lcm of its
    denominators, which must be `den` when given, as {column: int}."""
    lcm_den = lcm(*(x.denominator for x in fm.entries))
    assert den is None or lcm_den == den
    return [{j: int(x * lcm_den) for j, x in enumerate(fm.row(i)) if x}
            for i in range(fm.rows)]


def test_coordinate_matrix_over_mixed_denominators(so3):
    """Images whose terms have different denominators share one lcm."""
    c = ClassicalAlgebra(so3.lie, so3.reps["adjoint"])
    v = [c.even_gen(a) for a in range(3)]
    t = [c.tau(a) for a in range(3)]
    images = [[v[0] * Fraction(1, 2), t[1] * Fraction(2, 3)], [v[0] * Fraction(5, 4) + t[2]],
              [t[1] * Fraction(-1, 6)], [v[1] * Fraction(1, 3)], [v[0] - t[2] * Fraction(4, 5)]]
    rows = oracles.coord_matrix(images)
    coords = [{(i,) + key: q for i, im in enumerate(ims)
               for key, q in oracles.element_coords(im).items()} for ims in images]
    fm = oracles.dense_coord_matrix(coords)
    assert rows == _scaled_rows(fm, 60)
    assert (len(rows), fm.cols) == (12, 5)
    domain = oracles.hor_basis(c, [(0, 0, 0)])[:len(images)]
    assert oracles.element_kernel(domain, images) == oracles.dense_kernel(domain, coords)


def test_decomposition_classical(so3):
    lie, rep = so3.lie, so3.reps["adjoint"]
    report = decomposition_report(flat_subspace(ClassicalAlgebra(lie, rep), 1))
    assert report["factor"] == 8
    assert report["all_match"]
    for row in report["per_degree"]:
        assert row["dim_full_flat"] == 8 * row["dim_hor_flat"]


def test_decomposition_trivial_rep(so3):
    lie, rep = so3.lie, so3.reps["trivial"]
    report = decomposition_report(flat_subspace(ClassicalAlgebra(lie, rep), 1))
    assert report["all_match"]
    # everything is flat: full dim = all monomials times all wedge monomials
    assert report["per_degree"][0]["dim_full_flat"] == 8
    assert report["per_degree"][1]["dim_full_flat"] == 8 * 3


def test_decomposition_quantum(so3):
    lie, rep = so3.lie, so3.reps["adjoint"]
    report = decomposition_report(flat_subspace(QuantumAlgebra(lie, rep), 1))
    assert report["factor"] == 8
    assert report["all_match"]


def quantum_flat_dense_dim(lie, rep, k):
    """Independent dense route for the quantum flat dimensions: assemble
    the bracket-with-curvature matrix via raw element products only."""
    import sympy as sp

    alg = QuantumAlgebra(lie, rep)
    curv = alg.curvature
    domain = oracles.hor_basis(alg, monomials_up_to(lie.dim, k))
    d = rep.dim
    col_maps = []
    for v in domain:
        img = curv * v - v * curv  # curvature is even: plain commutator
        col_maps.append({(key, i, j): mat[i, j] for key, mat in img.terms.items()
                         for i in range(d) for j in range(d) if mat[i, j]})
    keys = sorted(set().union(*col_maps))
    ki = {key: r for r, key in enumerate(keys)}
    mat = sp.zeros(len(keys), len(domain))
    for col, cmap in enumerate(col_maps):
        for key, val in cmap.items():
            mat[ki[key], col] = sp.Rational(val)
    return len(domain) - mat.rank()


def test_quantum_flat_matches_dense_oracle(so3):
    lie, rep = so3.lie, so3.reps["adjoint"]
    flat = flat_subspace(QuantumAlgebra(lie, rep), 2)
    for k in range(3):
        assert len(_at_level(flat.alg, flat.levelled, k)) == quantum_flat_dense_dim(lie, rep, k)


def test_quantum_evidence_report_shape(so3):
    lie, rep = so3.lie, so3.reps["adjoint"]
    report = inclusion_report(flat_subspace(QuantumAlgebra(lie, rep), 2))
    assert report["degree_semantics"] == "filtration_increment"
    assert [row["deg"] for row in report["per_degree"]] == [0, 1, 2]
    for row in report["per_degree"]:
        assert set(row) == {"deg", "dim_basic", "dim_flat",
                            "basic_subset_flat", "s_basic_equals_flat"}
        assert isinstance(row["basic_subset_flat"], bool)


def test_closure_classical(so3):
    lie, rep = so3.lie, so3.reps["adjoint"]
    report = closure_report(flat_subspace(ClassicalAlgebra(lie, rep), 2), samples=50, seed=0)
    assert report["all_closed"]
    assert report["checked"]["product"] == 50
    assert report["checked"]["differential"] == 50
    # d of a flat element is flat, explicitly
    c = ClassicalAlgebra(lie, rep)
    for v in full_flat_basis(flat_subspace(c, 1))[:5]:
        assert supercommutator(c.curvature, c.differential(v)).is_zero


def test_closure_quantum(so3):
    lie, rep = so3.lie, so3.reps["adjoint"]
    report = closure_report(flat_subspace(QuantumAlgebra(lie, rep), 1), samples=15, seed=2)
    assert report["all_closed"]


def test_reports_are_reproducible(so3):
    lie, rep = so3.lie, so3.reps["adjoint"]
    a = inclusion_report(flat_subspace(QuantumAlgebra(lie, rep), 2))
    b = inclusion_report(flat_subspace(QuantumAlgebra(lie, rep), 2))
    assert json.dumps(a) == json.dumps(b)


def test_span_rank_tools(so3):
    c = ClassicalAlgebra(so3.lie, so3.reps["adjoint"])
    v1, v2 = c.even_gen(0), c.even_gen(1)
    assert span_rank([v1, v2, v1 + v2]) == 2 == span_rank([v1, v2])
    assert span_rank([v1, v2]) > span_rank([v1]) == 1
    assert span_rank([]) == span_rank([v1 - v1]) == 0


@pytest.mark.parametrize("kind", [ClassicalAlgebra, QuantumAlgebra])
def test_span_rank_is_the_rank_of_the_dense_coordinates(so3, kind):
    """Elements with odd parts and terms over mixed denominators, two of
    them dependent on the others: every prefix has the rank of its dense
    Fraction coordinate matrix."""
    alg = kind(so3.lie, so3.reps["adjoint"])
    v = [alg.even_gen(a) for a in range(3)]
    y = [alg.odd_gen(a) for a in range(3)]
    t = [alg.tau(a) for a in range(3)]
    x1 = v[0] * y[1] * Fraction(1, 2) + t[2] * Fraction(2, 3)
    x2 = y[0] * y[2] * t[1] * Fraction(-5, 4) + v[1]
    x3 = y[2] * Fraction(1, 7) - v[2] * t[0] * Fraction(3, 5)
    x4 = y[1] * t[1] * Fraction(9, 8)
    elements = [x1, x2, x1 * Fraction(3, 2) - x2 * Fraction(1, 6), x3, x4,
                x3 * Fraction(7, 2) + x4 * Fraction(-4, 3)]
    ranks = [span_rank(elements[:k]) for k in range(len(elements) + 1)]
    assert ranks == [oracles.fraction_rank(oracles.dense_coord_matrix(
        [oracles.element_coords(x) for x in elements[:k]])) for k in range(len(elements) + 1)]
    assert ranks == [0, 1, 2, 2, 3, 4, 4]


def _builtin_cases():
    """Every builtin algebra x admitted context x representation, as a value."""
    for name in ("abelian(2)", "heisenberg3", "so3", "sl2"):
        alg = builtin(name)
        contexts = ("classical", "quantum") if alg.lie.has_orthonormal_form else ("classical",)
        for rep_name in sorted(alg.reps):
            for context in contexts:
                yield pytest.param(ALGEBRAS[context](alg.lie, alg.reps[rep_name]),
                                   id=f"{name}-{context}-{rep_name}")


@pytest.mark.parametrize("alg", _builtin_cases())
def test_full_flat_basis_matches_block_solve_oracle(alg):
    """The derived basis is the per-block solve's, element for element."""
    for max_degree in range(3):
        flat = flat_subspace(alg, max_degree)
        assert full_flat_basis(flat) == oracles.full_flat_basis(alg, max_degree)
    for k in range(3):
        assert full_flat_basis(flat, degree=k) == oracles.full_flat_basis(alg, 2, degree=k)


def _so3_pair():
    entries = {}
    for off in (0, 3):
        for (a, b, c), v in {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1}.items():
            entries[(a + off, b + off, c + off)] = Fraction(v)
    lie = LieData(6, entries, form=BilinearForm(Matrix.identity(6)), name="so3^2")
    return lie, adjoint_rep(lie)


def _goldens_file(name):
    """The algebra file `name` next to the CLI goldens."""
    return load_algebra_file(Path(__file__).parent / "goldens" / name)


def test_full_flat_basis_matches_oracle_on_so3_pair():
    alg = QuantumAlgebra(*_so3_pair())
    basis = full_flat_basis(flat_subspace(alg, 0))
    assert len(basis) == 64 * 2  # the commutant of so3+so3 adjoint is 2-dimensional
    assert basis == oracles.full_flat_basis(alg, 0)


def _mutant(extra, kind=QuantumAlgebra):
    """A `kind` (`QuantumAlgebra` by default) whose curvature has
    `extra(alg)` added."""
    class Mutant(kind):
        @cached_property
        def curvature(self):
            return super().curvature + extra(self)
    return Mutant


def _x1_x2(alg):
    return alg.odd_gen(0) * alg.odd_gen(1)


def test_curvature_with_a_clifford_term_is_caught(monkeypatch, capsys):
    """A curvature with an x1 x2 term fails [C, x_a] = 0, in the solver
    and in `weil flat`, which exits 1 with a message, not a traceback."""
    mutant = _mutant(_x1_x2)
    so3 = builtin("so3")
    flat = flat_subspace(mutant(so3.lie, so3.reps["adjoint"]), 0)
    with pytest.raises(AssertionError, match="does not commute with odd generator 1"):
        full_flat_basis(flat)
    monkeypatch.setitem(ALGEBRAS, "quantum", mutant)
    code = main(["flat", "--builtin", "so3", "--quantum", "--max-degree", "0", "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "internal consistency error: the curvature does not commute" in captured.err
    assert "Traceback" not in captured.err


def _x1_x2_tau1(alg):
    return alg.odd_gen(0) * alg.odd_gen(1) * alg.tau(0)


def _v1_v2_tau1(alg):
    return alg.even_gen(0) * alg.even_gen(1) * alg.tau(0)


@pytest.mark.parametrize("kind, extra, message", [
    (QuantumAlgebra, _x1_x2_tau1, "the bracket with the curvature must stay horizontal"),
    (ClassicalAlgebra, _v1_v2_tau1, "bracket with C must raise symmetric degree by exactly 1"),
], ids=["quantum-x1x2-tau1", "classical-v1v2-tau1"])
def test_solver_consistency_errors_are_raised(monkeypatch, capsys, kind, extra, message):
    """[x1 x2 tau_1, E_ij] = x1 x2 [tau_1, E_ij] has a Clifford factor, and
    [v1 v2 tau_1, E_ij] raises symmetric degree by 2: the flat solve
    raises on each, and `weil flat` exits 1 with a message, not a
    traceback."""
    mutant = _mutant(extra, kind)
    so3 = builtin("so3")
    with pytest.raises(AssertionError, match=message):
        flat_subspace(mutant(so3.lie, so3.reps["adjoint"]), 0)
    monkeypatch.setitem(ALGEBRAS, kind.KIND, mutant)
    code = main(["flat", "--builtin", "so3", f"--{kind.KIND}", "--max-degree", "0", "--json"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"internal consistency error: {message}" in captured.err
    assert "Traceback" not in captured.err


def _same_reports(flat, seeds):
    assert decomposition_report(flat) == oracles.rebracket_decomposition_report(flat)
    for seed in seeds:
        assert closure_report(flat, samples=10, seed=seed) == \
            oracles.list_closure_report(flat, samples=10, seed=seed), seed


@pytest.mark.parametrize("alg", _builtin_cases())
def test_reports_match_the_list_oracles(alg):
    """Checking the premises gives the report of re-bracketing every x_I h,
    and drawing by index draws what `rng.choice` draws from the list."""
    for max_degree in range(3):
        _same_reports(flat_subspace(alg, max_degree), seeds=(0, 3, 7))


@pytest.mark.parametrize("kind", [ClassicalAlgebra, QuantumAlgebra], ids=lambda k: k.KIND)
def test_reports_match_the_list_oracles_on_so3_pair(kind):
    _same_reports(flat_subspace(kind(*_so3_pair()), 1), seeds=(0, 1))


def test_non_flat_vector_fails_its_level_and_the_closure():
    """u1 (x) 1 added to the level-1 flat vectors of quantum so3 adjoint
    fails the [C, h] = 0 premise of that level, and the closure counts
    that one failed premise."""
    so3 = builtin("so3")
    flat = flat_subspace(QuantumAlgebra(so3.lie, so3.reps["adjoint"]), 1)
    _add(flat, 1, flat.alg.even_gen(0))
    report = decomposition_report(flat)
    assert [row["match"] for row in report["per_degree"]] == [True, False]
    assert not report["all_match"]
    assert report == oracles.rebracket_decomposition_report(flat)
    closure = closure_report(flat)
    assert closure["failures"] == 1 and not closure["all_closed"]


def _refuse(*args):
    raise AssertionError("the closure bracketed with C after the decomposition had")


@pytest.mark.parametrize("alg, degrees", [
    *(pytest.param(case.values[0], range(3), id=case.id) for case in _builtin_cases()),
    *(pytest.param(kind(*_so3_pair()), range(2), id=f"so3^2-{kind.KIND}-adjoint")
      for kind in (ClassicalAlgebra, QuantumAlgebra)),
])
def test_closure_draws_and_brackets_nothing_when_its_premises_hold(monkeypatch, alg, degrees):
    """Once the decomposition has bracketed the premises, the closure
    reads them: it brackets nothing with C, and `checked` echoes
    `samples` for each kind that has inputs."""
    for max_degree in degrees:
        flat = flat_subspace(alg, max_degree)
        decomposition_report(flat)
        hvecs = [h for _, h in flat.levelled]
        low = [h for h in hvecs if h.poly_degree() < max_degree]
        with monkeypatch.context() as patch:
            patch.setattr(type(alg), "flat_op", _refuse)
            report = closure_report(flat, samples=7, seed=4)
        assert report == {
            "seed": 4, "samples": 7,
            "checked": {"product": 7 * bool(hvecs), "lie_derivative": 7 * bool(hvecs),
                        "contraction": 7 * bool(hvecs), "differential": 7 * bool(low)},
            "failures": 0, "all_closed": True}


@pytest.mark.parametrize("kind, monomials", [(ClassicalAlgebra, 20), (QuantumAlgebra, 2)],
                         ids=["classical", "quantum"])
def test_one_flat_report_brackets_each_premise_once(monkeypatch, kind, monomials):
    """One `flat_report_data` call on so3 adjoint at N = 3 brackets with C
    each x_a, each flat vector and each basic vector once, and m (x) I for
    the monomials m whose module premises it reaches: classically all 20
    of degree <= 3, quantum-side 1 and u3, the first whose [C, u3] I != 0
    fails every row from 1 on.  The solves bracket no domain vector
    (their rows are written from tables), the reports share the premises
    and the closure brackets nothing of its own."""
    so3 = builtin("so3")
    calls = []

    class Counted(kind):
        def flat_op(self, x):
            calls.append(x)
            return super().flat_op(x)

    monkeypatch.setitem(ALGEBRAS, kind.KIND, Counted)
    data = weil.cli.flat_report_data(so3, so3.reps["adjoint"], kind.KIND, 3, 20, 0)
    assert data["closure"]["all_closed"] and data["closure"]["checked"]["product"] == 20
    brackets = len(calls)
    calls.clear()
    alg = Counted(so3.lie, so3.reps["adjoint"])
    dims = [sub(alg, 3).dims for sub in (flat_subspace, basic_subspace)]
    assert calls == []
    assert brackets == 3 + sum(sum(d.values()) for d in dims) + monomials


def _u2(alg):
    return alg.even_gen(1)


def _v2_squared(alg):
    return alg.even_gen(1) * alg.even_gen(1)


def _with_a_non_flat_vector(flat):
    """v1 (x) E_11 added at its level 1: [C, v1 E_11] = v^a v1 [tau_a, E_11]."""
    _add(flat, 1, oracles.hor_basis(flat.alg, [(1, 0, 0)])[0])


@pytest.mark.parametrize("kind, extra, edit, failures, caught", [
    (QuantumAlgebra, _u2, None, 3, True),
    (ClassicalAlgebra, _v2_squared, None, 3, False),
    (ClassicalAlgebra, None, _with_a_non_flat_vector, 1, True),
], ids=["quantum-u2", "classical-v2^2", "classical-non-flat-vector"])
def test_a_failed_premise_fails_the_closure(kind, extra, edit, failures, caught):
    """Each failed premise counts once in `failures`.  u2 (x) I on quantum
    so3 adjoint fails L_1 C = 0, L_3 C = 0 and d C = 0, and so does v2^2
    (x) I classically; an added non-flat vector fails [C, h] = 0.  d C
    fails with L_a C: classically iota_a C = 0 gives d C = y^a L_a C, and
    quantum-side [C, x_a] = 0 gives [Q, C] = x_a L_a C.  The sampled list
    oracle finds u2 and the vector at every seed, but misses v2^2, which
    is central classically, so no sampled image fails."""
    so3 = builtin("so3")
    alg = (kind if extra is None else _mutant(extra, kind))(so3.lie, so3.reps["adjoint"])
    images = [alg._apply(i, alg.curvature).is_zero for i in range(7)]
    assert images == ([True] * 7 if extra is None else [False, True, False] + [True] * 3 + [False])
    for max_degree in (1, 2):
        flat = flat_subspace(alg, max_degree)
        if edit is not None:
            edit(flat)
        report = closure_report(flat)
        assert (report["failures"], report["all_closed"]) == (failures, False), max_degree
        for seed in range(3):
            sampled = oracles.list_closure_report(flat, seed=seed)
            assert bool(sampled["failures"]) == caught, (max_degree, seed)


def test_curvature_with_a_clifford_term_fails_every_level():
    so3 = builtin("so3")
    report = decomposition_report(flat_subspace(_mutant(_x1_x2)(so3.lie, so3.reps["trivial"]), 1))
    assert [row["match"] for row in report["per_degree"]] == [False, False]
    assert not report["all_match"]


@pytest.mark.parametrize("kind, matches", [
    (ClassicalAlgebra, [False, True, True]),
    (QuantumAlgebra, [False, False, False]),
], ids=["classical", "quantum"])
def test_non_flat_vector_fails_exactly_the_rows_that_list_it(kind, matches):
    """E_11, of level 0 and not flat on so3 adjoint, is listed by row 0
    classically and by every row quantum-side, where row k lists the
    levels <= k; it fails exactly those rows, as re-bracketing every x_I h
    finds."""
    so3 = builtin("so3")
    flat = flat_subspace(kind(so3.lie, so3.reps["adjoint"]), 2)
    _add(flat, 0, oracles.hor_basis(flat.alg, [(0, 0, 0)])[0])
    report = decomposition_report(flat)
    assert [row["match"] for row in report["per_degree"]] == matches
    assert report == oracles.rebracket_decomposition_report(flat)


@pytest.mark.parametrize("kind", [ClassicalAlgebra, QuantumAlgebra], ids=lambda k: k.KIND)
def test_an_added_vector_counts_alike_in_both_reports(kind):
    """With v1 (x) E_11 added at level 1 of so3 adjoint at N = 1, the
    inclusion's `dim_flat` counts it at level 1, and the decomposition's
    `dim_hor_flat` in every row that lists it: the same numbers
    classically, their running sum quantum-side."""
    so3 = builtin("so3")
    flat = flat_subspace(kind(so3.lie, so3.reps["adjoint"]), 1)
    _with_a_non_flat_vector(flat)
    dim_flat = [row["dim_flat"] for row in inclusion_report(flat)["per_degree"]]
    dim_hor = [row["dim_hor_flat"] for row in decomposition_report(flat)["per_degree"]]
    assert dim_flat == [1, 5]
    assert dim_hor == (dim_flat if kind.GRADED else list(accumulate(dim_flat)))


def _inclusion_cases():
    yield from (pytest.param(case.values[0], 4, None, id=case.id) for case in _builtin_cases())
    half, summed = _goldens_file("so3-half.json"), _goldens_file("so3-sum.json")
    for kind in (ClassicalAlgebra, QuantumAlgebra):
        yield pytest.param(kind(*_so3_pair()), 2, None, id=f"so3^2-{kind.KIND}-adjoint")
        yield pytest.param(kind(half.lie, half.reps["adjoint"]), 3, None,
                           id=f"so3-half-{kind.KIND}-adjoint")
        yield pytest.param(kind(summed.lie, summed.reps["sum"]), 3, None,
                           id=f"so3-{kind.KIND}-sum")
    so3 = builtin("so3")
    yield pytest.param(_mutant(_u2)(so3.lie, so3.reps["adjoint"]), 2, [True, False, False],
                       id="quantum-u2")


@pytest.mark.parametrize("alg, top, subset", _inclusion_cases())
def test_inclusion_columns_match_the_rank_oracle(alg, top, subset):
    """The columns decided by their premises and one rank per row equal
    the three-rank oracle's, row for row, at every N <= `top`.  With u2
    (x) I added to the quantum curvature, the basic vectors' own brackets
    turn `basic_subset_flat` False from level 1 on (`subset`)."""
    for max_degree in range(top + 1):
        report = inclusion_report(flat_subspace(alg, max_degree))
        assert report == oracles.rank_inclusion_report(flat_subspace(alg, max_degree)), max_degree
    if subset is not None:
        assert [row["basic_subset_flat"] for row in report["per_degree"]] == subset


@pytest.mark.parametrize("kind", [ClassicalAlgebra, QuantumAlgebra], ids=lambda k: k.KIND)
def test_inclusion_ranks_once_per_row(monkeypatch, kind):
    """On so3 adjoint at N = 3 the report runs at most one `span_rank` per
    row.  Quantum-side tau != 0 fails the module premise of every row
    from 1 on, so only row 0 ranks, over the basic vectors themselves,
    and no product m b with m != 1 is built; classically every row ranks
    its S-module."""
    so3 = builtin("so3")
    ranks, products = [], []
    rank, mul = weil.flat.span_rank, weil.element.Element.__mul__

    def counted_rank(elements):
        ranks.append(elements)
        return rank(elements)

    def counted_mul(x, y):
        if len(x.terms) == 1:
            ((mono, odd), mat), = x.terms.items()
            if any(mono) and odd == () and mat == Matrix.identity(3):
                products.append(mono)
        return mul(x, y)

    flat = flat_subspace(kind(so3.lie, so3.reps["adjoint"]), 3)
    monkeypatch.setattr(weil.flat, "span_rank", counted_rank)
    monkeypatch.setattr(weil.element.Element, "__mul__", counted_mul)
    rows = inclusion_report(flat)["per_degree"]
    assert len(ranks) == sum(row["s_basic_equals_flat"] for row in rows) <= len(rows)
    if kind.GRADED:
        assert len(ranks) == len(rows) and products
    else:
        assert len(ranks) == 1 and products == []
        level_zero = [b for level, b in basic_subspace(flat.alg, 3).levelled if level == 0]
        assert ranks[0] == level_zero


def _images_both_ways(alg, max_degree):
    """A <= max_degree domain with its [C, .] images and its L_a images,
    each also as the dense path's coordinate maps."""
    domain = oracles.hor_basis(alg, monomials_up_to(alg.lie.dim, max_degree))
    flat_images = [[alg.flat_op(v)] for v in domain]
    yield domain, flat_images, [oracles.element_coords(im) for im, in flat_images]
    basic_images = [[alg.lie_derivative(a, v) for a in range(alg.lie.dim)] for v in domain]
    yield domain, basic_images, oracles.lie_stacked_coords(alg, domain)


@pytest.mark.parametrize("alg", _builtin_cases())
def test_coordinate_matrix_and_kernel_match_the_dense_fraction_path(alg):
    """Rows built straight from the terms' numerators are the dense
    Fraction matrix, entry for entry and row for row, and the kernel is
    the dense path's (Fraction back substitution), element for element."""
    for domain, images, coord_maps in _images_both_ways(alg, 2):
        rows, fm = oracles.coord_matrix(images), oracles.dense_coord_matrix(coord_maps)
        assert rows == _scaled_rows(fm)
        assert oracles.element_kernel(domain, images) == oracles.dense_kernel(domain, coord_maps)
        elements = [im for ims in images for im in ims][::7]
        assert span_rank(elements) == oracles.fraction_rank(
            oracles.dense_coord_matrix([oracles.element_coords(x) for x in elements]))


def _same_levels(alg, max_degree):
    for new, old in ((flat_subspace, oracles.level_flat_subspace),
                     (basic_subspace, oracles.level_basic_subspace)):
        got, want = new(alg, max_degree), old(alg, max_degree)
        rows = [_at_level(alg, got.levelled, k) for k in range(max_degree + 1)]
        assert rows == want, (new.__name__, max_degree)


@pytest.mark.parametrize("alg", _builtin_cases())
def test_levels_match_the_per_level_solve(alg):
    """Levels read off one basis equal one solve per level on the dense
    Fraction path, element for element: quantum-side that solve
    re-eliminates the whole <= k block."""
    for max_degree in range(4):
        _same_levels(alg, max_degree)


@pytest.mark.parametrize("kind", [ClassicalAlgebra, QuantumAlgebra], ids=lambda k: k.KIND)
def test_levels_match_the_per_level_solve_on_so3_pair(kind):
    alg = kind(*_so3_pair())
    for max_degree in range(2):
        _same_levels(alg, max_degree)


def test_levels_match_the_per_level_solve_at_degree_four():
    so3 = builtin("so3")
    _same_levels(QuantumAlgebra(so3.lie, so3.reps["adjoint"]), 4)


def _row_writer_cases():
    """Every builtin x admitted context x rep at N <= 3, so3+so3 adjoint at
    N <= 1, so3/2 adjoint (tau over 2) at N <= 3, and so3 on adjoint +
    trivial at N <= 3, where quantum-side C - Z keeps the constant
    diag(-9/8, -9/8, -9/8, -1/8), an End V part that is no tau_t."""
    for case in _builtin_cases():
        yield pytest.param(case.values[0], 3, id=case.id)
    half, summed = _goldens_file("so3-half.json"), _goldens_file("so3-sum.json")
    for kind in (ClassicalAlgebra, QuantumAlgebra):
        yield pytest.param(kind(*_so3_pair()), 1, id=f"so3^2-{kind.KIND}-adjoint")
        yield pytest.param(kind(half.lie, half.reps["adjoint"]), 3,
                           id=f"so3-half-{kind.KIND}-adjoint")
        yield pytest.param(kind(summed.lie, summed.reps["sum"]), 3, id=f"so3-{kind.KIND}-sum")


@pytest.mark.parametrize("alg, top", _row_writer_cases())
def test_written_rows_solve_as_the_element_images(alg, top):
    """The rows written from per-monomial tables give the levelled bases
    of the element path (domain elements, their L_a or [C, .] images read
    into rows), vector for vector, for both subspaces at every N."""
    for max_degree in range(top + 1):
        for new, old in ((flat_subspace, oracles.element_flat_subspace),
                         (basic_subspace, oracles.element_basic_subspace)):
            assert new(alg, max_degree).levelled == old(alg, max_degree).levelled, \
                (new.__name__, max_degree)


def test_one_kernel_solve_per_quantum_subspace(monkeypatch):
    """so3 adjoint quantum at N = 3: one kernel call per subspace, and
    none of the 20 * 9 domain columns bracketed with C."""
    calls = {"kernel": 0, "bracket": 0}
    kernel = weil.flat.kernel

    def counted_kernel(rows, ncols):
        calls["kernel"] += 1
        return kernel(rows, ncols)

    class Counted(QuantumAlgebra):
        def flat_op(self, x):
            calls["bracket"] += 1
            return super().flat_op(x)

    monkeypatch.setattr(weil.flat, "kernel", counted_kernel)
    so3 = builtin("so3")
    alg = Counted(so3.lie, so3.reps["adjoint"])
    flat = flat_subspace(alg, 3)
    assert calls == {"kernel": 1, "bracket": 0}
    assert flat.dims == {0: 1, 1: 4, 2: 10, 3: 19}
    basic = basic_subspace(alg, 3)
    assert calls == {"kernel": 2, "bracket": 0}
    assert basic.dims == {0: 1, 1: 1, 2: 2, 3: 1}


def test_rows_hold_no_zero_and_no_copy(monkeypatch):
    """so3+so3 adjoint quantum at N = 2, caches warm: `_rows` hands back
    only nonempty rows with no zero entry, and allocates little beyond
    them on the way (tracemalloc peak at most 1.2 times what stays
    allocated with the rows), so no second copy of the rows and no index
    per row is built.
    A cell where a letter's halves cancel must be deleted where it is
    summed, not kept as a zero or filtered out in a copy."""
    calls, rows_of = [], weil.flat._rows
    monkeypatch.setattr(weil.flat, "_rows",
                        lambda *args: calls.append(args) or rows_of(*args))
    alg = QuantumAlgebra(*_so3_pair())
    flat_subspace(alg, 2), basic_subspace(alg, 2)
    for args in calls:
        rows_of(*args)  # warm every table the rows read
        tracemalloc.start()
        try:
            rows = rows_of(*args)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * kept, (peak, kept)
        assert isinstance(rows, list) and rows
        assert all(row and all(row.values()) for row in rows)


def test_so3_pair_quantum_dims_at_degree_three():
    """so3+so3 adjoint quantum at N = 3 (3,024 domain columns), the
    algebra `scripts/gamma_square_table.py` builds: the dense coordinate
    grid of these solves took 370-760 MB."""
    lie = _so3_blocks(2)
    rep = adjoint_rep(lie)
    assert flat_subspace(QuantumAlgebra(lie, rep), 3).dims == {0: 2, 1: 14, 2: 58, 3: 178}
    assert basic_subspace(QuantumAlgebra(lie, rep), 3).dims == {0: 2, 1: 2, 2: 8, 3: 4}


@pytest.mark.parametrize("n, budget", [(16, 1.0), (40, 10.0)])
def test_flat_cost_is_linear_in_the_dimension(capsys, n, budget):
    """The reports never build the 2^n x_I h: `abelian(40)` has 2^40 of
    them per horizontal vector."""
    start = time.perf_counter()
    code = main(["flat", "--builtin", f"abelian({n})", "--rep", "trivial", "--quantum",
                 "--max-degree", "0", "--json"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 0, captured.err
    data = json.loads(captured.out)
    dec = data["decomposition"]
    assert dec["factor"] == 2 ** n and dec["all_match"]
    assert dec["per_degree"] == [{"deg": 0, "dim_hor_flat": 1, "dim_full_flat": 2 ** n,
                                  "expected_full": 2 ** n, "match": True}]
    assert data["closure"]["all_closed"] and data["closure"]["checked"]["product"] == 20
    assert elapsed < budget, f"abelian({n}) at N=0 took {elapsed:.2f} s"


def _flat_op_cases():
    """Every builtin x admitted context x rep, plus so3+so3 adjoint."""
    yield from _builtin_cases()
    for kind in (ClassicalAlgebra, QuantumAlgebra):
        yield pytest.param(kind(*_so3_pair()), id=f"so3^2-{kind.KIND}-adjoint")


@pytest.mark.parametrize("alg", _flat_op_cases())
@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_flat_op_matches_the_full_curvature_oracle(alg, seed):
    """[C - Z, x] is [C, x] with the whole curvature, on random elements
    of degree <= 4 with odd factors and any End V parts."""
    x = random_element(alg, random.Random(seed), max_degree=4)
    assert alg.flat_op(x) == oracles.full_flat_op(alg)(x)


def test_flat_op_drops_the_casimir_and_constant_terms():
    """On so3 adjoint quantum the split is taken: the bracketed element is
    sum u_a (x) tau_a, with no Casimir or constant term."""
    so3 = builtin("so3")
    alg = QuantumAlgebra(so3.lie, so3.reps["adjoint"])
    x = alg.even_gen(1)
    image, bracketed = alg.flat_op(x), alg.bracketed_curvature
    assert sorted(sum(s) for s, _ in alg.curvature.terms) == [0, 1, 1, 1, 2, 2, 2]
    assert sorted(bracketed.terms) == [
        ((0, 0, 1), ()), ((0, 1, 0), ()), ((1, 0, 0), ())]
    assert bracketed.terms[((1, 0, 0), ())] == alg.rep.matrices[0]
    assert image == oracles.full_flat_op(alg)(x)


def _u1(alg):
    return alg.even_gen(0)


def _u1_squared(alg):
    return alg.even_gen(0) * alg.even_gen(0)


@pytest.mark.parametrize("rep_name, extra", [("trivial", _u1), ("adjoint", _u1_squared)],
                         ids=["trivial-u1", "adjoint-u1^2"])
def test_flat_op_keeps_a_non_central_scalar_term(rep_name, extra):
    """A curvature with an added scalar term that is not central, u1 (x) I
    or u1^2 (x) I, refuses the split: dropping it with the Casimir would
    lose [u1, u2] = u3 or [u1^2, u2] from [C, u2], and the op must still
    equal the full-curvature oracle."""
    so3 = builtin("so3")
    alg = _mutant(extra)(so3.lie, so3.reps[rep_name])
    u2 = alg.even_gen(1)
    image = alg.flat_op(u2)
    assert alg.bracketed_curvature is alg.curvature
    assert image == oracles.full_flat_op(alg)(u2)
    # the curvature minus every scalar term without an odd factor, the
    # added one among them, would be off by [extra, u2]
    split = alg.element({key: mat for key, mat in alg.curvature.terms.items()
                         if key[1] or mat._scalar() is None})
    assert image - supercommutator(split, u2) == supercommutator(extra(alg), u2)
    assert not supercommutator(extra(alg), u2).is_zero


def test_flat_op_splits_when_an_added_term_is_not_scalar():
    """On the adjoint rep an added u1 (x) I merges with u1 (x) tau_1 into
    u1 (x) (tau_1 + I), which is not scalar: the Casimir and constant
    terms are still central and dropped, and the op stays exact."""
    so3 = builtin("so3")
    alg = _mutant(_u1)(so3.lie, so3.reps["adjoint"])
    u2 = alg.even_gen(1)
    image, bracketed = alg.flat_op(u2), alg.bracketed_curvature
    assert bracketed.terms[((1, 0, 0), ())] == alg.rep.matrices[0] + Matrix.identity(3)
    assert sorted(sum(s) for s, _ in bracketed.terms) == [1, 1, 1]
    assert image == oracles.full_flat_op(alg)(u2)
