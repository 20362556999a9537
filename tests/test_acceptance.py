"""Acceptance suite: every criterion exact over the rationals.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and
enforces its runtime budget.  Random pools are seeded, so failures are
reproducible.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import oracles
import pytest
from oracles import embed_scalar_poly, scalar_weil_differential

from weil import builtin, kernels
from weil.checks import (
    classical_suite,
    quantum_structure_suite,
    quantum_suite,
    random_scalar_weil_poly,
    random_sym_poly,
)
from weil.classical import ClassicalAlgebra
from weil.cli import main
from weil.flat import decomposition_report, flat_subspace, inclusion_report
from weil.kernels import pbw_mono_mul
from weil.lie import trivial_rep
from weil.linalg import Matrix
from weil.quantum import QuantumAlgebra

CLASSICAL_GRID = [
    (name, rep)
    for name in ("abelian(2)", "heisenberg3", "so3", "sl2")
    for rep in ("trivial", "standard", "adjoint")
    if not (name in ("abelian(2)", "heisenberg3") and rep == "standard")
]


@contextmanager
def criterion(num, budget, description):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL ({time.monotonic() - t0:.1f}s, "
              f"budget {budget}s): {description}")
        raise
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num} PASS ({elapsed:.1f}s, budget {budget}s): {description}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_classical_identity_suite():
    with criterion(1, 30, "classical operator identities, 200 random elements per pair"):
        for name, rep_name in CLASSICAL_GRID:
            alg = builtin(name)
            results = classical_suite(alg.lie, alg.reps[rep_name], samples=200, seed=2024)
            for r in results:
                assert r.passed, (name, rep_name, r.name, r.detail)


def test_criterion_2_classical_restriction():
    with criterion(2, 5, "restriction to identity matrix part: d = scalar Weil "
                         "differential and d.d = 0, 100 elements per algebra"):
        for name in ("abelian(2)", "heisenberg3", "so3", "sl2"):
            alg = builtin(name)
            rep = alg.reps["adjoint"]
            rng = random.Random(7)
            for _ in range(100):
                poly = random_scalar_weil_poly(alg.lie, rng)
                elem = embed_scalar_poly(alg.lie, rep, poly)
                ref = scalar_weil_differential(alg.lie, poly)
                c = ClassicalAlgebra(alg.lie, rep)
                assert c.differential(elem) == embed_scalar_poly(alg.lie, rep, ref)
                assert c.differential(c.differential(elem)).is_zero


def test_criterion_3_symmetric_annihilation_lemma():
    with criterion(3, 5, "v^a L_a annihilates 100 random symmetric polynomials "
                         "per algebra"):
        for name in ("abelian(2)", "heisenberg3", "so3", "sl2"):
            alg = builtin(name)
            rep = alg.reps["adjoint"]
            rng, c = random.Random(11), ClassicalAlgebra(alg.lie, rep)
            for _ in range(100):
                poly = random_sym_poly(alg.lie, rng)
                f = embed_scalar_poly(alg.lie, rep, {(m, ()): q for m, q in poly.items()})
                acc = c.zero()
                for a in range(alg.lie.dim):
                    acc = acc + c.even_gen(a) * c.lie_derivative(a, f)
                assert acc.is_zero


def test_criterion_4_quantum_structural_lemmas():
    with criterion(4, 10, "quantum structural lemmas on so(3) and abelian(2), "
                          "gamma^2 = -1/8 by independent Clifford expansion"):
        for name in ("so3", "abelian(2)"):
            alg = builtin(name)
            for r in quantum_structure_suite(QuantumAlgebra(alg.lie, trivial_rep(alg.lie))):
                assert r.passed, (name, r.name, r.detail)
        so3 = builtin("so3").lie
        q = QuantumAlgebra(so3, trivial_rep(so3))
        assert q.gamma * q.gamma == q.scalar(Fraction(-1, 8))
        # independent expansion: gamma = -x1x2x3, and (x1x2x3)^2 = -1/8
        x = [q.odd_gen(a) for a in range(3)]
        top = x[0] * x[1] * x[2]
        assert q.gamma == -top
        assert top * top == q.scalar(Fraction(-1, 8))
        abelian = builtin("abelian(2)").lie
        qa = QuantumAlgebra(abelian, trivial_rep(abelian))
        assert (qa.gamma * qa.gamma).is_zero


def test_criterion_5_quantum_operator_suite():
    with criterion(5, 60, "quantum operator identities on so(3), trivial and "
                          "adjoint reps, 200 random elements each"):
        alg = builtin("so3")
        for rep_name in ("trivial", "adjoint"):
            results = quantum_suite(alg.lie, alg.reps[rep_name], samples=200, seed=2024)
            for r in results:
                assert r.passed, (rep_name, r.name, r.detail)
        # witnessed inequality of the coupled and uncoupled differentials
        q = QuantumAlgebra(alg.lie, alg.reps["adjoint"])
        x1 = q.odd_gen(0)
        assert q.differential(x1) != q.weil_differential(x1)
        assert q.differential(x1) == q.weil_differential(x1) + q.tau(0)


def test_criterion_6_pbw_confluence():
    with criterion(6, 10, "500 random PBW products: the kernel and two rewriting strategies agree"):
        lie = builtin("so3").lie
        rng = random.Random(2024)
        for _ in range(500):
            monos = []
            for _ in range(2):
                mono = [0, 0, 0]
                for _ in range(rng.randint(0, 5)):
                    mono[rng.randrange(3)] += 1
                monos.append(tuple(mono))
            a = {monos[0]: Fraction(1)}
            b = {monos[1]: Fraction(1)}
            left = oracles.mul_pbw(a, b, lie, "leftmost")
            right = oracles.mul_pbw(a, b, lie, "rightmost")
            assert left == right, monos
            assert oracles.pbw_poly_mul(a, b, lie) == left, monos


def sympy_commutant_dim(mats):
    import sympy as sp

    d = mats[0].rows
    eye = sp.eye(d)
    blocks = [
        sp.kronecker_product(sp.Matrix(oracles.matrix_rows(t)), eye)
        - sp.kronecker_product(eye, sp.Matrix(oracles.matrix_rows(t)).T)
        for t in mats
    ]
    return len(sp.Matrix.vstack(*blocks).nullspace())


def test_criterion_10_pbw_degree_eight():
    with criterion(10, 1, "u3^8 u1^8 on so3 in PBW normal form within a second"):
        kernels._pbw_left.cache_clear()  # equal algebras share entries: start cold
        pbw_mono_mul.cache_clear()
        product = dict(pbw_mono_mul((0, 0, 8), (8, 0, 0), builtin("so3").lie.bracket_table))
        assert product.pop((8, 0, 8)) == 1
        assert product and all(sum(m) < 16 for m in product)


def test_criterion_7_flat_solver_theorems():
    with criterion(7, 120, "classical basic inside flat up to degree 2; "
                           "decomposition dims; degree-0 commutant oracle"):
        pairs = [("so3", "adjoint"), ("so3", "standard"),
                 ("sl2", "adjoint"), ("sl2", "standard")]
        for name, rep_name in pairs:
            alg = builtin(name)
            report = inclusion_report(flat_subspace(ClassicalAlgebra(alg.lie, alg.reps[rep_name]), 2))
            for row in report["per_degree"]:
                assert row["basic_subset_flat"], (name, rep_name, row)
        alg = builtin("so3")
        dec = decomposition_report(flat_subspace(ClassicalAlgebra(alg.lie, alg.reps["adjoint"]), 1))
        assert dec["all_match"]
        for row in dec["per_degree"]:
            assert row["dim_full_flat"] == 8 * row["dim_hor_flat"]
        for name, rep_name in pairs:
            alg = builtin(name)
            rep = alg.reps[rep_name]
            flat0 = flat_subspace(ClassicalAlgebra(alg.lie, rep), 0)
            assert flat0.dims[0] == sympy_commutant_dim(rep.matrices), (name, rep_name)


def test_criterion_8_open_question_artifact(capsys):
    with criterion(8, 180, "quantum evidence report is schema-1 JSON, "
                           "byte-identical across runs"):
        argv = ["flat", "--quantum", "--builtin", "so3", "--rep", "adjoint",
                "--max-degree", "2", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.encode() == second.encode()
        data = json.loads(first)
        assert data["schema"] == 1
        assert data["algebra"] == "quantum"
        assert data["lie"] == "so3" and data["rep"] == "adjoint" and data["N"] == 2
        assert [row["deg"] for row in data["per_degree"]] == [0, 1, 2]
        for row in data["per_degree"]:
            assert isinstance(row["dim_basic"], int)
            assert isinstance(row["dim_flat"], int)


CORRUPTED_FILE = """
{
  "dim": 3,
  "f": [[1, 2, 3, "1"], [2, 3, 2, "1"], [1, 3, 2, "-1"]],
  "B": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
}
"""


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, 30, "check exits 0 classically and quantum-side; a corrupted "
                          "structure constant flips validation to exit 1"):
        assert main(["check", "--builtin", "so3", "--rep", "adjoint",
                     "--classical", "--samples", "25"]) == 0
        assert main(["check", "--builtin", "so3", "--rep", "adjoint",
                     "--quantum", "--samples", "25"]) == 0
        capsys.readouterr()
        path = tmp_path / "corrupted.json"
        path.write_text(CORRUPTED_FILE)
        code = main(["check", "--file", str(path), "--rep", "adjoint", "--classical"])
        out = capsys.readouterr().out
        assert code == 1
        assert "jacobi violation at (1,2,3)" in out
