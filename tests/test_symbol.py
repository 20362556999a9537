"""The symbol oracle: each quantum operator has the classical one as its
top part; and the quotient oracle: modulo the u's the quantum algebra is
acyclic."""

from pathlib import Path

import pytest

import oracles
from test_checks import _LieDerivativeWithoutTau
from test_kernels import _so3_blocks
from weil import adjoint_rep, builtin, load_algebra_file
from weil.flat import span_rank
from weil.quantum import QuantumAlgebra

SO3_SUM = load_algebra_file(Path(__file__).parent / "goldens" / "so3-sum.json")


def _cases():
    so3 = builtin("so3")
    for name, rep in so3.reps.items():
        yield pytest.param(so3.lie, rep, id=f"so3-{name}")
    yield pytest.param(SO3_SUM.lie, SO3_SUM.reps["sum"], id="so3-sum")
    abelian = builtin("abelian(2)")
    yield pytest.param(abelian.lie, abelian.reps["adjoint"], id="abelian2-adjoint")
    pair = _so3_blocks(2)
    yield pytest.param(pair, adjoint_rep(pair), id="so3^2-adjoint")


@pytest.mark.parametrize("lie, rep", _cases())
def test_quantum_operators_have_the_classical_symbol(lie, rep):
    """L_a, iota_a, d and [C_q - Z, .] on every key of Weil degree <= 3."""
    assert oracles.symbol_mismatches(lie, rep, 3) == []


class _DifferentialWithFlippedTau(QuantumAlgebra):
    """d = [D - x_a tau_a, -]: the curvature (D + x_a tau_a)^2 is kept."""

    def _inner_element(self, i):
        if i < 2 * self.lie.dim:
            return super()._inner_element(i)
        return sum((self.odd_gen(a) * self.tau(a) * -1 for a in range(self.lie.dim)),
                   self.dirac)


class _DifferentialWithDoubledGamma(QuantumAlgebra):
    """d = [D + gamma + x_a tau_a, -]: d x_a gains a second g_a."""

    def _inner_element(self, i):
        inner = super()._inner_element(i)
        return inner + self.gamma if i == 2 * self.lie.dim else inner


class _DifferentialPlusIota(QuantumAlgebra):
    """d + [x_1, -] = d + iota_1: a change below d's top degree."""

    def _inner_element(self, i):
        inner = super()._inner_element(i)
        return inner + self.odd_gen(0) if i == 2 * self.lie.dim else inner


@pytest.mark.parametrize("mutant, operator", [(_LieDerivativeWithoutTau, "L_"),
                                              (_DifferentialWithFlippedTau, "d "),
                                              (_DifferentialWithDoubledGamma, "d "),
                                              (_DifferentialPlusIota, None)])
def test_the_symbol_oracle_catches_top_degree_mutants(monkeypatch, mutant, operator):
    """A mutant that changes an operator's top part fails the oracle on
    so3 adjoint, and only at that operator; one that changes d only
    below its top degree passes, by design (`oracles.symbol_mismatches`)."""
    so3 = builtin("so3")
    monkeypatch.setattr(oracles, "QuantumAlgebra", mutant)
    found = oracles.symbol_mismatches(so3.lie, so3.reps["adjoint"], 3)
    if operator is None:
        assert found == []
    else:
        assert found and all(line.startswith(operator) for line in found)


class _DifferentialPlusX1(QuantumAlgebra):
    """d + x_1: d(u_a) gains the u-free term x_1."""

    def differential(self, x):
        return super().differential(x) + self.odd_gen(0)


def _quotient(alg):
    """(dim, rank d, d^2 = 0) on `oracles.quantum_quotient(alg)`."""
    basis, d = oracles.quantum_quotient(alg)
    images = [d(x) for x in basis]
    return len(basis), span_rank(images), all(d(y).is_zero for y in images)


@pytest.mark.parametrize("rep, dim", [("trivial", 8), ("standard", 72), ("adjoint", 72)])
def test_the_quantum_quotient_is_acyclic(rep, dim):
    """Modulo the ideal of the u's, so3's quantum algebra is Cl(g) (x) End V
    with d = [gamma + x_a tau_a, .]; gamma^2 + (1/2) sum tau_a^2 is a
    nonzero scalar on these reps, so d^2 = 0 and rank d = dim / 2
    (`oracles.quantum_quotient`)."""
    so3 = builtin("so3")
    assert _quotient(QuantumAlgebra(so3.lie, so3.reps[rep])) == (dim, dim // 2, True)


def test_the_quantum_quotient_fails_on_a_doubled_gamma():
    so3 = builtin("so3")
    dim, rank, square_zero = _quotient(_DifferentialWithDoubledGamma(so3.lie, so3.reps["adjoint"]))
    assert (dim, square_zero) == (72, False) and rank != 36


def test_the_quantum_quotient_needs_d_to_keep_the_ideal():
    so3 = builtin("so3")
    with pytest.raises(AssertionError, match=r"^d\(u_1\) has a term with no u factor$"):
        oracles.quantum_quotient(_DifferentialPlusX1(so3.lie, so3.reps["adjoint"]))
