"""The symbol oracle: each quantum operator has the classical one as its top part."""

from pathlib import Path

import pytest

import oracles
from test_checks import _LieDerivativeWithoutTau
from test_kernels import _so3_blocks
from weil import adjoint_rep, builtin, load_algebra_file
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
