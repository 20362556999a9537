"""The symbol oracle: each quantum operator has the classical one as its
top part; and the quotient oracles: modulo the u's the quantum algebra is
acyclic, and modulo the v's the classical algebra has the cohomology of
g with coefficients in End V."""

from functools import cached_property
from pathlib import Path

import pytest

import oracles
from test_checks import _LieDerivativeWithoutTau
from test_kernels import _so3_blocks
from weil import adjoint_rep, builtin, load_algebra_file
from weil.classical import ClassicalAlgebra
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


def _ce_cases():
    """so3, sl2 and so3-sum with every rep, H(g) = 1 + t^3, and so3 + so3
    adjoint, H(g) = (1 + t^3)^2."""
    for alg in (builtin("so3"), builtin("sl2"), SO3_SUM):
        for rep in alg.reps.values():
            yield pytest.param(alg.lie, rep, [1, 0, 0, 1], id=f"{alg.name}-{rep.name}")
    pair = _so3_blocks(2)
    yield pytest.param(pair, adjoint_rep(pair), [1, 0, 0, 2, 0, 0, 1], id="so3^2-adjoint")


@pytest.mark.parametrize("lie, rep, betti", _ce_cases())
def test_the_ce_quotient_has_the_cohomology_of_g_times_the_invariants(lie, rep, betti):
    """Modulo the ideal of the v's the classical algebra is the
    Chevalley-Eilenberg complex of g with coefficients in End V, whose
    cohomology for semisimple g is H(g) (x) (End V)^g
    (`oracles.ce_quotient_cohomology`)."""
    invariants = oracles.commutant_dim(rep)
    assert oracles.ce_quotient_cohomology(ClassicalAlgebra(lie, rep)) == [b * invariants
                                                                           for b in betti]


def test_the_ce_quotient_on_an_abelian_algebra_and_the_commutants():
    """On abelian(2) adjoint tau = 0, so d is 0 on the quotient, which is
    all cohomology: /\\ g* (x) End V, of dims 4, 8, 4.  By Schur's lemma
    (End V)^g is 1-dimensional on so3-sum's irreducible reps and
    2-dimensional on their sum.  heisenberg3 adjoint, not semisimple,
    gives 3, 8, 8, 3 (observed, not asserted)."""
    abelian = builtin("abelian(2)")
    alg = ClassicalAlgebra(abelian.lie, abelian.reps["adjoint"])
    assert oracles.ce_quotient_cohomology(alg) == [4, 8, 4]
    assert {name: oracles.commutant_dim(rep) for name, rep in SO3_SUM.reps.items()} == {
        "trivial": 1, "adjoint": 1, "sum": 2}


class _DifferentialWithoutTau(ClassicalAlgebra):
    """d without its y^b [tau_b, A] term: End V no longer enters the
    quotient's d."""

    @cached_property
    def derivations(self):
        *others, d = ClassicalAlgebra.derivations.func(self)
        return (*others, d._replace(endo=()))


class _DifferentialWithHalvedBracket(ClassicalAlgebra):
    """d y^c = v^c - (1/4) f^c_ab y^a y^b: the (1/2) f y y term halved."""

    @cached_property
    def derivations(self):
        *others, d = ClassicalAlgebra.derivations.func(self)
        y = {c: [(g, w, p, 2 * r if len(w) == 2 else r, t) for g, w, p, r, t in image]
             for c, image in d.y.items()}
        return (*others, d._replace(y=y))


def test_the_ce_quotient_fails_on_mutant_differentials():
    """Without y^b [tau_b, A] the quotient has H^0 = H^3 = dim End V = 9 on
    so3 adjoint, not 1; with the halved bracket term d^2 != 0 on it."""
    so3 = builtin("so3")
    lie, rep = so3.lie, so3.reps["adjoint"]
    assert oracles.ce_quotient_cohomology(_DifferentialWithoutTau(lie, rep)) == [9, 0, 0, 9]
    with pytest.raises(AssertionError, match=r"^d\^2 != 0 on the quotient in degree 0$"):
        oracles.ce_quotient_cohomology(_DifferentialWithHalvedBracket(lie, rep))
