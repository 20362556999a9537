"""The `WeilAlgebra` value: what two values on one (lie, rep) share, and
how many values one report or check builds."""

from fractions import Fraction

import pytest

from weil import ClassicalAlgebra, QuantumAlgebra, builtin, checks, cli, expr


def test_two_values_on_one_lie_and_rep_give_equal_elements(so3):
    """Each `expr.evaluate` call builds its own value; elements compare by
    (lie, rep) and terms, so a rendering evaluated again equals the
    element it came from."""
    lie, rep = so3.lie, so3.reps["adjoint"]
    src = "comm(QC, u1*tau(1)) + gamma*Dirac + d(x2)"
    first = expr.evaluate(src, lie, rep, "quantum")
    assert first == expr.evaluate(src, lie, rep, "quantum")
    assert first == expr.evaluate(expr.render(first), lie, rep, "quantum")
    a, b = QuantumAlgebra(lie, rep), QuantumAlgebra(lie, rep)
    assert a is not b and a.curvature is not b.curvature
    assert a.curvature == b.curvature and a.dirac == b.dirac


@pytest.mark.parametrize("kind", [ClassicalAlgebra, QuantumAlgebra])
def test_an_operator_index_past_the_dimension_raises(so3, kind):
    """L_a and iota_a are indices a and n + a of one operator table; an
    a >= n must raise, not reach iota_0 or d, and an a < 0 must raise,
    not act as index n + a."""
    alg = kind(so3.lie, so3.reps["adjoint"])
    x = alg.odd_gen(0) * alg.even_gen(1)
    for op in (alg.lie_derivative, alg.contraction):
        for a in (-1, 3):
            with pytest.raises(IndexError):
                op(a, x)


@pytest.mark.parametrize("kind", [ClassicalAlgebra, QuantumAlgebra])
def test_a_generator_index_outside_the_range_raises(so3, kind):
    """tau(a), even_gen(a) and odd_gen(a) raise for a = -1 and a = n,
    rather than count from the end or build a generator outside g."""
    alg = kind(so3.lie, so3.reps["adjoint"])
    for make in (alg.tau, alg.even_gen, alg.odd_gen):
        for a in (-1, 3):
            with pytest.raises(IndexError):
                make(a)
        assert not make(2).is_zero


@pytest.mark.parametrize("kind", [ClassicalAlgebra, QuantumAlgebra])
def test_a_float_scalar_raises_type_error(so3, kind):
    """A float would enter as its binary rounding (0.1 as
    3602879701896397/36028797018963968): `scalar`, a product with an
    element and an element plus or minus a number raise TypeError, not a
    wrong value or a ValueError about algebras; elements of two algebras
    still raise ValueError."""
    alg = kind(so3.lie, so3.reps["adjoint"])
    x = alg.even_gen(0)
    for make in (lambda: alg.scalar(0.1), lambda: x * 0.5, lambda: 0.5 * x,
                 lambda: x + 1, lambda: x - 1, lambda: x + 0.5):
        with pytest.raises(TypeError):
            make()
    assert alg.scalar(Fraction(1, 10)) == alg.unit() * Fraction(1, 10)
    other = (QuantumAlgebra if kind is ClassicalAlgebra else ClassicalAlgebra)(
        so3.lie, so3.reps["adjoint"])
    for make in (lambda: x * other.even_gen(0), lambda: x + other.even_gen(0),
                 lambda: x - other.even_gen(0)):
        with pytest.raises(ValueError, match="different algebras"):
            make()


@pytest.fixture
def built(monkeypatch):
    """The values each algebra class constructs while the test runs."""
    seen = []
    for kind in (ClassicalAlgebra, QuantumAlgebra):
        def counted(self, post_init=kind.__post_init__):
            seen.append(type(self))
            post_init(self)
        monkeypatch.setattr(kind, "__post_init__", counted)
    return seen


def test_one_flat_report_builds_one_value(built):
    so3 = builtin("so3")
    for context, kind in (("quantum", QuantumAlgebra), ("classical", ClassicalAlgebra)):
        built.clear()
        cli.flat_report_data(so3, so3.reps["adjoint"], context, 1, 5, 0)
        assert built == [kind]


def test_one_classical_suite_builds_one_value(built):
    so3 = builtin("so3")
    results = checks.classical_suite(so3.lie, so3.reps["adjoint"], samples=3, seed=0)
    assert all(r.passed for r in results)
    assert built == [ClassicalAlgebra]
