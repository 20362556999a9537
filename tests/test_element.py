"""The single-pass element product and supercommutator against the
oracles they replaced (`oracles.element_mul`, `oracles.parity_supercommutator`),
element for element, in both algebras."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weil import builtin
from weil import classical as cw
from weil import quantum as qw
from weil.linalg import Matrix

# (module, algebra, rep): the adjoint reps give the tau_a parts (nilpotent
# ones on heisenberg3), so3 trivial makes every End V part a 1 x 1 scalar
SETTINGS = [(cw, "so3", "adjoint"), (cw, "heisenberg3", "adjoint"),
            (qw, "so3", "adjoint"), (qw, "so3", "trivial"), (qw, "abelian(2)", "adjoint")]

coefficients = st.one_of(st.sampled_from([1, -1, 2, Fraction(-1, 2), Fraction(3, 4)]),
                         st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))


@st.composite
def end_parts(draw, rep):
    """An End V part: I, c I (c negative or fractional), tau_a, a matrix
    unit (products of matrix units are often the zero matrix, and then
    one order of a pair vanishes and the other does not), or a random
    matrix."""
    d = rep.dim
    kind = draw(st.sampled_from(["identity", "scalar", "tau", "unit", "random"]))
    if kind == "identity":
        return Matrix.identity(d)
    if kind == "scalar":
        return Matrix.identity(d) * draw(coefficients)
    if kind == "tau":
        return rep.matrices[draw(st.integers(0, len(rep.matrices) - 1))]
    if kind == "unit":
        cell = draw(st.integers(0, d * d - 1))
        return Matrix(d, d, [int(k == cell) for k in range(d * d)]) * draw(coefficients)
    entries = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    return Matrix(d, d, draw(st.lists(entries, min_size=d * d, max_size=d * d)))


@st.composite
def elements(draw, mod, lie, rep):
    """Up to 4 terms of degree <= 3, even and odd, with mixed End V parts.
    A term's monomial has both parts, only the even or only the odd part,
    or neither: with a c I matrix part, a term with no even part and one
    with no odd part supercommute in either algebra."""
    n = lie.dim
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        even = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        odd = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(n, 3)))))
        parts = draw(st.sampled_from(["both", "even", "odd", "neither"]))
        if parts in ("odd", "neither"):
            even = (0,) * n
        if parts in ("even", "neither"):
            odd = ()
        mat = draw(end_parts(rep))
        if mat:
            terms[(even, odd)] = mat
    return mod.Element(lie, rep, terms)


# one algebra object per name, so that elements drawn apart share it
ALGEBRAS = {name: builtin(name) for name in ("so3", "heisenberg3", "abelian(2)")}


@st.composite
def element_pairs(draw):
    mod, name, rep_name = draw(st.sampled_from(SETTINGS))
    alg = ALGEBRAS[name]
    lie, rep = alg.lie, alg.reps[rep_name]
    return mod, draw(elements(mod, lie, rep)), draw(elements(mod, lie, rep))


def _same_element(got, want):
    assert type(got) is type(want)
    assert got.terms == want.terms
    assert all(got.terms.values())


@given(element_pairs())
@settings(max_examples=250)
def test_product_and_supercommutator_match_the_oracles(pair):
    mod, x, y = pair
    _same_element(x * y, oracles.element_mul(x, y))
    _same_element(y * x, oracles.element_mul(y, x))
    _same_element(mod.supercommutator(x, y), oracles.parity_supercommutator(x, y))
    _same_element(mod.supercommutator(y, x), oracles.parity_supercommutator(y, x))


@pytest.mark.parametrize("mod", [cw, qw])
def test_bracket_with_a_zero_one_way_product(mod):
    """E_11 E_12 = E_12 but E_12 E_11 = 0: the bracket keeps the half
    whose matrix product survives, whichever half that is."""
    alg = ALGEBRAS["so3"]
    lie, rep = alg.lie, alg.reps["adjoint"]
    e11 = Matrix(3, 3, [1] + [0] * 8)
    e12 = Matrix(3, 3, [0, 1] + [0] * 7)
    x = mod.Element.odd_gen(lie, rep, 0) * mod.Element.endo(lie, rep, e11)
    y = mod.Element.even_gen(lie, rep, 1) * mod.Element.endo(lie, rep, e12)
    for a, b in ((x, y), (y, x)):
        got = mod.supercommutator(a, b)
        assert not got.is_zero
        _same_element(got, oracles.parity_supercommutator(a, b))
