from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionMatrix, fraction_nullspace, fraction_rank, matrix_rows
from weil.linalg import Matrix, format_scalar, nullspace, parse_scalar, rank

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def test_scalar_arithmetic_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(-1, 6) * 6 == -1
    # needed for gamma^2 on so(3): hand arithmetic
    assert Fraction(1, 48) * 6 == Fraction(1, 8)


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_scalar_serialization():
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(-3, 4)) == "-3/4"
    assert format_scalar(Fraction(5)) == "5"
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-7") == -7
    assert parse_scalar("−1/6") == Fraction(-1, 6)
    for q in (Fraction(0), Fraction(22, 7), Fraction(-9, 2)):
        assert parse_scalar(format_scalar(q)) == q


@given(rationals, rationals, rationals)
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _ad_so3():
    # adjoint matrices of so(3) straight from the structure constants
    t1 = Matrix.from_rows([[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    t2 = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    t3 = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    return t1, t2, t3


def test_matrix_product_examples():
    t1, t2, t3 = _ad_so3()
    assert Matrix.identity(3) * t1 == t1
    assert Matrix.zeros(3, 3) * t1 == Matrix.zeros(3, 3)
    # homomorphism property of the adjoint: [ad e1, ad e2] = ad e3
    assert t1 * t2 - t2 * t1 == t3
    assert t1.commutator(t2) == t3


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2]]) * Matrix.from_rows([[1, 2]])
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2]]).commutator(Matrix.from_rows([[1, 2]]))


def test_commutator_trivial_cases():
    t1, _, _ = _ad_so3()
    assert t1.commutator(t1).is_zero
    assert Matrix.identity(3).commutator(t1).is_zero


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix.from_rows)
)


@given(small_matrices, small_matrices)
@settings(max_examples=40)
def test_commutator_antisymmetry(a, b):
    if a.rows != b.rows:
        return
    assert a.commutator(b) == -b.commutator(a)


def test_nullspace_trivial():
    assert nullspace(Matrix.identity(4)) == []
    vecs = nullspace(Matrix.zeros(2, 2))
    assert len(vecs) == 2
    assert vecs[0] == Matrix(2, 1, [1, 0])
    assert vecs[1] == Matrix(2, 1, [0, 1])


def test_nullspace_rectangular():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    vecs = nullspace(m)
    assert len(vecs) == 2
    for v in vecs:
        assert (m * v).is_zero


rect_matrices = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
).flatmap(
    lambda shape: st.lists(
        st.lists(rationals, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(Matrix.from_rows)
)


@given(rect_matrices)
@settings(max_examples=60, deadline=None)
def test_nullspace_properties_against_sympy(m):
    import sympy

    vecs = nullspace(m)
    for v in vecs:
        assert (m * v).is_zero
    assert len(vecs) == m.cols - rank(m)
    sm = sympy.Matrix(matrix_rows(m))
    assert rank(m) == sm.rank()
    assert len(vecs) == len(sm.nullspace())


def test_nullspace_deterministic():
    m = Matrix.from_rows([[1, 2, 3], [0, 0, 1]])
    first = nullspace(m)
    second = nullspace(m)
    assert first == second
    assert len(first) == 1
    assert (m * first[0]).is_zero


def test_commutant_of_so3_adjoint_is_scalars():
    """Stacked commutator systems: the kernel of X -> [ad_a, X] for all a.

    vec([T, X]) = (T kron I - I kron T^T) vec(X); the commutant of the
    irreducible adjoint action is just the scalars.
    """
    import sympy as sp

    eye = sp.eye(3)
    stacked = sp.Matrix.vstack(*[
        sp.kronecker_product(sp.Matrix(matrix_rows(t)), eye)
        - sp.kronecker_product(eye, sp.Matrix(matrix_rows(t)).T)
        for t in _ad_so3()
    ])
    assert len(stacked.nullspace()) == 1


# -- integer numerators over a common denominator, against the Fraction oracle --

oracle_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
)
scalars = st.one_of(st.sampled_from([0, 1, -1, Fraction(1), Fraction(-1)]),
                    st.integers(-10**6, 10**6), oracle_entries)


def _grid(rows, cols):
    return st.lists(st.lists(oracle_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _same(m, fm):
    """m equals the oracle's fm entry for entry, and m is canonical."""
    assert (m.rows, m.cols) == (fm.rows, fm.cols)
    assert m.entries == fm.entries
    assert m.render() == fm.render()
    assert bool(m) == bool(fm) and m.is_zero == fm.is_zero
    assert m.den > 0 and gcd(m.den, *m.num) == 1
    assert all(type(x) is int for x in m.num) and type(m.den) is int


@given(st.tuples(*[st.integers(1, 4)] * 3).flatmap(
    lambda s: st.tuples(_grid(s[0], s[1]), _grid(s[0], s[1]), _grid(s[1], s[2]))),
    scalars)
@settings(max_examples=150)
def test_matrix_matches_fraction_oracle(grids, s):
    ga, ga2, gb = grids
    a, a2, b = (Matrix.from_rows(g) for g in grids)
    fa, fa2, fb = (FractionMatrix.from_rows(g) for g in grids)
    _same(a, fa)
    _same(a + a2, fa + fa2)
    _same(a - a2, fa - fa2)
    _same(-a, -fa)
    _same(a * b, fa * fb)
    _same(a * s, fa * s)
    _same(s * a, s * fa)
    _same(a.transpose(), fa.transpose())
    assert (a == a2) == (fa == fa2)
    # equal over Q by another route: equal and hash equal
    for other in (a + a2 - a2, (a * 2) * Fraction(1, 2), Matrix(a.rows, a.cols, fa.entries)):
        assert other == a and hash(other) == hash(a)
    assert rank(a) == fraction_rank(fa)
    kernel, oracle_kernel = nullspace(a), fraction_nullspace(fa)
    assert len(kernel) == len(oracle_kernel)
    for v, fv in zip(kernel, oracle_kernel):
        _same(v, fv)
    if a.rows == a.cols:
        assert a.trace() == fa.trace()
        assert a.scalar_value() == fa.scalar_value()
        ident, fident = Matrix.identity(a.rows) * s, FractionMatrix.identity(a.rows) * s
        _same(ident, fident)
        assert ident.scalar_value() == fident.scalar_value()
        _same(a.commutator(a2), fa.commutator(fa2))


def test_equal_matrices_built_by_different_routes_compare_and_hash_equal():
    half = Matrix.from_rows([[Fraction(2, 4)]])
    product = Matrix.from_rows([[Fraction(1, 2)]]) * Matrix.from_rows([[1]])
    assert half == product and hash(half) == hash(product)
    assert (half.num, half.den) == ((1,), 2)
    third = Matrix.from_rows([[Fraction(1, 6), Fraction(1, 6)]]) + Matrix.from_rows(
        [[Fraction(1, 6), Fraction(-1, 6)]])
    assert third == Matrix.from_rows([[Fraction(1, 3), 0]])
    zero = Matrix.from_rows([[Fraction(1, 3)]]) - Matrix.from_rows([[Fraction(1, 3)]])
    assert zero == Matrix.zeros(1, 1) and (zero.num, zero.den) == ((0,), 1)
    assert hash(zero) == hash(Matrix.zeros(1, 1)) and not zero


def test_entries_is_read_only():
    m = Matrix.from_rows([[1, Fraction(1, 2)]])
    assert m.entries == (Fraction(1), Fraction(1, 2))
    with pytest.raises(AttributeError):
        m.entries = (Fraction(0), Fraction(0))


@pytest.mark.parametrize("text", ["1e400", "1e40000", "0.5", "1_0", "+1", "1/-2", "- 1", "",
                                  "١", "1" * 1001, "1/" + "1" * 1001])
def test_parse_scalar_accepts_only_p_over_q(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_parse_scalar_bounds_and_zero_denominator():
    assert parse_scalar("9" * 1000 + "/" + "7" * 1000) == Fraction(int("9" * 1000),
                                                                    int("7" * 1000))
    assert parse_scalar(" −0/5 ") == 0
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")
