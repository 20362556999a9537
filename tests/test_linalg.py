import signal
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (FractionMatrix, fraction_nullspace, fraction_rank, matrix_rows,
                     row_combination_mul, two_product_commutator)
from weil import builtin, linalg
from weil.linalg import (CACHE_SIZE, Matrix, _cancel, _primitive, format_scalar, kernel,
                         parse_scalar, rank)

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


def test_ragged_rows_a_non_square_trace_and_non_matrix_operands():
    """`from_rows` refuses ragged rows and `trace` a non-square matrix;
    a Matrix plus or minus a non-matrix is a TypeError through
    NotImplemented, as 1 + Matrix is, and == with a non-matrix is False."""
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="trace needs a square matrix"):
        Matrix.from_rows([[1, 2]]).trace()
    m = Matrix.identity(2)
    for op in (lambda: m + 1, lambda: 1 + m, lambda: m - 1, lambda: m * "a"):
        with pytest.raises(TypeError):
            op()
    assert m.__add__(1) is NotImplemented and m.__eq__(1) is NotImplemented
    assert (m == 1) is False and m != 1


def test_shape_mismatch_with_a_scalar_factor_raises():
    """c I times a matrix of the wrong height is an error, not a
    scaling."""
    for left, right in ((Matrix.identity(2), Matrix.from_rows([[1, 2, 3]])),
                        (Matrix.from_rows([[1, 2, 3]]), Matrix.identity(2)),
                        (Matrix.identity(2) * Fraction(-3, 2), Matrix.identity(3)),
                        (Matrix.zeros(2, 2), Matrix.identity(1)),
                        (Matrix.identity(1), Matrix.zeros(2, 2))):
        with pytest.raises(ValueError, match="shape mismatch"):
            left * right
    with pytest.raises(ValueError):
        Matrix.identity(2).commutator(Matrix.identity(3))
    with pytest.raises(ValueError):
        Matrix.identity(2).commutator(Matrix.from_rows([[1, 2]]))


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


def test_identity_cache_is_bounded():
    """Identity matrices are cached, but at most CACHE_SIZE of them."""
    for n in range(1, CACHE_SIZE + 11):
        ident = Matrix.identity(n)
        assert ident.rows == ident.cols == n
        assert ident.entries == FractionMatrix.identity(n).entries
        assert Matrix.identity(n) is ident
    assert Matrix.identity.cache_info().currsize <= CACHE_SIZE


def _rows(m):
    """The numerator rows of m as {column: int}: m scaled by its denominator."""
    c = m.cols
    return [{j: x for j, x in enumerate(m.num[i * c:(i + 1) * c]) if x} for i in range(m.rows)]


def _column(vec, n):
    """A kernel vector (numerators, denominator), in lowest terms, as an n x 1 Matrix."""
    nums, den = vec
    assert den > 0 and gcd(den, *nums.values()) == 1 and all(nums.values())
    assert list(nums) == sorted(nums) and all(0 <= j < n for j in nums)
    return Matrix(n, 1, [Fraction(nums.get(j, 0), den) for j in range(n)])


def _kernel_columns(m):
    return [_column(vec, m.cols) for vec in kernel(_rows(m), m.cols)]


def test_nullspace_trivial():
    assert _kernel_columns(Matrix.identity(4)) == []
    vecs = _kernel_columns(Matrix.zeros(2, 2))
    assert len(vecs) == 2
    assert vecs[0] == Matrix(2, 1, [1, 0])
    assert vecs[1] == Matrix(2, 1, [0, 1])


def test_nullspace_rectangular():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    vecs = _kernel_columns(m)
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

    vecs = _kernel_columns(m)
    for v in vecs:
        assert (m * v).is_zero
    assert len(vecs) == m.cols - rank(_rows(m))
    sm = sympy.Matrix(matrix_rows(m))
    assert rank(_rows(m)) == sm.rank()
    assert len(vecs) == len(sm.nullspace())


def test_nullspace_deterministic():
    m = Matrix.from_rows([[1, 2, 3], [0, 0, 1]])
    first = _kernel_columns(m)
    second = _kernel_columns(m)
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


def _scalar_grid(n, c):
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


@st.composite
def near_scalar_grids(draw, n):
    """n x n grids one entry or one pattern away from c I: a constant
    zero diagonal with n nonzeros off it (as many zeros as c I has), one
    diagonal entry changed, or one off-diagonal entry added."""
    c = draw(oracle_entries.filter(bool))
    grid = _scalar_grid(n, c)
    kind = draw(st.sampled_from(["cycle", "diagonal", "off-diagonal"]))
    if kind == "cycle":
        grid = _scalar_grid(n, 0)
        for i in range(n):
            grid[i][(i + 1) % n] = c
    elif kind == "diagonal":
        i = draw(st.integers(0, n - 1))
        grid[i][i] = draw(oracle_entries.filter(lambda e: e != c))
    elif n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        grid[i][j] = draw(oracle_entries.filter(bool))
    return grid


def square_grids(n, scalar):
    """With `scalar`, c I for c zero, negative or fractional; else a
    random grid or a near-scalar one."""
    if scalar:
        return oracle_entries.map(lambda c: _scalar_grid(n, c))
    return st.one_of(_grid(n, n), _grid(n, n), near_scalar_grids(n))


@st.composite
def oracle_grids(draw):
    """Grids a, a2 (r x k) and b (k x m), up to 4 x 4: a and a2 scalar
    (then r = k), b scalar (then m = k), both, or neither."""
    r, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    left, right = draw(st.booleans()), draw(st.booleans())
    if left:
        ga = draw(square_grids(k, True))
        ga2 = draw(square_grids(k, draw(st.booleans())))
    elif r == k:
        ga, ga2 = draw(square_grids(k, False)), draw(square_grids(k, False))
    else:
        ga, ga2 = draw(_grid(r, k)), draw(_grid(r, k))
    gb = draw(square_grids(k, True)) if right else draw(_grid(k, m))
    return ga, ga2, gb


def _same(m, fm):
    """m equals the oracle's fm entry for entry, and m is canonical."""
    assert (m.rows, m.cols) == (fm.rows, fm.cols)
    assert m.entries == fm.entries
    assert m.render() == fm.render()
    assert bool(m) == bool(fm) and m.is_zero == fm.is_zero
    assert m.den > 0 and gcd(m.den, *m.num) == 1
    assert all(type(x) is int for x in m.num) and type(m.den) is int


@given(st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=200)
def test_render_prints_each_entry_in_lowest_terms(r, c, data):
    """Over mixed denominators, each entry reduces by its own gcd with
    the common denominator, as the Fraction routines print it."""
    entries = data.draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9),
                                           st.fractions(-9, 9, max_denominator=12)),
                                 min_size=r * c, max_size=r * c))
    m = Matrix(r, c, entries)
    assert m.render() == FractionMatrix(r, c, entries).render() == oracles.fraction_matrix_render(m)
    assert Matrix.from_rows([[Fraction(1, 2), Fraction(-2, 3)], [6, 0]]).render() == \
        "[[1/2,-2/3],[6,0]]"


@given(oracle_grids(), scalars)
@settings(max_examples=300)
def test_matrix_matches_fraction_oracle(grids, s):
    """Matrix against the Fraction oracle, with c I factors (1 x 1
    included) drawn on the left of the product, the right, or both,
    and near-scalar matrices: every product takes the one general
    kernel, c I factors included."""
    a, a2, b = (Matrix.from_rows(g) for g in grids)
    fa, fa2, fb = (FractionMatrix.from_rows(g) for g in grids)
    _same(a, fa)
    _same(a + a2, fa + fa2)
    _same(a - a2, fa - fa2)
    _same(-a, -fa)
    _same(a * b, fa * fb)
    if a.rows == a.cols:
        _same(a * a2, fa * fa2)
        _same(a2 * a, fa2 * fa)
    _same(a * s, fa * s)
    _same(s * a, s * fa)
    _same(a.transpose(), fa.transpose())
    assert (a == a2) == (fa == fa2)
    # equal over Q by another route: equal and hash equal
    for other in (a + a2 - a2, (a * 2) * Fraction(1, 2), Matrix(a.rows, a.cols, fa.entries)):
        assert other == a and hash(other) == hash(a)
    assert rank(_rows(a)) == fraction_rank(fa)
    vecs, oracle_vecs = _kernel_columns(a), fraction_nullspace(fa)
    assert len(vecs) == len(oracle_vecs)
    for v, fv in zip(vecs, oracle_vecs):
        _same(v, fv)
    if a.rows == a.cols:
        assert a.trace() == fa.trace()
        ident, fident = Matrix.identity(a.rows) * s, FractionMatrix.identity(a.rows) * s
        _same(ident, fident)
        _same(a.commutator(a2), fa.commutator(fa2))


# -- products walking the sparser factor, against the row-combination oracles --

@st.composite
def traffic_grids(draw, rows, cols, nnz=None):
    """rows x cols grids shaped like the End V traffic: a matrix unit
    E_ij, a tau-like grid with 1-2 nonzeros, or a random grid with zero
    rows or zero columns; with `nnz`, that many nonzeros at random places."""
    values = oracle_entries.filter(bool)
    if nnz is None:
        kind = draw(st.sampled_from(["unit", "tau", "zero rows", "zero columns"]))
        if kind == "unit":
            nnz, values = 1, st.just(1)
        elif kind == "tau":
            nnz = draw(st.integers(1, 2))
        else:
            grid = draw(_grid(rows, cols))
            if kind == "zero rows":
                for i in draw(st.sets(st.integers(0, rows - 1))):
                    grid[i] = [0] * cols
            else:
                for j in draw(st.sets(st.integers(0, cols - 1))):
                    for row in grid:
                        row[j] = 0
            return grid
    grid = [[0] * cols for _ in range(rows)]
    for p in draw(st.permutations(range(rows * cols)))[:nnz]:
        grid[p // cols][p % cols] = draw(values)
    return grid


@st.composite
def traffic_pairs(draw):
    """Factors a (r x k) and b (k x m) up to 5 x 5, square half the time:
    a is drawn from `traffic_grids`, and b has fewer nonzeros than a, as
    many, more, or is drawn the same way as a."""
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        r = m = k
    else:
        r, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ga = draw(traffic_grids(r, k))
    nnz, cells = sum(1 for row in ga for x in row if x), k * m
    side = draw(st.sampled_from(["fewer", "equal", "more", "any"]))
    if side == "any":
        return ga, draw(traffic_grids(k, m))
    count = {"fewer": st.integers(0, max(nnz - 1, 0)),
             "equal": st.just(min(nnz, cells)),
             "more": st.integers(min(nnz + 1, cells), cells)}[side]
    return ga, draw(traffic_grids(k, m, draw(count)))


@given(traffic_pairs())
@settings(max_examples=300)
def test_sparse_products_match_the_row_combination_oracles(grids):
    """The product and the commutator walk the sparser factor, on the
    left, on the right, or either at equal counts; both equal the
    row-combination oracles bit for bit and the Fraction oracle entry
    for entry, in canonical form."""
    a, b = (Matrix.from_rows(g) for g in grids)
    fa, fb = (FractionMatrix.from_rows(g) for g in grids)
    prod = a * b
    _same(prod, fa * fb)
    # == compares the canonical numerators and denominator: bit for bit
    assert prod == row_combination_mul(a, b)
    if a.rows == a.cols == b.cols:
        _same(b * a, fb * fa)
        for x, y, fx, fy in ((a, b, fa, fb), (b, a, fb, fa)):
            cm = x.commutator(y)
            _same(cm, fx.commutator(fy))
            assert cm == two_product_commutator(x, y)


def _bracket_cases():
    """(tau, A) on so3 adjoint and sl2 standard, A zero, c I, a matrix
    unit, a dense matrix or another tau.  On so3 the zero matrix and the
    unit are sparser than tau, the others are not."""
    cases = []
    for name, rep in (("so3", "adjoint"), ("sl2", "standard")):
        taus = builtin(name).reps[rep].matrices
        d = taus[0].rows
        others = [Matrix.zeros(d, d), Matrix.identity(d) * Fraction(-3, 2),
                  Matrix(d, d, [int(k == d + 1) for k in range(d * d)]) * 5,
                  Matrix(d, d, [Fraction(k + 1, 1 + k % 3) for k in range(d * d)]), taus[1]]
        cases += [(tau, a) for tau in taus for a in others]
    return cases


def test_cells_one_s_are_one_product_plus_s_times_the_other():
    """tau's cells(s) on A's numerators give tau A + s A tau over tau.den
    A.den as the two `_mul_num` products give them (the oracle of the cell
    rule), for s = +-1, with either factor the sparser one; `commutator`,
    the cells(-1), is tau A - A tau."""
    swapped = set()
    for tau, a in _bracket_cases():
        (ta, den), (at, den2) = tau._mul_num(a), a._mul_num(tau)
        assert den == den2 == tau.den * a.den
        for s in (1, -1):
            got = [0] * len(a.num)
            for o, c, v in tau._cells(s):
                got[o] += v * a.num[c]
            assert got == [x + s * y for x, y in zip(ta, at)]
        assert tau.commutator(a) == tau * a - a * tau
        swapped.add(a.num.count(0) > tau.num.count(0))
    assert swapped == {True, False}


sparse_entries = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), oracle_entries)


@st.composite
def wide_rank_deficient_grids(draw):
    """Up to 6 x 10: up to 4 sparse base rows, the rest repeats or
    rational combinations of two base rows, in any order."""
    cols = draw(st.integers(1, 10))
    base = draw(st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    rows = list(base)
    for _ in range(draw(st.integers(0, 6 - len(base)))):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        p, q = draw(st.sampled_from([0, 1, -1, Fraction(2, 3)])), draw(rationals)
        rows.insert(draw(st.integers(0, len(rows))), [p * x + q * y for x, y in zip(a, b)])
    return rows


@given(wide_rank_deficient_grids())
@settings(max_examples=300)
def test_nullspace_matches_fraction_oracle_on_wide_sparse_matrices(grid):
    """Wide, sparse, rank-deficient matrices: integer back substitution
    passes several pivots per free column, and must give the Fraction
    oracle's normalized basis vector for vector."""
    a, fa = Matrix.from_rows(grid), FractionMatrix.from_rows(grid)
    assert rank(_rows(a)) == fraction_rank(fa)
    vecs, oracle_vecs = _kernel_columns(a), fraction_nullspace(fa)
    assert len(vecs) == a.cols - rank(_rows(a)) == len(oracle_vecs)
    for v, fv in zip(vecs, oracle_vecs):
        _same(v, fv)
        assert (a * v).is_zero


integer_entries = st.one_of(st.just(0), st.just(0), st.integers(-6, 6),
                            st.integers(-10**12, 10**12))


@st.composite
def integer_systems(draw):
    """Up to 7 x 9 integer rows, possibly with no rows or no columns:
    sparse base rows (negative leading entries included) and integer
    combinations of them."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 9))
    base = draw(st.lists(st.lists(integer_entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    grid = []
    for _ in range(rows):
        a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        grid.append([p * x + q * y for x, y in zip(a, b)])
    return rows, cols, grid


@given(integer_systems(), st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_kernel_and_rank_match_the_dense_elimination(system, rnd):
    """The row-insertion elimination gives the dense elimination's rank and
    normalized kernel vector for vector, whatever the order of the rows,
    and with repeated or zero rows added."""
    nrows, ncols, grid = system
    m = Matrix(nrows, ncols, [x for row in grid for x in row])
    rows = _rows(m)
    want = oracles.nullspace(m)
    assert rank(rows) == oracles.rank(m)
    got = kernel(rows, ncols)
    assert [_column(vec, ncols) for vec in got] == want
    zero_rows = [{}, {0: 0}] if ncols else [{}]
    shuffled = rows + rows[:rnd.randint(0, len(rows))] + zero_rows
    rnd.shuffle(shuffled)
    assert kernel(shuffled, ncols) == got
    assert rank(shuffled) == rank(rows)


def test_kernel_and_rank_without_rows_or_columns():
    """No rows, no columns, or neither: the dense elimination's shapes
    (the 0-column case once failed in slicing its rows)."""
    assert kernel([], 0) == [] and rank([]) == 0
    assert kernel([{}, {}], 0) == [] and rank([{}, {}]) == 0
    assert kernel([], 3) == [({0: 1}, 1), ({1: 1}, 1), ({2: 1}, 1)]
    for rows, cols in ((0, 0), (2, 0), (0, 3)):
        m = Matrix.zeros(rows, cols)
        assert oracles.rank(m) == 0
        assert [_column(vec, cols) for vec in kernel(_rows(m), cols)] == oracles.nullspace(m)


def test_one_elimination_step():
    """`_cancel` clears the column by coprime multiples of the row and the
    pivot row; `_primitive` divides by the content, so a kernel vector of
    a row with content 2 comes out in lowest terms."""
    assert _cancel({0: 2, 1: 3}, {0: 4, 1: 1}, 0) == {1: 5}
    assert _cancel({0: 3, 2: 1}, {0: 1, 1: 2}, 0) == {1: -6, 2: 1}
    assert _primitive({0: 6, 3: -4}) == {0: 3, 3: -2}
    assert _primitive({1: -1}) == {1: -1}
    assert kernel([{0: 2, 1: 4}], 2) == [({0: -2, 1: 1}, 1)]
    assert kernel([{0: 2, 2: 4}, {1: 3, 2: 6}], 3) == [({0: -2, 1: -2, 2: 1}, 1)]


def test_negative_leading_entries():
    """Pivot rows that lead with a negative entry keep the kernel's
    denominator positive and its normalization."""
    rows = [{0: -2, 1: 3, 2: 1}, {1: -4, 3: 2}]
    m = Matrix.from_rows([[-2, 3, 1, 0], [0, -4, 0, 2]])
    got = kernel(rows, 4)
    assert got == [({0: 1, 2: 2}, 2), ({0: 3, 1: 2, 3: 4}, 4)]
    assert [_column(vec, 4) for vec in got] == oracles.nullspace(m)
    assert rank(rows) == rank([{j: -x for j, x in row.items()} for row in rows]) == 2


def _cancel_adding(row, top, c):
    """`_cancel` with the sign of its step flipped: p row + v top keeps
    column c, so an unchecked elimination reduces the row forever."""
    p, v = top[c], row[c]
    g = gcd(p, v)
    p, v = p // g, v // g
    row = {j: x * p for j, x in row.items()}
    for j, x in top.items():
        row[j] = row.get(j, 0) + v * x
    return row


@contextmanager
def _alarm(seconds):
    """Raise TimeoutError in the block after `seconds` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"no result in {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("solve, rows", [
    (rank, [{0: 1, 1: 1}, {0: 1, 1: 2}]),
    (lambda rows: kernel(rows, 2), [{0: 1, 1: 1}, {0: 1, 1: 2}]),
    # no echelon step: only the Gauss-Jordan pass cancels, at column 1
    (lambda rows: kernel(rows, 2), [{0: 1, 1: 1}, {1: 1}]),
], ids=["rank", "kernel-echelon", "kernel-gauss-jordan"])
def test_a_wrong_elimination_step_raises_at_once(monkeypatch, solve, rows):
    """Both passes check that each step cleared its column, with a raise
    that `python -O` keeps, so a wrong step fails instead of hanging."""
    monkeypatch.setattr(linalg, "_cancel", _cancel_adding)
    with _alarm(5), pytest.raises(AssertionError, match="left column"):
        solve(rows)


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


def test_a_float_entry_raises_type_error():
    """Matrix(1, 1, [0.1]) once stored 0.1's binary rounding."""
    for make in (lambda: Matrix(1, 1, [0.1]), lambda: Matrix.from_rows([[1, 0.5]])):
        with pytest.raises(TypeError, match="not an exact scalar"):
            make()


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
