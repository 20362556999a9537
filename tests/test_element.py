"""The single-pass element product and supercommutator against the
oracles they replaced (`oracles.element_mul`, `oracles.parity_supercommutator`),
element for element, in both algebras; the operators' bracket cell rule
against two matrix products."""

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from test_kernels import _so3_blocks
from weil import (AlgebraDef, ClassicalAlgebra, LieData, QuantumAlgebra, adjoint_rep, builtin,
                  load_algebra_file)
from weil.checks import random_element, random_matrix
from weil.element import (_products, accumulate, add_into, collect, products_into,
                          supercommutator, vanishes)
from weil.linalg import Matrix
from weil.render import render

# (kind, algebra, rep): the adjoint reps give the tau_a parts (nilpotent
# ones on heisenberg3), so3 trivial makes every End V part a 1 x 1 scalar
SETTINGS = [(ClassicalAlgebra, "so3", "adjoint"), (ClassicalAlgebra, "heisenberg3", "adjoint"),
            (QuantumAlgebra, "so3", "adjoint"), (QuantumAlgebra, "so3", "trivial"),
            (QuantumAlgebra, "abelian(2)", "adjoint")]

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
    _same_element(supercommutator(x, y), oracles.parity_supercommutator(x, y))
    _same_element(supercommutator(y, x), oracles.parity_supercommutator(y, x))


@pytest.mark.parametrize("mod", [ClassicalAlgebra, QuantumAlgebra],
                         ids=lambda kind: kind.__module__)
def test_bracket_with_a_zero_one_way_product(mod):
    """E_11 E_12 = E_12 but E_12 E_11 = 0: the bracket keeps the half
    whose matrix product survives, whichever half that is."""
    alg = ALGEBRAS["so3"]
    lie, rep = alg.lie, alg.reps["adjoint"]
    e11 = Matrix(3, 3, [1] + [0] * 8)
    e12 = Matrix(3, 3, [0, 1] + [0] * 7)
    w = mod(lie, rep)
    x = w.odd_gen(0) * w.endo(e11)
    y = w.even_gen(1) * w.endo(e12)
    for a, b in ((x, y), (y, x)):
        got = supercommutator(a, b)
        assert not got.is_zero
        _same_element(got, oracles.parity_supercommutator(a, b))


# -- the integer accumulator against the per-term canonical path ---------------

def _canonical_and_nonzero(x):
    for mat in x.terms.values():
        assert gcd(mat.den, *mat.num) == 1 and mat.den > 0
        assert any(mat.num)


def _same_bits(got, want):
    """Equal term for term, each End V part with the same numerators and
    denominator, canonical and nonzero."""
    assert type(got) is type(want)
    assert {k: (m.num, m.den) for k, m in got.terms.items()} == \
        {k: (m.num, m.den) for k, m in want.terms.items()}
    _canonical_and_nonzero(got)


# so3 with f halved: its PBW products carry Fraction coefficients
_SO3 = ALGEBRAS["so3"].lie
_HALF = LieData(3, {k: q / 2 for k, q in _SO3.entries.items()}, form=_SO3.form, name="so3/2")
ALGEBRAS["so3/2"] = AlgebraDef("so3/2", _HALF, {"adjoint": adjoint_rep(_HALF)})


def _key(n, gens):
    """The key of the product of distinct generators (kind, index)."""
    even = tuple(sum(1 for kind, a in gens if kind == "even" and a == i) for i in range(n))
    return even, tuple(sorted(a for kind, a in gens if kind == "odd"))


@st.composite
def scaled_parts(draw, rep, dens):
    """tau_a, a matrix unit or I, times a nonzero coefficient whose
    denominator is one of `dens`; I where tau_a is zero."""
    d = rep.dim
    q = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.sampled_from(dens)))
    kind = draw(st.sampled_from(["tau", "unit", "scalar"]))
    if kind == "tau":
        mat = rep.matrices[draw(st.integers(0, len(rep.matrices) - 1))]
    elif kind == "unit":
        cell = draw(st.integers(0, d * d - 1))
        mat = Matrix(d, d, [int(k == cell) for k in range(d * d)])
    else:
        mat = Matrix.identity(d)
    return (mat if mat else Matrix.identity(d)) * q


@st.composite
def colliding_pairs(draw):
    """x = A0 + A1 g1 + A2 g2 and y = B0 g1 g2 + B1 g2 (+ B2 g1), for two
    distinct generators g1, g2 with g1 g2 in normal form.

    In x * y the key of g1 g2 is reached by (A0, B0), (A1, B1) and, with
    B2, (A2, B2), in that order.  A0 is tau_a, a matrix unit or c I over a
    denominator 1, 2 or 4; A1 = c1 I and A2 = c2 I over 3 or 5; B1 =
    -A0 B0 / c1.  So the first two sums cancel to zero over different
    denominators; with B2 the key reappears, without it the key's sum
    stays zero.  Returns (module, x, y, key, whether the key reappears).
    """
    mod, name, rep_name = draw(st.sampled_from(SETTINGS + [(QuantumAlgebra, "so3/2", "adjoint")]))
    alg = ALGEBRAS[name]
    lie, rep = alg.lie, alg.reps[rep_name]
    n = lie.dim
    g1 = (draw(st.sampled_from(["even", "odd"])), draw(st.integers(0, n - 1)))
    g2 = (draw(st.sampled_from(["even", "odd"])), draw(st.integers(0, n - 1)))
    if g1[0] == g2[0]:  # same kind: distinct indices in order
        if g1[1] == g2[1]:
            g2 = (g2[0], (g2[1] + 1) % n)
        g1, g2 = sorted((g1, g2))
    a0 = draw(scaled_parts(rep, [1, 2, 4]))
    b0 = draw(scaled_parts(rep, [1, 2, 4]))
    if not a0 * b0:
        b0 = Matrix.identity(rep.dim)
    c1, c2 = (Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.sampled_from([3, 5])))
              for _ in range(2))
    ident = Matrix.identity(rep.dim)
    reappears = draw(st.booleans())
    x = {_key(n, []): a0, _key(n, [g1]): ident * c1, _key(n, [g2]): ident * c2}
    y = {_key(n, [g1, g2]): b0, _key(n, [g2]): (a0 * b0) * (-1 / c1)}
    if reappears:
        y[_key(n, [g1])] = draw(scaled_parts(rep, [1, 2, 3]))
    return mod, mod.Element(lie, rep, x), mod.Element(lie, rep, y), _key(n, [g1, g2]), reappears


@given(colliding_pairs())
@settings(max_examples=200)
def test_accumulated_products_match_the_per_term_oracle(case):
    """Every product, bracket and classical derivation equals its per-term
    canonical oracle bit for bit, on keys reached over different
    denominators whose sums cancel and then reappear (or stay zero)."""
    mod, x, y, key, reappears = case
    # the first two pairs into the key cancel: it is absent from their product
    first = [mod.Element(x.lie, x.rep, dict(list(z.terms.items())[:2])) for z in (x, y)]
    assert key not in oracles.element_mul(*first).terms
    xy = x * y
    assert (key in xy.terms) == reappears
    _same_bits(xy, oracles.element_mul(x, y))
    _same_bits(y * x, oracles.element_mul(y, x))
    _same_bits(supercommutator(x, y), oracles.parity_supercommutator(x, y))
    _same_bits(supercommutator(y, x), oracles.parity_supercommutator(y, x))
    if mod is ClassicalAlgebra:
        c = ClassicalAlgebra(x.lie, x.rep)
        for z in (x, y, xy):
            _same_bits(c.differential(z), oracles.differential(z))
            for a in range(z.lie.dim):
                _same_bits(c.lie_derivative(a, z), oracles.lie_derivative(a, z))
                _same_bits(c.contraction(a, z), oracles.contraction(a, z))


def test_quantum_products_carry_fraction_pbw_coefficients():
    """On so3 with f halved the PBW kernel returns Fraction coefficients,
    and the products keep their denominators: [u_a, u_b] = f^c_ab u_c
    with f = +-1/2, for every ordered pair."""
    alg = ALGEBRAS["so3/2"]
    q = QuantumAlgebra(alg.lie, alg.reps["adjoint"])
    for (a, b), row in alg.lie.pair_brackets().items():
        want = sum((q.even_gen(c) * f for c, f in row), q.zero())
        assert want.terms and all(m.den == 2 for m in want.terms.values())
        assert supercommutator(q.even_gen(a), q.even_gen(b)) == want


# -- signed accumulation and the zero test of the identity rows -----------------

def test_vanishes_only_when_every_key_sums_to_zero():
    """1/2 A - 2/4 A vanishes, 1/2 A - 1/3 A does not, and a key that
    only one side adds does not."""
    a = Matrix.from_rows([[1, -2], [0, Fraction(3, 5)]])
    k1, k2 = ((1, 0), ()), ((0, 0), (1,))
    acc = {}
    accumulate(acc, k1, a.num, a.den * 2)
    accumulate(acc, k1, a.num, a.den * 4, -2)
    assert vanishes(acc) and vanishes({})
    accumulate(acc, k2, a.num, a.den * 3, -1)
    assert not vanishes(acc)
    acc = {}
    accumulate(acc, k1, a.num, a.den * 2)
    accumulate(acc, k1, a.num, a.den * 3, -1)
    assert not vanishes(acc)
    tau = QuantumAlgebra(_SO3, ALGEBRAS["so3"].reps["adjoint"]).tau(0)
    acc = {}
    add_into(acc, tau, 1, 2)
    add_into(acc, tau, -2, 4)
    assert vanishes(acc)


SIGN_CONTEXTS = [(mod, ALGEBRAS[name].lie, ALGEBRAS[name].reps[rep])
                 for mod, name, rep in SETTINGS + [(QuantumAlgebra, "so3/2", "adjoint")]]


@pytest.mark.parametrize("mod,lie,rep", SIGN_CONTEXTS,
                         ids=lambda v: getattr(v, "KIND", getattr(v, "name", None)))
def test_apply_into_with_sign_minus_one_cancels_the_operator(mod, lie, rep):
    """For every operator i, a walk with sign -1 and then _apply added
    vanishes, and a walk with sign -1 alone collects to -_apply bit for
    bit."""
    alg = mod(lie, rep)
    rng = random.Random(5)
    for _ in range(6):
        x = random_element(alg, rng, max_degree=4)
        for i in range(2 * lie.dim + 1):
            acc = {}
            alg.walk(i, x, acc, -1)
            add_into(acc, alg._apply(i, x))
            assert vanishes(acc), i
            acc = {}
            alg.walk(i, x, acc, -1)
            neg = collect(acc, rep.dim)
            _same_bits(alg.element(neg), -alg._apply(i, x))


def _walk_contexts():
    """(kind, lie, rep): so3 adjoint and standard and so3+so3 adjoint, both
    kinds."""
    so3, pair = builtin("so3"), _so3_blocks(2)
    reps = [(so3.lie, so3.reps["adjoint"]), (so3.lie, so3.reps["standard"]),
            (pair, adjoint_rep(pair))]
    return [(mod, lie, rep) for mod in (ClassicalAlgebra, QuantumAlgebra) for lie, rep in reps]


@pytest.mark.parametrize("mod,lie,rep", _walk_contexts(),
                         ids=lambda v: getattr(v, "KIND", getattr(v, "name", None)))
def test_walk_matches_each_operator_apart(mod, lie, rep):
    """walk(i, x, acc, +-1) into an empty accumulator collects to +-_apply(i,
    x) bit for bit for every operator i, from the element x and from an
    accumulator holding x unreduced (x / 2 added twice)."""
    alg = mod(lie, rep)
    rng = random.Random(11)
    for _ in range(4):
        x = random_element(alg, rng, max_degree=3)
        halves = {}
        add_into(halves, x, 1, 2)
        add_into(halves, x, 1, 2)
        for i in range(2 * lie.dim + 1):
            want = alg._apply(i, x)
            for source in (x, halves):
                for sign in (1, -1):
                    acc = {}
                    alg.walk(i, source, acc, sign)
                    _same_bits(alg.element(collect(acc, rep.dim)), want * sign)


def _side_pairs(n):
    """(k1, key) pairs: x1 x2 and x1 x1 (odd x odd, the second a Clifford
    contraction), x1 against x1 x2 (a contraction, odd x even), u2 u1 (a
    PBW reordering), u2 x3 against u1^2 x1 x3, and x1 u1 against u_n x_n,
    which on so3+so3 lie in different blocks."""
    def u(*gens):
        return tuple(gens.count(a) for a in range(n))
    z = u()
    return [((z, (0,)), (z, (1,))), ((z, (0,)), (z, (0,))), ((z, (0,)), (z, (0, 1))),
            ((u(1), ()), (u(0), ())), ((u(1), (2,)), (u(0, 0), (0, 2))),
            ((u(0), (0,)), (u(n - 1), (n - 1,)))]


@pytest.mark.parametrize("mod,lie,rep", [c for c in _walk_contexts() if c[2].name == "adjoint"],
                         ids=lambda v: getattr(v, "KIND", getattr(v, "name", None)))
def test_bracket_sides_sum_to_the_numeric_bracket(mod, lie, rep):
    """The sides of [k1 M, key A], side s applied through M's cells (1 - s,
    s), sum to supercommutator(k1 M, key A) bit for bit, for random M and
    A on each pair of `_side_pairs`."""
    alg = mod(lie, rep)
    rng = random.Random(13)
    for k1, key in _side_pairs(lie.dim):
        for _ in range(3):
            m, a = random_matrix(rng, rep.dim), random_matrix(rng, rep.dim)
            if not m or not a:
                continue
            acc = {}
            for side, k, p, r in alg.bracket_sides(k1, key):
                out = [0] * len(a.num)
                for o, c, v in m._cells(1 - side, side):
                    out[o] += v * a.num[c]
                accumulate(acc, k, out, m.den * a.den * r, p)
            want = supercommutator(alg.element({k1: m}), alg.element({key: a}))
            _same_bits(alg.element(collect(acc, rep.dim)), want)


@given(element_pairs(), st.booleans())
@settings(max_examples=150)
def test_products_into_with_sign_minus_one_negates_the_product(pair, bracket):
    """products_into(..., -1) is -_products bit for bit, product and bracket."""
    mod, x, y = pair
    acc = {}
    products_into(acc, x, y, bracket, -1)
    got = type(x)(x.lie, x.rep, collect(acc, x.rep.dim))
    _same_bits(got, -_products(x, y, bracket))
    add_into(acc, _products(x, y, bracket))
    assert vanishes(acc)


def _keys_to_degree_two(n):
    """Every (even, odd) key of degree 2 (even degree) + (odd length) <= 2."""
    zero = (0,) * n
    yield zero, ()
    for a in range(n):
        yield tuple(int(i == a) for i in range(n)), ()
        yield zero, (a,)
        for b in range(a + 1, n):
            yield zero, (a, b)


def test_every_endo_term_is_tau_a_plus_s_a_tau():
    """Every endo term (key', t, s, p, r) of every operator's image of every
    key up to degree 2 has s = +-1, p != 0 and r > 0, on every builtin,
    rep and kind; classically s = -1 (a commutator), and the quantum d on
    so3 adjoint has anticommutators (s = +1)."""
    signs = {}
    for name in ("abelian(2)", "heisenberg3", "so3", "sl2"):
        defn = builtin(name)
        for rep_name, rep in defn.reps.items():
            for kind in (ClassicalAlgebra, QuantumAlgebra):
                if kind is QuantumAlgebra and not defn.lie.has_orthonormal_form:
                    continue
                alg, n = kind(defn.lie, rep), defn.lie.dim
                for i in range(2 * n + 1):
                    for key in _keys_to_degree_two(n):
                        for _, t, s, p, r in alg._image(i, key)[1]:
                            assert s in (1, -1) and p != 0 and r > 0 and 0 <= t < n
                            signs.setdefault((kind, name, rep_name, i), set()).add(s)
    classical = [found for (kind, *_), found in signs.items() if kind is ClassicalAlgebra]
    assert classical and all(found == {-1} for found in classical)
    assert 1 in signs[(QuantumAlgebra, "so3", "adjoint", 6)]



def _cell_contexts():
    """(lie, rep): every builtin rep, the adjoint rep of the so3/2 file
    (tau over 2) and so3+so3 adjoint (6 x 6 tau)."""
    out = [(defn.lie, rep) for name in ("abelian(2)", "heisenberg3", "so3", "sl2")
           for defn in (builtin(name),) for rep in defn.reps.values()]
    half = load_algebra_file(Path(__file__).parent / "goldens" / "so3-half.json")
    pair = _so3_blocks(2)
    return out + [(half.lie, half.reps["adjoint"]), (pair, adjoint_rep(pair))]


CELL_CONTEXTS = _cell_contexts()
_SL2 = builtin("sl2")
cell_entries = st.sampled_from([0, 0, 0, 1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])
dense_entries = st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])
SIDES = [(1, 1), (1, -1), (1, 0), (0, 1)]


@st.composite
def cell_cases(draw):
    """(lie, rep, t, M, (l, r), A): M is tau_t or a dense matrix with mixed
    denominators that is no tau_t, (l, r) a bracket (1, +-1) or one side
    (1, 0) or (0, 1), and A a matrix with zero cells and mixed
    denominators, c I or c tau_t; with M = tau_t and (1, -1) the last two
    bracket to 0."""
    lie, rep = draw(st.sampled_from(CELL_CONTEXTS))
    d, t = rep.dim, draw(st.integers(0, lie.dim - 1))
    c = draw(st.sampled_from([1, -2, Fraction(3, 2), Fraction(-1, 3)]))
    a = draw(st.sampled_from([
        Matrix(d, d, draw(st.lists(cell_entries, min_size=d * d, max_size=d * d))),
        Matrix.identity(d) * c, rep.matrices[t] * c]))
    dense = Matrix(d, d, draw(st.lists(dense_entries, min_size=d * d, max_size=d * d)))
    m = draw(st.sampled_from([rep.matrices[t], dense]))
    return lie, rep, t, m, draw(st.sampled_from(SIDES)), a


_H, _A = _SL2.reps["standard"].matrices[2], Matrix.from_rows([[1, 2], [Fraction(1, 2), -1]])
_DENSE = Matrix.from_rows([[Fraction(1, 2), -3], [Fraction(2, 3), 5]])


@given(cell_cases())
@settings(max_examples=300)
@example((_SL2.lie, _SL2.reps["standard"], 2, _H, (1, -1), Matrix.identity(2) * 3))
@example((_SL2.lie, _SL2.reps["standard"], 2, _H, (1, -1), _A))
@example((_SL2.lie, _SL2.reps["standard"], 2, _DENSE, (1, 0), _A))
@example((_SL2.lie, _SL2.reps["standard"], 2, _DENSE, (0, 1), _A))
def test_cell_rule_is_tau_a_plus_s_a_tau(case):
    """M's cells (l, r), one triple per (out, in) and none zero, give l M A
    + r A M on A's numerators as two `_mul_num` products give it,
    numerators and denominator, for M = tau_t or a dense fractional
    matrix and each of (1, +-1), (1, 0) and (0, 1).  For M = tau_t and (1,
    s), a walk's evaluation of tau_t's cells gives the same, and the walk
    skips a zero bracket.  The examples take sl2's
    diagonal h, whose cells at (i, j) -> (i, j) sum one entry of each
    half, and a dense M over 6 on one side."""
    lie, rep, t, m, (l, r), a = case
    (ma, den), (am, den2) = m._mul_num(a), a._mul_num(m)
    want = [l * x + r * y for x, y in zip(ma, am)]
    cells, got = m._cells(l, r), [0] * len(a.num)
    assert len({(o, c) for o, c, _ in cells}) == len(cells) and all(v for _, _, v in cells)
    for o, c, v in cells:
        got[o] += v * a.num[c]
    assert den == den2 == m.den * a.den and got == want
    if m != rep.matrices[t] or (l, r) not in ((1, 1), (1, -1)):
        return
    if not a:
        return  # no element has a zero End V part
    alg, key = ClassicalAlgebra(lie, rep), ((0,) * lie.dim, ())
    vars(alg)["image_table"] = lambda i, k: ((), ((k, t, r, 1, 1),))  # one endo term
    acc = {}
    alg.walk(0, alg.element({key: a}), acc, 1)
    assert acc == ({key: (want, den)} if any(want) else {})


def _render_contexts():
    """(lie, rep): so3 trivial (1 x 1 parts print as bare scalars),
    standard and adjoint, sl2 standard and the so3/2 file's adjoint rep
    (tau over 2)."""
    so3, sl2 = builtin("so3"), builtin("sl2")
    half = load_algebra_file(Path(__file__).parent / "goldens" / "so3-half.json")
    return ([(so3.lie, so3.reps[name]) for name in ("trivial", "standard", "adjoint")]
            + [(sl2.lie, sl2.reps["standard"]), (half.lie, half.reps["adjoint"])])


RENDER_CONTEXTS = _render_contexts()


@st.composite
def rendered_elements(draw):
    mod = draw(st.sampled_from([ClassicalAlgebra, QuantumAlgebra]))
    lie, rep = draw(st.sampled_from(RENDER_CONTEXTS))
    return draw(elements(mod, lie, rep))


@given(rendered_elements())
@settings(max_examples=300)
def test_render_matches_the_fraction_oracle(x):
    """Each c I part prints from its canonical integers, sign then |c| or
    |c|/den, and each other part from its numerators, as the Fraction
    oracle prints them; `repr` wraps the same text."""
    want = oracles.fraction_render(x)
    assert render(x) == want
    assert repr(x) == f"<{want}>"


def test_scalar_times_element_equality_repr_and_endo_shape(so3):
    """q * x is x * q; == with a non-element is NotImplemented, so False;
    repr is the rendering in angle brackets; `endo` refuses a matrix of
    the wrong shape."""
    alg = ClassicalAlgebra(so3.lie, so3.reps["adjoint"])
    x = alg.even_gen(0) * alg.tau(1) + alg.odd_gen(2)
    for q in (3, Fraction(-1, 2)):
        assert q * x == x * q and not (q * x).is_zero
    assert x.__eq__(1) is NotImplemented and x != 1
    assert repr(x) == f"<{render(x)}>"
    with pytest.raises(ValueError, match="matrix must be 3x3"):
        alg.endo(Matrix.identity(2))
