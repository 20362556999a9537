import random
import sys
from fractions import Fraction
from functools import partial

import oracles
import pytest
from oracles import embed_scalar_poly, scalar_weil_differential
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernels import _so3_blocks

from weil import adjoint_rep, builtin, trivial_rep
from weil import classical as cw
from weil import element as ew
from weil.checks import _reference, random_element, random_scalar_weil_poly, random_sym_poly
from weil.classical import ClassicalAlgebra
from weil.element import supercommutator
from weil.lie import LieData
from weil.linalg import Matrix
from weil.render import render


@pytest.fixture(scope="module")
def ctx(so3):
    return ClassicalAlgebra(so3.lie, so3.reps["adjoint"])


def test_product_of_exterior_generators(ctx):
    y1, y2 = ctx.odd_gen(0), ctx.odd_gen(1)
    prod = y1 * y2
    assert prod.terms == {((0, 0, 0), (0, 1)): Matrix.identity(3)}
    assert y2 * y1 == -prod


def test_endo_commutator_matches_bracket(ctx):
    t1, t2, t3 = (ctx.tau(a) for a in range(3))
    assert t1 * t2 - t2 * t1 == t3


def test_symmetric_center(ctx):
    v1 = ctx.even_gen(0)
    a = ctx.endo(ctx.rep.matrices[1])
    assert v1 * a == a * v1


def test_cross_algebra_arithmetic_rejected(so3, sl2):
    x = ClassicalAlgebra(so3.lie, so3.reps["adjoint"]).unit()
    y = ClassicalAlgebra(sl2.lie, sl2.reps["adjoint"]).unit()
    with pytest.raises(ValueError):
        x + y


def test_lie_derivative_on_generators(ctx):
    c = ctx
    # L_1 v^3 = -f^3_1b v^b = -v^2
    assert c.lie_derivative(0, c.even_gen(2)) == -c.even_gen(1)
    assert c.lie_derivative(0, c.unit()).is_zero
    assert c.lie_derivative(0, c.tau(0)).is_zero


def test_contraction_on_generators(ctx):
    c = ctx
    y1, y2 = c.odd_gen(0), c.odd_gen(1)
    assert c.contraction(0, y1) == c.unit()
    assert c.contraction(0, y1 * y2) == y2
    assert c.contraction(1, y1 * y2) == -y1


def test_differential_on_generators(ctx, so3):
    c = ctx
    v = [c.even_gen(a) for a in range(3)]
    y = [c.odd_gen(a) for a in range(3)]
    # d y^1 = v^1 - y^2 y^3 (from f^1_23 = 1)
    assert c.differential(y[0]) == v[0] - y[1] * y[2]
    # d v^1 = -f^1_jk y^j v^k = -y^2 v^3 + y^3 v^2
    assert c.differential(v[0]) == -(y[1] * v[2]) + y[2] * v[1]
    trivial = ClassicalAlgebra(so3.lie, so3.reps["trivial"])
    assert trivial.differential(trivial.endo(Matrix.identity(1))).is_zero


def test_curvature_trivial_rep(so3):
    assert cw.curvature(so3.lie, so3.reps["trivial"]).is_zero


def test_curvature_closed_and_squares(ctx):
    c = ctx
    curv = c.curvature
    assert curv.degrees() == [2]
    assert c.differential(curv).is_zero
    # d.d A = [C, A] = sum_a v^a [tau_a, A] on a plain endomorphism
    mat = Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    a = c.endo(mat)
    expected = c.zero()
    for b in range(3):
        cm = c.rep.matrices[b].commutator(mat)
        if cm:
            expected = expected + c.even_gen(b) * c.endo(cm)
    assert supercommutator(curv, a) == expected
    assert c.differential(c.differential(a)) == expected


def test_supercommutator_conventions(ctx):
    curv = ctx.curvature
    y1, y2 = ctx.odd_gen(0), ctx.odd_gen(1)
    assert supercommutator(curv, y1).is_zero
    # odd-odd bracket is the anticommutator
    assert supercommutator(y1, y2) == y1 * y2 + y2 * y1
    assert supercommutator(y1, y2).is_zero


def test_abelian_curvature_brackets(abelian2):
    assert ClassicalAlgebra(abelian2.lie, abelian2.reps["adjoint"]).curvature.is_zero


OPERATOR_DEGREES = [("lie_derivative", 0), ("contraction", -1), ("differential", 1)]


@pytest.mark.parametrize("opname,shift", OPERATOR_DEGREES)
def test_operator_degrees(ctx, opname, shift):
    c = ctx
    rng = random.Random(3)
    for _ in range(20):
        x = random_element(c, rng, max_degree=3, max_terms=1)
        if x.is_zero or len(x.degrees()) != 1:
            continue
        deg = x.degrees()[0]
        if opname == "differential":
            img = c.differential(x)
        elif opname == "contraction":
            img = c.contraction(rng.randrange(3), x)
        else:
            img = c.lie_derivative(rng.randrange(3), x)
        if not img.is_zero:
            assert img.degrees() == [deg + shift]


def _identity_pool(c, rng, count):
    pool = [c.unit()]
    for make in (c.even_gen, c.odd_gen, c.tau):
        pool += [make(a) for a in range(c.lie.dim)]
    pool += [random_element(c, rng) for _ in range(count)]
    return pool


@pytest.mark.parametrize("alg_name,rep_name", [("so3", "adjoint"), ("sl2", "standard")])
def test_operator_identities_random(request, alg_name, rep_name):
    alg = request.getfixturevalue("so3" if alg_name == "so3" else "sl2")
    lie = alg.lie
    c = ClassicalAlgebra(lie, alg.reps[rep_name])
    rng = random.Random(23)
    curv = c.curvature
    n = lie.dim
    for x in _identity_pool(c, rng, 25):
        dx = c.differential(x)
        for a in range(n):
            lax = c.lie_derivative(a, x)
            assert c.contraction(a, dx) + c.differential(c.contraction(a, x)) == lax
            assert c.lie_derivative(a, dx) == c.differential(lax)
            for b in range(n):
                lhs = c.lie_derivative(a, c.contraction(b, x)) - c.contraction(b, lax)
                rhs = c.zero()
                for k in range(n):
                    q = lie.f(a, b, k)
                    if q:
                        rhs = rhs + c.contraction(k, x) * q
                assert lhs == rhs
        assert c.differential(dx) == supercommutator(curv, x)


def test_restriction_matches_scalar_differential(ctx):
    lie, rep = ctx.lie, ctx.rep
    rng = random.Random(5)
    for _ in range(30):
        poly = random_scalar_weil_poly(lie, rng)
        elem = embed_scalar_poly(lie, rep, poly)
        ref = embed_scalar_poly(lie, rep, scalar_weil_differential(lie, poly))
        assert ctx.differential(elem) == ref
        assert ctx.differential(ctx.differential(elem)).is_zero


@pytest.mark.parametrize("name,rep,top", [("so3", "adjoint", 4), ("sl2", "standard", 4),
                                          ("heisenberg3", "adjoint", 4), ("so3+so3", "adjoint", 3)])
def test_reference_matches_the_fraction_oracle_on_every_key(name, rep, top):
    """The suite's per-key reference image of key I, built from elements,
    against the Fraction-polynomial reference on every key up to `top`."""
    if name == "so3+so3":
        lie = _so3_blocks(2)
        rep = adjoint_rep(lie)
    else:
        defn = builtin(name)
        lie, rep = defn.lie, defn.reps[rep]
    alg = ClassicalAlgebra(lie, rep)
    reference = _reference(alg)
    for key in oracles.weil_keys(lie.dim, top):
        want = embed_scalar_poly(lie, rep, scalar_weil_differential(lie, {key: Fraction(1)}))
        assert reference(key) == want, key


def test_sym_euler_lemma(ctx):
    """v^a L_a annihilates every symmetric polynomial."""
    rng = random.Random(9)
    for _ in range(30):
        poly = random_sym_poly(ctx.lie, rng)
        f = embed_scalar_poly(ctx.lie, ctx.rep, {(m, ()): q for m, q in poly.items()})
        acc = ctx.zero()
        for a in range(3):
            acc = acc + ctx.even_gen(a) * ctx.lie_derivative(a, f)
        assert acc.is_zero


def test_render_golden(ctx, sl2):
    y = [ctx.odd_gen(a) for a in range(3)]
    assert render(ctx.zero()) == "0"
    assert render(ctx.differential(y[0])) == "-y2*y3 ⊗ I + v1 ⊗ I"
    elem = ClassicalAlgebra(sl2.lie, sl2.reps["standard"]).element({
        ((2, 0, 0), (1, 2)): Matrix.from_rows([[0, 1], [0, 0]]),
    })
    assert render(elem) == "v1^2*y2*y3 ⊗ [[0,1],[0,0]]"
    assert render(ctx.scalar(Fraction(-3, 2))) == "-3/2*I"


def _oracle_contexts():
    """(lie, rep) pairs for the operator oracles: adjoint, trivial and
    standard reps, and so3 with f halved so that the generator images
    carry the denominators 2 (L_a, d v^c) and 4 (the y^j y^k part of d y^c)."""
    out = []
    for name in ("so3", "sl2", "heisenberg3", "abelian(2)"):
        alg = builtin(name)
        out += [(alg.lie, alg.reps[r]) for r in ("adjoint", "trivial", "standard")
                if r in alg.reps]
    pair = _so3_blocks(2)
    so3 = builtin("so3").lie
    half = LieData(3, {k: q / 2 for k, q in so3.entries.items()}, form=so3.form, name="so3/2")
    for lie in (pair, half):
        out += [(lie, adjoint_rep(lie)), (lie, trivial_rep(lie))]
    return out


@pytest.mark.parametrize("lie,rep", _oracle_contexts(),
                         ids=lambda x: getattr(x, "name", None) or str(x.dim))
def test_operators_match_the_hand_written_leibniz_oracles(lie, rep):
    """L_a, iota_a and d from generator images against the three hand-written
    derivations they replaced, element for element: the generators, random
    elements, and c I multiples of random scalar polynomials."""
    rng = random.Random(lie.dim * 31 + rep.dim)
    n, c = lie.dim, ClassicalAlgebra(lie, rep)
    xs = [c.unit()]
    for make in (c.even_gen, c.odd_gen, c.tau):
        xs += [make(a) for a in range(n)]
    for _ in range(12):
        xs.append(random_element(c, rng, max_degree=4))
        poly = random_scalar_weil_poly(lie, rng)
        xs.append(embed_scalar_poly(lie, rep, poly) + xs[-1])
        xs.append(embed_scalar_poly(lie, rep, poly))
    for x in xs:
        assert c.differential(x) == oracles.differential(x)
        for a in range(n):
            assert c.lie_derivative(a, x) == oracles.lie_derivative(a, x)
            assert c.contraction(a, x) == oracles.contraction(a, x)


def _table_contexts():
    """(lie, rep) pairs for the table tests, one value each, so that the
    tables fill across examples: so3 adjoint, heisenberg3 adjoint
    (nilpotent tau), abelian(2) adjoint (tau = 0, so no End V slot), sl2
    standard (f = +-2 on a 2-dimensional rep) and so3 with f halved
    (Fraction structure constants)."""
    out = [(alg.lie, alg.reps[rep]) for alg, rep in (
        (builtin("so3"), "adjoint"), (builtin("heisenberg3"), "adjoint"),
        (builtin("abelian(2)"), "adjoint"), (builtin("sl2"), "standard"))]
    so3 = builtin("so3").lie
    half = LieData(3, {k: q / 2 for k, q in so3.entries.items()}, form=so3.form, name="so3/2")
    return out + [(half, adjoint_rep(half))]


TABLE_CONTEXTS = _table_contexts()
TABLE_ALGEBRAS = [ClassicalAlgebra(lie, rep) for lie, rep in TABLE_CONTEXTS]
SCALES = [1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)]


@st.composite
def table_elements(draw):
    """An element of a table context with 1 to 4 terms, each generator to
    a power <= 2 and up to 3 odd factors; each End V part is I, a nonzero
    tau_a or a matrix unit, times a scale.  Also a fractional scale q:
    x * q has x's numerators over other denominators."""
    c = draw(st.sampled_from(TABLE_ALGEBRAS))
    n, d, rep = c.lie.dim, c.rep.dim, c.rep
    bases = [Matrix.identity(d), *(t for t in rep.matrices if t),
             *(Matrix(d, d, [int(k == cell) for k in range(d * d)]) for cell in range(d * d))]
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        even = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        odd = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(n, 3)))))
        terms[(even, odd)] = draw(st.sampled_from(bases)) * draw(st.sampled_from(SCALES))
    return c, c.element(terms), draw(st.sampled_from(SCALES[3:]))


def _bits(x):
    return {key: (mat.num, mat.den) for key, mat in x.terms.items()}


@given(table_elements())
@settings(max_examples=150)
def test_tables_match_the_slot_oracle(drawn):
    """L_a, iota_a and d read from the image table and tau's cell maps
    against `oracles.slot_leibniz`, the slot loop they replaced, numerators
    and denominator bit for bit, on x, x * q and d x; the table stays
    within its bound."""
    c, x, q = drawn
    ders, n = c.derivations, c.lie.dim
    ops = [(c.differential, ders[2 * n])]
    ops += [(partial(c.lie_derivative, a), ders[a]) for a in range(n)]
    ops += [(partial(c.contraction, a), ders[n + a]) for a in range(n)]
    for y in (x, x * q, c.differential(x)):
        for op, der in ops:
            got = op(y)
            assert _bits(got) == _bits(oracles.slot_leibniz(der, c.letters, y))
            assert all(got.terms.values())
    info = c.image_table.cache_info()
    assert info.maxsize == ew.IMAGE_TABLE_SIZE and info.currsize <= ew.IMAGE_TABLE_SIZE


def test_tables_match_the_slot_oracle_while_evicting():
    """The same comparison with the image table's bound at 2 entries, on
    fresh values, so that nearly every lookup evicts an entry."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ew, "IMAGE_TABLE_SIZE", 2)
        mp.setattr(sys.modules[__name__], "TABLE_ALGEBRAS",
                   [ClassicalAlgebra(lie, rep) for lie, rep in TABLE_CONTEXTS])
        test_tables_match_the_slot_oracle()
        infos = [c.image_table.cache_info() for c in TABLE_ALGEBRAS]
    assert all(i.maxsize == 2 and i.currsize <= 2 for i in infos)
    assert any(image.misses > 2 for image in infos)
