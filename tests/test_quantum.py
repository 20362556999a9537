import contextlib
import gc
import io
import random
import re
import sys
import weakref
from fractions import Fraction
from functools import cached_property

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weil import ALGEBRAS, builtin, checks
from weil import element as ew
from weil import quantum as qw
from weil.checks import identity_part, quantum_structure_suite, quantum_suite, random_element
from weil.classical import ClassicalAlgebra, ClassicalElement
from weil.cli import main
from weil.element import supercommutator
from weil.lie import BilinearForm, LieData, adjoint_rep, trivial_rep
from weil.linalg import Matrix
from weil.quantum import QuantumAlgebra
from weil.render import render


@pytest.fixture(scope="module")
def ctx(so3):
    return QuantumAlgebra(so3.lie, so3.reps["adjoint"])


def so3_plus_so3():
    """Block sum of two copies of so(3); dim 6 with B = identity."""
    entries = {}
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1}
    for (a, b, c), v in eps.items():
        entries[(a, b, c)] = Fraction(v)
        entries[(a + 3, b + 3, c + 3)] = Fraction(v)
    return LieData(6, entries, form=BilinearForm(Matrix.identity(6)), name="so3+so3")


def test_quantum_requires_orthonormal_form(sl2, heis3):
    with pytest.raises(ValueError, match="orthonormal"):
        QuantumAlgebra(sl2.lie, sl2.reps["standard"])


def test_quantum_value_on_heisenberg3_raises_the_orthonormal_form_message(heis3):
    """The check runs when the value is built, before anything is derived."""
    with pytest.raises(ValueError) as info:
        QuantumAlgebra(heis3.lie, heis3.reps["trivial"])
    assert str(info.value) == (
        "quantum construction needs an orthonormal invariant form (B = identity); "
        "algebra heisenberg3 does not carry one")


def test_product_examples(ctx):
    q = ctx
    u1, u2 = q.even_gen(0), q.even_gen(1)
    x1 = q.odd_gen(0)
    assert (u1 * x1).terms == {((1, 0, 0), (0,)): Matrix.identity(3)}
    # Clifford generator squares are 1/2 for an orthonormal form
    assert x1 * x1 == q.scalar(Fraction(1, 2))
    # u2 u1 = u1 u2 - u3
    assert u2 * u1 == u1 * u2 - q.even_gen(2)


def test_distinguished_elements_so3(ctx):
    q = ctx
    x = [q.odd_gen(a) for a in range(3)]
    assert q.g[0] == -(x[1] * x[2])
    assert q.gamma == -(x[0] * x[1] * x[2])
    u = [q.even_gen(a) for a in range(3)]
    expected_dirac = u[0] * x[0] + u[1] * x[1] + u[2] * x[2] + q.gamma
    assert q.dirac == expected_dirac


def test_distinguished_elements_abelian(abelian2):
    q = QuantumAlgebra(abelian2.lie, abelian2.reps["trivial"])
    assert all(g.is_zero for g in q.g)
    assert q.gamma.is_zero
    expected = q.even_gen(0) * q.odd_gen(0) + q.even_gen(1) * q.odd_gen(1)
    assert q.dirac == expected


def test_gamma_squared_values(so3, abelian2):
    assert qw.gamma_squared(so3.lie) == Fraction(-1, 8)
    assert qw.gamma_squared(abelian2.lie) == 0
    assert qw.gamma_squared(so3_plus_so3()) == Fraction(-1, 4)


def test_gamma_squared_by_direct_expansion(so3):
    """Independent route: gamma = -x1x2x3, so gamma^2 = (x1x2x3)^2 = -1/8."""
    q = QuantumAlgebra(so3.lie, trivial_rep(so3.lie))
    x = [q.odd_gen(a) for a in range(3)]
    top = x[0] * x[1] * x[2]
    assert top * top == q.scalar(Fraction(-1, 8))
    assert q.gamma * q.gamma == q.scalar(Fraction(-1, 8))


def test_structure_lemmas(so3, abelian2):
    for alg in (so3, abelian2):
        for result in quantum_structure_suite(alg.lie):
            assert result.passed, (alg.name, result.name, result.detail)


def test_lie_derivative_matches_lowered_constants(ctx):
    """L_a x_b = f_cab x_c, equivalent to the structure-constant form."""
    q, lie = ctx, ctx.lie
    n = lie.dim
    for a in range(n):
        for b in range(n):
            lhs = q.lie_derivative(a, q.odd_gen(b))
            rhs = q.zero()
            for c in range(n):
                f = lie.f(a, b, c)  # f_cab = f^c_ab with an orthonormal form
                if f:
                    rhs = rhs + q.odd_gen(c) * f
            assert lhs == rhs, (a, b)
            lhs_u = q.lie_derivative(a, q.even_gen(b))
            rhs_u = q.zero()
            for c in range(n):
                f = lie.f(a, b, c)
                if f:
                    rhs_u = rhs_u + q.even_gen(c) * f
            assert lhs_u == rhs_u, (a, b)


def test_operator_generator_values(ctx):
    q = ctx
    x = [q.odd_gen(a) for a in range(3)]
    u = [q.even_gen(a) for a in range(3)]
    # iota_a x_b = delta_ab
    for a in range(3):
        for b in range(3):
            img = q.contraction(a, x[b])
            assert img == (q.unit() if a == b else q.zero())
            assert q.contraction(a, u[b]).is_zero
    # d u_1 = -f_1bc x_b u_c = -x_2 u_3 + x_3 u_2
    assert q.differential(u[0]) == -(x[1] * u[2]) + x[2] * u[1]
    # d_W x_1 = u_1 - x_2 x_3
    assert q.weil_differential(x[0]) == u[0] - x[1] * x[2]


def test_restriction_formula(ctx):
    """On identity-matrix-part elements d = d_W + iota_a tau_a, and the two
    differentials genuinely differ at x_1 for the adjoint representation."""
    q = ctx
    x1 = q.odd_gen(0)
    assert q.differential(x1) == q.weil_differential(x1) + q.tau(0)
    assert q.differential(x1) != q.weil_differential(x1)
    rng = random.Random(31)
    for _ in range(20):
        raw = random_element(q, rng)
        elem = q.element({
            m: Matrix.identity(q.rep.dim) * mat[0, 0] for m, mat in raw.terms.items()
        })
        rhs = q.weil_differential(elem)
        for a in range(3):
            rhs = rhs + q.contraction(a, elem) * q.tau(a)
        assert q.differential(elem) == rhs
    # L_a and iota_a agree with the uncoupled operators on such elements
    for a in range(3):
        elem = q.even_gen(1) * q.odd_gen(2)
        uncoupled = supercommutator(q.even_gen(a) + q.g[a], elem)
        assert q.lie_derivative(a, elem) == uncoupled


class DoubledG(QuantumAlgebra):
    """g_1 doubled, so gamma is no longer (1/3) x_a g_a."""

    @cached_property
    def g(self):
        first, *rest = QuantumAlgebra.g.func(self)
        return (first * 2, *rest)


class ShiftedCurvature(QuantumAlgebra):
    """The four-term formula plus 1, so it is no longer (D + x_a tau_a)^2."""

    def four_term_curvature(self):
        return super().four_term_curvature() + self.scalar(1)


class TiltedGamma(QuantumAlgebra):
    """gamma + u_1, whose square has a u_1^2 term."""

    @cached_property
    def gamma(self):
        return QuantumAlgebra.gamma.func(self) + self.even_gen(0)


def test_gamma_cross_check_fires_on_a_wrong_g(so3):
    with pytest.raises(AssertionError, match=r"^gamma construction inconsistent: "):
        DoubledG(so3.lie, so3.reps["adjoint"]).gamma


def test_curvature_cross_check_fires_on_a_wrong_four_term_formula(so3, monkeypatch, capsys):
    """The wrong formula raises, and `weil flat` reports it with exit 1."""
    message = "four-term curvature formula disagrees with (D + x tau)^2"
    with pytest.raises(AssertionError) as raised:
        ShiftedCurvature(so3.lie, so3.reps["adjoint"]).curvature
    assert str(raised.value) == message
    monkeypatch.setitem(ALGEBRAS, "quantum", ShiftedCurvature)
    code = main(["flat", "--builtin", "so3", "--quantum", "--json"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"internal consistency error: {message}\n")


def test_gamma_squared_cross_checks_fire(so3, monkeypatch):
    right = qw.gamma_square_formula
    monkeypatch.setattr(qw, "gamma_square_formula", lambda lie: right(lie) + 1)
    with pytest.raises(AssertionError) as raised:
        qw.gamma_squared(so3.lie)
    assert str(raised.value) == "gamma^2 = -1/8 but -(1/48) sum f^2 = 7/8"
    monkeypatch.setattr(qw, "QuantumAlgebra", TiltedGamma)
    with pytest.raises(AssertionError) as raised:
        qw.gamma_squared(so3.lie)
    assert str(raised.value) == "gamma^2 is not a scalar"


def test_curvature_trivial_cases(so3, abelian2):
    q = QuantumAlgebra(abelian2.lie, abelian2.reps["trivial"])
    half_cas = q.zero()
    for a in range(2):
        half_cas = half_cas + q.even_gen(a) * q.even_gen(a)
    assert q.curvature == half_cas * Fraction(1, 2)

    q = QuantumAlgebra(so3.lie, so3.reps["trivial"])
    half_cas = q.zero()
    for a in range(3):
        half_cas = half_cas + q.even_gen(a) * q.even_gen(a)
    assert q.curvature == half_cas * Fraction(1, 2) + q.scalar(Fraction(-1, 8))


def test_curvature_closed_and_squares(ctx):
    q = ctx
    curv = q.curvature
    assert q.differential(curv).is_zero
    rng = random.Random(41)
    for _ in range(15):
        x = random_element(q, rng)
        assert q.differential(q.differential(x)) == supercommutator(curv, x)


def test_casimir_report(so3, abelian2):
    """The structure suite's Casimir rows: u_a u_a is central and D^2 =
    (1/2) u_a u_a + gamma^2, with gamma^2 from -(1/48) f_abc f_abc."""
    for alg in (so3, abelian2):
        rows = {r.name: r for r in quantum_structure_suite(alg.lie)}
        for name in ("u_a u_a is central", "D^2 = (1/2) u_a u_a + gamma^2"):
            assert rows[name].passed and rows[name].detail == "exact", (alg.name, name)


def test_inner_elements_are_the_operator_table(so3):
    """inner[a] = u_a + g_a + tau_a, inner[n + a] = x_a and inner[2n] =
    D + x_a tau_a: L_a, iota_a and d are their brackets."""
    for lie in (so3.lie, so3_plus_so3()):
        q, n = QuantumAlgebra(lie, adjoint_rep(lie)), lie.dim
        assert len(q.inner) == 2 * n + 1
        for a in range(n):
            assert q.inner[a] == q.even_gen(a) + q.g[a] + q.tau(a)
            assert q.inner[n + a] == q.odd_gen(a)
        assert q.inner[2 * n] == q.dirac_tau


def test_lie_derivative_builds_only_its_own_operator_entry(so3):
    """The first L_a and iota_a on a fresh value build neither gamma (with
    its cross-check), D nor D + x_a tau_a; the first d does."""
    q = QuantumAlgebra(so3.lie, so3.reps["adjoint"])
    q.lie_derivative(0, q.even_gen(1))
    q.contraction(2, q.odd_gen(1))
    assert not {"gamma", "dirac", "dirac_tau", "inner"} & set(vars(q))
    q.differential(q.even_gen(1))
    assert {"gamma", "dirac", "dirac_tau"} <= set(vars(q))


def test_a_value_with_filled_tables_is_freed_by_reference_counting(so3):
    """The image table holds its value weakly: once every operator has
    filled it and the cell maps, dropping the last reference frees the
    value with the cycle collector off, classically and quantum-side."""
    refs = []
    gc.disable()
    try:
        for kind in (QuantumAlgebra, ClassicalAlgebra):
            alg = kind(so3.lie, so3.reps["adjoint"])
            x = alg.even_gen(0) * alg.odd_gen(1) * alg.tau(2)
            for i in range(7):
                alg._apply(i, x)
            assert alg.image_table.cache_info().currsize and "bracket_cells" in vars(alg)
            refs.append(weakref.ref(alg))
            del alg
    finally:
        gc.enable()
    assert [r() for r in refs] == [None, None]


def _table_contexts():
    """so3 trivial, standard and adjoint; abelian(2) adjoint, where every
    tau is zero; so3+so3 adjoint, with 13 operators; so3 with halved
    structure constants, whose PBW products have Fraction coefficients."""
    so3, ab = builtin("so3"), builtin("abelian(2)")
    pair = so3_plus_so3()
    half = LieData(3, {k: q / 2 for k, q in so3.lie.entries.items()}, form=so3.lie.form,
                   name="so3/2")
    return ([(so3.lie, so3.reps[r]) for r in ("trivial", "standard", "adjoint")]
            + [(ab.lie, ab.reps["adjoint"]), (pair, adjoint_rep(pair)),
               (half, adjoint_rep(half))])


TABLE_CONTEXTS = _table_contexts()
TABLE_ALGEBRAS = [QuantumAlgebra(lie, rep) for lie, rep in TABLE_CONTEXTS]
SCALES = [1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)]


@st.composite
def table_elements(draw):
    """An element of a table context with 1 to 3 terms, each of PBW
    degree <= 3 and up to 3 Clifford factors; each End V part is I, a
    nonzero tau_a or a matrix unit, times a scale.  Also a fractional
    scale q: x * q has x's numerators over other denominators."""
    q = draw(st.sampled_from(TABLE_ALGEBRAS))
    n, d, rep = q.lie.dim, q.rep.dim, q.rep
    bases = [Matrix.identity(d), *(t for t in rep.matrices if t),
             *(Matrix(d, d, [int(k == cell) for k in range(d * d)]) for cell in range(d * d))]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        letters = draw(st.lists(st.integers(0, n - 1), max_size=3))
        even = tuple(letters.count(a) for a in range(n))
        odd = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=min(n, 3)))))
        terms[(even, odd)] = draw(st.sampled_from(bases)) * draw(st.sampled_from(SCALES))
    return q, q.element(terms), draw(st.sampled_from(SCALES[3:]))


def _bits(x):
    return {key: (mat.num, mat.den) for key, mat in x.terms.items()}


@given(table_elements())
@settings(max_examples=60)
def test_tables_match_the_bracket_oracle(drawn):
    """All 2n + 1 operators read from the image table and tau's cell
    maps against `oracles.bracket_apply`, the whole bracket with
    inner[i], numerators and denominator bit for bit, on x, x * q and
    d x; the table stays within its bound."""
    q, x, scale = drawn
    for y in (x, x * scale, oracles.bracket_apply(q, 2 * q.lie.dim, x)):
        for i in range(2 * q.lie.dim + 1):
            got = q._apply(i, y)
            assert _bits(got) == _bits(oracles.bracket_apply(q, i, y)), i
            assert all(got.terms.values())
    info = q.image_table.cache_info()
    assert info.maxsize == ew.IMAGE_TABLE_SIZE and info.currsize <= ew.IMAGE_TABLE_SIZE


def test_tables_match_the_bracket_oracle_while_evicting():
    """The same comparison with the image table's bound at 2 entries, on
    fresh values, so that nearly every lookup evicts an entry."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ew, "IMAGE_TABLE_SIZE", 2)
        mp.setattr(sys.modules[__name__], "TABLE_ALGEBRAS",
                   [QuantumAlgebra(lie, rep) for lie, rep in TABLE_CONTEXTS])
        test_tables_match_the_bracket_oracle()
        infos = [q.image_table.cache_info() for q in TABLE_ALGEBRAS if "image_table" in vars(q)]
    assert infos and all(i.maxsize == 2 and i.currsize <= 2 for i in infos)
    assert any(image.misses > 2 for image in infos)


class _UncoupledDifferential(QuantumAlgebra):
    """A wrong operator table: inner[2n] is D, without x_a tau_a."""

    def _inner_element(self, i):
        return self.dirac if i == 2 * self.lie.dim else super()._inner_element(i)


class _CurvatureOperator(QuantumAlgebra):
    """inner[2n] is the curvature: its u_a tau_a terms give images with
    pl tau_a A + pr A tau_a and pl != +-pr where the lower PBW terms of
    u_a key and key u_a differ, each split into an anticommutator and a
    commutator."""

    def _inner_element(self, i):
        return self.four_term_curvature() if i == 2 * self.lie.dim else super()._inner_element(i)


class _SplitScalars(QuantumAlgebra):
    """The operator terms with each c I part split into c/2 + c/3 + c/6:
    the same operators, with sums over three denominators per image."""

    def _inner_terms(self, i):
        return tuple(split for key, t, p, r in super()._inner_terms(i)
                     for split in ([(key, t, p, r)] if t is not None
                                   else [(key, t, p, 2 * r), (key, t, p, 3 * r), (key, t, p, 6 * r)]))


def test_images_sum_terms_over_differing_denominators(so3):
    """Operator terms over different denominators merge exactly: with the
    split terms every operator still equals its bracket, bit for bit."""
    q = _SplitScalars(so3.lie, so3.reps["adjoint"])
    rng = random.Random(13)
    for _ in range(8):
        x = random_element(q, rng, max_degree=4)
        for i in range(7):
            assert _bits(q._apply(i, x)) == _bits(oracles.bracket_apply(q, i, x)), i


def test_operator_images_are_read_off_the_inner_elements(so3, monkeypatch):
    """With inner[2n] = D the table-read d is the bracket with D, bit for
    bit, and the suite on so3 adjoint reports failing rows: no image is
    written down apart from `inner`.  With inner[2n] the curvature, d is
    the bracket with it."""
    lie, rep = so3.lie, so3.reps["adjoint"]
    q = _UncoupledDifferential(lie, rep)
    assert q.inner[6] == q.dirac
    rng = random.Random(7)
    for _ in range(10):
        x = random_element(q, rng, max_degree=4)
        assert _bits(q.differential(x)) == _bits(supercommutator(q.dirac, x))
    monkeypatch.setattr(checks, "QuantumAlgebra", _UncoupledDifferential)
    failed = {r.name for r in quantum_suite(lie, rep, samples=4, seed=0) if not r.passed}
    assert "restriction: d = d_W + iota_a tau_a" in failed, failed
    q = _CurvatureOperator(lie, rep)
    curv = q.four_term_curvature()
    for _ in range(10):
        x = random_element(q, rng, max_degree=4)
        assert _bits(q.differential(x)) == _bits(supercommutator(curv, x))


def test_filtration_degrees_of_operators(ctx):
    q = ctx
    rng = random.Random(43)
    for _ in range(25):
        x = random_element(q, rng, max_degree=3, max_terms=1)
        if x.is_zero:
            continue
        top = max(x.degrees())
        dx = q.differential(x)
        if not dx.is_zero:
            assert max(dx.degrees()) <= top + 1
        for a in range(3):
            la = q.lie_derivative(a, x)
            if not la.is_zero:
                assert max(la.degrees()) <= top
            ia = q.contraction(a, x)
            if not ia.is_zero:
                assert max(ia.degrees()) <= top - 1


def test_full_suite_passes(so3):
    results = quantum_suite(so3.lie, so3.reps["adjoint"], samples=25, seed=3)
    for r in results:
        assert r.passed, (r.name, r.detail)


def test_identity_part_stores_no_zero_matrix(ctx):
    """The restriction row's identity part keeps A[0, 0] I for every term
    with A[0, 0] != 0 and drops the others, so no stored matrix is zero."""
    rng = random.Random(21001)
    dropped = 0
    for _ in range(60):
        x = random_element(ctx, rng)
        part = identity_part(x)
        assert all(part.terms.values())
        assert part.terms == {m: Matrix.identity(3) * a[0, 0]
                              for m, a in x.terms.items() if a[0, 0]}
        dropped += len(x.terms) - len(part.terms)
    assert dropped  # some draws have A[0, 0] = 0


def test_render_golden(ctx):
    q = ctx
    elem = q.element({
        ((1, 1, 0), (0, 2)): Matrix.identity(3),
    })
    assert render(elem) == "u1*u2 ⊗ x1*x3 ⊗ I"
    assert render(q.zero()) == "0"
    assert render(q.gamma * q.gamma) == "-1/8*I"


def test_suite_rows_fail_on_a_wrong_clifford_coefficient(monkeypatch):
    """With x_a x_a = 1 instead of 1/2 the gamma^2 and four-term rows fail,
    and the suite still returns every row instead of raising."""
    right = qw.cliff_mono_mul

    def wrong(m1, m2):
        mono, p, r = right(m1, m2)
        return mono, p, r // 2 ** len(set(m1) & set(m2))

    monkeypatch.setattr(qw, "cliff_mono_mul", wrong)
    alg = builtin("so3")  # fresh algebra objects, so no cached element is reused
    rows = {r.name: r for r in quantum_suite(alg.lie, alg.reps["adjoint"], samples=2, seed=1)}
    for name in ("gamma^2 = -(1/48) f_abc f_abc", "QC four-term formula = (D + x_a tau_a)^2"):
        assert not rows[name].passed and rows[name].detail == "mismatch", name


def _eval_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue().strip()


def test_failed_identity_names_a_witness_that_eval_reproduces(monkeypatch):
    """A wrong Clifford sign on products of two words of length >= 2 breaks
    the Cartan formula on a random element.  The row names the seed, the
    element's index and its rendering; the rendering is that seeded draw,
    and pasted into `weil eval` it gives a nonzero Cartan defect under the
    mutant and zero without it."""
    right = qw.cliff_mono_mul

    def wrong(m1, m2):
        mono, p, r = right(m1, m2)
        return mono, (-p if len(m1) >= 2 and len(m2) >= 2 and len(mono) >= 2 else p), r

    monkeypatch.setattr(qw, "cliff_mono_mul", wrong)
    alg = builtin("so3")  # fresh algebra objects, so no cached element is reused
    lie, rep = alg.lie, alg.reps["adjoint"]
    rows = {r.name: r for r in quantum_suite(lie, rep, samples=3, seed=0)}
    row = rows["cartan formula [iota_a,d] = L_a"]
    assert not row.passed
    m = re.fullmatch(r"element (\d+) \(seed 0\), a=(\d+): X = (.*)", row.detail.split("; ")[0])
    assert m, row.detail
    index, a, x = int(m[1]), m[2], m[3]
    first_random = 1 + 3 * lie.dim  # the unit, then u_a, x_a, tau_a
    assert index >= first_random
    rng = random.Random(0)
    draws = [random_element(QuantumAlgebra(lie, rep), rng)
             for _ in range(index - first_random + 1)]
    assert render(draws[-1]) == x
    argv = ["eval", "--builtin", "so3", "--rep", "adjoint", "--quantum",
            f"iota({a}, d({x})) + d(iota({a}, {x})) - L({a}, {x})"]
    assert _eval_stdout(argv) != "0"
    monkeypatch.undo()
    assert _eval_stdout(argv) == "0"


def _degree(key):
    return 2 * sum(key[0]) + len(key[1])


def _gr_mismatches(lie, rep, rng, pairs):
    """Pairs of random x, y where x*y leaves the filtration, or where its
    top-degree part differs from the classical product of the top parts of
    x and y (gr U = S, gr Cl = /\\): the quantum algebra is filtered with
    the classical one as its associated graded."""
    bad, q = 0, QuantumAlgebra(lie, rep)
    for _ in range(pairs):
        x = random_element(q, rng)
        y = random_element(q, rng)
        if x.is_zero or y.is_zero:
            continue
        top = max(x.degrees()) + max(y.degrees())
        xy = x * y
        gr = [ClassicalElement(lie, rep, {k: m for k, m in z.terms.items()
                                             if _degree(k) == max(z.degrees())})
              for z in (x, y)]
        top_xy = ClassicalElement(lie, rep, {k: m for k, m in xy.terms.items()
                                                if _degree(k) == top})
        if max(xy.degrees(), default=0) > top or top_xy != gr[0] * gr[1]:
            bad += 1
    return bad


@pytest.mark.parametrize("alg_name,rep_name", [
    ("so3", "adjoint"), ("so3", "trivial"), ("abelian2", "adjoint"), ("abelian2", "trivial"),
])
def test_top_degree_of_quantum_product_is_classical(request, alg_name, rep_name):
    alg = request.getfixturevalue(alg_name)
    assert _gr_mismatches(alg.lie, alg.reps[rep_name], random.Random(67), 60) == 0


def test_gr_check_fails_on_a_wrong_clifford_sign(monkeypatch):
    """With x_a x_b = +x_b x_a the top parts stop matching the exterior product."""
    right = qw.cliff_mono_mul

    def wrong(m1, m2):
        mono, p, r = right(m1, m2)
        return mono, abs(p), r

    monkeypatch.setattr(qw, "cliff_mono_mul", wrong)
    alg = builtin("so3")
    assert _gr_mismatches(alg.lie, alg.reps["trivial"], random.Random(67), 60) > 0
