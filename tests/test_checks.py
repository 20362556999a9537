"""The identity rows of `weil.checks`: each case sums its two sides into
one accumulator and tests it for zero.  The rows equal the element
comparisons they replaced (`oracles.classical_rows`,
`oracles.quantum_rows`) field by field, on every context the suites
accept and under mutant algebras, and every row of both suites fails
under at least one mutant."""

import random
import re
from pathlib import Path

import pytest

import oracles
from test_kernels import _so3_blocks
from test_quantum import _UncoupledDifferential
from weil import (BilinearForm, ClassicalAlgebra, LieData, Matrix, QuantumAlgebra, adjoint_rep,
                  builtin, checks, load_algebra_file)
from weil import quantum as qw
from weil.checks import random_element
from weil.element import add_into, vanishes
from weil.kernels import _bump
from weil.render import render

# KIND -> the suite's rows on a value, and the oracle's
ROWS = {"classical": checks._classical_rows, "quantum": checks._quantum_rows}
ORACLE_ROWS = {"classical": oracles.classical_rows, "quantum": oracles.quantum_rows}

# one algebra object per name; so3+so3 carries only its adjoint rep here, and
# so3-sum the rep adjoint + trivial, where QC's constant End V part is not c I
ALGEBRAS = {name: builtin(name) for name in ("abelian(2)", "heisenberg3", "so3", "sl2")}
SO3_PAIR = _so3_blocks(2)
SO3_SUM = load_algebra_file(Path(__file__).parent / "goldens" / "so3-sum.json")
REPS = {name: alg.reps for name, alg in ALGEBRAS.items()}
REPS["so3+so3"] = {"adjoint": adjoint_rep(SO3_PAIR)}
REPS["so3-sum"] = {"sum": SO3_SUM.reps["sum"]}
LIES = {name: alg.lie for name, alg in ALGEBRAS.items()}
LIES["so3+so3"] = SO3_PAIR
LIES["so3-sum"] = SO3_SUM.lie

# every builtin x rep x context the suites accept (quantum-side only the
# algebras with an orthonormal form), plus so3+so3 adjoint and so3-sum in both
CONTEXTS = [(kind, name, rep) for name in LIES for rep in REPS[name]
            for kind in (ClassicalAlgebra, QuantumAlgebra)
            if kind is ClassicalAlgebra or LIES[name].has_orthonormal_form]


def _fields(rows):
    return [(r.name, r.passed, r.detail) for r in rows]


def _rows_and_oracle(kind, lie, rep, samples, seed):
    """The rows and the oracle's rows, each on a fresh value of `kind`."""
    return (ROWS[kind.KIND](kind(lie, rep), samples, seed),
            ORACLE_ROWS[kind.KIND](kind(lie, rep), samples, seed, 4))


@pytest.mark.parametrize("name", ["so3", "so3+so3"])
def test_random_draws_match_the_fraction_oracle(name):
    """`random_element` draws what the Fraction path it replaced draws:
    the same keys in the same order, each End V part with the same
    numerators and denominator, and the generator left in the same state;
    on the adjoint rep, both kinds, seeds 0-5.  `random_scalar` returns
    the oracle's values."""
    lie, rep = LIES[name], REPS[name]["adjoint"]
    for kind in (ClassicalAlgebra, QuantumAlgebra):
        alg = kind(lie, rep)
        for seed in range(6):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(6):
                got = random_element(alg, rng)
                want = oracles.fraction_random_element(alg, ref)
                assert [(k, m.rows, m.cols, m.num, m.den) for k, m in got.terms.items()] == \
                    [(k, m.rows, m.cols, m.num, m.den) for k, m in want.terms.items()]
            assert rng.getstate() == ref.getstate()
    rng, ref = random.Random(9), random.Random(9)
    assert [checks.random_scalar(rng) for _ in range(300)] == \
        [oracles.fraction_random_scalar(ref) for _ in range(300)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind,name,rep", CONTEXTS,
                         ids=lambda v: getattr(v, "KIND", v))
def test_rows_match_the_element_comparison_oracle(kind, name, rep, seed):
    got, want = _rows_and_oracle(kind, LIES[name], REPS[name][rep], 4 - seed, seed)
    assert _fields(got) == _fields(want)
    assert all(r.passed for r in got), [r.name for r in got if not r.passed]


# -- mutants ----------------------------------------------------------------------
# Each breaks one operator of the table; the suites must report it.


class _OffDegreeLieDerivative(ClassicalAlgebra):
    """L_1 also maps each term A to v^1 A, two degrees up: on the unit, the
    Cartan defect lies only on the key v^1, which iota_1 d + d iota_1 (zero
    there) lacks."""

    def _image(self, i, key):
        terms = super()._image(i, key)
        return terms + (((_bump(key[0], 0, 1), key[1]), None, 1, 1),) if i == 0 else terms


def _scaled(image, k):
    return tuple((g, w, k * p, r, t) for g, w, p, r, t in image)


class _DoubledLieDerivativeOnY(ClassicalAlgebra):
    """L_a y^c = -2 f^c_ab y^b: [L_a, iota_b] is no longer f^c_ab iota_c."""

    @property
    def derivations(self):
        ders, n = super().derivations, self.lie.dim
        return tuple(der._replace(y={c: _scaled(img, 2) for c, img in der.y.items()})
                     if i < n else der for i, der in enumerate(ders))


class _DoubledEndoDifferential(ClassicalAlgebra):
    """d A = 2 y^b [tau_b, A]: d stays equivariant, but d.d != [C, -] and
    d(C) != 0."""

    @property
    def derivations(self):
        ders = super().derivations
        return ders[:-1] + (ders[-1]._replace(endo=_scaled(ders[-1].endo, 2)),)


class _DifferentialWithoutHalf(ClassicalAlgebra):
    """d y^c = v^c, without -(1/2) f^c_ab y^a y^b: d.d != 0 on scalar
    elements."""

    @property
    def derivations(self):
        ders = super().derivations
        return ders[:-1] + (ders[-1]._replace(y={c: img[:1] for c, img in ders[-1].y.items()}),)


class _LieDerivativeWithoutTau(QuantumAlgebra):
    """L_a = [u_a + g_a, -], its End V terms dropped: [L_a, d] != 0."""

    def _image(self, i, key):
        terms = super()._image(i, key)
        return tuple(term for term in terms if term[1] is None) if i < self.lie.dim else terms


class _LieDerivativeWithoutG(QuantumAlgebra):
    """L_a = [u_a + tau_a, -]: [L_a, iota_b] = 0 instead of f_abc iota_c."""

    def _inner_element(self, i):
        return self.even_gen(i) + self.tau(i) if i < self.lie.dim else super()._inner_element(i)


class _NonScalarCurvatureConstant(QuantumAlgebra):
    """QC's constant End V part plus E_last,last.  On so3-sum that projects
    onto the trivial summand: it commutes with every tau_a, so d(QC) = 0
    still, but not with a random End V part, so d.d != [QC, -]."""

    def four_term_curvature(self):
        d = self.rep.dim
        corner = Matrix._make(d, d, tuple(int(k == d * d - 1) for k in range(d * d)), 1)
        return super().four_term_curvature() + self.endo(corner)


CARTAN, LD, LIOTA = "cartan formula [iota_a,d] = L_a", "[L_a,d] = 0", "[L_a,iota_b] = {} iota_c"
CLASSICAL_FAILURES = {
    _OffDegreeLieDerivative: {CARTAN, LD, "v^a L_a annihilates symmetric polynomials"},
    _DoubledLieDerivativeOnY: {CARTAN, LD, LIOTA.format("f^c_ab")},
    _DoubledEndoDifferential: {CARTAN, "d.d = [C,-]", "bianchi d(C) = 0"},
    _DifferentialWithoutHalf: {CARTAN, "d.d = [C,-]",
                               "restriction: d matches the scalar differential",
                               "restriction: d.d = 0 on identity-part elements"},
}
QUANTUM_FAILURES = {
    _UncoupledDifferential: {CARTAN, "d.d = [QC,-]", "bianchi d(QC) = 0",
                             "restriction: d = d_W + iota_a tau_a",
                             "restriction: d != d_W exactly when tau_1 is nonzero"},
    _LieDerivativeWithoutTau: {CARTAN, LD},
    _LieDerivativeWithoutG: {CARTAN, LD, LIOTA.format("f_abc")},
}
MUTANTS = {**CLASSICAL_FAILURES, **QUANTUM_FAILURES}

# the structure rows read the checked value's g_a, gamma and D, whose End V
# parts are I: they fail with a wrong Clifford coefficient, and with a
# bracket whose form is not invariant, on any representation
STRUCTURE = ["[x_a,g_b] = -f_bac x_c", "[x_a,gamma] = g_a", "[x_a,D] = u_a + g_a",
             "[u_a+g_a,D] = 0", "D^2 = (1/2) u_a u_a + gamma^2",
             "gamma^2 = -(1/48) f_abc f_abc", "u_a u_a is central"]
WRONG_CLIFFORD_COEFFICIENT_FAILURES = (set(STRUCTURE) - {"u_a u_a is central"}) | {
    CARTAN, LD, LIOTA.format("f_abc"), "d.d = [QC,-]", "QC four-term formula = (D + x_a tau_a)^2"}
NON_INVARIANT_FORM_FAILURES = set(STRUCTURE) - {"[x_a,g_b] = -f_bac x_c"}

WITNESS = re.compile(r"element (\d+) \(seed (\d+)\)(?:, a=(\d+)(?:, b=(\d+))?)?: X = (.*)")


def _pool(alg, seed, count):
    """The first `count` elements of the identity rows' pool for `seed`."""
    n = alg.lie.dim
    pool = [alg.unit()] + [make(a) for make in (alg.even_gen, alg.odd_gen, alg.tau)
                           for a in range(n)]
    rng = random.Random(seed)
    while len(pool) < count:
        pool.append(random_element(alg, rng, 4))
    return pool


def _assert_witnesses_parse(alg, rows, seed):
    """Every witness of a failed operator row parses and renders its pool element."""
    for r in rows:
        if r.passed or "(seed " not in r.detail:
            continue
        for line in r.detail.split("; "):
            m = WITNESS.fullmatch(line)
            assert m, (r.name, line)
            assert int(m[2]) == seed
            index = int(m[1])
            assert render(_pool(alg, seed, index + 1)[index]) == m[5], (r.name, line)


@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda m: m.__name__)
def test_each_mutant_fails_exactly_its_rows(so3, mutant):
    alg = mutant(so3.lie, so3.reps["adjoint"])
    rows = ROWS[mutant.KIND](alg, 4, 1)
    assert {r.name for r in rows if not r.passed} == MUTANTS[mutant]
    _assert_witnesses_parse(alg, rows, 1)


def test_a_defect_only_on_a_key_the_other_side_lacks_fails_its_row(so3):
    """On the unit iota_1(d 1) + d(iota_1 1) is zero and L_1 1 = v^1 under
    the mutant: the Cartan accumulator holds that one key, and element 0
    is the first witness of the row."""
    alg = _OffDegreeLieDerivative(so3.lie, so3.reps["adjoint"])
    one, n = alg.unit(), alg.lie.dim
    assert alg.contraction(0, alg.differential(one)).is_zero
    assert alg.differential(alg.contraction(0, one)).is_zero
    assert alg.lie_derivative(0, one) == alg.even_gen(0)
    rows = {r.name: r for r in checks._classical_rows(alg, 2, 0)}
    assert rows[CARTAN].detail.startswith("element 0 (seed 0), a=1: X = I; ")
    acc = {}
    add_into(acc, alg._apply(n, alg.differential(one)))
    add_into(acc, alg._apply(2 * n, alg.contraction(0, one)))
    add_into(acc, alg.lie_derivative(0, one), -1)
    assert list(acc) == [((1, 0, 0), ())] and not vanishes(acc)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mutant", list(MUTANTS), ids=lambda m: m.__name__)
def test_rows_match_the_oracle_under_mutants(mutant, seed):
    for name, rep in (("so3", "adjoint"), ("so3", "standard")):
        got, want = _rows_and_oracle(mutant, LIES[name], REPS[name][rep], 4 - seed, seed)
        assert _fields(got) == _fields(want)
        assert not all(r.passed for r in got)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_non_scalar_curvature_constant_fails_d_d_as_the_oracle_does(seed):
    """[QC, -] on so3-sum with a curvature part that is neither c I nor a
    tau_t: its left and right products must sum to the oracle's bracket."""
    lie, rep = LIES["so3-sum"], REPS["so3-sum"]["sum"]
    got, want = _rows_and_oracle(_NonScalarCurvatureConstant, lie, rep, 4 - seed, seed)
    assert _fields(got) == _fields(want)
    assert {r.name for r in got if not r.passed} == {
        "d.d = [QC,-]", "QC four-term formula = (D + x_a tau_a)^2"}
    _assert_witnesses_parse(_NonScalarCurvatureConstant(lie, rep), got, seed)


def _wrong_clifford(monkeypatch, wrong):
    right = qw.cliff_mono_mul

    def mutant(m1, m2):
        mono, p, r = right(m1, m2)
        return wrong(m1, m2, mono, p, r)

    monkeypatch.setattr(qw, "cliff_mono_mul", mutant)
    return builtin("so3")  # fresh algebra objects, so no cached element is reused


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rows_match_the_oracle_under_a_wrong_clifford_sign(monkeypatch, seed):
    """x_I x_J with the sign flipped on words of length >= 2 (the mutant of
    `test_quantum`): the operator rows fail, and fail alike."""
    so3 = _wrong_clifford(monkeypatch, lambda m1, m2, mono, p, r: (
        mono, -p if len(m1) >= 2 and len(m2) >= 2 and len(mono) >= 2 else p, r))
    for rep in ("adjoint", "trivial"):
        got, want = _rows_and_oracle(QuantumAlgebra, so3.lie, so3.reps[rep], 4 - seed, seed)
        assert _fields(got) == _fields(want)
        assert {r.name for r in got if not r.passed} & {CARTAN, LD, LIOTA.format("f_abc")}
        _assert_witnesses_parse(QuantumAlgebra(so3.lie, so3.reps[rep]), got, seed)


def test_a_wrong_clifford_coefficient_fails_its_rows(monkeypatch):
    """x_a x_a = 1 instead of 1/2."""
    so3 = _wrong_clifford(monkeypatch, lambda m1, m2, mono, p, r: (
        mono, p, r // 2 ** len(set(m1) & set(m2))))
    alg = QuantumAlgebra(so3.lie, so3.reps["adjoint"])
    got, want = _rows_and_oracle(QuantumAlgebra, so3.lie, so3.reps["adjoint"], 4, 0)
    assert _fields(got) == _fields(want)
    assert {r.name for r in got if not r.passed} == WRONG_CLIFFORD_COEFFICIENT_FAILURES
    _assert_witnesses_parse(alg, got, 0)


def test_a_form_that_is_not_invariant_fails_the_structure_rows():
    """heisenberg3's bracket with the identity as its 'orthonormal' form:
    f_abc is not totally antisymmetric, so u_a u_a is not central."""
    lie = LieData(3, {(0, 1, 2): 1}, form=BilinearForm(Matrix.identity(3)), name="heisenberg3")
    rows = checks.quantum_structure_suite(QuantumAlgebra(lie, adjoint_rep(lie)))
    assert {r.name for r in rows if not r.passed} == NON_INVARIANT_FORM_FAILURES


def test_the_structure_rows_name_each_failing_witness():
    """Under the form above, a row with a case per a names each failing a,
    in order, and a row with one case names that case."""
    lie = LieData(3, {(0, 1, 2): 1}, form=BilinearForm(Matrix.identity(3)), name="heisenberg3")
    rows = checks.quantum_structure_suite(QuantumAlgebra(lie, adjoint_rep(lie)))
    assert _fields(rows) == [
        ("[x_a,g_b] = -f_bac x_c", True, "exact"),
        *[(name, False, "a=1; a=2; a=3") for name in STRUCTURE[1:4]],
        ("D^2 = (1/2) u_a u_a + gamma^2", False, "mismatch"),
        ("gamma^2 = -(1/48) f_abc f_abc", False, "mismatch"),
        ("u_a u_a is central", False, "not central")]


def test_every_row_of_both_suites_fails_under_some_mutant(so3):
    """The failure sets asserted above cover every row that either suite prints."""
    rep = so3.reps["adjoint"]
    classical = {r.name for r in checks.classical_suite(so3.lie, rep, samples=1)}
    quantum = {r.name for r in checks.quantum_suite(so3.lie, rep, samples=1)}
    assert set().union(*CLASSICAL_FAILURES.values()) == classical
    assert set().union(*QUANTUM_FAILURES.values(), WRONG_CLIFFORD_COEFFICIENT_FAILURES,
                       NON_INVARIANT_FORM_FAILURES) == quantum
