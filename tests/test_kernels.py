import gc
import importlib.util
import itertools
import json
import random
import tempfile
import weakref
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weil.kernels as kernels
from oracles import cliff_poly_mul, ext_poly_mul, pbw_poly_mul, sym_poly_mul
from weil.kernels import (
    add_term,
    cliff_mono_mul,
    ext_mono_mul,
    ext_normalize,
    pbw_mono_mul,
    pbw_word,
)
from weil.lie import LieData, builtin, load_algebra_file, trivial_rep
from weil.linalg import Matrix
from weil.quantum import QuantumAlgebra


def one(mono):
    return {mono: Fraction(1)}


def test_sym_products():
    n = 2
    v1, v2 = one((1, 0)), one((0, 1))
    assert sym_poly_mul(v1, v2) == {(1, 1): 1}
    assert sym_poly_mul(v1, v1) == {(2, 0): 1}
    lhs = sym_poly_mul({(1, 0): Fraction(1), (0, 1): Fraction(1)},
                       {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    assert lhs == {(2, 0): 1, (0, 2): -1}


def test_ext_products():
    y1, y2 = one((0,)), one((1,))
    assert ext_poly_mul(y1, y2) == {(0, 1): 1}
    assert ext_poly_mul(y2, y1) == {(0, 1): -1}
    assert ext_poly_mul(y1, y1) == {}


def test_ext_normalize_words():
    assert ext_normalize((2, 0, 1)) == (1, (0, 1, 2))
    assert ext_normalize((1, 0)) == (-1, (0, 1))
    assert ext_normalize((0, 2, 0)) is None


index_monos = st.lists(
    st.integers(min_value=0, max_value=3), min_size=0, max_size=4, unique=True
).map(lambda xs: tuple(sorted(xs)))


@given(index_monos, index_monos)
def test_ext_graded_commutativity(m1, m2):
    ab = ext_mono_mul(m1, m2)
    ba = ext_mono_mul(m2, m1)
    assert (ab is None) == (ba is None)
    if ab is None:
        return
    sign = -1 if (len(m1) % 2 and len(m2) % 2) else 1
    assert ab[1] == ba[1]
    assert ab[0] == sign * ba[0]


def test_clifford_products_orthonormal():
    x1, x2 = one((0,)), one((1,))
    assert cliff_poly_mul(x2, x1) == {(0, 1): -1}
    # the relation forces generator squares of B_aa / 2
    assert cliff_poly_mul(x1, x1) == {(): Fraction(1, 2)}
    top = one((0, 1, 2))
    # frozen from the adjacent-transposition expansion done by hand
    assert cliff_poly_mul(top, top) == {(): Fraction(-1, 8)}


def test_clifford_supercommutator_recovers_form():
    # a general form B exists only in the rewriting oracle
    B = Matrix.from_rows([[2, 1, 0], [1, 3, 0], [0, 0, 1]])
    for a in range(3):
        for b in range(3):
            xa, xb = one((a,)), one((b,))
            anti = oracles.mul_clifford(xa, xb, B)
            for m, c in oracles.mul_clifford(xb, xa, B).items():
                anti = dict(anti)
                anti[m] = anti.get(m, Fraction(0)) + c
            anti = {m: c for m, c in anti.items() if c}
            expected = {(): B[a, b]} if B[a, b] else {}
            assert anti == expected, (a, b)


def test_clifford_kernel_matches_oracle_exhaustively():
    """Every pair of index monomials in n <= 6 generators, at B = I."""
    for n in range(1, 7):
        ident = Matrix.identity(n)
        monos = [m for k in range(n + 1) for m in itertools.combinations(range(n), k)]
        for m1 in monos:
            for m2 in monos:
                mono, p, r = cliff_mono_mul(m1, m2)
                assert ((mono, Fraction(p, r)),) == oracles.cliff_mono_mul(m1, m2, ident), \
                    (n, m1, m2)


def test_pbw_straightening_so3():
    so3 = builtin("so3").lie
    u2u1 = pbw_poly_mul(one((0, 1, 0)), one((1, 0, 0)), so3)
    assert u2u1 == {(1, 1, 0): 1, (0, 0, 1): -1}


def test_pbw_abelian_commutes():
    ab = builtin("abelian(2)").lie
    assert pbw_poly_mul(one((0, 1)), one((1, 0)), ab) == {(1, 1): 1}


def test_pbw_confluence_u3u2u1():
    so3 = builtin("so3").lie
    u3, u2, u1 = one((0, 0, 1)), one((0, 1, 0)), one((1, 0, 0))
    left = oracles.mul_pbw(oracles.mul_pbw(u3, u2, so3, "leftmost"), u1, so3, "leftmost")
    right = oracles.mul_pbw(oracles.mul_pbw(u3, u2, so3, "rightmost"), u1, so3, "rightmost")
    assert left == right
    assert pbw_poly_mul(pbw_poly_mul(u3, u2, so3), u1, so3) == left


def _random_mono(rng, n, max_deg):
    mono = [0] * n
    for _ in range(rng.randint(0, max_deg)):
        mono[rng.randrange(n)] += 1
    return tuple(mono)


def test_pbw_confluence_randomized():
    so3 = builtin("so3").lie
    rng = random.Random(7)
    for _ in range(100):
        m1 = _random_mono(rng, 3, 4)
        m2 = _random_mono(rng, 3, 4)
        left = oracles.mul_pbw(one(m1), one(m2), so3, "leftmost")
        assert left == oracles.mul_pbw(one(m1), one(m2), so3, "rightmost")
        assert pbw_poly_mul(one(m1), one(m2), so3) == left


def _gamma_square_table():
    """The module `scripts/gamma_square_table.py`."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "gamma_square_table.py"
    spec = importlib.util.spec_from_file_location("gamma_square_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _so3_blocks(k):
    """so3^k as `scripts/gamma_square_table.py` builds it."""
    return _gamma_square_table().so3_blocks(k)


def test_gamma_square_table_exits_one_on_a_mismatch(monkeypatch, capsys):
    """The script's checks are `if`s, not `assert`s that python -O strips:
    gamma * gamma against the closed form, and the closed form against
    -k/8 (with every f_abc doubled gamma * gamma is -k/2 on so3^k)."""
    module = _gamma_square_table()
    assert module.main(["--blocks", "2"]) == 0
    right = module.gamma_square_formula
    monkeypatch.setattr(module, "gamma_square_formula", lambda lie: right(lie) + lie.dim)
    assert module.main(["--blocks", "2"]) == 1
    assert "mismatch: gamma * gamma = -1/8 on so3^1, -(1/48) sum f^2 = 23/8" in capsys.readouterr().err
    monkeypatch.undo()
    blocks = module.so3_blocks
    monkeypatch.setattr(module, "so3_blocks", lambda k: LieData(
        3 * k, {abc: 2 * f for abc, f in blocks(k).entries.items()}, form=blocks(k).form))
    assert module.main(["--blocks", "2"]) == 1
    assert "mismatch: gamma^2 = -1/2 on so3^1, expected -1/8" in capsys.readouterr().err


def test_gamma_square_table_starts_at_one_block(capsys):
    """so3^0 would have a 0-dimensional trivial rep, on which gamma * gamma
    and the closed form are both zero and agree whatever the formula:
    `LieData` refuses dimension 0, and the table starts at one block."""
    module = _gamma_square_table()
    for make in (lambda: module.so3_blocks(0), lambda: LieData(0, {}), lambda: LieData(-1, {})):
        with pytest.raises(ValueError, match="dimension at least 1"):
            make()
    assert module.main(["--blocks", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "blocks  dim  gamma^2", "     1    3  -1/8", "     2    6  -1/4"]


def test_pbw_kernel_matches_oracle_strategies():
    algebras = [builtin(name).lie for name in ("so3", "heisenberg3", "sl2", "abelian(2)")]
    algebras.append(_so3_blocks(2))
    rng = random.Random(19)
    for lie in algebras:
        for _ in range(40):
            m1 = _random_mono(rng, lie.dim, 4)
            m2 = _random_mono(rng, lie.dim, 4)
            word = pbw_word(m1) + pbw_word(m2)
            got = dict(pbw_mono_mul(m1, m2, lie.bracket_table))
            for strategy in ("leftmost", "rightmost"):
                assert got == oracles.pbw_word_mul(word, lie, strategy), \
                    (lie.name, m1, m2, strategy)


@lru_cache(maxsize=None)
def _pbw_algebras():
    """so3, sl2, heisenberg3, abelian(2) and so3+so3, all with integral f,
    and heisenberg3 loaded from a file with f^3_12 = 1/2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "heisenberg3_half.json"
        path.write_text(json.dumps({"dim": 3, "f": [[1, 2, 3, "1/2"]], "name": "heisenberg3/2"}))
        half = load_algebra_file(str(path)).lie
    lies = [builtin(name).lie for name in ("so3", "sl2", "heisenberg3", "abelian(2)")]
    return tuple(lies + [_so3_blocks(2), half])


def _assert_pbw_matches_fraction_oracle(mono_mul, lie, m1, m2):
    """Term for term equal to the Fraction kernel; every coefficient an int
    when every f^c_ab of `lie` is integral, an int or a Fraction otherwise."""
    got = mono_mul(m1, m2, lie.bracket_table)
    assert got == oracles.fraction_pbw_mono_mul(m1, m2, lie), (lie.name, m1, m2)
    integral = all(q.denominator == 1 for q in lie.entries.values())
    kinds = (int,) if integral else (int, Fraction)
    assert all(type(q) in kinds for _, q in got), (lie.name, m1, m2, got)


@st.composite
def _pbw_cases(draw):
    """An algebra and two monomials of total degree <= 6."""
    lie = draw(st.sampled_from(_pbw_algebras()))
    letters = st.lists(st.integers(min_value=0, max_value=lie.dim - 1), max_size=6)
    m1, m2 = ([0] * lie.dim, [0] * lie.dim)
    for mono in (m1, m2):
        for a in draw(letters):
            mono[a] += 1
    return lie, tuple(m1), tuple(m2)


@given(_pbw_cases())
@settings(max_examples=300, deadline=None)
def test_pbw_kernel_matches_the_fraction_oracle(case):
    _assert_pbw_matches_fraction_oracle(pbw_mono_mul, *case)


def test_pbw_oracle_test_fails_on_a_wrong_integer_bracket_sign(monkeypatch):
    """A kernel whose bracket term has the wrong sign when f^c_ba is an int
    fails on every integral algebra that has a bracket, and only there."""

    @lru_cache(maxsize=None)
    def wrong(a, mono, table):
        b = next((i for i, k in enumerate(mono) if k), a)
        if b >= a:
            return ((kernels._bump(mono, a, 1), 1),)
        rest = kernels._bump(mono, b, -1)
        out = {}
        for m, q in wrong(a, rest, table):
            for m2, q2 in wrong(b, m, table):
                add_term(out, m2, q * q2)
        for c, f in table.rows.get((b, a), ()):
            for m, q in wrong(c, rest, table):
                add_term(out, m, (f if type(f) is int else -f) * q)
        return tuple(out.items())

    monkeypatch.setattr(kernels, "_pbw_left", wrong)
    mutant = kernels.pbw_mono_mul.__wrapped__  # no cached products
    so3, sl2, heisenberg3, abelian2, so3_pair, half = _pbw_algebras()
    for lie, m1, m2 in ((so3, (0, 1, 0), (1, 0, 0)), (sl2, (0, 0, 1), (1, 0, 0)),
                        (heisenberg3, (0, 1, 0), (1, 0, 0)),
                        (so3_pair, (0, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0))):
        with pytest.raises(AssertionError):
            _assert_pbw_matches_fraction_oracle(mutant, lie, m1, m2)
    for lie, m1, m2 in ((abelian2, (0, 2), (2, 0)), (half, (0, 2, 1), (3, 0, 0))):
        _assert_pbw_matches_fraction_oracle(mutant, lie, m1, m2)


def test_pbw_associativity_randomized():
    so3 = builtin("so3").lie
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (one(_random_mono(rng, 3, 3)) for _ in range(3))
        assert pbw_poly_mul(pbw_poly_mul(a, b, so3), c, so3) == pbw_poly_mul(a, pbw_poly_mul(b, c, so3), so3)


def test_clifford_associativity_randomized():
    rng = random.Random(13)
    monos = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    for _ in range(60):
        a, b, c = (one(rng.choice(monos)) for _ in range(3))
        assert cliff_poly_mul(cliff_poly_mul(a, b), c) == cliff_poly_mul(a, cliff_poly_mul(b, c))


@given(index_monos, index_monos)
@settings(max_examples=50)
def test_clifford_filtration_bound(m1, m2):
    for m, _ in cliff_poly_mul(one(m1), one(m2)).items():
        assert len(m) <= len(m1) + len(m2)
        assert (len(m) - len(m1) - len(m2)) % 2 == 0


def test_pbw_filtration_bound():
    so3 = builtin("so3").lie
    rng = random.Random(17)
    for _ in range(50):
        m1 = _random_mono(rng, 3, 4)
        m2 = _random_mono(rng, 3, 4)
        for m, _ in pbw_poly_mul(one(m1), one(m2), so3).items():
            assert sum(m) <= sum(m1) + sum(m2)


def test_pbw_word_expansion():
    assert pbw_word((2, 0, 1)) == (0, 0, 2)


def _u3_cubed_u1_cubed(lie):
    q = QuantumAlgebra(lie, trivial_rep(lie))
    u1, u3 = q.even_gen(0), q.even_gen(2)
    return u3 * u3 * u3 * (u1 * u1 * u1)


def test_a_freed_algebra_is_collected_after_pbw_products():
    """The PBW cache entries that a product leaves keep no `LieData` alive."""
    lie = builtin("so3").lie
    _u3_cubed_u1_cubed(lie)
    ref = weakref.ref(lie)
    del lie
    gc.collect()
    assert ref() is None


def test_an_equal_algebra_reuses_the_pbw_cache_entries():
    """A second so3 with the same structure constants misses no entry that
    the first filled."""
    first = _u3_cubed_u1_cubed(builtin("so3").lie)
    misses = kernels._pbw_left.cache_info().misses, pbw_mono_mul.cache_info().misses
    second = _u3_cubed_u1_cubed(builtin("so3").lie)
    assert (kernels._pbw_left.cache_info().misses, pbw_mono_mul.cache_info().misses) == misses
    assert second.terms == first.terms


def test_kernel_caches_are_bounded():
    """The module-level product caches have a finite maxsize."""
    for cache, bound in ((cliff_mono_mul, 1 << 16), (kernels._pbw_left, 1 << 16),
                         (pbw_mono_mul, 1 << 14)):
        info = cache.cache_info()
        assert info.maxsize == bound and info.currsize <= bound
