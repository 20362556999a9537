"""Batch verification of the operator identities, classical and quantum.

Each suite checks its identities on every generator and on a pool of
seeded random elements, exactly over the rationals.  Results come back
as (name, passed, detail) records; nothing raises on failure, so a CLI
or test can report all of them.

Each case of an identity row is one accumulator: both sides, the right
one negated, are summed in integers per result key (`apply_into`,
`products_into`, `add_into`), and the case holds when the sum vanishes.
Each key's sum is kept over one common denominator, so that test is
exact.  Only d x, L_a x and iota_a x, which feed further operators, are
built as elements.

The restriction check uses an independently written differential on the
scalar Weil algebra (no endomorphism factor), built as a sum of partial
derivatives rather than by Leibniz insertion, so the two
implementations genuinely cross-check each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .classical import ClassicalAlgebra, ClassicalElement
from .element import add_into, products_into, supercommutator, vanishes
from .kernels import add_term, ext_mono_mul, sym_mono_mul
from .lie import trivial_rep
from .linalg import Matrix
from .quantum import QuantumAlgebra, gamma_square_formula
from .render import render


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name, failures, total=None):
    if not failures:
        extra = f" ({total} cases)" if total else ""
        return CheckResult(name, True, "exact" + extra)
    return CheckResult(name, False, "; ".join(failures[:3]))


# -- random elements ---------------------------------------------------------


def random_scalar(rng) -> Fraction:
    num = rng.randint(-3, 3)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def random_matrix(rng, d) -> Matrix:
    return Matrix(d, d, [random_scalar(rng) for _ in range(d * d)])


def _random_split(rng, n, total):
    mono = [0] * n
    for _ in range(total):
        mono[rng.randrange(n)] += 1
    return tuple(mono)


def _random_key(rng, n, max_degree):
    """A random (even monomial, odd monomial) pair of degree <= max_degree."""
    deg = rng.randint(0, max_degree)
    odd_len = rng.randint(0, min(deg, n))
    odd = tuple(sorted(rng.sample(range(n), odd_len)))
    return _random_split(rng, n, (deg - odd_len) // 2), odd


def random_element(alg, rng, max_degree=4, max_terms=3):
    """A random element of the `WeilAlgebra` `alg`."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = _random_key(rng, alg.lie.dim, max_degree)
        mat = random_matrix(rng, alg.rep.dim)
        if mat:
            add_term(terms, key, mat)
    return alg.element(terms)


def random_sym_poly(lie, rng, max_degree=4, max_terms=4):
    """A random scalar polynomial in the symmetric generators."""
    n = lie.dim
    poly = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = _random_split(rng, n, rng.randint(0, max_degree))
        q = random_scalar(rng)
        if q:
            add_term(poly, mono, q)
    return poly


def random_scalar_weil_poly(lie, rng, max_degree=4, max_terms=3):
    """A random scalar polynomial with both symmetric and exterior parts."""
    poly = {}
    for _ in range(rng.randint(1, max_terms)):
        key = _random_key(rng, lie.dim, max_degree)
        q = random_scalar(rng)
        if q:
            add_term(poly, key, q)
    return poly


# -- independent scalar Weil differential -------------------------------------


def _partial_sym(poly, a):
    """d/dv^a on a scalar (sym, ext) polynomial."""
    out = {}
    for (s, e), q in poly.items():
        if s[a]:
            s2 = list(s)
            s2[a] -= 1
            add_term(out, (tuple(s2), e), q * s[a])
    return out


def _partial_ext(poly, a):
    """Odd d/dy^a with the left-to-right sign convention."""
    out = {}
    for (s, e), q in poly.items():
        for j, idx in enumerate(e):
            if idx == a:
                add_term(out, (s, e[:j] + e[j + 1:]), q if j % 2 == 0 else -q)
                break
    return out


def _scalar_poly_mul(a, b):
    out = {}
    for (s1, e1), q1 in a.items():
        for (s2, e2), q2 in b.items():
            r = ext_mono_mul(e1, e2)
            if r is None:
                continue
            sign, e = r
            add_term(out, (sym_mono_mul(s1, s2), e), q1 * q2 * sign)
    return out


def scalar_weil_differential(lie, poly):
    """Reference differential on the scalar Weil algebra.

    Written as sum_a (image of generator) * (partial derivative); the
    generator images are even, so no Koszul correction is needed when
    they multiply from the left.  The images come from dense `lie.f`
    scans, not `lie.pair_brackets()`, so the check is independent of
    the table `classical.differential` reads.
    """
    n = lie.dim
    zero_s = (0,) * n
    out = {}
    for a in range(n):
        dee = _partial_ext(poly, a)
        if dee:
            image = {((tuple(int(i == a) for i in range(n))), ()): Fraction(1)}
            for j in range(n):
                for k in range(n):
                    q = lie.f(j, k, a)
                    if not q:
                        continue
                    sign, e = ext_mono_mul((j,), (k,))  # j != k, as f(j, j, a) = 0
                    add_term(image, (zero_s, e), -q * sign / 2)
            for m, c in _scalar_poly_mul(image, dee).items():
                add_term(out, m, c)
        dsym = _partial_sym(poly, a)
        if dsym:
            image = {}
            for j in range(n):
                for k in range(n):
                    q = lie.f(j, k, a)
                    if q:
                        add_term(image, ((tuple(int(i == k) for i in range(n))), (j,)), -q)
            for m, c in _scalar_poly_mul(image, dsym).items():
                add_term(out, m, c)
    return out


def embed_scalar_poly(lie, rep, poly):
    ident = Matrix.identity(rep.dim)
    return ClassicalElement(lie, rep, {m: ident * q for m, q in poly.items()})


# -- the operator identities, in either algebra ----------------------------------


def _operator_identities(alg, rng, seed, samples, max_degree, curv, names):
    """Cartan, [L_a,d], [L_a,iota_b], d.d and Bianchi over the generators and
    `samples` random elements of the `WeilAlgebra` `alg`, drawn from `rng`
    (seeded with `seed`) one at a time.
    `names` = (curvature name, structure-constant name) as the rows print
    them.  A failure names its witness: the seed, the element's index and
    its rendering, which `weil eval` reads back as X in the identity."""
    cname, fname = names
    n = alg.lie.dim
    brackets = alg.lie.pair_brackets()
    d, lie_derivative, contraction = alg.differential, alg.lie_derivative, alg.contraction
    apply_into = alg.apply_into

    def pool():
        yield alg.unit()
        for make in (alg.even_gen, alg.odd_gen, alg.tau):
            for a in range(n):
                yield make(a)
        for _ in range(samples):
            yield random_element(alg, rng, max_degree)

    def witness(i, x, indices=""):
        return f"element {i} (seed {seed}){indices}: X = {render(x)}"

    cartan, ld, liota, ddc = [], [], [], []
    for i, x in enumerate(pool()):
        dx = d(x)
        lx = [lie_derivative(a, x) for a in range(n)]
        ix = [contraction(a, x) for a in range(n)]
        for a in range(n):
            acc = {}  # iota_a(d x) + d(iota_a x) - L_a x
            apply_into(acc, n + a, dx, 1)
            apply_into(acc, 2 * n, ix[a], 1)
            add_into(acc, lx[a], -1)
            if not vanishes(acc):
                cartan.append(witness(i, x, f", a={a + 1}"))
            acc = {}  # L_a(d x) - d(L_a x)
            apply_into(acc, a, dx, 1)
            apply_into(acc, 2 * n, lx[a], -1)
            if not vanishes(acc):
                ld.append(witness(i, x, f", a={a + 1}"))
            for b in range(n):
                acc = {}  # L_a(iota_b x) - iota_b(L_a x) - f^c_ab iota_c x
                apply_into(acc, a, ix[b], 1)
                apply_into(acc, n + b, lx[a], -1)
                for c, q in brackets.get((a, b), ()):
                    add_into(acc, ix[c], -q.numerator, q.denominator)
                if not vanishes(acc):
                    liota.append(witness(i, x, f", a={a + 1}, b={b + 1}"))
        acc = {}  # d(d x) - [curv, x]
        apply_into(acc, 2 * n, dx, 1)
        products_into(acc, curv, x, True, -1)
        if not vanishes(acc):
            ddc.append(witness(i, x))
    total = 1 + 3 * n + samples
    return [
        _result("cartan formula [iota_a,d] = L_a", cartan, total),
        _result("[L_a,d] = 0", ld, total),
        _result(f"[L_a,iota_b] = {fname} iota_c", liota, total),
        _result(f"d.d = [{cname},-]", ddc, total),
        _result(f"bianchi d({cname}) = 0",
                [] if d(curv).is_zero else [f"d({cname}) != 0"]),
    ]


# -- classical suite -----------------------------------------------------------


def classical_suite(lie, rep, samples=50, seed=0, max_degree=4):
    """Run every classical identity; returns a list of CheckResult."""
    return _classical_rows(ClassicalAlgebra(lie, rep), samples, seed, max_degree)


def _classical_rows(alg, samples, seed, max_degree):
    """The classical rows on the `ClassicalAlgebra` value `alg`."""
    lie, rep = alg.lie, alg.rep
    rng = random.Random(seed)
    results = _operator_identities(alg, rng, seed, samples, max_degree, alg.curvature,
                                   ("C", "f^c_ab"))

    restrict, ddzero = [], []
    for i in range(samples):
        poly = random_scalar_weil_poly(lie, rng, max_degree)
        if not poly:
            continue
        elem = embed_scalar_poly(lie, rep, poly)
        d_elem = alg.differential(elem)
        if d_elem != embed_scalar_poly(lie, rep, scalar_weil_differential(lie, poly)):
            restrict.append(f"poly {i}")
        acc = {}  # d(d elem)
        alg.apply_into(acc, 2 * lie.dim, d_elem, 1)
        if not vanishes(acc):
            ddzero.append(f"poly {i}")
    results.append(_result("restriction: d matches the scalar differential", restrict, samples))
    results.append(_result("restriction: d.d = 0 on identity-part elements", ddzero, samples))

    lemma = []
    for i in range(samples):
        poly = random_sym_poly(lie, rng, max_degree)
        f = embed_scalar_poly(lie, rep, {(m, ()): q for m, q in poly.items()})
        acc = {}  # v^a L_a f
        for a in range(lie.dim):
            products_into(acc, alg.even_gen(a), alg.lie_derivative(a, f), False, 1)
        if not vanishes(acc):
            lemma.append(f"poly {i}")
    results.append(_result("v^a L_a annihilates symmetric polynomials", lemma, samples))
    return results


# -- quantum suite ---------------------------------------------------------------


def quantum_structure_suite(lie):
    """Structural lemmas in the representation-free quantum algebra."""
    alg = QuantumAlgebra(lie, trivial_rep(lie))
    n, x = lie.dim, alg.odd_gen
    results = []

    bad = []
    for a in range(n):
        for b in range(n):
            lhs = supercommutator(x(a), alg.g[b])
            rhs = alg.zero()
            for c in range(n):  # dense: independent of lie.pair_brackets()
                q = -lie.f(a, c, b)  # -f_bac, with f_bac = f^b_ac
                if q:
                    rhs = rhs + x(c) * q
            if lhs != rhs:
                bad.append(f"a={a + 1}, b={b + 1}")
    results.append(_result("[x_a,g_b] = -f_bac x_c", bad))

    bad = [f"a={a + 1}" for a in range(n) if supercommutator(x(a), alg.gamma) != alg.g[a]]
    results.append(_result("[x_a,gamma] = g_a", bad))

    bad = [f"a={a + 1}" for a in range(n)
           if supercommutator(x(a), alg.dirac) != alg.even_gen(a) + alg.g[a]]
    results.append(_result("[x_a,D] = u_a + g_a", bad))

    bad = [f"a={a + 1}" for a in range(n)
           if not supercommutator(alg.even_gen(a) + alg.g[a], alg.dirac).is_zero]
    results.append(_result("[u_a+g_a,D] = 0", bad))

    cas = sum((alg.even_gen(a) * alg.even_gen(a) for a in range(n)), alg.zero())
    g2 = gamma_square_formula(lie)
    ok = alg.dirac * alg.dirac == cas * Fraction(1, 2) + alg.scalar(g2)
    results.append(_result("D^2 = (1/2) u_a u_a + gamma^2", [] if ok else ["mismatch"]))
    ok = alg.gamma * alg.gamma == alg.scalar(g2)
    results.append(_result("gamma^2 = -(1/48) f_abc f_abc", [] if ok else ["mismatch"]))
    ok = all(supercommutator(cas, gen(b)).is_zero
             for b in range(n) for gen in (alg.even_gen, alg.odd_gen))
    results.append(_result("u_a u_a is central", [] if ok else ["not central"]))
    return results


def identity_part(x):
    """x with each End V part A replaced by A[0, 0] I; A[0, 0] = 0 drops it."""
    ident = Matrix.identity(x.rep.dim)
    return type(x)(x.lie, x.rep, {m: ident * a[0, 0] for m, a in x.terms.items() if a[0, 0]})


def quantum_suite(lie, rep, samples=50, seed=0, max_degree=4):
    """Run the quantum operator identities; returns a list of CheckResult."""
    return _quantum_rows(QuantumAlgebra(lie, rep), samples, seed, max_degree)


def _quantum_rows(alg, samples, seed, max_degree):
    """The quantum rows on the `QuantumAlgebra` value `alg`."""
    lie, rep = alg.lie, alg.rep
    rng = random.Random(seed)
    results = list(quantum_structure_suite(lie))
    # the four-term element, not alg.curvature: that one raises on the
    # mismatch that the "QC four-term formula" row below reports
    curv = alg.four_term_curvature()
    results += _operator_identities(alg, rng, seed, samples, max_degree, curv,
                                    ("QC", "f_abc"))

    ok = curv == alg.dirac_tau * alg.dirac_tau
    results.append(_result("QC four-term formula = (D + x_a tau_a)^2",
                           [] if ok else ["mismatch"]))

    restrict = []
    for i in range(samples // 2 + 1):
        ident_part = identity_part(random_element(alg, rng, max_degree))
        acc = {}  # d(X) - d_W(X) - iota_a(X) tau_a, d_W = [D, -]
        alg.apply_into(acc, 2 * lie.dim, ident_part, 1)
        products_into(acc, alg.dirac, ident_part, True, -1)
        for a in range(lie.dim):
            products_into(acc, alg.contraction(a, ident_part), alg.tau(a), False, -1)
        if not vanishes(acc):
            restrict.append(f"element {i}")
    results.append(_result("restriction: d = d_W + iota_a tau_a", restrict))

    x1 = alg.odd_gen(0)
    differs = alg.differential(x1) != alg.weil_differential(x1)
    ok = differs == bool(rep.matrices[0])
    results.append(_result("restriction: d != d_W exactly when tau_1 is nonzero",
                           [] if ok else ["witness failed at x1"]))
    return results
