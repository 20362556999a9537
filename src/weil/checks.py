"""Batch verification of the operator identities, classical and quantum.

Each suite checks its identities on every generator and on a pool of
seeded random elements, exactly over the rationals.  Results come back
as (name, passed, detail) records; nothing raises on failure, so a CLI
or test can report all of them.

Each case of an identity row is one accumulator: both sides, the right
one negated, are summed in integers per result key, and the case holds
when the sum vanishes.  Each key's sum is kept over one common
denominator, so that test is exact.  The operator rows are linear in the
element, and a pool repeats its term keys, so each row is composed once
per term key (`_composite_rows`): the key's images under the row's
operators, with the End V letters each applied, summed per result key
into one End V map.  A term of an element applies its key's maps to its
End V part; none of d x, L_a x and iota_a x is built.

The restriction check uses an independently written differential on the
scalar Weil algebra (no endomorphism factor), built as a sum of partial
derivatives rather than by Leibniz insertion, so the two
implementations genuinely cross-check each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .classical import ClassicalAlgebra, ClassicalElement
from .element import accumulate, add_into, products_into, supercommutator, vanishes
from .kernels import _bump, add_term, ext_mono_mul, sym_mono_mul
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


_SCALARS = [[Fraction(num, den) for den in range(1, 4)] for num in range(-3, 4)]


def random_scalar(rng) -> Fraction:
    """rng.randint(-3, 3) / rng.randint(1, 3): each randint(a, b) here is
    drawn as a + randrange(b - a + 1), the same stream one call frame less."""
    return _SCALARS[rng.randrange(7)][rng.randrange(3)]


def random_matrix(rng, d) -> Matrix:
    """d x d entries `random_scalar`, row by row, canonical: over the lcm
    of their lowest-terms denominators, which leaves no common factor."""
    qs = [random_scalar(rng) for _ in range(d * d)]
    den = lcm(*{q.denominator for q in qs})
    return Matrix._make(d, d, tuple([q.numerator * (den // q.denominator) for q in qs]), den)


def _random_split(rng, n, total):
    mono = [0] * n
    for _ in range(total):
        mono[rng.randrange(n)] += 1
    return tuple(mono)


def _random_key(rng, n, max_degree):
    """A random (even monomial, odd monomial) pair of degree <= max_degree."""
    deg = rng.randrange(max_degree + 1)
    odd_len = rng.randrange(min(deg, n) + 1)
    odd = tuple(sorted(rng.sample(range(n), odd_len)))
    return _random_split(rng, n, (deg - odd_len) // 2), odd


def random_element(alg, rng, max_degree=4, max_terms=3):
    """A random element of the `WeilAlgebra` `alg`."""
    terms = {}
    for _ in range(1 + rng.randrange(max_terms)):
        key = _random_key(rng, alg.lie.dim, max_degree)
        mat = random_matrix(rng, alg.rep.dim)
        if mat:
            add_term(terms, key, mat)
    return alg.element(terms)


def random_sym_poly(lie, rng, max_degree=4, max_terms=4):
    """A random scalar polynomial in the symmetric generators."""
    n = lie.dim
    poly = {}
    for _ in range(1 + rng.randrange(max_terms)):
        mono = _random_split(rng, n, rng.randrange(max_degree + 1))
        q = random_scalar(rng)
        if q:
            add_term(poly, mono, q)
    return poly


def random_scalar_weil_poly(lie, rng, max_degree=4, max_terms=3):
    """A random scalar polynomial with both symmetric and exterior parts."""
    poly = {}
    for _ in range(1 + rng.randrange(max_terms)):
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
    return _scalar_differential(_generator_images(lie), poly)


def _generator_images(lie):
    """Per a, the images (d y^a, d v^a) that `scalar_weil_differential`
    multiplies: v^a - (1/2) f^a_jk y^j y^k and -f^a_jk y^j v^k."""
    n = lie.dim
    unit = [tuple(int(i == a) for i in range(n)) for a in range(n)]
    images = [({(unit[a], ()): Fraction(1)}, {}) for a in range(n)]
    for a, (dy, dv) in enumerate(images):
        for j in range(n):
            for k in range(n):
                q = lie.f(j, k, a)
                if q:
                    sign, e = ext_mono_mul((j,), (k,))  # j != k, as f(j, j, a) = 0
                    add_term(dy, ((0,) * n, e), -q * sign / 2)
                    add_term(dv, (unit[k], (j,)), -q)
    return images


def _scalar_differential(images, poly):
    """`scalar_weil_differential` from its generator images."""
    out = {}
    for a, pair in enumerate(images):
        for image, partial in zip(pair, (_partial_ext, _partial_sym)):
            for m, c in _scalar_poly_mul(image, partial(poly, a)).items():
                add_term(out, m, c)
    return out


def embed_scalar_poly(lie, rep, poly):
    ident = Matrix.identity(rep.dim)
    return ClassicalElement(lie, rep, {m: ident * q for m, q in poly.items()})


# -- the operator identities, in either algebra ----------------------------------


def _composite_rows(alg, curv):
    """The identity rows composed per term key, as a function `entry(key,
    scalar)` that composes each (key, scalar) once and keeps it.

    Rows are indexed cartan_a = a, ld_a = n + a, liota_ab = 2n + an + b and
    dd = 2n + n^2, each case one side minus the other.  An entry lists, per
    row that does not vanish on key A, its parts (key', cells, den): the
    row sends key A to the sum of key' (cells on A's numerators) / den.
    A row is composed as (key', word) -> coefficient, a word being the End
    V letters its operators applied, and each key's words are summed into
    one map; [C, -] adds each curvature term's `bracket_sides`, as letter
    M A or A M or as c for M = c I.  With `scalar` the maps read A = c I
    off its cell 0, for the terms whose End V part is c I; then a word that
    starts with a commutator [tau_t, I] = 0 is dropped before the second
    operator.  For correct operators every entry is empty."""
    n, dim = alg.lie.dim, alg.rep.dim
    image, brackets, d = alg.image_table, alg.lie.pair_brackets(), 2 * n
    # letter (m, l, r): the cells of A -> l M A + r A M over M.den, for tau_t's
    # bracket (t, 1, s) and each side of a curvature part M that is not c I
    letters = {(t, 1, s): (cells[s], tau.den)
               for t, (tau, cells) in enumerate(zip(alg.rep.matrices, alg.bracket_cells))
               for s in (1, -1)}
    curv_terms = []
    for kc, mat in curv.terms.items():
        c, m = mat._scalar(), n + len(curv_terms)
        curv_terms.append((kc, c, mat.den, m))
        for l, r in ((1, 0), (0, 1)) if c is None else ():
            letters[m, l, r] = mat._cells(l, r), mat.den
    # the empty word: the identity, or A -> A[0, 0] I, which agrees with it on c I
    maps = {((), False): (tuple((o, o, 1) for o in range(dim * dim)), 1),
            ((), True): (tuple((o * (dim + 1), 0, 1) for o in range(dim)), 1)}
    table = {}

    def word_map(word, scalar):
        """The empty word's map, then the word's letters left to right, as
        (cells, den)."""
        if (word, scalar) not in maps:
            inner, den = word_map(word[:-1], scalar)
            last, lden = letters[word[-1]]
            into = {}
            for o, c, v in inner:
                into.setdefault(o, []).append((c, v))
            cells = {}
            for o, c, v in last:
                for c1, v1 in into.get(c, ()):
                    cells[o, c1] = cells.get((o, c1), 0) + v * v1
            maps[word, scalar] = (tuple((o, c, v) for (o, c), v in cells.items() if v),
                                  den * lden)
        return maps[word, scalar]

    def compose(key, scalar):
        def walk(state, routes):  # acc += sign (operator i on state) per route (i, acc, sign)
            for (k0, word), ((p,), r) in state.items():
                if not p:
                    continue
                for i, acc, sign in routes:
                    plain, endo = image(i, k0)
                    for k, q, u in plain:
                        accumulate(acc, (k, word), (p * q,), r * u, sign)
                    for k, t, s, q, u in endo:
                        if scalar and not word and s == -1:
                            continue  # [tau_t, I] = 0
                        accumulate(acc, (k, word + ((t, 1, s),)), (p * q,), r * u, sign)

        def routes(first, accs):  # operator first + a into accs[a]
            return [(first + a, acc, 1) for a, acc in enumerate(accs)]

        dk, lk, ik = {}, [{} for _ in range(n)], [{} for _ in range(n)]
        walk({(key, ()): ((1,), 1)}, [(d, dk, 1), *routes(0, lk), *routes(n, ik)])
        rows = [{} for _ in range((n + 1) ** 2)]
        walk(dk, [*routes(n, rows[:n]), *routes(0, rows[n:2 * n]), (d, rows[-1], 1)])
        for kc, c, den, m in curv_terms:  # - [kc M, key A]
            for side, k, p, r in alg.bracket_sides(kc, key):
                if c is None:
                    accumulate(rows[-1], (k, ((m, 1 - side, side),)), (p,), r, -1)
                else:
                    accumulate(rows[-1], (k, ()), (c * p,), den * r, -1)
        for b in range(n):
            add_into(rows[b], lk[b], -1)
            walk(lk[b], ((d, rows[n + b], -1),))
            li = [rows[2 * n + a * n + b] for a in range(n)]
            walk(ik[b], [(d, rows[b], 1), *routes(0, li)])
            for a in range(n):
                walk(lk[a], ((n + b, li[a], -1),))
                for c, q in brackets.get((a, b), ()):
                    add_into(li[a], ik[c], -q.numerator, q.denominator)
        entry = []
        for index, row in enumerate(rows):
            by_key = {}
            for (k, word), ((p,), r) in row.items():
                if p:
                    by_key.setdefault(k, []).append((word_map(word, scalar), p, r))
            parts = []
            for k, terms in by_key.items():
                den = lcm(*[r * wden for (_, wden), _, r in terms])
                sums = {}
                for (cells, wden), p, r in terms:
                    f = p * (den // (r * wden))
                    for o, c, v in cells:
                        sums[o, c] = sums.get((o, c), 0) + f * v
                cells = tuple((o, c, v) for (o, c), v in sums.items() if v)
                if cells:
                    parts.append((k, cells, den))
            if parts:
                entry.append((index, parts))
        return entry

    def entry(key, scalar):
        if (key, scalar) not in table:
            table[key, scalar] = compose(key, scalar)
        return table[key, scalar]

    return entry


def _operator_identities(alg, rng, seed, samples, max_degree, curv, names):
    """Cartan, [L_a,d], [L_a,iota_b], d.d and Bianchi over the generators and
    `samples` random elements of the `WeilAlgebra` `alg`, drawn from `rng`
    (seeded with `seed`) one at a time.  Each element's terms apply their
    keys' composite entries (`_composite_rows`) to their End V parts.
    `names` = (curvature name, structure-constant name) as the rows print
    them.  A failure names its witness: the seed, the element's index and
    its rendering, which `weil eval` reads back as X in the identity."""
    cname, fname = names
    n = alg.lie.dim
    entry = _composite_rows(alg, curv)

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
        rows = [{} for _ in range((n + 1) ** 2)]
        for key, mat in x.terms.items():
            num = mat.num
            for index, parts in entry(key, mat._scalar() is not None):
                for k, cells, den in parts:
                    out = [0] * len(num)
                    for o, c, v in cells:
                        out[o] += v * num[c]
                    accumulate(rows[index], k, out, den * mat.den)
        bad = [not vanishes(acc) for acc in rows]
        for a in range(n):
            for found, failed in ((cartan, bad[a]), (ld, bad[n + a])):
                if failed:
                    found.append(witness(i, x, f", a={a + 1}"))
            liota += [witness(i, x, f", a={a + 1}, b={b + 1}")
                      for b in range(n) if bad[2 * n + a * n + b]]
        if bad[-1]:
            ddc.append(witness(i, x))
    total = 1 + 3 * n + samples
    return [
        _result("cartan formula [iota_a,d] = L_a", cartan, total),
        _result("[L_a,d] = 0", ld, total),
        _result(f"[L_a,iota_b] = {fname} iota_c", liota, total),
        _result(f"d.d = [{cname},-]", ddc, total),
        _result(f"bianchi d({cname}) = 0",
                [] if alg.differential(curv).is_zero else [f"d({cname}) != 0"]),
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

    images = _generator_images(lie)
    restrict, ddzero = [], []
    for i in range(samples):
        poly = random_scalar_weil_poly(lie, rng, max_degree)
        if not poly:
            continue
        d_elem, dd = {}, {}  # d elem, then d elem - the reference; d(d elem)
        alg.walk(2 * lie.dim, embed_scalar_poly(lie, rep, poly), d_elem, 1)
        alg.walk(2 * lie.dim, d_elem, dd, 1)
        add_into(d_elem, embed_scalar_poly(lie, rep, _scalar_differential(images, poly)), -1)
        if not vanishes(d_elem):
            restrict.append(f"poly {i}")
        if not vanishes(dd):
            ddzero.append(f"poly {i}")
    results.append(_result("restriction: d matches the scalar differential", restrict, samples))
    results.append(_result("restriction: d.d = 0 on identity-part elements", ddzero, samples))

    lemma = []
    for i in range(samples):
        poly = random_sym_poly(lie, rng, max_degree)
        f = embed_scalar_poly(lie, rep, {(m, ()): q for m, q in poly.items()})
        lf = [{} for _ in range(lie.dim)]  # L_a f
        for a, acc in enumerate(lf):
            alg.walk(a, f, acc, 1)
        acc = {}  # v^a L_a f: v^a only raises the v exponent of a key
        for a, terms in enumerate(lf):
            for (s, e), (num, den) in terms.items():
                accumulate(acc, (_bump(s, a, 1), e), num, den)
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
        alg.walk(2 * lie.dim, ident_part, acc, 1)
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
