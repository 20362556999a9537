"""Batch verification of the operator identities, classical and quantum.

Each suite checks its identities on every generator and on a pool of
seeded random elements, exactly over the rationals.  Results come back
as (name, passed, detail) records; nothing raises on failure, so a CLI
or test can report all of them.

Every row is decided by one of three rules, each written once.  The
operator identities are one table (`_identity_rows`) with a row per
case: its printed name, its witness suffix and its two sides.  An exact
row (`_exact`) lists its cases as (witness, left, right) and fails each
witness whose sides differ: the structure lemmas, Bianchi, the four-term
formula and d != d_W.  A sampled row (`_sampled`) is linear in a c I
polynomial (the restriction rows, d.d = 0 and the lemma): it fails each
drawn polynomial whose sum of q image(K) over its terms q K does not
vanish, each key's image an element or accumulator built once per call.

A case of the table is one accumulator: both sides, the right one
negated, summed in integers per result key over one common denominator,
so that the case holds exactly when every numerator vanishes.  The rows
are linear in the element, and a pool repeats its term keys, so each row
is composed once per term key (`_composite_rows`): the key's images under
the row's operators and, for d.d, its bracket with the curvature
(`WeilAlgebra.bracket_terms`, the curvature prepared once per call by
`bracket_operand`), each a word of the value's End V letters, its
coefficient an integer pair summed by `add_ratio`, summed per result key
into one End V map.  A term of an element applies
its key's maps to its End V part; none of d x, L_a x and iota_a x is
built.

The classical reference image (`_reference`) is sum_a d(y^a) d/dy^a +
d(v^a) d/dv^a on K I, from generator images that dense `lie.f` scans
build and the value's product multiplies: it reads no table that
`ClassicalAlgebra.differential` reads, so the two cross-check each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm

from .classical import ClassicalAlgebra
from .element import add_into, add_ratio, collect, products_into, supercommutator, vanishes
from .kernels import _bump, add_term
from .linalg import Matrix, accumulate
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


def _exact(name, cases):
    """The row `name` over its `cases` (witness, left, right): it fails
    each witness whose two sides differ."""
    return _result(name, [witness for witness, left, right in cases if left != right])


def _sampled(rows, count, draw, witness, total):
    """The rows (name, image) over `count` polynomials from `draw()`: a row
    fails `witness` i when the sum of q image(key) over the terms q key of
    draw i does not vanish, each image an element or an accumulator."""
    found = [[] for _ in rows]
    for i in range(count):
        poly = draw()
        for bad, (_, image) in zip(found, rows):
            acc = {}
            for key, q in poly.items():
                add_into(acc, image(key), q.numerator, q.denominator)
            if not vanishes(acc):
                bad.append(f"{witness} {i}")
    return [_result(name, bad, total) for (name, _), bad in zip(rows, found)]


# -- random elements ---------------------------------------------------------


# the top degree of the suites' random elements and polynomials
MAX_DEGREE = 4

_SCALARS = [[Fraction(num, den) for den in range(1, 4)] for num in range(-3, 4)]
_PAIRS = [[(q.numerator, q.denominator) for q in row] for row in _SCALARS]


def _below(bits, n):
    """rng.randrange(n) for n > 0, drawn from bits = rng.getrandbits by
    randrange's own rule: n.bit_length() bits, redrawn while the value is
    >= n, so the stream and the generator's state are the same."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_scalar(rng) -> Fraction:
    """rng.randint(-3, 3) / rng.randint(1, 3): each randint(a, b) here is
    drawn as a + randrange(b - a + 1) (`_below`), the same stream."""
    bits = rng.getrandbits
    return _SCALARS[_below(bits, 7)][_below(bits, 3)]


def random_matrix(rng, d) -> Matrix:
    """d x d entries drawn as `random_scalar` draws them, row by row, each a
    lowest-terms (num, den) pair, canonical: over the lcm of their
    denominators, which leaves no common factor."""
    bits = rng.getrandbits
    pairs = [_PAIRS[_below(bits, 7)][_below(bits, 3)] for _ in range(d * d)]
    den = lcm(*{r for _, r in pairs})
    return Matrix._make(d, d, tuple([p * (den // r) for p, r in pairs]), den)


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


def _random_sum(rng, max_terms, key, value):
    """1 to max_terms draws, each key() then value(), the nonzero values
    summed per key."""
    terms = {}
    for _ in range(1 + rng.randrange(max_terms)):
        k, v = key(), value()
        if v:
            add_term(terms, k, v)
    return terms


def random_element(alg, rng, max_degree=MAX_DEGREE, max_terms=3):
    """A random element of the `WeilAlgebra` `alg`."""
    return alg.element(_random_sum(rng, max_terms,
                                   lambda: _random_key(rng, alg.lie.dim, max_degree),
                                   lambda: random_matrix(rng, alg.rep.dim)))


def random_sym_poly(lie, rng, max_degree=MAX_DEGREE, max_terms=4):
    """A random scalar polynomial in the symmetric generators."""
    return _random_sum(rng, max_terms,
                       lambda: _random_split(rng, lie.dim, rng.randrange(max_degree + 1)),
                       lambda: random_scalar(rng))


def random_scalar_weil_poly(lie, rng, max_degree=MAX_DEGREE, max_terms=3):
    """A random scalar polynomial with both symmetric and exterior parts."""
    return _random_sum(rng, max_terms, lambda: _random_key(rng, lie.dim, max_degree),
                       lambda: random_scalar(rng))


# -- independent scalar Weil differential -------------------------------------


def _partial(key, a, odd):
    """d/dy^a (odd, from the left) or d/dv^a on the monomial `key`, as
    (key', integer coefficient), or None when it is zero."""
    s, e = key
    if not odd:
        return ((_bump(s, a, -1), e), s[a]) if s[a] else None
    if a not in e:
        return None
    j = e.index(a)
    return (s, e[:j] + e[j + 1:]), -1 if j & 1 else 1


def _reference(alg):
    """key -> the reference differential of key I on the `ClassicalAlgebra`
    value `alg`: sum_a d(y^a) d/dy^a + d(v^a) d/dv^a, with d y^a = v^a -
    (1/2) f^a_jk y^j y^k and d v^a = -f^a_jk y^j v^k built as elements from
    dense `lie.f` scans and multiplied by the value's own product.  A sum of
    partial derivatives, reading neither `pair_brackets()` nor the
    derivations, it cross-checks the Leibniz rule of `alg.differential`."""
    lie, y, v = alg.lie, alg.odd_gen, alg.even_gen
    n, ident = lie.dim, Matrix.identity(alg.rep.dim)
    dy, dv = [v(a) for a in range(n)], [alg.zero() for _ in range(n)]
    for a in range(n):
        for j in range(n):
            for k in range(n):
                if q := lie.f(j, k, a):
                    dy[a] = dy[a] - y(j) * y(k) * (q / 2)
                    dv[a] = dv[a] - y(j) * v(k) * q

    def image(key):
        acc = {}
        for odd, images in ((True, dy), (False, dv)):
            for a, gen_image in enumerate(images):
                if part := _partial(key, a, odd):
                    products_into(acc, gen_image, alg.element({part[0]: ident}), False, part[1])
        return alg.element(collect(acc, alg.rep.dim))

    return image


# -- the operator identities, in either algebra ----------------------------------


def _identity_rows(n, brackets, names):
    """The operator identities as rows (printed name, witness suffix, pairs,
    singles), one per case, each one side minus the other.  A pair (P, Q,
    sign) is sign P.Q and a single (R, p, r) is (p / r) R, the operators
    indexed L_a = a, iota_a = n + a, d = 2n and [C, -] = 2n + 1.  `brackets`
    is `lie.pair_brackets()`; `names` = (curvature name, structure-constant
    name) as the rows print them."""
    cname, fname = names
    d = 2 * n
    return [*[("cartan formula [iota_a,d] = L_a", f", a={a + 1}",
               ((n + a, d, 1), (d, n + a, 1)), ((a, -1, 1),)) for a in range(n)],
            *[("[L_a,d] = 0", f", a={a + 1}", ((a, d, 1), (d, a, -1)), ()) for a in range(n)],
            *[(f"[L_a,iota_b] = {fname} iota_c", f", a={a + 1}, b={b + 1}",
               ((a, n + b, 1), (n + b, a, -1)),
               tuple((n + c, -q.numerator, q.denominator) for c, q in brackets.get((a, b), ())))
              for a in range(n) for b in range(n)],
            (f"d.d = [{cname},-]", "", ((d, d, 1),), ((d + 1, -1, 1),))]


def _composite_rows(alg, curv, rows):
    """The `_identity_rows` `rows` composed per term key, as a function
    `entry(key, scalar)` that composes each (key, scalar) once and keeps it.

    An entry lists, per row that does not vanish on key A, its index in
    `rows` and its parts (key', cells, den): the row sends key A to the sum
    of key' (cells on A's numerators) / den.  A row is composed as (key',
    word) -> coefficient (p, r), p / r summed by `add_ratio`, a word being
    the letters (`WeilAlgebra.letters`) its operators applied: first key
    A's image under each operator and its bracket with `curv`
    (`WeilAlgebra.bracket_terms`, `curv` prepared once per call), then per
    pair the outer operator on the inner one's image, plus the singles;
    each key's words are summed into one map.  With `scalar` the maps read A = c I off
    its cell 0, for the terms whose End V part is c I; then a word whose
    first letter is a commutator [M, I] = 0 is dropped.  For correct
    operators every entry is empty."""
    n, dim, letters, image = alg.lie.dim, alg.rep.dim, alg.letters, alg.image_table
    curv = alg.bracket_operand(curv)
    # the empty word: the identity, or A -> A[0, 0] I, which agrees with it on c I
    maps = {((), False): (tuple((o, o, 1) for o in range(dim * dim)), 1),
            ((), True): (tuple((o * (dim + 1), 0, 1) for o in range(dim)), 1)}

    def word_map(word, scalar):
        """The empty word's map, then the word's letters left to right, as
        (cells, den)."""
        if (word, scalar) not in maps:
            inner, den = word_map(word[:-1], scalar)
            mat, _, last = letters[word[-1]]
            into = {}
            for o, c, v in inner:
                into.setdefault(o, []).append((c, v))
            cells = {}
            for o, c, v in last:
                for c1, v1 in into.get(c, ()):
                    cells[o, c1] = cells.get((o, c1), 0) + v * v1
            maps[word, scalar] = (tuple((o, c, v) for (o, c), v in cells.items() if v),
                                  den * mat.den)
        return maps[word, scalar]

    def compose(key, scalar):
        def add(acc, terms, word, p, r):  # acc += (p / r) terms after word
            for k, t, q, u in terms:
                if t is None:
                    add_ratio(acc, (k, word), p * q, r * u)
                elif not (scalar and not word and letters[t][1] == -1):  # else [M, I] = 0
                    add_ratio(acc, (k, word + (t,)), p * q, r * u)

        first = [{} for _ in range(2 * n + 2)]
        for i, acc in enumerate(first):
            add(acc, image(i, key) if i <= 2 * n else alg.bracket_terms(curv, key), (), 1, 1)
        entry = []
        for index, (_, _, pairs, singles) in enumerate(rows):
            row = {}
            for outer, inner, sign in pairs:
                for (k0, word), (p, r) in first[inner].items():
                    if p:
                        add(row, image(outer, k0), word, sign * p, r)
            for i, p, r in singles:
                for kw, (q, u) in first[i].items():
                    add_ratio(row, kw, p * q, r * u)
            by_key = {}
            for (k, word), (p, r) in row.items():
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

    return cache(compose)


def _operator_identities(alg, rng, seed, samples, curv, names):
    """The `_identity_rows`, one result per printed name, and Bianchi over
    the generators and `samples` random elements of the `WeilAlgebra`
    `alg`, drawn from `rng` (seeded with `seed`) one at a time.  Each
    element's terms apply their keys' composite entries (`_composite_rows`)
    to their End V parts.  A failure names its witness: the seed, the
    element's index, the row's suffix and its rendering, which `weil eval`
    reads back as X in the identity."""
    n = alg.lie.dim
    rows = _identity_rows(n, alg.lie.pair_brackets(), names)
    entry = _composite_rows(alg, curv, rows)

    def pool():
        yield alg.unit()
        for make in (alg.even_gen, alg.odd_gen, alg.tau):
            for a in range(n):
                yield make(a)
        for _ in range(samples):
            yield random_element(alg, rng)

    found = {name: [] for name, *_ in rows}
    for i, x in enumerate(pool()):
        sums = [{} for _ in rows]
        for key, mat in x.terms.items():
            num = mat.num
            for index, parts in entry(key, mat._scalar() is not None):
                for k, cells, den in parts:
                    out = [0] * len(num)
                    for o, c, v in cells:
                        out[o] += v * num[c]
                    accumulate(sums[index], k, out, den * mat.den)
        for (name, suffix, _, _), acc in zip(rows, sums):
            if not vanishes(acc):
                found[name].append(f"element {i} (seed {seed}){suffix}: X = {render(x)}")
    total, cname = 1 + 3 * n + samples, names[0]
    return [*(_result(name, bad, total) for name, bad in found.items()),
            _exact(f"bianchi d({cname}) = 0",
                   [(f"d({cname}) != 0", alg.differential(curv), alg.zero())])]


# -- classical suite -----------------------------------------------------------


def classical_suite(lie, rep, samples=50, seed=0):
    """Run every classical identity; returns a list of CheckResult."""
    return _classical_rows(ClassicalAlgebra(lie, rep), samples, seed)


def _classical_rows(alg, samples, seed):
    """The classical rows on the `ClassicalAlgebra` value `alg`.  The two
    restriction rows and the lemma row check only sampled polynomials, so
    with no samples they are left out."""
    lie, rep = alg.lie, alg.rep
    rng = random.Random(seed)
    results = _operator_identities(alg, rng, seed, samples, alg.curvature, ("C", "f^c_ab"))
    if not samples:
        return results
    ident, reference = Matrix.identity(rep.dim), _reference(alg)
    d_image = cache(lambda key: alg.differential(alg.element({key: ident})))
    dd_image = cache(lambda key: alg.differential(d_image(key)))
    restrict_image = cache(lambda key: d_image(key) - reference(key))

    @cache
    def lemma_image(mono):  # v^a L_a (mono I)
        one = alg.element({(mono, ()): ident})
        return sum((alg.even_gen(a) * alg.lie_derivative(a, one) for a in range(lie.dim)),
                   alg.zero())

    return [*results,
            *_sampled([("restriction: d matches the scalar differential", restrict_image),
                       ("restriction: d.d = 0 on identity-part elements", dd_image)],
                      samples, lambda: random_scalar_weil_poly(lie, rng), "poly", samples),
            *_sampled([("v^a L_a annihilates symmetric polynomials", lemma_image)],
                      samples, lambda: random_sym_poly(lie, rng), "poly", samples)]


# -- quantum suite ---------------------------------------------------------------


def quantum_structure_suite(alg):
    """Structural lemmas on the distinguished elements of the
    `QuantumAlgebra` value `alg`, the g_a, gamma and D its operators use;
    each has End V part I, so the lemmas do not depend on the representation."""
    lie, zero = alg.lie, alg.zero()
    n, x, u, g = lie.dim, alg.odd_gen, alg.even_gen, alg.g
    cas = sum((u(a) * u(a) for a in range(n)), zero)
    g2 = alg.scalar(gamma_square_formula(lie))
    return [
        # f_bac = f^b_ac read densely: independent of lie.pair_brackets()
        _exact("[x_a,g_b] = -f_bac x_c",
               ((f"a={a + 1}, b={b + 1}", supercommutator(x(a), g[b]),
                 sum((x(c) * -lie.f(a, c, b) for c in range(n) if lie.f(a, c, b)), zero))
                for a in range(n) for b in range(n))),
        _exact("[x_a,gamma] = g_a",
               ((f"a={a + 1}", supercommutator(x(a), alg.gamma), g[a]) for a in range(n))),
        _exact("[x_a,D] = u_a + g_a",
               ((f"a={a + 1}", supercommutator(x(a), alg.dirac), u(a) + g[a]) for a in range(n))),
        _exact("[u_a+g_a,D] = 0",
               ((f"a={a + 1}", supercommutator(u(a) + g[a], alg.dirac), zero) for a in range(n))),
        _exact("D^2 = (1/2) u_a u_a + gamma^2",
               [("mismatch", alg.dirac * alg.dirac, cas * Fraction(1, 2) + g2)]),
        _exact("gamma^2 = -(1/48) f_abc f_abc", [("mismatch", alg.gamma * alg.gamma, g2)]),
        _exact("u_a u_a is central", [("not central", all(
            supercommutator(cas, gen(b)).is_zero for b in range(n) for gen in (u, x)), True)])]


def quantum_suite(lie, rep, samples=50, seed=0):
    """Run the quantum operator identities; returns a list of CheckResult."""
    return _quantum_rows(QuantumAlgebra(lie, rep), samples, seed)


def _quantum_rows(alg, samples, seed):
    """The quantum rows on the `QuantumAlgebra` value `alg`."""
    lie, rep = alg.lie, alg.rep
    rng = random.Random(seed)
    results = quantum_structure_suite(alg)
    # the four-term element, not alg.curvature: that one raises on the
    # mismatch that the "QC four-term formula" row below reports
    curv = alg.four_term_curvature()
    results += _operator_identities(alg, rng, seed, samples, curv, ("QC", "f_abc"))
    results.append(_exact("QC four-term formula = (D + x_a tau_a)^2",
                          [("mismatch", curv, alg.dirac_tau * alg.dirac_tau)]))

    @cache
    def restrict_image(key):  # d(X) - d_W(X) - iota_a(X) tau_a on X = key I, d_W = [D, -]
        x, acc = alg.element({key: Matrix.identity(rep.dim)}), {}
        add_into(acc, alg.differential(x))
        products_into(acc, alg.dirac, x, True, -1)
        for a in range(lie.dim):
            products_into(acc, alg.contraction(a, x), alg.tau(a), False, -1)
        return acc

    x1 = alg.odd_gen(0)
    return [*results,
            *_sampled([("restriction: d = d_W + iota_a tau_a", restrict_image)], samples // 2 + 1,
                      lambda: random_scalar_weil_poly(lie, rng), "element", None),
            _exact("restriction: d != d_W exactly when tau_1 is nonzero",
                   [("witness failed at x1", alg.differential(x1) != alg.weil_differential(x1),
                     bool(rep.matrices[0]))])]
