"""Normal-form product kernels for the four generator algebras.

Monomials are plain tuples: symmetric and enveloping-algebra monomials
are exponent vectors, exterior and Clifford monomials are strictly
increasing index tuples.  Polynomials are dicts monomial -> coefficient
with no zero coefficients stored; coefficients may be ints, Fractions
or matrices, anything with exact +, *, unary - and falsy zero.

The Clifford kernel is for the orthonormal form B = I, the only form
the quantum construction accepts: a product of two index monomials is
then one term with coefficient +-1/2^k, as two ints.  The PBW kernel
multiplies by one generator at a time, onto a normal-form monomial, and
merges like terms at every step; its coefficients stay Python ints on
an algebra with integral structure constants (every builtin, so(n)) and
are exact ints and Fractions otherwise.  The word-rewriting routines
these replace, including a Clifford product for a general form B, and
the PBW kernel as it ran on Fractions only, live on in the tests as
oracles.

The Clifford and PBW products are memoized in bounded LRU caches.
`_pbw_left` and `pbw_mono_mul` take the algebra's `lie.BracketTable` as
part of the key: immutable, one object per distinct table, and hashed by
identity.  So algebras with equal structure constants share entries, a
lookup hashes no table, and an entry keeps no `LieData` alive.
"""

from __future__ import annotations

from functools import lru_cache


def add_term(acc: dict, mono, coeff):
    """acc[mono] += coeff, dropping the key when the sum vanishes."""
    cur = acc.get(mono)
    new = coeff if cur is None else cur + coeff
    if new:
        acc[mono] = new
    elif cur is not None:
        del acc[mono]


# -- symmetric algebra -----------------------------------------------------

def sym_mono_mul(m1, m2):
    return tuple(x + y for x, y in zip(m1, m2))


# -- exterior algebra ------------------------------------------------------

def ext_normalize(word):
    """Sort an index word, tracking the Koszul sign.

    Returns (sign, strictly increasing tuple), or None when an index
    repeats (odd generators square to zero).
    """
    w = list(word)
    sign = 1
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            w[j - 1], w[j] = w[j], w[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and w[j - 1] == w[j]:
            return None
    return sign, tuple(w)


def ext_mono_mul(m1, m2):
    return ext_normalize(m1 + m2)


# -- Clifford algebra ------------------------------------------------------

@lru_cache(maxsize=1 << 16)
def cliff_mono_mul(m1, m2):
    """Product of two Clifford monomials under x_a x_b + x_b x_a = delta_ab.

    Returns the single term (monomial, p, r), coefficient p / r: the
    monomial is the symmetric difference of the index sets, each shared
    index contracts to x_a x_a = 1/2, so r = 2^|m1 & m2|, and the sign
    p = +-1 counts the pairs i in m1, j in m2 with i > j that pass each
    other.
    """
    swaps = sum(1 for j in m2 for i in m1 if i > j)
    s1, s2 = set(m1), set(m2)
    return tuple(sorted(s1 ^ s2)), (-1 if swaps & 1 else 1), 1 << len(s1 & s2)


# -- universal enveloping algebra ------------------------------------------

def pbw_word(mono):
    """Expand an exponent vector into its sorted letter word."""
    out = []
    for i, k in enumerate(mono):
        out.extend([i] * k)
    return tuple(out)


def _bump(mono, i, k):
    return mono[:i] + (mono[i] + k,) + mono[i + 1:]


@lru_cache(maxsize=1 << 16)
def _pbw_left(a, mono, table):
    """u_a times the normal-form monomial u^mono, as (monomial, coefficient)
    pairs: ints when every f^c_ab in the `BracketTable` is an int, exact
    ints and Fractions otherwise.

    With b the smallest letter of mono and b < a, write u^mono = u_b m'; then
    u_a u_b m' = u_b (u_a m') + [u_a, u_b] m'.  Every call below is on a
    lower degree, or puts u_b in front of a monomial whose letters are >= b.
    """
    b = next((i for i, k in enumerate(mono) if k), a)
    if b >= a:
        return ((_bump(mono, a, 1), 1),)
    rest = _bump(mono, b, -1)
    out = {}
    for m, q in _pbw_left(a, rest, table):
        for m2, q2 in _pbw_left(b, m, table):
            add_term(out, m2, q * q2)
    for c, f in table.rows.get((b, a), ()):  # [u_a, u_b] = -f^c_ba u_c
        for m, q in _pbw_left(c, rest, table):
            add_term(out, m, -f * q)
    return tuple(out.items())


@lru_cache(maxsize=1 << 14)
def pbw_mono_mul(m1, m2, table):
    """u^m1 u^m2 in PBW normal form, f^c_ab read off the `BracketTable`: the
    letters of m1, right to left, onto m2."""
    terms = {m2: 1}
    for a in reversed(pbw_word(m1)):
        nxt = {}
        for m, c in terms.items():
            for m3, q in _pbw_left(a, m, table):
                add_term(nxt, m3, c * q)
        terms = nxt
    return tuple(sorted(terms.items()))
