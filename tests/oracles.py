"""Oracles: the obvious routines that faster code in `weil` replaced.

The word-rewriting routines are what `weil.kernels` used before its
closed-form Clifford product and memoized PBW left multiplication: the
Clifford routines take a general symmetric form B, and the PBW routine
straightens a whole letter word with either of two rewriting strategies.
`full_flat_basis` is the per-index-block flat solve that `weil.flat`
used before it derived the full flat basis from the horizontal one.
They are kept unchanged so that the fast code can be tested against an
obvious, independently written reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from weil import ALGEBRAS
from weil.flat import (_flat_op, _index_monomials, _kernel, _level_monomials,
                       element_coords, monomials_up_to)
from weil.linalg import Matrix
from weil.kernels import add_term, pbw_word


# -- Clifford algebra ------------------------------------------------------

@lru_cache(maxsize=None)
def cliff_mono_mul(m1, m2, B):
    """Product of two Clifford monomials under x_a x_b + x_b x_a = B_ab.

    B is the (symmetric) form matrix; generator squares are B_aa / 2.
    Returns a tuple of (monomial, Fraction) pairs in normal form.
    """
    out = {}
    stack = [(Fraction(1), list(m1 + m2))]
    while stack:
        coeff, w = stack.pop()
        bad = None
        for i in range(len(w) - 1):
            if w[i] >= w[i + 1]:
                bad = i
                break
        if bad is None:
            add_term(out, tuple(w), coeff)
            continue
        a, b = w[bad], w[bad + 1]
        if a == b:
            q = B[a, a] / 2
            if q:
                stack.append((coeff * q, w[:bad] + w[bad + 2:]))
        else:
            stack.append((-coeff, w[:bad] + [b, a] + w[bad + 2:]))
            q = B[a, b]
            if q:
                stack.append((coeff * q, w[:bad] + w[bad + 2:]))
    return tuple(sorted(out.items()))


def mul_clifford(a: dict, b: dict, B) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = c1 * c2
            for m, q in cliff_mono_mul(m1, m2, B):
                add_term(out, m, c * q)
    return out


# -- universal enveloping algebra ------------------------------------------

def _word_mono(w, n):
    exp = [0] * n
    for i in w:
        exp[i] += 1
    return tuple(exp)


def pbw_word_mul(word, lie, strategy="leftmost"):
    """Straighten a letter word into PBW normal form.

    Out-of-order adjacent pairs rewrite via u_b u_a = u_a u_b - f^c_ab u_c.
    `strategy` picks which disordered pair to rewrite first; any choice
    yields the same normal form (confluence), which the tests exercise.
    """
    n = lie.dim
    out = {}
    stack = [(Fraction(1), list(word))]
    while stack:
        coeff, w = stack.pop()
        bad = None
        idx = range(len(w) - 1)
        if strategy == "rightmost":
            idx = range(len(w) - 2, -1, -1)
        for i in idx:
            if w[i] > w[i + 1]:
                bad = i
                break
        if bad is None:
            add_term(out, _word_mono(w, n), coeff)
            continue
        b, a = w[bad], w[bad + 1]
        stack.append((coeff, w[:bad] + [a, b] + w[bad + 2:]))
        for c, q in lie.bracket(a, b):
            stack.append((-coeff * q, w[:bad] + [c] + w[bad + 2:]))
    return out


@lru_cache(maxsize=None)
def pbw_mono_mul(m1, m2, lie, strategy="leftmost"):
    d = pbw_word_mul(pbw_word(m1) + pbw_word(m2), lie, strategy)
    return tuple(sorted(d.items()))


def mul_pbw(a: dict, b: dict, lie, strategy="leftmost") -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = c1 * c2
            for m, q in pbw_mono_mul(m1, m2, lie, strategy):
                add_term(out, m, c * q)
    return out


# -- full flat basis ----------------------------------------------------------

def _block(mod, lie, rep, monos, combo):
    """Monomial-times-matrix-unit basis with index monomial `combo`."""
    d = rep.dim
    out = []
    for mono in monos:
        for unit in range(d * d):
            ent = [Fraction(0)] * (d * d)
            ent[unit] = Fraction(1)
            out.append(mod.Element(lie, rep, {(mono, combo): Matrix(d, d, ent)}))
    return out


def full_flat_basis(algebra, lie, rep, max_degree, degree=None):
    """Flat basis of the full truncated algebra, exterior / Clifford
    factors included.

    The bracket with the curvature never changes the index monomial of a
    term (checked below), so the solve runs block by block and stays
    exact.  `degree` restricts the solve to that level: one symmetric
    degree classically, degree <= `degree` quantum-side.
    """
    mod = ALGEBRAS[algebra]
    n = lie.dim
    op = _flat_op(mod, lie, rep)
    monos = (_level_monomials(mod, n, degree) if degree is not None
             else monomials_up_to(n, max_degree))
    basis = []
    for combo in _index_monomials(n):
        domain = _block(mod, lie, rep, monos, combo)
        images = [op(v) for v in domain]
        for im in images:
            for key in im.terms:
                if key[1] != combo:
                    raise AssertionError("curvature bracket left its index block")
        basis.extend(_kernel(domain, [element_coords(im) for im in images]))
    return basis
