"""The classical covariant Weil algebra: S g* (x) /\\ g* (x) End V.

Elements are sparse maps (symmetric monomial, exterior monomial) ->
matrix with the arithmetic of `element.Element`; this module supplies
the monomial product.  Symmetric generators have degree 2, exterior ones
degree 1, endomorphisms degree 0; parity is the exterior length mod 2.
The three operators are structural derivations extended from their
generator formulas by the Leibniz rule.
"""

from __future__ import annotations

from functools import lru_cache

from . import element
from .element import CACHE_SIZE, add_scaled
from .element import supercommutator  # noqa: F401  (part of the module interface)
from .kernels import _bump, add_term, ext_mono_mul, ext_normalize, sub_term, sym_mono_mul

GRADED = True  # operators have exact degrees; the flat solver splits by degree


class ClassicalElement(element.Element):
    LETTERS = ("v", "y")
    SUPERCOMMUTATIVE = True

    def _mono_mul(self, k1, k2):
        r = ext_mono_mul(k1[1], k2[1])
        if r is None:
            return ()
        sign, e = r
        return (((sym_mono_mul(k1[0], k2[0]), e), sign),)


Element = ClassicalElement
zero, unit, scalar = Element.zero, Element.unit, Element.scalar
endo, tau, sym_gen, ext_gen = Element.endo, Element.tau, Element.even_gen, Element.odd_gen


def lie_derivative(a, x: ClassicalElement) -> ClassicalElement:
    """L_a: even derivation; acts on all three tensor slots."""
    lie, rep = x.lie, x.rep
    tau_a = rep.matrices[a]
    out = {}
    for (s, e), mat in x.terms.items():
        for c, k in enumerate(s):
            if not k:
                continue
            for b, q in lie.lie_action(a, c):
                add_scaled(out, (_bump(_bump(s, c, -1), b, 1), e), mat,
                           q.numerator * k, q.denominator)
        for j, idx in enumerate(e):
            for b, q in lie.lie_action(a, idx):
                r = ext_normalize(e[:j] + (b,) + e[j + 1:])
                if r is None:
                    continue
                sign, e2 = r
                add_scaled(out, (s, e2), mat, q.numerator * sign, q.denominator)
        cm = tau_a.commutator(mat)
        if cm:
            add_term(out, (s, e), cm)
    return ClassicalElement(lie, rep, out)


def contraction(a, x: ClassicalElement) -> ClassicalElement:
    """iota_a: odd derivation of degree -1; kills all but the exterior slot."""
    out = {}
    for (s, e), mat in x.terms.items():
        for j, idx in enumerate(e):
            if idx == a:
                (sub_term if j % 2 else add_term)(out, (s, e[:j] + e[j + 1:]), mat)
                break
    return ClassicalElement(x.lie, x.rep, out)


def differential(x: ClassicalElement) -> ClassicalElement:
    """The covariant differential: odd derivation of degree +1.

    Generator images: d v^c = -f^c_jk y^j v^k, d y^c = v^c - (1/2) f^c_jk
    y^j y^k, d A = y^b [tau_b, A] summed over b.  Each term scales its
    matrix by integers: the numerator of f^c_jk times the multiplicity
    and the signs, over its denominator (twice it for the 1/2).
    """
    lie, rep = x.lie, x.rep
    n = lie.dim
    taus = rep.matrices
    out = {}
    for (s, e), mat in x.terms.items():
        # symmetric slot (even factors, no position sign)
        for c, k in enumerate(s):
            if not k:
                continue
            base = _bump(s, c, -1)
            for j, kk, q in lie.diff_pairs(c):
                r = ext_mono_mul((j,), e)
                if r is None:
                    continue
                sign, e2 = r
                add_scaled(out, (_bump(base, kk, 1), e2), mat,
                           q.numerator * k * sign, q.denominator)
        # exterior slot: sign (-1)^position for the odd factors passed
        for j, idx in enumerate(e):
            pref = 1 if j % 2 == 0 else -1
            rest = e[:j] + e[j + 1:]
            add_scaled(out, (_bump(s, idx, 1), rest), mat, pref)
            for p, q_, q in lie.diff_pairs(idx):
                r = ext_normalize(e[:j] + (p, q_) + e[j + 1:])
                if r is None:
                    continue
                sign, e2 = r
                add_scaled(out, (s, e2), mat, q.numerator * pref * sign, 2 * q.denominator)
        # endomorphism slot: sign (-1)^(exterior length)
        pref = 1 if len(e) % 2 == 0 else -1
        for b in range(n):
            cm = taus[b].commutator(mat)
            if not cm:
                continue
            r = ext_mono_mul(e, (b,))
            if r is None:
                continue
            sign, e2 = r
            add_scaled(out, (s, e2), cm, pref * sign)
    return ClassicalElement(lie, rep, out)


@lru_cache(maxsize=CACHE_SIZE)
def curvature(lie, rep) -> ClassicalElement:
    """C = sum_a v^a (x) 1 (x) tau_a; degree 2, d-closed."""
    out = {}
    for a in range(lie.dim):
        mat = rep.matrices[a]
        if mat:
            add_term(out, (tuple(int(i == a) for i in range(lie.dim)), ()), mat)
    return ClassicalElement(lie, rep, out)

