"""The classical covariant Weil algebra: S g* (x) /\\ g* (x) End V.

Elements are sparse maps (symmetric monomial, exterior monomial) ->
matrix with the arithmetic of `element.Element`; this module supplies
the monomial product.  Symmetric generators have degree 2, exterior ones
degree 1, endomorphisms degree 0; parity is the exterior length mod 2.
The operators L_a, iota_a and d are derivations, each given by its
images of v^c, y^c and End V (read off `LieData.pair_brackets`) and
extended to products by one Leibniz rule over generator images.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import element
from .element import CACHE_SIZE, accumulate, collect
from .element import supercommutator  # noqa: F401  (part of the module interface)
from .kernels import _bump, add_term, ext_mono_mul, ext_normalize, sym_mono_mul

GRADED = True  # operators have exact degrees; the flat solver splits by degree


class ClassicalElement(element.Element):
    LETTERS = ("v", "y")
    SUPERCOMMUTATIVE = True

    def _mono_mul(self, k1, k2):
        r = ext_mono_mul(k1[1], k2[1])
        if r is None:
            return ()
        sign, e = r
        return (((sym_mono_mul(k1[0], k2[0]), e), sign, 1),)


Element = ClassicalElement
zero, unit, scalar = Element.zero, Element.unit, Element.scalar
endo, tau, sym_gen, ext_gen = Element.endo, Element.tau, Element.even_gen, Element.odd_gen


class _Derivation(NamedTuple):
    """A derivation D by its generator images.

    An image is a sequence of terms (g, w, p, r, t): (p / r) v^g y^w times
    the End V part, which is [t, A] for a matrix t and else the term's
    own A; p and r > 0 are integers, and g is None for no v.
    """

    odd: bool
    v: dict  # c -> image of v^c
    y: dict  # c -> image of y^c
    endo: tuple  # the image of A


@lru_cache(maxsize=CACHE_SIZE)
def _derivations(lie, rep):
    """The derivations L_a and iota_a (a tuple of n each) and d on (lie, rep),
    read off `lie.pair_brackets()`; zero tau_b are dropped."""
    n = lie.dim
    lv, ly = [{} for _ in range(n)], [{} for _ in range(n)]
    dv, dy = {}, {c: [(c, (), 1, 1, None)] for c in range(n)}
    # L_a v^c = -f^c_ab v^b and L_a y^c = -f^c_ab y^b; d v^c = -f^c_ab y^a v^b
    # and d y^c = v^c - (1/2) f^c_ab y^a y^b, summed over ordered pairs (a, b)
    for (a, b), row in lie.pair_brackets().items():
        for c, q in row:
            p, r = q.numerator, q.denominator
            lv[a].setdefault(c, []).append((b, (), -p, r, None))
            ly[a].setdefault(c, []).append((None, (b,), -p, r, None))
            dv.setdefault(c, []).append((b, (a,), -p, r, None))
            dy[c].append((None, (a, b), -p, 2 * r, None))
    taus = rep.matrices
    lie_ders = tuple(_Derivation(False, lv[a], ly[a],
                                 ((None, (), 1, 1, taus[a]),) if taus[a] else ())
                     for a in range(n))
    iotas = tuple(_Derivation(True, {}, {a: ((None, (), 1, 1, None),)}, ()) for a in range(n))
    d = _Derivation(True, dv, dy, tuple((None, (b,), 1, 1, t) for b, t in enumerate(taus) if t))
    return lie_ders, iotas, d


def _leibniz(der: _Derivation, x: ClassicalElement) -> ClassicalElement:
    """D(x) by the Leibniz rule, over the three slots of each term v^s y^e A:

        sum_c s_c v^(s - e_c) D(v^c) y^e A
      + sum_j (-1)^(j |D|) v^s y^(e<j) D(y^(e_j)) y^(e>j) A
      + (-1)^(|e| |D|) v^s y^e D(A)

    The End V slot is skipped for A = c I, whose commutators vanish, and
    a term's y-word is checked before its commutator is computed.
    """
    odd, vs, ys, endo = der
    acc = {}
    for (s, e), mat in x.terms.items():
        # (v part, multiplicity, y's before, y's after, sign, image) per factor
        slots = [(_bump(s, c, -1), k, (), e, 1, vs[c])
                 for c, k in enumerate(s) if k and c in vs]
        for j, c in enumerate(e):
            if c in ys:
                slots.append((s, 1, e[:j], e[j + 1:], -1 if odd and j & 1 else 1, ys[c]))
        if endo and mat._scalar() is None:
            slots.append((s, 1, e, (), -1 if odd and len(e) & 1 else 1, endo))
        for base, k, before, after, sign, image in slots:
            for g, w, p, r, t in image:
                if w:
                    res = ext_normalize(before + w + after)
                    if res is None:
                        continue
                    ws, word = res
                else:
                    ws, word = 1, before + after
                if t is None:
                    num, den = mat.num, mat.den
                else:
                    num, den = t._commutator_num(mat)
                    if not any(num):
                        continue
                accumulate(acc, (base if g is None else _bump(base, g, 1), word), num,
                           den * r, p * k * sign * ws)
    return ClassicalElement(x.lie, x.rep, collect(acc, x.rep.dim))


def lie_derivative(a, x: ClassicalElement) -> ClassicalElement:
    """L_a, the even derivation with L_a v^c = -f^c_ab v^b, L_a y^c =
    -f^c_ab y^b and L_a A = [tau_a, A]."""
    return _leibniz(_derivations(x.lie, x.rep)[0][a], x)


def contraction(a, x: ClassicalElement) -> ClassicalElement:
    """iota_a, the odd derivation of degree -1 with iota_a y^c = delta_ac,
    zero on v^c and End V."""
    return _leibniz(_derivations(x.lie, x.rep)[1][a], x)


def differential(x: ClassicalElement) -> ClassicalElement:
    """The covariant differential, the odd derivation of degree +1 with
    d v^c = -f^c_jk y^j v^k, d y^c = v^c - (1/2) f^c_jk y^j y^k and
    d A = y^b [tau_b, A], summed over j, k and b."""
    return _leibniz(_derivations(x.lie, x.rep)[2], x)


@lru_cache(maxsize=CACHE_SIZE)
def curvature(lie, rep) -> ClassicalElement:
    """C = sum_a v^a (x) 1 (x) tau_a; degree 2, d-closed."""
    out = {}
    for a in range(lie.dim):
        mat = rep.matrices[a]
        if mat:
            add_term(out, (tuple(int(i == a) for i in range(lie.dim)), ()), mat)
    return ClassicalElement(lie, rep, out)

