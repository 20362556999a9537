"""The classical covariant Weil algebra: S g* (x) /\\ g* (x) End V.

Elements are sparse maps (symmetric monomial, exterior monomial) ->
matrix with the arithmetic of `element.Element`; this module supplies
the monomial product.  Symmetric generators have degree 2, exterior ones
degree 1, endomorphisms degree 0; parity is the exterior length mod 2.
`ClassicalAlgebra` is the algebra on one (lie, rep).  Its operators
L_a, iota_a and d are derivations, each given by its images of v^c, y^c
and End V (read off `LieData.pair_brackets`, see `derivations`) and
extended to products by one Leibniz rule over generator images: that
rule is the value's `_image` of one monomial, which the shared
`element.WeilAlgebra._apply` reads from the value's image table.  Every
End V image is a commutator [tau_b, A], the letter (tau_b, -1).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import element
from .kernels import _bump, ext_mono_mul, ext_normalize, sym_mono_mul


class ClassicalElement(element.Element):
    LETTERS = ("v", "y")
    SUPERCOMMUTATIVE = True

    def _mono_mul(self, k1, k2):
        r = ext_mono_mul(k1[1], k2[1])
        if r is None:
            return ()
        sign, e = r
        return (((sym_mono_mul(k1[0], k2[0]), e), sign, 1),)


class _Derivation(NamedTuple):
    """A derivation D by its generator images.

    An image is a sequence of terms (g, w, p, r, t): (p / r) v^g y^w times
    the End V part, which is letter t on A, a commutator [tau_b, A], and
    else the term's own A; p and r > 0 are integers, and g and t are None
    for no v and no letter.
    """

    odd: bool
    v: dict  # c -> image of v^c
    y: dict  # c -> image of y^c
    endo: tuple  # the image of A


def _monomial_image(der: _Derivation, s, e):
    """D(v^s y^e A) by the Leibniz rule, over the three slots:

        sum_c s_c v^(s - e_c) D(v^c) y^e A
      + sum_j (-1)^(j |D|) v^s y^(e<j) D(y^(e_j)) y^(e>j) A
      + (-1)^(|e| |D|) v^s y^e D(A)

    as terms (key, t, p, r): first the v- and y-slot terms summed per key
    by `element.add_ratio`, t None for key times (p / r) A, zero sums
    dropped, then the End V slot's, key times (p / r) letter t on A.
    Terms whose y-word repeats an index are dropped.
    """
    odd, vs, ys, endo = der
    # (v part, multiplicity, y's before, y's after, sign, image) per factor
    slots = [(_bump(s, c, -1), k, (), e, 1, vs[c]) for c, k in enumerate(s) if k and c in vs]
    for j, c in enumerate(e):
        if c in ys:
            slots.append((s, 1, e[:j], e[j + 1:], -1 if odd and j & 1 else 1, ys[c]))
    if endo:
        slots.append((s, 1, e, (), -1 if odd and len(e) & 1 else 1, endo))
    plain, endo_terms = {}, []
    for base, k, before, after, sign, image in slots:
        for g, w, p, r, t in image:
            if w:
                res = ext_normalize(before + w + after)
                if res is None:
                    continue
                ws, word = res
            else:
                ws, word = 1, before + after
            key, p = (base if g is None else _bump(base, g, 1), word), p * k * sign * ws
            if t is not None:
                endo_terms.append((key, t, p, r))
            else:
                element.add_ratio(plain, key, p, r)
    return tuple((key, None, p, r) for key, (p, r) in plain.items() if p) + tuple(endo_terms)


class ClassicalAlgebra(element.WeilAlgebra):
    Element = ClassicalElement
    KIND = "classical"
    GRADED = True

    @cached_property
    def derivations(self):
        """The derivations L_a (index a), iota_a (n + a) and d (2n), read
        off `lie.pair_brackets()`; zero tau_b are dropped.  Summed over j,
        k and b: L_a (even, degree 0) is -f^c_ab v^b on v^c, -f^c_ab y^b on
        y^c and [tau_a, A] on A; iota_a (odd, degree -1) is delta_ac on y^c
        and zero on v^c and End V; d (odd, degree +1) is -f^c_jk y^j v^k on
        v^c, v^c - (1/2) f^c_jk y^j y^k on y^c and y^b [tau_b, A] on A."""
        lie, taus = self.lie, self.rep.matrices
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
        ids = [self.letter(t, -1) if t else None for t in taus]
        lie_ders = tuple(_Derivation(False, lv[a], ly[a], ((None, (), 1, 1, t),) if taus[a] else ())
                         for a, t in enumerate(ids))
        iotas = tuple(_Derivation(True, {}, {a: ((None, (), 1, 1, None),)}, ())
                      for a in range(n))
        d = _Derivation(True, dv, dy,
                        tuple((None, (b,), 1, 1, t) for b, t in enumerate(ids) if taus[b]))
        return lie_ders + iotas + (d,)

    def _image(self, i, key):
        return _monomial_image(self.derivations[i], *key)

    @cached_property
    def curvature(self) -> ClassicalElement:
        """C = sum_a v^a (x) 1 (x) tau_a; degree 2, d-closed."""
        return sum((self.even_gen(a) * self.tau(a) for a in range(self.lie.dim)), self.zero())


def curvature(lie, rep) -> ClassicalElement:
    """The curvature of a fresh `ClassicalAlgebra(lie, rep)`."""
    return ClassicalAlgebra(lie, rep).curvature
