"""Elements of a covariant Weil algebra, classical or quantum.

Both algebras are spans of (even monomial, odd monomial) pairs tensored
with End V: S g* (x) /\\ g* (x) End V classically, U(g) (x) Cl(g) (x)
End V quantum-side.  An element is a sparse map from such pairs to
nonzero matrices.  Everything but the product of two monomials is the
same for both and is written here once; `classical.ClassicalElement`
and `quantum.QuantumElement` supply that product (`_mono_mul`), the
letters and joiner of their renderings, and `admit`, the check every
constructor of a nonzero element runs on the Lie algebra.

Parity (for Koszul signs) is the odd length mod 2, since the other two
factors are even.  The degree of a term is twice the even degree plus
the odd length: a grading classically, a filtration quantum-side whose
associated graded is the classical algebra (gr U = S, gr Cl = /\\).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .kernels import add_term
from .linalg import Matrix
from .render import render

# maxsize of the per-(lie, rep) element caches (curvature, distinguished
# elements); an evicted entry is rebuilt as an equal element
CACHE_SIZE = 64


@dataclass(eq=False)
class Element:
    lie: object
    rep: object
    terms: dict  # (even monomial, odd monomial) -> Matrix

    # a subclass sets LETTERS, the rendering letters of its even and odd
    # generators; JOINER separates the even and odd parts of a rendering
    JOINER = "*"

    @staticmethod
    def admit(lie):
        """Raise unless the algebra can be built on `lie`."""

    # a subclass defines _mono_mul(self, k1, k2): the product of two (even,
    # odd) monomials as a sequence of (key, coefficient) pairs

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, lie, rep):
        return cls(lie, rep, {})

    @classmethod
    def endo(cls, lie, rep, mat: Matrix):
        cls.admit(lie)
        if mat.rows != rep.dim or mat.cols != rep.dim:
            raise ValueError(f"matrix must be {rep.dim}x{rep.dim}")
        return cls(lie, rep, {((0,) * lie.dim, ()): mat} if mat else {})

    @classmethod
    def unit(cls, lie, rep):
        return cls.endo(lie, rep, Matrix.identity(rep.dim))

    @classmethod
    def scalar(cls, lie, rep, q):
        return cls.unit(lie, rep) * Fraction(q)

    @classmethod
    def tau(cls, lie, rep, a):
        return cls.endo(lie, rep, rep.matrices[a])

    @classmethod
    def even_gen(cls, lie, rep, a):
        cls.admit(lie)
        mono = tuple(int(i == a) for i in range(lie.dim))
        return cls(lie, rep, {(mono, ()): Matrix.identity(rep.dim)})

    @classmethod
    def odd_gen(cls, lie, rep, a):
        cls.admit(lie)
        return cls(lie, rep, {((0,) * lie.dim, (a,)): Matrix.identity(rep.dim)})

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other):
        if type(other) is not type(self) or self.lie is not other.lie or self.rep is not other.rep:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return type(self)(self.lie, self.rep, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.lie, self.rep, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            terms = {m: c * q for m, c in self.terms.items()} if q else {}
            return type(self)(self.lie, self.rep, terms)
        self._check_same(other)
        mono_mul = self._mono_mul
        out = {}
        for k1, m1 in self.terms.items():
            for k2, m2 in other.terms.items():
                prod = m1 * m2
                if not prod:
                    continue
                for key, q in mono_mul(k1, k2):
                    add_term(out, key, prod * q)
        return type(self)(self.lie, self.rep, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.lie is other.lie and self.rep is other.rep and self.terms == other.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def parity_parts(self):
        """Split into (parity, homogeneous part) by odd length mod 2."""
        parts = ({}, {})
        for key, m in self.terms.items():
            parts[len(key[1]) % 2][key] = m
        return [(p, type(self)(self.lie, self.rep, t)) for p, t in enumerate(parts) if t]

    def degrees(self):
        """The degrees 2 * (even degree) + (odd length) present among the terms."""
        return sorted({2 * sum(s) + len(e) for (s, e) in self.terms})

    def poly_degree(self) -> int:
        """The top polynomial (even) degree among the terms; 0 for zero."""
        return max((sum(even) for even, _ in self.terms), default=0)

    def __repr__(self):
        return f"<{render(self)}>"


def supercommutator(x: Element, y: Element) -> Element:
    """[x, y] = xy - (-1)^{|x||y|} yx, extended bilinearly over parities."""
    x._check_same(y)
    out = x.zero(x.lie, x.rep)
    for p, xp in x.parity_parts():
        for q, yq in y.parity_parts():
            if p * q:
                out = out + xp * yq + yq * xp
            else:
                out = out + xp * yq - yq * xp
    return out
