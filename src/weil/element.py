"""Elements of a covariant Weil algebra, classical or quantum.

Both algebras are spans of (even monomial, odd monomial) pairs tensored
with End V: S g* (x) /\\ g* (x) End V classically, U(g) (x) Cl(g) (x)
End V quantum-side.  An element is a sparse map from such pairs to
nonzero matrices.  Everything but the product of two monomials is the
same for both and is written here once; `classical.ClassicalElement`
and `quantum.QuantumElement` supply that product (`_mono_mul`) and the
letters and joiner of their renderings.

A `WeilAlgebra` is one algebra on a (lie, rep), classical or quantum:
its element class, constructors, operators and curvature.  What a value
derives is built on first use and kept on the value.  End V enters
L_a, iota_a and d only through tau, and d.d through the curvature, so
each acts on an End V part A as A -> M A + s A M, s = +-1: a
commutator, or quantum-side an anticommutator from the Clifford sign of
d's x_a tau_a terms.  The value's `letters` list these actions, each
(M, s) once with its cell map (`Matrix._cells(s)`), and an operator
image or a bracket names its End V action by letter id.  One table,
`WeilAlgebra.bracket_terms`, writes [x, key A] in letters: the quantum
operator images, the solver's rows of [C, -] and the [C, -] part of the
d.d check rows all read it.  It reads x through a record prepared once
per value of x (`bracket_operand`: each term's monomial, parity and
tensor-factor flags, and its c I part or its matrix, whose letter ids
are looked up once), so no key pays for them; the caller keeps the
record, and `QuantumAlgebra` keeps its inner elements' on the value.

The product and the supercommutator share one pass over the term
pairs of their factors; the bracket's yx half folds its Koszul sign
into each coefficient.  They and the operators (`WeilAlgebra._apply`)
sum raw integer numerators in one accumulator, canonicalizing each End
V part once per result key (`accumulate`, `collect`); a sum of scalar
coefficients p / r, as in `bracket_terms`, the classical Leibniz images
and the check rows' composites, is the same rule on one integer
(`add_ratio`).  When one of a pair's
matrix parts is c I the two matrix products agree and are one scaling
of the other.  When the pair's monomials supercommute (always
classically; quantum-side when one has no even part and the other no
odd part, as U(g) and Cl(g) are tensor factors) both halves land on one
key: they cancel, or else sum as one commutator of the matrix parts.
`products_into` adds sign times a product, and `add_into` a rational
multiple of an element or an accumulator, into a caller's accumulator.
So an identity is checked by summing both of its sides, one negated,
into one accumulator and asking `vanishes`: each key's sum is integer
numerators over one denominator, so it is zero exactly when every
numerator is.  `products_into` is independent of `bracket_terms`, and
the tests check the table by it.

Parity (for Koszul signs) is the odd length mod 2, since the other two
factors are even.  The degree of a term is twice the even degree plus
the odd length: a grading classically, a filtration quantum-side whose
associated graded is the classical algebra (gr U = S, gr Cl = /\\).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import weakref
from functools import cached_property, lru_cache, partial
from math import gcd
from operator import add, itemgetter, sub

from .kernels import _bump, add_term
from .linalg import Matrix, exact_scalar
from .render import render


@dataclass(eq=False)
class Element:
    lie: object
    rep: object
    terms: dict  # (even monomial, odd monomial) -> Matrix

    # a subclass sets LETTERS, the rendering letters of its even and odd
    # generators; JOINER separates the even and odd parts of a rendering
    JOINER = "*"
    # whether any two monomials supercommute; otherwise only a monomial
    # with no even part and one with no odd part are known to
    SUPERCOMMUTATIVE = False

    # a subclass defines _mono_mul(self, k1, k2): the product of two (even,
    # odd) monomials as a sequence of (key, p, r) triples, each the term
    # key times p / r for integers p and r > 0

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other):
        if type(other) is not type(self) or self.lie is not other.lie or self.rep is not other.rep:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented  # x + 1 is a TypeError, as 1 + x is
        self._check_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return type(self)(self.lie, self.rep, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return type(self)(self.lie, self.rep, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            terms = {m: c * q for m, c in self.terms.items()} if q else {}
            return type(self)(self.lie, self.rep, terms)
        if isinstance(other, Element):
            return _products(self, other, False)
        return NotImplemented

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

    def degrees(self):
        """The degrees 2 * (even degree) + (odd length) present among the terms."""
        return sorted({2 * sum(s) + len(e) for (s, e) in self.terms})

    def poly_degree(self) -> int:
        """The top polynomial (even) degree among the terms; 0 for zero."""
        return max((sum(even) for even, _ in self.terms), default=0)

    def __repr__(self):
        return f"<{render(self)}>"


def accumulate(acc: dict, key, num, den: int, p: int = 1):
    """acc[key] += p * num / den for a matrix's integer numerators `num` and
    integers p, den > 0.  `acc` holds (numerators, den) per key, unreduced,
    rescaled to the lcm only when the denominators differ; p = -1 subtracts."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = (num if p == 1 else [p * x for x in num], den)
        return
    total, d = cur
    if d != den:
        g = gcd(d, den)
        p *= d // g
        if den != g:
            total = [x * (den // g) for x in total]
            d *= den // g
    if p == 1:
        acc[key] = (list(map(add, total, num)), d)
    elif p == -1:
        acc[key] = (list(map(sub, total, num)), d)
    else:
        acc[key] = ([x + p * y for x, y in zip(total, num)], d)


def add_ratio(acc: dict, key, p: int, r: int):
    """acc[key] += p / r for integers p and r > 0, the scalar `accumulate`:
    `acc` holds (numerator, den) per key, unreduced, rescaled to the lcm only
    when the denominators differ."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = p, r
    elif cur[1] == r:
        acc[key] = cur[0] + p, r
    else:
        q, d = cur
        g = gcd(d, r)
        acc[key] = q * (r // g) + p * (d // g), d // g * r


def collect(acc: dict, dim: int) -> dict:
    """The terms of an accumulator: each key's sum as a canonical dim x dim
    `Matrix`, the keys whose sum is zero dropped."""
    out = {}
    for key, (num, den) in acc.items():
        if any(num):
            out[key] = Matrix._canonical(dim, dim, num, den)
    return out


def vanishes(acc: dict) -> bool:
    """Whether the accumulator sums to zero: every key's numerators are 0.
    Exact, as each key holds its sum over one common denominator."""
    return not any(map(any, map(itemgetter(0), acc.values())))


def add_into(acc: dict, x, p: int = 1, r: int = 1):
    """acc += (p / r) x, x an element or an accumulator; p, r integers, r > 0."""
    sums = x.items() if type(x) is dict else [(k, (m.num, m.den)) for k, m in x.terms.items()]
    for key, (num, den) in sums:
        accumulate(acc, key, num, den * r, p)


def supercommutator(x: Element, y: Element) -> Element:
    """[x, y] = xy - (-1)^{|x||y|} yx, extended bilinearly over parities."""
    return _products(x, y, True)


def _products(x: Element, y: Element, bracket: bool) -> Element:
    """xy, or with `bracket` the supercommutator [x, y] (`products_into`)."""
    acc = {}
    products_into(acc, x, y, bracket, 1)
    return type(x)(x.lie, x.rep, collect(acc, x.rep.dim))


def products_into(acc: dict, x: Element, y: Element, bracket: bool, sign: int):
    """acc += sign xy, or with `bracket` sign [x, y], in one pass over the
    term pairs; sign is an integer, +-1 in use.

    The yx half of term pair (s, t) carries -(-1)^{|s||t|} in its
    coefficient, and each coefficient scales the raw matrix product.
    Each matrix part is tested for c I once per call, not once per pair,
    and the sign is folded into its c, or into the coefficient of a pair
    with no c I part, so no term pays for it.  When one matrix part of a
    pair is c I, its matrix product is a scaling of the other part and
    serves both halves.  When the monomials supercommute, the halves
    cancel if a part is c I, and else are one commutator m1 m2 - m2 m1.
    """
    x._check_same(y)
    mono_mul = x._mono_mul
    everywhere = x.SUPERCOMMUTATIVE
    # every matrix part is dim V x dim V, so no product needs a shape
    # check; c is sign times the numerator of a c I part, else None
    yterms = [(k2, m2, None if c2 is None else sign * c2, len(k2[1]) & 1,
               not any(k2[0]), not k2[1])
              for k2, m2 in y.terms.items() for c2 in (m2._scalar(),)]
    for k1, m1 in x.terms.items():
        c1 = m1._scalar()
        if c1 is not None:
            c1 *= sign
        odd1 = len(k1[1]) & 1
        no_even1, no_odd1 = not any(k1[0]), not k1[1]
        for k2, m2, c2, odd2, no_even2, no_odd2 in yterms:
            scalar = c1 is not None or c2 is not None
            commute = bracket and (everywhere or (no_even1 and no_odd2)
                                   or (no_odd1 and no_even2))
            if commute and scalar:
                continue  # the two halves cancel
            # the matrix product sign m1 m2 is c * num / den
            if c1 is not None:
                num, den, c = m2.num, m1.den * m2.den, c1
            elif c2 is not None:
                num, den, c = m1.num, m1.den * m2.den, c2
            else:
                (num, den), c = m1._mul_num(m2), sign
                if commute:  # both halves land on k1 k2: sign (m1 m2 - m2 m1)
                    num = list(map(sub, num, m2._mul_num(m1)[0]))
            if any(num):
                for key, p, r in mono_mul(k1, k2):
                    accumulate(acc, key, num, den * r, c * p)
            if commute or not bracket:
                continue
            if not scalar:
                num, den = m2._mul_num(m1)
            if any(num):
                c = c if odd1 and odd2 else -c  # the Koszul sign of the yx half
                for key, p, r in mono_mul(k2, k1):
                    accumulate(acc, key, num, den * r, c * p)


# entries of each value's image table, shared by `_apply` and the identity rows of
# `checks._composite_rows`, so the quantum restriction row reuses their images; in
# perfbench's check jobs at seed 1000 (`image_table.cache_info()`) it hits 90% classically
# and 84% quantum-side on so3 adjoint, missing only first lookups, and 35% and 55% on
# so3+so3, classically 32% with 256 and 43% with 1,024, adding about 0.1 MB of peak RSS
IMAGE_TABLE_SIZE = 512


@dataclass(frozen=True, eq=False)
class WeilAlgebra:
    """One covariant Weil algebra on (lie, rep).

    A subclass sets `Element`, its element class; `KIND`, "classical" or
    "quantum"; and `GRADED`, whether its operators have exact degrees (the
    flat solver then splits by degree).  It defines the cached `curvature`
    and `_image(i, key)`: operator i (L_a is a, iota_a is n + a, d is 2n)
    on key A, as terms (key', t, p, r), key' (p / r) times A for t None and
    else times letter t on A (`letters`), in integers with r > 0.  These
    make the algebra a curved dg algebra; their degrees are exact when
    GRADED and bound the filtration degree otherwise.  Constructing a
    value builds nothing.
    """

    lie: object
    rep: object

    def __post_init__(self):
        """Raise unless the algebra can be built on (lie, rep)."""

    # -- constructors ------------------------------------------------------

    def element(self, terms):
        return self.Element(self.lie, self.rep, terms)

    def zero(self):
        return self.element({})

    def endo(self, mat: Matrix):
        if mat.rows != self.rep.dim or mat.cols != self.rep.dim:
            raise ValueError(f"matrix must be {self.rep.dim}x{self.rep.dim}")
        return self.element({((0,) * self.lie.dim, ()): mat} if mat else {})

    def unit(self):
        return self.endo(Matrix.identity(self.rep.dim))

    def scalar(self, q):
        return self.unit() * exact_scalar(q)

    def _check_index(self, a):
        """a, or IndexError outside range(n): a negative index would count
        from the end, and an operator's a >= n would reach another operator."""
        if not 0 <= a < self.lie.dim:
            raise IndexError(f"generator index {a} is not in range({self.lie.dim})")
        return a

    def tau(self, a):
        return self.endo(self.rep.matrices[self._check_index(a)])

    def even_gen(self, a):
        mono = _bump((0,) * self.lie.dim, self._check_index(a), 1)
        return self.element({(mono, ()): Matrix.identity(self.rep.dim)})

    def odd_gen(self, a):
        key = ((0,) * self.lie.dim, (self._check_index(a),))
        return self.element({key: Matrix.identity(self.rep.dim)})

    # -- the operators: indices a, n + a and 2n of one table

    def lie_derivative(self, a, x):
        """L_a(x): even, of degree 0."""
        return self._apply(self._check_index(a), x)

    def contraction(self, a, x):
        """iota_a(x): odd, of degree -1."""
        return self._apply(self.lie.dim + self._check_index(a), x)

    def differential(self, x):
        """d(x), the covariant differential: odd, of degree +1."""
        return self._apply(2 * self.lie.dim, x)

    @cached_property
    def image_table(self):
        """(i, key) -> `_image(i, key)`, at most IMAGE_TABLE_SIZE entries; it
        holds the value weakly, so that no reference cycle keeps it alive."""
        return lru_cache(maxsize=IMAGE_TABLE_SIZE)(partial(type(self)._image, weakref.proxy(self)))

    @cached_property
    def letters(self):
        """The End V actions that images name: letter t is letters[t] = (M,
        s, cells), A -> M A + s A M with M's `_cells(s)` over M.den.  Each
        (M, s) is registered once, by `letter`."""
        return []

    @cached_property
    def _letter_ids(self):
        return {}  # (M, s) -> its index in `letters`

    def letter(self, mat, s):
        """The id of the letter A -> mat A + s A mat, registered on first use."""
        t = self._letter_ids.get((mat, s))
        if t is None:
            t = self._letter_ids[mat, s] = len(self.letters)
            self.letters.append((mat, s, mat._cells(s)))
        return t

    @cached_property
    def mono_mul(self):
        """The product of two (even, odd) monomials (`Element._mono_mul`)."""
        return self.zero()._mono_mul

    def bracket_operand(self, x):
        """x read once for `bracket_terms`: per term k1 M a record (k1, the
        parity |k1|, whether k1 has no even part, whether it has no odd
        part, c, den, letters).  For M = (c / den) I, letters is None; otherwise c is
        None and letters is the list [M, id of (M, +1), id of (M, -1)],
        indexed by s, each id None until `bracket_terms` first names it.
        The ids are this value's `letters`, so a record serves this value
        only; preparing registers no letter."""
        out = []
        for k1, mat in x.terms.items():
            c = mat._scalar()
            out.append((k1, len(k1[1]) & 1, not any(k1[0]), not k1[1], c, mat.den,
                        None if c is not None else [mat, None, None]))
        return tuple(out)

    def bracket_terms(self, operand, key):
        """[x, key A] as terms (key', t, p, r) for x's `bracket_operand`:
        key' (p / r) times A for t None, else times letter t applied to A;
        p and r > 0 are integers.

        Per term k1 M of x the sides are k1 key (M A) and -(-1)^{|k1||key|}
        key k1 (A M).  A c I part adds (c / den) times both sides to the
        plain term key' A, and nothing when k1 and key lie in different
        tensor factors, whose sides cancel.  Any other part M splits them
        into halves, M A = ((M, +1) + (M, -1)) / 2 and A M = ((M, +1) -
        (M, -1)) / 2 on A, summed per (key', part, s) over 2r.  Each sum
        is integers over one denominator (`add_ratio`); zero sums give no
        term, the plain terms come first."""
        odd, no_even, no_odd = len(key[1]) & 1, not any(key[0]), not key[1]
        mono_mul, sums = self.mono_mul, {}  # (key', part, s) -> (p, r); part None for c I
        for part, (k1, odd1, no_even1, no_odd1, c, den, letters) in enumerate(operand):
            if letters is None and ((no_even and no_odd1) or (no_odd and no_even1)):
                continue  # k1 and key lie in different tensor factors: the sides cancel
            yx = 1 if odd1 & odd else -1
            # (left, right, weight on (M, +1), weight on (M, -1)) of each side
            for left, right, plus, minus in ((k1, key, 1, 1), (key, k1, yx, -yx)):
                for k, p, r in mono_mul(left, right):
                    if letters is None:
                        add_ratio(sums, (k, None, 0), plus * c * p, den * r)
                    else:
                        add_ratio(sums, (k, part, 1), plus * p, r)
                        add_ratio(sums, (k, part, -1), minus * p, r)
        plain, halves = [], []
        for (k, part, s), (p, r) in sums.items():
            if not p:
                continue
            if part is None:
                plain.append((k, None, p, r))
                continue
            letters = operand[part][6]
            if letters[s] is None:
                letters[s] = self.letter(letters[0], s)
            halves.append((k, letters[s], p, 2 * r))
        return (*plain, *halves)

    def _apply(self, i, x):
        """Operator i on the element x: term key A adds its image table's
        terms, each key' (p / r) times A or times its letter on A unless
        that is 0, summed in one accumulator."""
        image, letters = self.image_table, self.letters
        acc = {}
        for key, mat in x.terms.items():
            num, den = mat.num, mat.den
            for k, t, p, r in image(i, key):
                if t is None:
                    accumulate(acc, k, num, den * r, p)
                    continue
                m, _, cells = letters[t]
                b = [0] * len(num)
                for o, c, v in cells:
                    b[o] += v * num[c]
                if any(b):
                    accumulate(acc, k, b, m.den * den * r, p)
        return self.element(collect(acc, self.rep.dim))

    # -- the curvature split -------------------------------------------------

    @cached_property
    def bracketed_curvature(self):
        """C - Z, where Z is the sum of the curvature C's terms with no odd
        factor and a c I End V part, once [Z, u_b] = 0 and [Z, x_b] = 0 are
        checked exactly for every b; C itself when any of them is nonzero.
        Z is then central (see `flat`)."""
        curv = self.curvature
        central = {key: mat for key, mat in curv.terms.items()
                   if not key[1] and mat._scalar() is not None}
        if not central:
            return curv
        z = self.element(central)
        if any(not supercommutator(z, gen(b)).is_zero
               for gen in (self.even_gen, self.odd_gen) for b in range(self.lie.dim)):
            return curv
        return self.element({key: mat for key, mat in curv.terms.items() if key not in central})

    def flat_op(self, x):
        """[C, x], the operator whose kernel is the flat subspace, computed
        as [C - Z, x] (`bracketed_curvature`)."""
        return supercommutator(self.bracketed_curvature, x)
