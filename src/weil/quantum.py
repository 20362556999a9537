"""The quantum covariant Weil algebra: U(g) (x) Cl(g) (x) End V.

Requires an orthonormal invariant form (B = identity); with it the
lowered structure constants are totally antisymmetric and the
distinguished elements below make all three operators inner:

    g_a   = -(1/2) f_abc x_b x_c
    gamma = (1/3) x_a g_a = -(1/6) f_abc x_a x_b x_c
    D     = x_a u_a + gamma

L_a, iota_a, and the covariant differential are super-commutators with
u_a + g_a + tau_a, x_a, and D + x_a tau_a respectively: the value's
`inner` holds these elements in the order of the operator table, each
built on first use, and its `_image(i, key)` brackets inner[i] with one
monomial for `element.WeilAlgebra._apply`.  Elements are sparse maps
(PBW monomial, Clifford monomial) -> matrix, with the arithmetic of
`element.Element`; this module supplies the monomial product (PBW times
Clifford).  Parity is the Clifford length mod 2, the filtration degree
of a term is twice the PBW degree plus the Clifford length.
`QuantumAlgebra` is the algebra on one (lie, rep).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import element
from .element import accumulate, supercommutator
from .kernels import add_term, cliff_mono_mul, pbw_mono_mul
from .lie import trivial_rep
from .linalg import Matrix
from .render import TENSOR


class QuantumElement(element.Element):
    LETTERS = ("u", "x")
    JOINER = TENSOR

    def _mono_mul(self, k1, k2):
        cm, cp, cr = cliff_mono_mul(k1[1], k2[1])
        return [((pm, cm), cp * q, cr) if type(q) is int
                else ((pm, cm), cp * q.numerator, cr * q.denominator)
                for pm, q in pbw_mono_mul(k1[0], k2[0], self.lie)]


def _cliff_word(word):
    """Normal form of a product of Clifford generators, as (mono, coeff)."""
    mono, coeff = (), Fraction(1)
    for a in word:
        mono, p, r = cliff_mono_mul(mono, (a,))
        coeff *= Fraction(p, r)
    return mono, coeff


class QuantumAlgebra(element.WeilAlgebra):
    Element = QuantumElement
    KIND = "quantum"
    GRADED = False  # the product only filters; the flat solver runs one <= N block

    def __post_init__(self):
        if not self.lie.has_orthonormal_form:
            raise ValueError(
                "quantum construction needs an orthonormal invariant form (B = identity); "
                f"algebra {self.lie.name or '<unnamed>'} does not carry one"
            )

    # -- the distinguished elements; f^a_bc = f_abc with an orthonormal form

    @cached_property
    def g(self) -> tuple:
        """g_a = -(1/2) f_abc x_b x_c, one per generator."""
        n, ident = self.lie.dim, Matrix.identity(self.rep.dim)
        gs = [{} for _ in range(n)]
        for (b, c), row in self.lie.pair_brackets().items():
            for a, q in row:
                cm, cp, cr = cliff_mono_mul((b,), (c,))
                add_term(gs[a], ((0,) * n, cm), ident * (Fraction(-cp, 2 * cr) * q))
        return tuple(self.element(terms) for terms in gs)

    @cached_property
    def gamma(self) -> QuantumElement:
        """gamma = -(1/6) f_abc x_a x_b x_c, checked against (1/3) x_a g_a."""
        n, ident = self.lie.dim, Matrix.identity(self.rep.dim)
        terms = {}
        for (b, c), row in self.lie.pair_brackets().items():
            for a, q in row:
                cm, cq = _cliff_word((a, b, c))
                add_term(terms, ((0,) * n, cm), ident * (cq * q * Fraction(-1, 6)))
        gamma = self.element(terms)
        third = sum((self.odd_gen(a) * self.g[a] for a in range(n)), self.zero())
        if third * Fraction(1, 3) != gamma:
            raise AssertionError("gamma construction inconsistent: (1/3) x_a g_a != gamma")
        return gamma

    @cached_property
    def dirac(self) -> QuantumElement:
        """D = x_a u_a + gamma."""
        return sum((self.even_gen(a) * self.odd_gen(a) for a in range(self.lie.dim)),
                   self.gamma)

    @cached_property
    def dirac_tau(self) -> QuantumElement:
        """D + x_a tau_a."""
        return sum((self.odd_gen(a) * self.tau(a) for a in range(self.lie.dim)), self.dirac)

    def _inner_element(self, i) -> QuantumElement:
        """The element whose bracket is operator i (see `inner`)."""
        n = self.lie.dim
        return (self.even_gen(i) + self.g[i] + self.tau(i) if i < n
                else self.odd_gen(i - n) if i < 2 * n else self.dirac_tau)

    @cached_property
    def inner(self) -> tuple:
        """The elements whose brackets are the operators, at their indices
        in the table: u_a + g_a + tau_a (L_a), x_a (iota_a), D + x_a tau_a (d)."""
        return tuple(map(self._inner_element, range(2 * self.lie.dim + 1)))

    # -- operators: all three are inner -------------------------------------------

    @cached_property
    def _operator_terms(self) -> dict:
        return {}  # i -> `_inner_terms(i)`, filled per index on first use

    def _inner_terms(self, i):
        """The terms of `_inner_element(i)` as (key, t, p, r): key (p / r) I
        for t None, else key tau_t."""
        if i not in self._operator_terms:
            self._operator_terms[i] = tuple(
                (key, None, c, m.den) if (c := m._scalar()) is not None
                else (key, self.rep.matrices.index(m), 1, 1)
                for key, m in self._inner_element(i).terms.items())
        return self._operator_terms[i]

    def _image(self, i, key):
        """[inner[i], key A], per term k1 M of inner[i] its two sides
        (`bracket_sides`), summed per (key', t) into (pl, pr) by `accumulate`.
        A c I part M gives the plain term (pl + pr) A, a tau_t part the endo
        terms ((pl + pr) {tau_t, A} + (pl - pr) [tau_t, A]) / 2, each over 2r."""
        no_even, no_odd = not any(key[0]), not key[1]
        sums = {}  # (key', t) -> ((pl, pr), r): pl of the M A side, pr of A M
        for k1, t, p1, r1 in self._inner_terms(i):
            if t is None and ((no_even and not k1[1]) or (no_odd and not any(k1[0]))):
                continue  # k1 and key lie in different tensor factors: the sides cancel
            for side, k, p, r in self.bracket_sides(k1, key):
                accumulate(sums, (k, t), (0, p1 * p) if side else (p1 * p, 0), r * r1)
        return (tuple((k, pl + pr, r) for (k, t), ((pl, pr), r) in sums.items()
                      if t is None and pl + pr),
                tuple((k, t, s, p, 2 * r) for (k, t), ((pl, pr), r) in sums.items()
                      if t is not None for s, p in ((1, pl + pr), (-1, pl - pr)) if p))

    def weil_differential(self, x: QuantumElement) -> QuantumElement:
        """The uncoupled differential ad(D); differs from the covariant one
        on the Clifford generators whenever the representation is nonzero."""
        return supercommutator(self.dirac, x)

    # -- curvature -------------------------------------------------------------------

    def four_term_curvature(self) -> QuantumElement:
        """(1/2)(u_a u_a + 2 u_a tau_a + tau_a tau_a) + gamma^2, written down
        term by term with gamma^2 from its closed form: no element products."""
        n, d = self.lie.dim, self.rep.dim
        ident = Matrix.identity(d)
        terms = {}
        tau_sq = Matrix.zeros(d, d)
        for a in range(n):
            mono = tuple(2 * int(i == a) for i in range(n))
            add_term(terms, (mono, ()), ident * Fraction(1, 2))
            ta = self.rep.matrices[a]
            if ta:
                add_term(terms, (tuple(int(i == a) for i in range(n)), ()), ta)
                tau_sq = tau_sq + ta * ta
        const = tau_sq * Fraction(1, 2) + ident * gamma_square_formula(self.lie)
        if const:
            add_term(terms, ((0,) * n, ()), const)
        return self.element(terms)

    @cached_property
    def curvature(self) -> QuantumElement:
        """Quantum curvature (1/2)(u_a u_a + 2 u_a tau_a + tau_a tau_a + 2 gamma^2).

        Also derived independently as the square of D + x_a tau_a; the two
        must agree exactly.  `checks.quantum_suite` reports the same
        comparison as a row instead of raising.
        """
        curv = self.four_term_curvature()
        if curv != self.dirac_tau * self.dirac_tau:
            raise AssertionError("four-term curvature formula disagrees with (D + x tau)^2")
        return curv


def curvature(lie, rep) -> QuantumElement:
    """The curvature of a fresh `QuantumAlgebra(lie, rep)`."""
    return QuantumAlgebra(lie, rep).curvature


def gamma_square_formula(lie) -> Fraction:
    """-(1/48) sum f_abc^2: the scalar that gamma^2 must equal."""
    total = sum(q * q for row in lie.pair_brackets().values() for _, q in row)
    return -Fraction(total) / 48


def gamma_squared(lie) -> Fraction:
    """gamma^2 as a scalar, cross-checked against -(1/48) sum f_abc^2."""
    gamma = QuantumAlgebra(lie, trivial_rep(lie)).gamma
    value = Fraction(0)
    for (p, c), m in (gamma * gamma).terms.items():
        if any(p) or c != ():
            raise AssertionError("gamma^2 is not a scalar")
        value = m.scalar_value()  # a 1x1 matrix: the trivial representation
    formula = gamma_square_formula(lie)
    if value != formula:
        raise AssertionError(f"gamma^2 = {value} but -(1/48) sum f^2 = {formula}")
    return value
