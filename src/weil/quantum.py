"""The quantum covariant Weil algebra: U(g) (x) Cl(g) (x) End V.

Requires an orthonormal invariant form (B = identity); with it the
lowered structure constants are totally antisymmetric and the
distinguished elements below make all three operators inner:

    g_a   = -(1/2) f_abc x_b x_c
    gamma = (1/3) x_a g_a = -(1/6) f_abc x_a x_b x_c
    D     = x_a u_a + gamma

L_a, iota_a, and the covariant differential are super-commutators with
u_a + g_a + tau_a, x_a, and D + x_a tau_a respectively.  Elements are
sparse maps (PBW monomial, Clifford monomial) -> matrix, with the
arithmetic of `element.Element`; this module supplies the monomial
product (PBW times Clifford).  Parity is the Clifford length mod 2, the
filtration degree of a term is twice the PBW degree plus the Clifford
length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import element
from .element import CACHE_SIZE, supercommutator
from .kernels import add_term, cliff_mono_mul, pbw_mono_mul
from .lie import trivial_rep
from .linalg import Matrix
from .render import TENSOR

GRADED = False  # the product only filters; the flat solver runs one <= N block


def _require_orthonormal(lie):
    if not lie.has_orthonormal_form:
        raise ValueError(
            "quantum construction needs an orthonormal invariant form (B = identity); "
            f"algebra {lie.name or '<unnamed>'} does not carry one"
        )


class QuantumElement(element.Element):
    LETTERS = ("u", "x")
    JOINER = TENSOR
    admit = staticmethod(_require_orthonormal)

    def _mono_mul(self, k1, k2):
        cm, cp, cr = cliff_mono_mul(k1[1], k2[1])
        return [((pm, cm), cp * q, cr) if type(q) is int
                else ((pm, cm), cp * q.numerator, cr * q.denominator)
                for pm, q in pbw_mono_mul(k1[0], k2[0], self.lie)]


Element = QuantumElement
zero, unit, scalar = Element.zero, Element.unit, Element.scalar
endo, tau, u_gen, x_gen = Element.endo, Element.tau, Element.even_gen, Element.odd_gen


@dataclass(eq=False)
class Distinguished:
    """g_a, gamma, the Dirac-type element D, and its coupled version."""

    g: tuple
    gamma: QuantumElement
    dirac: QuantumElement
    dirac_tau: QuantumElement
    lie_elements: tuple  # u_a + g_a + tau_a, one per generator


@lru_cache(maxsize=CACHE_SIZE)
def distinguished(lie, rep) -> Distinguished:
    _require_orthonormal(lie)
    n = lie.dim
    ident = Matrix.identity(rep.dim)
    empty = (0,) * n

    # f^a_bc = f_abc with an orthonormal form
    gs, gterms = [{} for _ in range(n)], {}
    for (b, c), row in lie.pair_brackets().items():
        for a, q in row:
            cm, cp, cr = cliff_mono_mul((b,), (c,))
            add_term(gs[a], (empty, cm), ident * (Fraction(-cp, 2 * cr) * q))
            cm, cq = _cliff_word((a, b, c))
            add_term(gterms, (empty, cm), ident * (cq * q * Fraction(-1, 6)))
    g = tuple(QuantumElement(lie, rep, terms) for terms in gs)
    gamma = QuantumElement(lie, rep, gterms)

    third = sum((x_gen(lie, rep, a) * g[a] for a in range(n)), zero(lie, rep)) * Fraction(1, 3)
    if third != gamma:
        raise AssertionError("gamma construction inconsistent: (1/3) x_a g_a != gamma")

    dirac = gamma
    for a in range(n):
        dirac = dirac + u_gen(lie, rep, a) * x_gen(lie, rep, a)
    dirac_tau = dirac
    for a in range(n):
        dirac_tau = dirac_tau + x_gen(lie, rep, a) * tau(lie, rep, a)

    lie_elements = tuple(u_gen(lie, rep, a) + g[a] + tau(lie, rep, a) for a in range(n))
    return Distinguished(g, gamma, dirac, dirac_tau, lie_elements)


def _cliff_word(word):
    """Normal form of a product of Clifford generators, as (mono, coeff)."""
    mono, coeff = (), Fraction(1)
    for a in word:
        mono, p, r = cliff_mono_mul(mono, (a,))
        coeff *= Fraction(p, r)
    return mono, coeff


def lie_derivative(a, x: QuantumElement) -> QuantumElement:
    return supercommutator(distinguished(x.lie, x.rep).lie_elements[a], x)


def contraction(a, x: QuantumElement) -> QuantumElement:
    return supercommutator(x_gen(x.lie, x.rep, a), x)


def differential(x: QuantumElement) -> QuantumElement:
    """The covariant differential ad(D + x_a tau_a)."""
    return supercommutator(distinguished(x.lie, x.rep).dirac_tau, x)


def weil_differential(x: QuantumElement) -> QuantumElement:
    """The uncoupled differential ad(D); differs from the covariant one
    on the Clifford generators whenever the representation is nonzero."""
    return supercommutator(distinguished(x.lie, x.rep).dirac, x)


def gamma_square_formula(lie) -> Fraction:
    """-(1/48) sum f_abc^2: the scalar that gamma^2 must equal."""
    total = sum(q * q for row in lie.pair_brackets().values() for _, q in row)
    return -Fraction(total) / 48


def gamma_squared(lie) -> Fraction:
    """gamma^2 as a scalar, cross-checked against -(1/48) sum f_abc^2."""
    rep = trivial_rep(lie)
    gamma = distinguished(lie, rep).gamma
    sq = gamma * gamma
    n = lie.dim
    value = Fraction(0)
    for (p, c), m in sq.terms.items():
        if p != (0,) * n or c != ():
            raise AssertionError("gamma^2 is not a scalar")
        value = m.scalar_value()
        if value is None:
            raise AssertionError("gamma^2 matrix part is not scalar")
    formula = gamma_square_formula(lie)
    if value != formula:
        raise AssertionError(f"gamma^2 = {value} but -(1/48) sum f^2 = {formula}")
    return value


def four_term_curvature(lie, rep) -> QuantumElement:
    """(1/2)(u_a u_a + 2 u_a tau_a + tau_a tau_a) + gamma^2, written down
    term by term with gamma^2 from its closed form: no element products."""
    _require_orthonormal(lie)
    n = lie.dim
    d = rep.dim
    ident = Matrix.identity(d)
    terms = {}
    tau_sq = Matrix.zeros(d, d)
    for a in range(n):
        mono = tuple(2 * int(i == a) for i in range(n))
        add_term(terms, (mono, ()), ident * Fraction(1, 2))
        ta = rep.matrices[a]
        if ta:
            add_term(terms, (tuple(int(i == a) for i in range(n)), ()), ta)
            tau_sq = tau_sq + ta * ta
    const = tau_sq * Fraction(1, 2) + ident * gamma_square_formula(lie)
    if const:
        add_term(terms, ((0,) * n, ()), const)
    return QuantumElement(lie, rep, terms)


@lru_cache(maxsize=CACHE_SIZE)
def curvature(lie, rep) -> QuantumElement:
    """Quantum curvature (1/2)(u_a u_a + 2 u_a tau_a + tau_a tau_a + 2 gamma^2).

    Also derived independently as the square of D + x_a tau_a; the two
    must agree exactly.  `checks.quantum_suite` reports the same
    comparison as a row instead of raising.
    """
    curv = four_term_curvature(lie, rep)
    dist = distinguished(lie, rep)
    if curv != dist.dirac_tau * dist.dirac_tau:
        raise AssertionError("four-term curvature formula disagrees with (D + x tau)^2")
    return curv


def casimir_report(lie) -> dict:
    """Centrality of u_a u_a and the value of D^2, on the trivial rep."""
    rep = trivial_rep(lie)
    n = lie.dim
    cas = zero(lie, rep)
    for a in range(n):
        cas = cas + u_gen(lie, rep, a) * u_gen(lie, rep, a)
    central = True
    for b in range(n):
        if not supercommutator(cas, u_gen(lie, rep, b)).is_zero:
            central = False
        if not supercommutator(cas, x_gen(lie, rep, b)).is_zero:
            central = False
    dist = distinguished(lie, rep)
    dsq = dist.dirac * dist.dirac
    g2 = gamma_square_formula(lie)
    expected = cas * Fraction(1, 2) + scalar(lie, rep, g2)
    return {
        "casimir_central": central,
        "dirac_square_matches": dsq == expected,
        "gamma_squared": g2,
    }
