"""The quantum covariant Weil algebra: U(g) (x) Cl(g) (x) End V.

Requires an orthonormal invariant form (B = identity); with it the
lowered structure constants are totally antisymmetric and the
distinguished elements below make all three operators inner:

    g_a   = -(1/2) f_abc x_b x_c
    gamma = (1/3) x_a g_a = -(1/6) f_abc x_a x_b x_c
    D     = x_a u_a + gamma

L_a, iota_a, and the covariant differential are super-commutators with
u_a + g_a + tau_a, x_a, and D + x_a tau_a respectively.  Elements are
sparse maps (PBW monomial, Clifford monomial) -> matrix; parity is the
Clifford length mod 2, the filtration degree of a term is twice the PBW
degree plus the Clifford length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .kernels import add_term, cliff_mono_mul, pbw_mono_mul
from .lie import trivial_rep
from .linalg import Matrix


def _require_orthonormal(lie):
    if lie.form is None or not lie.form.is_orthonormal:
        raise ValueError(
            "quantum construction needs an orthonormal invariant form (B = identity); "
            f"algebra {lie.name or '<unnamed>'} does not carry one"
        )


@dataclass(eq=False)
class QuantumElement:
    lie: object
    rep: object
    terms: dict  # (PBW exponents, Clifford indices) -> Matrix

    def _check_same(self, other):
        if self.lie is not other.lie or self.rep is not other.rep:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return QuantumElement(self.lie, self.rep, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return QuantumElement(self.lie, self.rep, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return zero(self.lie, self.rep)
            return QuantumElement(self.lie, self.rep,
                                  {m: c * q for m, c in self.terms.items()})
        self._check_same(other)
        out = {}
        for (p1, c1), m1 in self.terms.items():
            for (p2, c2), m2 in other.terms.items():
                prod = m1 * m2
                if not prod:
                    continue
                cm, cq = cliff_mono_mul(c1, c2)
                for pm, pq in pbw_mono_mul(p1, p2, self.lie):
                    add_term(out, (pm, cm), prod * (pq * cq))
        return QuantumElement(self.lie, self.rep, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, QuantumElement):
            return NotImplemented
        return self.lie is other.lie and self.rep is other.rep and self.terms == other.terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def parity_parts(self):
        parts = ({}, {})
        for (p, c), m in self.terms.items():
            parts[len(c) % 2][(p, c)] = m
        return [(par, QuantumElement(self.lie, self.rep, t))
                for par, t in enumerate(parts) if t]

    def degrees(self):
        """Filtration degrees 2j + k present among the terms."""
        return sorted({2 * sum(p) + len(c) for (p, c) in self.terms})

    def __repr__(self):
        from .render import render_quantum
        return f"<{render_quantum(self)}>"


def zero(lie, rep) -> QuantumElement:
    return QuantumElement(lie, rep, {})


def unit(lie, rep) -> QuantumElement:
    _require_orthonormal(lie)
    return QuantumElement(lie, rep, {(((0,) * lie.dim), ()): Matrix.identity(rep.dim)})


def scalar(lie, rep, q) -> QuantumElement:
    return unit(lie, rep) * Fraction(q)


def u_gen(lie, rep, a) -> QuantumElement:
    _require_orthonormal(lie)
    mono = tuple(int(i == a) for i in range(lie.dim))
    return QuantumElement(lie, rep, {(mono, ()): Matrix.identity(rep.dim)})


def x_gen(lie, rep, a) -> QuantumElement:
    _require_orthonormal(lie)
    return QuantumElement(lie, rep, {(((0,) * lie.dim), (a,)): Matrix.identity(rep.dim)})


def endo(lie, rep, mat: Matrix) -> QuantumElement:
    _require_orthonormal(lie)
    if mat.rows != rep.dim or mat.cols != rep.dim:
        raise ValueError(f"matrix must be {rep.dim}x{rep.dim}")
    if not mat:
        return zero(lie, rep)
    return QuantumElement(lie, rep, {(((0,) * lie.dim), ()): mat})


def tau(lie, rep, a) -> QuantumElement:
    return endo(lie, rep, rep.matrices[a]) if rep.matrices[a] else zero(lie, rep)


def supercommutator(x: QuantumElement, y: QuantumElement) -> QuantumElement:
    x._check_same(y)
    out = zero(x.lie, x.rep)
    for p, xp in x.parity_parts():
        for q, yq in y.parity_parts():
            if p * q:
                out = out + xp * yq + yq * xp
            else:
                out = out + xp * yq - yq * xp
    return out


@dataclass(eq=False)
class Distinguished:
    """g_a, gamma, the Dirac-type element D, and its coupled version."""

    g: tuple
    gamma: QuantumElement
    dirac: QuantumElement
    dirac_tau: QuantumElement
    lie_elements: tuple  # u_a + g_a + tau_a, one per generator


@lru_cache(maxsize=None)
def distinguished(lie, rep) -> Distinguished:
    _require_orthonormal(lie)
    n = lie.dim
    ident = Matrix.identity(rep.dim)
    empty = (0,) * n

    g = []
    for a in range(n):
        terms = {}
        for r in range(n):
            for s in range(n):
                q = lie.f(r, s, a)  # f_ars with an orthonormal form
                if not q:
                    continue
                cm, cq = cliff_mono_mul((r,), (s,))
                add_term(terms, (empty, cm), ident * (cq * q * Fraction(-1, 2)))
        g.append(QuantumElement(lie, rep, terms))
    g = tuple(g)

    gterms = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                q = lie.f(b, c, a)
                if not q:
                    continue
                cm, cq = _cliff_word((a, b, c))
                add_term(gterms, (empty, cm), ident * (cq * q * Fraction(-1, 6)))
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

    lie_elements = tuple(
        u_gen(lie, rep, a) + g[a] + tau(lie, rep, a) for a in range(n)
    )
    return Distinguished(g, gamma, dirac, dirac_tau, lie_elements)


def _cliff_word(word):
    """Normal form of a product of Clifford generators, as (mono, coeff)."""
    mono, coeff = (), Fraction(1)
    for a in word:
        mono, q = cliff_mono_mul(mono, (a,))
        coeff *= q
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
    n = lie.dim
    total = Fraction(0)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                total += lie.f(b, c, a) ** 2
    return -total / 48


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


@lru_cache(maxsize=None)
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
