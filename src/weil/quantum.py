"""The quantum covariant Weil algebra: U(g) (x) Cl(g) (x) End V.

Requires an orthonormal invariant form (B = identity); with it the
lowered structure constants are totally antisymmetric and the
distinguished elements below, each built from the ones before it with
the value's own product, make all three operators inner:

    g_a = -(1/2) f_abc x_b x_c,  gamma = (1/3) x_a g_a,  D = x_a u_a + gamma

The curvature (1/2) sum_a (u_a + tau_a)^2 + gamma^2, gamma^2 being the
scalar -(1/48) sum f_abc^2, must equal (D + x_a tau_a)^2 (Alekseev and
Meinrenken, Invent. Math. 139, 2000), which checks g_a and gamma.

L_a, iota_a, and the covariant differential are super-commutators with
u_a + g_a + tau_a, x_a, and D + x_a tau_a respectively: the value's
`inner` is the table of these 2n + 1 elements, built at once as the
classical `derivations` are, read once into `inner_operands`
(`element.WeilAlgebra.bracket_operand`), and its `_image(i, key)`
brackets inner[i] with one monomial in the shared table
`element.WeilAlgebra.bracket_terms`, for `_apply`: a tau_a part of
inner[i] gives letters (tau_a, +1) and (tau_a, -1), an anticommutator
and a commutator, and a c I part a plain term.  Elements are sparse maps
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
from .element import supercommutator
from .kernels import cliff_mono_mul, pbw_mono_mul
from .render import TENSOR


class QuantumElement(element.Element):
    LETTERS = ("u", "x")
    JOINER = TENSOR

    def _mono_mul(self, k1, k2):
        cm, cp, cr = cliff_mono_mul(k1[1], k2[1])
        return [((pm, cm), cp * q, cr) if type(q) is int
                else ((pm, cm), cp * q.numerator, cr * q.denominator)
                for pm, q in pbw_mono_mul(k1[0], k2[0], self.lie.bracket_table)]


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
        """g_a = -(1/2) f^a_bc x_b x_c, one per generator."""
        x, gs = self.odd_gen, [self.zero()] * self.lie.dim
        for (b, c), row in self.lie.pair_brackets().items():
            xbc = x(b) * x(c)
            for a, q in row:
                gs[a] = gs[a] + xbc * (Fraction(-1, 2) * q)
        return tuple(gs)

    @cached_property
    def gamma(self) -> QuantumElement:
        """gamma = (1/3) x_a g_a."""
        return Fraction(1, 3) * sum((self.odd_gen(a) * g for a, g in enumerate(self.g)), self.zero())

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
        """The elements whose brackets are the operators of the table: u_a
        + g_a + tau_a (L_a, index a), x_a (iota_a, n + a) and D + x_a tau_a
        (d, 2n), each `_inner_element(i)`."""
        return tuple(self._inner_element(i) for i in range(2 * self.lie.dim + 1))

    @cached_property
    def inner_operands(self) -> tuple:
        """`inner` read once for `bracket_terms`: each `bracket_operand`."""
        return tuple(self.bracket_operand(x) for x in self.inner)

    # -- operators: all three are inner -------------------------------------------

    def _image(self, i, key):
        """[inner[i], key A] (`bracket_terms`)."""
        return self.bracket_terms(self.inner_operands[i], key)

    def weil_differential(self, x: QuantumElement) -> QuantumElement:
        """The uncoupled differential ad(D); differs from the covariant one
        on the Clifford generators whenever the representation is nonzero."""
        return supercommutator(self.dirac, x)

    # -- curvature -------------------------------------------------------------------

    def four_term_curvature(self) -> QuantumElement:
        """(1/2) sum_a (u_a + tau_a)^2 + gamma^2 in the algebra's own product,
        with gamma^2 the closed form -(1/48) sum f^2 times I, not built from
        g, so that `curvature`'s comparison still checks g and gamma."""
        deltas = [self.even_gen(a) + self.tau(a) for a in range(self.lie.dim)]
        return (sum((da * da for da in deltas), self.zero()) * Fraction(1, 2)
                + self.scalar(gamma_square_formula(self.lie)))

    @cached_property
    def curvature(self) -> QuantumElement:
        """The quantum curvature, `four_term_curvature()`.

        Also derived independently as the square of D + x_a tau_a; the two
        must agree exactly, so a wrong g or gamma raises here.
        `checks.quantum_suite` reports the same comparison as a row instead
        of raising.
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
