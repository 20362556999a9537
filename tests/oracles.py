"""Oracles: the obvious routines that faster code in `weil` replaced.

The word-rewriting routines are what `weil.kernels` used before its
closed-form Clifford product and memoized PBW left multiplication: the
Clifford routines take a general symmetric form B, and the PBW routine
straightens a whole letter word with either of two rewriting strategies.
`fraction_pbw_left` and `fraction_pbw_mono_mul` are that memoized left
multiplication before its coefficients became ints on an integral
algebra: every coefficient is a Fraction, and each f^c_ab is read by
`LieData.f`, not from `pair_brackets`.
`full_flat_basis` is the per-index-block flat solve that `weil.flat`
used before it derived the full flat basis from the horizontal one;
`derived_full_flat_basis` is that derived basis as `weil.flat` built it
before its reports stopped building it.  `rebracket_decomposition_report`
and `list_closure_report` are those reports: the first brackets each of
the 2^n dim derived vectors again, the second draws its samples from the
built list.  `rank_inclusion_report` is `weil.flat.inclusion_report`
before its columns were decided by premises: each row compares spans by
three ranks, span(flat + basic), span(module) and span(flat + module),
and brackets nothing with C.
`full_flat_op` is `WeilAlgebra.flat_op` before it bracketed with the
curvature minus its checked central part: it brackets with the whole
curvature, and every flat oracle here brackets through it.  The flat
oracles take a `WeilAlgebra` value, or a `flat_subspace` result.
`element_basic_subspace` and `element_flat_subspace` are
`weil.flat`'s solves before their rows were written from per-monomial
tables: each domain vector m (x) E_ij is an element (`hor_basis`), its
L_a or [C, .] images are element operators and brackets, read into
integer rows by `coord_matrix`, and each kernel vector is
summed back from the domain elements (`element_kernel`).
`level_solve` is the basic / flat solve before it read every level off
one basis: it re-solves the whole <= k block for each level k
quantum-side, and returns the rows, level k listing that block's kernel
(the monomials of a row are `level_monomials`, `weil.flat._at_level`
on monomials levelled by their degree).  It runs on the dense Fraction kernel path that
`weil.flat` used before its solves stayed in integers: `element_coords`
and `lie_stacked_coords` turn images into sparse Fraction coordinates,
`dense_coord_matrix` lays them out as a `FractionMatrix`, and
`dense_kernel` solves it with `fraction_nullspace`, whose back
substitution makes one Fraction per cell.
`_echelon`, `rank` and `nullspace` are `weil.linalg`'s dense
elimination before it took sparse rows: it sweeps every row below each
pivot of a `Matrix`'s numerator rows (`_integer_rows`).
`FractionMatrix` is the `weil.linalg.Matrix` that stored one Fraction
per entry, before numerators moved over one common denominator; with it
go the row conversion and the rank/nullspace entry points it fed to
`_echelon`.  `dense_validate_lie` and
`dense_validate_form` are `weil.lie`'s validators before the Jacobi and
invariance sums ran over the nonzero structure constants only;
`dense_lie_tables` builds `LieData.pair_brackets` and the generator
images of the classical L_a and d, and `dense_adjoint_rep` the adjoint
representation, by scanning every index triple.
`lie_derivative`, `contraction` and `differential` are `weil.classical`'s
operators before they became one Leibniz rule over generator images:
each writes the rule out by hand, and `differential` computes all n
commutators [tau_b, A] of every term, c I parts included.
`slot_leibniz` is that one rule, for a derivation of
`ClassicalAlgebra.derivations`, before its monomial images and
commutators were read from tables: it walks the product-rule slots of
every term on every call, normalizes each y-word, and computes each
commutator [tau_b, A] afresh.
`bracket_apply` is `QuantumAlgebra`'s operator before its images were
read per monomial from the value's tables: the whole supercommutator
[inner[i], x], both halves of every term pair, with the leading terms
that cancel built and summed.
`bracket_terms` is `WeilAlgebra.bracket_terms` before it read a
prepared operand (`WeilAlgebra.bracket_operand`): it tests every term of
x for c I on every call, sums each (key', term) as a pair of numerators
through `weil.element.accumulate`, and looks up each letter it names by
its (M, s) in `WeilAlgebra.letter`.
`row_combination_mul` and `two_product_commutator` are `Matrix`'s
product and commutator before both walked the nonzero entries of the
sparser factor: the product combines, for each row of the left factor,
the rows of the right one with that row's weights, and the commutator
takes two such products and their difference.
`element_mul` and `parity_supercommutator` are `weil.element`'s product
and supercommutator before the bracket became one pass: every term pair
makes a dense matrix product (`row_combination_mul`, even for a factor
c I, which `weil.element._products` now only scales), and the bracket
splits both factors into parity parts and adds up four element products
per pair of parts.  Both add each term as a canonical `Matrix` (`add_term`),
as `weil.element` did before its products, brackets and derivations
summed raw numerators into one accumulator per result key;
`add_scaled` is that per-term step for a coefficient p / r (`sub_term`
subtracting for -1), and the classical operator oracles below still add
through it.
`operator_identities`, `classical_rows` and `quantum_rows` are
`weil.checks`' identity rows before each case summed its two sides into
one accumulator: every side is a canonical element, built through
`+`, `-` and scalar products, and the two sides are compared with `==`.
Their seven structure rows come from `structure_rows`, which reads no
distinguished element off the value: g_a and gamma are `term_g` and
`scan_gamma`, D is keyed term by term, and the sides are compared
through `element_mul` and `parity_supercommutator`.  `_row` formats
every row as the suites print it, so no row text comes from `weil.checks`.
`scalar_weil_differential` is the reference differential that
`weil.checks` computed on scalar polynomials (dicts (sym, ext) ->
Fraction) before it summed per-key images of the algebra's own
elements: its generator images, partial derivatives and product are
Fraction polynomials, and `embed_scalar_poly` tensors a polynomial with
I.
`fraction_random_scalar`, `fraction_random_matrix` and
`fraction_random_element` are `weil.checks`' random draws before they read
prebuilt values: each scalar is a new Fraction and each matrix goes
through `Matrix.__init__`, one Fraction per entry; the identity-row
oracles draw their elements through them.
`fraction_render` is `weil.render.render` before it printed from the
canonical integers: each c I part becomes a Fraction, `_scalar()` over
`den`, its sign is flipped on a Fraction and its magnitude printed by
`format_scalar`; `fraction_matrix_render` is `Matrix.render` before it
printed from the numerators, each entry a Fraction from `row`.
`sym_poly_mul`, `ext_poly_mul`, `cliff_poly_mul` and `pbw_poly_mul`
multiply whole polynomials (dicts monomial -> coefficient) term by term
through `weil.kernels`' monomial products, and `matrix_rows` lists the
rows of a `weil.linalg.Matrix`; `weil` itself never needs them.
They are kept unchanged so that the fast code can be tested against an
obvious, independently written reference.
`symbol_mismatches` replaces nothing: it ties the quantum construction
to the classical one through the symbol map u_a -> v^a, x_a -> y^a.
`term_g`, `scan_gamma`, `term_four_term_curvature` and
`term_classical_curvature` are the distinguished elements as `weil`
wrote them term by term before it built each from the one before with
the algebra's own product: g_a and gamma add one Clifford normal form
per pair or triple of a scan of the f_abc, and the curvatures are
keyed terms written down with no element product.
`quantum_quotient` replaces nothing: it is the quotient of the quantum
algebra by the ideal of the u's, acyclic by a theorem (Measurements,
ROADMAP item 27(c)).  Nor does `ce_quotient_cohomology`: the quotient of
the classical algebra by the ideal of the v's is the Chevalley-Eilenberg
complex of g with coefficients in End V (ROADMAP item 27(b)), and
`commutant_dim` is dim (End V)^g.
"""

from __future__ import annotations

import random
from fractions import Fraction
from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from weil.checks import CheckResult, _random_key, random_scalar_weil_poly, random_sym_poly
from weil.classical import ClassicalAlgebra, ClassicalElement
from weil.element import accumulate, collect, supercommutator
from weil.flat import (SubspaceResult, _at_level, _odd_premise_failure, basic_subspace,
                       degree_monomials, monomials_up_to, span_rank)
from weil.lie import BilinearForm, FormReport, LieData, RepData, ValidationReport
from weil.linalg import Matrix, format_scalar, kernel
from weil.linalg import rank as sparse_rank
from weil.quantum import QuantumAlgebra, gamma_square_formula
from weil.render import TENSOR, _gen_string, _index_string, _join, render
from weil.kernels import (_bump, add_term, cliff_mono_mul as orthonormal_cliff_mono_mul,
                          ext_mono_mul, ext_normalize, pbw_mono_mul as cached_pbw_mono_mul,
                          pbw_word, sym_mono_mul)


# -- polynomial products on the kernels' monomial products --------------------

def sym_poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            add_term(out, sym_mono_mul(m1, m2), c1 * c2)
    return out


def ext_poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            r = ext_mono_mul(m1, m2)
            if r is None:
                continue
            sign, m = r
            c = c1 * c2
            add_term(out, m, c if sign > 0 else -c)
    return out


def cliff_poly_mul(a: dict, b: dict) -> dict:
    """Product in the Clifford algebra of the orthonormal form B = I."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, p, r = orthonormal_cliff_mono_mul(m1, m2)
            add_term(out, m, c1 * c2 * Fraction(p, r))
    return out


def pbw_poly_mul(a: dict, b: dict, lie) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = c1 * c2
            for m, q in cached_pbw_mono_mul(m1, m2, lie.bracket_table):
                add_term(out, m, c * q)
    return out


def matrix_rows(m: Matrix):
    """The rows of a `weil.linalg.Matrix` as lists of Fractions."""
    return [list(m.row(i)) for i in range(m.rows)]


# -- the dense elimination -----------------------------------------------------

def _integer_rows(m: Matrix):
    """The numerator rows of m: m scaled by its denominator (kernel unchanged)."""
    c = m.cols
    return [list(m.num[i * c:(i + 1) * c]) for i in range(m.rows)]


def _echelon(rows):
    """Fraction-free forward elimination in place; returns pivot columns.

    Pivot rule: leftmost column with a nonzero entry, lowest row index.
    Rows are gcd-normalized after each step to keep integers small.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if v == 0:
                continue
            row = rows[i]
            top = rows[r]
            for j in range(c, ncols):
                row[j] = row[j] * piv - top[j] * v
            g = 0
            for j in range(c, ncols):
                g = gcd(g, row[j])
            if g > 1:
                for j in range(c, ncols):
                    row[j] //= g
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(m: Matrix) -> int:
    return len(_echelon(_integer_rows(m)))


def nullspace(m: Matrix) -> list[Matrix]:
    """Exact basis of the right kernel, one column vector per free column.

    Each vector has its free variable set to 1 and the other free
    variables 0; the basis is ordered by free column index, so the output
    is deterministic.  Back substitution keeps a vector as integers over
    one denominator and touches only its nonzero entries; pivots right
    of the free column meet only zeros and are skipped.
    """
    rows = _integer_rows(m)
    pivots = _echelon(rows)
    n = m.cols
    basis = []
    for fc in sorted(set(range(n)).difference(pivots)):
        vec, den = {fc: 1}, 1
        for k in range(bisect_left(pivots, fc) - 1, -1, -1):
            row = rows[k]
            s = sum([row[j] * x for j, x in vec.items()])
            if not s:
                continue
            # entry pc is -s / (p den): bring the vector over den * |p / g|
            pc = pivots[k]
            p = row[pc]
            g = gcd(s, p) if p > 0 else -gcd(s, p)
            s, p = s // g, p // g
            if p != 1:
                for j in vec:
                    vec[j] *= p
                den *= p
            vec[pc] = -s
        basis.append(Matrix._canonical(n, 1, [vec.get(j, 0) for j in range(n)], den))
    return basis


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
        for c, q in lie.pair_brackets().get((a, b), ()):
            stack.append((-coeff * q, w[:bad] + [c] + w[bad + 2:]))
    return out


@lru_cache(maxsize=None)
def pbw_mono_mul(m1, m2, lie, strategy="leftmost"):
    d = pbw_word_mul(pbw_word(m1) + pbw_word(m2), lie, strategy)
    return tuple(sorted(d.items()))


@lru_cache(maxsize=None)
def fraction_pbw_left(a, mono, lie):
    """`weil.kernels._pbw_left` on Fractions only: u_a times u^mono with the
    seed Fraction(1), every f^c_ba a Fraction read by `lie.f`."""
    b = next((i for i, k in enumerate(mono) if k), a)
    if b >= a:
        return ((_bump(mono, a, 1), Fraction(1)),)
    rest = _bump(mono, b, -1)
    out = {}
    for m, q in fraction_pbw_left(a, rest, lie):
        for m2, q2 in fraction_pbw_left(b, m, lie):
            add_term(out, m2, q * q2)
    for c in range(lie.dim):  # [u_a, u_b] = -f^c_ba u_c
        if f := lie.f(b, a, c):
            for m, q in fraction_pbw_left(c, rest, lie):
                add_term(out, m, -f * q)
    return tuple(out.items())


@lru_cache(maxsize=None)
def fraction_pbw_mono_mul(m1, m2, lie):
    """`weil.kernels.pbw_mono_mul` on Fractions only, through `fraction_pbw_left`."""
    terms = {m2: Fraction(1)}
    for a in reversed(pbw_word(m1)):
        nxt = {}
        for m, c in terms.items():
            for m3, q in fraction_pbw_left(a, m, lie):
                add_term(nxt, m3, c * q)
        terms = nxt
    return tuple(sorted(terms.items()))


def mul_pbw(a: dict, b: dict, lie, strategy="leftmost") -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = c1 * c2
            for m, q in pbw_mono_mul(m1, m2, lie, strategy):
                add_term(out, m, c * q)
    return out


# -- End V products by row combination -----------------------------------------

def row_combination_mul(self, other):
    """The product of shape-compatible matrices: row i combines the
    rows t of `other` with weights self[i, t], skipping zero weights
    and zero rows."""
    k, m = self.cols, other.cols
    a, b = self.num, other.num
    brows = [b[t * m:(t + 1) * m] for t in range(k)]
    live = [t for t in range(k) if any(brows[t])]
    zero = (0,) * m
    num = []
    for i in range(0, self.rows * k, k):
        acc = None
        for t in live:
            v = a[i + t]
            if v:
                if acc is None:
                    acc = [v * x for x in brows[t]]
                else:
                    acc = [x + v * y for x, y in zip(acc, brows[t])]
        num.extend(zero if acc is None else acc)
    return Matrix._canonical(self.rows, m, num, self.den * other.den)


def two_product_commutator(self, other):
    """ab - ba; both matrices must be square of the same size."""
    if self.rows != self.cols or other.rows != other.cols:
        raise ValueError("commutator needs square matrices")
    self._check_same_shape(other)
    if self._scalar() is not None or other._scalar() is not None:
        return Matrix.zeros(self.rows, self.cols)
    return row_combination_mul(self, other) - row_combination_mul(other, self)


# -- element products with a dense matrix product per term pair ----------------

def sub_term(acc: dict, mono, coeff):
    """acc[mono] -= coeff, dropping the key when the difference vanishes;
    coeff is negated only when mono is new to acc."""
    cur = acc.get(mono)
    new = -coeff if cur is None else cur - coeff
    if new:
        acc[mono] = new
    elif cur is not None:
        del acc[mono]


def add_scaled(acc: dict, key, mat: Matrix, p: int, r: int = 1):
    """acc[key] += mat * (p / r) for integers p and r > 0, one canonical
    `Matrix` per term; for p / r = -1 mat is subtracted, with no negated
    copy."""
    if r == 1 and (p == 1 or p == -1):
        (add_term if p == 1 else sub_term)(acc, key, mat)
    else:
        add_term(acc, key, mat._scale(p, r))


def element_mul(x, y):
    """`Element.__mul__` on two elements before the single-pass product:
    one dense matrix product per term pair, whatever the factors, and one
    canonical `add_term` per term of each monomial product."""
    x._check_same(y)
    mono_mul = x._mono_mul
    out = {}
    for k1, m1 in x.terms.items():
        for k2, m2 in y.terms.items():
            prod = row_combination_mul(m1, m2)
            if not prod:
                continue
            for key, p, r in mono_mul(k1, k2):
                add_term(out, key, prod * Fraction(p, r))
    return type(x)(x.lie, x.rep, out)


def parity_parts(x):
    """Split into (parity, homogeneous part) by odd length mod 2."""
    parts = ({}, {})
    for key, m in x.terms.items():
        parts[len(key[1]) % 2][key] = m
    return [(p, type(x)(x.lie, x.rep, t)) for p, t in enumerate(parts) if t]


def parity_supercommutator(x, y):
    """[x, y] = xy - (-1)^{|x||y|} yx, from the homogeneous parts of x
    and y and four element products per pair of parts."""
    x._check_same(y)
    out = type(x)(x.lie, x.rep, {})
    for p, xp in parity_parts(x):
        for q, yq in parity_parts(y):
            if p * q:
                out = out + element_mul(xp, yq) + element_mul(yq, xp)
            else:
                out = out + element_mul(xp, yq) - element_mul(yq, xp)
    return out


# -- classical operators, one hand-written Leibniz rule each -------------------

def lie_derivative(a, x: ClassicalElement) -> ClassicalElement:
    """L_a: even derivation; acts on all three tensor slots."""
    lie, rep = x.lie, x.rep
    _, action, _ = dense_lie_tables(lie)
    tau_a = rep.matrices[a]
    out = {}
    for (s, e), mat in x.terms.items():
        for c, k in enumerate(s):
            if not k:
                continue
            for b, q in action.get((a, c), ()):
                add_scaled(out, (_bump(_bump(s, c, -1), b, 1), e), mat,
                           q.numerator * k, q.denominator)
        for j, idx in enumerate(e):
            for b, q in action.get((a, idx), ()):
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
    _, _, dpairs = dense_lie_tables(lie)
    n = lie.dim
    taus = rep.matrices
    out = {}
    for (s, e), mat in x.terms.items():
        # symmetric slot (even factors, no position sign)
        for c, k in enumerate(s):
            if not k:
                continue
            base = _bump(s, c, -1)
            for j, kk, q in dpairs.get(c, ()):
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
            for p, q_, q in dpairs.get(idx, ()):
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


def slot_leibniz(der, letters, x: ClassicalElement) -> ClassicalElement:
    """D(x) for a derivation of `ClassicalAlgebra.derivations`, whose End
    V image names letter t of `letters` for [M, A], M = letters[t][0], by
    the Leibniz rule, slot by slot for every term v^s y^e A of every call:

        sum_c s_c v^(s - e_c) D(v^c) y^e A
      + sum_j (-1)^(j |D|) v^s y^(e<j) D(y^(e_j)) y^(e>j) A
      + (-1)^(|e| |D|) v^s y^e D(A)

    The End V slot is skipped for A = c I, whose commutators vanish, and
    a term's y-word is checked before its commutator is computed.
    """
    odd, vs, ys, endo = der.odd, der.v, der.y, der.endo
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
                    cm = letters[t][0].commutator(mat)
                    if not cm:
                        continue
                    num, den = cm.num, cm.den
                accumulate(acc, (base if g is None else _bump(base, g, 1), word), num,
                           den * r, p * k * sign * ws)
    return ClassicalElement(x.lie, x.rep, collect(acc, x.rep.dim))


def bracket_terms(alg, x, key):
    """[x, key A] on the `WeilAlgebra` `alg` as terms (key', t, p, r): key'
    (p / r) times A for t None, else times letter t of `alg.letters`
    applied to A; p and r > 0 are integers.

    Per term k1 M of x the sides are k1 key (M A) and -(-1)^{|k1||key|}
    key k1 (A M), summed per (key', term of x) into (pl, pr), the c I
    terms together.  A c I part gives the plain term key' (pl + pr) c I
    A, and none when k1 and key lie in different tensor factors, whose
    sides cancel; any other part gives the halves ((pl + pr) (M, +1) +
    (pl - pr) (M, -1)) / 2."""
    no_even, no_odd = not any(key[0]), not key[1]
    parts = list(x.terms.values())
    # (key', index into parts, or None for c I) -> ((pl, pr), r): pl of M A, pr of A M
    sums = {}
    for j, (k1, mat) in enumerate(x.terms.items()):
        c = mat._scalar()
        if c is not None and ((no_even and not k1[1]) or (no_odd and not any(k1[0]))):
            continue  # k1 and key lie in different tensor factors: the sides cancel
        part, p1, r1 = (j, 1, 1) if c is None else (None, c, mat.den)
        yx = 1 if len(k1[1]) & len(key[1]) & 1 else -1
        for k, p, r in alg.mono_mul(k1, key):
            accumulate(sums, (k, part), (p1 * p, 0), r * r1)
        for k, p, r in alg.mono_mul(key, k1):
            accumulate(sums, (k, part), (0, yx * p1 * p), r * r1)
    items = sums.items()
    return (tuple((k, None, pl + pr, r) for (k, part), ((pl, pr), r) in items
                  if part is None and pl + pr)
            + tuple((k, alg.letter(parts[part], s), p, 2 * r)
                    for (k, part), ((pl, pr), r) in items
                    if part is not None for s, p in ((1, pl + pr), (-1, pl - pr)) if p))


def bracket_apply(alg, i, x):
    """Operator i of the `QuantumAlgebra` `alg` applied to x, as the
    bracket [alg.inner[i], x]."""
    return supercommutator(alg.inner[i], x)


# -- the dense Fraction kernel path ---------------------------------------------

def element_coords(x) -> dict:
    """Sparse coordinates of an element: (monomial key, i, j) -> Fraction."""
    out = {}
    for key, mat in x.terms.items():
        cols, den = mat.cols, mat.den
        for k, v in enumerate(mat.num):
            if v:
                out[(key, k // cols, k % cols)] = Fraction(v, den)
    return out


def lie_stacked_coords(alg, domain):
    """Coordinates of all L_a images at once, tagged by the generator index."""
    out = []
    for v in domain:
        tagged = {}
        for a in range(alg.lie.dim):
            for key, val in element_coords(alg.lie_derivative(a, v)).items():
                tagged[(a,) + key] = val
        out.append(tagged)
    return out


def dense_coord_matrix(coord_maps):
    """One column per sparse coordinate map; rows are indexed by the
    sorted union of observed keys, so no truncation of the codomain can
    hide a nonzero component."""
    keys = sorted(set().union(*coord_maps)) if coord_maps else []
    key_index = {k: r for r, k in enumerate(keys)}
    ncols = len(coord_maps)
    entries = [Fraction(0)] * (len(keys) * ncols)
    for col, cmap in enumerate(coord_maps):
        for k, v in cmap.items():
            entries[key_index[k] * ncols + col] = v
    return FractionMatrix(len(keys), ncols, entries)


def dense_kernel(domain, coord_maps):
    """Exact kernel from sparse image coordinates of a domain basis."""
    basis = []
    for vec in fraction_nullspace(dense_coord_matrix(coord_maps)):
        elem = None
        for r in range(len(domain)):
            q = vec[r, 0]
            if not q:
                continue
            piece = domain[r] * q
            elem = piece if elem is None else elem + piece
        if elem is not None:
            basis.append(elem)
    return basis


# -- basic and flat subspaces through element images -------------------------

def hor_basis(alg, monos):
    """Monomial-times-matrix-unit basis of the horizontal part."""
    d = alg.rep.dim
    units = [Matrix(d, d, [int(k == unit) for k in range(d * d)]) for unit in range(d * d)]
    return [alg.element({(mono, ()): unit}) for mono in monos for unit in units]


def coord_matrix(images):
    """Rows {column: int} of the coordinate matrix whose column c holds
    the elements `images[c]`: row (i, key, cell) is entry `cell` of term
    `key` of element i, for the sorted keys that occur, so no truncation
    of the codomain can hide a nonzero component.  The entries are the
    terms' numerators over the lcm of their (canonical) denominators."""
    den = lcm(*{mat.den for ims in images for im in ims for mat in im.terms.values()})
    rows = defaultdict(dict)
    for c, ims in enumerate(images):
        for i, im in enumerate(ims):
            for key, mat in im.terms.items():
                scale = den // mat.den
                for cell, x in enumerate(mat.num):
                    if x:
                        rows[(i, key, cell)][c] = x * scale
    return [rows[row_key] for row_key in sorted(rows)]


def element_kernel(domain, images):
    """Exact kernel of the domain's coordinate matrix, as elements."""
    basis = []
    for nums, den in kernel(coord_matrix(images), len(domain)):
        acc, first = {}, domain[0]
        for c, x in nums.items():
            for key, mat in domain[c].terms.items():
                accumulate(acc, key, mat.num, mat.den * den, x)
        basis.append(type(first)(first.lie, first.rep, collect(acc, first.rep.dim)))
    return basis


def element_solve_levels(alg, max_degree, images):
    """Kernel of the horizontal part up to max_degree, split into levels,
    `images(domain)` listing the images of each vector of a block's
    domain: one block per degree classically, one <= max_degree block
    quantum-side."""
    n = alg.lie.dim
    blocks = ([degree_monomials(n, k) for k in range(max_degree + 1)] if alg.GRADED
              else [monomials_up_to(n, max_degree)])
    basis = []
    for monos in blocks:
        domain = hor_basis(alg, monos)
        basis.extend(element_kernel(domain, images(domain)))
    return SubspaceResult(alg, max_degree, [(v.poly_degree(), v) for v in basis])


def element_basic_subspace(alg, max_degree):
    return element_solve_levels(alg, max_degree,
                                lambda domain: [[alg.lie_derivative(a, v) for a in range(alg.lie.dim)]
                                                for v in domain])


def element_flat_subspace(alg, max_degree):
    def images(domain):
        out = [alg.flat_op(v) for v in domain]
        for v, im in zip(domain, out):
            for (s, e) in im.terms:
                if e != ():
                    raise AssertionError("the bracket with the curvature must stay horizontal")
                if alg.GRADED and sum(s) != v.poly_degree() + 1:
                    raise AssertionError(
                        "bracket with C must raise symmetric degree by exactly 1")
        return [[im] for im in out]

    return element_solve_levels(alg, max_degree, images)


# -- basic and flat subspaces, one solve per level ----------------------------

def level_monomials(alg, k):
    """The polynomial monomials that row k lists: degree exactly k where
    the algebra is graded, degree <= k where it is only filtered."""
    return _at_level(alg, [(sum(m), m) for m in monomials_up_to(alg.lie.dim, k)], k)


def level_solve(alg, max_degree, image_coords):
    """The kernel of the horizontal block of every row k <= max_degree,
    as a list indexed by k.

    `image_coords(k, domain)` gives the coordinates of the images of the
    row-k domain.  Quantum-side the rows are cumulative: row k is the
    kernel of the whole <= k block.
    """
    rows = []
    for k in range(max_degree + 1):
        domain = hor_basis(alg, level_monomials(alg, k))
        rows.append(dense_kernel(domain, image_coords(k, domain)))
    return rows


def level_basic_subspace(alg, max_degree):
    return level_solve(alg, max_degree, lambda k, domain: lie_stacked_coords(alg, domain))


def full_flat_op(alg):
    """x -> [C, x] with the whole curvature C, Casimir and constant terms
    included."""
    curv = alg.curvature
    return lambda x: supercommutator(curv, x)


def level_flat_subspace(alg, max_degree):
    op = full_flat_op(alg)
    return level_solve(alg, max_degree,
                       lambda k, domain: [element_coords(op(v)) for v in domain])


# -- full flat basis ----------------------------------------------------------

def index_monomials(n):
    """All strictly increasing index tuples: the exterior / Clifford basis."""
    out = []
    for size in range(n + 1):
        out.extend(combinations(range(n), size))
    return out


def derived_full_flat_basis(flat, degree=None):
    """The flat basis of the full truncated algebra, exterior / Clifford
    factors included: x_I h for every index monomial I and every vector
    h of the `flat_subspace` result `flat`, derived as the `weil.flat`
    docstring proves once [C, x_a] = 0 is checked here.  `degree`
    restricts it to that level: one symmetric degree classically,
    degree <= `degree` quantum-side.
    """
    alg = flat.alg
    bad = _odd_premise_failure(alg, full_flat_op(alg))
    if bad is not None:
        raise AssertionError(f"the curvature does not commute with odd generator {bad + 1}")
    hvecs = ([h for _, h in flat.levelled] if degree is None
             else _at_level(alg, flat.levelled, degree))
    ident = Matrix.identity(alg.rep.dim)
    return [alg.element({((0,) * alg.lie.dim, combo): ident}) * h
            for combo in index_monomials(alg.lie.dim) for h in hvecs]


def _block(alg, monos, combo):
    """Monomial-times-matrix-unit basis with index monomial `combo`."""
    d = alg.rep.dim
    out = []
    for mono in monos:
        for unit in range(d * d):
            ent = [Fraction(0)] * (d * d)
            ent[unit] = Fraction(1)
            out.append(alg.element({(mono, combo): Matrix(d, d, ent)}))
    return out


def full_flat_basis(alg, max_degree, degree=None):
    """Flat basis of the full truncated algebra, exterior / Clifford
    factors included.

    The bracket with the curvature never changes the index monomial of a
    term (checked below), so the solve runs block by block and stays
    exact.  `degree` restricts the solve to that level: one symmetric
    degree classically, degree <= `degree` quantum-side.
    """
    n = alg.lie.dim
    op = full_flat_op(alg)
    monos = (level_monomials(alg, degree) if degree is not None
             else monomials_up_to(n, max_degree))
    basis = []
    for combo in index_monomials(n):
        domain = _block(alg, monos, combo)
        images = [op(v) for v in domain]
        for im in images:
            for key in im.terms:
                if key[1] != combo:
                    raise AssertionError("curvature bracket left its index block")
        basis.extend(dense_kernel(domain, [element_coords(im) for im in images]))
    return basis


def rank_inclusion_report(flat) -> dict:
    """`weil.flat.inclusion_report` by three ranks per row (module
    docstring)."""
    alg, max_degree = flat.alg, flat.max_degree
    ident = Matrix.identity(alg.rep.dim)
    basic = basic_subspace(alg, max_degree)
    # the multiples m b of the basic b, keyed (index of b, m) at level deg m
    # + level b: the S-module classically, the left U-module quantum-side;
    # each is built once, and kept while the rows list it
    module = [(sum(mono) + level, (j, mono)) for j, (level, _) in enumerate(basic.levelled)
              for mono in monomials_up_to(alg.lie.dim, max_degree - level)]
    rows, built = [], {}
    for k in range(max_degree + 1):
        bvecs, fvecs = _at_level(alg, basic.levelled, k), _at_level(alg, flat.levelled, k)
        built = {(j, m): built[j, m] if (j, m) in built
                 else alg.element({(m, ()): ident}) * basic.levelled[j][1]
                 for j, m in _at_level(alg, module, k)}
        mvecs = list(built.values())
        rows.append({
            "deg": k,
            "dim_basic": basic.dims[k],
            "dim_flat": flat.dims[k],
            # a kernel basis is independent: span(fvecs) has rank len(fvecs)
            "basic_subset_flat": span_rank(fvecs + bvecs) == len(fvecs),
            "s_basic_equals_flat": (span_rank(mvecs) == len(fvecs)
                                    == span_rank(fvecs + mvecs)),
        })
    return {"algebra": alg.KIND,
            "degree_semantics": "exact" if alg.GRADED else "filtration_increment",
            "per_degree": rows}


def rebracket_decomposition_report(flat) -> dict:
    """`weil.flat.decomposition_report` before it checked only the premises
    of its proof: every derived vector x_I h is bracketed again."""
    n = flat.alg.lie.dim
    op = full_flat_op(flat.alg)
    rows = []
    all_match = True
    for k in range(flat.max_degree + 1):
        hvecs = _at_level(flat.alg, flat.levelled, k)
        full = derived_full_flat_basis(flat, degree=k)
        expected = (2 ** n) * len(hvecs)
        products_flat = all(op(x).is_zero for x in full)
        match = len(full) == expected and products_flat
        all_match = all_match and match
        rows.append({
            "deg": k,
            "dim_hor_flat": len(hvecs),
            "dim_full_flat": len(full),
            "expected_full": expected,
            "match": match,
        })
    return {"factor": 2 ** n, "per_degree": rows, "all_match": all_match}


def list_closure_report(flat, samples=20, seed=0) -> dict:
    """`weil.flat.closure_report` before it drew samples by index: it
    builds the whole derived basis and draws with `rng.choice`."""
    rng = random.Random(seed)
    alg = flat.alg
    op = full_flat_op(alg)
    basis = derived_full_flat_basis(flat)
    low = [b for b in basis if b.poly_degree() <= flat.max_degree - 1]
    checked = {"product": 0, "lie_derivative": 0, "contraction": 0, "differential": 0}
    failures = 0
    if basis:
        for _ in range(samples):
            b1, b2 = rng.choice(basis), rng.choice(basis)
            a = rng.randrange(alg.lie.dim)
            for name, image in (("product", b1 * b2),
                                ("lie_derivative", alg.lie_derivative(a, b1)),
                                ("contraction", alg.contraction(a, b2))):
                failures += int(not op(image).is_zero)
                checked[name] += 1
    if low:
        for _ in range(samples):
            if not op(alg.differential(rng.choice(low))).is_zero:
                failures += 1
            checked["differential"] += 1
    return {
        "seed": seed,
        "samples": samples,
        "checked": checked,
        "failures": failures,
        "all_closed": failures == 0,
    }


# -- End V matrices with one Fraction per entry -------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FractionMatrix:
    """Immutable dense matrix over Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(e if type(e) is Fraction else Fraction(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _make(cls, rows, cols, entries):
        """Trusted constructor: entries must already be a Fraction tuple."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = entries
        return m

    @classmethod
    def from_rows(cls, rows) -> FractionMatrix:
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, [e for r in rows for e in r])

    @classmethod
    def zeros(cls, rows, cols) -> FractionMatrix:
        return cls._make(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n) -> FractionMatrix:
        return _cached_fraction_identity(n)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other):
        self._check_same_shape(other)
        return FractionMatrix._make(self.rows, self.cols,
                            tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        self._check_same_shape(other)
        return FractionMatrix._make(self.rows, self.cols,
                            tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self):
        return FractionMatrix._make(self.rows, self.cols, tuple(-a for a in self.entries))

    def __mul__(self, other):
        if isinstance(other, FractionMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
                )
            n, m, k = self.rows, other.cols, self.cols
            a, b = self.entries, other.entries
            out = []
            for i in range(n):
                arow = [(t, v) for t, v in enumerate(a[i * k : (i + 1) * k]) if v]
                if not arow:
                    out.extend([_ZERO] * m)
                    continue
                for j in range(m):
                    s = _ZERO
                    for t, v in arow:
                        w = b[t * m + j]
                        if w:
                            s = s + v * w
                    out.append(s)
            return FractionMatrix._make(n, m, tuple(out))
        if isinstance(other, (int, Fraction)):
            q = other if type(other) is Fraction else Fraction(other)
            if q == 1:
                return self
            if q == -1:
                return -self
            return FractionMatrix._make(self.rows, self.cols,
                                tuple(a * q if a else _ZERO for a in self.entries))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def commutator(self, other) -> FractionMatrix:
        """ab - ba; both matrices must be square of the same size."""
        if self.rows != self.cols or other.rows != other.cols:
            raise ValueError("commutator needs square matrices")
        self._check_same_shape(other)
        return self * other - other * self

    def transpose(self) -> FractionMatrix:
        return FractionMatrix(self.cols, self.rows,
                      [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return sum((self[i, i] for i in range(self.rows)), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, FractionMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def render(self) -> str:
        rows = ",".join(
            "[" + ",".join(format_scalar(e) for e in self.row(i)) + "]"
            for i in range(self.rows)
        )
        return "[" + rows + "]"

    def __repr__(self):
        return f"FractionMatrix({self.rows}x{self.cols} {self.render()})"


def _cached_fraction_identity(n):
    m = _FRACTION_IDENTITY_CACHE.get(n)
    if m is None:
        m = FractionMatrix._make(
            n, n, tuple(_ONE if i == j else _ZERO for i in range(n) for j in range(n))
        )
        _FRACTION_IDENTITY_CACHE[n] = m
    return m


_FRACTION_IDENTITY_CACHE: dict = {}


def _fraction_integer_rows(m: FractionMatrix):
    """Copy of m with each row scaled to integers (kernel unchanged)."""
    out = []
    for i in range(m.rows):
        row = m.row(i)
        den = 1
        for e in row:
            den = lcm(den, e.denominator)
        out.append([int(e * den) for e in row])
    return out


def fraction_rank(m: FractionMatrix) -> int:
    return len(_echelon(_fraction_integer_rows(m)))


def fraction_nullspace(m: FractionMatrix) -> list[FractionMatrix]:
    """Exact basis of the right kernel, one column vector per free column.

    Each vector has its free variable set to 1; the basis is ordered by
    free column index, so the output is deterministic.
    """
    rows = _fraction_integer_rows(m)
    pivots = _echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            row = rows[k]
            s = Fraction(0)
            for j in range(pc + 1, m.cols):
                if row[j] and v[j]:
                    s += Fraction(row[j]) * v[j]
            v[pc] = -s / row[pc]
        basis.append(FractionMatrix(m.cols, 1, v))
    return basis


# -- element rendering through Fractions ----------------------------------------

def fraction_matrix_render(m: Matrix) -> str:
    rows = ",".join(
        "[" + ",".join(format_scalar(e) for e in m.row(i)) + "]"
        for i in range(m.rows)
    )
    return "[" + rows + "]"


def _fraction_signed_term(mono_str, mat, endo_dim):
    """Return (negative, body) for one term."""
    c = mat._scalar()
    if c is None:
        body = (mono_str + TENSOR if mono_str else "") + fraction_matrix_render(mat)
        return False, body
    c = Fraction(c, mat.den)
    neg = c < 0
    mag = -c if neg else c
    coeff = "" if mag == 1 else format_scalar(mag)
    prefix = "*".join(p for p in (coeff, mono_str) if p)
    if endo_dim == 1:
        return neg, prefix or "1"
    if mono_str:
        return neg, prefix + TENSOR + "I"
    return neg, (prefix + "*I") if prefix else "I"


def fraction_render(x) -> str:
    even, odd = x.LETTERS
    d = x.rep.dim
    keyed = sorted(x.terms.items(),
                   key=lambda kv: (2 * sum(kv[0][0]) + len(kv[0][1]), kv[0][0], kv[0][1]))
    parts = []
    for (s, e), mat in keyed:
        mono = x.JOINER.join(p for p in (_gen_string(even, s), _index_string(odd, e)) if p)
        parts.append(_fraction_signed_term(mono, mat, d))
    return _join(parts)


# -- Lie data validation with dense index loops ---------------------------------

def dense_validate_lie(lie: LieData) -> ValidationReport:
    """Check antisymmetry of stored entries and the Jacobi identity."""
    rep = ValidationReport("lie algebra" + (f" {lie.name}" if lie.name else ""))
    n = lie.dim
    for (a, b, c), v in sorted(lie.entries.items()):
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            rep.add(f"index out of range at ({a + 1},{b + 1},{c + 1})")
        elif a == b and v != 0:
            rep.add(f"antisymmetry violation at ({a + 1},{b + 1},{c + 1}): f^c_aa must vanish")
    seen = set()
    for (a, b, c) in sorted(lie.entries):
        if a == b or (a, b, c) in seen:
            continue
        other = lie.entries.get((b, a, c))
        if other is not None and lie.entries[(a, b, c)] + other != 0:
            key = (a, b, c) if a < b else (b, a, c)
            rep.add(
                f"antisymmetry violation at ({key[0] + 1},{key[1] + 1},{key[2] + 1}): "
                f"f^c_ab + f^c_ba != 0"
            )
            seen.add((a, b, c))
            seen.add((b, a, c))
    if not rep.ok:
        return rep
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for d in range(n):
                    s = Fraction(0)
                    for m in range(n):
                        s += (
                            lie.f(a, b, m) * lie.f(m, c, d)
                            + lie.f(b, c, m) * lie.f(m, a, d)
                            + lie.f(c, a, m) * lie.f(m, b, d)
                        )
                    if s != 0:
                        rep.add(
                            f"jacobi violation at ({a + 1},{b + 1},{c + 1}) "
                            f"target {d + 1}: sum = {s}"
                        )
    return rep


def dense_validate_form(lie: LieData, form: BilinearForm) -> FormReport:
    """Check symmetry, invertibility, and invariance; flag B = identity."""
    rep = FormReport("bilinear form")
    B = form.matrix
    n = lie.dim
    if B.rows != n or B.cols != n:
        rep.add(f"form is {B.rows}x{B.cols}, expected {n}x{n}")
        return rep
    if B != B.transpose():
        rep.add("form is not symmetric")
    if rank(B) != n:
        rep.add("form is degenerate")
    for a in range(n):
        for b in range(n):
            for d in range(n):
                s = Fraction(0)
                for c in range(n):
                    s += lie.f(a, b, c) * B[c, d] + lie.f(a, d, c) * B[b, c]
                if s != 0:
                    rep.add(f"invariance violation at ({a + 1},{b + 1},{d + 1}): sum = {s}")
    rep.orthonormal = B.entries == FractionMatrix.identity(n).entries
    return rep


def dense_lie_tables(lie):
    """(pairs, action, dpairs) tables by dense index loops: the nonzero
    (c, f^c_ab) for every ordered pair (a, b), as `LieData.pair_brackets`
    gives them, and the generator images of the classical L_a and d."""
    n = lie.dim
    pairs = {}
    for a in range(n):
        for b in range(n):
            row = [(c, q) for c in range(n) if (q := lie.f(a, b, c))]
            if row:
                pairs[(a, b)] = tuple(row)
    # L_a g^c = -f^c_ab g^b: coefficient list per (a, c)
    action = {}
    for a in range(n):
        for c in range(n):
            row = [(b, -q) for b in range(n) if (q := lie.f(a, b, c))]
            if row:
                action[(a, c)] = tuple(row)
    # d v^c = -f^c_jk y^j v^k and the -1/2 f^c_pq y^p y^q part of d y^c
    dpairs = {}
    for c in range(n):
        row = []
        for j in range(n):
            for k in range(n):
                q = lie.f(j, k, c)
                if q:
                    row.append((j, k, -q))
        if row:
            dpairs[c] = tuple(row)
    return pairs, action, dpairs


def dense_adjoint_rep(lie: LieData) -> RepData:
    """Matrices of ad on the basis: (tau_a)_cb = f^c_ab."""
    n = lie.dim
    mats = []
    for a in range(n):
        mats.append(Matrix(n, n, [lie.f(a, b, c) for c in range(n) for b in range(n)]))
    return RepData("adjoint", tuple(mats))


# -- random draws through Fraction entries --------------------------------------

def fraction_random_scalar(rng) -> Fraction:
    num = rng.randint(-3, 3)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def fraction_random_matrix(rng, d) -> Matrix:
    return Matrix(d, d, [fraction_random_scalar(rng) for _ in range(d * d)])


def fraction_random_element(alg, rng, max_degree=4, max_terms=3):
    """`weil.checks.random_element` on `fraction_random_matrix`."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = _random_key(rng, alg.lie.dim, max_degree)
        mat = fraction_random_matrix(rng, alg.rep.dim)
        if mat:
            add_term(terms, key, mat)
    return alg.element(terms)


# -- independent scalar Weil differential -------------------------------------


def _partial_sym(poly, a):
    """d/dv^a on a scalar (sym, ext) polynomial."""
    out = {}
    for (s, e), q in poly.items():
        if s[a]:
            s2 = list(s)
            s2[a] -= 1
            add_term(out, (tuple(s2), e), q * s[a])
    return out


def _partial_ext(poly, a):
    """Odd d/dy^a with the left-to-right sign convention."""
    out = {}
    for (s, e), q in poly.items():
        for j, idx in enumerate(e):
            if idx == a:
                add_term(out, (s, e[:j] + e[j + 1:]), q if j % 2 == 0 else -q)
                break
    return out


def _scalar_poly_mul(a, b):
    out = {}
    for (s1, e1), q1 in a.items():
        for (s2, e2), q2 in b.items():
            r = ext_mono_mul(e1, e2)
            if r is None:
                continue
            sign, e = r
            add_term(out, (sym_mono_mul(s1, s2), e), q1 * q2 * sign)
    return out


def scalar_weil_differential(lie, poly):
    """Reference differential on the scalar Weil algebra.

    Written as sum_a (image of generator) * (partial derivative); the
    generator images are even, so no Koszul correction is needed when
    they multiply from the left.  The images come from dense `lie.f`
    scans, not `lie.pair_brackets()`, so the check is independent of
    the table `classical.differential` reads.
    """
    return _scalar_differential(_generator_images(lie), poly)


def _generator_images(lie):
    """Per a, the images (d y^a, d v^a) that `scalar_weil_differential`
    multiplies: v^a - (1/2) f^a_jk y^j y^k and -f^a_jk y^j v^k."""
    n = lie.dim
    unit = [tuple(int(i == a) for i in range(n)) for a in range(n)]
    images = [({(unit[a], ()): Fraction(1)}, {}) for a in range(n)]
    for a, (dy, dv) in enumerate(images):
        for j in range(n):
            for k in range(n):
                q = lie.f(j, k, a)
                if q:
                    sign, e = ext_mono_mul((j,), (k,))  # j != k, as f(j, j, a) = 0
                    add_term(dy, ((0,) * n, e), -q * sign / 2)
                    add_term(dv, (unit[k], (j,)), -q)
    return images


def _scalar_differential(images, poly):
    """`scalar_weil_differential` from its generator images."""
    out = {}
    for a, pair in enumerate(images):
        for image, partial in zip(pair, (_partial_ext, _partial_sym)):
            for m, c in _scalar_poly_mul(image, partial(poly, a)).items():
                add_term(out, m, c)
    return out


def embed_scalar_poly(lie, rep, poly):
    ident = Matrix.identity(rep.dim)
    return ClassicalElement(lie, rep, {m: ident * q for m, q in poly.items()})


# -- identity rows by element comparison ----------------------------------------

def _row(name, failures, total=None):
    """A row as the suites print it: "exact", with the case count when
    given, or the first three failures joined by "; "."""
    if failures:
        return CheckResult(name, False, "; ".join(failures[:3]))
    return CheckResult(name, True, f"exact ({total} cases)" if total else "exact")


def operator_identities(alg, rng, seed, samples, max_degree, curv, names):
    """Cartan, [L_a,d], [L_a,iota_b], d.d and Bianchi over the generators and
    `samples` random elements of the `WeilAlgebra` `alg`, drawn from `rng`
    (seeded with `seed`) one at a time, each side a canonical element."""
    cname, fname = names
    n = alg.lie.dim
    brackets = alg.lie.pair_brackets()
    d, lie_derivative, contraction = alg.differential, alg.lie_derivative, alg.contraction

    def pool():
        yield alg.unit()
        for make in (alg.even_gen, alg.odd_gen, alg.tau):
            for a in range(n):
                yield make(a)
        for _ in range(samples):
            yield fraction_random_element(alg, rng, max_degree)

    def witness(i, x, indices=""):
        return f"element {i} (seed {seed}){indices}: X = {render(x)}"

    cartan, ld, liota, ddc = [], [], [], []
    for i, x in enumerate(pool()):
        dx = d(x)
        lx = [lie_derivative(a, x) for a in range(n)]
        ix = [contraction(a, x) for a in range(n)]
        for a in range(n):
            if contraction(a, dx) + d(ix[a]) != lx[a]:
                cartan.append(witness(i, x, f", a={a + 1}"))
            if lie_derivative(a, dx) != d(lx[a]):
                ld.append(witness(i, x, f", a={a + 1}"))
            for b in range(n):
                lhs = lie_derivative(a, ix[b]) - contraction(b, lx[a])
                rhs = alg.zero()
                for c, q in brackets.get((a, b), ()):
                    rhs = rhs + ix[c] * q
                if lhs != rhs:
                    liota.append(witness(i, x, f", a={a + 1}, b={b + 1}"))
        if d(dx) != supercommutator(curv, x):
            ddc.append(witness(i, x))
    total = 1 + 3 * n + samples
    return [
        _row("cartan formula [iota_a,d] = L_a", cartan, total),
        _row("[L_a,d] = 0", ld, total),
        _row(f"[L_a,iota_b] = {fname} iota_c", liota, total),
        _row(f"d.d = [{cname},-]", ddc, total),
        _row(f"bianchi d({cname}) = 0",
             [] if d(curv).is_zero else [f"d({cname}) != 0"]),
    ]


def classical_rows(alg, samples, seed, max_degree):
    """The rows of `weil.checks.classical_suite` on the value `alg`."""
    lie, rep = alg.lie, alg.rep
    rng = random.Random(seed)
    results = operator_identities(alg, rng, seed, samples, max_degree, alg.curvature,
                                  ("C", "f^c_ab"))

    restrict, ddzero = [], []
    for i in range(samples):
        poly = random_scalar_weil_poly(lie, rng, max_degree)
        if not poly:
            continue
        elem = embed_scalar_poly(lie, rep, poly)
        if alg.differential(elem) != embed_scalar_poly(lie, rep, scalar_weil_differential(lie, poly)):
            restrict.append(f"poly {i}")
        if not alg.differential(alg.differential(elem)).is_zero:
            ddzero.append(f"poly {i}")
    results.append(_row("restriction: d matches the scalar differential", restrict, samples))
    results.append(_row("restriction: d.d = 0 on identity-part elements", ddzero, samples))

    lemma = []
    for i in range(samples):
        poly = random_sym_poly(lie, rng, max_degree)
        f = embed_scalar_poly(lie, rep, {(m, ()): q for m, q in poly.items()})
        acc = alg.zero()
        for a in range(lie.dim):
            acc = acc + alg.even_gen(a) * alg.lie_derivative(a, f)
        if not acc.is_zero:
            lemma.append(f"poly {i}")
    results.append(_row("v^a L_a annihilates symmetric polynomials", lemma, samples))
    return results


def structure_rows(alg):
    """The rows of `weil.checks.quantum_structure_suite` on the
    `QuantumAlgebra` value `alg`, over g_a and gamma written term by term
    (`term_g`, `scan_gamma`) and D = x_a u_a + gamma keyed term by term,
    with the products and brackets of `element_mul` and
    `parity_supercommutator`; gamma^2 is -(1/48) f_abc f_abc by a dense
    `lie.f` scan.  Each row lists its failing cases in order."""
    lie, zero = alg.lie, alg.zero()
    n, x, u, mul, bracket = lie.dim, alg.odd_gen, alg.even_gen, element_mul, parity_supercommutator
    g, gamma = term_g(alg), scan_gamma(alg)
    ident = Matrix.identity(alg.rep.dim)
    dirac = gamma + alg.element({(tuple(int(i == a) for i in range(n)), (a,)): ident
                                 for a in range(n)})
    cas = sum((mul(u(a), u(a)) for a in range(n)), zero)
    g2 = alg.scalar(Fraction(-1, 48) * sum(lie.f(a, b, c) ** 2 for a in range(n)
                                           for b in range(n) for c in range(n)))
    central = all(bracket(cas, gen(b)).is_zero for b in range(n) for gen in (u, x))

    def failing(cases):
        return [witness for witness, left, right in cases if left != right]

    return [
        _row("[x_a,g_b] = -f_bac x_c", failing(
            (f"a={a + 1}, b={b + 1}", bracket(x(a), g[b]),
             sum((x(c) * -lie.f(a, c, b) for c in range(n)), zero))
            for a in range(n) for b in range(n))),
        _row("[x_a,gamma] = g_a",
             failing((f"a={a + 1}", bracket(x(a), gamma), g[a]) for a in range(n))),
        _row("[x_a,D] = u_a + g_a",
             failing((f"a={a + 1}", bracket(x(a), dirac), u(a) + g[a]) for a in range(n))),
        _row("[u_a+g_a,D] = 0",
             failing((f"a={a + 1}", bracket(u(a) + g[a], dirac), zero) for a in range(n))),
        _row("D^2 = (1/2) u_a u_a + gamma^2",
             failing([("mismatch", mul(dirac, dirac), cas * Fraction(1, 2) + g2)])),
        _row("gamma^2 = -(1/48) f_abc f_abc", failing([("mismatch", mul(gamma, gamma), g2)])),
        _row("u_a u_a is central", [] if central else ["not central"]),
    ]


def quantum_rows(alg, samples, seed, max_degree):
    """The rows of `weil.checks.quantum_suite` on the value `alg`."""
    lie, rep = alg.lie, alg.rep
    rng = random.Random(seed)
    results = structure_rows(alg)
    curv = alg.four_term_curvature()
    results += operator_identities(alg, rng, seed, samples, max_degree, curv, ("QC", "f_abc"))

    ok = curv == alg.dirac_tau * alg.dirac_tau
    results.append(_row("QC four-term formula = (D + x_a tau_a)^2",
                        [] if ok else ["mismatch"]))

    restrict = []
    ident = Matrix.identity(rep.dim)
    for i in range(samples // 2 + 1):
        poly = random_scalar_weil_poly(lie, rng, max_degree)
        ident_part = alg.element({m: ident * q for m, q in poly.items()})
        lhs = alg.differential(ident_part)
        rhs = alg.weil_differential(ident_part)
        for a in range(lie.dim):
            rhs = rhs + alg.contraction(a, ident_part) * alg.tau(a)
        if lhs != rhs:
            restrict.append(f"element {i}")
    results.append(_row("restriction: d = d_W + iota_a tau_a", restrict))

    x1 = alg.odd_gen(0)
    differs = alg.differential(x1) != alg.weil_differential(x1)
    ok = differs == bool(rep.matrices[0])
    results.append(_row("restriction: d != d_W exactly when tau_1 is nonzero",
                        [] if ok else ["witness failed at x1"]))
    return results


# -- the symbol oracle ------------------------------------------------------------

def weil_degree(key):
    """Twice the even degree plus the odd length of an (even, odd) key."""
    return 2 * sum(key[0]) + len(key[1])


def weil_keys(n, top):
    """Every (even, odd) key of Weil degree <= top in n generators."""
    return [(s, e) for k in range(top + 1) for e in combinations(range(n), k)
            for s in monomials_up_to(n, (top - k) // 2)]


def symbol_mismatches(lie, rep, K):
    """Where a quantum operator's symbol is not the classical operator.

    The quantum key u^s x_e A has the classical key v^s y^e A as its
    symbol, of Weil degree 2 |s| + |e|.  For every key of Weil degree <=
    K, every End V unit E_ij and I, and each of L_a, iota_a and d (Weil
    degrees 0, -1 and +1), the quantum image may have no term above the
    key's degree plus the operator's, and its part at that degree must be
    the classical image.  The same holds on horizontal keys for [C_q - Z,
    .] (`QuantumAlgebra.flat_op`) against the classical [C, .], with the
    degree raised by 2.  Returns one line per failing (operator, key, A).

    The quantum algebra is `QuantumAlgebra`, read when called, so a test
    can put a mutant class in its place.  Only the top part is compared,
    so a mutant that changes an operator only below its top degree passes
    by design: d plus [x_1, .], a term of Weil degree -1, does.  A wrong
    gamma coefficient does not pass, as [gamma, x_a] = g_a is the top
    part -(1/2) f y y of d y^a.  The quantization map of ROADMAP item 14
    is the oracle for the lower-order terms.
    """
    cl, qa = ClassicalAlgebra(lie, rep), QuantumAlgebra(lie, rep)
    n, d = lie.dim, rep.dim
    units = [Matrix._make(d, d, tuple(int(k == c) for k in range(d * d)), 1)
             for c in range(d * d)] + [Matrix.identity(d)]
    ops = [(f"L_{a + 1}", 0, a) for a in range(n)] + \
          [(f"iota_{a + 1}", -1, n + a) for a in range(n)] + [("d", 1, 2 * n)]
    out = []

    def compare(name, key, c, shift, classical, quantum):
        top = weil_degree(key) + shift
        above = [k for k in quantum.terms if weil_degree(k) > top]
        symbol = {k: m for k, m in quantum.terms.items() if weil_degree(k) == top}
        if above or symbol != classical.terms:
            unit = "I" if c == d * d else "E_{}{}".format(*(k + 1 for k in divmod(c, d)))
            out.append(f"{name} on {key} (x) {unit}: {len(above)} terms above degree {top}")

    for key in weil_keys(n, K):
        for c, unit in enumerate(units):
            xc, xq = cl.element({key: unit}), qa.element({key: unit})
            for name, shift, i in ops:
                compare(name, key, c, shift, cl._apply(i, xc), qa._apply(i, xq))
            if not key[1]:
                compare("[C, .]", key, c, 2, supercommutator(cl.curvature, xc), qa.flat_op(xq))
    return out


# -- the distinguished elements, term by term --------------------------------------

def _cliff_word(word):
    """Normal form of a product of Clifford generators, as (mono, coeff)."""
    mono, coeff = (), Fraction(1)
    for a in word:
        mono, p, r = orthonormal_cliff_mono_mul(mono, (a,))
        coeff *= Fraction(p, r)
    return mono, coeff


def term_g(alg):
    """g_a = -(1/2) f_abc x_b x_c of the `QuantumAlgebra` value `alg`, one
    Clifford product per pair (b, c)."""
    n, ident = alg.lie.dim, Matrix.identity(alg.rep.dim)
    gs = [{} for _ in range(n)]
    for (b, c), row in alg.lie.pair_brackets().items():
        for a, q in row:
            cm, cp, cr = orthonormal_cliff_mono_mul((b,), (c,))
            add_term(gs[a], ((0,) * n, cm), ident * (Fraction(-cp, 2 * cr) * q))
    return tuple(alg.element(terms) for terms in gs)


def scan_gamma(alg):
    """gamma = -(1/6) f_abc x_a x_b x_c, by a scan of the triples (a, b, c)."""
    n, ident = alg.lie.dim, Matrix.identity(alg.rep.dim)
    terms = {}
    for (b, c), row in alg.lie.pair_brackets().items():
        for a, q in row:
            cm, cq = _cliff_word((a, b, c))
            add_term(terms, ((0,) * n, cm), ident * (cq * q * Fraction(-1, 6)))
    return alg.element(terms)


def term_four_term_curvature(alg):
    """(1/2)(u_a u_a + 2 u_a tau_a + tau_a tau_a) + gamma^2, written down
    term by term with gamma^2 from its closed form: no element products."""
    n, d = alg.lie.dim, alg.rep.dim
    ident = Matrix.identity(d)
    terms = {}
    tau_sq = Matrix.zeros(d, d)
    for a in range(n):
        mono = tuple(2 * int(i == a) for i in range(n))
        add_term(terms, (mono, ()), ident * Fraction(1, 2))
        ta = alg.rep.matrices[a]
        if ta:
            add_term(terms, (tuple(int(i == a) for i in range(n)), ()), ta)
            tau_sq = tau_sq + ta * ta
    const = tau_sq * Fraction(1, 2) + ident * gamma_square_formula(alg.lie)
    if const:
        add_term(terms, ((0,) * n, ()), const)
    return alg.element(terms)


def term_classical_curvature(alg):
    """C = sum_a v^a (x) 1 (x) tau_a of the `ClassicalAlgebra` value `alg`,
    one keyed term per nonzero tau_a."""
    n = alg.lie.dim
    return alg.element({(tuple(int(i == a) for i in range(n)), ()): mat
                        for a, mat in enumerate(alg.rep.matrices) if mat})


# -- the quantum quotient -------------------------------------------------------------

def quantum_quotient(alg):
    """The quotient of the `QuantumAlgebra` value `alg` by the two-sided
    ideal of the u's, as (basis, d).

    The basis is the u-free keys times the End V matrix units, as
    elements, and d maps an element to `alg.differential` of it with every
    term that has a u factor dropped.  This is well defined only if d
    keeps the ideal, so first every term of each d(u_a) must have a u
    factor.  The quotient is Cl(g) (x) End V with d = [gamma + x_a tau_a,
    .], whose square is the bracket with gamma^2 + (1/2) sum tau_a^2; where
    that is a nonzero scalar lambda, left multiplication by (gamma + x_a
    tau_a) / (2 lambda) is a contracting homotopy, so d^2 = 0 and the
    rank of d is half the dimension.
    """
    n, dim = alg.lie.dim, alg.rep.dim
    for a in range(n):
        if not all(any(s) for s, _ in alg.differential(alg.even_gen(a)).terms):
            raise AssertionError(f"d(u_{a + 1}) has a term with no u factor")
    units = [Matrix._make(dim, dim, tuple(int(k == c) for k in range(dim * dim)), 1)
             for c in range(dim * dim)]
    basis = [alg.element({((0,) * n, e): unit}) for k in range(n + 1)
             for e in combinations(range(n), k) for unit in units]

    def d(x):
        return alg.element({key: m for key, m in alg.differential(x).terms.items()
                            if not any(key[0])})

    return basis, d


# -- the Chevalley-Eilenberg quotient -------------------------------------------------

def ce_quotient_cohomology(alg):
    """The dims of H^0, ..., H^n of the quotient of the `ClassicalAlgebra`
    value `alg` by the ideal of the v's.

    Its degree-k basis is the v-free keys of exterior degree k times the
    End V matrix units, and its d is `alg.differential` with every term
    of positive v-degree dropped: the Chevalley-Eilenberg differential of
    g with coefficients in End V.  d^2 = 0 on the quotient is checked
    first; then H^k = dim C^k - rank d_k - rank d_(k-1).  For semisimple
    g this is dim H^k(g) times dim (End V)^g (`commutant_dim`).
    """
    n, dim = alg.lie.dim, alg.rep.dim
    units = [Matrix._make(dim, dim, tuple(int(k == c) for k in range(dim * dim)), 1)
             for c in range(dim * dim)]

    def d(x):
        return alg.element({key: m for key, m in alg.differential(x).terms.items()
                            if not any(key[0])})

    dims, ranks = [], []
    for k in range(n + 1):
        images = [d(alg.element({((0,) * n, e): unit}))
                  for e in combinations(range(n), k) for unit in units]
        if not all(d(y).is_zero for y in images):
            raise AssertionError(f"d^2 != 0 on the quotient in degree {k}")
        dims.append(len(images))
        ranks.append(span_rank(images))
    return [c - r - (ranks[k - 1] if k else 0) for k, (c, r) in enumerate(zip(dims, ranks))]


def commutant_dim(rep):
    """dim (End V)^g: dim End V minus the rank of the equations [tau_a, A]
    = 0, one row per (a, cell of the commutator) from `Matrix._cells(-1)`."""
    rows = defaultdict(dict)
    for a, tau in enumerate(rep.matrices):
        for o, c, v in tau._cells(-1):
            rows[a, o][c] = v
    return rep.dim ** 2 - sparse_rank(rows.values())
