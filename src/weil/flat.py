"""Truncated-degree computation of horizontal, basic, and flat subspaces.

Horizontal elements have no exterior / Clifford factor; the solver
enumerates monomial-times-matrix-unit bases up to a degree bound, maps
them through the defining operator (L_a for basic, bracket with the
curvature for flat), and takes the exact kernel.  Degree means symmetric
degree classically (where the operators are graded and the solves split
into per-degree blocks) and PBW degree quantum-side (a filtration, so
solves run on cumulative <= k blocks).

The flat subspace of the full algebra is derived, not solved.  The
bracket with the even curvature C is a derivation, so once [C, x_a] = 0
is checked for every odd generator, [C, x_I h] = x_I [C, h] for
horizontal h, and [C, h] is horizontal (checked by `flat_subspace`).
As x_I h = h x_I turns each term (s, ()) of h into the one term (s, I),
h -> x_I h maps the horizontal part one-to-one onto the block of x_I;
so flat(full) is the sum over index monomials I of x_I flat(hor).

Every reported basis vector satisfies its defining equation exactly;
dimension tables are reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import ALGEBRAS
from .linalg import Matrix, nullspace, rank


def degree_monomials(n, deg):
    """All exponent vectors of total degree deg in n variables, lex order."""
    if n == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in degree_monomials(n - 1, deg - first):
            out.append((first,) + rest)
    return out


def monomials_up_to(n, max_deg):
    out = []
    for k in range(max_deg + 1):
        out.extend(degree_monomials(n, k))
    return out


def _level_monomials(mod, n, k):
    """The polynomial monomials of level k: degree exactly k where the
    algebra is graded, degree <= k where it is only filtered."""
    return degree_monomials(n, k) if mod.GRADED else monomials_up_to(n, k)


def hor_basis(algebra, lie, rep, monos):
    """Monomial-times-matrix-unit basis of the horizontal part."""
    cls, d = ALGEBRAS[algebra].Element, rep.dim
    out = []
    for mono in monos:
        for unit in range(d * d):
            ent = [Fraction(0)] * (d * d)
            ent[unit] = Fraction(1)
            out.append(cls(lie, rep, {(mono, ()): Matrix(d, d, ent)}))
    return out


def element_coords(x) -> dict:
    """Sparse coordinates of an element: (monomial key, i, j) -> Fraction."""
    out = {}
    for key, mat in x.terms.items():
        cols, den = mat.cols, mat.den
        for k, v in enumerate(mat.num):
            if v:
                out[(key, k // cols, k % cols)] = Fraction(v, den)
    return out


def _coord_matrix(coord_maps):
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
    return Matrix(len(keys), ncols, entries)


def _kernel(domain, coord_maps):
    """Exact kernel from sparse image coordinates of a domain basis."""
    basis = []
    for vec in nullspace(_coord_matrix(coord_maps)):
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


def span_rank(elements) -> int:
    return rank(_coord_matrix([element_coords(x) for x in elements]))


def span_contains(big, small) -> bool:
    """True when span(small) is a subspace of span(big)."""
    return span_rank(big) == span_rank(list(big) + list(small))


def _flat_op(mod, lie, rep):
    """x -> [curvature, x], the operator whose kernel is the flat subspace."""
    curv = mod.curvature(lie, rep)
    return lambda x: mod.supercommutator(curv, x)


def _lie_stacked_coords(mod, lie, domain):
    """Coordinates of all L_a images at once, tagged by the generator index."""
    out = []
    for v in domain:
        tagged = {}
        for a in range(lie.dim):
            for key, val in element_coords(mod.lie_derivative(a, v)).items():
                tagged[(a,) + key] = val
        out.append(tagged)
    return out


@dataclass
class SubspaceResult:
    """Exact basis of a defined subspace of the truncated horizontal part.

    Classically `vectors[k]` holds the degree-k block; quantum-side it
    holds the kernel of the full <= k block (the solves are cumulative)
    and `dims[k]` is the increment over level k - 1.
    """

    algebra: str
    lie: object
    rep: object
    max_degree: int
    dims: dict
    vectors: dict

    def basis_up_to(self, k):
        if ALGEBRAS[self.algebra].GRADED:
            out = []
            for d in range(min(k, self.max_degree) + 1):
                out.extend(self.vectors.get(d, []))
            return out
        return list(self.vectors.get(min(k, self.max_degree), []))


def _solve_levels(algebra, lie, rep, max_degree, image_coords):
    """Kernel of the horizontal block of every level k <= max_degree.

    `image_coords(k, domain)` gives the coordinates of the images of the
    level-k domain.  Quantum-side the levels are cumulative, so
    `dims[k]` is the increment over level k - 1.
    """
    mod = ALGEBRAS[algebra]
    dims, vectors, prev = {}, {}, 0
    for k in range(max_degree + 1):
        domain = hor_basis(algebra, lie, rep, _level_monomials(mod, lie.dim, k))
        basis = _kernel(domain, image_coords(k, domain))
        dims[k], vectors[k] = len(basis) - prev, basis
        prev = 0 if mod.GRADED else len(basis)
    return SubspaceResult(algebra, lie, rep, max_degree, dims, vectors)


def basic_subspace(algebra, lie, rep, max_degree) -> SubspaceResult:
    """Horizontal solutions of L_a x = 0 for every a, up to max_degree."""
    mod = ALGEBRAS[algebra]
    return _solve_levels(algebra, lie, rep, max_degree,
                         lambda k, domain: _lie_stacked_coords(mod, lie, domain))


def flat_subspace(algebra, lie, rep, max_degree) -> SubspaceResult:
    """Horizontal solutions of [curvature, x] = 0, up to max_degree."""
    mod = ALGEBRAS[algebra]
    op = _flat_op(mod, lie, rep)

    def image_coords(k, domain):
        images = [op(v) for v in domain]
        for im in images:
            for (s, e) in im.terms:
                if e != ():
                    raise AssertionError("the bracket with the curvature must stay horizontal")
                if mod.GRADED and sum(s) != k + 1:
                    raise AssertionError(
                        "bracket with C must raise symmetric degree by exactly 1")
        return [element_coords(im) for im in images]

    return _solve_levels(algebra, lie, rep, max_degree, image_coords)


def inclusion_report(flat, seed=0) -> dict:
    """Per-degree dimensions of basic and flat (a `flat_subspace`
    result) with containment columns.

    Classically basic inside flat is a theorem; quantum-side the same
    column is observed evidence for an open question, never asserted.
    """
    algebra, lie, rep, max_degree = flat.algebra, flat.lie, flat.rep, flat.max_degree
    mod = ALGEBRAS[algebra]
    ident = Matrix.identity(rep.dim)
    basic = basic_subspace(algebra, lie, rep, max_degree)
    rows = []
    for k in range(max_degree + 1):
        bvecs, fvecs = basic.vectors[k], flat.vectors[k]
        # polynomial multiples of basic vectors at level k: the S-module
        # classically, the left U-module quantum-side
        module = [mod.Element(lie, rep, {(mono, ()): ident}) * b
                  for b in basic.basis_up_to(k)
                  for mono in _level_monomials(mod, lie.dim, k - _max_poly_degree(b))]
        rows.append({
            "deg": k,
            "dim_basic": basic.dims[k],
            "dim_flat": flat.dims[k],
            "basic_subset_flat": span_contains(fvecs, bvecs),
            "s_basic_equals_flat": (span_rank(module) == len(fvecs)
                                    and span_contains(fvecs, module)),
        })
    return {
        "algebra": algebra,
        "degree_semantics": "exact" if mod.GRADED else "filtration_increment",
        "per_degree": rows,
        "seed": seed,
    }


def _index_monomials(n):
    """All strictly increasing index tuples: the exterior / Clifford basis."""
    out = []
    for size in range(n + 1):
        out.extend(combinations(range(n), size))
    return out


def full_flat_basis(flat, degree=None):
    """The flat basis of the full truncated algebra, exterior / Clifford
    factors included: x_I h for every index monomial I and every vector
    h of the `flat_subspace` result `flat`, derived as the module
    docstring proves once [C, x_a] = 0 is checked here.  `degree`
    restricts it to that level: one symmetric degree classically,
    degree <= `degree` quantum-side.
    """
    mod = ALGEBRAS[flat.algebra]
    lie, rep = flat.lie, flat.rep
    op = _flat_op(mod, lie, rep)
    for a in range(lie.dim):
        if not op(mod.Element.odd_gen(lie, rep, a)).is_zero:
            raise AssertionError(f"the curvature does not commute with odd generator {a + 1}")
    hvecs = flat.basis_up_to(flat.max_degree) if degree is None else flat.vectors[degree]
    ident = Matrix.identity(rep.dim)
    return [mod.Element(lie, rep, {((0,) * lie.dim, combo): ident}) * h
            for combo in _index_monomials(lie.dim) for h in hvecs]


def decomposition_report(flat) -> dict:
    """Check flat(full) = (exterior or Clifford factor) (x) flat(horizontal)
    level by level for the `flat_subspace` result `flat`.

    The full flat basis is derived from the horizontal one
    (`full_flat_basis`), and every derived vector is bracketed with the
    curvature again: a nonzero bracket fails its level.
    """
    mod = ALGEBRAS[flat.algebra]
    n = flat.lie.dim
    op = _flat_op(mod, flat.lie, flat.rep)
    rows = []
    all_match = True
    for k in range(flat.max_degree + 1):
        hvecs = flat.vectors[k]
        full = full_flat_basis(flat, degree=k)
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


def _max_poly_degree(x):
    return max((sum(key[0]) for key in x.terms), default=0)


def closure_report(flat, samples=20, seed=0) -> dict:
    """Sampled closure of the full flat subspace under products and the
    three operators.

    `flat` is a `flat_subspace` result.  Products, L_a, and iota_a
    images of flat elements are checked for exact flatness; the
    differential raises degree, so its inputs are drawn from vectors of
    polynomial degree <= max_degree - 1.
    """
    rng = random.Random(seed)
    mod = ALGEBRAS[flat.algebra]
    op = _flat_op(mod, flat.lie, flat.rep)
    basis = full_flat_basis(flat)
    low = [b for b in basis if _max_poly_degree(b) <= flat.max_degree - 1]
    checked = {"product": 0, "lie_derivative": 0, "contraction": 0, "differential": 0}
    failures = 0
    if basis:
        for _ in range(samples):
            b1, b2 = rng.choice(basis), rng.choice(basis)
            a = rng.randrange(flat.lie.dim)
            for name, image in (("product", b1 * b2),
                                ("lie_derivative", mod.lie_derivative(a, b1)),
                                ("contraction", mod.contraction(a, b2))):
                failures += int(not op(image).is_zero)
                checked[name] += 1
    if low:
        for _ in range(samples):
            if not op(mod.differential(rng.choice(low))).is_zero:
                failures += 1
            checked["differential"] += 1
    return {
        "seed": seed,
        "samples": samples,
        "checked": checked,
        "failures": failures,
        "all_closed": failures == 0,
    }
