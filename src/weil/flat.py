"""Truncated-degree computation of horizontal, basic, and flat subspaces.

Horizontal elements have no exterior / Clifford factor; the solver
enumerates monomial-times-matrix-unit bases up to a degree bound, maps
them through the defining operator (L_a for basic, bracket with the
curvature for flat), and takes the exact kernel.  Degree means symmetric
degree classically (where the operators are graded and the solves split
into per-degree blocks) and PBW degree quantum-side (a filtration, so
solves run on cumulative <= k blocks).

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


def _block(mod, lie, rep, monos, combo):
    """Monomial-times-matrix-unit basis with index monomial `combo`."""
    d = rep.dim
    out = []
    for mono in monos:
        for unit in range(d * d):
            ent = [Fraction(0)] * (d * d)
            ent[unit] = Fraction(1)
            out.append(mod.Element(lie, rep, {(mono, combo): Matrix(d, d, ent)}))
    return out


def hor_basis(algebra, lie, rep, monos):
    return _block(ALGEBRAS[algebra], lie, rep, monos, ())


def element_coords(x) -> dict:
    """Sparse coordinates of an element: (monomial key, i, j) -> Fraction."""
    out = {}
    for key, mat in x.terms.items():
        for i in range(mat.rows):
            for j in range(mat.cols):
                v = mat[i, j]
                if v:
                    out[(key, i, j)] = v
    return out


def _kernel(domain, coord_maps):
    """Exact kernel from sparse image coordinates of a domain basis.

    Rows are indexed by the sorted union of observed coordinate keys, so
    no truncation of the codomain can hide a nonzero component.
    """
    keys = sorted(set().union(*coord_maps)) if coord_maps else []
    key_index = {k: r for r, k in enumerate(keys)}
    ncols = len(domain)
    entries = [Fraction(0)] * (len(keys) * ncols)
    for col, cmap in enumerate(coord_maps):
        for k, v in cmap.items():
            entries[key_index[k] * ncols + col] = v
    basis = []
    for vec in nullspace(Matrix(len(keys), ncols, entries)):
        elem = None
        for r in range(ncols):
            q = vec[r, 0]
            if not q:
                continue
            piece = domain[r] * q
            elem = piece if elem is None else elem + piece
        if elem is not None:
            basis.append(elem)
    return basis


def _span_matrix(elements):
    coord_maps = [element_coords(x) for x in elements]
    keys = sorted(set().union(*coord_maps)) if coord_maps else []
    key_index = {k: c for c, k in enumerate(keys)}
    rows = []
    for cmap in coord_maps:
        row = [Fraction(0)] * len(keys)
        for k, v in cmap.items():
            row[key_index[k]] = v
        rows.append(row)
    return Matrix.from_rows(rows) if rows else Matrix.zeros(0, 0)


def span_rank(elements) -> int:
    if not elements:
        return 0
    return rank(_span_matrix(elements))


def span_contains(big, small) -> bool:
    """True when span(small) is a subspace of span(big)."""
    small = [x for x in small if not x.is_zero]
    if not small:
        return True
    if not big:
        return False
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
    kind: str
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


def _solve_levels(algebra, kind, lie, rep, max_degree, image_coords):
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
    return SubspaceResult(algebra, kind, max_degree, dims, vectors)


def basic_subspace(algebra, lie, rep, max_degree) -> SubspaceResult:
    """Horizontal solutions of L_a x = 0 for every a, up to max_degree."""
    mod = ALGEBRAS[algebra]
    return _solve_levels(algebra, "basic", lie, rep, max_degree,
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

    return _solve_levels(algebra, "flat", lie, rep, max_degree, image_coords)


def inclusion_report(algebra, lie, rep, max_degree, seed=0) -> dict:
    """Per-degree dimensions of basic and flat with containment columns.

    Classically basic inside flat is a theorem; quantum-side the same
    column is observed evidence for an open question, never asserted.
    """
    mod = ALGEBRAS[algebra]
    ident = Matrix.identity(rep.dim)
    basic = basic_subspace(algebra, lie, rep, max_degree)
    flat = flat_subspace(algebra, lie, rep, max_degree)
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


def full_flat_basis(algebra, lie, rep, max_degree, degree=None):
    """Flat basis of the full truncated algebra, exterior / Clifford
    factors included.

    The bracket with the curvature never changes the index monomial of a
    term (checked below), so the solve runs block by block and stays
    exact.  `degree` restricts the solve to that level: one symmetric
    degree classically, degree <= `degree` quantum-side.
    """
    mod = ALGEBRAS[algebra]
    n = lie.dim
    op = _flat_op(mod, lie, rep)
    monos = (_level_monomials(mod, n, degree) if degree is not None
             else monomials_up_to(n, max_degree))
    basis = []
    for combo in _index_monomials(n):
        domain = _block(mod, lie, rep, monos, combo)
        images = [op(v) for v in domain]
        for im in images:
            for key in im.terms:
                if key[1] != combo:
                    raise AssertionError("curvature bracket left its index block")
        basis.extend(_kernel(domain, [element_coords(im) for im in images]))
    return basis


def decomposition_report(algebra, lie, rep, max_degree) -> dict:
    """Check flat(full) = (exterior or Clifford factor) (x) flat(horizontal).

    Verified level by level by dimension count (full-space solve against
    2^n times the horizontal count) and by exact flatness of every
    product vector.
    """
    mod = ALGEBRAS[algebra]
    n = lie.dim
    hor = flat_subspace(algebra, lie, rep, max_degree)
    op = _flat_op(mod, lie, rep)
    ident = Matrix.identity(rep.dim)
    rows = []
    all_match = True
    for k in range(max_degree + 1):
        hvecs = hor.vectors[k]
        dim_full = len(full_flat_basis(algebra, lie, rep, max_degree, degree=k))
        expected = (2 ** n) * len(hvecs)
        products_flat = all(
            op(mod.Element(lie, rep, {((0,) * n, combo): ident}) * h).is_zero
            for combo in _index_monomials(n)
            for h in hvecs
        )
        match = dim_full == expected and products_flat
        all_match = all_match and match
        rows.append({
            "deg": k,
            "dim_hor_flat": len(hvecs),
            "dim_full_flat": dim_full,
            "expected_full": expected,
            "match": match,
        })
    return {"factor": 2 ** n, "per_degree": rows, "all_match": all_match}


def _max_poly_degree(x):
    return max((sum(key[0]) for key in x.terms), default=0)


def closure_report(algebra, lie, rep, max_degree, samples=20, seed=0) -> dict:
    """Sampled closure of the full flat subspace under products and the
    three operators.

    Products, L_a, and iota_a images of flat elements are checked for
    exact flatness; the differential raises degree, so its inputs are
    drawn from vectors of polynomial degree <= max_degree - 1.
    """
    rng = random.Random(seed)
    mod = ALGEBRAS[algebra]
    op = _flat_op(mod, lie, rep)
    basis = full_flat_basis(algebra, lie, rep, max_degree)
    low = [b for b in basis if _max_poly_degree(b) <= max_degree - 1]
    checked = {"product": 0, "lie_derivative": 0, "contraction": 0, "differential": 0}
    failures = 0
    if basis:
        for _ in range(samples):
            b1, b2 = rng.choice(basis), rng.choice(basis)
            a = rng.randrange(lie.dim)
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
