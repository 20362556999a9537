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

from . import classical as cw
from . import quantum as qw
from .linalg import Matrix, nullspace, rank

CLASSICAL = "classical"
QUANTUM = "quantum"


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


def matrix_units(d):
    return [(i, j) for i in range(d) for j in range(d)]


def _unit_matrix(d, i, j):
    ent = [Fraction(0)] * (d * d)
    ent[i * d + j] = Fraction(1)
    return Matrix(d, d, ent)


def _element(algebra, lie, rep, mono, idx, mat):
    if algebra == CLASSICAL:
        return cw.ClassicalElement(lie, rep, {(mono, idx): mat})
    return qw.QuantumElement(lie, rep, {(mono, idx): mat})


def hor_basis(algebra, lie, rep, monos):
    d = rep.dim
    return [
        _element(algebra, lie, rep, mono, (), _unit_matrix(d, i, j))
        for mono in monos
        for (i, j) in matrix_units(d)
    ]


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


def kernel_of_operator(domain, op):
    return _kernel(domain, [element_coords(op(v)) for v in domain])


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


def _ops(algebra, lie, rep):
    if algebra == CLASSICAL:
        curv = cw.curvature(lie, rep)
        return {
            "lie": cw.lie_derivative,
            "contraction": cw.contraction,
            "differential": cw.differential,
            "flat": lambda x: cw.supercommutator(curv, x),
        }
    curv = qw.curvature(lie, rep)
    return {
        "lie": qw.lie_derivative,
        "contraction": qw.contraction,
        "differential": qw.differential,
        "flat": lambda x: qw.supercommutator(curv, x),
    }


def _lie_stacked_coords(algebra, lie, rep, domain):
    """Coordinates of all L_a images at once, tagged by the generator index."""
    lie_op = _ops(algebra, lie, rep)["lie"]
    out = []
    for v in domain:
        tagged = {}
        for a in range(lie.dim):
            for key, val in element_coords(lie_op(a, v)).items():
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

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def basis_up_to(self, k):
        if self.algebra == CLASSICAL:
            out = []
            for d in range(min(k, self.max_degree) + 1):
                out.extend(self.vectors.get(d, []))
            return out
        return list(self.vectors.get(min(k, self.max_degree), []))


def basic_subspace(algebra, lie, rep, max_degree) -> SubspaceResult:
    """Horizontal solutions of L_a x = 0 for every a, up to max_degree."""
    n = lie.dim
    dims, vectors = {}, {}
    if algebra == CLASSICAL:
        for k in range(max_degree + 1):
            domain = hor_basis(algebra, lie, rep, degree_monomials(n, k))
            basis = _kernel(domain, _lie_stacked_coords(algebra, lie, rep, domain))
            dims[k], vectors[k] = len(basis), basis
    else:
        prev = 0
        for k in range(max_degree + 1):
            domain = hor_basis(algebra, lie, rep, monomials_up_to(n, k))
            basis = _kernel(domain, _lie_stacked_coords(algebra, lie, rep, domain))
            dims[k], vectors[k] = len(basis) - prev, basis
            prev = len(basis)
    return SubspaceResult(algebra, "basic", max_degree, dims, vectors)


def flat_subspace(algebra, lie, rep, max_degree) -> SubspaceResult:
    """Horizontal solutions of [curvature, x] = 0, up to max_degree."""
    n = lie.dim
    op = _ops(algebra, lie, rep)["flat"]
    dims, vectors = {}, {}
    if algebra == CLASSICAL:
        for k in range(max_degree + 1):
            domain = hor_basis(algebra, lie, rep, degree_monomials(n, k))
            images = [op(v) for v in domain]
            for im in images:
                for (s, e) in im.terms:
                    if sum(s) != k + 1 or e != ():
                        raise AssertionError(
                            "bracket with C must raise symmetric degree by exactly 1")
            basis = _kernel(domain, [element_coords(im) for im in images])
            dims[k], vectors[k] = len(basis), basis
    else:
        prev = 0
        for k in range(max_degree + 1):
            domain = hor_basis(algebra, lie, rep, monomials_up_to(n, k))
            images = [op(v) for v in domain]
            for im in images:
                for (p, c) in im.terms:
                    if c != ():
                        raise AssertionError(
                            "bracket with the quantum curvature must stay horizontal")
            basis = _kernel(domain, [element_coords(im) for im in images])
            dims[k], vectors[k] = len(basis) - prev, basis
            prev = len(basis)
    return SubspaceResult(algebra, "flat", max_degree, dims, vectors)


def _module_products(algebra, lie, rep, basic: SubspaceResult, k):
    """Polynomial multiples of basic vectors at level k: the S-module
    classically, the left U-module quantum-side."""
    n = lie.dim
    d = rep.dim
    ident = Matrix.identity(d)
    out = []
    if algebra == CLASSICAL:
        for kb in range(k + 1):
            for b in basic.vectors.get(kb, []):
                for mono in degree_monomials(n, k - kb):
                    out.append(_element(algebra, lie, rep, mono, (), ident) * b)
    else:
        for b in basic.basis_up_to(k):
            db = max((sum(p) for (p, c) in b.terms), default=0)
            for mono in monomials_up_to(n, k - db):
                out.append(_element(algebra, lie, rep, mono, (), ident) * b)
    return out


def inclusion_report(algebra, lie, rep, max_degree, seed=0) -> dict:
    """Per-degree dimensions of basic and flat with containment columns.

    Classically basic inside flat is a theorem; quantum-side the same
    column is observed evidence for an open question, never asserted.
    """
    basic = basic_subspace(algebra, lie, rep, max_degree)
    flat = flat_subspace(algebra, lie, rep, max_degree)
    rows = []
    for k in range(max_degree + 1):
        if algebra == CLASSICAL:
            bvecs, fvecs = basic.vectors[k], flat.vectors[k]
        else:
            bvecs, fvecs = basic.basis_up_to(k), flat.basis_up_to(k)
        module = _module_products(algebra, lie, rep, basic, k)
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
        "degree_semantics": "exact" if algebra == CLASSICAL else "filtration_increment",
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
    term (asserted below), so the solve runs block by block and stays
    exact.  `degree` restricts classically to one symmetric degree.
    """
    n = lie.dim
    d = rep.dim
    op = _ops(algebra, lie, rep)["flat"]
    if algebra == CLASSICAL and degree is not None:
        monos = degree_monomials(n, degree)
    else:
        monos = monomials_up_to(n, max_degree)
    basis = []
    for combo in _index_monomials(n):
        domain = [
            _element(algebra, lie, rep, mono, combo, _unit_matrix(d, i, j))
            for mono in monos
            for (i, j) in matrix_units(d)
        ]
        images = [op(v) for v in domain]
        for im in images:
            for key in im.terms:
                if key[1] != combo:
                    raise AssertionError("curvature bracket left its index block")
        basis.extend(_kernel(domain, [element_coords(im) for im in images]))
    return basis


def decomposition_report(algebra, lie, rep, max_degree) -> dict:
    """Check flat(full) = (exterior or Clifford factor) (x) flat(horizontal).

    Verified by dimension count (full-space solve against 2^n times the
    horizontal count) and by exact flatness of every product vector.
    """
    n = lie.dim
    d = rep.dim
    hor = flat_subspace(algebra, lie, rep, max_degree)
    op = _ops(algebra, lie, rep)["flat"]
    ident = Matrix.identity(d)
    rows = []
    all_match = True
    for k in range(max_degree + 1):
        if algebra == CLASSICAL:
            dim_hor = hor.dims[k]
            dim_full = len(full_flat_basis(algebra, lie, rep, max_degree, degree=k))
            hvecs = hor.vectors[k]
        else:
            dim_hor = len(hor.basis_up_to(k))
            dim_full = len(full_flat_basis(algebra, lie, rep, k))
            hvecs = hor.basis_up_to(k)
        expected = (2 ** n) * dim_hor
        products_flat = all(
            op(_element(algebra, lie, rep, (0,) * n, combo, ident) * h).is_zero
            for combo in _index_monomials(n)
            for h in hvecs
        )
        match = dim_full == expected and products_flat
        all_match = all_match and match
        rows.append({
            "deg": k,
            "dim_hor_flat": dim_hor,
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
    ops = _ops(algebra, lie, rep)
    op = ops["flat"]
    basis = full_flat_basis(algebra, lie, rep, max_degree)
    low = [b for b in basis if _max_poly_degree(b) <= max_degree - 1]
    checked = {"product": 0, "lie_derivative": 0, "contraction": 0, "differential": 0}
    failures = 0
    if basis:
        for _ in range(samples):
            b1, b2 = rng.choice(basis), rng.choice(basis)
            a = rng.randrange(lie.dim)
            if not op(b1 * b2).is_zero:
                failures += 1
            checked["product"] += 1
            if not op(ops["lie"](a, b1)).is_zero:
                failures += 1
            checked["lie_derivative"] += 1
            if not op(ops["contraction"](a, b2)).is_zero:
                failures += 1
            checked["contraction"] += 1
    if low:
        for _ in range(samples):
            if not op(ops["differential"](rng.choice(low))).is_zero:
                failures += 1
            checked["differential"] += 1
    return {
        "seed": seed,
        "samples": samples,
        "checked": checked,
        "failures": failures,
        "all_closed": failures == 0,
    }
