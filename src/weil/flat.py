"""Truncated-degree computation of horizontal, basic, and flat subspaces.

Horizontal elements have no exterior / Clifford factor.  The solver's
domain is the monomial-times-matrix-unit basis m (x) E_ij up to a degree
bound, and on it both defining operators (L_a for basic, the bracket with
the curvature for flat) are sums of per-monomial table terms key (p / q)
(l M A + r A M), A the matrix unit: L_a's from the monomial images
`_image(a, (m, ()))` that `WeilAlgebra.walk` applies, the bracket's from
the two sides of [k1 M, m A] per term k1 M of C - Z (`bracket_sides`).
`_rows` writes the integer rows of the coordinate matrix from the
operators' cell maps `Matrix._cells(l, r)`, and the kernel is taken in
integers; no domain vector or image is built as an element.  Degree
means symmetric degree classically (where the operators are graded and
the solve splits into per-degree blocks) and PBW degree quantum-side (a
filtration: one solve on the whole <= N block).  A vector's level is
its top degree.

The flat subspace of the full algebra is derived, not solved.  The
bracket with the even curvature C is a derivation, so once [C, x_a] = 0
is checked for every odd generator, [C, x_I h] = x_I [C, h] for
horizontal h, and [C, h] is horizontal (checked by `flat_subspace`).
As x_I h = h x_I turns each term (s, ()) of h into the one term (s, I),
h -> x_I h maps the horizontal part one-to-one onto the block of x_I;
so flat(full) is the sum over index monomials I of x_I flat(hor).
The reports check exactly these premises, n + dim flat(hor) brackets,
and never build the 2^n dim flat(hor) elements x_I h.  Each premise is
worked out once per `flat_subspace` result and shared by the reports.
The premises bracket elements (`WeilAlgebra.flat_op`), an implementation
of [C, .] independent of the solver's rows, so every solved vector is
checked by a second route.

The closure of flat(full) is decided the same way.  L_a, iota_a and d are
derivations; quantum-side they are the brackets with theta_a = u_a + g_a
+ tau_a, x_a and Q = D + x_a tau_a.  For such a D and y with [C, y] = 0,
D [C, y] = [D C, y] + [C, D y] gives [C, D y] = -[D C, y], so flat is
closed under the three operators once their 2n + 1 images of C vanish:
L_a C = 0, iota_a C = 0 and the Bianchi identity d C = 0.  It is closed
under products as [C, .] is a derivation.  `closure_report` counts the
premises that fail and draws, builds and brackets no image.

So are the inclusion columns.  Row k of flat is the whole kernel of
[C, .] on the block (degree k classically, <= k quantum-side) that holds
row k's basic vectors b and module elements m b, and its vectors h are
checked by [C, h] = 0.  So basic lies in flat once [C, b] = 0 for each b;
as [C, m b] = [C, m] b + m [C, b], the module does once also [C, m] b = 0,
[C, m] bracketed once per monomial m, and it then spans flat when its one
rank is dim flat.  Only that rank builds the products m b.

Every bracket [C, x] is computed as [C - Z, x] (`WeilAlgebra.flat_op`),
where Z is the sum of C's terms with no odd factor and a c I End V part:
quantum-side the Casimir part (1/2) u_a u_a (x) I and the constant c I,
central in the quantum Weil algebra (Alekseev and Meinrenken, Invent.
Math. 139, 2000), whose PBW products would otherwise be computed on
both sides of every bracket only to cancel.  The split is taken only
after [Z, u_b] = 0 and [Z, x_b] = 0 are checked exactly for every b; as
Z's End V parts are scalars, Z also commutes with End V, and the u_b,
the x_b and End V generate the algebra, so Z is central and [C, x] =
[C - Z, x] for every x.  If any of these brackets is nonzero the full C
is used.  Classically no builtin curvature has such terms.  Every
function here takes one `WeilAlgebra` value, or a result that holds
it, so the split is computed once per value.

Every reported basis vector satisfies its defining equation exactly;
dimension tables are reproducible bit for bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from math import lcm

from .linalg import Matrix, kernel, rank


def degree_monomials(n, deg):
    """All exponent tuples of total degree deg in n variables, lex order."""
    if n == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in degree_monomials(n - 1, deg - first):
            out.append((first,) + rest)
    return out


def monomials_up_to(n, max_deg):
    return [mono for k in range(max_deg + 1) for mono in degree_monomials(n, k)]


def _at_level(alg, pairs, k):
    """The items of the (level, item) `pairs` that row k lists: level
    exactly k where the algebra is graded, level <= k where it is only
    filtered."""
    return [x for level, x in pairs if level == k or (level < k and not alg.GRADED)]


def span_rank(elements) -> int:
    """Rank of the coordinate matrix whose column c is `elements[c]`: row
    (key, cell) holds entry `cell` of term `key`, for the sorted keys that
    occur, as the terms' numerators over the lcm of their denominators."""
    den = lcm(*{mat.den for x in elements for mat in x.terms.values()})
    rows = defaultdict(dict)
    for c, x in enumerate(elements):
        for key, mat in x.terms.items():
            scale = den // mat.den
            for cell, v in enumerate(mat.num):
                if v:
                    rows[(key, cell)][c] = v * scale
    return rank([rows[row_key] for row_key in sorted(rows)])


@dataclass
class SubspaceResult:
    """Exact basis of a defined subspace of the truncated horizontal part.

    `levelled` holds each kernel vector once, in solver order, as a pair
    (level, vector), the level being its top polynomial degree.  Row k of
    a report lists the pairs that `_at_level` keeps: the degree-k block
    classically, the kernel of the <= k block quantum-side.  `dims[k]`
    counts those of level exactly k.
    """

    alg: object  # the `WeilAlgebra`
    max_degree: int
    levelled: list

    @property
    def dims(self):
        levels = [level for level, _ in self.levelled]
        return {k: levels.count(k) for k in range(self.max_degree + 1)}

    # -- the premises of the reports, each worked out once per result

    @cached_property
    def commuting(self):
        """[C, h] = 0 for each vector h of `levelled`, in its order."""
        return [self.alg.flat_op(h).is_zero for _, h in self.levelled]

    @property
    def flags(self):
        """(level, [C, h] = 0) for each pair (level, h) of `levelled`."""
        return [(level, ok) for (level, _), ok in zip(self.levelled, self.commuting)]

    @cached_property
    def odd_premise_failure(self):
        """The first a with [C, x_a] != 0, or None (`_odd_premise_failure`)."""
        return _odd_premise_failure(self.alg, self.alg.flat_op)

    @cached_property
    def curvature_image_failures(self) -> int:
        """How many of L_a C, iota_a C and d C are nonzero: operators 0 .. 2n on C."""
        alg = self.alg
        return sum(not alg._apply(i, alg.curvature).is_zero for i in range(2 * alg.lie.dim + 1))


def _rows(alg, monos, table):
    """The nonzero rows {column: int} of an operator's coordinate matrix on
    the domain m (x) E_ij, m in `monos`, whose column (index of m) d^2 + i d
    + j is that vector, keyed (tag, key, cell): entry `cell` of term `key`
    of image `tag`.

    `table(m)` lists the operator on m (x) A as terms (tag, key, M, l, r,
    p, q): key (p / q) (l M A + r A M), for integers l, r, p and q > 0.
    Each triple (out, in, v) of M's `_cells(l, r)`, made once per (M, l,
    r), is entry v at row (tag, key, out), column base + in, as numerators
    over the lcm of the terms' q M.den.
    """
    d2 = alg.rep.dim ** 2
    tables = [table(m) for m in monos]
    den = lcm(*{q * mat.den for terms in tables for _, _, mat, _, _, _, q in terms})
    maps, rows = {}, defaultdict(dict)
    for base, terms in zip(range(0, d2 * len(monos), d2), tables):
        for tag, key, mat, l, r, p, q in terms:
            cells = maps.get((mat.num, l, r))
            if cells is None:
                cells = maps[mat.num, l, r] = mat._cells(l, r)
            scale = p * (den // (q * mat.den))
            for out, c, v in cells:
                row, col = rows[tag, key, out], base + c
                row[col] = row.get(col, 0) + scale * v
    return {row_key: row for row_key, row in rows.items() if any(row.values())}


def _solve_levels(alg, max_degree, table, check=None):
    """Kernel of the horizontal part up to max_degree, split into levels.

    One solve per degree block classically, one <= max_degree block
    quantum-side, on the rows that `_rows` writes from `table`; `check`,
    if given, is called with the set of term keys of a block's nonzero
    rows and the block's monomials.  Columns are ordered by degree and a
    normalized kernel vector lives on its free column and the pivot
    columns before it, so its level is its top polynomial degree, and
    those of level <= k are the normalized kernel of the <= k block.  A
    kernel vector becomes an element by grouping its columns per monomial.
    """
    n, d = alg.lie.dim, alg.rep.dim
    blocks = ([degree_monomials(n, k) for k in range(max_degree + 1)] if alg.GRADED
              else [monomials_up_to(n, max_degree)])
    basis = []
    for monos in blocks:
        rows = _rows(alg, monos, table)
        if check is not None:
            check({key for _, key, _ in rows}, monos)
        for nums, den in kernel([rows[row_key] for row_key in sorted(rows)], len(monos) * d * d):
            parts = {}
            for c, x in nums.items():
                mono, cell = divmod(c, d * d)
                parts.setdefault(monos[mono], [0] * (d * d))[cell] = x
            basis.append(alg.element({(mono, ()): Matrix._canonical(d, d, num, den)
                                      for mono, num in parts.items()}))
    return SubspaceResult(alg, max_degree, [(v.poly_degree(), v) for v in basis])


def basic_subspace(alg, max_degree) -> SubspaceResult:
    """Horizontal solutions of L_a x = 0 for every a, up to max_degree.

    L_a on m (x) A is read off `_image(a, (m, ()))`: a plain term key (p /
    r) A, cells (1, 0) of I, and an endo term key (p / r) (tau_t A + s A
    tau_t), cells (1, s) of tau_t."""
    n, taus, ident = alg.lie.dim, alg.rep.matrices, Matrix.identity(alg.rep.dim)

    def table(m):
        terms = []
        for a in range(n):
            plain, endo = alg._image(a, (m, ()))
            terms += [(a, k, ident, 1, 0, p, r) for k, p, r in plain]
            terms += [(a, k, taus[t], 1, s, p, r) for k, t, s, p, r in endo]
        return terms

    return _solve_levels(alg, max_degree, table)


def flat_subspace(alg, max_degree) -> SubspaceResult:
    """Horizontal solutions of [curvature, x] = 0, up to max_degree.

    [C - Z, m (x) A] sums, over the terms k1 M of C - Z, the sides k1 m
    (x) M A - m k1 (x) A M (`bracket_sides`, m even), M's cells (1, 0)
    and (0, 1).  The nonzero rows must have no Clifford or exterior factor
    and, classically, symmetric degree one more than the block's."""
    curv = alg.bracketed_curvature.terms.items()

    def table(m):
        return [(0, k, mat, 1 - side, side, p, r)
                for k1, mat in curv for side, k, p, r in alg.bracket_sides(k1, (m, ()))]

    def check(keys, monos):
        for s, e in keys:
            if e != ():
                raise AssertionError("the bracket with the curvature must stay horizontal")
            if alg.GRADED and sum(s) != sum(monos[0]) + 1:
                raise AssertionError("bracket with C must raise symmetric degree by exactly 1")

    return _solve_levels(alg, max_degree, table, check)


def inclusion_report(flat) -> dict:
    """Per-degree dimensions of basic and flat (a `flat_subspace` result)
    with containment columns, decided by premises (module docstring).

    Classically basic inside flat is a theorem; quantum-side the same
    column is observed evidence for an open question, never asserted.
    """
    alg, max_degree = flat.alg, flat.max_degree
    ident = Matrix.identity(alg.rep.dim)
    basic = basic_subspace(alg, max_degree)
    # the multiples m b_j of the basic b_j, keyed (j, m) at level deg m +
    # level b_j: the S-module classically, the left U-module quantum-side
    module = [(sum(mono) + level, (j, mono)) for j, (level, _) in enumerate(basic.levelled)
              for mono in monomials_up_to(alg.lie.dim, max_degree - level)]
    bracket = cache(lambda m: alg.flat_op(alg.element({(m, ()): ident})))  # [C, m (x) I]
    # [C, m b_j] = [C, m] b_j + m [C, b_j] = 0 (module docstring)
    commutes = cache(lambda j, m: basic.commuting[j]
                     and (bracket(m) * basic.levelled[j][1]).is_zero)
    rows, built = [], {}
    for k in range(max_degree + 1):
        pairs, flat_ok = _at_level(alg, module, k), all(_at_level(alg, flat.flags, k))
        equal = flat_ok and all(commutes(j, m) for j, m in pairs)  # module inside flat
        if equal:  # m b_j for one rank, built once and kept while the rows list it
            built = {(j, m): built[j, m] if (j, m) in built
                     else alg.element({(m, ()): ident}) * basic.levelled[j][1] for j, m in pairs}
            equal = span_rank(list(built.values())) == len(_at_level(alg, flat.levelled, k))
        rows.append({"deg": k, "dim_basic": basic.dims[k], "dim_flat": flat.dims[k],
                     "basic_subset_flat": flat_ok and all(_at_level(alg, basic.flags, k)),
                     "s_basic_equals_flat": equal})
    return {"algebra": alg.KIND,
            "degree_semantics": "exact" if alg.GRADED else "filtration_increment",
            "per_degree": rows}


def _odd_premise_failure(alg, op):
    """The first a with [C, x_a] != 0, `op` being x -> [C, x] on `alg`, or
    None when the curvature commutes with every odd generator."""
    return next((a for a in range(alg.lie.dim) if not op(alg.odd_gen(a)).is_zero), None)


def decomposition_report(flat) -> dict:
    """Check flat(full) = (exterior or Clifford factor) (x) flat(horizontal)
    level by level for the `flat_subspace` result `flat`.

    `dim_full_flat` is 2^n dim flat(hor) by the proof in the module
    docstring, and a level matches when its premises hold: [C, x_a] = 0
    for each odd generator and [C, h] = 0 for each horizontal vector h
    that the row lists (`_at_level`).  Each vector is bracketed once per
    result (`SubspaceResult.commuting`), for the three reports.
    """
    n = flat.alg.lie.dim
    odd_flat = flat.odd_premise_failure is None
    rows = []
    for k in range(flat.max_degree + 1):
        row = _at_level(flat.alg, flat.flags, k)
        full = (2 ** n) * len(row)
        rows.append({"deg": k, "dim_hor_flat": len(row), "dim_full_flat": full,
                     "expected_full": full, "match": odd_flat and all(row)})
    return {"factor": 2 ** n, "per_degree": rows,
            "all_match": all(row["match"] for row in rows)}


def closure_report(flat, samples=20, seed=0) -> dict:
    """Closure of the full flat subspace under products and the three
    operators, for the `flat_subspace` result `flat`.

    The closure is decided by its premises (module docstring): [C, x_a] =
    0 for each odd generator (its failure raises), L_a C = 0, iota_a C = 0
    and d C = 0, and [C, h] = 0 for each horizontal flat vector h.
    `failures` counts the operator images of C that are nonzero and the
    h with [C, h] != 0 (`SubspaceResult.commuting`), and the closure
    holds when it is 0.  `samples` and `seed` only fill the echoed
    fields: `checked` gives `samples` per kind that has inputs, the
    differential's being the h of level <= max_degree - 1, as it raises
    degree.
    """
    bad = flat.odd_premise_failure
    if bad is not None:
        raise AssertionError(f"the curvature does not commute with odd generator {bad + 1}")
    count = max(samples, 0)
    low = any(level < flat.max_degree for level, _ in flat.levelled)
    checked = {name: count if flat.levelled else 0
               for name in ("product", "lie_derivative", "contraction")}
    checked["differential"] = count if low else 0
    failures = flat.curvature_image_failures + flat.commuting.count(False)
    return {"seed": seed, "samples": samples, "checked": checked, "failures": failures,
            "all_closed": failures == 0}
