"""Lie-algebra data: structure constants, invariant forms, representations.

Structure constants are stored sparsely as supplied; the accessor `f`
synthesizes the antisymmetric partner, so well-formed data only ever
lists one orientation per pair.  Validation never raises on bad algebra
data: it returns reports listing every violated instance, with 1-based
indices (all indices are 0-based internally).  A form is orthonormal when
it is the n x n identity, n = dim g: `BilinearForm.is_orthonormal(n)`,
read by `LieData.has_orthonormal_form` and `validate_form` alike.
"""

from __future__ import annotations

import json
import re
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import compress
from types import MappingProxyType

from .linalg import Matrix, exact_scalar, parse_scalar, rank


@dataclass(frozen=True)
class BilinearForm:
    matrix: Matrix

    def is_orthonormal(self, n) -> bool:
        """Whether the form is the n x n identity, n the algebra's dimension."""
        return self.matrix == Matrix.identity(n)


@dataclass(frozen=True, eq=False)
class BracketTable:
    """`LieData.pair_brackets()` read-only, the key of the PBW caches.  Equal
    tables are one object (`_TABLES`), so algebras with equal structure
    constants share cache entries; it hashes by identity, and holds no
    `LieData`, so an entry keeps no algebra alive."""

    rows: MappingProxyType  # (a, b) -> ((c, f^c_ab), ...)


_TABLES = weakref.WeakValueDictionary()  # a table's rows, as a tuple -> the table


@dataclass(frozen=True, eq=False)
class LieData:
    """Dimension, structure constants f^c_ab keyed (a, b, c) over the
    0-based basis indices, an optional invariant form, a name, and one
    derived table, `pair_brackets`.

    Entries are kept exactly as constructed so that validation can flag
    inconsistent orientations, and read-only so that `f` and the table
    agree; builtins and the file loader only ever populate a < b keys.
    A dimension below 1 raises ValueError.
    """

    dim: int
    entries: MappingProxyType
    form: BilinearForm | None = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"a Lie algebra needs dimension at least 1, got {self.dim}")
        object.__setattr__(self, "entries", MappingProxyType(
            {k: exact_scalar(v) for k, v in self.entries.items()}))

    def f(self, a, b, c) -> Fraction:
        """f^c_ab with the sign of the stored orientation synthesized."""
        v = self.entries.get((a, b, c))
        if v is not None:
            return v
        v = self.entries.get((b, a, c))
        if v is not None:
            return -v
        return Fraction(0)

    def pair_brackets(self) -> MappingProxyType:
        """Nonzero (c, f^c_ab) pairs for every ordered pair (a, b) in range,
        read-only: the rows of `bracket_table`."""
        return self.bracket_table.rows

    @cached_property
    def bracket_table(self) -> BracketTable:
        """The `BracketTable` of the pairs, built once on first use.  Each
        f^c_ab is an int when it is integral and a Fraction otherwise, so
        that the PBW kernel and every other reader multiply in ints on an
        integral algebra.

        Only a stored key or its swapped partner can give a nonzero f, so
        the table costs the number of entries, not n^3; keys and rows keep
        the index order of a dense scan.
        """
        n = self.dim
        keys = set()
        for a, b, c in self.entries:
            if 0 <= a < n and 0 <= b < n and 0 <= c < n:
                keys.add((a, b, c))
                keys.add((b, a, c))
        pairs = {}
        for a, b, c in sorted(keys):
            if q := self.f(a, b, c):
                q = q.numerator if q.denominator == 1 else q
                pairs.setdefault((a, b), []).append((c, q))
        rows = tuple((k, tuple(v)) for k, v in pairs.items())
        return _TABLES.setdefault(rows, BracketTable(MappingProxyType(dict(rows))))

    @property
    def has_orthonormal_form(self) -> bool:
        return self.form is not None and self.form.is_orthonormal(self.dim)


@dataclass(frozen=True, eq=False)
class RepData:
    """A tuple of n matrices, one per basis element, acting on V."""

    name: str
    matrices: tuple

    @property
    def dim(self) -> int:
        return self.matrices[0].rows if self.matrices else 0


# violations a report prints; the rest are counted, and all stay in `violations`
MAX_LISTED = 20


@dataclass
class ValidationReport:
    subject: str
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg):
        self.violations.append(msg)

    def lines(self):
        if self.ok:
            return [f"ok    {self.subject}"]
        out = [f"FAIL  {self.subject}"]
        out.extend(f"      {v}" for v in self.violations[:MAX_LISTED])
        if len(self.violations) > MAX_LISTED:
            out.append(f"      … and {len(self.violations) - MAX_LISTED} more")
        return out

    def __str__(self):
        return "\n".join(self.lines())


@dataclass
class FormReport(ValidationReport):
    orthonormal: bool = False


def validate_lie(lie: LieData) -> ValidationReport:
    """Check antisymmetry of stored entries and the Jacobi identity."""
    rep = ValidationReport("lie algebra" + (f" {lie.name}" if lie.name else ""))
    n = lie.dim
    for (a, b, c), v in sorted(lie.entries.items()):
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            rep.add(f"index out of range at ({a + 1},{b + 1},{c + 1})")
        elif a == b and v != 0:
            rep.add(f"antisymmetry violation at ({a + 1},{b + 1},{c + 1}): f^c_aa must vanish")
    # a pair (a, b, c), (b, a, c) is named once, at its a < b key
    for (a, b, c), v in sorted(lie.entries.items()):
        other = lie.entries.get((b, a, c))
        if a < b and other is not None and v + other != 0:
            rep.add(f"antisymmetry violation at ({a + 1},{b + 1},{c + 1}): f^c_ab + f^c_ba != 0")
    if not rep.ok:
        return rep
    # f is antisymmetric from here on; the Jacobi sum at (a, b, c) runs
    # over the nonzero f^m_ab f^d_mc (and cyclic) only
    brackets = lie.pair_brackets()
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                sums = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for m, q in brackets.get((x, y), ()):
                        for d, r in brackets.get((m, z), ()):
                            sums[d] = sums.get(d, 0) + q * r
                for d in sorted(sums):
                    if sums[d] != 0:
                        rep.add(
                            f"jacobi violation at ({a + 1},{b + 1},{c + 1}) "
                            f"target {d + 1}: sum = {sums[d]}"
                        )
    return rep


def validate_form(lie: LieData, form: BilinearForm) -> FormReport:
    """Check symmetry, invertibility, and invariance; flag B = identity."""
    rep = FormReport("bilinear form")
    B = form.matrix
    n = lie.dim
    if B.rows != n or B.cols != n:
        rep.add(f"form is {B.rows}x{B.cols}, expected {n}x{n}")
        return rep
    if B != B.transpose():
        rep.add("form is not symmetric")
    if rank(dict(enumerate(B.num[i * n:(i + 1) * n])) for i in range(n)) != n:
        rep.add("form is degenerate")
    # invariance: ad_a^T B + B ad_a = 0, entry (b, d) the sum over c of
    # f^c_ab B_cd + f^c_ad B_bc
    for a, ad in enumerate(adjoint_rep(lie).matrices):
        m = ad.transpose() * B + B * ad
        for i in compress(range(n * n), m.num):
            b, d = divmod(i, n)
            rep.add(f"invariance violation at ({a + 1},{b + 1},{d + 1}): sum = {m[b, d]}")
    rep.orthonormal = form.is_orthonormal(n)
    return rep


def validate_rep(lie: LieData, rep: RepData) -> ValidationReport:
    """Check that the matrices form a Lie homomorphism."""
    report = ValidationReport(f"representation {rep.name}")
    n = lie.dim
    if len(rep.matrices) != n:
        report.add(f"{len(rep.matrices)} matrices for dim {n}")
        return report
    d = rep.dim
    for i, m in enumerate(rep.matrices):
        if m.rows != d or m.cols != d:
            report.add(f"matrix {i + 1} is {m.rows}x{m.cols}, expected {d}x{d}")
    if not report.ok:
        return report
    brackets = lie.pair_brackets()
    for a in range(n):
        for b in range(a + 1, n):
            lhs = rep.matrices[a].commutator(rep.matrices[b])
            rhs = Matrix.zeros(d, d)
            for c, q in brackets.get((a, b), ()):
                rhs = rhs + rep.matrices[c] * q
            if lhs != rhs:
                report.add(f"representation violation at pair ({a + 1},{b + 1})")
    return report


def adjoint_rep(lie: LieData) -> RepData:
    """Matrices of ad on the basis: (tau_a)_cb = f^c_ab."""
    n = lie.dim
    ents = [[0] * (n * n) for _ in range(n)]
    for (a, b), pairs in lie.pair_brackets().items():
        for c, q in pairs:
            ents[a][c * n + b] = q
    return RepData("adjoint", tuple(Matrix(n, n, e) for e in ents))


def trivial_rep(lie: LieData) -> RepData:
    return RepData("trivial", tuple(Matrix.zeros(1, 1) for _ in range(lie.dim)))


@dataclass(eq=False)
class AlgebraDef:
    """A named algebra bundle: Lie data, optional form, representations."""

    name: str
    lie: LieData
    reps: dict

    @property
    def form(self) -> BilinearForm | None:
        return self.lie.form

    def rep(self, name: str) -> RepData:
        if name not in self.reps:
            known = ", ".join(sorted(self.reps))
            raise KeyError(f"unknown representation {name!r} (have: {known})")
        return self.reps[name]


# n in ASCII digits with no leading zero; a name is matched as given, unstripped
_ABELIAN = re.compile(r"abelian\((0|[1-9][0-9]*)\)")

# largest Lie algebra dimension accepted from a file or as abelian(n):
# checking the adjoint representation costs n(n-1)/2 commutators of n x n
# matrices, about 0.4 s for so(10) (dim 45, 360 structure constants) and
# 0.25 s for sixteen copies of so3 (dim 48) on an Intel Xeon core
MAX_DIM = 48
# most structure constants a file may list: 2,000 validate in about a
# second, a dense dim-48 table would take minutes (so(10) needs 360)
MAX_F_ENTRIES = 2000


def _catalog(name, lie, reps) -> AlgebraDef:
    """The algebra `name` on `lie` with the trivial and adjoint
    representations and the dict `reps` of the others."""
    return AlgebraDef(name, lie, {"trivial": trivial_rep(lie), "adjoint": adjoint_rep(lie), **reps})


def builtin(name: str) -> AlgebraDef:
    """Catalog of validated algebras: abelian(n), heisenberg3, so3, sl2."""
    if m := _ABELIAN.fullmatch(name):
        n = int(m.group(1))
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"abelian(n) needs 1 <= n <= {MAX_DIM}")
        return _catalog(name, LieData(n, {}, form=BilinearForm(Matrix.identity(n)), name=name), {})
    if name == "heisenberg3":
        # basis (x, y, z): [x,y] = z
        return _catalog(name, LieData(3, {(0, 1, 2): Fraction(1)}, name=name), {})
    if name == "so3":
        f = {(0, 1, 2): Fraction(1), (1, 2, 0): Fraction(1), (0, 2, 1): Fraction(-1)}
        lie = LieData(3, f, form=BilinearForm(Matrix.identity(3)), name=name)
        return _catalog(name, lie, {"standard": RepData("standard", adjoint_rep(lie).matrices)})
    if name == "sl2":
        # basis (e, f, h): [e,f] = h, [e,h] = -2e, [f,h] = 2f
        f = {(0, 1, 2): Fraction(1), (0, 2, 0): Fraction(-2), (1, 2, 1): Fraction(2)}
        return _catalog(name, LieData(3, f, name=name), {"standard": RepData("standard", (
            Matrix.from_rows([[0, 1], [0, 0]]),
            Matrix.from_rows([[0, 0], [1, 0]]),
            Matrix.from_rows([[1, 0], [0, -1]]),
        ))})
    raise ValueError(f"unknown builtin algebra {name!r}")


def _expect(ok, path, what):
    if not ok:
        raise ValueError(f"{path}: expected {what}")


def _entry_scalar(v, path):
    try:
        if isinstance(v, str):
            return parse_scalar(v)
        if type(v) is int:
            return Fraction(v)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"{path}: expected an integer or a 'p/q' string, got {v!r}")


def _load_matrix(rows, path):
    _expect(isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows),
            path, "a list of rows")
    _expect(all(len(r) == len(rows[0]) for r in rows), path, "rows of equal length")
    return Matrix.from_rows([[_entry_scalar(e, f"{path}[{i}][{j}]") for j, e in enumerate(r)]
                             for i, r in enumerate(rows)])


def load_algebra_file(path) -> AlgebraDef:
    """Load a JSON algebra definition.

    Schema: {"dim": n, "f": [[a, b, c, "p/q"], ...], "B": [[...]]?,
    "reps": {"name": {"dim_v": d, "matrices": [[[...]]]}}?, "name": "..."?}.
    Structure constants are 1-based, only a < b entries are allowed, and
    the antisymmetric partners are synthesized.  File reps join trivial and
    adjoint, whose names they may not take; the name defaults to the path.
    A malformed file (true or false count as no integer; a name that is
    not a string; a `B` that is not n x n), a `dim` above MAX_DIM, an `f`
    longer than MAX_F_ENTRIES or an entry that is not a plain "p/q"
    raises ValueError naming a JSON path.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    _expect(isinstance(data, dict), "$", "an object")
    n = data.get("dim")
    _expect(type(n) is int and n >= 1, "$.dim", "a positive integer")
    _expect(n <= MAX_DIM, "$.dim", f"at most {MAX_DIM}, got {n}")
    f = data.get("f", [])
    _expect(isinstance(f, list), "$.f", "a list")
    _expect(len(f) <= MAX_F_ENTRIES, "$.f", f"at most {MAX_F_ENTRIES} entries, got {len(f)}")
    entries = {}
    for k, item in enumerate(f):
        where = f"$.f[{k}]"
        _expect(isinstance(item, list) and len(item) == 4, where, f"[a, b, c, value], got {item!r}")
        a, b, c, v = item
        _expect(all(type(i) is int and 1 <= i <= n for i in (a, b, c)), where,
                f"indices in 1..{n}, got {item!r}")
        _expect(a < b, where, f"a < b, got ({a},{b},{c})")
        key = (a - 1, b - 1, c - 1)
        if key in entries:
            raise ValueError(f"{where}: duplicate structure constant at ({a},{b},{c})")
        entries[key] = _entry_scalar(v, f"{where}[3]")
    form = None
    if "B" in data:
        form = BilinearForm(_load_matrix(data["B"], "$.B"))
        _expect(form.matrix.rows == form.matrix.cols == n, "$.B", f"a {n}x{n} matrix")
    name = data.get("name", str(path))
    _expect(isinstance(name, str), "$.name", "a string")
    reps = {}
    specs = data.get("reps", {})
    _expect(isinstance(specs, dict), "$.reps", "an object")
    for rep_name, spec in specs.items():
        where = f"$.reps.{rep_name}"
        _expect(rep_name not in ("trivial", "adjoint"), where,
                "a name other than the built-in trivial and adjoint")
        _expect(isinstance(spec, dict), where, "an object")
        d, mats = spec.get("dim_v"), spec.get("matrices")
        _expect(type(d) is int and d >= 1, f"{where}.dim_v", "a positive integer")
        _expect(isinstance(mats, list) and len(mats) == n, f"{where}.matrices",
                f"a list of {n} matrices")
        loaded = tuple(_load_matrix(m, f"{where}.matrices[{i}]") for i, m in enumerate(mats))
        _expect(all(m.rows == d and m.cols == d for m in loaded), f"{where}.matrices",
                f"{d}x{d} matrices")
        reps[rep_name] = RepData(rep_name, loaded)
    return _catalog(name, LieData(n, entries, form=form, name=name), reps)
