"""Exact rational scalars, dense matrices, and kernel computation.

Scalars are `fractions.Fraction`: arbitrary precision, always in lowest
terms, positive denominator.  A `Matrix` is an immutable dense grid of
rationals stored as a tuple `num` of integer numerators, row by row,
over one positive common denominator `den`; entry (i, j) is
num[i * cols + j] / den.  The pair is kept canonical: gcd(den, *num) is
1, so the zero matrix has den 1.  Every rational matrix has exactly one
such form, which is why equality and hashing compare the plain tuples
and stay exact: matrices equal over Q compare and hash equal, however
they were built.  Sums, differences, products and scalar multiples run
in integer arithmetic and reduce to the canonical form once per result;
the raw kernel `_mul_num` returns a product unreduced, for the element
products and brackets to sum and reduce once per result key.  Every End
V action of the operators and of the solver's rows, A -> l M A + r A M,
is M's one cell map `_cells(l, r)`: integer triples (out cell, in cell,
v), v times cell `in` of A's numerators added into cell `out`.  The
brackets, `commutator` among them, are (1, s).  Entries leave as
`Fraction`s (`entries`, `m[i, j]`, `row`, `trace`, `scalar_value`);
`render` prints them from the integers (`format_ratio`).

`rank` and `kernel` take a sparse integer system, rows as
{column: int}, and share one elimination: each row in turn, sparsest
first, is reduced against the pivot rows found so far until its leading
column is new, and is stored there, divided by its content.  The
leading columns of any echelon basis are fixed by the row space, and
the normalized kernel basis (each free variable 1, the other free
variables 0) is fixed by them, so the rows may come in any order,
repeated or zero, and every result is reproducible bit for bit.  The
order is therefore free for speed, and sparse rows first keep the
stored pivot rows sparse: the pivot rows of the so3 adjoint quantum
flat solve at degree 8 hold 16,541 nonzeros, against 97,752 with the
rows in the solver's order (by codomain key).  `kernel` then reduces
the echelon rows right to left (Gauss-Jordan), so each keeps entries only
at its own pivot and at free columns, and reads every normalized vector
off them in integers over one denominator; it builds no Fraction.
Both passes run one step, written once: `_cancel` clears a column by
coprime integer multiples of a row and a pivot row, and `_primitive`
divides a row, or a kernel vector with its denominator, by its content.
Each pass raises AssertionError (not an `assert`, which `python -O`
strips) when a step leaves its column in the row, so a wrong step fails
at once instead of reducing the same row forever.

Matrices stay tiny here (endomorphism spaces of small representations),
so their storage is dense.  Most End V parts of the Weil algebras' elements
are c I; `_scalar` finds the c of a factor (c / den) I from the
canonical form by a count of zeros and a look at the diagonal, and
`element._products` uses it to take a product with such a factor as a
scaling of the other factor.  A product here walks the nonzero entries
of whichever factor has fewer of them, adding a scaled row or column of
the other factor for each: its cost follows the sparser factor, and the
representation matrices are nearly all zeros.  A cell map has about n
triples per nonzero entry of M and nonzero coefficient.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, lcm
from operator import add, sub

# maxsize of the cache of identity matrices; an evicted entry is rebuilt
# as an equal one
CACHE_SIZE = 64

# an optional minus sign (ASCII or typographic), digits, optional /digits;
# each part at most 1,000 digits, so a file entry has a bounded size
_SCALAR = re.compile(r"([-−]?)([0-9]{1,1000})(?:/([0-9]{1,1000}))?")


def parse_scalar(text: str) -> Fraction:
    """Parse "p/q" or "p", with an optional leading minus sign.

    Nothing else is accepted: no exponents, decimal points, underscores
    or plus sign.  A zero denominator raises ZeroDivisionError.
    """
    text = text.strip()
    m = _SCALAR.fullmatch(text)
    if m is None:
        raise ValueError(f"not a 'p/q' scalar: {text[:40]!r}")
    q = Fraction(int(m[2]), int(m[3] or 1))
    return -q if m[1] else q


def exact_scalar(q) -> Fraction:
    """q as a Fraction; a float raises TypeError.  Fraction(0.1) is the
    binary rounding of 0.1, 3602879701896397/36028797018963968, and would
    pass for an exact value in every result built on it."""
    if isinstance(q, float):
        raise TypeError(f"a float is not an exact scalar: {q!r}; pass a Fraction or an int")
    return Fraction(q)


def format_scalar(q) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    q = Fraction(q)
    return format_ratio(q.numerator, q.denominator)


def format_ratio(n, den) -> str:
    """format_scalar(n / den) for integers n and den > 0, with no Fraction."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _frac(n, den):
    return Fraction(n) if den == 1 else Fraction(n, den)


class Matrix:
    """Immutable dense matrix over Q: integer numerators `num` (row by
    row) over one positive common denominator `den`, in canonical form."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows, cols, entries):
        entries = [e if type(e) is int or type(e) is Fraction else exact_scalar(e)
                   for e in entries]
        if len(entries) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        # the lcm of lowest-terms denominators leaves no common factor
        den = lcm(*{e.denominator for e in entries if type(e) is Fraction})
        self.num = tuple([e * den if type(e) is int else e.numerator * (den // e.denominator)
                          for e in entries])
        self.den = den

    @classmethod
    def _make(cls, rows, cols, num, den):
        """Trusted constructor: (num, den) must already be canonical."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.num = num
        m.den = den
        return m

    @classmethod
    def _canonical(cls, rows, cols, num, den):
        """Reduce integer numerators `num` over den > 0 to canonical form."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        return cls._make(rows, cols, tuple(num), den)

    @classmethod
    def from_rows(cls, rows) -> Matrix:
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, [e for r in rows for e in r])

    @classmethod
    def zeros(cls, rows, cols) -> Matrix:
        return cls._make(rows, cols, (0,) * (rows * cols), 1)

    @classmethod
    @lru_cache(maxsize=CACHE_SIZE)
    def identity(cls, n) -> Matrix:
        return cls._make(n, n, tuple(int(i == j) for i in range(n) for j in range(n)), 1)

    @property
    def entries(self) -> tuple:
        """The entries as Fractions, row by row."""
        den = self.den
        return tuple(_frac(n, den) for n in self.num)

    def __getitem__(self, ij):
        i, j = ij
        return _frac(self.num[i * self.cols + j], self.den)

    def row(self, i):
        den = self.den
        return tuple(_frac(n, den) for n in self.num[i * self.cols : (i + 1) * self.cols])

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _combine(self, other, op):
        """Entrywise op (add or sub) over the common denominator."""
        if not isinstance(other, Matrix):
            return NotImplemented  # Matrix + 1 is a TypeError, as 1 + Matrix is
        self._check_same_shape(other)
        da, db = self.den, other.den
        if da == db:
            num = list(map(op, self.num, other.num))
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            num = list(map(op, [a * ma for a in self.num], [b * mb for b in other.num]))
            da *= ma
        return Matrix._canonical(self.rows, self.cols, num, da)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return Matrix._make(self.rows, self.cols, tuple([-a for a in self.num]), self.den)

    def _scalar(self):
        """The numerator c when self = (c / den) I, else None; 0 for a zero
        square matrix.  The form is canonical, so c I has exactly n * n - n
        zero numerators (n * n when c = 0) and a constant nonzero diagonal."""
        n = self.rows
        if n != self.cols:
            return None
        num = self.num
        zeros = num.count(0)
        if zeros == n * n:
            return 0
        if zeros != n * n - n:
            return None
        diag = num[:: n + 1]
        c = diag[0]
        return c if c and diag.count(c) == n else None

    def _scale(self, p, r):
        """self * (p / r), for integers p and r > 0."""
        return Matrix._canonical(self.rows, self.cols, [a * p for a in self.num], self.den * r)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
                )
            return Matrix._canonical(self.rows, other.cols, *self._mul_num(other))
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    def _mul_num(self, other):
        """(numerators, den) of the product of shape-compatible matrices,
        not reduced, walking the nonzero entries of the factor with fewer
        of them: a left entry (i, t) adds v times row t of `other` into
        row i, a right entry (t, j) adds column t of `self`, times v,
        into column j."""
        k, m = self.cols, other.cols
        a, b = self.num, other.num
        num = [0] * (self.rows * m)
        if b.count(0) <= a.count(0):
            # the left entries come row by row: sum a row, then store it
            lo, acc = 0, num[:m]
            for p in compress(range(len(a)), a):
                i, t = divmod(p, k)
                v, brow = a[p], b[t * m:t * m + m]
                if i * m == lo:
                    acc = [x + v * y for x, y in zip(acc, brow)]
                else:
                    num[lo:lo + m] = acc
                    lo, acc = i * m, [v * y for y in brow]
            num[lo:lo + m] = acc
        else:
            for p in compress(range(len(b)), b):
                t, j = divmod(p, m)
                v = b[p]
                num[j::m] = [x + v * y for x, y in zip(num[j::m], a[t::k])]
        return num, self.den * other.den

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def commutator(self, other) -> Matrix:
        """ab - ba, canonical, from a's cells (1, -1) on b's numerators; both
        matrices must be square of the same size."""
        if self.rows != self.cols or other.rows != other.cols:
            raise ValueError("commutator needs square matrices")
        self._check_same_shape(other)
        b, num = other.num, [0] * len(other.num)
        for o, c, v in self._cells(1, -1):
            num[o] += v * b[c]
        return Matrix._canonical(self.rows, self.rows, num, self.den * other.den)

    def _cells(self, l, r):
        """The map A -> l self A + r A self of a square matrix, for integers
        l and r, as triples (out cell, in cell, v): out[o] += v * A.num[c],
        over self.den.  Entry (i, t) = v sends row t of A to row i, times
        l, and column i to column t, times r; the triples are merged per
        (out, in) and the zeros dropped."""
        n, m = self.rows, self.num
        cells = defaultdict(int)
        for p in compress(range(n * n), m):
            i, t = divmod(p, n)
            v = m[p]
            for j in range(n):
                cells[i * n + j, t * n + j] += l * v
                cells[j * n + t, j * n + i] += r * v
        return tuple((o, c, v) for (o, c), v in cells.items() if v)

    def transpose(self) -> Matrix:
        c = self.cols
        num = tuple(x for j in range(c) for x in self.num[j::c])
        return Matrix._make(c, self.rows, num, self.den)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        return _frac(sum(self.num[:: self.cols + 1]), self.den)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    @property
    def is_identity(self) -> bool:
        return self.rows == self.cols and self == Matrix.identity(self.rows)

    def scalar_value(self):
        """Return c if this matrix equals c * identity, else None."""
        c = self._scalar() if self.rows else None
        return None if c is None else _frac(c, self.den)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.num) == (
            other.rows, other.cols, other.den, other.num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.num))

    def render(self) -> str:
        c, cells = self.cols, [format_ratio(n, self.den) for n in self.num]
        return "[" + ",".join("[" + ",".join(cells[i * c:(i + 1) * c]) + "]"
                              for i in range(self.rows)) + "]"

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} {self.render()})"


def _cancel(row, top, c):
    """p row - v top, p / v = top[c] / row[c] in lowest terms: `row` with
    column c cleared by the pivot row `top`, changed in place when p is 1."""
    p, v = top[c], row[c]
    g = gcd(p, v)
    p, v = p // g, v // g
    if p != 1:
        row = {j: x * p for j, x in row.items()}
    for j, x in top.items():
        y = row.get(j, 0) - v * x
        if y:
            row[j] = y
        else:
            del row[j]
    return row


def _primitive(row):
    """`row` ({column: int}) divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _echelon(rows):
    """Echelon basis of the span of `rows` ({column: int}), as a dict
    leading column -> primitive row.

    The rows come in sparsest first.  Each is reduced against the pivot
    rows found so far until its leading column is new, then stored under
    it; a row that reduces to zero is dropped.
    """
    pivots = {}
    for row in sorted(rows, key=len):
        row = {j: x for j, x in row.items() if x}
        while row:
            c = min(row)
            top = pivots.get(c)
            if top is None:
                pivots[c] = _primitive(row)
                break
            row = _cancel(row, top, c)
            if c in row:  # else the row would be reduced at c forever
                raise AssertionError(f"elimination left column {c} in a row")
    return pivots


def rank(rows) -> int:
    """Rank of the integer rows `rows` ({column: int})."""
    return len(_echelon(rows))


def kernel(rows, ncols) -> list[tuple[dict, int]]:
    """Exact basis of the right kernel of the integer rows `rows`
    ({column: int}) over `ncols` columns, one vector per free column.

    Each vector has its free variable set to 1 and the other free
    variables 0, and is returned as (numerators {column: int} in column
    order, denominator) in lowest terms; the basis is ordered by free
    column.  Gauss-Jordan: the echelon rows are reduced right to left,
    each cleared at the pivot columns after its own by the rows already
    reduced, so a reduced row has entries only at its pivot column c and
    at free columns.  The vector of free column f is then read off:
    x_c = -row_c[f] / row_c[c], over the lcm of those pivots.
    """
    pivots = _echelon(rows)
    for pc in sorted(pivots, reverse=True):
        row = pivots[pc]
        for c in [c for c in row if c != pc and c in pivots]:
            row = _cancel(row, pivots[c], c)
            if c in row:
                raise AssertionError(f"elimination left column {c} in a row")
        pivots[pc] = _primitive(row)
    # free column -> (pivot column, entry there, pivot) of the rows meeting it
    meets = defaultdict(list)
    for pc, row in pivots.items():
        p = row[pc]
        for j, x in row.items():
            if j != pc:
                meets[j].append((pc, x, p))
    basis = []
    for fc in sorted(set(range(ncols)).difference(pivots)):
        terms = meets.get(fc, ())
        den = lcm(*[p for _, _, p in terms])
        vec = {pc: -x * (den // p) for pc, x, p in terms}
        vec[fc] = den  # the free variable 1, so vec[fc] is its denominator
        vec = _primitive(vec)
        basis.append((dict(sorted(vec.items())), vec[fc]))
    return basis
