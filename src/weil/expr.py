"""Expression language for elements of either Weil algebra.

Grammar (whitespace-insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | tensor sign) factor)*
    factor  := '-' factor | atom ('^' INT)?      INT <= MAX_EXPONENT
    atom    := RATIONAL | MATRIX | GENERATOR | NAME | CALL | '(' expr ')'

    RATIONAL  := INT ('/' INT)?                 nonzero denominator
    MATRIX    := '[' '[' signed (',' signed)* ']' (',' '[' ... ']')* ']'
    GENERATOR := v<i> y<i>          (classical)   u<i> x<i>   (quantum)
    NAME      := C | QC | gamma | Dirac | I
    CALL      := d(e) | L(i, e) | iota(i, e) | comm(e, e) | tau(i)
                 the table _CALLS; i an INT generator index, e an expr

Hand-written recursive descent; errors carry (line, column) and what was
expected.  Each production of `Parser` returns its meaning, a function
of one `WeilAlgebra` value (built from the context string by
`weil.ALGEBRAS`): `parse` returns the meaning of the whole source and
`evaluate` calls it.  Parsing is context-free and reads the whole source
first, so a syntax error anywhere is reported before any evaluation
error; whether a generator or name is legal is decided at evaluation
time.  Literals are at most MAX_LITERAL characters long, factors nest at
most MAX_NESTING deep, no sub-result may have polynomial degree above
MAX_DEGREE (checked before a product, power or comm and after d, the
only operations that raise it), and no product, power step or comm may
pair more than MAX_TERM_PAIRS terms of its two factors, each pair
weighted by the product d1 d2 of the two words' polynomial degrees, nor
weigh more than MAX_DEEP_PAIRS with each pair weighted by (d1 d2)^2.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple
from fractions import Fraction

from . import ALGEBRAS
from .element import supercommutator
from .linalg import Matrix
from .render import render  # noqa: F401  (part of this module's interface)


class ExprError(Exception):
    """Parse or evaluation error with a source position."""

    def __init__(self, message, pos):
        self.message = message
        self.pos = pos  # (line, column), 1-based
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")


# -- lexer --------------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z]+[0-9]*)
      | (?P<op>⊗|−|[-+*/^(),\[\]])
    """,
    re.VERBOSE,
)

# u3^32*u1^32 on so3 (quantum) takes about 4 s on a 2-core Xeon; the cap
# keeps one power from asking for far more than that.
MAX_EXPONENT = 32
# u3^32*u1^32 reaches degree 64; beyond it the PBW kernel's recursion
# (one level per degree) would end in a RecursionError.
MAX_DEGREE = 64
# parentheses, calls and unary minus; each level costs the recursive
# descent a few stack frames
MAX_NESTING = 100
# characters of an integer or a name; int() refuses more than 4,300 digits
MAX_LITERAL = 1000
# terms of one factor times terms of the other, each pair weighted by the
# product of its words' polynomial degrees (each at least 1), as a PBW
# pair costs more the deeper its words: on so3, (u1+u2+u3)^8 *
# (u1^8+u2^8+u3^8+u1^4*u3^4+u2^4*u3^4) weighs 990 x 40 and takes 0.2 s,
# and (u1+u2+u3)^8 * (u1+u2+u3+x1)^8 weighs 990 x 1,555 (about 5 s);
# the CLI goldens weigh <= 16
MAX_TERM_PAIRS = 50_000
# the same pairs each weighted by (d1 d2)^2, as the rewriting work of a
# pair of deep words grows faster than d1 d2: on so3, u3^32*u1^32 (one
# pair of weight 2^20) takes about 4 s and is admitted, and
# (u3^32+u2^32)*(u1^32+u2^32) (four pairs, 2^22) is refused at once
MAX_DEEP_PAIRS = 2 ** 21

_GEN = re.compile(r"([vyux])([0-9]+)$")
_NAMES = ("C", "QC", "gamma", "Dirac", "I")
# call name -> its argument kinds in order: i a generator index, e an expr
_CALLS = {"tau": "i", "d": "e", "L": "ie", "iota": "ie", "comm": "ee"}
_ALIASES = {"−": "-", "⊗": "*"}


# kind: 'int', 'ident', 'eof' or the operator character; pos: (line, column)
Token = namedtuple("Token", "kind text pos")


def tokenize(src):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        m = _TOKEN.match(src, i)
        if not m:
            raise ExprError(f"unexpected character {src[i]!r}", (line, col))
        text = m.group(0)
        kind = m.lastgroup
        if kind in ("int", "ident") and len(text) > MAX_LITERAL:
            raise ExprError(f"literal longer than {MAX_LITERAL} characters", (line, col))
        if kind == "op":
            kind = _ALIASES.get(text, text)
        if kind != "ws":
            tokens.append(Token(kind, text, (line, col)))
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        i = m.end()
    tokens.append(Token("eof", "", (line, col)))
    return tokens


# -- parser --------------------------------------------------------------------

# chain operator -> the step that joins the value so far with the next operand
_STEPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class Parser:
    """Recursive descent in which each production returns its meaning: a
    function from a `WeilAlgebra` value to the element it denotes."""

    def __init__(self, src):
        self.tokens = tokenize(src)
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind, what=None):
        if self.cur.kind != kind:
            want = what or repr(kind)
            got = self.cur.text or "end of input"
            raise ExprError(f"expected {want}, got {got!r}", self.cur.pos)
        return self.advance()

    def parse(self):
        meaning = self.expr()
        if self.cur.kind != "eof":
            raise ExprError(
                f"expected '+', '-', '*', or end of input, got {self.cur.text!r}",
                self.cur.pos,
            )
        return meaning

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*",), self.factor)

    def chain(self, ops, operand):
        """operand (op operand)*, its operands evaluated left to right in a
        loop, so that a long sum (a rendering, say) costs no stack depth."""
        first, links = operand(), []
        while self.cur.kind in ops:
            tok = self.advance()
            links.append((_STEPS[tok.kind], tok.pos, operand()))
        if not links:
            return first

        def meaning(alg):
            out = first(alg)
            for step, pos, right in links:
                y = right(alg)
                if step is operator.mul:
                    _check_product(out, y, pos)
                out = step(out, y)
            return out

        return meaning

    def factor(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"expression nested deeper than {MAX_NESTING} levels",
                            self.cur.pos)
        if self.cur.kind == "-":
            self.advance()
            arg = self.factor()
            meaning = lambda alg: -arg(alg)  # noqa: E731
        else:
            meaning = self.atom()
            if self.cur.kind == "^":
                caret = self.advance()
                tok = self.expect("int", "a non-negative integer exponent")
                exponent = int(tok.text)
                if exponent > MAX_EXPONENT:
                    raise ExprError(f"exponent {exponent} exceeds the limit {MAX_EXPONENT}",
                                    tok.pos)
                meaning = _power(meaning, exponent, caret.pos)
        self.depth -= 1
        return meaning

    def rational(self, what) -> Fraction:
        num = int(self.expect("int", what).text)
        if self.cur.kind != "/":
            return Fraction(num)
        self.advance()
        tok = self.expect("int", "a denominator")
        if not int(tok.text):
            raise ExprError("zero denominator", tok.pos)
        return Fraction(num, int(tok.text))

    def atom(self):
        tok = self.cur
        if tok.kind == "int":
            value = self.rational("a number")
            return lambda alg: alg.scalar(value)
        if tok.kind == "[":
            return self.matrix()
        if tok.kind == "(":
            self.advance()
            meaning = self.expr()
            self.expect(")")
            return meaning
        if tok.kind == "ident":
            return self.ident()
        raise ExprError(
            f"expected a number, generator, call, '(', or '[', got {tok.text or 'end of input'!r}",
            tok.pos,
        )

    def ident(self):
        tok = self.advance()
        name = tok.text
        m = _GEN.match(name)
        if m:
            return _generator(m.group(1), int(m.group(2)), tok.pos)
        if name in _NAMES:
            return _name(name, tok.pos)
        if name not in _CALLS:
            raise ExprError(f"unknown identifier {name!r}", tok.pos)
        self.expect("(")
        args = []
        for k, kind in enumerate(_CALLS[name]):
            if k:
                self.expect(",")
            if kind == "i":
                args.append(int(self.expect("int", "a generator index").text))
            else:
                args.append(self.expr())
        self.expect(")")
        return _call(name, args, tok.pos)

    def matrix(self):
        pos = self.cur.pos
        row = lambda: self.listed(self.signed_scalar, "'[' opening a matrix row")  # noqa: E731
        return _matrix(self.listed(row, "'['"), pos)

    def listed(self, item, what):
        """'[' item (',' item)* ']' as a list of the items."""
        self.expect("[", what)
        items = [item()]
        while self.cur.kind == ",":
            self.advance()
            items.append(item())
        self.expect("]")
        return items

    def signed_scalar(self) -> Fraction:
        neg = False
        while self.cur.kind == "-":
            self.advance()
            neg = not neg
        val = self.rational("a rational matrix entry")
        return -val if neg else val


def parse(src: str):
    """The meaning of `src`: a function from a `WeilAlgebra` value to the
    element `src` denotes there."""
    return Parser(src).parse()


# -- meanings ---------------------------------------------------------------------

def _index(alg, idx, pos):
    if not 1 <= idx <= alg.lie.dim:
        raise ExprError(f"generator index {idx} out of range 1..{alg.lie.dim}", pos)
    return idx - 1


def _generator(letter, index, pos):
    def meaning(alg):
        a = _index(alg, index, pos)
        letters = alg.Element.LETTERS
        if letter not in letters:
            raise ExprError(f"generator {letter}{index} is not part of the {alg.KIND} algebra",
                            pos)
        return (alg.even_gen if letter == letters[0] else alg.odd_gen)(a)

    return meaning


def _name(name, pos):
    def meaning(alg):
        if name == "I":
            return alg.unit()
        if name == "C" and alg.KIND != "classical":
            raise ExprError("C is the classical curvature; use QC here", pos)
        if name != "C" and alg.KIND != "quantum":
            raise ExprError(f"{name} only exists in the quantum algebra", pos)
        if name in ("C", "QC"):
            return alg.curvature
        return alg.gamma if name == "gamma" else alg.dirac

    return meaning


def _matrix(rows, pos):
    def meaning(alg):
        if len({len(r) for r in rows}) != 1:
            raise ExprError("matrix rows have unequal lengths", pos)
        mat, dim = Matrix.from_rows(rows), alg.rep.dim
        if mat.rows != dim or mat.cols != dim:
            raise ExprError(f"matrix literal is {mat.rows}x{mat.cols}; the representation "
                            f"needs {dim}x{dim}", pos)
        return alg.endo(mat)

    return meaning


def _call(name, args, pos):
    """A call's meaning; an error in its expression argument is reported
    before a bad index."""
    def meaning(alg):
        if name == "tau":
            return alg.tau(_index(alg, args[0], pos))
        if name == "comm":
            left, right = args[0](alg), args[1](alg)
            _check_product(left, right, pos)
            return supercommutator(left, right)
        arg = args[-1](alg)
        if name == "d":  # raises the degree by at most one: check the result
            out = alg.differential(arg)
            _check_degree(out.poly_degree(), pos)
            return out
        a = _index(alg, args[0], pos)
        return (alg.lie_derivative if name == "L" else alg.contraction)(a, arg)

    return meaning


def _power(base, exponent, pos):
    def meaning(alg):
        x = base(alg)
        _check_degree(x.poly_degree() * exponent, pos)
        out = x if exponent else alg.unit()
        for _ in range(exponent - 1):
            _check_product(out, x, pos)
            out = out * x
        return out

    return meaning


def _check_degree(degree, pos):
    if degree > MAX_DEGREE:
        raise ExprError(f"polynomial degree {degree} exceeds the limit {MAX_DEGREE}", pos)


def _check_product(x, y, pos):
    """Refuse x y past MAX_DEGREE, or when its term pairs weigh too much:
    each pair by its words' polynomial degrees d1 and d2, each at least 1,
    once by d1 d2 and once by (d1 d2)^2.  With the degree checked, d1 + d2
    <= MAX_DEGREE and a pair weighs at most (MAX_DEGREE / 2)^2 and its
    square: a few pairs need no weighing."""
    _check_degree(x.poly_degree() + y.poly_degree(), pos)
    pairs = len(x.terms) * len(y.terms)
    if pairs * (MAX_DEGREE // 2) ** 4 <= MAX_DEEP_PAIRS:
        return
    dx, dy = [sum(s) or 1 for s, _ in x.terms], [sum(s) or 1 for s, _ in y.terms]
    work = sum(dx) * sum(dy)
    if work > MAX_TERM_PAIRS:
        raise ExprError(f"a product of {len(x.terms)} by {len(y.terms)} terms ({work} pairs "
                        f"weighted by degree) exceeds the limit {MAX_TERM_PAIRS}", pos)
    deep = sum([d * d for d in dx]) * sum([d * d for d in dy])
    if deep > MAX_DEEP_PAIRS:
        raise ExprError(f"a product of {len(x.terms)} by {len(y.terms)} terms ({deep} pairs "
                        f"weighted by squared degree) exceeds the limit {MAX_DEEP_PAIRS}", pos)


def evaluate(src_or_parsed, lie, rep, context):
    """The element `src_or_parsed` (a string or what `parse` returned)
    denotes in the `context` algebra ("classical" or "quantum") on (lie, rep)."""
    meaning = parse(src_or_parsed) if isinstance(src_or_parsed, str) else src_or_parsed
    if context not in ALGEBRAS:
        raise ValueError(f"context must be classical or quantum, not {context!r}")
    return meaning(ALGEBRAS[context](lie, rep))
