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
expected.  Literals are at most MAX_LITERAL characters long, factors
nest at most MAX_NESTING deep, no sub-result may have polynomial
degree above MAX_DEGREE (checked before a product, power or comm and
after d, the only operations that raise it), and no product, power step
or comm may pair more than MAX_TERM_PAIRS terms of its two factors, each
pair weighted by the product d1 d2 of the two words' polynomial degrees,
nor weigh more than MAX_DEEP_PAIRS with each pair weighted by (d1 d2)^2.
Parsing is context-free; whether a generator or name is legal is
decided at evaluation time.  An expression is evaluated in one
`WeilAlgebra` value, built from the context string by `weil.ALGEBRAS`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
        super().__init__(str(self))

    def __str__(self):
        return f"{self.pos[0]}:{self.pos[1]}: {self.message}"


# -- AST ---------------------------------------------------------------------

@dataclass
class Node:
    pos: tuple


@dataclass
class Lit(Node):
    value: Fraction


@dataclass
class MatLit(Node):
    rows: list


@dataclass
class Gen(Node):
    letter: str
    index: int  # 1-based as written


@dataclass
class Name(Node):
    name: str  # C, QC, gamma, Dirac, I


@dataclass
class Neg(Node):
    arg: Node


@dataclass
class BinOp(Node):
    op: str  # '+', '-', '*'
    left: Node
    right: Node


@dataclass
class Pow(Node):
    base: Node
    exponent: int


@dataclass
class Call(Node):
    name: str  # a key of _CALLS
    args: tuple  # int for a generator index, Node for an expression


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


@dataclass
class Token:
    kind: str  # 'int', 'ident', or the operator character
    text: str
    pos: tuple


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

class Parser:
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

    def parse(self) -> Node:
        e = self.expr()
        if self.cur.kind != "eof":
            raise ExprError(
                f"expected '+', '-', '*', or end of input, got {self.cur.text!r}",
                self.cur.pos,
            )
        return e

    def expr(self) -> Node:
        node = self.term()
        while self.cur.kind in ("+", "-"):
            op = self.advance()
            node = BinOp(op.pos, op.kind, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.cur.kind == "*":
            op = self.advance()
            node = BinOp(op.pos, "*", node, self.factor())
        return node

    def factor(self) -> Node:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"expression nested deeper than {MAX_NESTING} levels",
                            self.cur.pos)
        if self.cur.kind == "-":
            tok = self.advance()
            node = Neg(tok.pos, self.factor())
        else:
            node = self.atom()
            if self.cur.kind == "^":
                caret = self.advance()
                tok = self.expect("int", "a non-negative integer exponent")
                exponent = int(tok.text)
                if exponent > MAX_EXPONENT:
                    raise ExprError(f"exponent {exponent} exceeds the limit {MAX_EXPONENT}",
                                    tok.pos)
                node = Pow(caret.pos, node, exponent)
        self.depth -= 1
        return node

    def rational(self, what) -> Fraction:
        num = int(self.expect("int", what).text)
        if self.cur.kind != "/":
            return Fraction(num)
        self.advance()
        tok = self.expect("int", "a denominator")
        if not int(tok.text):
            raise ExprError("zero denominator", tok.pos)
        return Fraction(num, int(tok.text))

    def atom(self) -> Node:
        tok = self.cur
        if tok.kind == "int":
            return Lit(tok.pos, self.rational("a number"))
        if tok.kind == "[":
            return self.matrix()
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            return self.ident()
        raise ExprError(
            f"expected a number, generator, call, '(', or '[', got {tok.text or 'end of input'!r}",
            tok.pos,
        )

    def ident(self) -> Node:
        tok = self.advance()
        name = tok.text
        m = _GEN.match(name)
        if m:
            return Gen(tok.pos, m.group(1), int(m.group(2)))
        if name in _NAMES:
            return Name(tok.pos, name)
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
        return Call(tok.pos, name, tuple(args))

    def matrix(self) -> Node:
        start = self.expect("[")
        rows = []
        while True:
            rows.append(self.matrix_row())
            if self.cur.kind == ",":
                self.advance()
                continue
            break
        self.expect("]")
        return MatLit(start.pos, rows)

    def matrix_row(self):
        self.expect("[", "'[' opening a matrix row")
        row = [self.signed_scalar()]
        while self.cur.kind == ",":
            self.advance()
            row.append(self.signed_scalar())
        self.expect("]")
        return row

    def signed_scalar(self) -> Fraction:
        neg = False
        while self.cur.kind == "-":
            self.advance()
            neg = not neg
        val = self.rational("a rational matrix entry")
        return -val if neg else val


def parse(src: str) -> Node:
    return Parser(src).parse()


# -- evaluator ------------------------------------------------------------------

class Evaluator:
    """Evaluate an AST in one `WeilAlgebra` value."""

    def __init__(self, alg):
        self.alg = alg

    def _check_index(self, idx, pos):
        if not 1 <= idx <= self.alg.lie.dim:
            raise ExprError(f"generator index {idx} out of range 1..{self.alg.lie.dim}", pos)
        return idx - 1

    def eval(self, node):
        method = getattr(self, f"_eval_{type(node).__name__.lower()}")
        return method(node)

    def _eval_lit(self, node):
        return self.alg.scalar(node.value)

    def _eval_matlit(self, node):
        widths = {len(r) for r in node.rows}
        if len(widths) != 1:
            raise ExprError("matrix rows have unequal lengths", node.pos)
        mat, dim = Matrix.from_rows(node.rows), self.alg.rep.dim
        if mat.rows != dim or mat.cols != dim:
            raise ExprError(
                f"matrix literal is {mat.rows}x{mat.cols}; the representation "
                f"needs {dim}x{dim}",
                node.pos,
            )
        return self.alg.endo(mat)

    def _eval_gen(self, node):
        a = self._check_index(node.index, node.pos)
        letters = self.alg.Element.LETTERS
        if node.letter not in letters:
            raise ExprError(
                f"generator {node.letter}{node.index} is not part of the "
                f"{self.alg.KIND} algebra",
                node.pos,
            )
        return (self.alg.even_gen if node.letter == letters[0] else self.alg.odd_gen)(a)

    def _eval_name(self, node):
        name, kind = node.name, self.alg.KIND
        if name == "I":
            return self.alg.unit()
        if name == "C" and kind != "classical":
            raise ExprError("C is the classical curvature; use QC here", node.pos)
        if name != "C" and kind != "quantum":
            raise ExprError(f"{name} only exists in the quantum algebra", node.pos)
        if name in ("C", "QC"):
            return self.alg.curvature
        return self.alg.gamma if name == "gamma" else self.alg.dirac

    def _eval_neg(self, node):
        return -self.eval(node.arg)

    def _eval_binop(self, node):
        # a chain a + b - c * d ... nests to the left; walk it in a loop so
        # that a long sum (a rendering, say) costs no stack depth
        chain = []
        while isinstance(node, BinOp):
            chain.append(node)
            node = node.left
        out = self.eval(node)
        for link in reversed(chain):
            right = self.eval(link.right)
            if link.op == "*":
                _check_degree(out.poly_degree() + right.poly_degree(), link.pos)
                _check_term_pairs(out, right, link.pos)
                out = out * right
            else:
                out = out + right if link.op == "+" else out - right
        return out

    def _eval_pow(self, node):
        base = self.eval(node.base)
        _check_degree(base.poly_degree() * node.exponent, node.pos)
        if not node.exponent:
            return self.alg.unit()
        out = base
        for _ in range(node.exponent - 1):
            _check_term_pairs(out, base, node.pos)
            out = out * base
        return out

    def _eval_call(self, node):
        name, args = node.name, node.args
        if name == "tau":
            return self.alg.tau(self._check_index(args[0], node.pos))
        if name == "comm":
            left, right = self.eval(args[0]), self.eval(args[1])
            _check_degree(left.poly_degree() + right.poly_degree(), node.pos)
            _check_term_pairs(left, right, node.pos)
            return supercommutator(left, right)
        # d, L, iota: an error in the argument is reported before a bad index
        arg = self.eval(args[-1])
        if name == "d":  # raises the degree by at most one: check the result
            out = self.alg.differential(arg)
            _check_degree(out.poly_degree(), node.pos)
            return out
        a = self._check_index(args[0], node.pos)
        if name == "L":
            return self.alg.lie_derivative(a, arg)
        return self.alg.contraction(a, arg)


def _check_degree(degree, pos):
    if degree > MAX_DEGREE:
        raise ExprError(f"polynomial degree {degree} exceeds the limit {MAX_DEGREE}", pos)


def _check_term_pairs(x, y, pos):
    """Weigh each term pair by its words' polynomial degrees d1 and d2, each at
    least 1, once by d1 d2 and once by (d1 d2)^2.  Every caller checks the
    degrees first, so d1 + d2 <= MAX_DEGREE and a pair weighs at most
    (MAX_DEGREE / 2)^2 and its square: a few pairs need no weighing."""
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


def evaluate(src_or_node, lie, rep, context):
    """The element `src_or_node` (a string or a parsed node) denotes in
    the `context` algebra ("classical" or "quantum") on (lie, rep)."""
    node = parse(src_or_node) if isinstance(src_or_node, str) else src_or_node
    if context not in ALGEBRAS:
        raise ValueError(f"context must be classical or quantum, not {context!r}")
    return Evaluator(ALGEBRAS[context](lie, rep)).eval(node)

