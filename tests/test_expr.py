from fractions import Fraction

import pytest

from weil import ALGEBRAS
from weil.classical import ClassicalAlgebra
from weil.cli import main
from weil.element import supercommutator
from weil.expr import (
    MAX_EXPONENT,
    MAX_LITERAL,
    MAX_NESTING,
    ExprError,
    evaluate,
    parse,
    render,
)
from weil.quantum import QuantumAlgebra


@pytest.fixture(scope="module")
def classical_ctx(so3):
    return so3.lie, so3.reps["adjoint"], "classical"


@pytest.fixture(scope="module")
def quantum_ctx(so3):
    return so3.lie, so3.reps["adjoint"], "quantum"


def test_parse_shapes(classical_ctx):
    """'*' binds tighter than '+', and a call's argument is a whole
    expression: each source evaluates to its reading built by hand."""
    lie, rep, context = classical_ctx
    c = ClassicalAlgebra(lie, rep)
    v, y = [c.even_gen(a) for a in range(3)], [c.odd_gen(a) for a in range(3)]
    assert evaluate("v1*y2 + y2*v1", lie, rep, context) == v[0] * y[1] + y[1] * v[0]
    assert evaluate("v1*y2 + y2*v1", lie, rep, context) != v[0] * (y[1] + y[1]) * v[0]
    assert evaluate("comm(C, tau(1))", lie, rep, context) == \
        supercommutator(c.curvature, c.tau(0))
    assert evaluate("d(d(tau(1)))", lie, rep, context) == \
        c.differential(c.differential(c.tau(0)))
    assert evaluate("L(2, v1 + y3)", lie, rep, context) == c.lie_derivative(1, v[0] + y[2])


def test_parse_precedence_and_whitespace(classical_ctx, quantum_ctx):
    """Products before sums, '^' before unary minus, chains from left to
    right, and whitespace (newlines too) ignored."""
    lie, rep, context = classical_ctx
    c = ClassicalAlgebra(lie, rep)

    def ev(src):
        return evaluate(src, lie, rep, context)

    assert ev("1+2*3") == ev(" 1 +\t2 * 3 ") == c.scalar(7)
    assert ev("1 - 2 - 3") == c.scalar(-4)
    assert ev("2*3 - 4/2*5 + 1") == c.scalar(-3)
    assert ev("-v1^2") == -(c.even_gen(0) * c.even_gen(0))
    assert ev(" d( y1 ) ") == ev("d(y1)") == ev("d(\n  y1\n)")
    lie, rep, context = quantum_ctx
    q = QuantumAlgebra(lie, rep)
    u1, u2, x1 = q.even_gen(0), q.even_gen(1), q.odd_gen(0)
    assert evaluate("u1*u2*x1 - x1*u2*u1", lie, rep, context) == u1 * u2 * x1 - x1 * u2 * u1
    assert evaluate("u1*u2 - u2*u1", lie, rep, context) == q.even_gen(2)


def test_errors_are_reported_in_evaluation_order(classical_ctx):
    """The whole source is parsed before anything is evaluated; then the
    operands of a chain are evaluated left to right, and a call's argument
    before its index is checked."""
    lie, rep, context = classical_ctx
    for src, pos, what in (("v9 + (", (1, 7), "expected a number"),
                           ("v9 - u1", (1, 1), "index 9 out of range"),
                           ("v1 - u1*v9", (1, 6), "u1 is not part of the classical"),
                           ("L(9, v4)", (1, 6), "index 4 out of range"),
                           ("L(9, v3)", (1, 1), "index 9 out of range"),
                           ("v1^2 * [[1],[1,2]]", (1, 8), "unequal lengths")):
        with pytest.raises(ExprError, match=what) as exc:
            evaluate(src, lie, rep, context)
        assert exc.value.pos == pos, src


def test_parse_errors_carry_positions():
    with pytest.raises(ExprError) as exc:
        parse("v1 + ")
    assert exc.value.pos == (1, 6)
    assert "expected" in str(exc.value)
    with pytest.raises(ExprError) as exc:
        parse("comm(v1 v2)")
    assert exc.value.pos == (1, 9)
    with pytest.raises(ExprError) as exc:
        parse("foo(3)")
    assert "unknown identifier 'foo'" in str(exc.value)
    with pytest.raises(ExprError) as exc:
        parse("v1 +\n* y2")
    assert exc.value.pos[0] == 2


def test_only_ascii_digits_are_digits(capsys):
    """Other Unicode decimal digits are refused where they stand, as the
    file loader refuses them: int() would read "٣" as 3."""
    for src, pos in (("٣/4*u1", (1, 1)), ("3/٤*u1", (1, 3)), ("u١", (1, 2)),
                     ("v1*y２", (1, 5))):
        with pytest.raises(ExprError, match="unexpected character") as exc:
            parse(src)
        assert exc.value.pos == pos, src
    code = main(["eval", "--builtin", "so3", "--rep", "trivial", "--quantum", "٣/٤*u1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: 1:1: unexpected character '٣'\n"


def test_exponent_above_cap_is_positioned(classical_ctx):
    lie, rep, context = classical_ctx
    assert render(evaluate(f"v1^{MAX_EXPONENT}", lie, rep, context)) == f"v1^{MAX_EXPONENT} ⊗ I"
    with pytest.raises(ExprError) as exc:
        parse(f"2*u1^{MAX_EXPONENT + 1}")
    assert exc.value.pos == (1, 6)
    assert "exceeds the limit" in str(exc.value)


def test_long_sums_evaluate_without_recursion(quantum_ctx):
    """A chain of 3000 terms parses to a left-nested tree 3000 deep; the
    evaluator walks such chains in a loop."""
    lie, rep, context = quantum_ctx
    elem = evaluate(" + ".join(["u1"] * 2000 + ["x2*u3"] * 1000), lie, rep, context)
    assert render(elem) == "2000*u1 ⊗ I + 1000*u3 ⊗ x2 ⊗ I"


def test_literal_length_limit(classical_ctx):
    """int() refuses more than 4,300 digits; the lexer stops far earlier."""
    lie, rep, context = classical_ctx
    assert evaluate("1" * MAX_LITERAL, lie, rep, context) == \
        ClassicalAlgebra(lie, rep).scalar(int("1" * MAX_LITERAL))
    with pytest.raises(ExprError) as exc:
        parse("2*" + "1" * (MAX_LITERAL + 1))
    assert exc.value.pos == (1, 3)
    assert f"literal longer than {MAX_LITERAL} characters" in str(exc.value)


def test_nesting_limit(quantum_ctx):
    """Parentheses, calls and unary minus each nest one level: 100 levels
    are accepted and 101 refused where the 101st begins."""
    lie, rep, context = quantum_ctx
    depth = MAX_NESTING - 2  # with the unary minus and u1, 100 levels
    assert evaluate("(" * depth + "-u1" + ")" * depth, lie, rep, context) == \
        -QuantumAlgebra(lie, rep).even_gen(0)
    for src, pos in (("(" * (depth + 1) + "-u1" + ")" * (depth + 1), (1, depth + 3)),
                     ("d(" * MAX_NESTING + "y1" + ")" * MAX_NESTING, (1, 2 * MAX_NESTING + 1))):
        with pytest.raises(ExprError, match=f"nested deeper than {MAX_NESTING} levels") as exc:
            parse(src)
        assert exc.value.pos == pos


def test_zero_denominator_is_positioned():
    with pytest.raises(ExprError) as exc:
        parse("1/0")
    assert exc.value.pos == (1, 3)
    assert "zero denominator" in str(exc.value)
    with pytest.raises(ExprError) as exc:
        parse("[[1, -2/00]]")
    assert exc.value.pos == (1, 9)


def test_eval_basic_identities(classical_ctx, so3):
    lie, rep, context = classical_ctx
    c = ClassicalAlgebra(lie, rep)
    y = [c.odd_gen(a) for a in range(3)]
    v = [c.even_gen(a) for a in range(3)]
    assert evaluate("d(y1)", lie, rep, context) == v[0] - y[1] * y[2]
    assert evaluate("d(d(tau(1))) - comm(C, tau(1))", lie, rep, context).is_zero
    assert evaluate("L(1, v3)", lie, rep, context) == -v[1]
    assert evaluate("iota(2, y1*y2)", lie, rep, context) == -y[0]
    assert evaluate("2*v1 - v1 - v1", lie, rep, context).is_zero
    assert evaluate("v1^3", lie, rep, context) == v[0] * v[0] * v[0]


def test_eval_matrix_literal(sl2):
    lie, rep = sl2.lie, sl2.reps["standard"]
    elem = evaluate("[[0,1],[0,0]] * [[0,0],[1,0]] - [[0,0],[1,0]] * [[0,1],[0,0]]",
                    lie, rep, "classical")
    assert elem == ClassicalAlgebra(lie, rep).tau(2)
    with pytest.raises(ExprError, match="3x3"):
        evaluate("[[0,1,0],[0,0,0],[0,0,0]]", lie, rep, "classical")


def test_eval_quantum(quantum_ctx, abelian2):
    lie, rep, context = quantum_ctx
    gamma_sq = evaluate("gamma*gamma", lie, rep, context)
    assert gamma_sq == QuantumAlgebra(lie, rep).scalar(Fraction(-1, 8))
    assert evaluate("Dirac*Dirac - QC", lie, rep, context) == \
        -(evaluate("comm(Dirac, x1*tau(1) + x2*tau(2) + x3*tau(3))", lie, rep, context)) \
        - evaluate("(x1*tau(1) + x2*tau(2) + x3*tau(3))^2", lie, rep, context)
    triv = abelian2.reps["trivial"]
    assert evaluate("comm(QC, u1)", abelian2.lie, triv, "quantum").is_zero


# per kind: a generator of each parity (y_a^2 = 0, x_a^2 = 1/2), a
# matrix literal and a sum with a fractional coefficient and a c I part
POWER_BASES = {"classical": ("v2", "y2", "[[0,1,0],[0,0,-1],[2,0,0]]", "v1 - 1/2*y3 + tau(1) - 3"),
               "quantum": ("u2", "x2", "[[0,1,0],[0,0,-1],[2,0,0]]", "u1 - 1/2*x3 + tau(1) - 3")}


@pytest.mark.parametrize("context", ["classical", "quantum"])
def test_powers_are_repeated_products_of_the_base(so3, context, monkeypatch):
    """x^0 is the unit, x^1 is x with no product, and x^k is the k-fold
    product made by k - 1 products."""
    lie, rep = so3.lie, so3.reps["adjoint"]
    alg = ALGEBRAS[context](lie, rep)
    cls, mul, calls = alg.Element, alg.Element.__mul__, []

    def spy(x, y):
        calls.append(isinstance(y, cls))
        return mul(x, y)

    monkeypatch.setattr(cls, "__mul__", spy)

    def products(src):
        calls.clear()
        out = evaluate(src, lie, rep, context)
        return out, calls.count(True)

    odd = POWER_BASES[context][1]
    assert evaluate(f"{odd}^2", lie, rep, context) == alg.scalar(
        0 if context == "classical" else Fraction(1, 2))
    for base in POWER_BASES[context]:
        x, made = products(base)
        assert products(f"({base})^0") == (alg.unit(), made)
        assert products(f"({base})^1") == (x, made)
        want = x
        for k in range(2, 6):
            want = mul(want, x)
            assert products(f"({base})^{k}") == (want, made + k - 1), (base, k)


def test_evaluate_names_an_unknown_context(so3):
    with pytest.raises(ValueError, match="context must be classical or quantum, not 'symplectic'"):
        evaluate("1", so3.lie, so3.reps["adjoint"], "symplectic")


def test_context_mismatch(classical_ctx, quantum_ctx):
    lie, rep, _ = classical_ctx
    with pytest.raises(ExprError, match="not part of the classical algebra"):
        evaluate("u1", lie, rep, "classical")
    with pytest.raises(ExprError, match="only exists in the quantum"):
        evaluate("gamma", lie, rep, "classical")
    with pytest.raises(ExprError, match="classical curvature"):
        evaluate("C", lie, rep, "quantum")
    with pytest.raises(ExprError, match="not part of the quantum algebra"):
        evaluate("v1", lie, rep, "quantum")


def test_index_out_of_range(classical_ctx):
    lie, rep, context = classical_ctx
    with pytest.raises(ExprError, match="out of range"):
        evaluate("v4", lie, rep, context)
    with pytest.raises(ExprError, match="out of range"):
        evaluate("tau(9)", lie, rep, context)


def test_round_trip_stability(classical_ctx, quantum_ctx):
    lie, rep, context = classical_ctx
    for src in ("d(y1)", "C", "comm(C, tau(1))", "d(v2)*y1 + 3/2*v1^2",
                "tau(1)*tau(2)", "y1*y2*y3"):
        elem = evaluate(src, lie, rep, context)
        text = render(elem)
        again = evaluate(text, lie, rep, context)
        assert again == elem, src
        assert render(again) == text, src
    lie, rep, context = quantum_ctx
    for src in ("Dirac", "gamma", "QC", "comm(Dirac, u1)", "x1*u2 - 1/2"):
        elem = evaluate(src, lie, rep, context)
        text = render(elem)
        again = evaluate(text, lie, rep, context)
        assert again == elem, src
        assert render(again) == text, src


def test_unicode_minus_and_tensor_accepted(classical_ctx):
    lie, rep, context = classical_ctx
    assert evaluate("−1/2*v1", lie, rep, context) == \
        evaluate("-1/2*v1", lie, rep, context)
    assert evaluate("v1 ⊗ I", lie, rep, context) == \
        evaluate("v1", lie, rep, context)
