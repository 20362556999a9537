"""The four benchmark workloads: inputs, fixed jobs and output checks.

Each workload builds its algebras from the public `weil` API, runs a
fixed job made of operations, and turns every operation's result into
text that is compared against a golden recorded from a known-good
commit (see `record_goldens.py`).

    check-quantum    checks.quantum_suite on so3 and so3+so3, adjoint rep
    check-classical  checks.classical_suite on the same algebras and reps
    flat-quantum     the `weil flat --quantum --json` bytes: so3 at N=2,
                     so3+so3 at N=0
    eval-pbw         seeded quantum expressions on so3 with the trivial
                     rep: parse, evaluate, render

so3+so3 is the 6-dimensional block sum of `so3_blocks(2)` in
`scripts/gamma_square_table.py`, rebuilt here from `LieData`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

WORKLOADS = ("check-quantum", "check-classical", "flat-quantum", "eval-pbw")

# Per-algebra job sizes.  "full" is what the benchmark measures; "tiny"
# is for the self-test, which only needs every code path to run.
SIZES = {
    "full": {
        "check-quantum": {"so3": 50, "so3x2": 0},
        "check-classical": {"so3": 200, "so3x2": 20},
        "flat-quantum": {"so3": 2, "so3x2": 0},
        "eval-pbw": {"max_exp": 5},
    },
    "tiny": {
        "check-quantum": {"so3": 1},
        "check-classical": {"so3": 2},
        "flat-quantum": {"so3": 1},
        "eval-pbw": {"max_exp": 2},
    },
}

FLAT_CLOSURE_SAMPLES = 20  # the `weil flat` default


def so3_pair(weil):
    """so3 + so3 with the identity form, as `so3_blocks(2)` builds it."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): -1}
    entries = {}
    for block in range(2):
        off = 3 * block
        for (a, b, c), v in eps.items():
            entries[(a + off, b + off, c + off)] = Fraction(v)
    lie = weil.LieData(6, entries, form=weil.BilinearForm(weil.Matrix.identity(6)),
                       name="so3^2")
    return weil.AlgebraDef("so3^2", lie, {"adjoint": weil.adjoint_rep(lie)})


def build_algebras(weil, names, rep_name, context):
    """Fresh algebra objects for this process, validated as the CLI does,
    with the curvature element of `context` built: the set-up a user of
    the workload pays before the first operation."""
    from weil import classical, quantum

    curvature = classical.curvature if context == "classical" else quantum.curvature
    out = {}
    for name in names:
        alg = weil.builtin("so3") if name == "so3" else so3_pair(weil)
        rep = alg.rep(rep_name)
        reports = [weil.validate_lie(alg.lie), weil.validate_form(alg.lie, alg.form),
                   weil.validate_rep(alg.lie, rep)]
        bad = [str(r) for r in reports if not r.ok]
        if bad:
            raise ValueError("algebra failed validation: " + "; ".join(bad))
        curvature(alg.lie, rep)
        out[name] = (alg, rep)
    return out


@dataclass
class Op:
    """One operation of a job: a label and the callable that runs it.

    `run` returns the operation's output as text; `check` compares that
    text with the golden and returns a failure message or None.
    """

    label: str
    run: object
    check: object


@dataclass
class Job:
    ops: list
    verify: object = None  # extra checks after the timed part; returns failures
    outputs: dict = field(default_factory=dict)


def load_golden(golden_dir, name):
    with open(Path(golden_dir) / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- check-quantum / check-classical -----------------------------------------


def check_rows(results):
    return [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]


def _check_job(weil, workload, seed, size, golden_dir):
    from weil import checks

    classical = workload == "check-classical"
    suite = checks.classical_suite if classical else checks.quantum_suite
    algebras = build_algebras(weil, size, "adjoint", "classical" if classical else "quantum")
    golden = load_golden(golden_dir, workload)
    ops = []
    for name, samples in size.items():
        lie, rep = algebras[name][0].lie, algebras[name][1]
        expected = golden[name].get(str(samples))

        def run(lie=lie, rep=rep, samples=samples):
            return json.dumps(check_rows(suite(lie, rep, samples=samples, seed=seed)))

        def check(text, expected=expected, name=name):
            rows = json.loads(text)
            failed = [r["name"] for r in rows if not r["passed"]]
            if failed:
                return f"{name}: identities failed: {failed}"
            if expected is None:
                return f"{name}: no golden for this sample count"
            if rows != expected:
                return f"{name}: check rows differ from the golden"
            return None

        ops.append(Op(f"{workload}:{name}", run, check))
    return Job(ops)


# -- flat-quantum ----------------------------------------------------------------


def flat_golden_text(golden_text, seed):
    """The golden report bytes for another seed.

    Goldens are recorded at seed 0; the seed changes only which closure
    samples are drawn, and in the report only the two "seed" fields.
    """
    return golden_text.replace('"seed": 0,', f'"seed": {seed},')


def _flat_job(weil, seed, size, golden_dir):
    from weil.cli import flat_report_data

    algebras = build_algebras(weil, size, "adjoint", "quantum")
    golden = load_golden(golden_dir, "flat-quantum")
    ops = []
    for name, max_degree in size.items():
        alg, rep = algebras[name]
        expected = golden[name].get(str(max_degree))

        def run(alg=alg, rep=rep, max_degree=max_degree):
            data = flat_report_data(alg, rep, "quantum", max_degree,
                                    FLAT_CLOSURE_SAMPLES, seed)
            return json.dumps(data, indent=2)

        def check(text, expected=expected, name=name):
            if expected is None:
                return f"{name}: no golden for this degree"
            if text != flat_golden_text(expected, seed):
                return f"{name}: flat report differs from the golden bytes"
            return None

        ops.append(Op(f"flat-quantum:{name}", run, check))
    return Job(ops)


# -- eval-pbw -----------------------------------------------------------------------

# Clifford parts and coefficients an expression can carry; each u-power
# pair gets one of these, chosen by the seed.
VARIANTS = (
    ("", "", ""),
    ("*x1*x2", "*x3", ""),
    ("*x3", "*x1", "2/3*"),
    ("", "*x2", "-5*"),
)


def pbw_pairs(max_exp):
    """Every product u_i^a * u_j^b with i > j and 1 <= a, b <= max_exp."""
    return [(i, a, j, b)
            for i in (3, 2) for j in (2, 1) if i > j
            for a in range(1, max_exp + 1) for b in range(1, max_exp + 1)]


def _power(i, k):
    return f"u{i}^{k}" if k > 1 else f"u{i}"


def pbw_expression(pair, variant):
    """e.g. (u3^5*x1*x2)*(u2^4*x3)"""
    i, a, j, b = pair
    left, right, coeff = VARIANTS[variant]
    return f"({coeff}{_power(i, a)}{left})*({_power(j, b)}{right})"


def eval_expressions(seed, max_exp):
    """The seeded expression list: each u-power pair once, in seeded
    order, each with a seeded Clifford part and coefficient (a variant).

    Every pair is a distinct PBW product, so each one misses the PBW
    cache; the pairs are the same for every seed, so the rewriting work
    per run does not depend on the seed.
    """
    rng = random.Random(seed)
    pairs = pbw_pairs(max_exp)
    rng.shuffle(pairs)
    # every variant equally often (up to one), so runs differ less in cost
    variants = [k % len(VARIANTS) for k in range(len(pairs))]
    rng.shuffle(variants)
    return [pbw_expression(p, v) for p, v in zip(pairs, variants)]


def _eval_job(weil, seed, size, golden_dir):
    from weil import expr

    (alg, rep), = build_algebras(weil, ["so3"], "trivial", "quantum").values()
    golden = load_golden(golden_dir, "eval-pbw")
    ops = []
    job = Job(ops)

    for src in eval_expressions(seed, size["max_exp"]):
        def run(src=src):
            element = expr.evaluate(expr.parse(src), alg.lie, rep, "quantum")
            job.outputs[src] = element
            return expr.render(element)

        def check(text, src=src):
            expected = golden.get(src)
            if expected is None:
                return f"{src}: no golden rendering"
            if text != expected:
                return f"{src}: rendering differs from the golden"
            return None

        ops.append(Op(src, run, check))

    def verify(texts):
        """Each rendering must parse back to the element it came from."""
        failures = {}
        for src, text in texts.items():
            element = job.outputs.get(src)
            if element is None:
                continue
            try:
                back = expr.evaluate(text, alg.lie, rep, "quantum")
            except Exception as exc:  # a rendering that does not parse fails its op
                failures[src] = f"{src}: rendering does not parse: {exc}"
                continue
            if back != element:
                failures[src] = f"{src}: rendering parses to another element"
        return failures

    job.verify = verify
    return job


def build_job(weil, workload, seed, size_name="full", golden_dir=GOLDEN_DIR):
    """Set up `workload` (algebras, reps, validation) and return its job."""
    size = SIZES[size_name][workload]
    if workload == "flat-quantum":
        return _flat_job(weil, seed, size, golden_dir)
    if workload == "eval-pbw":
        return _eval_job(weil, seed, size, golden_dir)
    return _check_job(weil, workload, seed, size, golden_dir)

