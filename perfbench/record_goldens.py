"""Record the golden outputs the benchmark compares against.

Usage, from the root of the repository:

    python3 perfbench/record_goldens.py

Run it only on a commit whose outputs are known to be right: every run
of the benchmark counts a difference from these files as a failed
operation.  It writes, under perfbench/goldens/:

    check-quantum.json, check-classical.json
        the CheckResult rows (name, passed, detail) per algebra and
        sample count; they do not depend on the seed
    flat-quantum.json
        the `weil flat --quantum --json` bytes per algebra and degree,
        at seed 0 (see `workloads.flat_golden_text` for other seeds)
    eval-pbw.json
        the rendering of every expression any seed can generate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def sizes_of(workload):
    """algebra -> sorted sizes, over every size set."""
    out = {}
    for sizes in workloads.SIZES.values():
        for name, value in sizes[workload].items():
            out.setdefault(name, set()).add(value)
    return {name: sorted(values) for name, values in out.items()}


def record_checks(weil, workload):
    from weil import checks

    classical = workload == "check-classical"
    suite = checks.classical_suite if classical else checks.quantum_suite
    context = "classical" if classical else "quantum"
    out = {}
    for name, counts in sizes_of(workload).items():
        alg, rep = workloads.build_algebras(weil, [name], "adjoint", context)[name]
        out[name] = {str(n): workloads.check_rows(suite(alg.lie, rep, samples=n, seed=0))
                     for n in counts}
    return out


def record_flat(weil):
    from weil.cli import flat_report_data

    out = {}
    for name, degrees in sizes_of("flat-quantum").items():
        alg, rep = workloads.build_algebras(weil, [name], "adjoint", "quantum")[name]
        out[name] = {
            str(n): json.dumps(flat_report_data(alg, rep, "quantum", n,
                                                workloads.FLAT_CLOSURE_SAMPLES, 0), indent=2)
            for n in degrees
        }
    return out


def record_eval(weil):
    from weil import expr

    alg, rep = workloads.build_algebras(weil, ["so3"], "trivial", "quantum")["so3"]
    max_exp = max(sizes["eval-pbw"]["max_exp"] for sizes in workloads.SIZES.values())
    out = {}
    for pair in workloads.pbw_pairs(max_exp):
        for variant in range(len(workloads.VARIANTS)):
            src = workloads.pbw_expression(pair, variant)
            out[src] = expr.render(expr.evaluate(src, alg.lie, rep, "quantum"))
    return out


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    import weil

    goldens = {
        "check-quantum": record_checks(weil, "check-quantum"),
        "check-classical": record_checks(weil, "check-classical"),
        "flat-quantum": record_flat(weil),
        "eval-pbw": record_eval(weil),
    }
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in goldens.items():
        path = workloads.GOLDEN_DIR / f"{name}.json"
        text = json.dumps(data, indent=1, sort_keys=True, ensure_ascii=False)
        path.write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
