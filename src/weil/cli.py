"""Command-line surface: validate, check, eval, flat, report.

Exit codes: 0 success, 1 validation or identity failure or a closed
stdout, 2 usage error or malformed expression, 3 internal error.
All output is deterministic for fixed inputs and seed.  Each command
imports its layer when it runs: `checks` for check and report, `expr` for
eval, so `weil flat` compiles neither.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from math import comb

from . import ALGEBRAS, flat
from .lie import FormReport, builtin, load_algebra_file, validate_form, validate_lie, validate_rep
from .render import render

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# random elements per identity (`check`, `report`), also echoed by the
# closure report (`flat`, `report`): the so3 adjoint suite with 50 samples,
# timed in a fresh process per seed 0-9 on an Intel Xeon core, takes
# 0.026-0.049 s quantum-side and 0.026-0.037 s classically
MAX_SAMPLES = 1000
# horizontal domain columns of a flat solve, C(n + N, n) monomials times
# dim V^2 matrix units: so3 adjoint runs to N = 12 (4,095 columns),
# so3+so3 adjoint to N = 3 (3,024)
MAX_DOMAIN_COLUMNS = 4096


class UsageError(Exception):
    pass


def _load(args):
    if getattr(args, "builtin", None) and getattr(args, "file", None):
        raise UsageError("pass either --builtin or --file, not both")
    if getattr(args, "builtin", None):
        try:
            return builtin(args.builtin)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    if getattr(args, "file", None):
        try:
            return load_algebra_file(args.file)
        except (OSError, ValueError, RecursionError) as exc:
            raise UsageError(f"cannot load {args.file}: {exc}") from exc
    raise UsageError("an algebra is required: --builtin NAME or --file PATH")


def _context(args):
    if args.classical and args.quantum:
        raise UsageError("pass either --classical or --quantum, not both")
    if args.quantum:
        return "quantum"
    return "classical"


def _reports(alg, rep_names=None):
    """The validation reports of the Lie data, its form if any and the
    named representations (default: all), in that order; the
    representations only when the Lie data is valid."""
    reports = [validate_lie(alg.lie)]
    if alg.form is not None:
        reports.append(validate_form(alg.lie, alg.form))
    if reports[0].ok:
        reports += [validate_rep(alg.lie, alg.reps[name])
                    for name in (rep_names if rep_names is not None else sorted(alg.reps))]
    return reports


def _validate_all(alg, rep_names=None):
    """Print validation reports; returns True when everything is valid."""
    reports = _reports(alg, rep_names)
    for report in reports:
        lines = report.lines()
        if isinstance(report, FormReport) and report.ok:
            lines[0] += " (orthonormal)" if report.orthonormal else " (not orthonormal)"
        print("\n".join(lines))
    return all(r.ok for r in reports)


def _require_rep(alg, args):
    try:
        return alg.rep(args.rep)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from exc


def cmd_validate(args) -> int:
    alg = _load(args)
    return EXIT_OK if _validate_all(alg) else EXIT_FAIL


def _require_non_negative(value, flag):
    if value < 0:
        raise UsageError(f"{flag} must be non-negative")


def _require_samples(args):
    _require_non_negative(args.samples, "--samples")
    if args.samples > MAX_SAMPLES:
        raise UsageError(f"--samples must be at most {MAX_SAMPLES}, got {args.samples}")


def _require_domain_within_cap(lie, rep, max_degree):
    """Reject a --max-degree whose flat solve would have more than
    MAX_DOMAIN_COLUMNS domain columns, before any monomial is listed."""
    columns = comb(lie.dim + max_degree, lie.dim) * rep.dim ** 2
    if columns > MAX_DOMAIN_COLUMNS:
        raise UsageError(
            f"--max-degree {max_degree} gives {columns} domain columns on {lie.name} "
            f"rep {rep.name} (monomials of degree <= {max_degree} times dim V^2 = "
            f"{rep.dim ** 2}); at most {MAX_DOMAIN_COLUMNS} are allowed")


def _session(args):
    """The algebra, context and representation a command runs in."""
    alg = _load(args)
    context = _context(args)
    if context == "quantum" and not alg.lie.has_orthonormal_form:
        raise UsageError(
            f"algebra {alg.name!r} has no orthonormal invariant form; "
            "the quantum algebra is not available for it"
        )
    return alg, context, _require_rep(alg, args)


def _suite(context, lie, rep, args):
    from . import checks

    return getattr(checks, f"{context}_suite")(lie, rep, samples=args.samples, seed=args.seed)


def cmd_check(args) -> int:
    _require_samples(args)
    alg, context, rep = _session(args)
    if not _validate_all(alg, rep_names=[rep.name]):
        return EXIT_FAIL
    ok = True
    for r in _suite(context, alg.lie, rep, args):
        status = "pass" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if (r.detail and not r.passed) else ""
        print(f"{status}  {r.name}{detail}")
        ok &= r.passed
    print(f"{'all identities hold' if ok else 'identity failures detected'} "
          f"({alg.name}, rep {rep.name}, {context})")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_eval(args) -> int:
    if args.expression is None:
        raise UsageError("an expression is required")
    from .expr import ExprError, evaluate

    alg, context, rep = _session(args)
    if not all(r.ok for r in _reports(alg, [rep.name])):
        print("algebra failed validation; run `weil validate`", file=sys.stderr)
        return EXIT_FAIL
    try:
        element = evaluate(args.expression, alg.lie, rep, context)
    except ExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(render(element))
    return EXIT_OK


def flat_report_data(alg, rep, context, max_degree, samples, seed) -> dict:
    hor = flat.flat_subspace(ALGEBRAS[context](alg.lie, rep), max_degree)
    decomposition = flat.decomposition_report(hor)  # brackets the shared premises
    inclusion = flat.inclusion_report(hor)
    closure = flat.closure_report(hor, samples=samples, seed=seed)
    return {
        "schema": SCHEMA_VERSION,
        "algebra": context,
        "lie": alg.name,
        "rep": rep.name,
        "N": max_degree,
        "seed": seed,
        "degree_semantics": inclusion["degree_semantics"],
        "per_degree": inclusion["per_degree"],
        "decomposition": decomposition,
        "closure": closure,
    }


def _print_flat_text(data):
    print(f"flat/basic subspaces: {data['lie']} rep {data['rep']} "
          f"({data['algebra']}), degree <= {data['N']}")
    observed = " (observed)" if data["algebra"] == "quantum" else ""
    print(f"  degree semantics: {data['degree_semantics']}")
    print(f"  {'deg':>3}  {'dim_basic':>9}  {'dim_flat':>8}  "
          f"{'basic<flat' + observed:>20}  {'S.basic=flat':>12}")
    for row in data["per_degree"]:
        print(f"  {row['deg']:>3}  {row['dim_basic']:>9}  {row['dim_flat']:>8}  "
              f"{str(row['basic_subset_flat']):>20}  {str(row['s_basic_equals_flat']):>12}")
    dec = data["decomposition"]
    print(f"  decomposition factor 2^n = {dec['factor']}, "
          f"all degrees match: {dec['all_match']}")
    for row in dec["per_degree"]:
        print(f"    deg {row['deg']}: full {row['dim_full_flat']} "
              f"= {dec['factor']} x hor {row['dim_hor_flat']}: {row['match']}")
    clo = data["closure"]
    print(f"  closure (seed {clo['seed']}, {clo['samples']} samples): "
          f"{'closed' if clo['all_closed'] else 'FAILURES'} {clo['checked']}")


def cmd_flat(args) -> int:
    _require_non_negative(args.max_degree, "--max-degree")
    _require_samples(args)
    alg, context, rep = _session(args)
    _require_domain_within_cap(alg.lie, rep, args.max_degree)
    if not all(r.ok for r in _reports(alg, [rep.name])):
        print("algebra failed validation; run `weil validate`", file=sys.stderr)
        return EXIT_FAIL
    data = flat_report_data(alg, rep, context, args.max_degree, args.samples, args.seed)
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        _print_flat_text(data)
    return EXIT_OK


def cmd_report(args) -> int:
    _require_non_negative(args.max_degree, "--max-degree")
    _require_samples(args)
    names = ["abelian(2)", "heisenberg3", "so3", "sl2"] if args.all_builtins else []
    if getattr(args, "builtin", None):
        names = [args.builtin]
    if not names:
        raise UsageError("pass --all-builtins or --builtin NAME")
    algebras = [_load(argparse.Namespace(builtin=name)) for name in names]
    for alg in algebras:
        _require_domain_within_cap(alg.lie, alg.reps["adjoint"], args.max_degree)
    ok = True
    for name, alg in zip(names, algebras):
        print(f"== {name} ==")
        valid = _validate_all(alg)
        ok &= valid
        if not valid:
            continue
        contexts = ["classical", "quantum"] if alg.lie.has_orthonormal_form else ["classical"]
        for rep_name in sorted(alg.reps):
            rep = alg.reps[rep_name]
            for context in contexts:
                results = _suite(context, alg.lie, rep, args)
                bad = [r for r in results if not r.passed]
                status = "pass" if not bad else "FAIL"
                print(f"{status}  {name} rep {rep_name} ({context}): "
                      f"{len(results) - len(bad)}/{len(results)} identities")
                for r in bad:
                    print(f"      {r.name}: {r.detail}")
                ok &= not bad
        for context in contexts:
            rep = alg.reps["adjoint"]
            data = flat_report_data(alg, rep, context, args.max_degree,
                                    args.samples, args.seed)
            _print_flat_text(data)
    print("report: all pass" if ok else "report: failures detected")
    return EXIT_OK if ok else EXIT_FAIL


def _int(text):
    """argparse's `int` on ASCII digits alone: `int` also reads other
    Unicode digits and underscores."""
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # more digits than `int` converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weil",
        description="Exact verification and exploration of covariant Weil algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra_flags(p):
        p.add_argument("--builtin", help="catalog algebra: abelian(n), heisenberg3, so3, sl2")
        p.add_argument("--file", help="JSON algebra definition file")

    def add_session_flags(p):
        p.add_argument("--rep", default="adjoint", help="representation name (default adjoint)")
        p.add_argument("--classical", action="store_true", help="classical algebra (default)")
        p.add_argument("--quantum", action="store_true", help="quantum algebra")

    p_validate = sub.add_parser("validate", help="run the validation reports")
    add_algebra_flags(p_validate)
    p_validate.add_argument("file_pos", nargs="?", metavar="FILE",
                            help="algebra definition file")
    p_validate.set_defaults(fn=cmd_validate)

    p_check = sub.add_parser("check", help="verify every operator identity")
    add_algebra_flags(p_check)
    add_session_flags(p_check)
    p_check.add_argument("--seed", type=_int, default=0, help="seed for sampled checks")
    p_check.add_argument("--samples", type=_int, default=50,
                         help=f"random elements per identity (default 50, at most {MAX_SAMPLES})")
    p_check.set_defaults(fn=cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate an expression to normal form")
    add_algebra_flags(p_eval)
    add_session_flags(p_eval)
    p_eval.add_argument("expression", nargs="?",
                        help="expression, e.g. 'd(C)', 'comm(QC, u1)' or '-u1'")
    p_eval.set_defaults(fn=cmd_eval)

    p_flat = sub.add_parser("flat", help="basic/flat subspace tables up to a degree")
    add_algebra_flags(p_flat)
    add_session_flags(p_flat)
    p_flat.add_argument("--seed", type=_int, default=0, help="seed for sampled checks")
    p_flat.add_argument("--max-degree", type=_int, default=2, dest="max_degree",
                        help="truncation degree N (default 2); C(n + N, n) dim V^2 "
                        f"must be at most {MAX_DOMAIN_COLUMNS}")
    p_flat.add_argument("--samples", type=_int, default=20,
                        help="echoed in the closure report, which is decided by its "
                        f"premises (default 20, at most {MAX_SAMPLES})")
    p_flat.add_argument("--json", action="store_true", help="emit JSON")
    p_flat.set_defaults(fn=cmd_flat)

    p_report = sub.add_parser("report", help="run check + flat over the catalog")
    p_report.add_argument("--all-builtins", action="store_true", dest="all_builtins")
    p_report.add_argument("--builtin", help="restrict to one catalog algebra")
    p_report.add_argument("--max-degree", type=_int, default=1, dest="max_degree")
    p_report.add_argument("--samples", type=_int, default=10)
    p_report.add_argument("--seed", type=_int, default=0)
    p_report.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    # UTF-8 whatever the locale: renderings print the tensor sign
    for stream in (s for s in (sys.stdout, sys.stderr) if isinstance(s, io.TextIOWrapper)):
        stream.reconfigure(encoding="utf-8", errors=stream.errors)
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe fails here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`weil ... | head`): nothing is left to
        # report to; devnull takes the unwritten rest (Python's "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


def _run(argv) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        # argparse sets an argument that starts with '-' aside as an unknown
        # option; `weil eval` prints negative elements that way ("-u1")
        if getattr(args, "expression", "") is None and len(extra) == 1 \
                and not extra[0].startswith("--"):
            args.expression = extra.pop()
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if argv is None and getattr(args, "expression", None):  # decoded in the locale's codec
            args.expression = os.fsencode(args.expression).decode("utf-8", "surrogateescape")
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other exits
        return int(exc.code) if exc.code else EXIT_OK
    if args.command == "validate" and getattr(args, "file_pos", None):
        if args.file or args.builtin:
            print("error: FILE conflicts with --file/--builtin", file=sys.stderr)
            return EXIT_USAGE
        args.file = args.file_pos
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise  # main's to handle, not an internal error
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:  # a bug: report it instead of a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

if __name__ == "__main__":
    sys.exit(main())
