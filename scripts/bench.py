#!/usr/bin/env python3
"""Time the flat report rows and the CLI rows, each run in a fresh process,
into a BENCH file.

Each row is one `weil flat` report computed in-process, as
`cli.flat_report_data` computes it (20 closure samples, seed 0), with
its phases timed in that order: the flat solve, the decomposition, the
inclusion (whose basic solve is also timed on its own) and the closure.
The rows are so3 adjoint quantum at N = 6, 8 and 10, so3 adjoint
classical at N = 10, and so3+so3 adjoint quantum at N = 3 and 6, so3+so3
being `gamma_square_table.so3_blocks(2)`; N = 6 is over the CLI's column
cap, which the in-process run does not apply.

Each CLI row is one `cli.main(argv)` call with stdout captured: `weil
check --builtin so3 --rep adjoint`, classical and quantum, and `weil flat
--builtin so3 --rep adjoint --quantum --max-degree N --json` for N = 2, 3
and 4.  Its wall time takes in the import of `weil.cli`, and it records
the exit status and a sha256 of stdout in place of the phases, dims and
report hash.

Every run is a fresh `sys.executable` process, the rows taking turns
round by round.  A run records its wall time, the phase times, its own
peak RSS (`ru_maxrss`), the flat and basic dims, a sha256 of the report,
and the host state: the median time of `perfbench/speedclock.yardstick()`
before and after the job, as a ratio to its `REF_S`.  The file holds the
commit, `nproc`, the Python version and per row the runs with the median
and quartiles of every figure; the script prints each row's median and
quartile spread.

`--compare OLD.json NEW.json` reads two such files and prints the median
[first, third quartile] of each file's yardstick ratios, over every run
of every row, before and after.  Then, for each row in both, it prints
the same for the wall time, the peak RSS and each phase from each file,
marking with `*` a figure whose medians differ by more than either
file's quartile spread, and whether the row's report (or stdout) sha256
is one and the same in every run of both files.  When the two files'
ratio quartiles do not overlap, the host was in another speed state for
one of them, so no time in seconds is marked and the line `host state
differs; compare counts` is printed; the peak RSS is marked as before.

Usage: python scripts/bench.py OUT.json REPEATS
       python scripts/bench.py --compare OLD.json NEW.json
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ROWS = [
    {"name": "so3-adjoint-quantum-N6", "lie": "so3", "kind": "quantum", "N": 6},
    {"name": "so3-adjoint-quantum-N8", "lie": "so3", "kind": "quantum", "N": 8},
    {"name": "so3-adjoint-quantum-N10", "lie": "so3", "kind": "quantum", "N": 10},
    {"name": "so3-adjoint-classical-N10", "lie": "so3", "kind": "classical", "N": 10},
    {"name": "so3+so3-adjoint-quantum-N3", "lie": "so3+so3", "kind": "quantum", "N": 3},
    {"name": "so3+so3-adjoint-quantum-N6", "lie": "so3+so3", "kind": "quantum", "N": 6},
]
CLI_ROWS = [
    {"name": "check-so3-adjoint-classical",
     "argv": ["check", "--builtin", "so3", "--rep", "adjoint", "--classical"]},
    {"name": "check-so3-adjoint-quantum",
     "argv": ["check", "--builtin", "so3", "--rep", "adjoint", "--quantum"]},
    *({"name": f"flat-so3-adjoint-quantum-N{n}",
       "argv": ["flat", "--builtin", "so3", "--rep", "adjoint", "--quantum",
                "--max-degree", str(n), "--json"]} for n in (2, 3, 4)),
]
PHASES = ("flat", "decomposition", "inclusion", "basic", "closure")
SAMPLES, SEED = 20, 0  # the `weil flat` defaults
YARDSTICKS = 5  # timed yardstick calls before and after a job, after 3 warm-up calls


def host_ratio():
    """The median time of one yardstick over its REF_S."""
    from speedclock import REF_S, yardstick

    times = []
    for k in range(3 + YARDSTICKS):
        start = time.perf_counter()
        yardstick()
        if k >= 3:
            times.append(time.perf_counter() - start)
    return statistics.median(times) / REF_S


def cli_child(argv):
    """Run one CLI row in this process and return its record."""
    before = host_ratio()
    out = io.StringIO()
    start = time.perf_counter()
    from weil.cli import main

    with contextlib.redirect_stdout(out):
        code = main(argv)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "exit": code,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "yardstick_ratio": [before, host_ratio()],
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def child(row):
    """Run one row in this process and return its record."""
    if "argv" in row:
        return cli_child(row["argv"])
    from weil import ALGEBRAS, adjoint_rep, builtin, flat

    before = host_ratio()
    phases = dict.fromkeys(PHASES, 0.0)

    def timed(name, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        phases[name] += time.perf_counter() - start
        return out

    flat.basic_subspace = partial(timed, "basic", flat.basic_subspace)  # inside inclusion
    start = time.perf_counter()
    if row["lie"] == "so3":
        lie = builtin("so3").lie
    else:
        from gamma_square_table import so3_blocks

        lie = so3_blocks(2)
    hor = timed("flat", flat.flat_subspace, ALGEBRAS[row["kind"]](lie, adjoint_rep(lie)), row["N"])
    report = [timed("decomposition", flat.decomposition_report, hor),
              timed("inclusion", flat.inclusion_report, hor),
              timed("closure", flat.closure_report, hor, samples=SAMPLES, seed=SEED)]
    wall = time.perf_counter() - start
    per_degree = report[1]["per_degree"]
    return {"wall_s": wall, "phases_s": phases,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "yardstick_ratio": [before, host_ratio()],
            "dims_flat": [r["dim_flat"] for r in per_degree],
            "dims_basic": [r["dim_basic"] for r in per_degree],
            "report_sha256": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()}


def summary(values):
    """(first quartile, median, third quartile) of the values."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(rows, repeats, out):
    """Run each row `repeats` times, round by round, and write the file."""
    runs = {row["name"]: [] for row in rows}
    for _ in range(repeats):
        for row in rows:
            proc = subprocess.run([sys.executable, __file__, "child", json.dumps(row)],
                                  capture_output=True, text=True, check=True)
            runs[row["name"]].append(json.loads(proc.stdout))
    out_rows = {}
    for row in rows:
        records = runs[row["name"]]
        figures = {"wall_s": [r["wall_s"] for r in records],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in records],
                   **{f"{p}_s": [r["phases_s"][p] for r in records]
                      for p in PHASES if "phases_s" in records[0]}}
        quartiles = {k: summary(v) for k, v in figures.items()}
        out_rows[row["name"]] = {
            "spec": row, "runs": records,
            "median": {k: q[1] for k, q in quartiles.items()},
            "quartiles": {k: [q[0], q[2]] for k, q in quartiles.items()}}
        q = quartiles["wall_s"]
        print(f"{row['name']:<28} wall {q[1]:8.3f} s [{q[0]:.3f}, {q[2]:.3f}]  "
              f"peak {quartiles['peak_rss_mb'][1]:7.1f} MB", flush=True)
    status = git("status", "--porcelain", "--", "src", "scripts")
    data = {"sha": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "repeats": repeats, "rows": out_rows}
    Path(out).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return data


def host_quartiles(data):
    """(first quartile, median, third quartile) of every yardstick ratio in
    the BENCH data, before and after each run of every row."""
    return summary([x for row in data["rows"].values() for run in row["runs"]
                    for x in run["yardstick_ratio"]])


def span(median, quartiles):
    return f"{median:.3f} [{quartiles[0]:.3f}, {quartiles[1]:.3f}]"


def compare(old, new):
    """The lines `--compare` prints for the BENCH data `old` and `new`."""
    (lo0, m0, hi0), (lo1, m1, hi1) = host_quartiles(old), host_quartiles(new)
    same_host = lo0 <= hi1 and lo1 <= hi0
    lines = [f"{'yardstick ratio':<18}{span(m0, (lo0, hi0)):>28}  ->{span(m1, (lo1, hi1)):>28}"]
    if not same_host:
        lines.append("host state differs; compare counts")
    for name in [n for n in old["rows"] if n in new["rows"]]:
        rows = old["rows"][name], new["rows"][name]
        digest = "report" if "report_sha256" in rows[0]["runs"][0] else "stdout"
        hashes = {run[f"{digest}_sha256"] for row in rows for run in row["runs"]}
        lines.append(f"{name}: {digest} sha256 {'matches' if len(hashes) == 1 else 'differs'}")
        for figure in [f for f in rows[0]["median"] if f in rows[1]["median"]]:
            (m0, m1), (q0, q1) = ([row[k][figure] for row in rows] for k in ("median", "quartiles"))
            moved = abs(m1 - m0) > max(q0[1] - q0[0], q1[1] - q1[0]) and (
                same_host or not figure.endswith("_s"))
            lines.append(f"  {figure:<16}{span(m0, q0):>28}  ->{span(m1, q1):>28}"
                         f"{'  *' if moved else ''}")
    return lines


def main(argv):
    if len(argv) == 2 and argv[0] == "child":  # one run, from `run`, on this checkout
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]
        print(json.dumps(child(json.loads(argv[1]))))
        return 0
    if len(argv) == 3 and argv[0] == "--compare":
        old, new = (json.loads(Path(f).read_text(encoding="utf-8")) for f in argv[1:])
        print("\n".join(compare(old, new)))
        return 0
    if len(argv) != 2 or not argv[1].isdigit() or int(argv[1]) < 1:
        print(__doc__[__doc__.index("Usage:"):].strip(), file=sys.stderr)
        return 2
    run(ROWS + CLI_ROWS, int(argv[1]), argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
