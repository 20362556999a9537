"""Benchmark of the `weil` package: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json.  Every repetition
of a workload runs in a fresh child process (`child.py`), one at a time
(a closed loop with one client), so the kernel caches start cold as
they do for a CLI user.

--trace 0  Runs round(S / REP_SECONDS) repetitions of the workload's
           job, each on its own inputs (`rep_seed`), and set-up-only
           children until SETUP_SAMPLES children have set up.  Prints
           the end-to-end metrics in reference seconds (see
           `speedclock.py`): medians over repetitions and over every
           child's set-up, and op latencies over every operation of the
           run.
--trace 1  Runs the job of the first repetition untraced once and
           traced twice.  Prints the per-layer metrics (medians over
           the traced repetitions) and the tracing overhead.  The traced
           outputs must equal the untraced ones, and the exact counters
           of the two traced repetitions must repeat.

Every output is checked against the goldens in perfbench/goldens; a
difference, an exception or a failed identity counts as a failed
operation.  The last line of stdout is the JSON result; a full record
with every raw sample goes to .bench_out/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 7  # set-up time is the median over at least this many children
RUN_LIMIT_S = 165  # a run must end within 180 s

# Nominal reference seconds of one repetition, measured when the
# benchmark was defined.  An untraced run makes round(S / this)
# repetitions, at least one, so the number of repetitions, and with it
# the inputs, depend only on the arguments, never on the machine's speed.
REP_SECONDS = {"check-quantum": 3.6, "check-classical": 4.8, "flat-quantum": 17.0,
               "eval-pbw": 3.4}


def rep_seed(seed, k):
    """Input seed of repetition k.  Each repetition draws its own inputs,
    so a run's medians average over inputs as well as over time."""
    return seed * 1000 + k

# Per-layer metrics that sum several spans.
SPAN_GROUPS = {
    "lie.validate": ("lie.validate_lie", "lie.validate_form", "lie.validate_rep"),
    "checks.random_elements": ("checks.random_scalar", "checks.random_matrix",
                               "checks.random_classical_element",
                               "checks.random_quantum_element", "checks.random_sym_poly",
                               "checks.random_scalar_weil_poly"),
}

# Per-layer ratios: name -> (numerator counters, denominator counters)
RATIOS = {
    "kernels.pbw_mono_mul.hit_ratio": (("kernels.pbw_mono_mul.hits",),
                                       ("kernels.pbw_mono_mul.hits",
                                        "kernels.pbw_mono_mul.misses")),
    "kernels.cliff_mono_mul.hit_ratio": (("kernels.cliff_mono_mul.hits",),
                                         ("kernels.cliff_mono_mul.hits",
                                          "kernels.cliff_mono_mul.misses")),
    "linalg.nullspace.nnz_ratio": (("linalg.nullspace.nonzeros",),
                                   ("linalg.nullspace.cells",)),
    "linalg.nullspace.nullity_ratio": (("linalg.nullspace.nullity",),
                                       ("linalg.nullspace.columns",)),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="job size; 'tiny' is for the self-test")
    p.add_argument("--golden-dir", default=str(workloads.GOLDEN_DIR),
                   help="directory of golden outputs (the self-test corrupts a copy)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


class Runner:
    """Starts the children of one run, one at a time, and keeps their records."""

    def __init__(self, args, out_dir, run_id):
        self.args = args
        self.out_dir = out_dir
        self.run_id = run_id
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.records = []

    def child(self, mode, seed, traced=False):
        args = self.args
        cmd = [sys.executable, str(CHILD), "--workload", args.workload,
               "--seed", str(seed), "--mode", mode, "--size", args.size,
               "--golden-dir", args.golden_dir, "--run-id", self.run_id]
        if traced:
            rep = sum(1 for r in self.records if r["traced"])
            spans = self.out_dir / "spans" / f"{args.workload}-rep{rep}.bin.gz"
            cmd += ["--trace", "--spans-out", str(spans)]
        spawn = time.perf_counter()
        cmd += ["--spawn", repr(spawn)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out, err = "", "timed out"
        end = time.perf_counter()
        lines = out.strip().splitlines()
        if proc.returncode == 0 and lines:
            rec = json.loads(lines[-1])
        else:
            rec = {"attempted": 1, "failed": 1, "crashed": True,
                   "failures": [f"child exited {proc.returncode}: {err.strip()[-500:]}"]}
        rec.update(mode=mode, seed=seed, traced=traced, elapsed_s=end - spawn)
        self.records.append(rec)
        return rec


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median_exact(values):
    """The median, kept an int when every value is the same count."""
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def layer_values(rec, names, overhead):
    """Every per-layer metric of one traced repetition."""
    spans, counters = rec["spans"], rec["counters"]

    def total(keys):
        return sum(counters.get(k, 0) for k in keys)

    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = overhead
        elif name in RATIOS:
            num, den = RATIOS[name]
            values[name] = total(num) / total(den) if total(den) else 0.0
        elif name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            values[name] = sum(spans.get(n, {}).get("self_s", 0.0)
                               for n in SPAN_GROUPS.get(layer, (layer,)))
        else:
            values[name] = counters.get(name, 0)
    return values


def summarize(spec, runner, trace):
    recs = [r for r in runner.records if not r.get("crashed")]
    jobs = [r for r in recs if r["mode"] == "job" and "wall_s" in r]
    plain = [r for r in jobs if not r["traced"]]
    traced = [r for r in jobs if r["traced"]]
    problems = []
    for seed in {r["seed"] for r in jobs}:
        if len({r.get("digest") for r in jobs if r["seed"] == seed}) > 1:
            problems.append(f"seed {seed}: outputs differ between traced and untraced runs")
    summary = {}
    metrics = {}
    if not trace:
        samples = {
            "setup_s": [r["setup_s"] for r in recs],
            "wall_s": [r["wall_s"] for r in plain],
            "op_ms": [t * 1000 for r in plain for _, t in r["op_s"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            "setup_raw_s": [r["setup_raw_s"] for r in recs],
            "wall_raw_s": [r["wall_raw_s"] for r in plain],
            "op_raw_ms": [t * 1000 for r in plain for _, t in r["op_raw_s"]],
        }
        if all(samples.values()):
            values = {
                "setup_s": statistics.median(samples["setup_s"]),
                "wall_s": statistics.median(samples["wall_s"]),
                "op_p50_ms": statistics.median(samples["op_ms"]),
                "op_p90_ms": p90(samples["op_ms"]),
                "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        for name, vals in samples.items():
            if vals:
                q1, q3 = quartiles(vals)
                summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                 "n": len(vals)}
    elif plain and len(traced) >= 2:
        exact = [r["counters"] for r in traced]
        if any(c != exact[0] for c in exact[1:]):
            diff = sorted(k for k in exact[0] if any(c.get(k) != exact[0][k] for c in exact))
            problems.append(f"exact counters differ between same-seed traced runs: {diff[:10]}")
        # traced children run without a speed clock, so compare raw times
        overhead = (statistics.median(r["wall_raw_s"] for r in traced)
                    / statistics.median(r["wall_raw_s"] for r in plain))
        names = [m["name"] for m in spec["per_layer"]]
        per_rep = [layer_values(r, names, overhead) for r in traced]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {n: {"value": median_exact([v[n] for v in per_rep]), "unit": units[n]}
                   for n in names}
        summary["per_rep_layers"] = per_rep
    else:
        problems.append("too few repetitions completed for a traced result")
    attempted = sum(r["attempted"] for r in runner.records)
    failed = sum(r["failed"] for r in runner.records)
    correct = failed == 0 and not problems and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, summary, problems


def source_identity(root):
    """git sha of the checkout when it is a git work tree, and a hash of src/weil."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "weil").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        top, head = out.stdout.split()
        if out.returncode == 0 and Path(top).resolve() == root.resolve():
            sha = head
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    return sha, digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "weil" / "__init__.py").is_file():
        print("error: src/weil not found; run from the root of a weil checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_dir = root / ".bench_out"
    (out_dir / "spans").mkdir(parents=True, exist_ok=True)
    (out_dir / "records").mkdir(exist_ok=True)
    started = datetime.now(timezone.utc)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-" \
             f"{started:%Y%m%dT%H%M%S%f}-{os.getpid()}"

    first = rep_seed(args.seed, 0)
    if args.trace:
        plan = [("job", first, False), ("job", first, True), ("job", first, True)]
    else:
        reps = max(1, round(args.seconds / REP_SECONDS[args.workload]))
        plan = [("setup", first, False)] * max(0, SETUP_SAMPLES - reps)
        plan += [("job", rep_seed(args.seed, k), False) for k in range(reps)]
    runner = Runner(args, out_dir, run_id)
    for mode, seed, traced in plan:
        if runner.child(mode, seed, traced).get("crashed"):
            break

    result, summary, problems = summarize(spec, runner, args.trace)
    git_sha, source_sha = source_identity(root)
    record = {
        "run_id": run_id, "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "size": args.size,
        "git_sha": git_sha, "source_sha256": source_sha,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "started_utc": started.isoformat(),
        "problems": problems, "summary": summary, "repetitions": runner.records,
        "result": result,
    }
    record_path = out_dir / "records" / f"{run_id}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for msg in problems + [m for r in runner.records for m in r.get("failures", [])][:10]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"record: {record_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
