"""One repetition of a workload, in a fresh process.

Usage (from the root of a checkout; `run.py` starts it):

    python3 perfbench/child.py --workload NAME --seed N --mode setup|job
        [--trace] [--spans-out PATH] [--size full|tiny] [--golden-dir DIR]

The process starts a speed clock (`speedclock.py`) unless traced, imports
`weil` from `src/`, builds and validates the workload's algebras and
curvature elements, and notes the clock when the first operation could
start.  In `job` mode it then runs the workload's fixed job, timing each
operation, checks every output, and prints one JSON line: timings in
reference and raw seconds, failures, an output digest, peak RSS and,
when traced, the per-layer summary and exact counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)
from speedclock import SpeedClock  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "job"), required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out")
    p.add_argument("--run-id", default="")
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--golden-dir", default=str(workloads.GOLDEN_DIR))
    p.add_argument("--spawn", type=float, default=None,
                   help="time.perf_counter() in the parent just before it started this process")
    return p.parse_args(argv)


def run_job(job):
    """Run every operation, noting when each starts and ends; an
    exception fails that operation only."""
    texts, marks, failures = {}, [], {}
    clock = time.perf_counter
    for op in job.ops:
        t0 = clock()
        try:
            texts[op.label] = op.run()
        except Exception as exc:  # counted as a failed operation; the run goes on
            failures[op.label] = f"{op.label}: {type(exc).__name__}: {exc}"
        marks.append((op.label, t0, clock()))
    return marks, texts, failures


def timings(speed, spawn, ready, marks):
    """Set-up, job and per-operation times, in reference and raw seconds.

    Without a speed clock (traced children) both are raw.  Set-up before
    the clock started (interpreter start) is scaled by the clock's first
    factor.
    """
    if speed is None:
        def durations(a, b):
            return b - a, b - a
    else:
        factors = speed.factors()

        def durations(a, b):
            return speed.durations(a, b, factors)
    out = {}
    if spawn is not None:
        if speed is None:
            pre, scale, clocked_from = 0.0, 1.0, spawn
        else:
            pre, scale, clocked_from = speed.began - spawn, factors[0], speed.ends[0]
        ref, raw = durations(clocked_from, ready)
        out["setup_s"], out["setup_raw_s"] = pre * scale + ref, pre + raw
    if marks:
        ops = [(label, *durations(a, b)) for label, a, b in marks]
        out["op_s"] = [(label, ref) for label, ref, _ in ops]
        out["op_raw_s"] = [(label, raw) for label, _, raw in ops]
        out["wall_s"], out["wall_raw_s"] = durations(marks[0][1], marks[-1][2])
    return out


def check_job(job, texts, failures):
    """Compare every output with its golden; returns the output digest."""
    for op in job.ops:
        if op.label in texts:
            msg = op.check(texts[op.label])
            if msg:
                failures.setdefault(op.label, msg)
    if job.verify is not None:
        for label, msg in job.verify(texts).items():
            failures.setdefault(label, msg)
    digest = hashlib.sha256()
    for op in job.ops:
        digest.update(f"{op.label}\n{texts.get(op.label, '<failed>')}\n".encode())
    return digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    speed = None if args.trace else SpeedClock()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import weil

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    out = {"attempted": 0, "failed": 0, "failures": []}
    try:
        job = workloads.build_job(weil, args.workload, args.seed, args.size, args.golden_dir)
    except Exception as exc:  # a set-up failure fails the whole repetition
        job = None
        out.update(attempted=1, failed=1, failures=[f"set-up: {type(exc).__name__}: {exc}"])
    ready = time.perf_counter()
    marks = []
    if job is not None and args.mode == "job":
        marks, texts, failures = run_job(job)
    if speed is not None:
        speed.stop()
        out["yardstick_s"] = speed.yardsticks()
    out.update(timings(speed, args.spawn, ready, marks))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        # taken before the output checks, whose work is not the workload's
        out["spans"], out["counters"] = tracer.summary()
        if args.spans_out:
            tracer.write(args.spans_out)
    if marks:
        out["digest"] = check_job(job, texts, failures)
        out.update(attempted=len(job.ops), failed=len(failures),
                   failures=sorted(failures.values())[:5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
