"""Self-test of the benchmark: it prints every metric, and its checks can fail.

Run from the root of the repository:

    python3 -m pytest perfbench -q

Each workload runs at its tiny size, so the whole file takes well under
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*extra, cwd=ROOT, workload="eval-pbw", trace=0, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = result_of(bench(workload=workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, result
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupted_golden_fails_the_run(tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(workloads.GOLDEN_DIR, goldens)
    path = goldens / "eval-pbw.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    src = workloads.eval_expressions(3000, 2)[0]  # the first op of the run
    data[src] = data[src] + " + 1"
    path.write_text(json.dumps(data), encoding="utf-8")

    result = result_of(bench("--golden-dir", str(goldens)))
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_corrupted_flat_golden_fails_the_run(tmp_path):
    goldens = tmp_path / "goldens"
    shutil.copytree(workloads.GOLDEN_DIR, goldens)
    path = goldens / "flat-quantum.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["so3"]["1"] = data["so3"]["1"].replace('"dim_flat": 1', '"dim_flat": 2', 1)
    path.write_text(json.dumps(data), encoding="utf-8")

    result = result_of(bench("--golden-dir", str(goldens), workload="flat-quantum"))
    assert result["correct"] is False and result["failed"] > 0


def test_exact_counters_repeat_across_runs():
    counters = []
    for _ in range(2):
        proc = bench(workload="check-quantum", trace=1)
        result_of(proc)
        record = Path(proc.stderr.strip().splitlines()[-1].split("record: ", 1)[1])
        reps = json.loads(record.read_text(encoding="utf-8"))["repetitions"]
        counters.append([r["counters"] for r in reps if r["traced"]][0])
    assert counters[0] == counters[1]
    assert counters[0]["kernels.cliff_mono_mul.misses"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_flat_golden_takes_the_run_seed():
    text = '{\n  "seed": 0,\n  "closure": {\n    "seed": 0,\n    "samples": 20\n  }\n}'
    assert workloads.flat_golden_text(text, 7042).count('"seed": 7042,') == 2


def test_speed_clock_scales_work_and_leaves_out_yardsticks():
    from speedclock import REF_S, SpeedClock

    clock = SpeedClock.__new__(SpeedClock)
    # yardsticks of 2 * REF_S at 0, 10 and 20 s: the host runs at half speed
    clock.starts = [0.0, 10.0, 20.0]
    clock.ends = [s + 2 * REF_S for s in clock.starts]
    ref, raw = clock.durations(0.0, 20.0)
    assert raw == pytest.approx(20.0 - 4 * REF_S)
    assert ref == pytest.approx(raw / 2)
    ref, raw = clock.durations(5.0, 15.0)  # across the middle yardstick
    assert raw == pytest.approx(10.0 - 2 * REF_S)
    assert ref == pytest.approx(raw / 2)
