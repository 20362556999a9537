"""Smoke test of `scripts/bench.py` at tiny sizes: the BENCH file's schema."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
TINY = [{"name": "so3-quantum-N1", "lie": "so3", "kind": "quantum", "N": 1},
        {"name": "so3-classical-N1", "lie": "so3", "kind": "classical", "N": 1},
        {"name": "so3+so3-quantum-N0", "lie": "so3+so3", "kind": "quantum", "N": 0}]
PHASES_TOP = ("flat", "decomposition", "inclusion", "closure")  # the basic solve is in inclusion


def _bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_the_report_rows_are_the_measured_ones():
    rows = {(r["lie"], r["kind"], r["N"]) for r in _bench().ROWS}
    assert rows == {("so3", "quantum", 6), ("so3", "quantum", 8), ("so3", "quantum", 10),
                    ("so3", "classical", 10), ("so3+so3", "quantum", 3),
                    ("so3+so3", "quantum", 6)}


def test_bench_file_schema(tmp_path, capsys):
    """Two runs of three tiny rows, each in a fresh process: every run is
    recorded with its phases, peak RSS, host ratio, dims and report hash,
    and every figure has a median inside its quartiles."""
    bench = _bench()
    out = tmp_path / "BENCH.json"
    bench.run(TINY, 2, out)
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"sha", "dirty", "nproc", "python", "repeats", "rows"}
    assert data["nproc"] >= 1 and data["repeats"] == 2 and data["python"].count(".") == 2
    assert list(data["rows"]) == [row["name"] for row in TINY]
    figures = {"wall_s", "peak_rss_mb", *(f"{p}_s" for p in bench.PHASES)}
    for row in TINY:
        entry = data["rows"][row["name"]]
        assert entry["spec"] == row and len(entry["runs"]) == 2
        assert set(entry["median"]) == set(entry["quartiles"]) == figures
        for k in figures:
            low, high = entry["quartiles"][k]
            assert 0 <= low <= entry["median"][k] <= high
        for run in entry["runs"]:
            assert set(run["phases_s"]) == set(bench.PHASES)
            assert run["wall_s"] >= sum(run["phases_s"][p] for p in PHASES_TOP)
            assert run["peak_rss_mb"] > 1 and len(run["yardstick_ratio"]) == 2
            assert all(r > 0 for r in run["yardstick_ratio"])
            assert len(run["dims_flat"]) == len(run["dims_basic"]) == row["N"] + 1
            assert len(run["report_sha256"]) == 64
        assert len({run["report_sha256"] for run in entry["runs"]}) == 1
    assert data["rows"]["so3-quantum-N1"]["runs"][0]["dims_flat"] == [1, 4]
    assert "so3+so3-quantum-N0" in capsys.readouterr().out

