"""Smoke test of `scripts/bench.py` at tiny sizes (the BENCH file's schema, flat
report rows and CLI rows), and its `--compare` mode on two small synthetic files."""

import hashlib
import importlib.util
import json
from pathlib import Path

from weil.cli import main

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


def test_the_cli_rows_are_the_north_star_ones():
    assert [row["argv"] for row in _bench().CLI_ROWS] == [
        ["check", "--builtin", "so3", "--rep", "adjoint", "--classical"],
        ["check", "--builtin", "so3", "--rep", "adjoint", "--quantum"],
        *(["flat", "--builtin", "so3", "--rep", "adjoint", "--quantum", "--max-degree", n, "--json"]
          for n in ("2", "3", "4"))]


def test_a_cli_row_records_its_exit_and_stdout_hash(tmp_path, capsys):
    """Two runs of a small `weil flat --json` row, each in a fresh process:
    each records its wall time, peak RSS, host ratio, exit status and the
    sha256 of the stdout that `cli.main` prints here; the figures are the
    wall time and the peak RSS alone."""
    bench = _bench()
    argv = ["flat", "--builtin", "so3", "--rep", "adjoint", "--quantum", "--max-degree", "1",
            "--json"]
    row = {"name": "flat-so3-adjoint-quantum-N1", "argv": argv}
    out = tmp_path / "BENCH.json"
    bench.run([row], 2, out)
    entry = json.loads(out.read_text(encoding="utf-8"))["rows"][row["name"]]
    assert row["name"] in capsys.readouterr().out
    assert main(argv) == 0
    expected = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert entry["spec"] == row and set(entry["median"]) == {"wall_s", "peak_rss_mb"}
    for run in entry["runs"]:
        assert set(run) == {"wall_s", "exit", "peak_rss_mb", "yardstick_ratio", "stdout_sha256"}
        assert run["exit"] == 0 and run["stdout_sha256"] == expected
        assert run["wall_s"] > 0 and run["peak_rss_mb"] > 1
    assert bench.compare({"rows": {row["name"]: entry}}, {"rows": {row["name"]: entry}})[1] == (
        "flat-so3-adjoint-quantum-N1: stdout sha256 matches")



def _bench_file(path, rows, ratios):
    """A BENCH file holding only what `--compare` reads: per row, the runs'
    hashes and yardstick ratios (`ratios` in every run) and the median and
    quartiles of each figure."""
    data = {"rows": {name: {"runs": [{"report_sha256": h, "yardstick_ratio": list(ratios)}
                                     for h in hashes],
                            "median": {k: q[1] for k, q in figures.items()},
                            "quartiles": {k: [q[0], q[2]] for k, q in figures.items()}}
                     for name, (hashes, figures) in rows.items()}}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_compare_marks_medians_apart_by_more_than_both_spreads(tmp_path, capsys):
    """On overlapping yardstick ratios, a figure is marked when its medians
    differ by more than each file's quartile spread; a row's hashes match
    when every run of both files has one; a row in one file only is left
    out."""
    old = _bench_file(tmp_path / "old.json", {
        "same": (["a", "a"], {"wall_s": (1.0, 1.1, 1.2), "peak_rss_mb": (9.9, 10.0, 10.1)}),
        "moved": (["b", "b"], {"wall_s": (1.0, 1.1, 1.2)}),
        "old-only": (["c"], {"wall_s": (1.0, 1.0, 1.0)})}, ratios=(0.6, 0.7))
    new = _bench_file(tmp_path / "new.json", {
        "same": (["a", "a"], {"wall_s": (1.5, 1.55, 1.6), "peak_rss_mb": (10.1, 10.15, 10.2)}),
        "moved": (["b", "d"], {"wall_s": (1.0, 1.25, 1.3)})}, ratios=(0.65, 0.75))
    assert _bench().main(["--compare", old, new]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        "yardstick ratio 0.650 [0.600, 0.700] -> 0.700 [0.650, 0.750]".split(),
        "same: report sha256 matches".split(),
        "wall_s 1.100 [1.000, 1.200] -> 1.550 [1.500, 1.600] *".split(),
        "peak_rss_mb 10.000 [9.900, 10.100] -> 10.150 [10.100, 10.200]".split(),
        "moved: report sha256 differs".split(),
        "wall_s 1.100 [1.000, 1.200] -> 1.250 [1.000, 1.300]".split()]


def test_compare_marks_no_seconds_across_host_states(tmp_path, capsys):
    """When the two files' yardstick ratio quartiles do not overlap, the
    host was in another speed state: no time in seconds is marked, the
    host line says so, and the peak RSS and the hashes read as before."""
    figures = {"wall_s": (1.0, 1.1, 1.2), "flat_s": (0.5, 0.55, 0.6),
               "peak_rss_mb": (9.9, 10.0, 10.1)}
    old = _bench_file(tmp_path / "old.json", {"row": (["a"], figures)}, ratios=(0.9, 1.3))
    new = _bench_file(tmp_path / "new.json", {"row": (["a"], {
        "wall_s": (0.7, 0.75, 0.8), "flat_s": (0.3, 0.35, 0.4),
        "peak_rss_mb": (10.5, 10.6, 10.7)})}, ratios=(0.6, 0.68))
    assert _bench().main(["--compare", old, new]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [
        "yardstick ratio 1.100 [1.000, 1.200] -> 0.640 [0.620, 0.660]".split(),
        "host state differs; compare counts".split(),
        "row: report sha256 matches".split(),
        "wall_s 1.100 [1.000, 1.200] -> 0.750 [0.700, 0.800]".split(),
        "flat_s 0.550 [0.500, 0.600] -> 0.350 [0.300, 0.400]".split(),
        "peak_rss_mb 10.000 [9.900, 10.100] -> 10.600 [10.500, 10.700] *".split()]
