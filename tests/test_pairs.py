"""``tools/pairs.py``: one pair of ``facts_default`` with both sides at
HEAD, the layout of the file it writes, its summary and its refusal to
write a file when a run is not correct."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pairs.py"
_HEAD = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
needs_git = pytest.mark.skipif(
    _HEAD.returncode != 0, reason="tools/pairs.py exports revisions with git archive, which needs a git checkout"
)
METRICS = {"wall_s", "setup_s", "cpu_s", "peak_rss_mb", "op_p50_ms", "op_p99_ms"}

_spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


@needs_git
def test_one_pair_at_head_writes_the_bench_layout(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--change", "HEAD", "--workload", "facts_default", "--pairs", "1", "--seconds", "0"]
    proc = subprocess.run([sys.executable, str(TOOL), *argv, "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert list(report) == [
        "benchmark", "machine", "parent", "change", "src_sha256", "pairing", "quartiles", "summary", "runs"
    ]
    assert report["parent"] == report["change"] == _HEAD.stdout.strip()
    assert report["src_sha256"]["parent"] == report["src_sha256"]["change"]
    assert list(report["summary"]) == ["facts_default"] and set(report["summary"]["facts_default"]) == METRICS
    for cell in report["summary"]["facts_default"].values():
        assert set(cell) == {"unit", "parent", "change", "change_better_pairs", "median_change_pct", "pairs"}
        assert cell["pairs"] == 1 and cell["change_better_pairs"] in (0, 1)
        for side in ("parent", "change"):
            (value,) = cell[side]["runs"]
            assert cell[side] == {"median": value, "q1": value, "q3": value, "runs": [value]}
    assert [(run["side"], run["seed"]) for run in report["runs"]] == [("parent", 1), ("change", 1)]
    assert all(run["result"]["correct"] and run["details"]["workload"] == "facts_default" for run in report["runs"])


@needs_git
def test_a_run_that_is_not_correct_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pairs, "_run", lambda tree, workload, seed, seconds: ({}, {"correct": False}))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--change", "HEAD", "--workload", "facts_default", "--pairs", "1", "--out", str(out)]
    assert pairs.main(argv) == 1
    assert not out.exists()
    assert "parent facts_default seed 1 is not correct; no file written" in capsys.readouterr().err


def test_summary_counts_pairs_won_per_side():
    def run(side, seed, wall, ratio):
        metrics = {"wall_s": {"value": wall, "unit": "s"}, "hit_ratio": {"value": ratio, "unit": "ratio"}}
        return {"side": side, "workload": "w", "seed": seed, "result": {"metrics": metrics}}

    runs = [
        run("baseline", 1, 3.0, 0.1), run("parent", 1, 2.0, 0.5), run("change", 1, 1.0, 0.9),
        run("change", 2, 2.5, 0.2), run("parent", 2, 2.0, 0.5), run("baseline", 2, 3.0, 0.1),
        run("baseline", 3, 3.0, 0.1), run("parent", 3, 2.0, 0.5), run("change", 3, 1.5, 0.6),
    ]  # fmt: skip
    summary = pairs.summarize(runs, ["baseline", "parent", "change"], {"hit_ratio"})
    wall, ratio = summary["w"]["wall_s"], summary["w"]["hit_ratio"]
    assert wall["change"]["runs"] == [1.0, 2.5, 1.5] and wall["change"]["median"] == 1.5
    assert (wall["change_better_pairs"], wall["change_better_than_baseline_pairs"], wall["pairs"]) == (2, 3, 3)
    assert wall["median_change_pct"] == pytest.approx(-25.0)
    assert wall["median_change_vs_baseline_pct"] == pytest.approx(-50.0)
    assert (ratio["change_better_pairs"], ratio["change_better_than_baseline_pairs"]) == (2, 3)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (2.0, 2.0)
