"""Paired benchmark runs of two or three revisions, written as a BENCH file.

    python3 tools/pairs.py --parent HEAD~1 --workload sweep_wide --pairs 10 --seconds 4 --out BENCH_N.json
    python3 tools/pairs.py --parent HEAD~1 --baseline 9a2ea1c --workload sweep_wide --workload powers_deep \\
        --pairs 6 --seconds 4 --out BENCH_N.json

Each revision is exported with ``git archive REV | tar -x`` into a
temporary directory, so no worktree is added and nothing in ``.git``
changes.  The change side is ``--change REV`` exported the same way, or by
default the working tree as it stands, uncommitted edits included.  Every
tree runs its own ``perfbench/run.py --workload W --seed i --seconds S
--trace 0``, which puts that tree's ``src`` first on ``PYTHONPATH``, so
each side measures its own code.

Pair i (seed i, from 1) runs each side once: baseline, parent, change when
i is odd, and the reverse when i is even.  A run that reports
``"correct": false``, or that ``run.py`` cannot finish, stops the tool
with exit 1 before any file is written.

The file holds, per workload and end-to-end metric, each side's median,
quartiles (``statistics.quantiles``, n = 4) and runs, the pairs in which
the change is better than the parent (and than the baseline, with
``--baseline``), and every run's two output lines.  Better is lower, or
higher where ``BENCHMARK.json`` says so.  Stdlib only.
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
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, into: Path) -> Path:
    """The tree of rev, extracted into the new directory ``into``."""
    into.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or tar.returncode:
        raise SystemExit(f"error: git archive {rev} | tar -x failed")
    return into


def _src_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of the tree's src/**/*.py, so that a
    side measured from the working tree can be matched to a commit later."""
    sha = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        sha.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return sha.hexdigest()


def _run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The details and result lines of one ``run.py`` run in tree."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _compare(change: list[float], other: list[float], higher_is_better: bool) -> tuple[int, float | None]:
    """Pairs in which the change is better, and the change's median as a
    percentage change from the other side's (None if that median is 0)."""
    won = sum((c > o) if higher_is_better else (c < o) for c, o in zip(change, other))
    base = statistics.median(other)
    return won, (100 * (statistics.median(change) / base - 1) if base else None)


def summarize(runs: list[dict], sides: list[str], higher_is_better: set[str]) -> dict:
    """{workload: {metric: entry}} over runs, each a dict with side,
    workload, seed and result, in seed order within each side."""
    summary: dict = {}
    for run in runs:
        for metric, entry in run["result"]["metrics"].items():
            cell = summary.setdefault(run["workload"], {}).setdefault(metric, {"unit": entry["unit"]})
            cell.setdefault(run["side"], []).append(entry["value"])
    for metrics in summary.values():
        for metric, cell in metrics.items():
            values = {side: cell[side] for side in sides}
            cell.update((side, _stats(values[side])) for side in sides)
            higher = metric in higher_is_better
            won, pct = _compare(values["change"], values["parent"], higher)
            cell.update(change_better_pairs=won, median_change_pct=pct, pairs=len(values["change"]))
            if "baseline" in values:
                won, pct = _compare(values["change"], values["baseline"], higher)
                cell.update(change_better_than_baseline_pairs=won, median_change_vs_baseline_pct=pct)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision the change is measured against")
    parser.add_argument("--change", help="revision of the change (default: the working tree)")
    parser.add_argument("--baseline", help="a third, earlier revision, to show drift")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = ROOT / "BENCHMARK.json"
    end_to_end = json.loads(benchmark.read_text())["end_to_end"] if benchmark.exists() else []
    higher_is_better = {m["name"] for m in end_to_end if m.get("better") == "higher"}
    revs = {"baseline": args.baseline, "parent": args.parent, "change": args.change}
    sides = [side for side in revs if side != "baseline" or args.baseline]
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees, shas = {}, {}
        for side in sides:
            if revs[side] is None:
                trees[side] = ROOT
                dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
                shas[side] = _git("rev-parse", "HEAD") + (" with the working tree's uncommitted edits" if dirty else "")
            else:
                trees[side] = _export(revs[side], Path(tmp) / side)
                shas[side] = _git("rev-parse", f"{revs[side]}^{{commit}}")
        runs = []
        for workload in args.workload:
            for seed in range(1, args.pairs + 1):
                for side in sides if seed % 2 else sides[::-1]:
                    details, result = _run(trees[side], workload, seed, args.seconds)
                    if not result["correct"]:
                        print(f"error: {side} {workload} seed {seed} is not correct; no file written", file=sys.stderr)
                        return 1
                    runs.append({"side": side, "workload": workload, "seed": seed, "details": details, "result": result})
                    wall_s = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: wall_s {wall_s:.4f}", file=sys.stderr)
        digests = {side: _src_digest(trees[side]) for side in sides}

    report = {
        "benchmark": f"perfbench/run.py, end-to-end metrics (--trace 0), --seconds {args.seconds:g}",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "arch": platform.machine()},
        **shas,
        "src_sha256": digests,
        "pairing": "seeds 1..N per workload; odd seeds run " + ", ".join(sides) + ", even seeds the reverse",
        "quartiles": "statistics.quantiles(values, n=4), the default exclusive method",
        "summary": summarize(runs, sides, higher_is_better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
