"""Benchmark of the psl2cd verifier.

    python3 perfbench/run.py --workload sweep_wide --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1        # every workload, per-layer metrics

Each measured pass runs in a fresh interpreter (measure.py), closed loop,
one pass at a time from this single client.  Passes repeat while the next
one, judged by the last, still fits in --seconds; at least MIN_PASSES
always run.  End-to-end times are scaled by the host's speed, sampled
alongside the work (see measure.Clock and estimate()), so that they read
the same whether or not other tenants of the host slow its cores.
For each workload the second-to-last stdout line records the environment
and input properties, and the last is the result object
{"correct", "attempted", "failed", "metrics"}.  A table of the metrics
goes to stderr.  The exit code is 1 when an output check failed and 2
when the benchmark could not run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

from workloads import (
    CLI_ARGV,
    POWERS_PER_PASS,
    REFERENCE_S,
    WORKLOADS,
    deep_prime_powers,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Launches timed for setup_s: half before the passes and half after, so
# that a burst of noise at the start of a run moves the median less.
SETUP_SPAWNS = 10
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# Passes per end-to-end run at the least, so that no run rests on one pass.
MIN_PASSES = 2
# Host speed samples taken by each launch timed for setup_s, once ready.
SETUP_SAMPLES = 10

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}
PER_LAYER = {
    "arithmetic.factor.calls": "count",
    "arithmetic.factor.s": "s",
    "arithmetic.factor.cache_hit_ratio": "ratio",
    "arithmetic.brent_rho.calls": "count",
    "arithmetic.brent_rho.s": "s",
    "arithmetic.is_prime.calls": "count",
    "arithmetic.is_prime.s": "s",
    "arithmetic.prime_powers_in_range.s": "s",
    "groups.PrimePower.is_prime_calls": "count",
    "groups.character_degrees.calls": "count",
    "groups.character_degrees.s": "s",
    "groups.enumerate_outer_subgroups.s": "s",
    "twoprime.check_set.calls": "count",
    "twoprime.check_set.s": "s",
    "twoprime.pairs_checked": "count",
    "classifier.brute_force_verdict.self_s": "s",
    "classifier.row_predicate_calls": "count",
    "classifier.sweep.s": "s",
    "classifier.report_dict.s": "s",
    "classifier.pool.parent_cpu_s": "s",
    "classifier.pool.worker_cpu_s": "s",
    "maximals.maximal_subgroups.calls": "count",
    "maximals.maximal_subgroups.s": "s",
    "facts.F5.s": "s",
    "facts.F6.s": "s",
    "facts.F8.s": "s",
    "cli.to_json.s": "s",
    "cli.output_bytes": "bytes",
    "tracing_overhead_s": "s",
}

# Imports psl2cd.cli and says so; then samples the host's speed, from the
# same process, for the time it took.
_READY = f"""\
import psl2cd.cli, sys, time
sys.stdout.write('ready\\n')
sys.stdout.flush()
sys.path.insert(0, {str(HERE)!r})
from workloads import reference_work
for _ in range({SETUP_SAMPLES}):
    t0 = time.thread_time()
    reference_work()
    print(time.thread_time() - t0)
"""


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


class Runner:
    """Starts interpreters for one run, all against the checkout's src."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def setup_times(self, launches: int, reference_s: list[float] | None = None) -> list[float]:
        """Seconds from launching an interpreter until psl2cd.cli is imported.

        The host speed samples each launch takes once ready are appended to
        `reference_s`.
        """
        times = []
        for _ in range(launches):
            t0 = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, "-c", _READY], cwd=ROOT, env=self.env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            ) as proc:
                ready = proc.stdout.readline() == b"ready\n"
                times.append(time.perf_counter() - t0)
                out, err = proc.communicate(timeout=60)
            if not ready or proc.returncode != 0:
                raise BenchError(f"psl2cd.cli does not import: {err.decode()[-2000:]}")
            if reference_s is not None:
                reference_s.extend(float(line) for line in out.split())
        return times

    def measure(self, spec: dict) -> dict:
        """The result of one pass of measure.py."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the pass could start")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "measure.py")], cwd=ROOT, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,  # so a stuck pass is killed with its pool workers
        )
        try:
            out, err = proc.communicate(json.dumps(spec).encode(), timeout=timeout)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"pass still running at the {RUN_DEADLINE_S:.0f} s deadline") from None
            raise
        if proc.returncode != 0:
            raise BenchError(f"measure.py exited {proc.returncode}: {err.decode()[-2000:]}")
        return json.loads(out.decode().splitlines()[-1])

    def repeat(self, seconds: float, one_pass, at_least: int = 1) -> list:
        """Run one_pass() at least `at_least` times, and then while the next
        call, judged by the last, fits in `seconds`."""
        start = time.perf_counter()
        results, last = [], 0.0
        while len(results) < at_least or (
            time.perf_counter() - start + last <= seconds
            and time.monotonic() + last < self.deadline
        ):
            t0 = time.perf_counter()
            results.append(one_pass())
            last = time.perf_counter() - t0
        return results


def speed(reference_s: list[float]) -> float:
    """The host's speed while the samples were taken, as the factor that
    turns a time measured then into the time on the reference host.

    The mean, not the median: when the host takes the core away in slices,
    a sample slows only if a slice falls in it, and the mean sample slows
    as much as the work around it does.
    """
    return REFERENCE_S / mean(reference_s)


def estimate(passes: list[dict]) -> dict:
    """Times of one run from its passes' clocks (measure.Clock).

    Each pass's times are scaled by the host's speed during that pass, and
    each time is the median over passes.  Returns {"wall_s", "cpu_s",
    "ops_ms"}: the "run" intervals summed on the wall and CPU clocks (with
    the pool workers' CPU), and the wall time in ms of each "op" interval,
    or of each "run" interval where there are no ops.
    """
    factors = [speed(r["clock"]["reference_s"]) for r in passes]
    ops = [r["clock"]["op"] or r["clock"]["run"] for r in passes]
    return {
        "wall_s": median(sum(w for w, _ in r["clock"]["run"]) * f for r, f in zip(passes, factors)),
        "cpu_s": median(
            (sum(c for _, c in r["clock"]["run"]) + r["children_cpu_s"]) * f for r, f in zip(passes, factors)
        ),
        "ops_ms": [median(op[i][0] * f for op, f in zip(ops, factors)) * 1000.0 for i in range(len(ops[0]))],
    }


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "loadavg": list(os.getloadavg()),
    }


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _per_layer(runner: Runner, spec: dict, seconds: float) -> tuple[dict, list[dict], dict]:
    """Alternating plain passes (with spans) and profiled passes."""
    pairs = runner.repeat(
        seconds,
        lambda: (runner.measure({**spec, "spans": True}), runner.measure({**spec, "profile": True})),
    )
    plain = [p for p, _ in pairs]
    profiled = [p for _, p in pairs]
    values = {key: median(r["layers"][key] for r in profiled) for key in profiled[0]["layers"]}
    values.update({key: median(r["spans"][key] for r in plain) for key in plain[0]["spans"]})
    values["cli.output_bytes"] = median(r["output_bytes"] for r in profiled)
    values["tracing_overhead_s"] = median(r["wall_s"] for r in profiled) - median(r["wall_s"] for r in plain)
    return _metrics(values, PER_LAYER), plain + profiled, {}


def _end_to_end(runner: Runner, spec: dict, seconds: float) -> tuple[dict, list[dict], dict]:
    reference: list[float] = []
    setup = runner.setup_times(SETUP_SPAWNS // 2, reference)
    passes = runner.repeat(seconds, lambda: runner.measure({**spec, "sampling": True}), MIN_PASSES)
    setup += runner.setup_times(SETUP_SPAWNS - len(setup), reference)
    times = estimate(passes)
    # One operation is one q on powers_deep, one fact on facts_default and
    # the whole command on the sweeps.
    op_ms = times["ops_ms"]
    values = {
        "wall_s": times["wall_s"],
        "setup_s": median(setup) * speed(reference),
        "cpu_s": times["cpu_s"],
        "peak_rss_mb": median(r["peak_rss_mb"] for r in passes),
        "op_p50_ms": median(op_ms),
        "op_p99_ms": _p99(op_ms),
    }
    samples = {
        "op_samples": len(op_ms),
        "setup_samples": len(setup),
        # As measured, before scaling by the host's speed.
        "measured": {
            "pass_wall_s": [r["wall_s"] for r in passes],
            "setup_s": median(setup),
            "speed": [speed(r["clock"]["reference_s"]) for r in passes],
            "setup_speed": speed(reference),
            "reference_samples": [len(r["clock"]["reference_s"]) for r in passes],
        },
    }
    return _metrics(values, END_TO_END), passes, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(detail, result) for one workload run."""
    environment = _environment()
    runner = Runner()
    spec: dict = {"workload": name}
    if name == "powers_deep":
        spec["powers"] = deep_prime_powers(seed, POWERS_PER_PASS)
    runner.setup_times(1)  # checks the import and warms the bytecode cache
    metrics, passes, samples = (_per_layer if trace else _end_to_end)(runner, spec, seconds)

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    problems = [problem for r in passes for problem in r["problems"]]
    if "powers" in spec:
        inputs = {
            "q_count": len(spec["powers"]),
            "groups": passes[0]["groups"],
            "share_log2_q_ge_40": sum(q >= 1 << 40 for q, _, _ in spec["powers"]) / len(spec["powers"]),
            "factor_cache_miss_share": passes[0]["factor_miss_share"],
            "overflowed_groups": passes[0]["overflowed"],
        }
    else:
        inputs = {"argv": list(CLI_ARGV[name]), "sha256": sorted({r["sha256"] for r in passes})}
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment,
        "inputs": inputs,
        "passes": len(passes),
        **samples,
        "problems": problems[:20],
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "psl2cd").is_dir():
        print(f"error: no psl2cd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    all_correct = True
    for name in [args.workload] if args.workload else WORKLOADS:
        try:
            detail, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<40} {entry['value']:>16.6f} {entry['unit']}", file=sys.stderr)
        for problem in detail["problems"]:
            print(f"{name:<18} CHECK FAILED: {problem}", file=sys.stderr)
        print(json.dumps(detail))
        print(json.dumps(result), flush=True)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
