"""One measured pass of a benchmark workload, in a fresh interpreter.

run.py starts this script with psl2cd on PYTHONPATH, writes a JSON spec to
its stdin and reads one JSON line of measurements from its stdout:

    {"workload": "<name>", "profile": bool, "spans": bool, "sampling": bool,
     "powers": [[q, p, f], ...]}            # powers_deep only

The pass runs the workload once, times only the calls into psl2cd, checks
their output (see workloads.py) and reports attempted and failed
operations.  Every pass returns the wall and CPU time of its intervals
(see Clock); with "sampling" it also samples the host's speed alongside.
With "profile" the calls run under cProfile and the result carries the
per-layer metrics; with "spans" a few public functions are wrapped to time
individual calls (per fact, and the CPU of `sweep` in this process and in
its pool workers).
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

import psl2cd
from psl2cd import arithmetic, cli, facts
from psl2cd.classifier import brute_force_verdict, verdict_to_dict
from psl2cd.groups import GroupDescriptor, PrimePower, enumerate_outer_subgroups
from psl2cd.maximals import maximal_subgroups

from workloads import (
    CLI_ARGV,
    FACT_IDS,
    MAXIMALS_BELOW,
    REFERENCE_PERIOD_S,
    WIDE_SWEEP,
    OutputStream,
    check_facts,
    check_power,
    check_sweep,
    power_operations,
    reference_work,
)

_SRC = Path(__file__).resolve().parent.parent / "src"
_MAX_PROBLEMS = 20


class Clock:
    """Times the intervals of a pass, and the host's speed alongside them.

    On a VM whose host is shared, other tenants slow its cores by up to
    2.5x for stretches of seconds to minutes.  So while a sampling clock
    runs, every garbage collection that starts at least
    REFERENCE_PERIOD_S after the last sample runs reference_work() once and
    records the CPU time of the thread that ran it; run.py divides the
    pass's times by the mean of those samples.  The VM counts time the host
    takes its core away as CPU time, so the samples slow with the host, but
    not while they wait for the run's own pool workers.  Samples are also
    taken before and after the work, so a pass that collects no garbage has
    some.  Time spent on samples is left out of the intervals.

    Intervals are "run" (the timed calls) and "op" (each fact on
    facts_default); each is recorded as [wall seconds, CPU seconds].
    """

    BRACKET_SAMPLES = 10

    def __init__(self, sampling: bool) -> None:
        self.intervals: dict[str, list[list[float]]] = {"run": [], "op": []}
        self.reference: list[float] = []
        self._sampling = sampling
        self._open: dict[str, tuple[float, float]] = {}
        self._sample_wall = self._sample_cpu = 0.0
        self._last = 0.0
        self._pid = os.getpid()
        if sampling:
            self._bracket()
            gc.callbacks.append(self._on_gc)

    def _sample(self) -> None:
        wall0, cpu0, own0 = time.perf_counter(), time.process_time(), time.thread_time()
        reference_work()
        self.reference.append(time.thread_time() - own0)
        self._last = time.perf_counter()
        self._sample_wall += self._last - wall0
        self._sample_cpu += time.process_time() - cpu0

    def _bracket(self) -> None:
        for _ in range(self.BRACKET_SAMPLES):
            self._sample()

    def _on_gc(self, phase: str, info: dict) -> None:
        # Pool workers forked from this process inherit the callback; only
        # this process samples.
        if phase != "start" or os.getpid() != self._pid:
            return
        if time.perf_counter() - self._last >= REFERENCE_PERIOD_S:
            self._sample()

    def _now(self) -> tuple[float, float]:
        return time.perf_counter() - self._sample_wall, time.process_time() - self._sample_cpu

    def start(self, kind: str) -> None:
        self._open[kind] = self._now()

    def stop(self, kind: str) -> None:
        (wall0, cpu0), (wall1, cpu1) = self._open.pop(kind), self._now()
        self.intervals[kind].append([wall1 - wall0, cpu1 - cpu0])

    def close(self) -> dict:
        if self._sampling:
            gc.callbacks.remove(self._on_gc)
            self._bracket()
        return {"reference_s": self.reference, **self.intervals}

    def run_seconds(self) -> float:
        return sum(wall for wall, _ in self.intervals["run"])


def _time_calls(module: object, attribute: str, clock: Clock) -> None:
    """Record an "op" interval for every call of module.attribute."""
    original = getattr(module, attribute)

    def timed(*args, **kwargs):
        clock.start("op")
        try:
            return original(*args, **kwargs)
        finally:
            clock.stop("op")

    setattr(module, attribute, timed)


def _cpu() -> tuple[float, float]:
    """(self, children) user plus system CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Spans:
    """Totals of wall time and CPU per span name, recorded by wrapping a
    module attribute; the program's own code is not changed."""

    METRICS = (
        "classifier.pool.parent_cpu_s",
        "classifier.pool.worker_cpu_s",
        "facts.F5.s",
        "facts.F6.s",
        "facts.F8.s",
    )

    def __init__(self) -> None:
        self.totals = dict.fromkeys(self.METRICS, 0.0)
        # cli.main looks `sweep` up in its module; facts.verify_all looks
        # `verify_fact` up in its module.
        self._wrap(cli, "sweep", lambda *args, **kwargs: "classifier.pool")
        self._wrap(facts, "verify_fact", lambda fact_id, *args, **kwargs: f"facts.{fact_id}")

    def _wrap(self, module: object, attribute: str, name_of) -> None:
        original = getattr(module, attribute)

        def timed(*args, **kwargs):
            cpu0, kids0 = _cpu()
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                cpu1, kids1 = _cpu()
                name = name_of(*args, **kwargs)
                for key, value in (("s", wall), ("parent_cpu_s", cpu1 - cpu0), ("worker_cpu_s", kids1 - kids0)):
                    if f"{name}.{key}" in self.totals:
                        self.totals[f"{name}.{key}"] += value

        setattr(module, attribute, timed)


def _layer_metrics(stats: dict, bench_file: str) -> dict[str, float]:
    """Per-layer metrics from cProfile per-function totals.

    `stats` maps (file, line, function) to (primitive calls, calls, self
    time, cumulative time, callers); each caller maps to (calls, primitive
    calls, self time, cumulative time) for the calls it made.
    """

    def in_module(key: tuple, module: str) -> bool:
        return key[0].endswith(f"psl2cd/{module}.py")

    def entries(module: str, function: str) -> list[tuple]:
        return [v for k, v in stats.items() if k[2] == function and in_module(k, module)]

    def total(module: str, function: str, field: int) -> float:
        return sum(v[field] for v in entries(module, function))

    def calls(module: str, function: str) -> int:
        return total(module, function, 1)

    def cum(module: str, function: str) -> float:
        return float(total(module, function, 3))

    def by_caller(module: str, function: str, field: int, caller_ok) -> float:
        return sum(
            per_caller[field]
            for v in entries(module, function)
            for caller, per_caller in v[4].items()
            if caller_ok(caller)
        )

    factor_calls = calls("arithmetic", "factor")
    factor_misses = calls("arithmetic", "_factor_cached")
    verdict_keys = {
        k for k in stats if k[2] == "brute_force_verdict" and in_module(k, "classifier")
    }
    row_calls = sum(
        per_caller[0]
        for k, v in stats.items()
        if in_module(k, "classifier")
        for caller, per_caller in v[4].items()
        if caller in verdict_keys
    )
    return {
        "arithmetic.factor.calls": factor_calls,
        "arithmetic.factor.s": cum("arithmetic", "factor"),
        "arithmetic.factor.cache_hit_ratio": (
            (factor_calls - factor_misses) / factor_calls if factor_calls else 0.0
        ),
        "arithmetic.brent_rho.calls": calls("arithmetic", "_brent_rho"),
        "arithmetic.brent_rho.s": cum("arithmetic", "_brent_rho"),
        "arithmetic.is_prime.calls": calls("arithmetic", "is_prime"),
        "arithmetic.is_prime.s": cum("arithmetic", "is_prime"),
        "arithmetic.prime_powers_in_range.s": cum("arithmetic", "prime_powers_in_range"),
        "groups.PrimePower.is_prime_calls": by_caller(
            "arithmetic", "is_prime", 0,
            lambda c: c[2] == "__post_init__" and in_module(c, "groups"),
        ),
        "groups.character_degrees.calls": calls("groups", "character_degrees"),
        "groups.character_degrees.s": cum("groups", "character_degrees"),
        "groups.enumerate_outer_subgroups.s": cum("groups", "enumerate_outer_subgroups"),
        "twoprime.check_set.calls": calls("twoprime", "check_set"),
        "twoprime.check_set.s": cum("twoprime", "check_set"),
        "twoprime.pairs_checked": calls("twoprime", "check_pair"),
        "classifier.brute_force_verdict.self_s": float(total("classifier", "brute_force_verdict", 2)),
        "classifier.row_predicate_calls": row_calls,
        "classifier.sweep.s": cum("classifier", "sweep"),
        # sweep_report_to_dict on the CLI workloads, verdict_to_dict called
        # from this file on powers_deep.
        "classifier.report_dict.s": cum("classifier", "sweep_report_to_dict")
        + by_caller("classifier", "verdict_to_dict", 3, lambda c: c[0] == bench_file),
        "maximals.maximal_subgroups.calls": calls("maximals", "maximal_subgroups"),
        "maximals.maximal_subgroups.s": cum("maximals", "maximal_subgroups"),
        "cli.to_json.s": cum("cli", "to_json"),
    }


def run_power(q: int) -> dict:
    """Every verdict for q = p**f, plus its maximal subgroups below 2**21.

    A degree of 2**63 or more raises OverflowError, which is recorded as
    an overflowed group the way `sweep` records it.
    """
    pp = PrimePower.from_value(q)
    verdicts, overflowed = [], []
    for outer in enumerate_outer_subgroups(pp, include_trivial=False):
        try:
            verdict = brute_force_verdict(GroupDescriptor(pp, outer))
        except OverflowError:
            overflowed.append((outer.kind.value, outer.d))
            continue
        verdicts.append((verdict_to_dict(verdict), list(verdict.degree_mismatches)))
    maximals = None
    if q < MAXIMALS_BELOW:
        maximals = [(m.order, m.index) for m in maximal_subgroups(pp)]
    return {"verdicts": verdicts, "overflowed": overflowed, "maximals": maximals}


def _factor_cache() -> tuple[int, int] | None:
    info = getattr(getattr(arithmetic, "_factor_cached", None), "cache_info", None)
    if info is None:
        return None
    counts = info()
    return counts.hits, counts.misses


def _run_cli(workload: str, profiler: cProfile.Profile | None, clock: Clock) -> dict:
    if workload == "facts_default":
        _time_calls(facts, "verify_fact", clock)
    stream = OutputStream()
    stdout, sys.stdout = sys.stdout, stream
    cpu0, kids0 = _cpu()
    clock.start("run")
    if profiler:
        profiler.enable()
    try:
        rc = cli.main(list(CLI_ARGV[workload]))
    except Exception as exc:  # a crash is a failed operation, not a lost run
        rc = f"{type(exc).__name__}: {exc}"
    finally:
        if profiler:
            profiler.disable()
        clock.stop("run")
        cpu1, kids1 = _cpu()
        sys.stdout = stdout
    if workload == "facts_default":
        attempted = len(FACT_IDS)
        failed, problems = check_facts(stream, rc)
    else:
        attempted = 1
        problems = check_sweep(stream, rc, WIDE_SWEEP)
        failed = 1 if problems else 0
    return {
        "cpu_s": cpu1 - cpu0 + kids1 - kids0,
        "children_cpu_s": kids1 - kids0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sha256": stream.sha256,
        "output_bytes": stream.nbytes,
    }


def _run_powers(powers: list[list[int]], profiler: cProfile.Profile | None, clock: Clock) -> dict:
    attempted = failed = groups = overflowed = 0
    problems: list[str] = []
    cpu = 0.0
    cache0 = _factor_cache()
    for q, p, f in powers:
        cpu0 = sum(_cpu())
        clock.start("run")
        if profiler:
            profiler.enable()
        try:
            result = run_power(q)
        except Exception as exc:  # any error but OverflowError fails the whole q
            result = exc
        finally:
            if profiler:
                profiler.disable()
            clock.stop("run")
            cpu += sum(_cpu()) - cpu0
        if isinstance(result, Exception):
            n = power_operations(q, p, f)
            attempted += n
            failed += n
            problems.append(f"q = {q}: {type(result).__name__}: {result}")
            continue
        n_attempted, n_failed, found = check_power(q, p, f, result)
        attempted += n_attempted
        failed += n_failed
        problems += found
        groups += len(result["verdicts"]) + len(result["overflowed"])
        overflowed += len(result["overflowed"])
    cache1 = _factor_cache()
    misses = None
    if cache0 and cache1:
        hits, miss = cache1[0] - cache0[0], cache1[1] - cache0[1]
        misses = miss / (hits + miss) if hits + miss else 0.0
    return {
        "cpu_s": cpu,
        "children_cpu_s": 0.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "groups": groups,
        "overflowed": overflowed,
        "factor_miss_share": misses,
        "output_bytes": 0,
    }


def main() -> int:
    spec = json.loads(sys.stdin.read())
    if Path(psl2cd.__file__).resolve().parent.parent != _SRC:
        print(f"psl2cd imported from {psl2cd.__file__}, not from {_SRC}", file=sys.stderr)
        return 2
    spans = Spans() if spec.get("spans") else None
    profiler = cProfile.Profile() if spec.get("profile") else None
    clock = Clock(sampling=bool(spec.get("sampling")))
    if spec["workload"] == "powers_deep":
        result = _run_powers(spec["powers"], profiler, clock)
    else:
        result = _run_cli(spec["workload"], profiler, clock)
    result["clock"] = clock.close()
    result["wall_s"] = clock.run_seconds()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["problems"] = result["problems"][:_MAX_PROBLEMS]
    if profiler:
        profiler.create_stats()
        result["layers"] = _layer_metrics(profiler.stats, __file__)
    if spans:
        result["spans"] = spans.totals
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
