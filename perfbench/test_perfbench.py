"""Tests of the benchmark's own code: the powers_deep input generator, the
output checks behind `failed`, the clock and the scaling of times by the
host's speed, and the metric names in BENCHMARK.json."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import time

import pytest

from psl2cd import cli, prime_power_decompose

import run
import workloads
from measure import Clock, run_power

SMALL_SWEEP_ARGV = ["sweep", "--qmin", "7", "--qmax", "256", "--format", "json"]
SMALL_SWEEP = workloads.SweepExpected(
    7, 256, 98, 83, "a90b6113c668322a2bbd879e453c06523af2c10366ec0b2111ee633665ecd9d9", 34087
)


def _cli_output(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def _stream(text: str, piece: int | None = None) -> workloads.OutputStream:
    stream = workloads.OutputStream()
    piece = piece or len(text) or 1
    for start in range(0, len(text), piece):
        stream.write(text[start : start + piece])
    return stream


@pytest.fixture(scope="module")
def small_sweep() -> str:
    return _cli_output(SMALL_SWEEP_ARGV)


@pytest.fixture(scope="module")
def facts_output() -> str:
    return _cli_output(list(workloads.CLI_ARGV["facts_default"]))


# --- powers_deep generator ----------------------------------------------------


def test_generator_is_deterministic_by_seed():
    assert workloads.deep_prime_powers(7, 500) == workloads.deep_prime_powers(7, 500)
    assert workloads.deep_prime_powers(7, 500) != workloads.deep_prime_powers(8, 500)


@pytest.mark.parametrize("seed", [1, 2])
def test_generator_yields_distinct_valid_prime_powers(seed):
    powers = workloads.deep_prime_powers(seed, 2000)
    assert len({q for q, _, _ in powers}) == 2000
    for q, p, f in powers:
        assert f >= 2 and q == p**f and 7 <= q < 1 << 62
        assert prime_power_decompose(q) == (p, f)


# --- sweep checks ---------------------------------------------------------------


@pytest.mark.parametrize("piece", [None, 7, 4096])
def test_sweep_check_accepts_the_expected_report(small_sweep, piece):
    assert workloads.check_sweep(_stream(small_sweep, piece), 0, SMALL_SWEEP) == []


def _flip_pass(text: str) -> str:
    return text.replace('"pass": true', '"pass": false', 1)


def _drop_verdict(text: str) -> str:
    payload = json.loads(text)
    del payload["verdicts"][3]
    return cli.to_json(payload) + "\n"


def _claim_disagreement(text: str) -> str:
    payload = json.loads(text)
    payload["summary"]["disagreements"] = 1
    return cli.to_json(payload) + "\n"


@pytest.mark.parametrize(
    "tamper, problem",
    [
        (_flip_pass, "passing verdicts in the list"),
        (_drop_verdict, "verdicts in the list"),
        (_claim_disagreement, "summary is"),
        (lambda text: text[: len(text) // 2], "sha256"),
    ],
)
def test_sweep_check_rejects_a_tampered_report(small_sweep, tamper, problem):
    problems = workloads.check_sweep(_stream(tamper(small_sweep), 4096), 0, SMALL_SWEEP)
    assert any(problem in p for p in problems), problems
    assert any("sha256" in p for p in problems)


def test_sweep_check_rejects_a_failing_exit_code(small_sweep):
    assert workloads.check_sweep(_stream(small_sweep), 1, SMALL_SWEEP) == ["exit code 1"]


# --- facts checks -----------------------------------------------------------------


def test_facts_check_accepts_the_recorded_report(facts_output):
    assert workloads.check_facts(_stream(facts_output), 0) == (0, [])


def _facts_tampered(text: str, edit) -> str:
    payload = json.loads(text)
    edit(payload["facts"])
    return cli.to_json(payload) + "\n"


@pytest.mark.parametrize(
    "edit, fact_id",
    [
        (lambda facts: facts[5].update(holds=False, counterexamples=[7]), "F6"),
        (lambda facts: facts.pop(), "F9"),
    ],
)
def test_facts_check_rejects_a_tampered_report(facts_output, edit, fact_id):
    text = _facts_tampered(facts_output, edit)
    # Against the recorded digest every fact fails ...
    failed, problems = workloads.check_facts(_stream(text), 0)
    assert failed == len(workloads.FACT_IDS) and any("sha256" in p for p in problems)
    # ... and with the digest of the tampered text only the edited one does.
    stream = _stream(text)
    failed, problems = workloads.check_facts(stream, 0, stream.sha256, stream.nbytes)
    assert failed == 1 and problems[0].startswith(fact_id)


# --- powers_deep checks -----------------------------------------------------------

# Both characteristics, maximal subgroups below 2**21 and not above, and
# 3**39, whose groups with d = 3, 13, 39 overflow 2**63.
POWERS = [(9, 3, 2), (64, 2, 6), (3**12, 3, 12), (1000003**2, 1000003, 2), (3**39, 3, 39)]


@pytest.fixture(scope="module")
def power_results() -> dict:
    return {q: run_power(q) for q, _, _ in POWERS}


@pytest.mark.parametrize("q, p, f", POWERS)
def test_power_check_accepts_correct_results(power_results, q, p, f):
    attempted, failed, problems = workloads.check_power(q, p, f, power_results[q])
    assert (attempted, failed, problems) == (workloads.power_operations(q, p, f), 0, [])


def test_power_check_counts_overflowed_groups_as_attempted(power_results):
    result = power_results[3**39]
    assert sorted(result["overflowed"]) == [
        ("untwisted", 3), ("untwisted", 13), ("untwisted", 39),
        ("with_diagonal", 3), ("with_diagonal", 13), ("with_diagonal", 39),
    ]
    assert workloads.check_power(3**39, 3, 39, result) == (7, 0, [])


def _tampered(result: dict, edit) -> dict:
    copy = json.loads(json.dumps(result))
    edit(copy)
    return copy


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda r: r["verdicts"][0][0].update(agree=False), "disagreement"),
        (lambda r: r["verdicts"][0][0].update({"pass": not r["verdicts"][0][0]["pass"]}), "violation list"),
        (lambda r: r["verdicts"].pop(), "expected"),
        (lambda r: r["verdicts"].append(r["verdicts"][0]), "expected"),
        (lambda r: r["verdicts"][0][1].append("pgl"), "degree mismatch"),
        (lambda r: r["verdicts"][0][0]["degrees"].reverse(), "malformed degree set"),
        (lambda r: r["maximals"][0].__setitem__(1, 1), "maximal subgroups"),
    ],
)
def test_power_check_rejects_tampered_results(power_results, edit, problem):
    q, p, f = 3**12, 3, 12
    result = _tampered(power_results[q], edit)
    attempted, failed, problems = workloads.check_power(q, p, f, result)
    assert failed >= 1 and any(problem in p for p in problems), problems


# --- clock and speed scaling -----------------------------------------------------


def test_clock_samples_at_collections_and_leaves_samples_out_of_intervals():
    clock = Clock(sampling=True)
    clock.start("run")
    t0 = time.perf_counter()
    for _ in range(5):
        time.sleep(workloads.REFERENCE_PERIOD_S)
        gc.collect()
    t1 = time.perf_counter()
    clock.stop("run")
    result = clock.close()
    inside = result["reference_s"][Clock.BRACKET_SAMPLES : -Clock.BRACKET_SAMPLES]
    assert len(inside) == 5
    assert len(result["reference_s"]) == 5 + 2 * Clock.BRACKET_SAMPLES
    wall, cpu = result["run"][0]
    assert wall == pytest.approx(t1 - t0 - sum(inside), abs=2e-3)
    assert 0 <= cpu < wall


def test_clock_without_sampling_takes_no_samples():
    clock = Clock(sampling=False)
    clock.start("run")
    gc.collect()
    clock.stop("run")
    assert clock.close()["reference_s"] == []


def _pass(slowdown: float, run_s: float, ops_s: list[float], children: float = 0.0) -> dict:
    """A pass on a host `slowdown` times slower than the reference host."""
    return {
        "clock": {
            "reference_s": [workloads.REFERENCE_S * slowdown] * 3,
            "run": [[run_s * slowdown, run_s * slowdown]],
            "op": [[t * slowdown, t * slowdown] for t in ops_s],
        },
        "children_cpu_s": children * slowdown,
    }


def test_estimate_scales_each_pass_by_the_host_speed():
    times = run.estimate([_pass(slowdown, 2.0, [0.5, 1.0], 3.0) for slowdown in (1.0, 2.5, 1.3)])
    assert times["wall_s"] == pytest.approx(2.0)
    assert times["cpu_s"] == pytest.approx(5.0)
    assert times["ops_ms"] == pytest.approx([500.0, 1000.0])


def test_estimate_takes_the_median_pass_and_runs_as_ops_without_ops():
    passes = [_pass(1.0, t, []) for t in (1.0, 1.2, 9.0)]
    times = run.estimate(passes)
    assert times["wall_s"] == pytest.approx(1.2)
    assert times["ops_ms"] == pytest.approx([1200.0])


# --- metric names ------------------------------------------------------------------


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
