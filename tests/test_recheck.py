"""``tests/recheck.py``, the re-check of the sweep and check reports that
shares no code with the package: it imports none, it accepts the real
7..2^16 report piped from the CLI and every pinned check report, and it
rejects each kind of damage to a report."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recheck
from _oracles import trial_division
from psl2cd import cli
from psl2cd.groups import _lattice
from test_canonical_outputs import _PINNED

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def test_it_imports_only_the_standard_library():
    tree = ast.parse((HERE / "recheck.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert modules and all(node.level == 0 for node in ast.walk(tree) if isinstance(node, ast.ImportFrom))
    assert {module.split(".")[0] for module in modules} <= set(sys.stdlib_module_names) | {"__future__"}
    assert not any(module.split(".")[0] == "psl2cd" for module in modules)


def test_the_7_to_2_16_report_passes_through_a_pipe():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "psl2cd", "sweep", "--qmin", "7", "--qmax", "65536", "--format", "json"]
    sweep = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    recheck_argv = [sys.executable, str(HERE / "recheck.py")]
    check = subprocess.run(recheck_argv, stdin=sweep.stdout, capture_output=True, text=True)
    sweep.stdout.close()
    assert sweep.wait() == 0
    assert (check.returncode, check.stderr) == (0, "")


def test_its_prime_powers_and_lattice_are_the_package_s():
    # Its own sieve against trial division, windows near 2^20 included, and
    # its subgroups of Out(S) against the package's lattice for every f.
    for lo, hi in [(2, 300), (7, 7), (60000, 70000), (2**20 - 500, 2**20 + 500)]:
        by_trial = [(n, *fs[0]) for n in range(lo, hi + 1) if len(fs := trial_division(n)) == 1]
        assert recheck.prime_powers(lo, hi) == by_trial
    for f in range(1, 63):
        for odd in (False, True):
            assert recheck.extensions(f, odd) == tuple((o.kind.value, o.d) for o in _lattice(f, not odd)[1:])


def _report(q_min: int, q_max: int) -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["sweep", "--qmin", str(q_min), "--qmax", str(q_max), "--format", "json"]) == 0
    return json.loads(out.getvalue())


_SWEEP_PINS = [
    args for args, _ in _PINNED if args.startswith("sweep ") and args.endswith(" --format json") and "1048576" not in args
]


@pytest.mark.parametrize("args", _SWEEP_PINS)
def test_every_pinned_sweep_report_passes(args, tmp_path):
    # The pinned JSON sweeps of the CI step, but 7..2^20, which CI pipes
    # through the re-check itself.
    _, _, q_min, _, q_max, _, _ = args.split()
    path = tmp_path / "report.json"
    path.write_text(json.dumps(_report(int(q_min), int(q_max))))
    assert recheck.main([str(path)]) == 0


def _failing(report: dict) -> dict:
    return next(v for v in report["verdicts"] if len(v["violations"]) > 1)


def _drop_violation(report):
    _failing(report)["violations"].pop()


def _flip_pass(report):  # of a passing PGL(2,7), with the counts following
    verdict = report["verdicts"][0]
    verdict["pass"] = False
    report["summary"]["passing"] -= 1
    report["summary"]["converse_anomalies"] += 1  # it matches the row pgl


def _drop_verdict(report):  # the counts follow, so only the list of groups shows it
    verdict = report["verdicts"].pop(5)
    report["summary"]["groups"] -= 1
    report["summary"]["passing"] -= verdict["pass"]


def _wrong_count(report):
    report["summary"]["converse_anomalies"] += 1


def _wrong_omega(report):
    _failing(report)["violations"][0]["omega"] += 1


def _swap_order(report):  # two groups of one q
    verdicts = report["verdicts"]
    i = next(i for i, (v, w) in enumerate(zip(verdicts, verdicts[1:])) if v["q"] == w["q"])
    verdicts[i], verdicts[i + 1] = verdicts[i + 1], verdicts[i]


@pytest.mark.parametrize(
    "damage, message",
    [
        (_drop_violation, "violations are not"),
        (_flip_pass, "pass is False with 0 violations"),
        (_drop_verdict, "verdicts where"),
        (_wrong_count, "summary"),
        (_wrong_omega, "violations are not"),
        (_swap_order, "they differ first at verdict"),
    ],
    ids=["dropped_violation", "flipped_pass", "dropped_verdict", "wrong_count", "wrong_omega", "swapped_order"],
)
def test_each_kind_of_damage_is_rejected(damage, message, tmp_path, capsys):
    report = _report(7, 4096)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert recheck.main([str(path)]) == 0
    damage(report)
    path.write_text(json.dumps(report))
    assert recheck.main([str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(message in line for line in lines), lines


def _check_report(args: str) -> str:
    """What ``cli.main`` writes for a pinned check command."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(args.split())
    return out.getvalue()


@pytest.mark.parametrize("args", [args for args, _ in _PINNED if args.startswith("check ")])
def test_every_pinned_check_report_passes(args, tmp_path):
    # The pinned check commands, each of which prints a report, the one CI pipes included.
    path = tmp_path / "report.json"
    path.write_text(_check_report(args))
    assert recheck.main([str(path)]) == 0


def _flip_check_pass(report):
    report["pass"] = True


def _drop_check_violation(report):
    report["violations"].pop(1)


@pytest.mark.parametrize(
    "damage, message",
    [(_flip_check_pass, "pass is True with 3 violations"), (_drop_check_violation, "violations are not")],
    ids=["flipped_pass", "dropped_violation"],
)
def test_each_kind_of_damage_to_a_check_report_is_rejected(damage, message, tmp_path, capsys):
    report = json.loads(_check_report("check --degrees 1,12,24,60 --format json"))
    damage(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert recheck.main([str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(message in line for line in lines) and "the degree set" in lines[0], lines


def test_a_report_that_is_not_json_is_rejected(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text('{"verdicts": [')
    assert recheck.main([str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read a JSON report")
