import contextlib
import functools
import io
import json
import multiprocessing.process
import os
import shlex
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import psl2cd
from psl2cd import arithmetic, classifier, cli
from psl2cd.arithmetic import MAX_VALUE, is_prime, prime_sieve
from psl2cd.classifier import brute_force_verdict, sweep, verdict_to_dict
from psl2cd.cli import main, to_json
from psl2cd.facts import FACTS
from psl2cd.groups import GroupDescriptor, PrimePower, enumerate_outer_subgroups, group_name
from psl2cd.twoprime import Violation

from _oracles import sieve_factorizer


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestBasicCommands:
    def test_factor(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "63")
        assert code == 0
        assert "63 = 3^2 * 7" in out

    def test_factor_one_is_the_empty_product(self, capsys):
        code, out, _ = run(capsys, "factor", "--n", "1")
        assert (code, out) == (0, "1 = 1\n")
        code, payload, _ = run_json(capsys, "factor", "--n", "1")
        assert code == 0
        assert payload == {"n": 1, "factors": [], "omega": 0}

    def test_omega(self, capsys):
        code, out, _ = run(capsys, "omega", "--n", "12")
        assert code == 0
        assert "omega(12) = 3" in out

    def test_cd_m10(self, capsys):
        code, payload, _ = run_json(capsys, "cd", "--q", "9", "--outer", "delta*phi^1")
        assert code == 0
        assert payload["degrees"] == [1, 9, 10, 16]
        assert payload["group"]["kind"] == "twisted"

    def test_cd_default_outer_is_socle(self, capsys):
        code, payload, _ = run_json(capsys, "cd", "--q", "11")
        assert code == 0
        assert payload["degrees"] == [1, 5, 10, 11, 12]

    def test_check_failing_set(self, capsys):
        code, out, _ = run(capsys, "check", "--degrees", "1,12,24")
        assert code == 1
        assert "(12, 24): gcd = 12, omega = 3" in out

    def test_check_passing_set(self, capsys):
        code, _, _ = run(capsys, "check", "--degrees", "1,6,7,8")
        assert code == 0

    def test_maximals(self, capsys):
        code, payload, _ = run_json(capsys, "maximals", "--q", "9")
        assert code == 0
        assert payload["group_order"] == 360
        assert sorted(e["index"] for e in payload["entries"]) == [6, 10, 15]

    def test_maximals_pgl(self, capsys):
        code, payload, _ = run_json(capsys, "maximals", "--q", "11", "--pgl")
        assert code == 0
        assert sorted(e["index"] for e in payload["entries"]) == [12, 55, 55, 66]

    def test_classify(self, capsys):
        code, payload, _ = run_json(capsys, "classify", "--q", "16", "--outer", "phi^2")
        assert code == 0
        assert payload["pass"] is True
        assert payload["rows"] == ["s_phi_half_even"]

    def test_classify_failing_group_still_agrees(self, capsys):
        code, payload, _ = run_json(capsys, "classify", "--q", "64", "--outer", "phi^1")
        assert code == 0  # fails the condition but agrees with the table
        assert payload["pass"] is False and payload["agree"] is True

    def test_sweep(self, capsys):
        code, payload, _ = run_json(capsys, "sweep", "--qmin", "7", "--qmax", "11")
        assert code == 0
        assert payload["summary"] == {
            "groups": 7,
            "passing": 7,
            "disagreements": 0,
            "converse_anomalies": 0,
            "degree_mismatches": 0,
        }

    def test_sweep_jobs_is_ignored(self, capsys, monkeypatch):
        argv = ("sweep", "--qmin", "7", "--qmax", "128", "--format", "json")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        code, jobs_out, jobs_err = run(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert jobs_out == out
        assert "--jobs is ignored" in jobs_err

        def no_process(self):
            raise AssertionError("sweep started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        assert run(capsys, *argv, "--jobs", "64")[0] == 0

    @pytest.mark.parametrize("jobs", ["-5", "0"])
    def test_sweep_jobs_below_1_exits_2(self, capsys, jobs):
        code, out, err = run(capsys, "sweep", "--qmin", "7", "--qmax", "11", "--jobs", jobs)
        assert (code, out, err) == (2, "", f"error: argument --jobs: must be at least 1, got {jobs}\n")

    def test_facts_single(self, capsys):
        code, out, _ = run(capsys, "facts", "--fact", "F3", "--limit", "20")
        assert code == 0
        assert out.startswith("F3 PASS")

    @pytest.mark.parametrize(
        "fact_id, limit, code, stdout",
        [
            ("F1", 2, 2, ""),
            ("F1", 3, 0, "F1 PASS  (odd f in [3, 3])  {claim}\n"),
            ("F2", 1, 2, ""),
            ("F2", 2, 0, "F2 PASS  (f = 2 (mod 4), f in [2, 2])  {claim}\n"),
            ("F3", 0, 2, ""),
            ("F3", 1, 0, "F3 PASS  (f in [1, 1])  {claim}\n"),
            ("F4", 1, 2, ""),
            ("F4", 2, 0, "F4 PASS  (f in [2, 2])  {claim}\n"),
            ("F5", 5, 2, ""),
            ("F5", 6, 0, "F5 PASS  (q in [6, 6])  {claim}\n"),
            ("F5", 7, 0, "F5 PASS  (q in [6, 7])  {claim}\n"),
            ("F6", 6, 2, ""),
            ("F6", 7, 0, "F6 PASS  (odd prime powers q in [7, 7])  {claim}\n"),
            ("F7", 3, 2, ""),
            ("F7", 4, 0, "F7 PASS  (f in [4, 4])  {claim}\n"),
            ("F8", 12, 2, ""),
            ("F8", 13, 0, "F8 PASS  (odd prime powers q in [13, 13])  {claim}\n"),
            ("F9", 1, 2, ""),
            ("F9", 2, 0, "F9 PASS  (n in [2, 2], n != 6)  {claim}\n"),
        ],
    )
    def test_facts_at_the_smallest_limits(self, capsys, fact_id, limit, code, stdout):
        # A limit one below a fact's start leaves nothing to check; at the
        # start the range holds one value.  F5 accepts 6 and 7, though its
        # first power of two is 8.
        result = run(capsys, "facts", "--fact", fact_id, "--limit", str(limit))
        assert result[:2] == (code, stdout.format(claim=FACTS[fact_id].claim))
        assert (limit < FACTS[fact_id].start) == (code == 2)

    def test_f5_at_2_62_ends(self):
        # F5 tests only the 60 powers of two in [6, 2**62], not every q.  A
        # child interpreter with a timeout keeps a regression from hanging
        # the suite.
        env = {**os.environ, "PYTHONPATH": str(Path(psl2cd.__file__).parent.parent)}
        limit = str(2**62)
        result = subprocess.run(
            [sys.executable, "-m", "psl2cd", "facts", "--fact", "F5", "--limit", limit],
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 0
        assert result.stdout == f"F5 PASS  (q in [6, {limit}])  {FACTS['F5'].claim}\n"

    def test_facts_counterexamples_exit_1(self, capsys, monkeypatch):
        # Every registered fact holds, so register a copy of F3 that
        # finds 9.
        monkeypatch.setitem(FACTS, "F3", FACTS["F3"]._replace(counterexamples=lambda limit: [9]))
        code, out, _ = run(capsys, "facts", "--fact", "F3", "--limit", "20")
        assert code == 1
        assert out.splitlines() == [
            f"F3 FAIL  ({FACTS['F3'].range_text.format(20)})  {FACTS['F3'].claim}",
            "  counterexamples: 9",
        ]


class TestErrorPaths:
    def test_bad_expression_exits_2_with_position(self, capsys):
        code, _, err = run(capsys, "cd", "--q", "9", "--outer", "phi^9")
        assert code == 2
        assert "position" in err

    def test_unknown_token_position(self, capsys):
        code, _, err = run(capsys, "cd", "--q", "9", "--outer", "phi^1, banana")
        assert code == 2
        assert "position 7" in err

    def test_not_a_prime_power(self, capsys):
        code, _, err = run(capsys, "cd", "--q", "12")
        assert code == 2
        assert "prime power" in err

    def test_classify_requires_proper_extension(self, capsys):
        code, out, err = run(capsys, "classify", "--q", "9", "--outer", "phi^2")
        assert code == 2
        assert out == ""
        assert err == "error: outer subgroup must be nontrivial: S < H is required\n"

    def test_bad_flags(self, capsys):
        assert run(capsys, "factor")[0] == 2
        assert run(capsys, "unknowncmd")[0] == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("sweep --qmin 7 --qmax 11 --jobs x", "argument --jobs: invalid int value: 'x'"),
            ("sweep --qmin x --qmax 11", "argument --qmin: invalid int value: 'x'"),
            ("sweep --qmin 7", "the following arguments are required: --qmax"),
            ("", "the following arguments are required: command"),
            ("unknowncmd", "argument command: invalid choice: 'unknowncmd' (choose from 'factor', 'omega', "
             "'cd', 'check', 'maximals', 'classify', 'sweep', 'facts')"),
            ("factor --n 3 extra", "unrecognized arguments: extra"),
            ("factor --n 3 'a\nb'", "unrecognized arguments: a\\nb"),
            ("sweep --qmin 24 --qmax 24 --jobs 2", "no prime power in [24, 24]: nothing to check"),
            ("cd --q 1", "1 has no prime-power decomposition"),
            ("cd --q 2", "q = 2 < 4 admits no almost simple group here"),
            ("cd --q 3", "q = 3 < 4 admits no almost simple group here"),
            ("cd --q 12", "12 is not a prime power"),
            ("cd --q 9223372036854775808", "9223372036854775808 is out of range: inputs must be below 2**63"),
            ("classify --q 5 --outer delta", "the classification covers q >= 7, got 5"),
            ("cd --q 8 --outer delta", "delta requires odd characteristic (at position 0)"),
            ("cd --q 9 --outer phi^3", "exponent 3 out of range 1..2 (at position 0)"),
            ("maximals --q 4", "maximal subgroup catalog starts at q = 7, got 4"),
        ],
        ids=[
            "jobs-x", "qmin-x", "no-qmax", "no-command", "unknown-command",
            "extra-argument", "extra-argument-with-newline", "jobs-note-after-failure",
            "q-1", "q-2", "q-3", "q-12", "q-2^63", "classify-q-5", "delta-at-p-2", "phi-past-f", "maximals-q-4",
        ],
    )
    def test_usage_errors_print_one_line(self, capsys, argv, message):
        # argparse's own errors go through main's handler, without usage
        # lines, and the --jobs note is printed only after a sweep succeeds.
        # A q or --outer list is checked where it enters (from_value,
        # parse_outer, brute_force_verdict, the maximals catalog), since
        # the group types check nothing.
        assert run(capsys, *shlex.split(argv)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["sweep", "-h"]])
    def test_help_goes_to_stdout(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: psl2cd")

    def test_limit_requires_fact(self, capsys):
        code, _, err = run(capsys, "facts", "--limit", "10")
        assert code == 2

    def test_check_nonpositive_degree(self, capsys):
        code, _, err = run(capsys, "check", "--degrees", "0")
        assert code == 2
        assert "positive" in err

    def test_check_gcd_past_cap_names_the_pair(self, capsys):
        # 3 * 2**64 and 5 * 2**64 have gcd 2**64, a number the user never typed.
        a, b = 3 << 64, 5 << 64
        code, out, err = run(capsys, "check", "--degrees", f"{a},{b}")
        assert code == 2
        assert out == ""
        assert err == f"error: gcd({a}, {b}) = {1 << 64} is out of range: must be below 2**63\n"

    @pytest.mark.parametrize(
        "degrees, message",
        [
            ("a,b", "error: bad degree list 'a,b'"),
            (",", "error: bad degree list ','"),
            ("1,,2", "error: bad degree list '1,,2'"),
            ("1,2,", "error: bad degree list '1,2,'"),
        ],
    )
    def test_check_unparsable_degrees(self, capsys, degrees, message):
        code, out, err = run(capsys, "check", "--degrees", degrees)
        assert code == 2
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    def test_sweep_bad_range(self, capsys):
        assert run(capsys, "sweep", "--qmin", "4", "--qmax", "11")[0] == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("q_min, q_max", [(24, 24), (33, 36)])
    def test_sweep_without_prime_powers(self, capsys, fmt, q_min, q_max):
        # A range with nothing to check exits 2 rather than passing.
        code, out, err = run(
            capsys, "sweep", "--qmin", str(q_min), "--qmax", str(q_max), "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err == f"error: no prime power in [{q_min}, {q_max}]: nothing to check\n"

    @pytest.mark.parametrize("fact_id", sorted(FACTS))
    def test_facts_empty_range(self, capsys, fact_id):
        code, out, err = run(capsys, "facts", "--fact", fact_id, "--limit", "-3")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {fact_id}: limit -3 leaves nothing to check")

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--qmin", "7", "--qmax", str(2**63)),
            *(("facts", "--fact", fact_id, "--limit", str(2**63)) for fact_id in sorted(FACTS)),
        ],
    )
    def test_range_past_2_63(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "2**63" in err

    @pytest.mark.parametrize(
        "fact_id, value, operand, variable",
        [("F4", 64, 2**64 - 1, "f"), ("F7", 63, 2**63 + 1, "f"), ("F9", 64, 2**64 - 1, "n")],
    )
    def test_fact_overflow_names_the_fact_and_value(self, capsys, fact_id, value, operand, variable):
        # The error names the value in the range, not the operand past 2**63.
        code, out, err = run(capsys, "facts", "--fact", fact_id, "--limit", str(value))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {fact_id}: {variable} = {value} is out of range: "
            "the numbers it factors must be below 2**63\n"
        )
        assert str(operand) not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--qmin", "7", "--qmax", str(2**63 - 1)),
            ("facts", "--fact", "F6", "--limit", str(2**63 - 1)),
            ("facts", "--fact", "F8", "--limit", str(2**63 - 1)),
        ],
    )
    def test_sieve_too_large_is_out_of_memory(self, capsys, argv):
        # the sieve refuses before allocating, so this allocates nothing large
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "index-sized" not in err
        assert err.startswith("error: out of memory")

    @pytest.mark.parametrize(
        "argv",
        [
            ("sweep", "--qmin", "7", "--qmax", str(2**58)),
            ("facts", "--fact", "F6", "--limit", str(2**58)),
        ],
    )
    def test_failed_sieve_allocation_prints_one_line(self, capfd, argv):
        # A sieve of 2**58 bytes fits no address space, so the allocation
        # fails at once.  The CLI runs in a child interpreter, without -X dev
        # and without pytest's unraisable-exception hook, so anything CPython
        # itself prints reaches the inherited stderr descriptor capfd reads.
        # A stray line there may depend on uninitialised memory, so one run
        # can miss it; three rarely do.
        env = {**os.environ, "PYTHONPATH": str(Path(psl2cd.__file__).parent.parent)}
        for name in ("PYTHONDEVMODE", "PYTEST_CURRENT_TEST"):
            env.pop(name, None)
        for _ in range(3):
            code = subprocess.run([sys.executable, "-m", "psl2cd", *argv], env=env).returncode
            out, err = capfd.readouterr()
            assert code == 2
            assert out == ""
            assert err == "error: out of memory; try a smaller range\n"

    @pytest.mark.parametrize(
        "argv, read",
        [
            # About 2 MB, far more than a pipe holds, so the child is still
            # writing when the pipe closes.
            (("sweep", "--qmin", "7", "--qmax", "65536", "--format", "json"), 20),
            # Outputs that fit in a pipe: closed before the child, which
            # writes only after its import and its work, writes a byte.
            (("sweep", "--qmin", "7", "--qmax", "65536"), 0),
            (("facts", "--format", "json"), 0),
        ],
    )
    def test_closed_stdout_exits_2_with_one_line(self, argv, read):
        env = {**os.environ, "PYTHONPATH": str(Path(psl2cd.__file__).parent.parent)}
        child = subprocess.Popen(
            [sys.executable, "-m", "psl2cd", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        try:
            assert len(child.stdout.read(read)) == read
            child.stdout.close()
            err = child.stderr.read().decode()
            assert child.wait(timeout=60) == 2
        finally:
            child.kill()
            child.stderr.close()
        assert err == "error: stdout was closed before the output was written\n"

    def test_degree_overflow_exits_2(self, capsys, monkeypatch):
        # (2^59 + 1) * 59 exceeds the 63-bit degree bound; no sieve reaches
        # 2^59, so hand the sweep one empty run ended by that prime power.
        # Neither format writes a partial report.
        monkeypatch.setattr(
            "psl2cd.classifier.prime_runs_in_range",
            lambda lo, hi: [((range(3, 3, 2), b""), None, 1), ((range(2**59, 2**59 + 1), b"\x01"), 2, 59)],
        )
        message = f"degree {(2**59 + 1) * 59} is out of range for q = {2**59}"
        for fmt in ("text", "json"):
            code, out, err = run(
                capsys, "sweep", "--qmin", str(2**59), "--qmax", str(2**59), "--format", fmt
            )
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"

    def test_maximals_index_past_2_63_names_the_subgroup(self, capsys):
        # |PSL(2,q)| / 60 for q = 4294967291 exceeds 2**63; the message names
        # the group and the subgroup, not the index.
        code, out, err = run(capsys, "maximals", "--q", "4294967291")
        assert code == 2
        assert out == ""
        assert err == "error: the index of A5 in PSL(2,4294967291) is out of range: must be below 2**63\n"

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        # The sweep's one large allocation is the prime sieve.
        def out_of_memory(limit):
            raise MemoryError

        monkeypatch.setattr("psl2cd.arithmetic.prime_sieve", out_of_memory)
        code, out, err = run(capsys, "sweep", "--qmin", "7", "--qmax", "11")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")

    def test_json_sweep_writes_nothing_when_its_second_sieve_fails(self, capsys, monkeypatch):
        # The JSON report sieves once for its tally and once for its
        # verdicts, and asks for the second sieve before it writes the head.
        real, calls = arithmetic.prime_sieve, []

        def second_sieve_fails(limit):
            calls.append(limit)
            if len(calls) == 2:
                raise MemoryError
            return real(limit)

        monkeypatch.setattr("psl2cd.arithmetic.prime_sieve", second_sieve_fails)
        code, out, err = run(capsys, "sweep", "--qmin", "7", "--qmax", "100", "--format", "json")
        assert (code, out, calls) == (2, "", [100, 100])
        assert err == "error: out of memory; try a smaller range\n"


def _swap_row(monkeypatch, row_id, **fields):
    """Give one row of the table other fields for the rest of the test."""
    rows = classifier._ROWS
    monkeypatch.setattr(classifier, "_ROWS", tuple(r._replace(**fields) if r.row_id == row_id else r for r in rows))


_FACTOR_5000 = sieve_factorizer(5000)


class TestSweepReportWriter:
    """The streamed `sweep --format json` report against verdicts built one
    group at a time, with no sweep: ``brute_force_verdict`` of every proper
    extension of every prime power in the range, found by a sieve of the
    test oracles."""

    @staticmethod
    def check(q_min, q_max):
        factor = sieve_factorizer(q_max)
        powers = [PrimePower(*fs[0], q) for q in range(q_min, q_max + 1) if len(fs := factor(q)) == 1]
        verdicts = [
            brute_force_verdict(GroupDescriptor(pp, outer))
            for pp in powers
            for outer in enumerate_outer_subgroups(pp, include_trivial=False)
        ]
        broken = any(not v.agree or v.degree_mismatches for v in verdicts)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(["sweep", "--qmin", str(q_min), "--qmax", str(q_max), "--format", "json"])
        out = stdout.getvalue()
        assert code == (1 if broken else 0)
        payload = json.loads(out)
        assert to_json(payload) + "\n" == out
        assert payload["verdicts"] == [verdict_to_dict(v) for v in verdicts]
        assert payload["summary"] == {
            "groups": len(verdicts),
            "passing": sum(v.brute_pass for v in verdicts),
            "disagreements": sum(not v.agree for v in verdicts),
            "converse_anomalies": sum(bool(v.matched_rows) and not v.brute_pass for v in verdicts),
            "degree_mismatches": sum(bool(v.degree_mismatches) for v in verdicts),
        }
        assert payload["degree_mismatches"] == [
            {"q": v.descriptor.q.q, "group": group_name(v.descriptor), "rows": list(v.degree_mismatches)}
            for v in verdicts
            if v.degree_mismatches
        ]
        assert payload["overflowed"] == []
        assert (payload["q_min"], payload["q_max"]) == (q_min, q_max)
        return payload

    def test_failing_groups_with_violations(self):
        payload = self.check(7, 4096)
        q64 = [v for v in payload["verdicts"] if v["group"]["name"] == "PSL(2,64).<phi^1>"]
        assert q64 and q64[0]["violations"] and q64[0]["rows"] == []
        assert payload["summary"]["passing"] < payload["summary"]["groups"]

    def test_thousands_of_parts_are_joined(self):
        # Thousands of parts, each written as its own text, so the joins
        # between parts are written; no run of primes below 2^16 holds a
        # whole slice.
        payload = self.check(7, 65536)
        assert len(payload["verdicts"]) > cli._VERDICT_BATCH

    def test_a_run_fills_two_slices(self):
        # The run of primes between 293^2 and 307^2 holds 735 of them, so
        # at 512 a slice it is written as two texts, joined between them.
        assert cli._VERDICT_BATCH == 512
        texts = list(cli._rendered(classifier.sweep_parts(85849, 94249)))
        assert [text.count('"q": ') for text in texts] == [1] * 4 + [512, 223] + [1] * 4
        payload = self.check(85849, 94249)
        assert (payload["summary"]["groups"], payload["summary"]["passing"]) == (743, 737)

    def test_a_split_run_renders_as_the_whole_run(self):
        # Two parts that split a run share its verdict, so their q render
        # the same text as the run's: a windowed sieve may cut a run at a
        # window's edge.  Each run is cut at its middle, and a half that
        # holds no prime is left out, as the sweep leaves out such a run.
        def split(parts):
            for (odds, flags), p, *rest in parts:
                k = len(odds) // 2
                halves = [(odds, flags)] if p else [(odds[:k], flags[:k]), (odds[k:], flags[k:])]
                yield from ((qs, p, *rest) for qs in halves if 1 in qs[1])

        whole = ",\n    ".join(cli._rendered(classifier.sweep_parts(7, 3000)))
        cut = list(split(classifier.sweep_parts(7, 3000)))
        assert len(cut) > len(list(classifier.sweep_parts(7, 3000)))
        assert ",\n    ".join(cli._rendered(iter(cut))) == whole

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_runs_fill_in_slices(self, monkeypatch, batch):
        # No run of primes below 2^16 holds 512 of them, so fill a few
        # primes at a time to put most runs in several slices, and each
        # slice's degree columns down to one or two q.
        monkeypatch.setattr(cli, "_VERDICT_BATCH", batch)
        self.check(7, 3000)

    def test_error_free_range(self):
        payload = self.check(7, 11)
        assert all(v["pass"] and v["violations"] == [] for v in payload["verdicts"])

    def test_one_q_with_many_violations(self):
        payload = self.check(3**12, 3**12)
        assert payload["summary"]["groups"] == 15
        assert sum(len(v["violations"]) for v in payload["verdicts"]) == 106

    @seed(30)
    @settings(max_examples=30, deadline=None)
    @given(st.integers(7, 5000), st.one_of(st.integers(0, 40), st.integers(0, 5000)))
    @example(7, 0)
    @example(1000, 20)
    @example(1014, 16)
    def test_ranges_across_runs_of_primes(self, q_min, width):
        # Ranges that start, end or lie inside a run of primes, or span
        # many: every verdict, run or not, is the group's own, and the
        # text report's summary is the JSON one.
        q_max = min(q_min + width, 5000)
        assume(any(len(_FACTOR_5000(q)) == 1 for q in range(q_min, q_max + 1)))
        summary = self.check(q_min, q_max)["summary"]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            main(["sweep", "--qmin", str(q_min), "--qmax", str(q_max)])
        assert stdout.getvalue().splitlines()[:2] == [
            f"sweep q in [{q_min}, {q_max}]: {summary['groups']} groups",
            "passing: {passing}   disagreements: {disagreements}   "
            "converse anomalies: {converse_anomalies}   degree mismatches: {degree_mismatches}".format(**summary),
        ]

    def test_failed_claims_counted_and_exit_1(self, capsys, monkeypatch, fresh_plans):
        # No real row breaks a claim, so swap three rows: pgl_phi_half no
        # longer holds at q = 25 (a disagreement), sym6 predicts 9, 16
        # without 5 and 10 (a degree mismatch), and s_phi_half_odd holds for
        # every q, so the failing PSL(2,49).<phi^1> matches it (a converse
        # anomaly).
        _swap_row(monkeypatch, "pgl_phi_half", conditions=lambda q, om: q < 25)
        _swap_row(monkeypatch, "sym6", expected_degrees=lambda d, f, p: (0, {(1, 0), (1, 1)}))
        _swap_row(monkeypatch, "s_phi_half_odd", conditions=None)
        payload = self.check(7, 49)
        assert {k: payload["summary"][k] for k in ("disagreements", "converse_anomalies", "degree_mismatches")} == {
            "disagreements": 1,
            "converse_anomalies": 1,
            "degree_mismatches": 1,
        }
        assert payload["degree_mismatches"] == [{"q": 9, "group": "PSL(2,9).<phi^1>", "rows": ["sym6"]}]
        code, out, _ = run(capsys, "sweep", "--qmin", "7", "--qmax", "49")
        assert code == 1
        assert out.splitlines()[2:] == [
            "  DISAGREEMENT: PGL(2,25).<phi^1> passes but matches no row",
            "  DEGREE MISMATCH: PSL(2,9).<phi^1> rows sym6",
        ]

    def test_verdicts_are_built_only_for_kept_groups(self, monkeypatch, fresh_plans):
        # The sweep loop hands plain values to the JSON writer and builds a
        # GroupVerdict only for a disagreement or a degree mismatch: none
        # with the real table, and one for PSL(2,9).<phi^1> when the sym6
        # prediction is wrong.
        built = []
        real = classifier.GroupVerdict
        monkeypatch.setattr(classifier, "GroupVerdict", lambda *fields: built.append(fields[0]) or real(*fields))
        argv = ["sweep", "--qmin", "7", "--qmax", str(2**16), "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert built == []
        _swap_row(monkeypatch, "sym6", expected_degrees=lambda d, f, p: (0, {(1, 0), (1, 1)}))
        classifier._q_plans.cache_clear()  # plans of the real table
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 1
        assert [group_name(g) for g in built] == ["PSL(2,9).<phi^1>"]


@st.composite
def _prime_power(draw) -> tuple[int, int]:
    """(p, f) with 7 <= p**f < 2**63 and f <= 40."""
    f = draw(st.integers(1, 40))
    root = round((MAX_VALUE - 1) ** (1 / f))  # the largest p with p**f < 2**63
    while root**f >= MAX_VALUE:
        root -= 1
    while (root + 1) ** f < MAX_VALUE:
        root += 1
    p = draw(st.integers(2, root))
    while not is_prime(p):
        p -= 1
    assume(p**f >= 7)
    return p, f


def _variants(v):
    """v, then copies of v edited so that each part of a template's key
    differs from v's in at least one copy: another kind or d, another f,
    another number of degrees, no matched rows, several violations."""
    pp = v.descriptor.q
    yield v
    for outer in enumerate_outer_subgroups(pp, include_trivial=False):
        yield v._replace(descriptor=GroupDescriptor(pp, outer))
    small_p = 2 if pp.p == 2 else 3
    if small_p ** (2 * pp.f) < MAX_VALUE:
        doubled = PrimePower.from_value(small_p ** (2 * pp.f))
        if v.descriptor.outer in enumerate_outer_subgroups(doubled, include_trivial=False):
            yield v._replace(descriptor=GroupDescriptor(doubled, v.descriptor.outer))
    yield v._replace(degrees=v.degrees[:-1])
    yield v._replace(matched_rows=())  # a disagreement when v passes
    yield v._replace(degree_mismatches=("sym6",))
    yield v._replace(violations=tuple(Violation(a, a * 2, a, 3 + i) for i, a in enumerate((8, 12, 30))))


def _assert_parts_are_canonical(verdicts):
    """Render the verdicts' values, each as a part of one q of the sweep
    stream, with the report's ``_rendered``, and check that each text is
    the canonical JSON of its verdict, four spaces deep.  Return the size
    of the template cache as each part reaches the renderer.  Each part's
    terms are ``groups.degree_terms``' (0, 1, 1) for the degree 1, then
    (1, d - q, 1) for each degree d above it, so that the degree columns
    give back a variant's edited degrees."""
    sizes = []

    def parts():
        for v in verdicts:
            sizes.append(cli._verdict_template.cache_info().currsize)
            p, f, q = v.descriptor.q
            terms = ((0, 1, 1), *((1, d - q, 1) for d in v.degrees[1:]))
            yield (range(q, q + 1), b"\x01"), p, f, v.descriptor.outer, terms, *v[2:]

    assert list(cli._rendered(parts())) == [to_json(verdict_to_dict(v)).replace("\n", "\n    ") for v in verdicts]
    return sizes


class TestVerdictTemplates:
    @given(_prime_power())
    @example((3, 2))
    @settings(deadline=None, max_examples=60)
    def test_rendered_part_is_the_canonical_json(self, p_f):
        # Rendering goes through the module's template cache, which keeps
        # the shapes of earlier examples, so a key that leaves out a part
        # of the shape renders some verdict from another verdict's template.
        pp = PrimePower(*p_f, p_f[0] ** p_f[1])
        verdicts = []
        for outer in enumerate_outer_subgroups(pp, include_trivial=False):
            try:
                verdict = brute_force_verdict(GroupDescriptor(pp, outer))
            except OverflowError:  # a degree reaches 2**63
                continue
            verdicts.extend(_variants(verdict))
        _assert_parts_are_canonical(verdicts)

    def test_cache_evicting_inside_one_stream_is_bounded(self, monkeypatch):
        # sweep(7, 64) has more than 3 shapes, so a cache of 3 evicts
        # templates within the one stream of parts it renders, each
        # verdict a part of one q, all of them fewer than one slice holds.
        small = functools.lru_cache(maxsize=3)(cli._verdict_template.__wrapped__)
        monkeypatch.setattr(cli, "_verdict_template", small)
        verdicts = sweep(7, 64)
        assert len(verdicts) < cli._VERDICT_BATCH
        sizes = _assert_parts_are_canonical(verdicts) + [small.cache_info().currsize]
        assert max(sizes) <= 3
        assert small.cache_info().misses > 3

    def test_report_memory_stays_below_its_size(self):
        # The JSON sweep writes each part's text as the part comes, a
        # slice of its q at a time, and holds no text past its slice, so
        # its peak is below the size of the report.  The first run fills
        # the bounded caches (factor, lattice, templates), so the traced
        # run measures only the sweep's own allocations.
        class Sink:
            written = 0

            def write(self, text):
                self.written += len(text)

        argv = ["sweep", "--qmin", "7", "--qmax", "65536", "--format", "json"]
        with contextlib.redirect_stdout(Sink()):
            assert main(argv) == 0
        sink = Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sink.written, (peak, sink.written)

    def test_runs_of_primes_are_held_as_bounds(self):
        # A part names its q by a range and its slice of the sieve, not a
        # list, and is rendered a slice of its q at a time as it comes, so
        # the traced peak of the 7..2^16 JSON sweep stays within 10 bytes
        # per byte of its sieve.  Holding every verdict's slot numbers as
        # text took about 950,000 bytes.  The first run fills the caches.
        argv = ["sweep", "--qmin", "7", "--qmax", str(2**16), "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(types.SimpleNamespace(write=len)):
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * len(prime_sieve(2**16)), peak


class TestOutputContracts:
    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--n", "2047"),
            ("cd", "--q", "9", "--outer", "delta"),
            ("check", "--degrees", "1,10,20,40"),
            ("maximals", "--q", "13"),
            ("classify", "--q", "27", "--outer", "phi^1"),
            ("sweep", "--qmin", "7", "--qmax", "32"),
            ("facts", "--fact", "F9"),
        ],
    )
    def test_json_round_trip_is_byte_identical(self, capsys, argv):
        main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        assert to_json(json.loads(out)) + "\n" == out

    def test_text_and_json_verdicts_match(self, capsys):
        code_t, out_t, _ = run(capsys, "check", "--degrees", "1,10,20,40")
        code_j, payload, _ = run_json(capsys, "check", "--degrees", "1,10,20,40")
        assert code_t == code_j == 1
        assert ("FAIL" in out_t) == (payload["pass"] is False)
        text_pairs = [
            line.strip().split(":")[0] for line in out_t.splitlines() if "gcd" in line
        ]
        assert len(text_pairs) == len(payload["violations"])

    def test_classify_verdict_parity(self, capsys):
        code_t, out_t, _ = run(capsys, "classify", "--q", "9", "--outer", "phi^1")
        code_j, payload, _ = run_json(capsys, "classify", "--q", "9", "--outer", "phi^1")
        assert code_t == code_j == 0
        assert ("PASS" in out_t) == payload["pass"]
        assert ("sym6" in out_t) == ("sym6" in payload["rows"])


# A bounded argv grammar: every command and flag, well-formed and malformed
# values, sweep ends below 3,000 and facts limits of at most 70, so that each
# call finishes in well under a second.
_NUMBER = st.one_of(
    st.integers(-10, 5000).map(str),
    st.integers(-(1 << 64), 1 << 64).map(str),
    st.sampled_from(("", "abc", "1e3", "0x10", "7.0", "-", "1_000", " 9 ")),
)
_Q = st.one_of(
    _NUMBER,
    st.sampled_from(
        tuple(map(str, (4, 7, 8, 9, 11, 25, 27, 64, 81, 256, 2**61 - 1, 2**62, 3**39)))
    ),
)
_OUTER = st.one_of(
    st.sampled_from(
        ("", "delta", "phi^1", "phi^2", "delta*phi^1", "delta,phi^2", "phi^0", "phi^", ",", "phi^1,,delta")
    ),
    st.text(alphabet="deltaphi^*,0123 ", max_size=16),
)
_DEGREES = st.one_of(
    st.lists(st.integers(-3, 10**6).map(str), max_size=6).map(",".join),
    st.sampled_from(("a,b", ",", "1,,2", "1;2")),
)
_SWEEP_END = st.one_of(st.integers(-5, 2999).map(str), st.sampled_from(("", "x", "3e3")))
_ARGS = {  # command: (flag, values, required); values None is a switch
    "factor": (("--n", _NUMBER, True),),
    "omega": (("--n", _NUMBER, True),),
    "cd": (("--q", _Q, True), ("--outer", _OUTER, False)),
    "check": (("--degrees", _DEGREES, True),),
    "maximals": (("--q", _Q, True), ("--pgl", None, False)),
    "classify": (("--q", _Q, True), ("--outer", _OUTER, True)),
    "sweep": (
        ("--qmin", _SWEEP_END, True),
        ("--qmax", _SWEEP_END, True),
        ("--jobs", st.integers(-2, 4).map(str), False),
    ),
    # facts without --limit runs its default ranges, which take seconds
    "facts": (
        ("--fact", st.sampled_from((*sorted(FACTS), "F0")), False),
        ("--limit", st.one_of(st.integers(-5, 70).map(str), st.just("x")), True),
    ),
}


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_ARGS)))
    argv = [command]
    for flag, values, required in _ARGS[command]:
        if required or draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    fmt = draw(st.sampled_from((None, "text", "json", "yaml")))
    return argv if fmt is None else [*argv, "--format", fmt]


class TestArgvProperty:
    @settings(deadline=None, max_examples=200)
    @given(_argv())
    def test_every_argv_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
