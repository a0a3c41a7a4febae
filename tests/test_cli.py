import json
import multiprocessing.process

import pytest

from psl2cd.cli import main, to_json


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

    def test_facts_single(self, capsys):
        code, out, _ = run(capsys, "facts", "--fact", "F3", "--limit", "20")
        assert code == 0
        assert out.startswith("F3 PASS")


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
        code, _, err = run(capsys, "classify", "--q", "9", "--outer", "phi^2")
        assert code == 2

    def test_bad_flags(self, capsys):
        assert run(capsys, "factor")[0] == 2
        assert run(capsys, "unknowncmd")[0] == 2

    def test_limit_requires_fact(self, capsys):
        code, _, err = run(capsys, "facts", "--limit", "10")
        assert code == 2

    def test_check_nonpositive_degree(self, capsys):
        code, _, err = run(capsys, "check", "--degrees", "0")
        assert code == 2
        assert "positive" in err

    def test_sweep_bad_range(self, capsys):
        assert run(capsys, "sweep", "--qmin", "4", "--qmax", "11")[0] == 2


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
