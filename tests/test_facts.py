import pytest

from psl2cd import arithmetic, facts
from psl2cd.arithmetic import is_fermat_prime, is_mersenne_prime, omega
from psl2cd.facts import FACTS, fact_report_to_dict, verify_all, verify_fact


class TestRegistry:
    def test_nine_facts(self):
        assert sorted(FACTS) == [f"F{i}" for i in range(1, 10)]

    def test_unknown_fact(self):
        with pytest.raises(ValueError):
            verify_fact("F10")


class TestIndividualFacts:
    def test_f1_small(self):
        report = verify_fact("F1", 9)
        assert report.holds
        # witness at f = 3: 124 = 2^2 * 31 has three prime divisors
        assert omega(5**3 - 1) == 3 and (5**3 - 1) % 4 == 0

    def test_f2_f3(self):
        assert verify_fact("F2", 20).holds
        assert verify_fact("F3", 20).holds
        assert (3**2 - 1) % 8 == 0
        assert (2**3 - 1) % 3 != 0 and (2**2 - 1) % 3 == 0

    def test_f4_witnesses(self):
        report = verify_fact("F4", 40)
        assert report.holds
        # the two shapes really occur: f = 9 = 3^2 and f = 11 prime
        assert omega(2**9 - 1) == 2
        assert omega(2**11 - 1) == 2

    def test_f4_converse_is_false(self):
        # only the stated direction holds: f = 29 is prime but
        # 2^29 - 1 = 233 * 1103 * 2089 has three prime divisors
        assert omega(2**29 - 1) == 3
        fact = FACTS["F4"]
        assert fact.test(40)(29)  # vacuously true in the stated direction

    def test_f5_counterexample_below_window(self):
        # q = 4 shows why the range starts above 5: 3 and 5 are adjacent
        fact = FACTS["F5"]
        assert not fact.test(10**4)(4)
        assert verify_fact("F5", 10**4).holds

    def test_f5_test_agrees_with_the_window(self):
        # The test is built from the powers of two alone; every other q
        # must still read as the written-out window.
        limit = 10**5
        test = FACTS["F5"].test(limit)
        assert test(4) is False
        for q in range(1, limit + 1):
            assert test(q) == (not (is_mersenne_prime(q - 1) and is_fermat_prime(q + 1))), q

    def test_f6_f8_small(self):
        assert verify_fact("F6", 10**4).holds
        assert verify_fact("F8", 10**4).holds
        assert omega(13 - 1) == 3

    @pytest.mark.parametrize(
        "fact_id, reference",
        [
            ("F6", lambda q: omega(q - (1 if q % 4 == 1 else -1)) >= 3),
            ("F8", lambda q: omega(q - 1) >= 3 or omega(q + 1) >= 3),
        ],
    )
    def test_f6_f8_tests_agree_with_omega(self, fact_id, reference):
        # Every integer, prime power or not, read from the one Omega table.
        limit = 10**4
        test = FACTS[fact_id].test(limit)
        assert test(5) is False  # Omega(4) = Omega(6) = 2
        for q in range(5, limit + 1):
            assert test(q) == reference(q), q

    def test_f7(self):
        report = verify_fact("F7", 40)
        assert report.holds
        assert omega(4**4 - 1) == 3  # 255 = 3 * 5 * 17

    def test_f9(self):
        report = verify_fact("F9", 40)
        assert report.holds


class TestSharedSieve:
    @pytest.fixture
    def builds(self, monkeypatch):
        counts = {"omega_table": 0, "prime_powers_in_range": 0}

        def counted(name):
            real = getattr(arithmetic, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(facts, name, counted(name))
        facts._omega_sieve.cache_clear()
        yield counts
        facts._omega_sieve.cache_clear()

    def test_f6_and_f8_ranges(self):
        assert list(FACTS["F6"].values(30)) == [7, 9, 11, 13, 17, 19, 23, 25, 27, 29]
        assert list(FACTS["F8"].values(30)) == [13, 17, 19, 23, 25, 27, 29]
        assert list(FACTS["F8"].values(12)) == []

    def test_verify_all_builds_the_sieve_once(self, builds):
        assert all(report.holds for report in verify_all())
        assert builds == {"omega_table": 1, "prime_powers_in_range": 1}

    def test_another_limit_replaces_the_range(self, builds):
        for limit in (10**4, 10**4, 2 * 10**4, 10**4):
            assert verify_fact("F6", limit).holds
            assert verify_fact("F8", limit).holds
            assert facts._omega_sieve.cache_info().currsize == 1
        assert builds == {"omega_table": 3, "prime_powers_in_range": 3}


class TestReports:
    def test_all_defaults_hold(self):
        for report in verify_all():
            assert report.holds, (report.fact_id, report.counterexamples[:5])

    def test_holds_iff_no_counterexamples(self):
        report = verify_fact("F3", 10)
        assert report.holds == (not report.counterexamples)

    def test_json_shape(self):
        payload = fact_report_to_dict(verify_fact("F9", 12))
        assert set(payload) == {"fact", "anchor", "range", "holds", "counterexamples"}
        assert payload["fact"] == "F9"
        assert payload["holds"] is True
        assert payload["counterexamples"] == []
