import pytest

from psl2cd import facts
from psl2cd.arithmetic import is_prime, omega
from psl2cd.cli import main
from psl2cd.facts import FACTS, fact_report_to_dict, verify_all, verify_fact

from _oracles import trial_is_prime


def _mersenne_prime(n):
    """n = 2**k - 1 for some k, and prime by trial division."""
    return n >= 3 and (n + 1) & n == 0 and trial_is_prime(n)


def _fermat_prime(n):
    """n = 2**(2**k) + 1 for some k >= 0, and prime by trial division."""
    m = n - 1
    return n >= 3 and m & (m - 1) == 0 and (e := m.bit_length() - 1) & (e - 1) == 0 and trial_is_prime(n)


class TestRegistry:
    def test_nine_facts(self):
        assert sorted(FACTS) == [f"F{i}" for i in range(1, 10)]

    def test_unknown_fact(self):
        with pytest.raises(ValueError):
            verify_fact("F10")

    def test_limits_below_start_leave_the_range_empty(self):
        for fact in FACTS.values():
            for limit in range(-3, fact.start):
                assert fact.counterexamples(limit) == [], (fact.fact_id, limit)


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

    def test_f4_failing_values_are_listed(self, monkeypatch, capsys):
        monkeypatch.setattr(facts, "_prime_or_prime_square", lambda f: False)
        assert main(["facts", "--fact", "F4", "--limit", "20"]) == 1
        assert "counterexamples: 2, 3, 4, 5, 7, 9, 11, 13, 17, 19\n" in capsys.readouterr().out

    def test_f4_converse_is_false(self):
        # only the stated direction holds: f = 29 is prime but
        # 2^29 - 1 = 233 * 1103 * 2089 has three prime divisors
        assert omega(2**29 - 1) == 3
        # vacuously true in the stated direction
        assert 29 not in FACTS["F4"].counterexamples(40)

    def test_f5_counterexample_below_window(self):
        # q = 4 shows why the range starts above 5: 3 and 5 are adjacent
        assert not facts._mersenne_fermat_window(4)
        assert verify_fact("F5", 10**4).holds

    def test_f5_test_agrees_with_the_window(self, monkeypatch):
        # F5 tests the powers of two alone, for prime q - 1 and q + 1; a scan
        # of every q in [6, limit] against the written-out forms must find
        # the same values.
        def full_scan(limit, fermat=_fermat_prime):
            return [q for q in range(6, limit + 1) if _mersenne_prime(q - 1) and fermat(q + 1)]

        assert facts._mersenne_fermat_window(4) is False
        assert FACTS["F5"].counterexamples(10**5) == full_scan(10**5) == []
        # With every 2**k + 1 read as prime, and so every q + 1 of the scan
        # as a Fermat prime, q fails exactly when q - 1 is a Mersenne prime,
        # so there are values to find.
        monkeypatch.setattr(facts, "is_prime", lambda n: is_prime(n) or (n - 1) & (n - 2) == 0)
        assert FACTS["F5"].counterexamples(10**5) == full_scan(10**5, lambda n: True) == [8, 32, 128, 8192]
        for limit in (7, 8, 8191, 8192):
            assert FACTS["F5"].counterexamples(limit) == full_scan(limit, lambda n: True), limit

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
    def test_f6_f8_tests_agree_with_omega(self, monkeypatch, fact_id, reference):
        # Every q from 4, prime power or not, read from the fact's Omega
        # table; the fact keeps the odd ones.  5 lies below both ranges and
        # fails both claims, and some even q fail them too.
        calls = []

        def every_integer(table, lo, hi):
            calls.append((lo, hi))
            return range(4, hi + 1)

        monkeypatch.setattr(facts, "prime_powers", every_integer)
        limit = 10**4
        found = FACTS[fact_id].counterexamples(limit)
        assert calls == [(FACTS[fact_id].start, limit)]
        assert found[0] == 5  # Omega(4) = Omega(6) = 2
        assert found == [q for q in range(5, limit + 1, 2) if not reference(q)]
        assert any(not reference(q) for q in range(4, limit + 1, 2))

    def test_f7(self):
        report = verify_fact("F7", 40)
        assert report.holds
        assert omega(4**4 - 1) == 3  # 255 = 3 * 5 * 17

    def test_f9(self):
        report = verify_fact("F9", 40)
        assert report.holds


class TestMersenneFermat:
    # F5 reads "q - 1 is a Mersenne prime and q + 1 a Fermat prime" as "q - 1
    # and q + 1 are prime" at q = 2**k; these check that reading.
    def test_examples(self):
        assert _mersenne_prime(7) and is_prime(7)
        assert _fermat_prime(17) and is_prime(17)
        assert not _mersenne_prime(15) and not _fermat_prime(15) and not is_prime(15)

    def test_known_lists(self):
        # 2**k + 1 prime forces k to be a power of two, so below 2**20 the
        # primes of the form 2**k + 1 are exactly the Fermat primes.
        mersennes = [(1 << k) - 1 for k in range(1, 20) if is_prime((1 << k) - 1)]
        assert mersennes == [3, 7, 31, 127, 8191, 131071, 524287]
        fermats = [(1 << k) + 1 for k in range(1, 20) if is_prime((1 << k) + 1)]
        assert fermats == [3, 5, 17, 257, 65537]
        assert all(map(_mersenne_prime, mersennes)) and all(map(_fermat_prime, fermats))

    def test_adjacent_exclusion_up_to_2_20(self):
        # q - 1 a Mersenne prime and q + 1 a Fermat prime force q <= 4
        assert [n + 1 for n in range(2, 1 << 20) if _mersenne_prime(n) and _fermat_prime(n + 2)] == [4]


class TestOddPrimePowers:
    def test_f6_and_f8_ranges(self, monkeypatch):
        # The prime powers each fact enumerates, recorded on the way and
        # handed on as an iterator, as `prime_powers` yields them; the fact
        # tests only the odd ones.
        enumerated = []
        real = facts.prime_powers

        def recorded(table, lo, hi):
            enumerated.append(list(real(table, lo, hi)))
            return iter(enumerated[-1])

        monkeypatch.setattr(facts, "prime_powers", recorded)
        assert verify_fact("F6", 30).holds and verify_fact("F8", 30).holds
        assert enumerated == [[7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29], [13, 16, 17, 19, 23, 25, 27, 29]]
        with pytest.raises(ValueError, match="leaves nothing to check"):
            verify_fact("F8", 12)
        assert len(enumerated) == 2


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
