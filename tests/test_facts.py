import itertools
import random

import pytest

from psl2cd import facts
from psl2cd.arithmetic import is_prime, omega, omega_table
from psl2cd.cli import main
from psl2cd.facts import FACTS, fact_report_to_dict, verify_all, verify_fact

from _oracles import trial_is_prime
from _runs import prime_powers


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
        # table: each even q alone, as `prime_runs` gives a power of 2, then
        # the odd q in runs of seven, which start alternately at 1 and 3
        # (mod 4).  The fact keeps the odd ones.  5 lies below both ranges
        # and fails both claims, and some even q fail them too.
        calls = []

        def every_integer(table, lo, hi):
            calls.append((lo, hi))
            evens = [((range(q, q + 1), b"\x01"), None, 1) for q in range(4, hi + 1, 2)]
            runs = [range(a, min(a + 14, hi + 1), 2) for a in range(5, hi + 1, 14)]
            return iter(evens + [((odds, b"\x01" * len(odds)), None, 1) for odds in runs])

        monkeypatch.setattr(facts, "prime_runs", every_integer)
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
        # The prime powers each fact enumerates, recorded on the way from
        # the q-sets of `prime_runs`, which are handed on as an iterator;
        # the fact tests only the odd ones.
        enumerated = []
        real = facts.prime_runs

        def recorded(table, lo, hi):
            qsets = list(real(table, lo, hi))
            enumerated.append([q for qs, _, _ in qsets for q in itertools.compress(*qs)])
            return iter(qsets)

        monkeypatch.setattr(facts, "prime_runs", recorded)
        assert verify_fact("F6", 30).holds and verify_fact("F8", 30).holds
        assert enumerated == [[7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29], [13, 16, 17, 19, 23, 25, 27, 29]]
        with pytest.raises(ValueError, match="leaves nothing to check"):
            verify_fact("F8", 12)
        assert len(enumerated) == 2


def _per_q_f6(table, limit):
    """F6 one q at a time, as a reference: the odd prime powers q in
    [7, limit] with Omega(q - eps) < 3 read from table, eps = q (mod 4)."""
    return [q for q in prime_powers(table, 7, limit) if q & 1 and table[q - 1 if q % 4 == 1 else q + 1] < 3]


def _per_q_f8(table, limit):
    """F8 one q at a time, as a reference: the odd prime powers q in
    [13, limit] with Omega(q - 1) < 3 and Omega(q + 1) < 3 read from table."""
    return [q for q in prime_powers(table, 13, limit) if q & 1 and table[q - 1] < 3 and table[q + 1] < 3]


class TestPlantedCounterexamples:
    # F6 and F8 read the table by columns, one q-set at a time; Omega
    # lowered beside chosen q in the table they build must give exactly
    # the lists of the per-q references.
    LIMIT = 19997  # a prime, so the last q of the range is a run's last odd number

    @staticmethod
    def plant(monkeypatch, pokes, limit):
        """Make the facts' `omega_table` write each (n, value) of pokes;
        return the poked table that a fact at limit builds."""

        def poked(limit):
            table = omega_table(limit)
            for n, value in pokes:
                if n <= limit:
                    table[n] = value
            return table

        monkeypatch.setattr(facts, "omega_table", poked)
        return poked(limit + 1)

    def test_unpoked_table_has_no_counterexamples(self):
        table = omega_table(self.LIMIT + 1)
        assert _per_q_f6(table, self.LIMIT) == FACTS["F6"].counterexamples(self.LIMIT) == []
        assert _per_q_f8(table, self.LIMIT) == FACTS["F8"].counterexamples(self.LIMIT) == []

    def test_chosen_q(self, monkeypatch):
        both_sides = [
            7,  # F6's first q
            13,  # F8's first q
            17, 23,  # the first and last odd numbers of the run between 16 and 25
            257, 283,  # the first and last q of the run between 256 and 289
            2053, 2179,  # the first and last q of the run between 2048 and 3**7
            2187, 2401,  # 3**7 and 7**4, single odd higher prime powers
            2203, 2207,  # the only q of the run between 13**3 and 47**2
            9967, 9973,  # primes = 3 and 1 (mod 4)
            self.LIMIT,  # the last q of the range
        ]
        pokes = [(n, 2) for q in both_sides for n in (q - 1, q + 1)]
        pokes += [(2214, 1), (2220, 2)]  # one side only: 2213 + 1 and 2221 - 1
        table = self.plant(monkeypatch, pokes, self.LIMIT)
        f6, f8 = FACTS["F6"].counterexamples(self.LIMIT), FACTS["F8"].counterexamples(self.LIMIT)
        assert f6 == _per_q_f6(table, self.LIMIT)
        assert f8 == _per_q_f8(table, self.LIMIT)
        assert set(both_sides) <= set(f6) and set(both_sides) - {7} <= set(f8)
        assert 2221 in f6 and 2213 not in f6 and not {2213, 2221} & set(f8)

    def test_random_pokes(self, monkeypatch):
        rng = random.Random(43)
        nonempty = [0, 0]
        for _ in range(200):
            limit = rng.randrange(20000)
            pokes = [(rng.randrange(limit + 2), rng.randrange(3)) for _ in range(rng.randrange(6))]
            table = self.plant(monkeypatch, pokes, limit)
            f6, f8 = FACTS["F6"].counterexamples(limit), FACTS["F8"].counterexamples(limit)
            assert f6 == _per_q_f6(table, limit), (limit, pokes)
            assert f8 == _per_q_f8(table, limit), (limit, pokes)
            nonempty[0] += bool(f6)
            nonempty[1] += bool(f8)
        assert min(nonempty) > 10


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
