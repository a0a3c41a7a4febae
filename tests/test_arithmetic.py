import hashlib
import itertools
import math
import random
import re
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2cd import arithmetic, classifier, facts
from psl2cd.arithmetic import (
    MAX_VALUE,
    divisors,
    factor,
    is_prime,
    omega,
    omega_at_least,
    omega_table,
    prime_power_decompose,
    prime_runs,
    prime_runs_in_range,
    prime_sieve,
    zsigmondy_base2,
)

from _oracles import sieve_factorizer, trial_division, trial_is_prime
from _runs import prime_powers

TABLE_PRIMES = [p for p in range(2, 1000) if trial_is_prime(p)]


def _prime_at_or_below(n: int) -> int:
    while not trial_is_prime(n):
        n -= 1
    return n


def _root_floor(n: int, k: int) -> int:
    """Largest r with r**k <= n."""
    r = int(n ** (1 / k))
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


# The smallest strong pseudoprime to the first k prime bases, for k = 1, ...,
# 7 and 9 (OEIS A014233): the first k bases are exact only below it.  The
# last one also fools the first 10 and 11 bases (every prime up to 31).
MR_TIER_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)


def _reference_is_prime(n: int) -> bool:
    """Miller-Rabin to all twelve witnesses, whatever the size of n.  The
    package uses only as many as n's size needs, so the answers agree."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in witnesses:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_above(n: int) -> int:
    n += 1
    while not trial_is_prime(n):
        n += 1
    return n


def _reference_prime_above(n: int) -> int:
    """The least prime above n, by the twelve-witness reference test."""
    n += 1
    while not _reference_is_prime(n):
        n += 1
    return n


def _reference_brent_rho(n: int) -> int:
    """Brent's rho on |x - y|.  The package multiplies by x - y instead,
    which flips signs mod n but changes no gcd, so the divisors agree."""
    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"could not split {n}")


class TestFactor:
    def test_examples(self):
        assert factor(1) == ()
        assert factor(63) == ((3, 2), (7, 1))
        assert factor(2047) == ((23, 1), (89, 1))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            factor(0)
        with pytest.raises(ValueError):
            factor(-5)
        with pytest.raises(OverflowError):
            factor(MAX_VALUE)
        factor(MAX_VALUE - 1)  # largest admissible input

    def test_matches_trial_division_on_range(self):
        for n in range(1, 20000):
            assert factor(n) == trial_division(n)

    def test_sieve_oracle_matches_trial_division(self):
        sieve_factor = sieve_factorizer(10**4)
        for n in range(2, 10**4 + 1):
            assert sieve_factor(n) == trial_division(n), n

    def test_matches_trial_division_spot_checks(self):
        for n in (10**6, 10**6 + 3, 2**32 - 1, 2**40 - 1, 3**25, 999983 * 999979):
            assert factor(n) == trial_division(n)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=2**50))
    def test_reconstruction_property(self, n):
        fs = factor(n)
        assert math.prod(p**e for p, e in fs) == n
        assert all(is_prime(p) for p, _ in fs)
        assert list(fs) == sorted(fs)
        assert len({p for p, _ in fs}) == len(fs)

    def test_large_semiprime(self):
        p, q = 1000003, 1000033
        assert factor(p * q) == ((p, 1), (q, 1))

    def test_largest_table_prime_and_roots(self):
        n = 2**5 * 997 * 1009**3 * 1013
        assert factor(n) == ((2, 5), (997, 1), (1009, 3), (1013, 1))
        assert factor(997 * 1013**5) == ((997, 1), (1013, 5))

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_constructed_products(self, data):
        # n = s * r**k * t with r, t primes in (1000, 10**6) and s a
        # product of table primes, which may include 2**e and 997.
        k = data.draw(st.integers(min_value=1, max_value=6), label="k")
        r_max = min(10**6, _root_floor(MAX_VALUE - 1, k))
        r = _prime_at_or_below(data.draw(st.integers(1009, r_max), label="r"))
        room = (MAX_VALUE - 1) // r**k
        t = 1
        if room >= 1009 and data.draw(st.booleans(), label="with t"):
            t = _prime_at_or_below(data.draw(st.integers(1009, min(10**6, room)), label="t"))
        room //= t
        s = 1
        table = st.one_of(st.sampled_from((2, 997)), st.sampled_from(TABLE_PRIMES))
        for p in data.draw(st.lists(table, max_size=12), label="s"):
            if s * p <= room:
                s *= p
        n = s * r**k * t
        assert n < MAX_VALUE
        expected = Counter(dict(trial_division(s)))
        expected[r] += k
        if t > 1:
            expected[t] += 1
        assert factor(n) == tuple(sorted(expected.items()))
        assert prime_power_decompose(r**k) == (r, k)


class TestBrentRho:
    def test_same_divisor_as_abs_reference(self):
        rng = random.Random(20170212)
        checked = 0
        while checked < 240:
            primes = [
                _prime_at_or_below(rng.randrange(1009, 1 << 21))
                for _ in range(rng.choice((2, 3)))
            ]
            n = math.prod(primes)
            if n >= MAX_VALUE:
                continue
            assert arithmetic._brent_rho(n) == _reference_brent_rho(n), n
            checked += 1


class TestSplit:
    def test_no_test_below_next_prime_square(self, monkeypatch):
        # Pieces of the cofactor have no prime factor <= 1000, so one below
        # 1009**2 is prime and must be counted without a Miller-Rabin call.
        tested = []
        miller_rabin = arithmetic._miller_rabin

        def counting(n):
            tested.append(n)
            return miller_rabin(n)

        monkeypatch.setattr(arithmetic, "_miller_rabin", counting)
        cases = (
            ((1009, 1), (1013, 1), (2**31 - 1, 1)),
            ((997, 1), (1009, 2), (1000003, 1)),
            ((1009, 5), (1013, 1)),
            ((1009, 1), (1000003, 1), (1000033, 1)),
            ((1019, 1), (1021, 1), (1031, 1), (1033, 1), (1039, 1), (1049, 1)),
        )
        for fs in cases:
            n = math.prod(p**e for p, e in fs)
            assert n < MAX_VALUE
            assert factor(n) == fs, n
        assert tested
        assert min(tested) >= 1009**2


class TestCofactorCache:
    """`factor` keeps no memo: n, 2n and n/2 each factor the shared cofactor."""

    QS = (3**37, 5**25, 7**20, 1000003**2, 1009**5)

    def test_order_independent(self):
        for q in self.QS:
            ns = [(q - 1) // 2, q - 1, 2 * (q - 1), 12 * (q - 1)]
            assert ns[-1] < MAX_VALUE
            forward = [factor(n) for n in ns]
            backward = [factor(n) for n in reversed(ns)][::-1]
            assert forward == backward, q
            for n, fs in zip(ns, forward):
                assert math.prod(p**e for p, e in fs) == n


class TestCofactorOmega:
    """The block scan that counts Omega of a cofactor without rho, reading
    only the residue classes mod 8 that can divide n."""

    @pytest.mark.parametrize("lo", [1009, 1009 + (1 << 13), 1009 + 255 * (1 << 13)])
    def test_block_product_is_the_product_of_its_primes(self, lo):
        # the first two blocks, either side of 9201, and the last one below 2**21
        primes = [p for p in range(lo, lo + (1 << 13)) if trial_is_prime(p)]
        products = arithmetic._block_products.__wrapped__(lo)
        assert products == tuple(math.prod(p for p in primes if p % 8 == r) for r in (1, 3, 5, 7))
        assert math.prod(products) == math.prod(primes)

    def test_every_block_starts_at_1_mod_8(self):
        assert 1009 % 8 == 1 and (1 << 13) % 8 == 0
        with pytest.raises(AssertionError):
            arithmetic._block_products.__wrapped__(1011)

    def test_a_sweep_builds_no_block(self):
        # The q - 1 and q + 1 of the benchmark's sweep, 7..2^20, stay below
        # 1009**3, where the walk reads no block.
        arithmetic._block_products.cache_clear()
        arithmetic._cofactor_omega.cache_clear()
        classifier._omega_near_q.cache_clear()
        assert sum(1 for _ in classifier.sweep_parts(7, 2**20)) > 0
        assert arithmetic._block_products.cache_info().misses == 0

    def test_blocks_are_bounded(self):
        n = (2**31 - 1) ** 2
        arithmetic._block_products.cache_clear()
        arithmetic._cofactor_omega.cache_clear()
        assert omega(n) == 2
        info = arithmetic._block_products.cache_info()
        # n - 1 is no square, so the walk reads all four classes, and n
        # stays whole, so it reads every block start lo with lo**3 <= n
        los = range(1009, _root_floor(n, 3) + 1, 1 << 13)
        assert info.maxsize == 256 and info.currsize == info.misses == len(los) <= 256
        total = sum(sys.getsizeof(c) for lo in los for c in arithmetic._block_products(lo))
        assert total < 400_000
        assert arithmetic._block_products.cache_info().misses == info.misses  # each was cached
        # Only the last block is built again, under tracemalloc: tracing
        # every build takes seconds.
        tracemalloc.start()
        try:
            arithmetic._block_products.__wrapped__(los[-1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_memo_is_bounded_and_shared(self):
        assert arithmetic._cofactor_omega.cache_info().maxsize == 1 << 10
        # 3**39 - 1 = 2 * 13**2 * 313 * 6553 * 7333 * 797161: the walk finds
        # two primes of the first block, of classes 1 and 5, and leaves one
        q = 3**39
        arithmetic._cofactor_omega.cache_clear()
        ns = [(q - 1) // 2, q - 1, 2 * (q - 1)]
        assert [omega(n) for n in ns] == [sum(e for _, e in factor(n)) for n in ns] == [6, 7, 8]
        # all three share one cofactor above the trial table
        assert arithmetic._cofactor_omega.cache_info().misses == 1

    @pytest.mark.parametrize("n", [1009 * 1013, 1073741827 * 1073741831])
    def test_a_composite_is_tested_once(self, monkeypatch, n):
        # Two primes, with no factor below 1000: below 1009**3 the walk reads
        # no block, and near 2**60 it divides nothing out up to the cube
        # root.  Either way n is still the composite Miller-Rabin found, and
        # is not tested again.
        real, calls = arithmetic._miller_rabin, []
        monkeypatch.setattr(arithmetic, "_miller_rabin", lambda m: calls.append(m) or real(m))
        arithmetic._cofactor_omega.cache_clear()
        assert omega(n) == 2
        assert calls == [n]

    def test_memo_hits_when_f7_rereads_f4(self):
        # F7 reads Omega(2**f - 1), which F4 has read: the reason the memo
        # is kept.  omega and omega_at_least both pass the class set, so a
        # cofactor has one key.
        arithmetic._cofactor_omega.cache_clear()
        facts.verify_fact("F4")
        before = arithmetic._cofactor_omega.cache_info().hits
        facts.verify_fact("F7")
        assert arithmetic._cofactor_omega.cache_info().hits - before >= 7

    @staticmethod
    def _odd_prime_factors(n):
        return [p for p, _ in (trial_division(n) if n < 10**8 else factor(n)) if p > 2]

    def test_x2_plus_1_has_odd_primes_1_mod_4_only(self):
        rng = random.Random(44)
        xs = [*range(2001), *(rng.randrange(1 << 31) for _ in range(500))]
        for x in xs:
            assert all(p % 4 == 1 for p in self._odd_prime_factors(x * x + 1)), x

    def test_x4_plus_1_has_odd_primes_1_mod_8_only(self):
        # every x up to 2000, and seeded x up to 55,000, the last x with
        # x**4 + 1 below 2**63
        rng = random.Random(44)
        xs = [*range(2001), *(rng.randrange(2001, 55_000) for _ in range(300))]
        for x in xs:
            assert all(p % 8 == 1 for p in self._odd_prime_factors(x**4 + 1)), x

    @pytest.mark.parametrize(
        "n, classes",
        [
            # 54877**4 + 1 = 2 * 513457201 * 8831352121: two primes past the
            # cube root, so the class-1 walk runs to its end
            (9069042682188146642, (1,)),
            # 3036998561**2 + 1 = 2 * 1508411753 * 3057308537, likewise
            # for classes 1 and 5
            (9223360259516070722, (1, 5)),
            # 3016891230**2 + 1 = 1013**2 * 451637 * 19638617, a repeated
            # prime of class 5 in the first block
            (9101632693650912901, (1, 5)),
            # 3036999525**2 + 1 = 2 * 407741 * 2222317 * 5089429: the
            # walk finds 407741 = 5 (mod 8) in its 50th block
            (9223366114850225626, (1, 5)),
        ],
    )
    def test_omega_of_x_power_plus_1(self, n, classes):
        assert arithmetic._prime_classes(n) == classes
        arithmetic._cofactor_omega.cache_clear()
        expected = sum(e for _, e in factor(n))
        assert omega(n) == expected
        assert omega_at_least(n, expected) and not omega_at_least(n, expected + 1)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 3), st.data())
    def test_omega_of_drawn_x_power_plus_1(self, k, data):
        power = 1 << k
        x = data.draw(st.integers(1, _root_floor(MAX_VALUE - 2, power)), label="x")
        n = x**power + 1
        classes = arithmetic._prime_classes(n)
        assert (classes == (1,)) if k > 1 else (classes in ((1,), (1, 5)))  # x may be a square
        assert omega(n) == sum(e for _, e in factor(n)), n


class TestIsPrime:
    def test_examples(self):
        assert not is_prime(1)
        assert is_prime(17)
        assert not is_prime(2047)

    def test_tier_bounds_are_composite(self):
        factors = (
            (23, 89),
            (829, 1657),
            (2251, 11251),
            (151, 751, 28351),
            (6763, 10627, 29947),
            (1303, 16927, 157543),
            (10670053, 32010157),
            (149491, 747451, 34233211),
        )
        for n, ps in zip(MR_TIER_BOUNDS, factors):
            assert math.prod(ps) == n and all(trial_is_prime(p) for p in ps)
            assert is_prime(n) is False, n

    def test_twelve_witnesses_are_not_enough_past_the_documented_bound(self):
        # The smallest strong pseudoprime to all twelve witnesses; the
        # docstrings claim exactness only below it.
        n = 318665857834031151167461
        assert n == 399165290221 * 798330580441
        assert _reference_is_prime(n)

    def test_matches_twelve_witness_reference_on_range(self):
        ns = range(10**6)
        assert [n for n in ns if is_prime(n)] == [n for n in ns if _reference_is_prime(n)]

    def test_matches_twelve_witness_reference_seeded(self):
        rng = random.Random(20261018)
        for _ in range(100000):
            bits = rng.randrange(2, 64)
            n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
            assert is_prime(n) == _reference_is_prime(n), n

    @settings(max_examples=500)
    @given(
        st.sampled_from(MR_TIER_BOUNDS + (1009**2,)).flatmap(
            lambda b: st.integers(min_value=b - 10**4, max_value=b + 10**4)
        )
    )
    def test_matches_twelve_witness_reference_near_tier_bounds(self, n):
        assert is_prime(n) == _reference_is_prime(n)

    def test_semiprimes_straddling_tier_bounds(self):
        for bound in MR_TIER_BOUNDS:
            for p0 in (math.isqrt(bound), math.isqrt(bound) // 3):
                p = _prime_at_or_below(p0)
                below = p * _prime_at_or_below((bound - 1) // p)
                above = p * _prime_above(bound // p)
                assert below < bound < above
                for n in (below, above):
                    assert is_prime(n) is False, n
                    assert _reference_is_prime(n) is False, n

    def test_against_sieve(self):
        flags = prime_sieve(99999)
        assert len(flags) == 100000
        for n in range(100000):
            assert is_prime(n) == flags[n]

    def test_known_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)
        assert is_prime(4432676798593)  # cofactor of 2**49 - 1
        assert not is_prime(0) and not is_prime(-7)


class TestOmega:
    def test_examples(self):
        assert omega(1) == 0
        assert omega(12) == 3
        assert omega(2047) == 2

    def test_additivity_on_seeded_pairs(self):
        rng = random.Random(20170111)
        for _ in range(10**4):
            m = rng.randrange(2, 1 << rng.randrange(2, 31))
            n = rng.randrange(2, 1 << rng.randrange(2, 31))
            assert m * n < MAX_VALUE
            assert omega(m * n) == omega(m) + omega(n)

    def test_omega_at_least_agrees_in_range(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randrange(1, 10**9)
            for k in (1, 2, 3, 5):
                assert omega_at_least(n, k) == (omega(n) >= k)

    def test_omega_at_least_beyond_range(self):
        # 5^39 - 1 = 4 * odd cofactor, far beyond the factoring bound
        n = 5**39 - 1
        assert n >= MAX_VALUE
        assert omega_at_least(n, 3)

    def test_omega_at_least_errors(self):
        with pytest.raises(ValueError):
            omega_at_least(0, 3)
        # two Mersenne primes: no table prime, and a cofactor past 2**63
        # that only factoring could settle
        with pytest.raises(OverflowError):
            omega_at_least((2**61 - 1) * (2**89 - 1), 3)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_omega_at_least_on_constructed_products(self, data):
        # n = s * m with s a product of table primes, which takes n past
        # 2**63, and m a product of at most three primes in [1009, 2**20],
        # so Omega(n) is known by construction and m < 2**63.
        powers = data.draw(
            st.lists(st.tuples(st.sampled_from(TABLE_PRIMES), st.integers(0, 40)), max_size=4),
            label="s",
        )
        primes = [
            _prime_at_or_below(data.draw(st.integers(1009, 1 << 20), label="m"))
            for _ in range(data.draw(st.integers(0, 3), label="len(m)"))
        ]
        n = math.prod(p**e for p, e in powers) * math.prod(primes)
        expected = sum(e for _, e in powers) + len(primes)
        for k in range(9):
            assert omega_at_least(n, k) == (expected >= k), (n, k)

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_omega_on_constructed_products(self, data):
        # n = s * m below 2**63, with s a product of table primes and m
        # either at most three primes in [1009, 2**21], which the block scan
        # divides out, or two primes past 2**21, which it leaves for the
        # last Miller-Rabin test, so Omega(n) is known by construction.
        if data.draw(st.booleans(), label="past 2**21"):
            a = _reference_prime_above(data.draw(st.integers(1 << 21, 1 << 41), label="a"))
            # 2000 exceeds every prime gap below 2**63, so a * b < 2**63
            b = _reference_prime_above(data.draw(st.integers(1 << 21, (MAX_VALUE - 1) // a - 2000), label="b"))
            primes = [a, b]
        else:
            primes = [
                _prime_at_or_below(data.draw(st.integers(1009, 1 << 21), label="m"))
                for _ in range(data.draw(st.integers(0, 3), label="len(m)"))
            ]
        n, expected = math.prod(primes), len(primes)
        room = (MAX_VALUE - 1) // n
        powers = st.tuples(st.sampled_from(TABLE_PRIMES), st.integers(1, 40))
        for p, e in data.draw(st.lists(powers, max_size=4), label="s"):
            while e and p**e > room:
                e -= 1
            n, room, expected = n * p**e, room // p**e, expected + e
        assert n < MAX_VALUE
        assert omega(n) == expected == sum(e for _, e in factor(n)), n

    @pytest.mark.parametrize(
        "n, expected",
        [
            ((2**31 - 1) ** 2, 2),  # the square of a prime past every block
            (2097131 * 2097133 * 2097143, 3),  # three primes at the cube bound, in the last block
            (1009**3, 3),  # the first block's start, cubed
            (1009**2 * 1013, 3),
            # 1009 and 1033, both 1 (mod 8), come from one gcd of the first block
            (1009 * 1033 * 329977 * 329993, 4),
            # 9199 ends the first block and 9203 opens the second; with two
            # primes past the walk's end, missing either would count 3
            (9199 * 9203 * 329977 * 329993, 4),
            (2**61 - 1, 1),
        ],
    )
    def test_omega_edge_cases(self, n, expected):
        assert n < MAX_VALUE
        arithmetic._cofactor_omega.cache_clear()
        assert omega(n) == expected == sum(e for _, e in factor(n))

    @pytest.mark.parametrize("n", [0, -7, MAX_VALUE, 2**70])
    def test_omega_raises_as_factor_does(self, n):
        with pytest.raises((ValueError, OverflowError)) as from_factor:
            factor(n)
        with pytest.raises(from_factor.type, match=f"^{re.escape(str(from_factor.value))}$"):
            omega(n)


class TestOmegaTable:
    def test_matches_sieve_oracle(self):
        limit = 2 * 10**5
        table = omega_table(limit)
        oracle = sieve_factorizer(limit)
        assert len(table) == limit + 1
        assert table[0] == table[1] == 0
        for n in range(2, limit + 1):
            assert table[n] == sum(e for _, e in oracle(n)), n

    @pytest.mark.parametrize("limit", range(65))
    def test_small_limits(self, limit):
        # Odd and even limits on both sides of each square up to 64, where
        # the square-root split moves.
        expected = [0, 0][: limit + 1] + [omega(n) for n in range(2, limit + 1)]
        assert list(omega_table(limit)) == expected

    def test_every_limit_to_3000(self):
        # Each limit from r**2 - 1 to r**2 + 1 moves the square-root split
        # of the sieve and the additive pass.
        oracle = sieve_factorizer(3000)
        expected = bytearray([0, 0] + [sum(e for _, e in oracle(n)) for n in range(2, 3001)])
        for limit in range(-1, 3001):
            assert omega_table(limit) == expected[: limit + 1], limit

    @pytest.mark.parametrize(
        "limit, digest",
        [
            (10**6 + 1, "2c32b6b93b0c248d11bc7c46bb4fbb5cf294d17ce2f97914788b345236f6d308"),
            (2**20, "f3e5be503d507fd4d45d88e880ad30438b882cd36110c5327009dd80b4047bea"),
        ],
    )
    def test_pinned_digest(self, limit, digest):
        # The tables F6 and F8 build at their default limit, and the one
        # of 2**20, byte for byte.
        assert hashlib.sha256(omega_table(limit)).hexdigest() == digest

    def test_peak_memory_is_about_twice_the_table(self):
        # Each strided pass holds a slice of at most half the table and its
        # translation, and the primes above the square root are set 64 KiB
        # at a time.
        limit = 2**20
        tracemalloc.start()
        try:
            omega_table(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (limit + 1) + 4096

    @pytest.mark.parametrize("limit", [4, 5000, 2**16, 3**10, 65521, 99991, 10**5])
    def test_last_index(self, limit):
        table = omega_table(limit)
        assert len(table) == limit + 1
        assert table[limit] == omega(limit)

    def test_too_large_is_out_of_memory_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                omega_table(sys.maxsize)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPrimePowers:
    @staticmethod
    def oracle(factor, lo, hi):
        return [n for n in range(max(lo, 1), hi + 1) if len(factor(n)) == 1]

    def test_every_small_range(self):
        # Both kinds of table: a 0/1 prime sieve just long enough, and Omega.
        every = self.oracle(sieve_factorizer(300), 0, 300)
        for hi in range(301):
            tables = (prime_sieve(hi), omega_table(hi + 1))
            for lo in range(hi + 1):
                expected = [n for n in every if lo <= n <= hi]
                for table in tables:
                    assert list(prime_powers(table, lo, hi)) == expected, (lo, hi, len(table))

    def test_runs_flatten_to_every_small_range(self):
        # Runs of primes, with p None and f 1, and single prime powers
        # q = p**f, with p prime, alternate, the last a run; each single q
        # is the stop of the run before it, and the q-sets' q, in turn,
        # are the prime powers of the range.
        every = self.oracle(sieve_factorizer(300), 0, 300)
        for hi in range(301):
            tables = (prime_sieve(hi), omega_table(hi + 1))
            for lo in range(hi + 1):
                expected = [n for n in every if lo <= n <= hi]
                for table in tables:
                    qsets = list(prime_runs(table, lo, hi))
                    assert len(qsets) % 2 == 1, (lo, hi)
                    flat = []
                    for i, ((odds, flags), p, f) in enumerate(qsets):
                        assert len(flags) == len(odds) and set(flags) <= {0, 1}, (lo, hi, i)
                        qs = list(itertools.compress(odds, flags))
                        if i % 2 == 0:
                            assert (p, f) == (None, 1), (lo, hi, i)
                            assert qs == [n for n in odds if table[n] == 1], (lo, hi, i)
                        else:
                            (q,) = qs
                            assert trial_is_prime(p) and p**f == q == qsets[i - 1][0][0].stop, (lo, hi, i)
                        flat += qs
                    assert flat == expected, (lo, hi, len(table))

    def test_a_wide_range(self):
        hi = 2 * 10**5
        expected = self.oracle(sieve_factorizer(hi), 7, hi)
        assert list(prime_powers(prime_sieve(hi), 7, hi)) == expected
        assert list(prime_powers(omega_table(hi + 1), 7, hi)) == expected
        assert _flat(prime_runs_in_range(7, hi)) == expected
        assert 3**11 in expected and 443**2 in expected and 2**17 in expected


class TestWindowedRuns:
    """``prime_runs_in_range``, the segmented sieve: its q-sets flatten to
    the prime powers of the range, whatever the window size."""

    EVERY = TestPrimePowers.oracle(sieve_factorizer(700), 0, 700)
    HIGHER = [q for q in EVERY if q == 2 or not trial_is_prime(q)]

    def test_every_small_range(self):
        for hi in range(301):
            for lo in range(hi + 1):
                assert _flat(prime_runs_in_range(lo, hi)) == [n for n in self.EVERY if lo <= n <= hi], (lo, hi)

    def test_near_2_40(self, monkeypatch):
        # Every integer of [2**40 - 100, 2**40 + 100] by trial division; the
        # window of 32 odds also cuts the range, at 2**40 - 99 + 64k.
        lo, hi = 2**40 - 100, 2**40 + 100
        expected = sorted([*(n for n in range(lo, hi + 1) if trial_is_prime(n)), 2**40])
        for window in (1 << 16, 32):
            monkeypatch.setattr(arithmetic, "_WINDOW", window)
            assert _flat(prime_runs_in_range(lo, hi)) == expected, window

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 6), st.data())
    def test_window_edges(self, window, data):
        # lo at 2k windows below a higher prime power q puts a window edge on
        # q (or just past an even q); hi a few numbers either side of a
        # window's end puts an edge on hi or one or two short of it.
        arithmetic._WINDOW = window
        try:
            if data.draw(st.booleans()):
                q, k = data.draw(st.sampled_from(self.HIGHER)), data.draw(st.integers(0, 4))
                lo = max(q - 2 * window * k - q % 2, 0)
            else:
                lo = data.draw(st.integers(0, 500))
            first = max(lo, 3) | 1
            hi = data.draw(st.integers(0, 12)) * 2 * window + first + data.draw(st.integers(-3, 1))
            hi = min(max(hi, lo), 700)
            qsets = list(prime_runs_in_range(lo, hi))
        finally:
            arithmetic._WINDOW = 1 << 16
        assert _flat(qsets) == [n for n in self.EVERY if lo <= n <= hi]
        numbers = [n for (odds, _), _, _ in qsets for n in odds]
        assert numbers == sorted(set(numbers))  # each number in one q-set, in order
        for (odds, flags), p, f in qsets:
            assert len(flags) == len(odds) and set(flags) <= {0, 1}
            if p is None:  # a run, inside one window
                assert f == 1
                assert not odds or (odds[0] - first) // (2 * window) == (odds[-1] - first) // (2 * window)
            else:
                assert len(odds) == 1 == flags[0] and trial_is_prime(p) and p**f == odds[0]

    def test_memory_is_a_base_sieve_and_a_window(self):
        # The base sieve runs to isqrt(hi) = 2**17, 128 KiB for a range near
        # 2**34, and its build holds a sixth of it more.  The windows are
        # held one at a time: one window's flags, a run cut from them and
        # the sieve's slice temporaries stay within three windows (329,517
        # bytes in all; 373,485 while the last window was still held as
        # the next was built).
        lo, hi = 2**34, 2**34 + 2**18
        tracemalloc.start()
        try:
            for _ in prime_runs_in_range(lo, hi):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(prime_sieve(2**17)) * 7 // 6 + 3 * arithmetic._WINDOW, peak

    @pytest.mark.parametrize(
        "hi, error",
        [(2**52, MemoryError), (2**58, MemoryError), (MAX_VALUE - 1, MemoryError), (MAX_VALUE, OverflowError)],
    )
    def test_past_the_bound_is_refused(self, monkeypatch, hi, error):
        # before any sieve is built
        monkeypatch.setattr(arithmetic, "prime_sieve", None)
        with pytest.raises(error):
            prime_runs_in_range(7, hi)


def _flat(qsets) -> list[int]:
    """The q of a stream of q-sets, in turn."""
    return [q for qs, _, _ in qsets for q in itertools.compress(*qs)]


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(49) == [1, 7, 49]

    @given(st.integers(min_value=1, max_value=5000))
    def test_by_enumeration(self, n):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


class TestPrimePowerDecompose:
    def test_examples(self):
        assert prime_power_decompose(8) == (2, 3)
        assert prime_power_decompose(9) == (3, 2)
        assert prime_power_decompose(12) is None

    def test_domain_error(self):
        for q in (1, 0, -5):
            with pytest.raises(ValueError):
                prime_power_decompose(q)
        for q in (MAX_VALUE, 1 << 70):
            with pytest.raises(OverflowError) as expected:
                factor(q)
            with pytest.raises(OverflowError, match=f"^{re.escape(str(expected.value))}$"):
                prime_power_decompose(q)

    def test_matches_the_sieve_oracle(self):
        limit = 2 * 10**5
        oracle = sieve_factorizer(limit)
        for q in range(2, limit + 1):
            fs = oracle(q)
            assert prime_power_decompose(q) == (fs[0] if len(fs) == 1 else None), q

    @pytest.mark.parametrize("p", [2, 3, 997, 1009, 1013, 65521, 2**31 - 1])
    def test_every_power_below_the_range_end(self, p):
        k, q = 1, p
        while q < MAX_VALUE:
            assert prime_power_decompose(q) == (p, k)
            k, q = k + 1, q * p

    @pytest.mark.parametrize("p, k", [(3037000493, 2), (2097143, 3), (55103, 4), (6203, 5), (1447, 6)])
    def test_largest_prime_for_each_exponent(self, p, k):
        # where a float k-th root is most likely to be off by one
        assert p == _prime_at_or_below(_root_floor(MAX_VALUE - 1, k))
        assert prime_power_decompose(p**k) == (p, k)

    @pytest.mark.parametrize(
        "q", [1009 * 1013, 1009**2 * 1013, (1009 * 1013) ** 2, 1073741827 * 1073741831]
    )
    def test_none_without_a_table_prime(self, q):
        assert math.gcd(q, math.prod(TABLE_PRIMES)) == 1 and q < MAX_VALUE
        assert prime_power_decompose(q) is None

    def test_range_enumeration(self):
        # (q, p, f) for every small range, including empty and negative ends.
        factor = sieve_factorizer(300)
        triples = [(n, *factor(n)[0]) for n in range(2, 301) if len(factor(n)) == 1]
        for hi in range(-2, 301):
            for lo in range(max(hi, 0) + 2):
                expected = [t for t in triples if lo <= t[0] <= hi]
                found = [(q, *prime_power_decompose(q)) for q in prime_powers(prime_sieve(hi), lo, hi)]
                assert found == expected, (lo, hi)


class TestZsigmondy:
    def test_examples(self):
        assert zsigmondy_base2(4) == 5
        assert zsigmondy_base2(6) is None
        assert zsigmondy_base2(11) == 23

    def test_primitive_by_direct_divisibility(self):
        for n in range(2, 41):
            r = zsigmondy_base2(n)
            if n == 6:
                assert r is None
                continue
            assert r is not None and trial_is_prime(r)
            assert (2**n - 1) % r == 0
            assert all((2**k - 1) % r != 0 for k in range(1, n))

    def test_returns_smallest(self):
        for n in (11, 12, 20, 36):
            r = zsigmondy_base2(n)
            smaller = [
                p
                for p, _ in trial_division(2**n - 1)
                if p < r and all((2**k - 1) % p != 0 for k in range(1, n))
            ]
            assert not smaller

    def test_errors(self):
        with pytest.raises(ValueError):
            zsigmondy_base2(1)
        with pytest.raises(OverflowError):
            zsigmondy_base2(64)

