"""Exact natural-number arithmetic for the degree-set classifier.

Deterministic factorization and primality for inputs below 2**63, plus the
special predicates the classification conditions consume: Omega (prime
divisors counted with multiplicity) and Zsigmondy primitive prime divisors
of 2**n - 1.  F5 needs no Mersenne or Fermat test; see `facts`.

`factor`, `omega`, `omega_at_least`, `is_prime` and `prime_power_decompose`
find the primes below 1000 that divide n in one stage, `_strip_table_primes`,
with one gcd.  What it leaves has no prime factor below 1000, so below
1009**2 it is 1 or prime without a test.  `factor` splits a larger
cofactor with Brent's rho, and serves only the `factor` command and F9;
no verdict calls it.  Omega never runs rho, but scans the cofactor against
prime-block products up to its cube root (`_cofactor_omega`), and
`prime_power_decompose` needs only an exact root and one prime test.  The
shared state is two bounded caches: the memo of `_cofactor_omega` (at
most 1,024 entries, keyed on the cofactor, so n, 2n and n/2 reuse the same
work), and the block products (at most 256, all of them below 2**21,
about 410 KB in all).  The memo pays where a cofactor is read twice:
fact F7 re-reads F4's Omega(2**f - 1), and hits it 7 times in 15 calls,
which takes F7 from about 0.63 to 0.47 ms on a 2-core VM.  A verdict reads each q's
Omega(q +- 1) once, so it almost never hits there.  Everything is a pure
function of its arguments and concurrent use is safe.

Each prime is proved once, with no more work than its size needs.
Miller-Rabin runs only on such a cofactor past 1009**2, with the first k
of twelve fixed witnesses, k being the smallest count proved exact below n
(one witness below 2,047, nine below 3,825,123,056,546,413,051, all twelve
above).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from typing import Iterator

MAX_VALUE = 1 << 63
"""Exclusive upper bound for factoring inputs; larger values raise OverflowError."""

Factorization = tuple[tuple[int, int], ...]
"""Prime factorization as ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""


def prime_sieve(limit: int) -> bytearray:
    """sieve[n] == 1 exactly when n <= limit is prime, by sieve of Eratosthenes.

    Raises MemoryError, before allocating anything, when the sieve of
    limit + 1 bytes could not even be indexed (limit >= sys.maxsize).  The
    sieve starts as zeros and its ones are written in 4 KiB pieces, so no
    second copy of it exists while it is built; a bytearray repetition
    would avoid the copy too, but on CPython 3.11 a failed one also prints
    a stray SystemError.
    """
    if limit < 2:
        return bytearray(max(limit + 1, 0))
    if limit >= sys.maxsize:
        raise MemoryError(f"a sieve up to {limit} does not fit in memory")
    size, ones = limit + 1, b"\x01" * 4096
    sieve = bytearray(size)
    with memoryview(sieve) as view:
        for i in range(0, size, 4096):
            view[i : i + 4096] = ones[: size - i]
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return sieve


_INCREMENT = bytes(range(1, 256)) + b"\0"  # bytes.translate table for b -> b + 1
_ZERO_TO_ONE = b"\1" + bytes(range(1, 256))  # bytes.translate table for 0 -> 1
_IS_ONE = bytes(b == 1 for b in range(256))  # bytes.translate table for b -> (b == 1)


def omega_table(limit: int) -> bytearray:
    """Omega(n) for every 0 <= n <= limit, as table[n]; table[0] == table[1] == 0.

    A sieve of Eratosthenes over one zero table: the next prime is the
    next zero byte past p (no smaller prime divides it), and each power m
    of that prime adds one to every multiple of m.  Only primes up to
    limit // 2 have a multiple to mark, so the sieve stops there; every
    zero byte left above limit // 2 (index 2 or more) is then a prime, and
    one translate gives them all Omega 1.  No list of primes is built.
    Omega(n) < 63 below 2**63, so a byte always suffices.

    Raises MemoryError, before allocating anything, when a table of
    limit + 1 bytes could not even be indexed (limit >= sys.maxsize).
    """
    if limit >= sys.maxsize:
        raise MemoryError(f"a sieve up to {limit} does not fit in memory")
    table = bytearray(max(limit + 1, 0))
    half = limit // 2
    p = table.find(0, 2, half + 1)
    while p != -1:
        m = p
        while m <= limit:
            table[m::m] = table[m::m].translate(_INCREMENT)
            m *= p
        p = table.find(0, p + 1, half + 1)
    tail = max(half + 1, 2)
    table[tail:] = table[tail:].translate(_ZERO_TO_ONE)
    return table


_TRIAL_BOUND = 1000
_TRIAL_PRIMES = tuple(itertools.compress(range(_TRIAL_BOUND + 1), prime_sieve(_TRIAL_BOUND)))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)
_NEXT_PRIME_SQ = 1009 * 1009  # first prime beyond the table, squared

# The first twelve primes decide primality for every n below
# 318,665,857,834,031,151,167,461 (about 3.2 * 10**23, a strong pseudoprime
# to all twelve), far past the 2**63 working range.  Fewer suffice for
# smaller n: the first k primes are exact below the k-th bound of OEIS
# A014233, so n below _MR_BOUNDS[i] needs only _MR_TIERS[i].  The last tier
# stays at twelve: 3,825,123,056,546,413,051 < 2**63 is a strong pseudoprime
# to every prime base up to 31.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)
_MR_TIERS = tuple(_MR_WITNESSES[:k] for k in (1, 2, 3, 4, 5, 6, 7, 9, 12))


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact below
    318,665,857,834,031,151,167,461, so on the whole 2**63 working range."""
    if n < 2:
        return False
    if math.gcd(n, _TRIAL_PRODUCT) > 1:
        return n < _TRIAL_BOUND and n in _TRIAL_PRIMES
    return n < _NEXT_PRIME_SQ or _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """Strong-probable-prime test of odd n > 37 to as many witnesses as n's
    size needs, which decides primality below 3.2 * 10**23."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_TIERS[bisect.bisect_right(_MR_BOUNDS, n)]:
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


def factor(n: int) -> Factorization:
    """Prime factorization of n, primes strictly increasing; factor(1) == ().

    After ``_strip_table_primes``, the cofactor is factored by
    deterministic Miller-Rabin, perfect-power roots and Brent's rho with a
    fixed parameter schedule, so the output is reproducible.  Nothing is
    memoized: only the `factor` command and F9's `zsigmondy_base2` call it.

    Raises ValueError for n < 1 and OverflowError for n >= 2**63.
    """
    _check_range(n)
    out, n = _strip_table_primes(n)
    counts: dict[int, int] = {}
    if n > 1:
        _split(n, counts, 1)
    return (*out, *sorted(counts.items()))


def _check_range(n: int) -> None:
    """The domain of `factor` and `omega`: 1 <= n < 2**63."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: positive integer required")
    if n >= MAX_VALUE:
        raise OverflowError(f"{n} is out of range: inputs must be below 2**63")


def _strip_table_primes(n: int) -> tuple[list[tuple[int, int]], int]:
    """([(p, e), ...] for the primes p < 1000 dividing n >= 1, cofactor).

    gcd(n, product of those primes) names the primes that divide n, so only
    they are divided out; n may be of any size."""
    out: list[tuple[int, int]] = []
    small = math.gcd(n, _TRIAL_PRODUCT)  # each table prime dividing n, once
    for p in _TRIAL_PRIMES:
        if p * p > small:
            if small == 1:
                break
            p = small  # what is left is the largest table prime dividing n
        elif small % p:
            continue
        small //= p
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out, n


def _split(n: int, counts: dict[int, int], mult: int) -> None:
    """Add mult times the prime factors of n (which has no factor <= 1000).

    Every prime factor is at least 1009, so a piece below 1009**2 is prime
    without a test, and a perfect power is split by its ``_exact_root``.
    """
    if n < _NEXT_PRIME_SQ or _miller_rabin(n):
        counts[n] = counts.get(n, 0) + mult
        return
    root, k = _exact_root(n)
    if k > 1:
        _split(root, counts, mult * k)
        return
    d = _brent_rho(n)
    _split(d, counts, mult)
    _split(n // d, counts, mult)


def _exact_root(n: int) -> tuple[int, int]:
    """(r, k) with n == r**k for the largest k <= min(6, n's bit length
    over 10) that has an exact root, or (n, 1) if none does.  The root is
    an integer square root for k = 2, and a rounded float root checked
    with its neighbours for k >= 3.  For 1 < n < 2**63 with no prime
    factor below 1000, n = s**m forces n >= 1009**m, which has at least
    10m bits, so m <= 6 is in the range and r is no perfect power.
    """
    for k in range(min(6, n.bit_length() // 10), 1, -1):
        root = math.isqrt(n) if k == 2 else round(n ** (1 / k))
        for r in (root, root - 1, root + 1):
            if r**k == n:
                return r, k
    return n, 1


def _brent_rho(n: int) -> int:
    """Nontrivial divisor of an odd composite n, by Brent's cycle method.

    The polynomial constants are tried in a fixed order, so the divisor
    found (hence the recursion shape) is deterministic in n.
    """
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
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"could not split {n}")  # unreachable below 2**63


def omega(n: int) -> int:
    """Number of prime divisors of n counted with multiplicity; omega(1) == 0.

    The primes below 1000 are counted as in `factor`.  A cofactor c of
    1009**2 or more goes to `_cofactor_omega`, which runs no rho: it divides
    out the primes below lo, one block at a time, while lo**3 <= c.  Then
    c < lo**3 has no prime factor below lo, and three of them would make it
    at least lo**3, so c is 1, a prime or a product of two primes, and one
    Miller-Rabin test tells them apart.  So omega(n) equals
    ``sum(e for _, e in factor(n))``, which the tests hold it to, and it
    raises `factor`'s ValueError for n < 1 and OverflowError for n >= 2**63.
    """
    _check_range(n)
    stripped, n = _strip_table_primes(n)
    count = sum(e for _, e in stripped)
    if n >= _NEXT_PRIME_SQ:
        count += _cofactor_omega(n)
    elif n > 1:
        count += 1
    return count


_BLOCK = 1 << 13  # integers per block of `_block_product`


@functools.lru_cache(maxsize=1 << 10)
def _cofactor_omega(n: int) -> int:
    """Omega of n >= 1009**2 with no prime factor below 1000.

    A prime counts 1, by one Miller-Rabin test.  Otherwise the blocks
    [lo, lo + 2**13) are walked upward from lo = 1009 while lo**3 <= n: each
    block's primes that divide n are named by one gcd with its product,
    and divided out of n with multiplicity.  When the walk stops, n has no
    prime factor below lo and n < lo**3, so it is 1, a prime or a product
    of two primes: a prime without a test below lo**2, and otherwise as
    Miller-Rabin says.  Below 2**63 every block starts below 2**21.
    """
    if _miller_rabin(n):
        return 1
    count, lo = 0, 1009
    while lo * lo * lo <= n:
        g = math.gcd(n, _block_product(lo))
        while g > 1:
            # g is squarefree with every prime in the block, so below lo**2
            # it is one prime, and past it its least divisor from lo up is.
            p = g if g < lo * lo else next(r for r in range(lo, g, 2) if g % r == 0)
            g //= p
            while n % p == 0:
                n //= p
                count += 1
        lo += _BLOCK
    if n == 1:
        return count
    return count + (1 if n < lo * lo or _miller_rabin(n) else 2)


@functools.lru_cache(maxsize=256)
def _block_product(lo: int) -> int:
    """Product of the primes in [lo, lo + 2**13), for odd lo >= 1009.

    Only this block's 2**12 odd numbers are sieved, by the odd primes up to
    the square root of its end, so building it holds a few KB at most; the
    product, about 2**13 * log2(e) bits by the prime number theorem, is
    the only thing kept.
    """
    hi = lo + _BLOCK
    odds = bytearray(b"\x01") * (_BLOCK // 2)  # odds[i] stands for lo + 2i
    base = prime_sieve(math.isqrt(hi - 1))
    for p in itertools.compress(range(3, len(base)), base[3:]):
        first = -(-lo // p) * p  # lo > p, so the first multiple is composite
        if first % 2 == 0:
            first += p
        i = (first - lo) // 2
        odds[i::p] = bytes(len(range(i, len(odds), p)))
    return math.prod(itertools.compress(range(lo, hi, 2), odds))


def omega_at_least(n: int, k: int) -> bool:
    """Decide whether Omega(n) >= k, for n of any size.

    The primes below 1000 are stripped as in ``factor``.  When their count,
    plus one prime for a nontrivial cofactor, settles the bound, or the
    cofactor is 1 or a prime below 1009**2, nothing more is needed, so this
    works on values far beyond 2**63.  Otherwise the cofactor's Omega is
    counted as in `omega`, by the block scan up to its cube root, which
    requires it to be below 2**63.
    """
    if n < 1:
        raise ValueError(f"Omega is undefined for {n}")
    stripped, n = _strip_table_primes(n)
    count = sum(e for _, e in stripped)
    if count >= k or n == 1:
        return count >= k
    if count + 1 >= k or n < _NEXT_PRIME_SQ:
        return count + 1 >= k
    if n < MAX_VALUE:
        return count + _cofactor_omega(n) >= k
    raise OverflowError(f"cannot settle Omega >= {k} for an out-of-range cofactor")


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, by trial division up to
    sqrt(n).  Meant for the exponents of q < 2**63: its callers pass f and
    divisors d of f, all at most 62."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """(p, f) with q == p**f and p prime, or None if q is not a prime power.

    No factorization is run.  After `_strip_table_primes`, q is a prime
    power exactly when one table prime divides it and leaves cofactor 1.
    If none does, every prime factor of q is at least 1009, and its
    ``_exact_root`` (r, k) has r no perfect power, so q is a prime power
    exactly when r is prime: without a test below 1009**2, and otherwise
    by one Miller-Rabin test.

    Raises ValueError for q < 2 and `factor`'s OverflowError for q >= 2**63.
    """
    if q < 2:
        raise ValueError(f"{q} has no prime-power decomposition")
    _check_range(q)
    stripped, n = _strip_table_primes(q)
    if stripped:
        return stripped[0] if len(stripped) == 1 and n == 1 else None
    r, k = _exact_root(q)
    return (r, k) if r < _NEXT_PRIME_SQ or _miller_rabin(r) else None


QSet = tuple[range, bytes]
"""A set of q as (odds, flags): its q are ``itertools.compress(odds, flags)``,
with odds a range and flags bytes of 0 and 1, one for each of its numbers."""


def prime_runs(table: bytes | bytearray, lo: int, hi: int) -> Iterator[tuple[QSet, int | None, int]]:
    """The prime powers q with lo <= q <= hi as q-sets (qs, p, f), ascending.

    Runs of primes and higher prime powers alternate, and the last is a
    run.  A run's odds are the odd numbers between two higher prime
    powers, its flags their stepped slice of the table translated to 0
    and 1, with p None, since each prime is its own p, and f 1; a run may
    hold no prime.  A higher prime power q = p**f, 2 = 2**1 or a p**f with
    f >= 2, comes alone, as ``((range(q, q + 1), b"\\x01"), p, f)``.

    table is any byte table longer than hi whose entries equal to 1 are
    exactly the primes: a `prime_sieve` or an `omega_table`.  Only 2 and
    the powers p**f (f >= 2) of the primes up to sqrt(hi) are listed and
    sorted, 243 values below 2**20, so no list of the whole range is ever
    held.
    """
    higher = [(2, 2, 1)] if lo <= 2 <= hi else []
    root = math.isqrt(max(hi, 0))
    for p in itertools.compress(range(2, root + 1), table[2 : root + 1].translate(_IS_ONE)):
        q, f = p * p, 2
        while q <= hi:
            if q >= lo:
                higher.append((q, p, f))
            q, f = q * p, f + 1
    higher.sort()
    first = max(lo, 3) | 1
    for q, p, f in higher:
        yield (range(first, q, 2), table[first:q:2].translate(_IS_ONE)), None, 1
        yield (range(q, q + 1), b"\x01"), p, f
        first = (q + 1) | 1
    yield (range(first, hi + 1, 2), table[first : hi + 1 : 2].translate(_IS_ONE)), None, 1


def prime_powers(table: bytes | bytearray, lo: int, hi: int) -> Iterator[int]:
    """The prime powers q with lo <= q <= hi, yielded ascending: the q of
    each q-set of ``prime_runs(table, lo, hi)`` in turn, chained in C, so
    no Python frame runs per q."""
    return itertools.chain.from_iterable(itertools.compress(*qs) for qs, _, _ in prime_runs(table, lo, hi))


def prime_runs_in_range(lo: int, hi: int) -> Iterator[tuple[QSet, int | None, int]]:
    """``prime_runs`` over ``prime_sieve(hi)`` for [lo, hi].  The range is
    checked and the sieve built when this is called, so OverflowError for
    hi >= 2**63 and the sieve's MemoryError come from the call, not from
    the first q-set; the stream holds the sieve and reads each run's slice
    off it as the run is taken."""
    if hi >= MAX_VALUE:
        raise OverflowError(f"range end {hi} is out of range: must be below 2**63")
    return prime_runs(prime_sieve(hi), lo, hi)


def zsigmondy_base2(n: int) -> int | None:
    """Smallest prime dividing 2**n - 1 but no 2**k - 1 with 1 <= k < n.

    Such a primitive divisor exists for every n >= 2 except n = 6, where
    63 = 3**2 * 7 has 3 | 2**2 - 1 and 7 | 2**3 - 1.

    Raises ValueError for n < 2 and OverflowError for n > 63.
    """
    if n < 2:
        raise ValueError(f"primitive divisors need n >= 2, got {n}")
    if n > 63:
        raise OverflowError(f"2**{n} - 1 is out of range: inputs must be below 2**63")
    for r, _ in factor((1 << n) - 1):
        if all(pow(2, k, r) != 1 for k in range(1, n)):
            return r
    return None
