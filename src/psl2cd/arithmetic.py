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
`prime_power_decompose` needs only an exact root and one prime test.

Each block product is held as four, one per residue class of its primes
mod 8, and the scan reads only the classes that can divide n.  An odd
prime r dividing x**(2**k) + 1 has x of order 2**(k+1) mod r, so
r = 1 (mod 2**(k+1)): x**2 + 1 has primes of classes 1 and 5 only, and
x**4 + 1 (so also x**(2**k) + 1 for k >= 3) of class 1 only.  So for
q = p**f with f even, the scan of q + 1 reads half or a quarter of each
block (`_prime_classes` tells by one or two `isqrt` calls on n - 1).  A
prime of a class left out divides no such n, so when the scan stops the
cofactor still has no prime factor below it, as with all four classes.

The shared state is two bounded caches: the memo of `_cofactor_omega` (at
most 1,024 entries, keyed on the cofactor and its class set, so n, 2n and
n/2 reuse the same work when their classes agree), and the block products
(at most 256 blocks, all of them below 2**21, about 410 KB in all).  The
memo pays where a cofactor is read twice: fact F7 re-reads F4's
Omega(2**f - 1), and hits it 7 times in 15 calls, which takes F7 from
about 0.63 to 0.47 ms on a 2-core VM.  A verdict reads each q's
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
from typing import Callable, Iterator

MAX_VALUE = 1 << 63
"""Exclusive upper bound for factoring inputs; larger values raise OverflowError."""

Factorization = tuple[tuple[int, int], ...]
"""Prime factorization as ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""


def prime_sieve(limit: int) -> bytearray:
    """sieve[n] == 1 exactly when n <= limit is prime, by sieve of Eratosthenes.

    Raises MemoryError, before allocating anything, when the sieve of
    limit + 1 bytes could not even be indexed (limit >= sys.maxsize).  The
    sieve starts as zeros and the odd numbers' ones are written in 4 KiB
    pieces, so no second copy of it exists while it is built; a bytearray
    repetition would avoid the copy too, but on CPython 3.11 a failed one
    also prints a stray SystemError.  Each odd prime then crosses off its
    odd multiples only, so the largest other buffer is 3's, limit / 6 bytes.
    """
    if limit < 2:
        return bytearray(max(limit + 1, 0))
    if limit >= sys.maxsize:
        raise MemoryError(f"a sieve up to {limit} does not fit in memory")
    size, ones = limit + 1, b"\x00\x01" * 2048
    sieve = bytearray(size)
    with memoryview(sieve) as view:
        for i in range(0, size, 4096):
            view[i : i + 4096] = ones[: size - i]
    sieve[1], sieve[2] = 0, 1
    for i in range(3, math.isqrt(limit) + 1, 2):
        if sieve[i]:
            sieve[i * i :: 2 * i] = bytearray(len(range(i * i, limit + 1, 2 * i)))
    return sieve


_TWICE_IDENTITY = bytes(range(256)) * 2
_ADD = tuple(_TWICE_IDENTITY[a : a + 256] for a in range(64))  # bytes.translate tables for b -> b + a
_ZERO_TO_ONE = b"\1" + bytes(range(1, 256))  # bytes.translate table for 0 -> 1
_IS_ONE = bytes(b == 1 for b in range(256))  # bytes.translate table for b -> (b == 1)


def omega_table(limit: int) -> bytearray:
    """Omega(n) for every 0 <= n <= limit, as table[n]; table[0] == table[1] == 0.

    Three passes over one zero table, with r = isqrt(limit) and lo = r + 1:

    1. A sieve of Eratosthenes by the primes up to r: the next prime is
       the next zero byte past p up to r, and each power m of it adds one
       to every multiple of m.  Now table[n] is Omega of the r-smooth part
       of n, which is all of n for an r-smooth n.
    2. Every zero byte from lo up is a prime, since n <= limit < lo**2
       with no prime factor up to r is one; it is set to 1, 64 KiB at a
       time, so no second full-size copy exists.
    3. For k = 2, ..., limit // lo in increasing order,
       ``table[k*m] = table[k] + table[m]`` for all lo <= m <= limit // k,
       as one strided slice assignment: Omega is completely additive.

    Why pass 3 leaves every entry right.  Each write to n = k*m reads
    k <= r, final since pass 1, and m < n as it stood before the step.  An
    r-smooth n is only ever written from sources that are already final:
    its m is r-smooth too, and by induction on k still right.  Any other
    n <= limit is k'*P for a single prime P > r (two of them would pass
    lo**2) and an r-smooth k'.  A step k writes n only if k divides k',
    as k <= r < P, so n is last written at step k', from P, whose 1 no
    step changes; k' = 1 is a prime of pass 2.  So about sqrt(limit)
    slice assignments replace one sieve step per prime up to limit // 2.
    Omega(n) < 63 below 2**63, so a byte always suffices.

    Raises MemoryError, before allocating anything, when a table of
    limit + 1 bytes could not even be indexed (limit >= sys.maxsize).
    """
    if limit >= sys.maxsize:
        raise MemoryError(f"a sieve up to {limit} does not fit in memory")
    table = bytearray(max(limit + 1, 0))
    if limit < 2:
        return table
    lo = math.isqrt(limit) + 1
    p = table.find(0, 2, lo)
    while p != -1:
        m = p
        while m <= limit:
            table[m::m] = table[m::m].translate(_ADD[1])
            m *= p
        p = table.find(0, p + 1, lo)
    for i in range(lo, limit + 1, 1 << 16):
        table[i : i + (1 << 16)] = table[i : i + (1 << 16)].translate(_ZERO_TO_ONE)
    for k in range(2, limit // lo + 1):
        table[k * lo :: k] = table[lo : limit // k + 1].translate(_ADD[table[k]])
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
    1009**2 or more goes to `_cofactor_omega`, with the residues mod 8
    that its primes can have (`_prime_classes`, one or two `isqrt` calls
    on n - 1).  It runs no rho: it divides out the primes of those classes
    below lo, one block at a time, while lo**3 <= c.  Then c < lo**3 has no
    prime factor below lo, and three of them would make it at least lo**3,
    so c is 1, a prime or a product of two primes, and one Miller-Rabin
    test tells them apart.  So omega(n) equals ``sum(e for _, e in
    factor(n))``, which the tests hold it to, and it raises `factor`'s
    ValueError for n < 1 and OverflowError for n >= 2**63.
    """
    _check_range(n)
    stripped, cofactor = _strip_table_primes(n)
    count = sum(e for _, e in stripped)
    if cofactor >= _NEXT_PRIME_SQ:
        count += _cofactor_omega(cofactor, _prime_classes(n))
    elif cofactor > 1:
        count += 1
    return count


_ALL_CLASSES = (1, 3, 5, 7)


def _prime_classes(n: int) -> tuple[int, ...]:
    """The residues mod 8 that an odd prime factor r of n >= 2 can have.

    If n = x**2 + 1, then x**2 = -1 (mod r), so x has order 4 mod r and
    4 divides r - 1: r is 1 or 5 mod 8.  If n = x**4 + 1, x has order 8
    and r = 1 (mod 8); an x**(2**k) + 1 with k >= 3 is such a y**4 + 1.
    Any other n may have primes of all four classes.
    """
    x = math.isqrt(n - 1)
    if x * x != n - 1:
        return _ALL_CLASSES
    y = math.isqrt(x)
    return (1,) if y * y == x else (1, 5)


_BLOCK = 1 << 13  # integers per block of `_block_products`


@functools.lru_cache(maxsize=1 << 10)
def _cofactor_omega(n: int, classes: tuple[int, ...]) -> int:
    """Omega of n >= 1009**2 with no prime factor below 1000 and none
    outside the residue classes mod 8 in classes.

    A prime counts 1, by one Miller-Rabin test.  Otherwise the blocks
    [lo, lo + 2**13) are walked upward from lo = 1009 while lo**3 <= n:
    for each class in classes, the block's primes of that class that divide
    n are named by one gcd with their product, and divided out of n with
    multiplicity.  A prime of another class divides no n it is given, so
    when the walk stops n has no prime factor below lo and n < lo**3: it is
    1, a prime or a product of two primes: a prime without a test below
    lo**2, two primes if the walk divided nothing out (n is still the
    composite first tested, as every n below 1009**3 is), and otherwise as
    Miller-Rabin says.  Below 2**63 every block starts below 2**21.
    classes has no default, since f(c) and f(c, classes) would be two memo
    keys for one count.
    """
    if _miller_rabin(n):
        return 1
    count, lo, whole = 0, 1009, n
    while lo * lo * lo <= n:
        products = _block_products(lo)
        for r in classes:
            g = math.gcd(n, products[r // 2])
            while g > 1:
                # g is squarefree with every prime in the block, so below
                # lo**2 it is one prime, and past it its least divisor
                # from lo up is.
                p = g if g < lo * lo else next(d for d in range(lo, g, 2) if g % d == 0)
                g //= p
                while n % p == 0:
                    n //= p
                    count += 1
        lo += _BLOCK
    if n == 1:
        return count
    if n == whole:  # still the composite tested above, so two primes
        return 2
    return count + (1 if n < lo * lo or _miller_rabin(n) else 2)


@functools.lru_cache(maxsize=256)
def _block_products(lo: int) -> tuple[int, ...]:
    """The products of the primes in [lo, lo + 2**13) that are 1, 3, 5 and
    7 mod 8, in that order, so the product of class r is at index r // 2;
    for lo >= 1009 with lo = 1 (mod 8).  Every block start is such an lo:
    1009 = 1 (mod 8), and 2**13 = 0.

    Only this block's 2**12 odd numbers are sieved, by the odd primes up to
    the square root of its end, so building it holds a few KB at most.
    Since lo + 2i = 1 + 2i (mod 8), odds[i::4] is class 2i + 1.  The four
    products, about 2**13 * log2(e) bits together by the prime number
    theorem, are the only thing kept.
    """
    assert lo % 8 == 1, lo
    hi = lo + _BLOCK
    odds = _odd_prime_flags(prime_sieve(math.isqrt(hi - 1)), lo, hi)  # odds[i] stands for lo + 2i
    return tuple(math.prod(itertools.compress(range(lo + 2 * i, hi, 8), odds[i::4])) for i in range(4))


def omega_at_least(n: int, k: int) -> bool:
    """Decide whether Omega(n) >= k, for n of any size.

    The primes below 1000 are stripped as in ``factor``.  When their count,
    plus one prime for a nontrivial cofactor, settles the bound, or the
    cofactor is 1 or a prime below 1009**2, nothing more is needed, so this
    works on values far beyond 2**63.  Otherwise the cofactor's Omega is
    counted as in `omega`, by the block scan of n's prime classes up to its
    cube root, which requires it to be below 2**63.
    """
    if n < 1:
        raise ValueError(f"Omega is undefined for {n}")
    stripped, cofactor = _strip_table_primes(n)
    count = sum(e for _, e in stripped)
    if count >= k or cofactor == 1:
        return count >= k
    if count + 1 >= k or cofactor < _NEXT_PRIME_SQ:
        return count + 1 >= k
    if cofactor < MAX_VALUE:
        return count + _cofactor_omega(cofactor, _prime_classes(n)) >= k
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


def _odd_prime_flags(base: bytes | bytearray, first: int, stop: int) -> bytearray:
    """1 for each prime and 0 for each other number of range(first, stop, 2),
    for odd first >= 3, by a sieve of these odd numbers alone.  base is a
    0/1 prime sieve up to isqrt(stop - 1) at least.  Each odd prime p of it
    crosses off its odd multiples from max(p**2, first) up, by one slice
    assignment; a smaller multiple k*p has a prime factor below p."""
    flags = bytearray(b"\x01") * len(range(first, stop, 2))
    root = math.isqrt(stop - 1)
    for p in itertools.compress(range(3, root + 1, 2), memoryview(base)[3 : root + 1 : 2]):
        m = max(p * p, -(-first // p) * p)  # the first multiple from p**2 and first; if even, p more
        i = (m + p * (m % 2 == 0) - first) // 2
        flags[i::p] = bytes(len(range(i, len(flags), p)))
    return flags


def _higher_powers(primes: bytes | bytearray, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The higher prime powers q in [lo, hi], ascending, as (q, p, f): 2 = 2**1
    and each p**f with f >= 2.  primes is a 0/1 prime sieve up to isqrt(hi)
    at least.  The squares' p are the primes from isqrt(lo - 1) + 1 up, and
    the loop over the p of the higher powers stops at hi**(1/3), so a call
    for a window of 2**17 integers near 2**40 reads 1,266 primes, not all
    82,025 of the base sieve."""
    root = math.isqrt(max(hi, 0))
    least = math.isqrt(max(lo - 1, 0)) + 1  # the least p with p * p >= lo
    view = memoryview(primes)
    higher = [(p * p, p, 2) for p in itertools.compress(range(least, root + 1), view[least : root + 1])]
    if lo <= 2 <= hi:
        higher.append((2, 2, 1))
    for p in itertools.compress(range(root + 1), view[: root + 1]):
        q, f = p**3, 3
        if q > hi:
            break
        while q <= hi:
            if q >= lo:
                higher.append((q, p, f))
            q, f = q * p, f + 1
    return sorted(higher)


def _cut(
    higher: list[tuple[int, int, int]], first: int, stop: int, flags: Callable[[int, int], bytes]
) -> Iterator[tuple[QSet, int | None, int]]:
    """The q-sets of [first, stop), odd first: a run of the odd numbers up to
    each higher prime power (q, p, f) of higher, in turn, that power alone,
    and a last run up to stop.  flags(a, b) gives the run's 0/1 prime flags
    of the odd numbers in [a, b)."""
    for q, p, f in higher:
        yield (range(first, q, 2), flags(first, q)), None, 1
        yield (range(q, q + 1), b"\x01"), p, f
        first = (q + 1) | 1
    yield (range(first, stop, 2), flags(first, stop)), None, 1


def prime_runs(table: bytes | bytearray, lo: int, hi: int) -> Iterator[tuple[QSet, int | None, int]]:
    """The prime powers q with lo <= q <= hi as q-sets (qs, p, f), ascending.

    Runs of primes and higher prime powers alternate, and the last is a
    run.  A run's odds are the odd numbers between two higher prime
    powers, its flags their stepped slice of the table translated to 0
    and 1, with p None, since each prime is its own p, and f 1; a run may
    hold no prime.  A higher prime power q = p**f, 2 = 2**1 or a p**f with
    f >= 2, comes alone, as ``((range(q, q + 1), b"\\x01"), p, f)``.

    table is any byte table longer than hi whose entries equal to 1 are
    exactly the primes: a `prime_sieve` or an `omega_table`.  The runs
    are cut by `_cut`, the one run-cutter, which `prime_runs_in_range`
    shares; no list of the whole range is ever held.
    """
    root = math.isqrt(max(hi, 0))
    higher = _higher_powers(table[: root + 1].translate(_IS_ONE), lo, hi)
    return _cut(higher, max(lo, 3) | 1, hi + 1, lambda a, b: table[a:b:2].translate(_IS_ONE))


_WINDOW = 1 << 16  # odd numbers per window of `prime_runs_in_range`, 64 KiB of flags
_RANGE_LIMIT = 1 << 52  # exclusive bound on its hi: a base sieve of at most 2**26 bytes


def prime_runs_in_range(lo: int, hi: int) -> Iterator[tuple[QSet, int | None, int]]:
    """The q-sets of ``prime_runs(prime_sieve(hi), lo, hi)``, by a segmented
    sieve of Eratosthenes (C. Bays and R. H. Hudson, BIT 17, 1977), so that
    its memory is a base sieve of isqrt(hi) + 1 bytes and one window.

    The base sieve runs up to isqrt(hi).  The odd numbers from lo up are
    then sieved by its primes in windows of 2**16 odds, one at a time, and
    each window is cut at its higher prime powers by `_cut`.  So the
    stream is ``prime_runs``' with its runs also cut at each window's end;
    a window edge may leave a run in two parts, or an empty one, and
    higher prime powers and runs still come in ascending order.

    The range is checked and the base sieve built when this is called, so
    OverflowError for hi >= 2**63, MemoryError for hi >= 2**52 (a base
    sieve past 2**26 bytes, 64 MiB) and the base sieve's own MemoryError
    come from the call, not from the first q-set.
    """
    if hi >= MAX_VALUE:
        raise OverflowError(f"range end {hi} is out of range: must be below 2**63")
    if hi >= _RANGE_LIMIT:
        raise MemoryError(f"a range up to {hi} needs a base sieve past 2**26 bytes")
    base = prime_sieve(math.isqrt(max(hi, 0)))
    return _windows(base, lo, hi)


def _windows(base: bytearray, lo: int, hi: int) -> Iterator[tuple[QSet, int | None, int]]:
    """`_cut` of each window of `_WINDOW` odd numbers from lo up to hi, at
    the higher prime powers from the last window's end (from lo, for the
    first) up to its own; at least one window, so that a range with no odd
    number still yields its higher powers."""
    start = max(lo, 3) | 1
    for first in range(start, max(hi, start) + 1, 2 * _WINDOW):
        stop = min(first + 2 * _WINDOW, hi + 1)
        flags = _odd_prime_flags(base, first, stop)
        higher = _higher_powers(base, lo, stop - 1)
        # range(a, b, 2) with odd a >= first and b >= first - 1 (a window
        # with no odd number has no flags) is flags[i:j] with i, j their
        # indices: j = len(range(first, b, 2))
        yield from _cut(higher, first, stop, lambda a, b: flags[(a - first) // 2 : (b - first + 1) // 2])
        del flags  # before the next window is built, so that two are never held
        lo = stop


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
