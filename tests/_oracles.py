"""Independent brute-force oracles used to pin expected test values.

These deliberately share no code with the package: plain trial division,
a smallest-prime-factor sieve and direct divisibility checks only.
"""

from __future__ import annotations

import math


def trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n by dividing out 2 and then every odd d with d*d <= n."""
    assert n >= 1
    out = []
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        out.append((2, e))
    d = 3
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def trial_omega(n: int) -> int:
    return sum(e for _, e in trial_division(n))


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return trial_division(n) == ((n, 1),)


def sieve_factorizer(limit: int):
    """A factor function for 1 <= n <= limit, read off a smallest-prime-factor
    table; same output shape as ``trial_division``."""
    spf = list(range(limit + 1))
    # Descending, so each n keeps its smallest divisor i >= 2 with i*i <= n:
    # its smallest prime factor when n is composite.
    for i in range(math.isqrt(limit), 1, -1):
        spf[i * i :: i] = [i] * len(range(i * i, limit + 1, i))

    def factor(n: int) -> tuple[tuple[int, int], ...]:
        assert 1 <= n <= limit
        out = []
        while n > 1:
            p, e = spf[n], 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return tuple(out)

    return factor
