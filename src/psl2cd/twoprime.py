"""The two-prime condition on degree sets.

A set of character degrees satisfies the condition when every pair of
distinct members a != b has gcd(a, b) divisible by at most two primes
counted with multiplicity.  A set's verdict is its tuple of violating
pairs: the set passes exactly when that tuple is empty.

Nothing here is memoized: the sweep decides its groups in
``classifier._decide``, and ``check_set`` is its reference.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple

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


def check_set(degrees: Iterable[int]) -> tuple[Violation, ...]:
    """Every violating pair, sorted by (a, b); empty when the set passes.

    The degree 1 is harmless (its gcd with anything is 1) and may stay in
    the set.  Duplicates and values below 1 are rejected.  Raises
    OverflowError naming the pair when a gcd reaches 2**63.
    """
    values = sorted(degrees)
    if any(x == y for x, y in zip(values, values[1:])):
        raise ValueError("degree sets must not contain duplicates")
    if values and values[0] < 1:
        raise ValueError("degrees are positive integers")
    violations = []
    for a, b in itertools.combinations(values, 2):  # a < b, in (a, b) order
        g = math.gcd(a, b)
        if g < 8:  # Omega(g) >= 3 needs g >= 2**3
            continue
        try:
            om = omega(g)
        except OverflowError:
            raise OverflowError(f"gcd({a}, {b}) = {g} is out of range: must be below 2**63") from None
        if om >= 3:
            violations.append(Violation(a, b, g, om))
    return tuple(violations)
