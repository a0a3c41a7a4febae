"""Registry of the standalone number-theoretic facts the classification
arguments lean on, each verified exhaustively over a configurable range.

Facts are data: id, claim text, default range, and a test, so new
micro-claims can be registered without touching the verification loop.
A fact's test is built once per range: `Fact.test(limit)` returns the
predicate every value is checked with.  F6 and F8 share one cached range
(`_omega_sieve`, at most one entry): the `omega_table(limit + 1)` they
read Omega from and the odd prime powers they run over, so the default
check builds each once.  F5's test looks q up in the counterexamples
found once per range among the powers of two, the only q for which
q - 1 can be a Mersenne prime.  The other facts' predicates do not
depend on the range, and `omega` itself stays unmemoized.
Every fact is expected to hold with zero counterexamples; a counterexample
would contradict a step of the classification and is treated as a failure
by the CLI and the acceptance suite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .arithmetic import (
    MAX_VALUE,
    is_fermat_prime,
    is_mersenne_prime,
    is_prime,
    omega,
    omega_at_least,
    omega_table,
    prime_powers_in_range,
    zsigmondy_base2,
)


@dataclass(frozen=True)
class Fact:
    fact_id: str
    claim: str
    default_limit: int
    values: Callable[[int], Iterable[int]]
    test: Callable[[int], Callable[[int], bool]]
    range_text: Callable[[int], str]
    variable: str


@dataclass(frozen=True)
class FactReport:
    fact_id: str
    claim: str
    range_tested: str
    counterexamples: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def _any_limit(predicate: Callable[[int], bool]) -> Callable[[int], Callable[[int], bool]]:
    """The test of a fact whose predicate does not depend on the range."""
    return lambda limit: predicate


def _prime_or_prime_square(n: int) -> bool:
    if is_prime(n):
        return True
    root = math.isqrt(n)
    return root * root == n and is_prime(root)


def _mersenne_fermat_window(q: int) -> bool:
    return not (is_mersenne_prime(q - 1) and is_fermat_prime(q + 1))


def _mersenne_fermat_test(limit: int) -> Callable[[int], bool]:
    """F5's predicate for q <= limit, from its counterexamples found once.

    q - 1 = 2**k - 1 forces q = 2**k, so only the powers of two up to
    limit (q = 4 among them) can fail the window.
    """
    powers_of_two = (1 << k for k in range(1, limit.bit_length()))
    failing = frozenset(q for q in powers_of_two if not _mersenne_fermat_window(q))
    return lambda q: q not in failing


def _omega_split_power4(f: int) -> bool:
    # 4^f - 1 = (2^f - 1)(2^f + 1) with coprime (odd, consecutive-even) halves,
    # so Omega adds; this keeps both factored values below 2**63 for f <= 62.
    return omega((1 << f) - 1) + omega((1 << f) + 1) >= 3


@functools.lru_cache(maxsize=1)
def _omega_sieve(limit: int) -> tuple[memoryview, tuple[int, ...]]:
    """Omega(n) for 0 <= n <= limit + 1 and the odd prime powers in [7, limit].

    F6 and F8 check the same default range, so both read this one entry;
    a call with another limit replaces it, so at most one range is held.
    The table is read-only because every caller shares it.
    """
    table = memoryview(omega_table(limit + 1)).toreadonly()
    return table, tuple(q for q, p, _ in prime_powers_in_range(7, limit) if p != 2)


def _omega_q_minus_eps(limit: int) -> Callable[[int], bool]:
    """F6's predicate for q <= limit: Omega(q - eps) >= 3, eps = q (mod 4)."""
    table = _omega_sieve(limit)[0]
    return lambda q: table[q - 1 if q % 4 == 1 else q + 1] >= 3


def _omega_either_neighbour(limit: int) -> Callable[[int], bool]:
    """F8's predicate for q <= limit: Omega(q - 1) >= 3 or Omega(q + 1) >= 3."""
    table = _omega_sieve(limit)[0]
    return lambda q: table[q - 1] >= 3 or table[q + 1] >= 3


_FACT_LIST = (
    Fact(
        "F1",
        "for odd f > 1: 4 divides 5^f - 1 and Omega(5^f - 1) >= 3",
        40,
        lambda limit: range(3, limit + 1, 2),
        _any_limit(lambda f: (5**f - 1) % 4 == 0 and omega_at_least(5**f - 1, 3)),
        lambda limit: f"odd f in [3, {limit}]",
        "f",
    ),
    Fact(
        "F2",
        "8 divides 3^f - 1 whenever f = 2 (mod 4)",
        40,
        lambda limit: range(2, limit + 1, 4),
        _any_limit(lambda f: pow(3, f, 8) == 1),
        lambda limit: f"f = 2 (mod 4), f in [2, {limit}]",
        "f",
    ),
    Fact(
        "F3",
        "3 divides 2^f - 1 exactly when f is even",
        40,
        lambda limit: range(1, limit + 1),
        _any_limit(lambda f: (pow(2, f, 3) == 1) == (f % 2 == 0)),
        lambda limit: f"f in [1, {limit}]",
        "f",
    ),
    Fact(
        "F4",
        "Omega(2^f - 1) <= 2 forces f to be a prime or the square of a prime",
        40,
        lambda limit: range(2, limit + 1),
        _any_limit(lambda f: omega((1 << f) - 1) > 2 or _prime_or_prime_square(f)),
        lambda limit: f"f in [2, {limit}]",
        "f",
    ),
    Fact(
        "F5",
        "for q > 5: q - 1 a Mersenne prime and q + 1 a Fermat prime never hold together",
        10**6,
        lambda limit: range(6, limit + 1),
        _mersenne_fermat_test,
        lambda limit: f"q in [6, {limit}]",
        "q",
    ),
    Fact(
        "F6",
        "Omega(q - eps) >= 3 for odd prime powers q >= 7, where q = eps (mod 4)",
        10**6,
        lambda limit: _omega_sieve(limit)[1],
        _omega_q_minus_eps,
        lambda limit: f"odd prime powers q in [7, {limit}]",
        "q",
    ),
    Fact(
        "F7",
        "Omega(4^f - 1) >= 3 for f >= 4",
        40,
        lambda limit: range(4, limit + 1),
        _any_limit(_omega_split_power4),
        lambda limit: f"f in [4, {limit}]",
        "f",
    ),
    Fact(
        "F8",
        "Omega(q - 1) >= 3 or Omega(q + 1) >= 3 for odd prime powers q >= 13",
        10**6,
        # 7, 9 and 11 are the odd prime powers below 13
        lambda limit: itertools.islice(_omega_sieve(limit)[1], 3, None),
        _omega_either_neighbour,
        lambda limit: f"odd prime powers q in [13, {limit}]",
        "q",
    ),
    Fact(
        "F9",
        "2^n - 1 has a primitive prime divisor for every n >= 2 except n = 6",
        40,
        lambda limit: (n for n in range(2, limit + 1) if n != 6),
        _any_limit(lambda n: zsigmondy_base2(n) is not None),
        lambda limit: f"n in [2, {limit}], n != 6",
        "n",
    ),
)

FACTS: dict[str, Fact] = {fact.fact_id: fact for fact in _FACT_LIST}


def verify_fact(fact_id: str, limit: int | None = None) -> FactReport:
    """Exhaustively check one fact over its range; collects every counterexample.

    The fact's test is built once for the range, then applied to each value.
    Raises ValueError when the limit leaves the range empty, so that no
    fact holds vacuously, and OverflowError for a limit of 2**63 or more,
    as for every other range end, or for a value whose arithmetic leaves
    that range; the message names the fact and that value.
    """
    fact = FACTS.get(fact_id)
    if fact is None:
        raise ValueError(f"unknown fact {fact_id!r}; known: {', '.join(FACTS)}")
    bound = fact.default_limit if limit is None else limit
    if bound >= MAX_VALUE:
        raise OverflowError(f"{fact.fact_id}: limit {bound} is out of range: must be below 2**63")
    values = iter(fact.values(bound))
    first = next(values, None)
    if first is None:
        raise ValueError(f"{fact.fact_id}: limit {bound} leaves nothing to check ({fact.range_text(bound)})")
    test = fact.test(bound)
    try:
        counterexamples = tuple(itertools.filterfalse(test, itertools.chain((first,), values)))
    except OverflowError:
        # The scan does not say which value overflowed, so find it again.
        value = next(v for v in fact.values(bound) if _overflows(test, v))
        raise OverflowError(
            f"{fact.fact_id}: {fact.variable} = {value} is out of range: "
            "the numbers it factors must be below 2**63"
        ) from None
    return FactReport(fact.fact_id, fact.claim, fact.range_text(bound), counterexamples)


def _overflows(test: Callable[[int], bool], value: int) -> bool:
    try:
        test(value)
    except OverflowError:
        return True
    return False


def verify_all() -> list[FactReport]:
    """Every registered fact at its default range."""
    return [verify_fact(fact_id) for fact_id in FACTS]


def fact_report_to_dict(report: FactReport) -> dict:
    """JSON-ready shape: {fact, anchor, range, holds, counterexamples}."""
    return {
        "fact": report.fact_id,
        "anchor": report.claim,
        "range": report.range_tested,
        "holds": report.holds,
        "counterexamples": list(report.counterexamples),
    }
