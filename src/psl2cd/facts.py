"""Registry of the standalone number-theoretic facts the classification
arguments lean on, each verified exhaustively over a configurable range.

Facts are data: id, claim text, default range, the smallest value of the
range and a function that returns the range's counterexamples, so new
micro-claims can be registered without touching the verification loop.
Each fact finds its own counterexamples and keeps nothing between calls.
Seven are range facts, which share one loop, `_failing`: the six facts on
exponents test every value of their range, and F5 only the powers of two,
the only q for which q - 1 can be a Mersenne prime.  For such q, q - 1
and q + 1 already have the Mersenne and Fermat forms, so F5 tests only
that both are prime.  A value whose arithmetic passes 2**63 makes the
loop raise OverflowError, naming it with the variable the fact passes
(``f = 64``, or ``n`` for F9), and `verify_fact` prefixes the fact's id.
F6 and F8, which cannot overflow, each build one `omega_table(limit + 1)`,
read Omega from it and test the odd q of `prime_powers(table, start,
limit)` in a list comprehension; `omega` stays unmemoized.
Every fact is expected to hold with zero counterexamples; a counterexample
would contradict a step of the classification and is treated as a failure
by the CLI and the acceptance suite.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

from .arithmetic import (
    MAX_VALUE,
    is_prime,
    omega,
    omega_at_least,
    omega_table,
    prime_powers,
    zsigmondy_base2,
)


class Fact(NamedTuple):
    """One claim checked over [start, limit].

    `counterexamples(limit)` returns the failing values of the range in
    ascending order; a limit below `start` leaves the range empty.
    `range_text` is a format string that takes the limit.
    """

    fact_id: str
    claim: str
    default_limit: int
    start: int
    counterexamples: Callable[[int], list[int]]
    range_text: str


class FactReport(NamedTuple):
    fact_id: str
    claim: str
    range_tested: str
    counterexamples: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return not self.counterexamples


def _failing(variable: str, values: Iterable[int], holds: Callable[[int], bool]) -> list[int]:
    """The values at which holds is false.  A value whose arithmetic passes
    2**63 raises OverflowError, which names it as variable = value."""
    failing = []
    for value in values:
        try:
            value_holds = holds(value)
        except OverflowError:
            raise OverflowError(
                f"{variable} = {value} is out of range: the numbers it factors must be below 2**63"
            ) from None
        if not value_holds:
            failing.append(value)
    return failing


def _prime_or_prime_square(n: int) -> bool:
    if is_prime(n):
        return True
    root = math.isqrt(n)
    return root * root == n and is_prime(root)


def _mersenne_fermat_window(q: int) -> bool:
    # F5's q are powers of two, so q - 1 and q + 1 already have the Mersenne
    # and Fermat forms: 2**k + 1 prime forces k to be a power of two.
    return not (is_prime(q - 1) and is_prime(q + 1))


def _omega_split_power4(f: int) -> bool:
    # 4^f - 1 = (2^f - 1)(2^f + 1) with coprime (odd, consecutive-even) halves,
    # so Omega adds; this keeps both factored values below 2**63 for f <= 62.
    return omega((1 << f) - 1) + omega((1 << f) + 1) >= 3


def _omega_q_minus_eps_counterexamples(limit: int) -> list[int]:
    """F6 for odd prime powers q in [7, limit]: Omega(q - eps) >= 3, eps = q (mod 4)."""
    table = omega_table(limit + 1)
    return [q for q in prime_powers(table, 7, limit) if q & 1 and table[q - 1 if q % 4 == 1 else q + 1] < 3]


def _omega_either_neighbour_counterexamples(limit: int) -> list[int]:
    """F8 for odd prime powers q in [13, limit]: Omega(q - 1) >= 3 or Omega(q + 1) >= 3."""
    table = omega_table(limit + 1)
    return [q for q in prime_powers(table, 13, limit) if q & 1 and table[q - 1] < 3 and table[q + 1] < 3]


_FACT_LIST = (
    # Fact(fact_id, claim, default_limit, start, counterexamples, range_text)
    Fact(
        "F1", "for odd f > 1: 4 divides 5^f - 1 and Omega(5^f - 1) >= 3", 40, 3,
        lambda limit: _failing(
            "f", range(3, limit + 1, 2), lambda f: (5**f - 1) % 4 == 0 and omega_at_least(5**f - 1, 3)
        ),
        "odd f in [3, {}]",
    ),
    Fact(
        "F2", "8 divides 3^f - 1 whenever f = 2 (mod 4)", 40, 2,
        lambda limit: _failing("f", range(2, limit + 1, 4), lambda f: pow(3, f, 8) == 1),
        "f = 2 (mod 4), f in [2, {}]",
    ),
    Fact(
        "F3", "3 divides 2^f - 1 exactly when f is even", 40, 1,
        lambda limit: _failing("f", range(1, limit + 1), lambda f: (pow(2, f, 3) == 1) == (f % 2 == 0)),
        "f in [1, {}]",
    ),
    Fact(
        "F4", "Omega(2^f - 1) <= 2 forces f to be a prime or the square of a prime", 40, 2,
        lambda limit: _failing(
            "f", range(2, limit + 1), lambda f: omega((1 << f) - 1) > 2 or _prime_or_prime_square(f)
        ),
        "f in [2, {}]",
    ),
    Fact(
        "F5", "for q > 5: q - 1 a Mersenne prime and q + 1 a Fermat prime never hold together", 10**6, 6,
        lambda limit: _failing("q", (1 << k for k in range(3, limit.bit_length())), _mersenne_fermat_window),
        "q in [6, {}]",
    ),
    Fact(
        "F6", "Omega(q - eps) >= 3 for odd prime powers q >= 7, where q = eps (mod 4)", 10**6, 7,
        _omega_q_minus_eps_counterexamples,
        "odd prime powers q in [7, {}]",
    ),
    Fact(
        "F7", "Omega(4^f - 1) >= 3 for f >= 4", 40, 4,
        lambda limit: _failing("f", range(4, limit + 1), _omega_split_power4),
        "f in [4, {}]",
    ),
    Fact(
        "F8", "Omega(q - 1) >= 3 or Omega(q + 1) >= 3 for odd prime powers q >= 13", 10**6, 13,
        _omega_either_neighbour_counterexamples,
        "odd prime powers q in [13, {}]",
    ),
    Fact(
        "F9", "2^n - 1 has a primitive prime divisor for every n >= 2 except n = 6", 40, 2,
        lambda limit: _failing(
            "n", (n for n in range(2, limit + 1) if n != 6), lambda n: zsigmondy_base2(n) is not None
        ),
        "n in [2, {}], n != 6",
    ),
)

FACTS: dict[str, Fact] = {fact.fact_id: fact for fact in _FACT_LIST}


def verify_fact(fact_id: str, limit: int | None = None) -> FactReport:
    """Exhaustively check one fact over its range; collects every counterexample.

    Raises ValueError when the limit is below the fact's start, so that no
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
    range_text = fact.range_text.format(bound)
    if bound < fact.start:
        raise ValueError(f"{fact.fact_id}: limit {bound} leaves nothing to check ({range_text})")
    try:
        counterexamples = tuple(fact.counterexamples(bound))
    except OverflowError as exc:
        raise OverflowError(f"{fact.fact_id}: {exc}") from None
    return FactReport(fact.fact_id, fact.claim, range_text, counterexamples)


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
