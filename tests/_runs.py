"""The flat stream of prime powers, for tests that want q one at a time."""

from __future__ import annotations

import itertools
from typing import Iterator

from psl2cd.arithmetic import prime_runs


def prime_powers(table: bytes | bytearray, lo: int, hi: int) -> Iterator[int]:
    """The prime powers q with lo <= q <= hi, ascending: the q of each
    q-set of ``prime_runs(table, lo, hi)`` in turn."""
    return itertools.chain.from_iterable(itertools.compress(*qs) for qs, _, _ in prime_runs(table, lo, hi))
