"""Re-check a ``psl2cd sweep --format json`` or ``check --format json``
report with no code of the package.

    python -m psl2cd sweep --qmin 7 --qmax 65536 --format json | python3 tests/recheck.py
    python -m psl2cd check --degrees 1,12,24,60 --format json | python3 tests/recheck.py
    python3 tests/recheck.py report.json

Stdlib only; it imports nothing of psl2cd, so it shares no code with what
wrote the report.  A ``check`` report, {degrees, pass, violations}, is
held to the pair check below: its degrees ascending positive integers,
its violations exactly the breaking pairs and its pass true exactly when
there are none.  Of a sweep report it checks:

* that the verdicts are one per proper extension S < H <= Aut(S), S =
  PSL(2,q), of every prime power q in [q_min, q_max], in (q, kind, d)
  order.  The prime powers come from its own segmented sieve.  The
  extensions are the subgroups of Out(S), C_f for p = 2 and C2 x C_f for
  odd p, found by closure, with the kind and d that the report names them
  by, and each name must fit its q, kind and d;
* every pair of each verdict's degrees, none skipped.  A pair breaks the
  two-prime condition when its gcd has at least three prime factors
  counted with multiplicity (Omega by trial division).  ``violations`` must
  be exactly the breaking pairs, in (a, b) order, with their gcd and
  Omega.  ``pass`` must say that there are none, and ``agree`` that the
  group fails or matches a row;
* that each degree-mismatch entry names a verdict of the report, in
  order, and only rows that verdict matched;
* the summary counts, and that nothing overflowed.

It checks neither the degrees themselves nor which rows a group matches:
those come from the closed form for cd(H) and from the paper's table.
Trial division bounds it to reports whose gcds are below about 10**12.

Exit 0 when the report passes; otherwise exit 1, with one line on stderr
for each of the first 20 problems.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from typing import Iterator

KINDS = ("untwisted", "with_diagonal", "twisted")  # the report's order of kinds within a q
CHECK_KEYS = {"degrees", "pass", "violations"}  # a check report: one degree set and its verdict
SWEEP_KEYS = {"q_min", "q_max", "degree_mismatches", "overflowed", "summary", "verdicts"}


def prime_powers(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(q, p, f) with q = p**f for every prime power q in [lo, hi],
    ascending: primes up to sqrt(hi) by a sieve of Eratosthenes, then the
    window [lo, hi] sieved by them."""
    root = math.isqrt(hi)
    small = bytearray([1]) * (root + 1)
    small[:2] = b"\0\0"
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i :: i] = bytes(len(range(i * i, root + 1, i)))
    base = list(itertools.compress(range(root + 1), small))
    window = bytearray([1]) * (hi - lo + 1)
    for p in base:
        start = max(p * p, -(-lo // p) * p) - lo
        window[start::p] = bytes(len(range(start, hi - lo + 1, p)))
    found = {q: (q, 1) for q in itertools.compress(range(lo, hi + 1), window) if q >= 2}
    for p in base:
        q, f = p * p, 2
        while q <= hi:
            if q >= lo:
                found[q] = (p, f)
            q, f = q * p, f + 1
    return sorted((q, p, f) for q, (p, f) in found.items())


@functools.lru_cache(maxsize=None)
def extensions(f: int, odd: bool) -> tuple[tuple[str, int], ...]:
    """(kind, d) of every nontrivial subgroup K of Out(S), as pairs (e, k)
    of delta^e * phi^k in C2 x C_f (e = 0 alone when p = 2), in the
    report's order.  Each K is its field part F = K n <phi>, cyclic, plus
    any one element outside F.  K is untwisted when K = F, with d = |K|;
    with_diagonal when delta is in K, with d = |F|; and twisted otherwise,
    with d = |K|, generated by delta * phi^(f/d)."""
    found = set()
    for e in (e for e in range(1, f + 1) if f % e == 0):
        for extra in [(0, 0), *((1, k) for k in range(f))] if odd else [(0, 0)]:
            found.add(frozenset(_closure([(0, f // e % f), extra], f)))
    subgroups = []
    for group in found:
        field = sum(1 for e, _ in group if e == 0)
        if field == len(group):
            kind, d = "untwisted", field
        elif (1, 0) in group:
            kind, d = "with_diagonal", field
        else:
            kind, d = "twisted", len(group)
        if (kind, d) != ("untwisted", 1):
            subgroups.append((kind, d))
    return tuple(sorted(subgroups, key=lambda kd: (KINDS.index(kd[0]), kd[1])))


def _closure(elements: list[tuple[int, int]], f: int) -> set[tuple[int, int]]:
    """The subgroup of C2 x C_f generated by elements."""
    group = {(0, 0)}
    frontier = list(group)
    while frontier:
        a, b = frontier.pop()
        for e, k in elements:
            product = ((a + e) % 2, (b + k) % f)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


def name(q: int, f: int, kind: str, d: int) -> str:
    """The structure name of PSL(2,q) extended by the subgroup (kind, d)."""
    phi = f"phi^{f // d}"
    if kind == "untwisted":
        return f"PSL(2,{q}).<{phi}>"
    if kind == "with_diagonal":
        return f"PGL(2,{q})" if d == 1 else f"PGL(2,{q}).<{phi}>"
    return f"PSL(2,{q}).<delta*{phi}>"


@functools.lru_cache(maxsize=None)
def omega(n: int) -> int:
    """Prime factors of n >= 1 counted with multiplicity, by trial division."""
    count, m, r = 0, n, 2
    while r * r <= m:
        while m % r == 0:
            m, count = m // r, count + 1
        r += 1 if r == 2 else 2
    return count + (m > 1)


def breaking_pairs(degrees: list[int]) -> list[dict]:
    """Every pair a < b of degrees whose gcd has Omega >= 3, in (a, b) order,
    as the report's violation entries."""
    pairs = []
    for a, b in itertools.combinations(degrees, 2):
        g = math.gcd(a, b)
        if g >= 8 and (om := omega(g)) >= 3:  # Omega(g) >= 3 needs g >= 2**3
            pairs.append({"a": a, "b": b, "gcd": g, "omega": om})
    return pairs


def pair_problems(label: str, entry: dict) -> Iterator[str]:
    """Each way the degrees, violations and pass of a verdict or a check
    report break the pair check, as one line starting with label."""
    degrees = entry["degrees"]
    if degrees[0] < 1 or any(a >= b for a, b in zip(degrees, degrees[1:])):
        yield f"{label}: degrees are not ascending positive integers"
        return
    if entry["violations"] != (expected := breaking_pairs(degrees)):
        yield f"{label}: violations are not {expected}"
    if entry["pass"] is not (not entry["violations"]):
        yield f"{label}: pass is {entry['pass']} with {len(entry['violations'])} violations"


def expected_groups(q_min: int, q_max: int) -> Iterator[tuple[int, dict]]:
    """(q, group entry) of every verdict the report must hold, in order."""
    for q, p, f in prime_powers(q_min, q_max):
        for kind, d in extensions(f, p != 2):
            yield q, {"kind": kind, "d": d, "name": name(q, f, kind, d)}


def problems(report: dict) -> Iterator[str]:
    """Each way the report breaks a check, as one line."""
    if set(report) == CHECK_KEYS:
        yield from pair_problems("the degree set", report)
        return
    if set(report) != SWEEP_KEYS:
        yield f"top-level keys {sorted(report)} are neither {sorted(SWEEP_KEYS)} nor {sorted(CHECK_KEYS)}"
        return
    verdicts = report["verdicts"]
    got = [(v["q"], v["group"]) for v in verdicts]
    expected = list(expected_groups(report["q_min"], report["q_max"]))
    if got != expected:
        i = next((i for i, pair in enumerate(zip(got, expected)) if pair[0] != pair[1]), min(len(got), len(expected)))
        yield f"{len(got)} verdicts where {len(expected)} are expected; they differ first at verdict {i}"
    for i, v in enumerate(verdicts):
        yield from pair_problems(f"verdict {i} ({v['group']['name']})", v)
        if v["agree"] is not (not v["pass"] or bool(v["rows"])):
            yield f"verdict {i} ({v['group']['name']}): agree is {v['agree']} with pass {v['pass']}, rows {v['rows']}"
    index = {(v["q"], v["group"]["name"]): i for i, v in enumerate(verdicts)}
    last = -1
    for entry in report["degree_mismatches"]:
        i = index.get((entry["q"], entry["group"]), -1)
        if i <= last or not entry["rows"] or not set(entry["rows"]) <= set(verdicts[i]["rows"]):
            yield f"degree mismatch {entry} names no later verdict with those rows"
        last = max(i, last)
    summary = {
        "groups": len(verdicts),
        "passing": sum(v["pass"] for v in verdicts),
        "disagreements": sum(not v["agree"] for v in verdicts),
        "converse_anomalies": sum(bool(v["rows"]) and not v["pass"] for v in verdicts),
        "degree_mismatches": len(report["degree_mismatches"]),
    }
    if report["summary"] != summary:
        yield f"summary {report['summary']} is not {summary}"
    if report["overflowed"] != []:
        yield f"overflowed is {report['overflowed']}, not []"


def main(argv: list[str]) -> int:
    try:
        with open(argv[0]) if argv else sys.stdin as source:
            report = json.load(source)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read a JSON report: {exc}", file=sys.stderr)
        return 1
    try:
        found = list(itertools.islice(problems(report), 20))
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        found = [f"malformed report: {exc!r}"]
    for line in found:
        print(line, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
