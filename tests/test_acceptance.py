"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run under pytest (``pytest tests/test_acceptance.py -v -s``) or standalone
(``python3 tests/test_acceptance.py``), which prints the per-criterion
lines and exits 0/1.
"""

import math
import random
import sys
import time

from psl2cd.arithmetic import factor, is_prime, prime_power_decompose, prime_sieve, zsigmondy_base2
from psl2cd.classifier import sweep, tally_sweep
from psl2cd.groups import (
    GroupDescriptor,
    OuterKind,
    OuterSubgroup,
    PrimePower,
    character_degrees,
)
from psl2cd.maximals import maximal_subgroups, pgl_maximals_special, psl2_order
from psl2cd.twoprime import check_set

from _oracles import sieve_factorizer
from _runs import prime_powers

U, WD, T = OuterKind.UNTWISTED, OuterKind.WITH_DIAGONAL, OuterKind.TWISTED


def _report(number: int, label: str, started: float) -> None:
    print(f"PASS criterion {number} ({label}) [{time.perf_counter() - started:.2f}s]")


def criterion_1_known_degree_sets() -> None:
    started = time.perf_counter()

    def cd(q, kind, d):
        return character_degrees(
            GroupDescriptor(PrimePower.from_value(q), OuterSubgroup(kind, d))
        )

    assert cd(7, U, 1) == [1, 3, 6, 7, 8]
    assert cd(7, WD, 1) == [1, 6, 7, 8]
    assert cd(8, U, 1) == [1, 7, 8, 9]
    assert cd(8, U, 3) == [1, 7, 8, 21, 27]
    assert cd(9, U, 2)[1:] == [5, 9, 10, 16]  # Sym(6) without the degree 1
    assert cd(9, T, 2)[1:] == [9, 10, 16]  # M10 without the degree 1
    assert cd(9, WD, 1) == [1, 8, 9, 10]
    assert cd(11, U, 1) == [1, 5, 10, 11, 12]
    assert cd(11, WD, 1) == [1, 10, 11, 12]
    _report(1, "known degree sets, exact equality", started)


def criterion_2_classification_sweep() -> None:
    started = time.perf_counter()
    verdicts = sweep(7, 4096)
    assert verdicts, "sweep produced no verdicts"
    tally = tally_sweep(7, 4096)
    assert tally.disagreements == (), [
        (v.descriptor.q.q, v.descriptor.outer) for v in tally.disagreements
    ]
    assert tally.degree_mismatched == (), [
        (v.descriptor.q.q, v.degree_mismatches) for v in tally.degree_mismatched
    ]
    keys = [
        (v.descriptor.q.q, list(OuterKind).index(v.descriptor.outer.kind), v.descriptor.outer.d)
        for v in verdicts
    ]
    assert all(a < b for a, b in zip(keys, keys[1:])), "verdicts are not in (q, kind, d) order"
    _report(2, f"classification sweep 7..4096, {len(verdicts)} groups", started)


def criterion_3_pgl_universality() -> None:
    started = time.perf_counter()
    count = 0
    for q in prime_powers(prime_sieve(1 << 20), 7, 1 << 20):
        p, f = prime_power_decompose(q)
        assert p**f == q
        pp = PrimePower(p, f, q)
        pgl = OuterSubgroup(U if p == 2 else WD, 1)
        degrees = character_degrees(GroupDescriptor(pp, pgl))
        violations = check_set(degrees)
        assert not violations, (q, violations)
        count += 1
    _report(3, f"PGL(2,q) passes for all {count} prime powers up to 2^20", started)


def criterion_4_fact_suite() -> None:
    started = time.perf_counter()
    from psl2cd.facts import verify_all

    for report in verify_all():
        assert report.holds, (report.fact_id, report.counterexamples[:10])
    _report(4, "facts F1..F9 hold over default ranges", started)


def criterion_5_factorization_oracle() -> None:
    started = time.perf_counter()
    oracle = sieve_factorizer(10**6)
    for n in range(2, 10**6 + 1):
        assert factor(n) == oracle(n), n
    rng = random.Random(0x5CD)
    for _ in range(1000):
        n = rng.getrandbits(60) | 1 << 59
        fs = factor(n)
        assert math.prod(p**e for p, e in fs) == n
        assert all(is_prime(p) for p, _ in fs)
        assert [p for p, _ in fs] == sorted({p for p, _ in fs})
    _report(5, "factorization matches a sieve oracle up to 10^6 + 1000 random 60-bit", started)


def criterion_6_primitive_divisors() -> None:
    started = time.perf_counter()
    for n in range(2, 41):
        r = zsigmondy_base2(n)
        if n == 6:
            assert r is None
            continue
        assert r is not None and is_prime(r)
        assert (2**n - 1) % r == 0
        assert all((2**k - 1) % r != 0 for k in range(1, n))
    _report(6, "primitive prime divisors of 2^n - 1 for n in 2..40", started)


def criterion_7_maximal_subgroup_consistency() -> None:
    started = time.perf_counter()
    count = 0
    for q in prime_powers(prime_sieve(4096), 7, 4096):
        p, f = prime_power_decompose(q)
        assert p**f == q
        pp = PrimePower(p, f, q)
        order = psl2_order(pp)
        for entry in maximal_subgroups(pp):
            assert entry.order * entry.index == order, (q, entry)
            count += 1

    def indices(entries):
        return sorted(e.index for e in entries)

    assert indices(maximal_subgroups(PrimePower.from_value(8))) == [9, 28, 36]
    assert indices(maximal_subgroups(PrimePower.from_value(9))) == [6, 10, 15]
    assert indices(maximal_subgroups(PrimePower.from_value(11))) == [11, 12, 55]
    assert indices(pgl_maximals_special(7)) == [8, 21, 28]
    assert indices(pgl_maximals_special(11)) == [12, 55, 55, 66]
    _report(7, f"order * index identity over {count} catalog entries, quoted indices", started)


CRITERIA = (
    criterion_1_known_degree_sets,
    criterion_2_classification_sweep,
    criterion_3_pgl_universality,
    criterion_4_fact_suite,
    criterion_5_factorization_oracle,
    criterion_6_primitive_divisors,
    criterion_7_maximal_subgroup_consistency,
)


def test_criterion_1():
    criterion_1_known_degree_sets()


def test_criterion_2():
    criterion_2_classification_sweep()


def test_criterion_3():
    criterion_3_pgl_universality()


def test_criterion_4():
    criterion_4_fact_suite()


def test_criterion_5():
    criterion_5_factorization_oracle()


def test_criterion_6():
    criterion_6_primitive_divisors()


def test_criterion_7():
    criterion_7_maximal_subgroup_consistency()


def main() -> int:
    failures = 0
    for number, criterion in enumerate(CRITERIA, start=1):
        try:
            criterion()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL criterion {number}: {exc}")
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
