"""Maximal subgroups of PSL(2,q) with orders and indices.

The catalog follows the standard classification: one generic list for
q = 2^f >= 8, one for odd q >= 13 driven by congruence conditions on q,
and fixed lists for q in {7, 9, 11} where several generic entries fail
maximality.  Two extra fixed lists cover the maximal subgroups of
PGL(2,7) and PGL(2,11) that do not contain the socle.

Only isomorphism type, order and index are tracked; conjugacy-class
multiplicity never enters the index arithmetic built on top of this.
"""

from __future__ import annotations

from typing import NamedTuple

from .arithmetic import MAX_VALUE, divisors, is_prime, omega
from .groups import PrimePower


class MaximalSubgroup(NamedTuple):
    structure: str
    family: str
    order: int
    index: int
    omega_index: int


def psl2_order(q: PrimePower) -> int:
    """|PSL(2,q)| = q(q^2 - 1)/gcd(2, q - 1)."""
    n = q.q
    return n * (n * n - 1) // (1 if q.p == 2 else 2)


def pgl2_order(q: int) -> int:
    """|PGL(2,q)| = q(q^2 - 1)."""
    return q * (q * q - 1)


def _entry(structure: str, family: str, order: int, group: str, group_order: int) -> MaximalSubgroup:
    index = group_order // order
    if index * order != group_order:
        raise AssertionError(f"order {order} does not divide {group_order}")
    if index >= MAX_VALUE:
        raise OverflowError(f"the index of {structure} in {group} is out of range: must be below 2**63")
    return MaximalSubgroup(structure, family, order, index, omega(index))


# Fixed catalogs: (structure, family, order).
_ATLAS_PSL = {
    7: (("C7:C3", "borel", 21), ("S4", "sym4", 24)),
    9: (("A5", "alt5", 60), ("3^2:4", "borel", 36), ("S4", "sym4", 24)),
    11: (("A5", "alt5", 60), ("C11:C5", "borel", 55), ("D12", "dihedral_plus", 12)),
}
_ATLAS_PGL = {
    7: (("(C7:C3):C2", "borel", 42), ("D16", "dihedral_minus", 16), ("D12", "dihedral_plus", 12)),
    11: (
        ("(C11:C5):C2", "borel", 110),
        ("D24", "dihedral_minus", 24),
        ("S4", "sym4", 24),
        ("D20", "dihedral_plus", 20),
    ),
}


def maximal_subgroups(q: PrimePower) -> list[MaximalSubgroup]:
    """The maximal subgroups of PSL(2,q), for q >= 7.

    Errors on q < 7; for odd q the generic congruence list applies only
    from q = 13 on, the three smaller odd prime powers use fixed catalogs.
    """
    n, p, f = q.q, q.p, q.f
    if n < 7:
        raise ValueError(f"maximal subgroup catalog starts at q = 7, got {n}")
    group, group_order = f"PSL(2,{n})", psl2_order(q)

    if p == 2:
        entries = [
            (f"2^{f}:{n - 1}", "borel", n * (n - 1)),
            (f"D{2 * (n - 1)}", "dihedral_minus", 2 * (n - 1)),
            (f"D{2 * (n + 1)}", "dihedral_plus", 2 * (n + 1)),
        ]
        for r in filter(is_prime, divisors(f)):
            q0 = 2 ** (f // r)
            if q0 != 2:
                # PGL(2,q0) = PSL(2,q0) in characteristic 2
                entries.append((f"PGL(2,{q0})", "subfield_pgl", pgl2_order(q0)))
        return [_entry(*e, group, group_order) for e in entries]

    if n in _ATLAS_PSL:
        return [_entry(*e, group, group_order) for e in _ATLAS_PSL[n]]

    borel = f"{p}:{(n - 1) // 2}" if f == 1 else f"{p}^{f}:{(n - 1) // 2}"
    entries = [
        (borel, "borel", n * (n - 1) // 2),
        (f"D{n - 1}", "dihedral_minus", n - 1),
        (f"D{n + 1}", "dihedral_plus", n + 1),
    ]
    if f % 2 == 0:
        q0 = p ** (f // 2)
        entries.append((f"PGL(2,{q0})", "subfield_pgl", pgl2_order(q0)))
    for r in filter(is_prime, divisors(f)):
        if r % 2:
            q0 = p ** (f // r)
            entries.append((f"PSL(2,{q0})", "subfield_psl", pgl2_order(q0) // 2))
    if n % 10 in (1, 9) and (f == 1 or (f == 2 and p % 10 in (3, 7))):
        entries.append(("A5", "alt5", 60))
    if f == 1 and n % 8 in (3, 5) and n % 10 not in (1, 9):
        entries.append(("A4", "alt4", 12))
    if f == 1 and n % 8 in (1, 7):  # at q = p^2, S4 lies in the subfield PGL(2,p)
        entries.append(("S4", "sym4", 24))
    return [_entry(*e, group, group_order) for e in entries]


def pgl_maximals_special(q: int) -> list[MaximalSubgroup]:
    """Maximal subgroups of PGL(2,q) not containing PSL(2,q), for q in {7, 11}."""
    if q not in _ATLAS_PGL:
        raise ValueError(f"special PGL catalog exists only for q in {{7, 11}}, got {q}")
    group, group_order = f"PGL(2,{q})", pgl2_order(q)
    return [_entry(*e, group, group_order) for e in _ATLAS_PGL[q]]
