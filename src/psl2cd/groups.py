"""Almost simple groups with socle PSL(2,q) and their exact degree sets.

A group S <= H <= Aut(S) for S = PSL(2, p^f) is identified by the subgroup
of Out(S) it projects onto.  Out(S) is generated by the field automorphism
phi of order f, together with the diagonal automorphism delta of order 2
when p is odd, so Out(S) is C_f for p = 2 and C2 x C_f for p odd.  Every
subgroup of C2 x C_f is exactly one of

  * <phi^(f/d)>                  UNTWISTED, one per divisor d of f;
  * <delta> x <phi^(f/d)>        WITH_DIAGONAL, one per divisor d of f;
  * <delta * phi^(f/d)>, d even  TWISTED (for odd d this collapses into
                                 the WITH_DIAGONAL subgroup of the same d).

``character_degrees`` is the one statement of the closed form for cd(H):
with Gamma = PGL(2,q) when delta itself lies in H and Gamma = S otherwise,
d = |H : Gamma| = 2^a * m with m odd (the descriptor's d in all three
cases), and eps = +1 or -1 as q = 1 or 3 (mod 4),

    cd(H) = {1, q, (q+eps)/2} u {(q-1)*2^a*i : i | m} u {(q+1)*j : j | d},

where (q+eps)/2 occurs only for odd q and H <= S<phi>, subject to six
exceptional removals at small characteristic.  All of it but q itself is
fixed by H's shape: its (kind, d) and q's ``shape_key``, (f, min(p, 7),
q mod 4).  ``_shape`` states that part, the sign eps included, as degree
forms, ``degree_terms`` lays them out as one q-free term per degree, and
``classifier._q_plans`` keeps those once per shape.  Note the
membership convention: a TWISTED subgroup never contains delta itself (an
even power of delta*phi^(f/d) is a pure field automorphism, an odd power
keeps the delta component tied to a nontrivial field part), so it gets
Gamma = S and no (q+eps)/2 degree.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import NamedTuple

from .arithmetic import MAX_VALUE, divisors, prime_power_decompose


class OuterKind(enum.Enum):
    UNTWISTED = "untwisted"
    WITH_DIAGONAL = "with_diagonal"
    TWISTED = "twisted"


class PrimePower(NamedTuple):
    """A prime power q = p**f with p prime and 4 <= q < 2**63.

    Construction checks nothing.  An outside q comes in through
    ``from_value``, which proves all of it; the sweep builds each
    (p, f, q) from its sieve, where p is prime and q = p**f by
    construction.  The one other caller, ``cli._verdict_template``, builds
    a placeholder whose p and q are its slot marker."""

    p: int
    f: int
    q: int

    @classmethod
    def from_value(cls, q: int) -> "PrimePower":
        """q as p**f, for q a prime power with 4 <= q < 2**63.  Raises
        ``prime_power_decompose``'s ValueError for q < 2 and OverflowError
        for q >= 2**63, and ValueError when q is no prime power or q < 4."""
        decomp = prime_power_decompose(q)
        if decomp is None:
            raise ValueError(f"{q} is not a prime power")
        if q < 4:
            raise ValueError(f"q = {q} < 4 admits no almost simple group here")
        return cls(*decomp, q)


class OuterSubgroup(NamedTuple):
    """A subgroup of Out(PSL(2,q)) in canonical (kind, d) form: d >= 1
    divides f, d is even when TWISTED, and only UNTWISTED occurs for p = 2.
    Construction checks nothing; ``_lattice`` and ``parse_outer`` make
    only such pairs."""

    kind: OuterKind
    d: int


class GroupDescriptor(NamedTuple):
    """One group H with S <= H <= Aut(S), S = PSL(2,q): q with a member of
    its ``enumerate_outer_subgroups`` lattice."""

    q: PrimePower
    outer: OuterSubgroup

    @property
    def is_trivial(self) -> bool:
        """Whether H is S itself."""
        return self.outer.kind is OuterKind.UNTWISTED and self.outer.d == 1


def enumerate_outer_subgroups(q: PrimePower, include_trivial: bool) -> list[OuterSubgroup]:
    """The full subgroup lattice of Out(PSL(2,q)), canonically and without
    duplicates; ``include_trivial=False`` drops only the trivial subgroup.

    Order: untwisted by ascending d, then with-diagonal, then twisted.
    """
    return list(_lattice(q.f, q.p == 2)[0 if include_trivial else 1 :])


# The lattice depends only on f and on whether p = 2, so it is computed once
# per key.  q < 2**63 forces f <= 62, which bounds this cache at 124 keys and
# ``classifier._q_plans``'s at 279 ``shape_key`` keys.
@functools.lru_cache(maxsize=None)
def _lattice(f: int, char_two: bool) -> tuple[OuterSubgroup, ...]:
    """Every subgroup of Out(S), in ``enumerate_outer_subgroups`` order: the
    trivial subgroup, UNTWISTED with d = 1, comes first."""
    divs = divisors(f)
    subs = [OuterSubgroup(OuterKind.UNTWISTED, d) for d in divs]
    if not char_two:
        subs.extend(OuterSubgroup(OuterKind.WITH_DIAGONAL, d) for d in divs)
        subs.extend(OuterSubgroup(OuterKind.TWISTED, d) for d in divs if d % 2 == 0)
    return tuple(subs)


def shape_key(p: int, f: int, q: int) -> tuple[int, int, int]:
    """(f, min(p, 7), q mod 4): all that cd(H) reads of q = p^f but q itself,
    so that with H's (kind, d) it names H's shape.  The removals test p only
    against 2, 3 and 5, so larger primes share a key, and q mod 4 fixes the
    sign of (q+eps)/2.  The arguments are in ``PrimePower``'s field order,
    so ``shape_key(*pp)`` works.  This is the one statement of the key."""
    return f, min(p, 7), q % 4


def _shape(kind: OuterKind, d: int, f: int, p: int, q4: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The q-independent part of ``character_degrees`` for H's (kind, d)
    and q's ``shape_key``: the sign eps of the degree (q+eps)/2, or 0 when
    H has no such degree, and the sorted forms (m, s) of the degrees above
    it and 1, each the degree m*(q + s).  For q >= 4 this is the order of
    the values, which are distinct: with equal m it is by s, and for M > J,
    both dividing d, M(q-1) > J(q+1) exactly when q > (M+J)/(M-J) <=
    2d - 1 < 2^d <= q.  It is not cached: its callers are
    ``classifier._q_plans``, which keeps each shape's plan, and one ``cd``
    command.
    """
    a = (d & -d).bit_length() - 1  # d = 2^a * m with m odd
    # (q+eps)/2 is removed for every H outside S<phi>, and p = 2 has none.
    eps = (1 if q4 == 1 else -1) if p != 2 and kind is OuterKind.UNTWISTED else 0

    # The named degenerations the exceptional removals speak about.  S<phi>
    # only counts as such for f > 1 (otherwise it is S itself), and the full
    # automorphism group in odd characteristic is PGL(2,q).<phi>.
    is_field_ext = kind is OuterKind.UNTWISTED and d == f and f > 1
    is_full_aut = kind is OuterKind.WITH_DIAGONAL and d == f
    is_full_twist = kind is OuterKind.TWISTED and d == f

    forms = {(1, 0), *((i << a, -1) for i in divisors(d >> a)), *((j, 1) for j in divisors(d))}
    if f % 2 and p == 3 and is_field_ext:
        forms.discard((1, -1))  # q - 1
    if f % 2 and p == 3 and is_full_aut:
        forms.discard((1, 1))  # q + 1
    if f % 2 and p in (2, 3, 5) and is_field_ext:
        forms.discard((1, 1))
    if f % 4 == 2 and p in (2, 3) and (is_field_ext or is_full_twist):
        forms.discard((2, 1))  # 2(q + 1)
    if p == 5 and f == 1 and kind is OuterKind.UNTWISTED:  # H = S = A5: (q - 5)/4 = 0 of degree q + 1
        forms.discard((1, 1))
    return eps, tuple(sorted(forms))


def character_degrees(g: GroupDescriptor) -> list[int]:
    """The irreducible character degrees of H in ascending order: the closed
    form of the module docstring, with its q-independent part (the sign of
    the half degree, the index split, the multipliers and the removals)
    taken from ``_shape`` as forms already in the order of their values.
    Raises OverflowError if any degree would reach 2**63."""
    return shape_degrees(g.q.q, degree_terms(*_shape(*g.outer, *shape_key(*g.q))))


def degree_terms(eps: int, forms: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int, int], ...]:
    """The one statement of the degree layout: ``_shape``'s (eps, forms) as
    q-free terms (a, b, k), one per degree, each the degree (a*q + b) // k.
    They are (0, 1, 1) for the degree 1, then (1, eps, 2) for (q+eps)/2 when
    eps is not 0, then (m, m*s, 1) for each form's m*(q + s), so that they
    are in ascending order of their values, as the forms are."""
    half = ((1, eps, 2),) if eps else ()
    return ((0, 1, 1), *half, *((m, m * s, 1) for m, s in forms))


def shape_degrees(q: int, terms: tuple[tuple[int, int, int], ...]) -> list[int]:
    """cd(H) from q and its shape's ``degree_terms``, ascending.  Raises
    OverflowError if the last, largest, degree would reach 2**63."""
    degrees = [(a * q + b) // k for a, b, k in terms]
    if degrees[-1] >= MAX_VALUE:
        raise OverflowError(f"degree {degrees[-1]} is out of range for q = {q}")
    return degrees


def degree_columns(qs: list[int], terms: tuple[tuple[int, int, int], ...]) -> list[list[int]]:
    """``shape_degrees`` of each of the ascending, nonempty qs, by columns:
    one list per term, over the qs, so that ``zip(*columns)`` gives each q's
    degrees.  Raises OverflowError if the largest degree, the last column's
    value at the last q, would reach 2**63."""
    columns = [[(a * q + b) // k for q in qs] for a, b, k in terms]
    if columns[-1][-1] >= MAX_VALUE:
        raise OverflowError(f"degree {columns[-1][-1]} is out of range for q = {qs[-1]}")
    return columns


def group_name(g: GroupDescriptor) -> str:
    """Structure name such as PGL(2,9) or PSL(2,9).<delta*phi^1>."""
    q, f, d = g.q.q, g.q.f, g.outer.d
    if g.outer.kind is OuterKind.UNTWISTED:
        return f"PSL(2,{q})" if d == 1 else f"PSL(2,{q}).<phi^{f // d}>"
    if g.outer.kind is OuterKind.WITH_DIAGONAL:
        return f"PGL(2,{q})" if d == 1 else f"PGL(2,{q}).<phi^{f // d}>"
    return f"PSL(2,{q}).<delta*phi^{f // d}>"


def group_to_dict(g: GroupDescriptor) -> dict:
    """JSON-ready group entry {kind, d, name}, as ``cd`` and each verdict
    write it."""
    return {"kind": g.outer.kind.value, "d": g.outer.d, "name": group_name(g)}


class OuterExpressionError(ValueError):
    """Invalid generator expression; the message ends with its 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")


_TOKEN_RE = re.compile(r"delta(?:\*phi\^(\d+))?|phi\^(\d+)")


def parse_outer(expression: str, q: PrimePower) -> OuterSubgroup:
    """Parse a comma-separated generator list into a canonical subgroup.

    Grammar: tokens ``delta``, ``phi^K`` and ``delta*phi^K`` with
    1 <= K <= f.  The generated subgroup of C2 x C_f is computed by closure
    and reduced to its canonical (kind, d); an empty list yields the
    trivial subgroup (H = S).
    """
    f = q.f
    generators: list[tuple[int, int]] = []
    offset = 0
    pieces = expression.split(",")
    for piece in pieces:
        token = piece.strip()
        position = offset + len(piece) - len(piece.lstrip())
        if token:
            generators.append(_parse_token(token, position, q))
        elif expression.strip():
            raise OuterExpressionError("empty generator", position)
        offset += len(piece) + 1

    elements = {(0, 0)}
    changed = True
    while changed:
        changed = False
        for e, k in list(elements):
            for ge, gk in generators:
                candidate = ((e + ge) % 2, (k + gk) % f)
                if candidate not in elements:
                    elements.add(candidate)
                    changed = True

    field_part = sum(1 for e, _ in elements if e == 0)
    if field_part == len(elements):
        return OuterSubgroup(OuterKind.UNTWISTED, field_part)
    if (1, 0) in elements:
        return OuterSubgroup(OuterKind.WITH_DIAGONAL, field_part)
    return OuterSubgroup(OuterKind.TWISTED, 2 * field_part)


def _parse_token(token: str, position: int, q: PrimePower) -> tuple[int, int]:
    match = _TOKEN_RE.fullmatch(token)
    if not match:
        raise OuterExpressionError(f"unrecognized generator {token!r}", position)
    has_delta = token.startswith("delta")
    if has_delta and q.p == 2:
        raise OuterExpressionError("delta requires odd characteristic", position)
    exponent_text = match.group(1) or match.group(2)
    if exponent_text is None:
        return (1, 0)
    k = int(exponent_text)
    if not 1 <= k <= q.f:
        raise OuterExpressionError(f"exponent {k} out of range 1..{q.f}", position)
    return (1 if has_delta else 0, k % q.f)
