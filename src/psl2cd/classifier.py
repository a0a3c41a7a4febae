"""Classification of proper extensions of PSL(2,q) under the two-prime
condition.

For each prime power q >= 7 and each group S < H <= Aut(S), ``_decide``
computes cd(H) exactly, checks the two-prime condition on the pairs
whose q-free bound leaves Omega(gcd) >= 3 possible (no other pair can
fail), and matches H against the twelve group families known to be the
only possible survivors, and their necessary arithmetic conditions on q;
pairs and families are picked once per shape, in its plan.  Apart from
its degrees, a verdict reads only the plan and Omega(q - 1) and
Omega(q + 1): each kept pair's Omega comes from its recipe in the plan
alone, and each condition is stated on those two values, which the
groups of a q share.  ``sweep_parts`` is the
sweep: one stream of parts of one layout, each a set of q whose groups of
one outer kind and d share a verdict in plain values, which
``tally_sweep`` counts a part at a time, making a ``GroupVerdict`` only
for a group that breaks a claim.  The hard assertion runs in one
direction only: a group that passes the pair check must match some family
whose conditions hold.  The converse -- a matched family whose group
nevertheless fails -- is reported, never assumed absent.

Each family also carries its predicted degree set, in the degree forms of
``groups._shape``; it is cross-checked against the computed one once per
shape, which settles it for every q of the shape, and a matched family
whose prediction differs is surfaced as a mismatch.  The generic f-even
rows predict nothing at q = 9 only, where the explicit Sym(6) / M10 rows
are authoritative (the j = 2 removal trims their printed sets).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, NamedTuple

from .arithmetic import is_prime, omega, omega_table, prime_runs_in_range
from .groups import (
    GroupDescriptor,
    OuterKind,
    OuterSubgroup,
    PrimePower,
    _lattice,
    _shape,
    degree_terms,
    group_to_dict,
    shape_degrees,
    shape_key,
)
from .twoprime import Violation, violation_to_dict

Matcher = Callable[[int, int, int], bool]
Expected = Callable[[int, int, int], tuple[int, set[tuple[int, int]]] | None]
Condition = Callable[[int, Callable[[int], int]], bool]


class TableRow(NamedTuple):
    """One surviving group family: outer kind, shape matcher, predicted
    degree set cd(G) \\ {1}, and necessary arithmetic conditions on q.

    ``kind`` is the row's outer kind, stated only here.  The matcher, the
    row's whole shape test, and the prediction read (d, f, p) with p capped
    at 7, never q, so they run once per shape.  The prediction is in
    ``groups._shape``'s layout, (eps, forms) with the form (m, s) the degree
    m*(q + s) and (q+eps)/2 a degree when eps is not 0, or None where the
    row predicts nothing.  ``conditions`` reads q and, through the function
    it is given, Omega of q - 1 and q + 1 only: ``_decide`` gives it the
    per-q memo of ``omega``, the tests' reference an Omega read off
    ``factor``.  Omega((q - 1)/2) is Omega(q - 1) - 1 for odd q, and q + 1
    is prime when Omega(q + 1) = 1.
    It is None for a row that holds on every q of its shapes.
    """

    row_id: str
    kind: OuterKind
    matcher: Matcher
    expected_degrees: Expected
    conditions: Condition | None = None


def _odd_prime(n: int) -> bool:
    return n % 2 == 1 and is_prime(n)


_ROWS = (
    TableRow(
        "sym6",
        kind=OuterKind.UNTWISTED,
        matcher=lambda d, f, p: p == 3 and f == 2 and d == 2,
        expected_degrees=lambda d, f, p: (1, {(1, 0), (1, 1), (2, -1)}),  # 5, 9, 10, 16
    ),
    TableRow(
        "m10",
        kind=OuterKind.TWISTED,
        matcher=lambda d, f, p: p == 3 and f == 2 and d == 2,
        expected_degrees=lambda d, f, p: (0, {(1, 0), (1, 1), (2, -1)}),  # 9, 10, 16
    ),
    TableRow(
        "pgl",
        kind=OuterKind.WITH_DIAGONAL,
        matcher=lambda d, f, p: d == 1,
        expected_degrees=lambda d, f, p: (0, {(1, -1), (1, 0), (1, 1)}),
    ),
    TableRow(
        "s_phi_p3",
        kind=OuterKind.UNTWISTED,
        matcher=lambda d, f, p: p == 3 and d == f and _odd_prime(f),
        conditions=lambda q, om: om(q - 1) - 1 <= 2,  # Omega((q - 1)/2), q odd
        expected_degrees=lambda d, f, p: (-1, {(1, 0), (f, -1), (f, 1)}),
    ),
    TableRow(
        "aut_p3",
        kind=OuterKind.WITH_DIAGONAL,
        matcher=lambda d, f, p: p == 3 and d == f and _odd_prime(f),
        conditions=lambda q, om: om(q - 1) == 2,
        expected_degrees=lambda d, f, p: (0, {(1, -1), (1, 0), (f, -1), (f, 1)}),
    ),
    TableRow(
        "s_phi_p2",
        kind=OuterKind.UNTWISTED,
        matcher=lambda d, f, p: p == 2 and d == f and _odd_prime(f),
        conditions=lambda q, om: om(q - 1) <= 2,
        expected_degrees=lambda d, f, p: (0, {(1, -1), (1, 0), (f, -1), (f, 1)}),
    ),
    TableRow(
        "s_phi_quarter",
        kind=OuterKind.UNTWISTED,
        matcher=lambda d, f, p: p == 2 and d == 4 and f & (f - 1) == 0,  # a prime 2^f + 1 needs f a power of 2
        conditions=lambda q, om: om(q + 1) == 1,  # q + 1 prime
        expected_degrees=lambda d, f, p: (0, {(1, 0), (4, -1), (1, 1), (2, 1), (4, 1)}),
    ),
    TableRow(
        "s_phi_half_even",
        kind=OuterKind.UNTWISTED,
        matcher=lambda d, f, p: p == 2 and d == 2,
        conditions=lambda q, om: om(q + 1) <= 2,
        expected_degrees=lambda d, f, p: (0, {(1, 0), (2, -1), (1, 1), (2, 1)}),
    ),
    TableRow(
        "s_phi_half_odd",
        kind=OuterKind.UNTWISTED,
        matcher=lambda d, f, p: p != 2 and d == 2,
        conditions=lambda q, om: om(q + 1) <= 2,
        expected_degrees=lambda d, f, p: None if p == 3 and f == 2 else (1, {(1, 0), (2, -1), (1, 1), (2, 1)}),
    ),
    TableRow(
        "s_delta_phi_half",
        kind=OuterKind.TWISTED,
        matcher=lambda d, f, p: d == 2,
        conditions=lambda q, om: om(q + 1) <= 2,
        expected_degrees=lambda d, f, p: None if p == 3 and f == 2 else (0, {(1, 0), (2, -1), (1, 1), (2, 1)}),
    ),
    TableRow(
        "pgl_phi_half",
        kind=OuterKind.WITH_DIAGONAL,
        matcher=lambda d, f, p: d == 2,  # with a diagonal part, so q is odd
        conditions=lambda q, om: om(q + 1) <= 2,
        expected_degrees=lambda d, f, p: (0, {(1, 0), (2, -1), (1, 1), (2, 1)}),
    ),
    TableRow(
        "s_phi_over_m",
        kind=OuterKind.UNTWISTED,
        matcher=lambda d, f, p: p == 2 and d < f and _odd_prime(d),
        conditions=lambda q, om: om(q - 1) <= 2 and om(q + 1) <= 2,
        expected_degrees=lambda d, f, p: (0, {(1, -1), (1, 0), (d, -1), (1, 1), (d, 1)}),
    ),
)


# Omega of every n <= 2*62: of each nonzero q-free bound, and of each gcd dividing one.
_SMALL_OMEGA = omega_table(2 * 62)


def _shape_plan(kind: OuterKind, d: int, f: int, p: int, q4: int) -> tuple:
    """What every group of a shape, (kind, d) plus a ``groups.shape_key``,
    shares: the ``groups.degree_terms`` of ``_shape``'s (eps, forms), the
    rows whose kind and matcher fit, in table order, each with whether its
    prediction differs from the shape's, and the pairs of terms, and so of
    ``shape_degrees``' list, that can fail, each as a recipe (i, j, s,
    extra) for the degrees i < j.  Distinct forms with multipliers up to f
    differ once q > 2f - 1, and 2f - 1 < 2^f <= q, so each flag holds for
    every q of the shape.

    The gcd of the degrees (a1*q + b1)/k1 and (a2*q + b2)/k2 divides a1*q +
    b1 and a2*q + b2, so it divides the bound |a2*b1 - a1*b2| / gcd(a1, a2).
    That is lcm(m1, m2)|s1 - s2| for m1(q + s1) and m2(q + s2), m|eps - s|
    for (q+eps)/2 and m(q + s), and 1 for the degree 1 and any other.  A
    pair whose bound is not 0 has Omega(gcd) <= Omega(bound) for every q,
    so it is kept iff Omega(bound) >= 3; a pair of bound 0 is always kept.
    The recipe of a kept pair gives Omega(gcd) exactly at every q >= 7:

    * bound 0: both degrees are multiples of one q + s, s = +1 or -1, and
      the gcd is (q + s) * gcd(a1*k2, a2*k1) / (k1*k2), so Omega(gcd) =
      Omega(q + s) + extra, extra the Omega of that q-free factor: Omega(gcd(
      m1, m2)) for m1(q + s) and m2(q + s), and -1 for (q+eps)/2 and
      m(q + eps);
    * any other bound: s is None, and the gcd divides the bound, at most
      2*62 since every multiplier divides d <= f <= 62, so its Omega, and
      the bound's, are read from ``_SMALL_OMEGA`` (extra 0, unread)."""
    eps, forms = _shape(kind, d, f, p, q4)
    computed = (eps, set(forms))
    rows = tuple(
        (row, (predicted := row.expected_degrees(d, f, p)) is not None and predicted != computed)
        for row in _ROWS
        if row.kind is kind and row.matcher(d, f, p)
    )
    terms = degree_terms(eps, forms)
    pairs = []
    for (i, (a1, b1, k1)), (j, (a2, b2, k2)) in itertools.combinations(enumerate(terms), 2):
        bound = abs(a2 * b1 - a1 * b2) // math.gcd(a1, a2)
        if bound == 0:
            pairs.append((i, j, b1 // a1, _SMALL_OMEGA[math.gcd(a1 * k2, a2 * k1)] - _SMALL_OMEGA[k1 * k2]))
        elif _SMALL_OMEGA[bound] >= 3:
            pairs.append((i, j, None, 0))
    return terms, rows, tuple(pairs)


@functools.lru_cache(maxsize=None)
def _q_plans(f: int, p: int, q4: int) -> dict[OuterSubgroup, tuple]:
    """{outer: shape plan} for every proper extension of a q = p^f whose
    ``groups.shape_key`` is (f, p, q4), in ``enumerate_outer_subgroups``
    order.  A shape is (kind, d) plus this key, so each plan is built once,
    and this is the one cache of plans and shapes."""
    return {outer: _shape_plan(*outer, f, p, q4) for outer in _lattice(f, p == 2)[1:]}


class GroupVerdict(NamedTuple):
    descriptor: GroupDescriptor
    degrees: tuple[int, ...]
    violations: tuple[Violation, ...]
    matched_rows: tuple[str, ...]
    degree_mismatches: tuple[str, ...]

    @property
    def brute_pass(self) -> bool:
        return not self.violations

    @property
    def agree(self) -> bool:
        return not self.brute_pass or bool(self.matched_rows)


def brute_force_verdict(g: GroupDescriptor) -> GroupVerdict:
    """Exact degree set, the two-prime check of the pairs its plan
    ``_q_plans(*shape_key(*g.q))[g.outer]`` keeps, the shape's rows whose
    conditions, if any, q meets, and those whose predictions it shows wrong."""
    if g.q.q < 7:
        raise ValueError(f"the classification covers q >= 7, got {g.q.q}")
    if g.is_trivial:
        raise ValueError("outer subgroup must be nontrivial: S < H is required")
    return GroupVerdict(g, *_decide(g.q.q, _q_plans(*shape_key(*g.q))[g.outer]))


# Omega(q - 1) and Omega(q + 1), read once for the groups of a q decided in turn.
_omega_near_q = functools.lru_cache(maxsize=2)(omega)


def _decide(q: int, plan: tuple) -> tuple:
    """The verdict at q >= 7 of a proper extension with this shape plan,
    as the plain values (degrees, violations, matched rows, degree
    mismatches), each a tuple: a ``GroupVerdict`` without its group.  The
    kept pairs come in (i, j) order, so violations are sorted by (a, b).
    Each kept pair's Omega(gcd) is read from its recipe alone, with no
    threshold on the gcd.  Omega(q - 1) and Omega(q + 1) are read through
    ``_omega_near_q`` only where a kept pair of bound 0 or a matched row's
    condition needs one, and no other Omega is counted.  Both are below
    2**63: q is, and 2**63 - 1 = 7^2 * 73 * ... is not a prime power."""
    terms, rows, pairs = plan
    degrees = shape_degrees(q, terms)
    violations = []
    for i, j, s, extra in pairs:
        a, b = degrees[i], degrees[j]
        gcd = math.gcd(a, b)
        om = _SMALL_OMEGA[gcd] if s is None else _omega_near_q(q + s) + extra
        if om >= 3:
            violations.append(Violation(a, b, gcd, om))
    matched = mismatched = ()
    for row, differs in rows:
        if row.conditions is None or row.conditions(q, _omega_near_q):
            matched += (row.row_id,)
            if differs:
                mismatched += (row.row_id,)
    return tuple(degrees), tuple(violations), matched, mismatched


def _verdicts(part: tuple) -> Iterator[GroupVerdict]:
    """The ``GroupVerdict`` of each q of a part of ``sweep_parts``, in order."""
    qs, p, f, outer, terms, *verdict = part
    for q in itertools.compress(*qs):
        g = GroupDescriptor(PrimePower(p or q, f, q), outer)
        yield GroupVerdict(g, tuple(shape_degrees(q, terms)), *verdict)


def sweep_parts(q_min: int, q_max: int) -> Iterator[tuple]:
    """The decided parts of every proper extension of every prime power in
    [q_min, q_max], in (q, kind, d) order.  This is the one statement of
    what a part is; ``tally_sweep``, ``sweep`` and the JSON report's writer
    (``cli``) each fold over them.

    A part is ((odds, flags), p, f, outer, terms, violations, rows,
    mismatches): one group H = PSL(2,q).outer for each q of
    ``itertools.compress(odds, flags)``, at least one, with odds a range
    and flags bytes of 0 and 1.  The terms are the plan's
    ``groups.degree_terms``, the same for every q of the part:
    ``groups.shape_degrees(q, terms)`` gives one q's degrees and
    ``groups.degree_columns(qs, terms)`` those of an ascending list of its
    q, by columns.  The part's violations, matched rows and degree
    mismatches (tuples, as in ``_decide``) are the verdict of every one of
    its q.  A violation names q's degrees, so only a part of one q has
    any; a run keeps no pair, by the premise below.

    Each q-set (odds, flags), p, f of ``arithmetic.prime_runs`` that holds
    a q is passed on unchanged, as it comes: a higher prime power q = p^f,
    2 or p^k with k >= 2, alone, or a run of primes, with p None, since
    each prime is its own p, and f 1.  It is decided once, at its first q,
    by ``_decide`` with each plan of that q's one cached dict
    ``_q_plans(*shape_key(p or q, f, q))``, which lists q's proper
    extensions in ``OuterKind`` order with ascending d, so a q's groups
    come with no sort.  The range check and that lattice stand in for
    ``brute_force_verdict``'s two checks.

    Deciding a run at its first prime is valid by the sweep's premise: a
    prime q >= 7 has one proper extension, PGL(2,q), and its plan reads no
    q: it has rows, none conditional, keeps no pair, and is the same for
    q = 1 and 3 mod 4.  So every prime of a run has the verdict of its
    first, and a part need not be a whole run: two parts that split a run
    have one verdict, and their q render the same text as the run's.

    The call checks the range and the premise, builds the sieve and takes
    the first part, so these raise from the call, before the caller takes
    a part: ValueError for q_min < 7 or an inverted range, RuntimeError for
    a table that breaks the premise, the sieve's MemoryError, and
    ValueError for a range that holds no prime power, so that no sweep
    passes with nothing checked.  The other parts are read off the sieve
    as they are taken; no list of the prime powers is held.

    ``shape_degrees`` and ``degree_columns`` cannot overflow here: every
    degree is at most (q+1)*f <= (2**57+1)*57 < 2**63 for q <= 2**57, and a
    range past 2**57 needs a sieve larger than any address space, so it
    raises MemoryError at the call.
    """
    if q_min < 7:
        raise ValueError(f"sweeps start at q = 7, got q_min = {q_min}")
    if q_max < q_min:
        raise ValueError(f"empty range: q_min = {q_min} > q_max = {q_max}")
    plans = _q_plans(1, 7, 1)
    ((_, rows, pairs),) = plans.values()
    if not rows or pairs or any(row.conditions for row, _ in rows) or plans != _q_plans(1, 7, 3):
        raise RuntimeError(
            "the row table breaks the sweep's premise that PGL(2,q) of a prime q >= 7 matches a row, "
            "keeps no pair, has no conditional row and has one plan for q = 1 and 3 mod 4"
        )
    qsets = prime_runs_in_range(q_min, q_max)

    def parts() -> Iterator[tuple]:
        for (odds, flags), p, f in qsets:
            if 1 in flags:
                q = odds[flags.index(1)]
                for outer, plan in _q_plans(*shape_key(p or q, f, q)).items():
                    yield (odds, flags), p, f, outer, plan[0], *_decide(q, plan)[1:]

    stream = parts()
    for part in stream:  # the first part, taken here so that an empty range raises at the call
        return itertools.chain((part,), stream)
    raise ValueError(f"no prime power in [{q_min}, {q_max}]: nothing to check")


class SweepTally(NamedTuple):
    """What a sweep's verdicts add up to: the summary counts and the
    verdicts that break a claim."""

    summary: dict[str, int]
    disagreements: tuple[GroupVerdict, ...]
    degree_mismatched: tuple[GroupVerdict, ...]


def tally_sweep(q_min: int, q_max: int) -> SweepTally:
    """Tally the verdicts of ``sweep_parts(q_min, q_max)``, and raise what
    it raises: counts of groups, passing groups, disagreements, converse
    anomalies (matched groups with violations) and degree mismatches.  No
    other code defines these counts.

    Each part is counted at once, its n groups ``flags.count(1)``, since
    its verdict holds for all of them.  The fold lists no q and builds no
    group object and no ``GroupVerdict``, except for the disagreeing and
    degree-mismatched verdicts it keeps.
    """
    groups = passing = converse = 0
    disagreements: list[GroupVerdict] = []
    mismatched: list[GroupVerdict] = []
    for part in sweep_parts(q_min, q_max):
        (_, flags), *_, violations, matched, mismatches = part
        n = flags.count(1)
        groups += n
        if not violations:
            passing += n
        elif matched:
            converse += n
        if not (violations or matched):
            disagreements.extend(_verdicts(part))
        elif mismatches:  # a mismatch is of a matched row, so never of a disagreement
            mismatched.extend(_verdicts(part))
    summary = {
        "groups": groups,
        "passing": passing,
        "disagreements": len(disagreements),
        "converse_anomalies": converse,
        "degree_mismatches": len(mismatched),
    }
    return SweepTally(summary, tuple(disagreements), tuple(mismatched))


def sweep(q_min: int, q_max: int) -> tuple[GroupVerdict, ...]:
    """The ``GroupVerdict`` of every q of every part of
    ``sweep_parts(q_min, q_max)``, in its order."""
    return tuple(itertools.chain.from_iterable(map(_verdicts, sweep_parts(q_min, q_max))))


def verdict_to_dict(v: GroupVerdict) -> dict:
    """JSON-ready shape: {q, group:{kind,d,name}, degrees, pass, violations,
    rows, agree}.  This is the one statement of a verdict's layout: the
    sweep report's writer (``cli``) renders its per-shape templates from
    it, with a sentinel in each integer slot."""
    return {
        "q": v.descriptor.q.q,
        "group": group_to_dict(v.descriptor),
        "degrees": list(v.degrees),
        "pass": v.brute_pass,
        "violations": [violation_to_dict(w) for w in v.violations],
        "rows": list(v.matched_rows),
        "agree": v.agree,
    }

