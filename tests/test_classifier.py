import itertools
import json
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from psl2cd import arithmetic, classifier, groups
from psl2cd.arithmetic import divisors, factor, is_prime, omega, prime_sieve
from psl2cd.classifier import (
    GroupVerdict,
    brute_force_verdict,
    sweep,
    sweep_parts,
    tally_sweep,
    verdict_to_dict,
)
from psl2cd.cli import main, to_json
from psl2cd.maximals import maximal_subgroups
from psl2cd.twoprime import check_set
from psl2cd.groups import (
    GroupDescriptor,
    OuterKind,
    OuterSubgroup,
    PrimePower,
    _lattice,
    character_degrees,
    enumerate_outer_subgroups,
    group_name,
    shape_degrees,
    shape_key,
)

from _oracles import trial_division, trial_omega

U, WD, T = OuterKind.UNTWISTED, OuterKind.WITH_DIAGONAL, OuterKind.TWISTED


def desc(q: int, kind: OuterKind, d: int) -> GroupDescriptor:
    return GroupDescriptor(PrimePower.from_value(q), OuterSubgroup(kind, d))


def _factor_omega(n: int) -> int:
    """Omega off `factor`'s rho, for the reference row conditions: it
    shares no block scan with the Omega that `_decide` reads."""
    return sum(e for _, e in factor(n))


# Every real row predicts its degrees correctly, so tests swap in one of
# these: PGL(2,q) without its degree q, and PSL(2,3^f).<phi> with only the
# half degree's sign wrong, (q+1)/2 for (q-1)/2.
WRONG_PREDICTIONS = {
    "pgl": lambda d, f, p: (0, {(1, -1), (1, 1)}),
    "s_phi_p3": lambda d, f, p: (1, {(1, 0), (f, -1), (f, 1)}),
}


def swap_prediction(monkeypatch, row_id):
    """Give one row its wrong prediction for the rest of the test."""
    row = next(r for r in classifier._ROWS if r.row_id == row_id)
    wrong = row._replace(expected_degrees=WRONG_PREDICTIONS[row_id])
    monkeypatch.setattr(classifier, "_ROWS", tuple(wrong if r is row else r for r in classifier._ROWS))


class TestTableRows:
    def test_twelve_unique_rows(self):
        rows = classifier._ROWS
        assert len(rows) == 12
        assert len({r.row_id for r in rows}) == 12

    def matched_ids(self, g):
        """The full scan: every row whose kind is H's, whose matcher holds on
        (d, f, min(p, 7)) and whose conditions, if any, hold on q."""
        d, (f, p, _) = g.outer.d, shape_key(*g.q)
        return [
            r.row_id
            for r in classifier._ROWS
            if r.kind is g.outer.kind and r.matcher(d, f, p) and (r.conditions is None or r.conditions(g.q.q, _factor_omega))
        ]

    def test_conditions_run_only_where_the_shape_leaves_q_open(self, monkeypatch, fresh_plans):
        # The matchers decide every shape fact, so the three rows that hold
        # on every q of their shapes have no conditions, and the others
        # are called with q and the per-q memo, 600 times in the sweep of
        # 7..2^20.
        assert [r.row_id for r in classifier._ROWS if r.conditions is None] == ["sym6", "m10", "pgl"]
        calls = []

        def counted(row):
            return row._replace(conditions=lambda q, om: calls.append((q, om)) is None and row.conditions(q, om))

        monkeypatch.setattr(classifier, "_ROWS", tuple(r if r.conditions is None else counted(r) for r in classifier._ROWS))
        summary = tally_sweep(7, 2**20).summary
        assert len(calls) == 600 and all(type(q) is int and om is classifier._omega_near_q for q, om in calls)
        assert summary["groups"] == 82999 and summary["disagreements"] == 0

    def test_pgl_unconditional(self):
        for q in (7, 9, 49, 4093):
            assert "pgl" in self.matched_ids(desc(q, WD, 1))

    def test_quarter_row_at_16(self):
        assert self.matched_ids(desc(16, U, 4)) == ["s_phi_quarter"]

    def test_m10_row_only_at_q9_twisted(self):
        matches = []
        for q in (9, 25, 81):
            pp = PrimePower.from_value(q)
            for kind, d in ((U, 2), (WD, 2), (T, 2)):
                g = GroupDescriptor(pp, OuterSubgroup(kind, d))
                if "m10" in self.matched_ids(g):
                    matches.append((q, kind, d))
        assert matches == [(9, T, 2)]

    def test_kind_indexed_rows_match_full_scan(self):
        # Every group of the sweep, then every proper extension of q = p^f
        # for p <= 11 and f <= 12.
        verdicts = list(sweep(7, 4096))
        for p in (2, 3, 5, 7, 11):
            for pp in (PrimePower(p, f, p**f) for f in range(1, 13) if p**f >= 7):
                for outer in enumerate_outer_subgroups(pp, include_trivial=False):
                    verdicts.append(brute_force_verdict(GroupDescriptor(pp, outer)))
        for v in verdicts:
            full_scan = tuple(self.matched_ids(v.descriptor))
            assert v.matched_rows == full_scan, group_name(v.descriptor)
        assert {v.descriptor.outer.kind for v in verdicts if v.matched_rows} == set(OuterKind)

    # Written from the paper's table, one entry per proper extension.
    # Behind the empty entries: 50 = 2 * 5^2, 242 = 2 * 11^2 and
    # 513 = 3^3 * 19 have Omega > 2; f = 4, 8, 9, 12, 16 are not odd
    # primes; at 4096 the quarter row needs f = 12 to be a power of two; no
    # row has a twisted d = 4.
    LATTICE_ROWS = {
        9: {
            (U, 2): ("sym6", "s_phi_half_odd"),
            (WD, 1): ("pgl",),
            (WD, 2): ("pgl_phi_half",),
            (T, 2): ("m10", "s_delta_phi_half"),
        },
        16: {(U, 2): ("s_phi_half_even",), (U, 4): ("s_phi_quarter",)},
        25: {
            (U, 2): ("s_phi_half_odd",),
            (WD, 1): ("pgl",),
            (WD, 2): ("pgl_phi_half",),
            (T, 2): ("s_delta_phi_half",),
        },
        27: {(U, 3): ("s_phi_p3",), (WD, 1): ("pgl",), (WD, 3): ("aut_p3",)},
        32: {(U, 5): ("s_phi_p2",)},
        49: {(U, 2): (), (WD, 1): ("pgl",), (WD, 2): (), (T, 2): ()},
        81: {
            (U, 2): ("s_phi_half_odd",),
            (U, 4): (),
            (WD, 1): ("pgl",),
            (WD, 2): ("pgl_phi_half",),
            (WD, 4): (),
            (T, 2): ("s_delta_phi_half",),
            (T, 4): (),
        },
        243: {(U, 5): ("s_phi_p3",), (WD, 1): ("pgl",), (WD, 5): ()},
        256: {(U, 2): ("s_phi_half_even",), (U, 4): ("s_phi_quarter",), (U, 8): ()},
        512: {(U, 3): (), (U, 9): ()},
        4096: {(U, 2): ("s_phi_half_even",), (U, 3): (), (U, 4): (), (U, 6): (), (U, 12): ()},
        65536: {(U, 2): ("s_phi_half_even",), (U, 4): ("s_phi_quarter",), (U, 8): (), (U, 16): ()},
    }

    @pytest.mark.parametrize("q", sorted(LATTICE_ROWS))
    def test_rows_on_whole_lattice(self, q):
        pp = PrimePower.from_value(q)
        matched = {
            (outer.kind, outer.d): brute_force_verdict(GroupDescriptor(pp, outer)).matched_rows
            for outer in enumerate_outer_subgroups(pp, include_trivial=False)
        }
        assert matched == self.LATTICE_ROWS[q]

    def test_p3_field_rows(self):
        assert "s_phi_p3" in self.matched_ids(desc(27, U, 3))
        assert "aut_p3" in self.matched_ids(desc(27, WD, 3))
        # Omega(3^5 - 1) = Omega(2 * 11^2) = 3, so the Aut row drops out at 243
        assert "aut_p3" not in self.matched_ids(desc(243, WD, 5))
        assert "s_phi_p3" in self.matched_ids(desc(243, U, 5))


class TestBruteForceVerdict:
    def test_q64_full_field_fails_unmatched(self):
        v = brute_force_verdict(desc(64, U, 6))
        assert not v.brute_pass
        assert v.matched_rows == ()
        assert v.agree
        assert any(w.gcd == 126 and w.omega == 4 for w in v.violations)

    def test_q16_half_passes(self):
        v = brute_force_verdict(desc(16, U, 2))
        assert v.degrees == (1, 16, 17, 30, 34)
        assert v.brute_pass
        assert v.matched_rows == ("s_phi_half_even",)
        assert v.agree

    def test_q9_sym6(self):
        v = brute_force_verdict(desc(9, U, 2))
        assert v.brute_pass
        assert "sym6" in v.matched_rows
        assert v.agree
        assert v.degree_mismatches == ()

    def test_degree_mismatch_recorded(self, capsys, monkeypatch, fresh_plans):
        swap_prediction(monkeypatch, "pgl")
        v = brute_force_verdict(desc(7, WD, 1))
        assert v.matched_rows == ("pgl",)
        assert v.degree_mismatches == ("pgl",)
        assert main(["classify", "--q", "7", "--outer", "delta"]) == 1
        assert "rows matched: pgl" in capsys.readouterr().out

    def test_wrong_half_degree_sign_recorded(self, capsys, monkeypatch, fresh_plans):
        swap_prediction(monkeypatch, "s_phi_p3")  # PSL(2,27).<phi> has (q-1)/2 = 13
        v = brute_force_verdict(desc(27, U, 3))
        assert v.matched_rows == ("s_phi_p3",)
        assert v.degree_mismatches == ("s_phi_p3",)
        assert main(["classify", "--q", "27", "--outer", "phi^1"]) == 1
        assert "rows matched: s_phi_p3" in capsys.readouterr().out

    def test_preconditions(self):
        with pytest.raises(ValueError):
            brute_force_verdict(desc(9, U, 1))
        with pytest.raises(ValueError):
            brute_force_verdict(desc(5, WD, 1))


def _differs_at(row, g: GroupDescriptor) -> bool:
    """The per-group check the shape's flag stands for: the row's predicted
    forms evaluated at q, sorted and compared with cd(H) \\ {1}."""
    d, (f, p, _) = g.outer.d, shape_key(*g.q)
    predicted = row.expected_degrees(d, f, p)
    if predicted is None:
        return False
    q = g.q.q
    eps, forms = predicted
    values = [(q + eps) // 2] if eps else []
    values += [m * (q + s) for m, s in forms]
    return sorted(values) != character_degrees(g)[1:]


def _cached_plan(g: GroupDescriptor) -> tuple:
    """The plan that ``brute_force_verdict`` reads for g from ``_q_plans``."""
    return classifier._q_plans(*shape_key(*g.q))[g.outer]


def _verdicts_to_check():
    """Every group of the 7..2^16 sweep, then every proper extension of
    p^f < 2^63 for p <= 13 whose degrees stay below 2^63."""
    yield from sweep(7, 2**16)
    for p in (2, 3, 5, 7, 11, 13):
        for pp in (PrimePower(p, f, p**f) for f in range(1, 63) if 7 <= p**f < 2**63):
            for outer in enumerate_outer_subgroups(pp, include_trivial=False):
                try:
                    yield brute_force_verdict(GroupDescriptor(pp, outer))
                except OverflowError:
                    pass


class TestShapeFlag:
    """A shape's plan flags a row once; the flag must agree with
    the per-group check on every group, with the real table and with each
    of the wrong predictions."""

    @pytest.mark.parametrize("wrong_row", [None, *WRONG_PREDICTIONS])
    def test_flag_is_the_per_group_check(self, monkeypatch, fresh_plans, wrong_row):
        if wrong_row:
            swap_prediction(monkeypatch, wrong_row)
        mismatches = 0
        for v in _verdicts_to_check():
            _, shape_rows, _ = _cached_plan(v.descriptor)
            for row, differs in shape_rows:
                assert differs == _differs_at(row, v.descriptor), (group_name(v.descriptor), row.row_id)
            assert v.degree_mismatches == tuple(
                row.row_id for row, differs in shape_rows if differs and row.row_id in v.matched_rows
            )
            mismatches += len(v.degree_mismatches)
        assert (mismatches > 0) == bool(wrong_row)


def _reference_verdict(g: GroupDescriptor) -> GroupVerdict:
    """The verdict built without any plan: every pair of ``character_degrees``
    through ``check_set``, every row of the table by kind, matcher and
    conditions, and each matched row's prediction evaluated at q."""
    degrees = tuple(character_degrees(g))
    d, (f, p, _) = g.outer.d, shape_key(*g.q)
    matched = [
        row
        for row in classifier._ROWS
        if row.kind is g.outer.kind and row.matcher(d, f, p) and (row.conditions is None or row.conditions(g.q.q, _factor_omega))
    ]
    return GroupVerdict(
        g,
        degrees,
        check_set(degrees),
        tuple(row.row_id for row in matched),
        tuple(row.row_id for row in matched if _differs_at(row, g)),
    )


def _seeded_prime_powers(seed: int, count: int) -> list[PrimePower]:
    """``count`` distinct q = p^f with f >= 2 and 7 <= q < 2^62, p the first
    prime at or above a random start."""
    rng = random.Random(seed)
    found: dict[int, PrimePower] = {}
    while len(found) < count:
        f = rng.randint(2, 61)
        p = rng.randint(2, max(2, int(2 ** (62 / f))))
        while not is_prime(p):
            p += 1
        if 7 <= p**f < 2**62:
            found[p**f] = PrimePower(p, f, p**f)
    return list(found.values())


class TestPlanVerdicts:
    """The shape plans decide every group as the pair-by-pair reference does."""

    def test_sweep_matches_the_reference(self):
        verdicts = list(sweep(7, 2**16))
        assert verdicts == [_reference_verdict(v.descriptor) for v in verdicts]
        assert sum(bool(v.violations) for v in verdicts) > 100

    def test_seeded_deep_powers_match_the_reference(self):
        decided = failing = 0
        for pp in _seeded_prime_powers(seed=24, count=1000):
            for outer in enumerate_outer_subgroups(pp, include_trivial=False):
                g = GroupDescriptor(pp, outer)
                try:
                    expected = _reference_verdict(g)
                except OverflowError:
                    with pytest.raises(OverflowError):
                        brute_force_verdict(g)
                    continue
                v = brute_force_verdict(g)
                assert v == expected, group_name(g)
                decided += 1
                failing += bool(v.violations)
        assert decided > 4000 and failing > 1000

    def test_f_at_least_2_slices_up_to_2_40_match_the_reference(self):
        # Every q = p^f <= 2^40 with f >= 3, and q = p^2 for every prime p in
        # [2^20 - 2^15, 2^20): 5,931 and 9,432 groups, none near 2^63.
        sieve = prime_sieve(2**20)
        powers = [PrimePower(p, f, p**f) for p in range(2, 2**14) if sieve[p] for f in range(3, 41) if p**f <= 2**40]
        powers += [PrimePower(p, 2, p * p) for p in range(2**20 - 2**15, 2**20) if sieve[p]]
        decided = failing = 0
        for pp in powers:
            for outer in enumerate_outer_subgroups(pp, include_trivial=False):
                g = GroupDescriptor(pp, outer)
                v = brute_force_verdict(g)
                assert v == _reference_verdict(g), group_name(g)
                decided += 1
                failing += bool(v.violations)
        assert decided == 5931 + 9432 and failing == 10666


class TestGcdOmegaMemo:
    """``_decide``'s Omega memo, which holds Omega(q - 1) and Omega(q + 1)
    of the q at hand, changes no verdict, cold or warm."""

    def test_bounded(self):
        assert classifier._omega_near_q.cache_info().maxsize == 2

    def test_cold_and_warm_match_the_reference(self):
        # Every proper extension of each q; all degrees stay below 2**63.
        groups = [
            GroupDescriptor(pp, outer)
            for q in (3**30, 5**24, 7**18, 1000003**2, 2**40)
            for pp in [PrimePower.from_value(q)]
            for outer in enumerate_outer_subgroups(pp, include_trivial=False)
        ]
        expected = [_reference_verdict(g) for g in groups]
        assert any(v.violations for v in expected)  # some groups fail
        classifier._omega_near_q.cache_clear()
        assert [brute_force_verdict(g) for g in groups] == expected
        assert classifier._omega_near_q.cache_info().hits > 0
        assert [brute_force_verdict(g) for g in groups] == expected


def test_reference_shares_no_memo_with_the_plan_loop(monkeypatch):
    # Each failing group of 7..2^16 reads Omega(q - 1) or Omega(q + 1)
    # through the per-q memo.  With the memo broken the plan path raises on
    # it, and check_set and the reference, which read no memo, still give
    # the sweep's verdict.
    failing = [v for v in sweep(7, 2**16) if v.violations]

    def broken(n):
        raise AssertionError(f"_omega_near_q({n}) called")

    monkeypatch.setattr(classifier, "_omega_near_q", broken)
    for v in failing:
        assert check_set(v.degrees) == v.violations
        assert _reference_verdict(v.descriptor) == v
        with pytest.raises(AssertionError, match="_omega_near_q"):
            brute_force_verdict(v.descriptor)
    assert len(failing) > 100


# q = p**f reaching each path of prime_power_decompose: table primes, one
# or more primes of the cofactor's range, the top prime for f = 2, 3 and 6,
# and q below 2**21, whose maximal subgroups the pass also lists.
_DEEP_POWERS = (
    3**39, 2**61, 997**6, 1009**6, 65521**3, 2097143**3, 1447**6, 3037000493**2,
    2**20, 3**9, 5**9, 1009**2,
)


def test_no_verdict_calls_factor(monkeypatch, capsys):
    # factor serves only the factor command and F9.  A sweep, a classify and
    # a pass over deep prime powers, every proper extension's verdict plus
    # the maximal subgroups below 2**21, run with it broken everywhere.
    real = arithmetic.factor

    def broken(n):
        raise AssertionError(f"factor({n}) called")

    for name, module in list(sys.modules.items()):
        if name.startswith("psl2cd") and getattr(module, "factor", None) is real:
            monkeypatch.setattr(module, "factor", broken)
    # the q-free caches would hide a call made while they were filled
    groups._lattice.cache_clear()
    classifier._q_plans.cache_clear()
    assert sum(1 for _ in sweep_parts(7, 2**16)) > 0
    assert main(["classify", "--q", "4611686014132420609", "--outer", "phi^1"]) == 0
    assert "PSL(2,4611686014132420609)" in capsys.readouterr().out
    for q in _DEEP_POWERS:
        pp = PrimePower.from_value(q)
        for outer in enumerate_outer_subgroups(pp, include_trivial=False):
            try:
                brute_force_verdict(GroupDescriptor(pp, outer))
            except OverflowError:
                pass  # a degree past 2**63, which the sweep records as overflowed
        if q < 1 << 21:
            assert maximal_subgroups(pp)


_SIGNS = st.sampled_from((-1, 0, 1))
_MULTIPLIERS = st.integers(min_value=1, max_value=62)


@st.composite
def _shapes(draw):
    """(kind, d, f, p, q) of a proper extension: p in {2, 3, 5, 7} standing
    for min(p, 7), any f <= 62, kind and d from its lattice, and an odd q
    (even for p = 2) up to 2^41."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.integers(min_value=1, max_value=62))
    kind = draw(st.sampled_from([U] if p == 2 else [U, WD, T] if f % 2 == 0 else [U, WD]))
    d = draw(st.sampled_from([d for d in divisors(f) if kind is not T or d % 2 == 0]))
    assume((kind, d) != (U, 1))
    q = draw(st.integers(min_value=4, max_value=2**40)) * 2 + (p != 2)
    return kind, d, f, p, q


def _every_shape():
    """(kind, d, f, p, q4) of every shape with f <= 62: p in {2, 3, 5, 7}
    standing for min(p, 7), each q mod 4, and each proper (kind, d)."""
    for f in range(1, 63):
        for p in (2, 3, 5, 7):
            for q4 in (1, 3) if p != 2 else (0,):
                for kind, d in _lattice(f, p == 2)[1:]:
                    yield kind, d, f, p, q4


def _pair_bound(terms, i, j) -> int:
    """The q-free bound |a2*b1 - a1*b2| / gcd(a1, a2) that the gcd of the
    degrees of terms i and j divides."""
    (a1, b1, _), (a2, b2, _) = terms[i], terms[j]
    return abs(a2 * b1 - a1 * b2) // math.gcd(a1, a2)


class TestPairBound:
    """The q-free bounds behind the pairs a plan drops, and the recipes of
    the pairs it keeps."""

    @given(st.integers(min_value=7), _MULTIPLIERS, _MULTIPLIERS, _SIGNS, _SIGNS)
    def test_gcd_of_two_forms_divides_the_bound(self, q, m1, m2, s1, s2):
        assume(s1 != s2)
        assert math.lcm(m1, m2) * abs(s1 - s2) % math.gcd(m1 * (q + s1), m2 * (q + s2)) == 0

    @given(st.integers(min_value=3).map(lambda k: 2 * k + 1), st.sampled_from((-1, 1)), _MULTIPLIERS, _SIGNS)
    def test_gcd_with_the_half_degree_divides_the_bound(self, q, eps, m, s):
        assume(s != eps)
        assert m * abs(eps - s) % math.gcd((q + eps) // 2, m * (q + s)) == 0

    @given(_shapes())
    def test_dropped_pairs_never_fail(self, shape):
        kind, d, f, p, q = shape
        terms, _, pairs = classifier._shape_plan(kind, d, f, p, q % 4)
        kept = {(i, j) for i, j, _, _ in pairs}
        degrees = shape_degrees(q, terms)
        for i, j in itertools.combinations(range(len(degrees)), 2):
            if (i, j) not in kept:
                assert trial_omega(math.gcd(degrees[i], degrees[j])) <= 2, (i, j)

    def test_a_pair_is_kept_iff_it_can_fail(self):
        # A pair of bound 0 can fail at some q, since Omega(q + s) has no
        # upper limit; a pair of any other bound fails at no q unless
        # Omega(bound) >= 3, as its gcd divides the bound.
        shapes = direct = same_s = 0
        for kind, d, f, p, q4 in _every_shape():
            terms, _, pairs = classifier._shape_plan(kind, d, f, p, q4)
            kept = {(i, j): s for i, j, s, _ in pairs}
            for i, j in itertools.combinations(range(len(terms)), 2):
                bound = _pair_bound(terms, i, j)
                if bound == 0:
                    assert kept[i, j] in (-1, 1), (kind, d, f, p, q4, i, j)
                else:
                    assert ((i, j) in kept) == (trial_omega(bound) >= 3), (kind, d, f, p, q4, i, j)
                    assert kept.get((i, j)) is None
            shapes += 1
            direct += sum(s is None for s in kept.values())
            same_s += sum(s is not None for s in kept.values())
        assert (shapes, direct, same_s) == (3715, 19960, 27165)

    @pytest.mark.parametrize(
        "f, d, a, b",
        [(9, 9, 19683, 177138), (9, 9, 19683, 177156), (5, 5, 1210, 1220)],
    )
    def test_a_pair_of_gcd_8_or_more_may_drop(self, f, d, a, b):
        # At q = 3^9, q with 9(q - 1) and with 9(q + 1) have gcd 9 and the
        # bound 9; at q = 3^5, 5(q - 1) with 5(q + 1) has gcd 10 and the
        # bound 10.  Omega of each bound is 2, so the pair fails at no q.
        q = 3**f
        terms, _, pairs = classifier._shape_plan(U, d, f, 3, q % 4)
        degrees = shape_degrees(q, terms)
        i, j = degrees.index(a), degrees.index(b)
        assert math.gcd(a, b) == _pair_bound(terms, i, j) >= 8 and trial_omega(math.gcd(a, b)) == 2
        assert (i, j) not in {(i, j) for i, j, _, _ in pairs}

    @given(_shapes())
    def test_each_recipe_gives_omega_of_the_gcd(self, shape):
        # A recipe with s reads Omega(q + s) plus its q-free extra, and one
        # without reads the small table at the gcd, which divides the bound.
        kind, d, f, p, q = shape
        terms, _, pairs = classifier._shape_plan(kind, d, f, p, q % 4)
        degrees = shape_degrees(q, terms)
        for i, j, s, extra in pairs:
            gcd = math.gcd(degrees[i], degrees[j])
            if s is None:
                assert _pair_bound(terms, i, j) % gcd == 0, (i, j)
                assert classifier._SMALL_OMEGA[gcd] == omega(gcd), (i, j)
            else:
                assert _pair_bound(terms, i, j) == 0 and s in (-1, 1), (i, j)
                assert omega(q + s) + extra == omega(gcd), (i, j)

    def test_every_direct_bound_is_in_the_small_table(self):
        # The plan reads the small table at every nonzero bound, kept or
        # dropped, over every shape with f <= 62, as q < 2^63 allows: the
        # largest, 2*62, is that of 62(q - 1) with 62(q + 1) at d = 62.
        largest = 0
        for kind, d, f, p, q4 in _every_shape():
            terms = classifier._shape_plan(kind, d, f, p, q4)[0]
            largest = max(largest, *(_pair_bound(terms, i, j) for i, j in itertools.combinations(range(len(terms)), 2)))
        assert largest == 2 * 62 == len(classifier._SMALL_OMEGA) - 1
        assert list(classifier._SMALL_OMEGA) == [0] + [omega(n) for n in range(1, 125)]

    def test_plan_of_psl_343_phi(self):
        # Degrees 1, (q-1)/2, q-1, q, q+1, 3(q-1), 3(q+1).  Every pair of
        # different signs drops: (q-1)/2 with 3(q+1) has the bound 3*2 and
        # 3(q-1) with 3(q+1) the bound lcm(3, 3)*2, both 6.  The kept pairs
        # are all of one q + s: (q-1)/2 with q-1 and with 3(q-1) read
        # Omega(q - 1) - 1, and q-1 with 3(q-1), q+1 with 3(q+1) read
        # Omega(q + s) + Omega(gcd(1, 3)).
        terms, _, pairs = classifier._shape_plan(U, 3, 3, 7, 3)
        degrees = shape_degrees(343, terms)
        assert [(degrees[i], degrees[j], s, extra) for i, j, s, extra in pairs] == [
            (171, 342, -1, -1),
            (171, 1026, -1, -1),
            (342, 1026, -1, 0),
            (344, 1032, 1, 0),
        ]

    def test_pgl_keeps_no_pair(self):
        for f in range(1, 63):
            for p in (3, 5, 7):
                for q4 in (1, 3):
                    assert classifier._shape_plan(WD, 1, f, p, q4)[2] == ()


def _prime_plan_reads_no_q() -> bool:
    """Whether ``tally_sweep`` may decide a run of primes once: PGL(2,q) is
    the one proper extension of a prime q >= 7, and its plan is the same
    for q = 1 and 3 mod 4, keeps no pair and has rows, each unconditional
    and predicting right."""
    plans = classifier._q_plans(1, 7, 1)
    if list(plans) != [OuterSubgroup(WD, 1)] or plans != classifier._q_plans(1, 7, 3):
        return False
    ((_, rows, pairs),) = plans.values()
    return bool(rows) and pairs == () and all(row.conditions is None and not differs for row, differs in rows)


class TestPrimeRuns:
    def test_every_prime_shares_one_plan_that_reads_no_q(self, monkeypatch):
        assert _lattice(1, False)[1:] == (OuterSubgroup(WD, 1),)
        assert _prime_plan_reads_no_q()
        # So a run of primes is decided once, at its first prime: the primes
        # that reach _decide are the first of each run that holds one.
        decided = []
        real = classifier._decide
        monkeypatch.setattr(classifier, "_decide", lambda q, plan: decided.append(q) or real(q, plan))
        sieve = prime_sieve(2**12)
        assert tally_sweep(7, 2**12).summary["groups"] == sum(sieve[7:]) + sum(not sieve[q] for q in decided)
        firsts, in_run = [], False
        for n in range(7, 2**12 + 1):
            if len(fs := trial_division(n)) == 1:  # a prime continues a run, a higher prime power ends it
                if fs[0][1] == 1 and not in_run:
                    firsts.append(n)
                in_run = fs[0][1] == 1
        assert len(firsts) > 1 and [q for q in decided if sieve[q]] == firsts

    def test_the_stream_runs_once_per_sweep(self, monkeypatch):
        # sweep expands the parts as they come, with no second pass to tally them.
        decided = []
        real = classifier._decide
        monkeypatch.setattr(classifier, "_decide", lambda q, plan: decided.append(q) or real(q, plan))
        tally_sweep(7, 2**12)
        tallied, decided[:] = decided[:], []
        sweep(7, 2**12)
        assert tallied and decided == tallied

    @pytest.mark.parametrize("way", ["conditional_row", "no_row", "kept_pair", "plans_differ_mod_4"])
    def test_a_broken_premise_stops_the_sweep(self, monkeypatch, fresh_plans, way):
        # Each way lets a prime's verdict read q, so the sweep may not
        # decide a run at once: it raises at the call, before any part is taken.
        rows, shape = classifier._ROWS, classifier._shape

        def one_more_form(kind, d, f, p, q4):  # 2(q - 1) with q - 1: a pair of one sign is kept
            eps, forms = shape(kind, d, f, p, q4)
            return (eps, (*forms, (2, -1))) if (kind, d) == (WD, 1) else (eps, forms)

        def reordered_at_3_mod_4(kind, d, f, p, q4):  # the same degrees, listed in another order
            eps, forms = shape(kind, d, f, p, q4)
            return (eps, forms[::-1]) if (kind, d, q4) == (WD, 1, 3) else (eps, forms)

        name, value = {
            "conditional_row": (
                "_ROWS",
                tuple(r._replace(conditions=lambda q, om: q % 4 == 1) if r.row_id == "pgl" else r for r in rows),
            ),
            "no_row": ("_ROWS", tuple(r for r in rows if r.row_id != "pgl")),
            "kept_pair": ("_shape", one_more_form),
            "plans_differ_mod_4": ("_shape", reordered_at_3_mod_4),
        }[way]
        monkeypatch.setattr(classifier, name, value)
        assert not _prime_plan_reads_no_q()
        with pytest.raises(RuntimeError, match="breaks the sweep's premise that PGL\\(2,q\\) of a prime"):
            sweep_parts(7, 100)

    def test_a_wrong_pgl_prediction_is_a_mismatch_at_each_prime(self, capsys, monkeypatch, fresh_plans):
        # The row stays q-free, so each run is still decided at once, and
        # each of its primes is kept as a degree mismatch.
        swap_prediction(monkeypatch, "pgl")
        qs = [q for q in range(7, 101, 2) if len(trial_division(q)) == 1]  # PGL(2,q) is (WD, 1) for odd q
        assert len(qs) == 27 and [q for q in qs if trial_division(q)[0][1] > 1] == [9, 25, 27, 49, 81]
        tally = tally_sweep(7, 100)
        assert tally.summary["degree_mismatches"] == 27
        assert tally.degree_mismatched == tuple(brute_force_verdict(desc(q, WD, 1)) for q in qs)
        assert all(v.degree_mismatches == ("pgl",) for v in tally.degree_mismatched)
        assert main(["sweep", "--qmin", "7", "--qmax", "100", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["degree_mismatches"] == [{"q": q, "group": f"PGL(2,{q})", "rows": ["pgl"]} for q in qs]


class TestSweep:
    def test_range_7_to_11(self):
        verdicts = sweep(7, 11)
        keys = [
            (v.descriptor.q.q, v.descriptor.outer.kind, v.descriptor.outer.d)
            for v in verdicts
        ]
        assert keys == [
            (7, WD, 1),
            (8, U, 3),
            (9, U, 2),
            (9, WD, 1),
            (9, WD, 2),
            (9, T, 2),
            (11, WD, 1),
        ]
        assert all(v.brute_pass for v in verdicts)
        assert all(v.agree for v in verdicts)
        tally = tally_sweep(7, 11)
        assert tally.disagreements == ()
        assert tally.degree_mismatched == ()

    def test_every_part_has_one_layout(self):
        # Runs of primes and groups of higher prime powers alike: a part
        # names its q through (odds, flags), and its one verdict, expanded,
        # is each q's own.  Only a part of one q has violations.
        parts = [*sweep_parts(7, 2**16), *sweep_parts(3**12, 3**12)]
        for part in parts:
            assert len(part) == 8
            (odds, flags), _, _, outer, _, violations, *_ = part
            qs = list(itertools.compress(odds, flags))
            assert flags.count(1) == len(qs) >= 1
            assert len(qs) == 1 or not violations
            expected = [brute_force_verdict(GroupDescriptor(PrimePower.from_value(q), outer)) for q in qs]
            assert list(classifier._verdicts(part)) == expected, (qs[0], outer)
        assert any(part[5] for part in parts) and any(part[0][1].count(1) > 1 for part in parts)

    def test_q9_all_four_extensions_pass(self):
        verdicts = sweep(9, 9)
        assert len(verdicts) == 4
        assert all(v.brute_pass for v in verdicts)

    def test_q13_only_pgl(self):
        verdicts = sweep(13, 13)
        assert len(verdicts) == 1
        v = verdicts[0]
        assert group_name(v.descriptor) == "PGL(2,13)"
        assert v.brute_pass and v.matched_rows == ("pgl",)

    def test_converse_anomalies_empty_in_range(self):
        # empirical finding over the sweep range, reported rather than assumed
        verdicts = sweep(7, 512)
        assert not [v for v in verdicts if v.matched_rows and not v.brute_pass]
        assert tally_sweep(7, 512).summary["converse_anomalies"] == 0

    def test_pgl_always_passes(self):
        pgl_verdicts = [
            v
            for v in sweep(7, 512)
            if v.descriptor.outer == OuterSubgroup(WD, 1)
        ]
        assert pgl_verdicts
        assert all(v.brute_pass for v in pgl_verdicts)

    def test_q9_overlap_is_benign(self):
        verdicts = sweep(9, 9)
        by_outer = {
            (v.descriptor.outer.kind, v.descriptor.outer.d): v for v in verdicts
        }
        assert {"sym6", "s_phi_half_odd"} <= set(by_outer[(U, 2)].matched_rows)
        assert {"m10", "s_delta_phi_half"} <= set(by_outer[(T, 2)].matched_rows)
        assert all(v.brute_pass and v.agree for v in verdicts)

    def test_tally_counts_each_claim(self, monkeypatch, fresh_plans):
        # No real row breaks a claim, so swap three: pgl_phi_half no longer
        # holds at q = 25 (a disagreement; no prime reaches the row, so the
        # swap keeps the premise of the runs), sym6 predicts 9, 16 without
        # 5 and 10 (a degree mismatch), and s_phi_half_odd holds for every
        # q, so the failing PSL(2,49).<phi^1> matches it (a converse
        # anomaly).  PGL(2,49).<phi^1> and PSL(2,49).<delta*phi^1> fail and
        # match no row, which breaks no claim.
        rows = {r.row_id: r for r in classifier._ROWS}
        rows["pgl_phi_half"] = rows["pgl_phi_half"]._replace(conditions=lambda q, om: q < 25)
        rows["sym6"] = rows["sym6"]._replace(expected_degrees=lambda d, f, p: (0, {(1, 0), (1, 1)}))
        rows["s_phi_half_odd"] = rows["s_phi_half_odd"]._replace(conditions=None)
        monkeypatch.setattr(classifier, "_ROWS", tuple(rows.values()))
        tally = tally_sweep(7, 49)
        assert tally.summary == {
            "groups": 31,
            "passing": 28,
            "disagreements": 1,
            "converse_anomalies": 1,
            "degree_mismatches": 1,
        }
        assert tally.disagreements == (brute_force_verdict(desc(25, WD, 2)),)
        (mismatch,) = tally.degree_mismatched
        assert mismatch == brute_force_verdict(desc(9, U, 2))
        assert mismatch.degree_mismatches == ("sym6",)
        converse = brute_force_verdict(desc(49, U, 2))
        assert converse.violations and converse.matched_rows == ("s_phi_half_odd",)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            sweep(4, 11)
        with pytest.raises(ValueError):
            sweep(11, 7)
        for q_min, q_max in ((24, 24), (33, 36)):
            with pytest.raises(ValueError, match="no prime power"):
                sweep(q_min, q_max)

    def test_errors_come_from_the_call(self, monkeypatch):
        # The range is checked and the sieve built when the stream is
        # asked for, so a failing sweep raises before any part is taken.
        for q_min, q_max in ((24, 24), (11, 7), (4, 11)):
            with pytest.raises(ValueError):
                sweep_parts(q_min, q_max)

        def out_of_memory(limit):
            raise MemoryError

        monkeypatch.setattr("psl2cd.arithmetic.prime_sieve", out_of_memory)
        with pytest.raises(MemoryError):
            sweep_parts(7, 11)

    def test_memory_is_set_by_the_sieve(self):
        # The prime powers are streamed out of the sieve, so the traced peak
        # of a sweep stays near the sieve's bytes.  A list of the 6,631
        # (q, p, f) of 7..2^16 alone took about 9 times as much, and a sieve
        # built through a copy of itself took twice its bytes.
        hi = 2**16
        bound = 2 * len(prime_sieve(hi))
        tally_sweep(7, hi)  # fill the factor and shape caches
        tracemalloc.start()
        try:
            tally_sweep(7, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_memory_is_a_base_sieve_and_a_few_windows(self):
        # The sieve is segmented: a base sieve up to isqrt(hi), 1,025 bytes
        # here, and windows of 2**16 odd numbers, one at a time.  A sieve of
        # all of 7..2^20 alone took 1,048,577 bytes.
        hi = 2**20
        bound = len(prime_sieve(math.isqrt(hi))) + 4 * arithmetic._WINDOW
        tally_sweep(7, hi)  # fill the factor and shape caches
        tracemalloc.start()
        try:
            tally_sweep(7, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    def test_degree_overflow_raises(self, monkeypatch):
        # (2^59 + 1) * 59 exceeds the 63-bit degree bound; no sieve reaches
        # 2^59, so hand the sweep one empty run ended by that prime power.
        # The sweep records nothing and lets the error through.
        monkeypatch.setattr(
            "psl2cd.classifier.prime_runs_in_range",
            lambda lo, hi: [((range(3, 3, 2), b""), None, 1), ((range(2**59, 2**59 + 1), b"\x01"), 2, 59)],
        )
        message = f"degree {(2**59 + 1) * 59} is out of range for q = {2**59}"
        with pytest.raises(OverflowError, match=message):
            sweep(2**59, 2**59)


class TestJsonShape:
    def test_verdict_shape(self):
        payload = verdict_to_dict(brute_force_verdict(desc(16, U, 2)))
        assert set(payload) == {
            "q",
            "group",
            "degrees",
            "pass",
            "violations",
            "rows",
            "agree",
        }
        assert set(payload["group"]) == {"kind", "d", "name"}
        assert payload["pass"] is True
        assert payload["rows"] == ["s_phi_half_even"]

    def test_violation_shape(self):
        payload = verdict_to_dict(brute_force_verdict(desc(64, U, 6)))
        assert payload["violations"]
        assert all(set(v) == {"a", "b", "gcd", "omega"} for v in payload["violations"])

    def test_report_round_trips_through_json(self, capsys):
        assert main(["sweep", "--qmin", "7", "--qmax", "32", "--format", "json"]) == 0
        text = capsys.readouterr().out
        payload = json.loads(text)
        assert to_json(payload) + "\n" == text
        assert payload["summary"]["disagreements"] == 0
