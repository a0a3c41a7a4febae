import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2cd import arithmetic, classifier, groups
from psl2cd.arithmetic import divisors, is_prime
from psl2cd.classifier import sweep
from psl2cd.groups import (
    GroupDescriptor,
    OuterExpressionError,
    OuterKind,
    OuterSubgroup,
    PrimePower,
    character_degrees,
    degree_columns,
    degree_terms,
    enumerate_outer_subgroups,
    group_name,
    parse_outer,
    shape_degrees,
    shape_key,
)

from _oracles import sieve_factorizer, trial_is_prime

U, WD, T = OuterKind.UNTWISTED, OuterKind.WITH_DIAGONAL, OuterKind.TWISTED


def desc(q: int, kind: OuterKind, d: int) -> GroupDescriptor:
    return GroupDescriptor(PrimePower.from_value(q), OuterSubgroup(kind, d))


class TestPrimePower:
    def test_construction(self):
        pp = PrimePower(3, 2, 9)
        assert (pp.p, pp.f, pp.q) == (3, 2, 9)
        assert PrimePower.from_value(8) == PrimePower(2, 3, 8)

    def test_validation(self):
        for q in (1, 3, 12):
            with pytest.raises(ValueError):
                PrimePower.from_value(q)

    def test_from_value_over_a_range(self):
        # Every q in [0, 2 * 10**5]: a ValueError exactly when q < 4 or q is
        # no prime power, and otherwise (p, f, q) with p prime, p**f == q.
        limit = 2 * 10**5
        factor = sieve_factorizer(limit)
        for q in range(limit + 1):
            if q < 4 or len(factor(q)) != 1:
                with pytest.raises(ValueError):
                    PrimePower.from_value(q)
                continue
            p, f, q_back = PrimePower.from_value(q)
            assert q_back == q and p**f == q and (p, f) == factor(q)[0], q
            assert trial_is_prime(p), q

    def test_from_value_does_not_reprove_p(self, monkeypatch):
        # prime_power_decompose has proved p prime and q = p**f < 2**63, and
        # nothing after it tests p again
        def no_test(n):
            raise AssertionError(f"is_prime({n}) called")

        monkeypatch.setattr(arithmetic, "is_prime", no_test)
        assert not hasattr(groups, "is_prime")
        for q, p, f in ((9, 3, 2), (2**61 - 1, 2**61 - 1, 1), (3**39, 3, 39)):
            assert PrimePower.from_value(q) == (p, f, q)


class TestOuterKind:
    def test_pickle_round_trip_is_the_same_member(self):
        for kind in OuterKind:
            assert pickle.loads(pickle.dumps(kind)) is kind

    def test_kind_keyed_lookups_hit(self):
        classifier._q_plans.cache_clear()
        plans = classifier._q_plans(*shape_key(3, 4, 81))
        for kind in OuterKind:
            copy = pickle.loads(pickle.dumps(kind))
            assert hash(copy) == hash(kind)
            assert plans[OuterSubgroup(copy, 2)] is plans[OuterSubgroup(kind, 2)]


class TestDescriptors:
    def test_trivial(self):
        assert desc(9, U, 1).is_trivial
        assert not desc(9, WD, 1).is_trivial


class TestEnumerate:
    def test_q8(self):
        pp = PrimePower.from_value(8)
        assert enumerate_outer_subgroups(pp, True) == [
            OuterSubgroup(U, 1),
            OuterSubgroup(U, 3),
        ]

    def test_q9_proper(self):
        pp = PrimePower.from_value(9)
        assert enumerate_outer_subgroups(pp, False) == [
            OuterSubgroup(U, 2),
            OuterSubgroup(WD, 1),
            OuterSubgroup(WD, 2),
            OuterSubgroup(T, 2),
        ]

    def test_q7_proper(self):
        pp = PrimePower.from_value(7)
        assert enumerate_outer_subgroups(pp, False) == [OuterSubgroup(WD, 1)]

    @settings(deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(min_value=1, max_value=10))
    def test_subgroup_count(self, p, f):
        if p**f < 4 or p**f > 2**40:
            return
        pp = PrimePower(p, f, p**f)
        subs = enumerate_outer_subgroups(pp, True)
        tau = len(divisors(f))
        tau_even = sum(1 for d in divisors(f) if d % 2 == 0)
        expected = tau if p == 2 else 2 * tau + tau_even
        assert len(subs) == expected
        assert len(set(subs)) == len(subs)
        assert len(enumerate_outer_subgroups(pp, False)) == expected - 1

    def test_plans_follow_the_lattice_order(self):
        # The JSON digests rely on this order: the sweep reads each q's groups
        # from its plans, and classify and the benchmark from this list.
        for p in (2, 3, 5, 7, 11):
            for pp in (PrimePower(p, f, p**f) for f in range(1, 63) if 4 <= p**f < 2**63):
                proper = enumerate_outer_subgroups(pp, include_trivial=False)
                assert list(classifier._q_plans(*shape_key(*pp))) == proper, pp
                assert enumerate_outer_subgroups(pp, True) == [OuterSubgroup(U, 1), *proper], pp

    def test_lattice_members_are_canonical(self):
        # OuterSubgroup checks nothing, so its producers must: here the
        # lattice, and parse_outer in TestParser.
        for f in range(1, 63):
            for char_two in (False, True):
                subs = groups._lattice(f, char_two)
                assert subs[0] == OuterSubgroup(U, 1) and len(set(subs)) == len(subs)
                for kind, d in subs:
                    assert d >= 1 and f % d == 0, (f, kind, d)
                    assert kind is not T or d % 2 == 0, (f, kind, d)
                    assert kind is U or not char_two, (f, kind, d)

    def test_returned_list_is_a_fresh_copy(self):
        pp = PrimePower.from_value(81)
        subs = enumerate_outer_subgroups(pp, False)
        expected = list(subs)
        subs.append(OuterSubgroup(U, 1))
        subs.clear()
        assert enumerate_outer_subgroups(pp, False) == expected


KNOWN_DEGREE_SETS = {
    (9, U, 2): [1, 5, 9, 10, 16],  # Sym(6)
    (9, T, 2): [1, 9, 10, 16],  # M10
    (7, WD, 1): [1, 6, 7, 8],  # PGL(2,7)
    (8, U, 3): [1, 7, 8, 21, 27],
    (11, U, 1): [1, 5, 10, 11, 12],
    (16, U, 4): [1, 16, 17, 34, 60, 68],
    (7, U, 1): [1, 3, 6, 7, 8],
    (8, U, 1): [1, 7, 8, 9],
    (9, WD, 1): [1, 8, 9, 10],  # PGL(2,9)
    (9, WD, 2): [1, 9, 10, 16, 20],  # full automorphism group of PSL(2,9)
    (11, WD, 1): [1, 10, 11, 12],
    (27, U, 3): [1, 13, 27, 78, 84],
    (27, WD, 3): [1, 26, 27, 78, 84],
    (32, U, 5): [1, 31, 32, 155, 165],
    (4, U, 1): [1, 3, 4, 5],  # A5
    (4, U, 2): [1, 4, 5, 6],  # S5
    (5, U, 1): [1, 3, 4, 5],  # A5
    (5, WD, 1): [1, 4, 5, 6],  # S5
}


class TestCharacterDegrees:
    @pytest.mark.parametrize("key,expected", list(KNOWN_DEGREE_SETS.items()))
    def test_known_sets(self, key, expected):
        assert character_degrees(desc(*key)) == expected

    def test_classical_psl_pgl_shapes(self):
        for q in (7, 9, 11, 13, 25, 27, 49, 81, 121, 125):
            pp = PrimePower.from_value(q)
            eps = 1 if q % 4 == 1 else -1
            psl = character_degrees(GroupDescriptor(pp, OuterSubgroup(U, 1)))
            assert psl == sorted({1, (q + eps) // 2, q - 1, q, q + 1})
            pgl = character_degrees(GroupDescriptor(pp, OuterSubgroup(WD, 1)))
            assert pgl == sorted({1, q - 1, q, q + 1})
        for q in (8, 16, 32, 64):
            pp = PrimePower.from_value(q)
            assert character_degrees(GroupDescriptor(pp, OuterSubgroup(U, 1))) == [1, q - 1, q, q + 1]

    def test_invariants_across_descriptors(self):
        for q in (7, 8, 9, 16, 25, 27, 64, 81, 128, 729):
            pp = PrimePower.from_value(q)
            for outer in enumerate_outer_subgroups(pp, True):
                g = GroupDescriptor(pp, outer)
                cd = character_degrees(g)
                assert 1 in cd and q in cd
                assert cd == sorted(set(cd))
                assert max(cd) <= (q + 1) * outer.d

    def test_half_degree_only_for_untwisted_odd(self):
        # (q+eps)/2 < q-1 <= every product-family degree for q > 3, so its
        # presence always comes from the core family
        for q in (9, 25, 27, 49, 81, 625, 729):
            pp = PrimePower.from_value(q)
            half = (q + (1 if q % 4 == 1 else -1)) // 2
            for outer in enumerate_outer_subgroups(pp, True):
                g = GroupDescriptor(pp, outer)
                assert (half in character_degrees(g)) == (outer.kind is U)
        for q in (8, 16, 64):
            pp = PrimePower.from_value(q)
            for outer in enumerate_outer_subgroups(pp, True):
                cd = character_degrees(GroupDescriptor(pp, outer))
                assert (q + 1) // 2 not in cd and (q - 1) // 2 not in cd

    def test_untwisted_chain_divisibility(self):
        # At these q no degree is a multiple of both q - 1 and q + 1 (their
        # lcm exceeds (q + 1) * f), and 1, q, (q + eps)/2 are multiples of
        # neither, so the two product families can be read off cd(H).
        for q in (2**12, 3**12):
            pp = PrimePower.from_value(q)
            eps = 1 if q % 4 == 1 else -1

            def families(d):
                cd = character_degrees(GroupDescriptor(pp, OuterSubgroup(U, d)))
                minus = [x for x in cd if x % (q - 1) == 0]
                plus = [x for x in cd if x % (q + 1) == 0]
                assert not set(minus) & set(plus)
                assert set(cd) - set(minus) - set(plus) <= {1, q, (q + eps) // 2}
                return minus, plus

            for d in divisors(pp.f):
                minus_big, plus_big = families(d)
                for d_small in divisors(d):
                    minus_small, plus_small = families(d_small)
                    for value in minus_small:
                        assert any(big % value == 0 for big in minus_big)
                    for value in plus_small:
                        assert any(big % value == 0 for big in plus_big)

    def test_no_degree_reaches_2_63_below_2_57(self):
        # Why a sweep never overflows: a sweep past 2**57 cannot allocate its
        # sieve, and below it every degree is at most (q + 1) * f.  Check the
        # largest q of each exponent f <= 57, and 2**f and 3**f.
        bound = 2**57
        assert (bound + 1) * 57 < 2**63
        for f in range(1, 58):
            p = int(bound ** (1 / f))
            while (p + 1) ** f <= bound:
                p += 1
            while p**f > bound or not is_prime(p):
                p -= 1
            for p in {p, 2, 3}:
                if not 4 <= p**f <= bound:
                    continue
                pp = PrimePower(p, f, p**f)
                for outer in enumerate_outer_subgroups(pp, True):
                    cd = character_degrees(GroupDescriptor(pp, outer))
                    assert cd[-1] <= (pp.q + 1) * f < 2**63

    def test_s5_sanity(self):
        # PSL(2,4).<phi> is Sym(5) with degrees {1, 4, 5, 6}
        assert character_degrees(desc(4, U, 2)) == [1, 4, 5, 6]


def _reference_degrees(p: int, f: int, kind: OuterKind, d: int) -> list[int]:
    """cd(H) written straight from the module docstring's formula,
    {1, q, (q+eps)/2} u {(q-1)*2^a*i : i | m} u {(q+1)*j : j | d} with
    d = 2^a * m, m odd, and its six exceptional removals."""
    q = p**f
    a, m = 0, d
    while m % 2 == 0:
        a, m = a + 1, m // 2
    i_values = {i for i in range(1, m + 1) if m % i == 0}
    j_values = {j for j in range(1, d + 1) if d % j == 0}
    field_extension = kind is U and d == f > 1  # S<phi>
    full_automorphism = kind is WD and d == f  # PGL(2,q)<phi>
    full_twist = kind is T and d == f  # S<delta*phi>
    if p == 3 and f % 2 == 1 and field_extension:
        i_values.discard(1)  # q - 1
    if p == 3 and f % 2 == 1 and full_automorphism:
        j_values.discard(1)  # q + 1
    if p in (2, 3, 5) and f % 2 == 1 and field_extension:
        j_values.discard(1)  # q + 1
    if p in (2, 3) and f % 4 == 2 and (field_extension or full_twist):
        j_values.discard(2)  # 2(q + 1)
    if p == 5 and f == 1 and kind is U:  # A5: (q - 5)/4 = 0 characters of degree q + 1
        j_values.discard(1)  # q + 1
    degrees = {1, q}
    if p != 2 and kind is U:  # (q+eps)/2 survives only inside S<phi>
        degrees.add((q + (1 if q % 4 == 1 else -1)) // 2)
    degrees.update((q - 1) * 2**a * i for i in i_values)
    degrees.update((q + 1) * j for j in j_values)
    return sorted(degrees)


class TestCachedShape:
    """``_shape``, behind ``character_degrees``, against the formula written
    out independently, on every lattice member of every q = p^f in
    [4, 2**63) for these p.  Because the reference sorts and de-duplicates,
    this checks that ``_shape``'s forms come out in the order of their
    values over the whole working range."""

    def test_cold_cache(self):
        for p in (2, 3, 5, 7, 11, 13):
            for f in range(1, 63):
                if p**f < 4 or p**f >= 2**63:
                    continue
                pp = PrimePower(p, f, p**f)
                for outer in enumerate_outer_subgroups(pp, True):
                    g = GroupDescriptor(pp, outer)
                    expected = _reference_degrees(p, f, outer.kind, outer.d)
                    if expected[-1] >= 2**63:
                        with pytest.raises(OverflowError, match=f"degree {expected[-1]} "):
                            character_degrees(g)
                    else:
                        assert character_degrees(g) == expected, (p, f, outer)

    def test_caches_stay_bounded(self):
        groups._lattice.cache_clear()
        sweep(7, 65536)  # 6,631 prime powers
        assert groups._lattice.cache_info().currsize < 200


@st.composite
def _shape_and_qs(draw) -> tuple[tuple, list[int]]:
    """The ``degree_terms`` of a shape, drawn as
    ``classifier``'s pair-bound test draws it (every p in {2, 3, 5, 7}, f,
    kind, d and q mod 4), and 1 to 40 ascending q of that q mod 4."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.integers(min_value=1, max_value=62))
    kind = draw(st.sampled_from([U] if p == 2 else [U, WD, T] if f % 2 == 0 else [U, WD]))
    d = draw(st.sampled_from([d for d in divisors(f) if kind is not T or d % 2 == 0]))
    q4 = 0 if p == 2 else draw(st.sampled_from((1, 3)))
    ks = draw(st.lists(st.integers(min_value=1, max_value=2**40), min_size=1, max_size=40, unique=True))
    return degree_terms(*groups._shape(kind, d, f, p, q4)), [4 * k + q4 for k in sorted(ks)]


class TestDegreeColumns:
    """``degree_columns``, the sweep report's degrees by columns, against
    the one-q ``shape_degrees`` that ``character_degrees`` and the
    classifier read."""

    @given(_shape_and_qs())
    def test_columns_are_the_transposed_rows(self, shape_and_qs):
        terms, qs = shape_and_qs
        rows = [shape_degrees(q, terms) for q in qs]
        assert degree_columns(qs, terms) == [list(column) for column in zip(*rows)]

    @given(_shape_and_qs())
    def test_only_the_last_q_reaching_2_63_overflows(self, shape_and_qs):
        # The smallest q whose top degree (a*q + b) // k reaches 2**63
        # follows the drawn q; the q before it stays in range.
        terms, qs = shape_and_qs
        a, b, k = terms[-1]
        q_top = -(-(2**63 * k - b) // a)
        top = (a * q_top + b) // k
        assert len(degree_columns([*qs, q_top - 1], terms)) == len(terms)
        message = f"degree {top} is out of range for q = {q_top}"
        with pytest.raises(OverflowError, match=f"^{message}$"):
            degree_columns([*qs, q_top], terms)
        with pytest.raises(OverflowError, match=f"^{message}$"):
            shape_degrees(q_top, terms)

    def test_terms_state_the_degree_layout(self):
        # PSL(2,27).<phi>: 1, (q-1)/2, q, 3(q-1), 3(q+1).
        terms = degree_terms(-1, ((1, 0), (3, -1), (3, 1)))
        assert terms == ((0, 1, 1), (1, -1, 2), (1, 0, 1), (3, -3, 1), (3, 3, 1))
        assert shape_degrees(27, terms) == [1, 13, 27, 78, 84]
        assert degree_columns([27, 243], terms) == [[1, 1], [13, 121], [27, 243], [78, 726], [84, 732]]


class TestParser:
    def test_canonical_forms(self):
        pp9 = PrimePower.from_value(9)
        assert parse_outer("phi^1", pp9) == OuterSubgroup(U, 2)
        assert parse_outer("delta", pp9) == OuterSubgroup(WD, 1)
        assert parse_outer("delta*phi^1", pp9) == OuterSubgroup(T, 2)
        assert parse_outer("delta,phi^1", pp9) == OuterSubgroup(WD, 2)
        assert parse_outer("", pp9) == OuterSubgroup(U, 1)
        assert parse_outer("phi^2", pp9) == OuterSubgroup(U, 1)  # identity power

    def test_canonicalization_collapses(self):
        pp81 = PrimePower.from_value(81)
        assert parse_outer("delta*phi^1", pp81) == parse_outer("delta*phi^3", pp81)
        assert parse_outer("delta*phi^2,phi^1", pp81) == OuterSubgroup(WD, 4)
        # odd-d twisted generator collapses to the diagonal subgroup
        pp729 = PrimePower.from_value(729)
        assert parse_outer("delta*phi^2", pp729) == OuterSubgroup(WD, 3)

    def test_whole_lattice_reachable(self):
        pp = PrimePower.from_value(81)
        reachable = {
            parse_outer(expr, pp)
            for expr in (
                "", "phi^1", "phi^2", "delta", "delta,phi^1", "delta,phi^2",
                "delta*phi^1", "delta*phi^2", "delta,phi^4",
            )
        }
        assert reachable == set(enumerate_outer_subgroups(pp, True))

    @given(st.sampled_from([8, 9, 64, 81, 3**6, 5**4, 2**12]), st.data())
    def test_parse_gives_only_lattice_members(self, q, data):
        pp = PrimePower.from_value(q)
        tokens = st.integers(1, pp.f).map(lambda k: f"phi^{k}")
        if pp.p != 2:
            tokens |= st.just("delta") | st.integers(1, pp.f).map(lambda k: f"delta*phi^{k}")
        expression = ",".join(data.draw(st.lists(tokens, max_size=4)))
        assert parse_outer(expression, pp) in groups._lattice(pp.f, pp.p == 2)

    def test_errors_carry_positions(self):
        pp9 = PrimePower.from_value(9)
        with pytest.raises(OuterExpressionError) as err:
            parse_outer("phi^0", pp9)
        assert str(err.value).endswith(" (at position 0)")
        with pytest.raises(OuterExpressionError) as err:
            parse_outer("phi^1, banana", pp9)
        assert str(err.value).endswith(" (at position 7)")
        with pytest.raises(OuterExpressionError) as err:
            parse_outer("phi^1,, phi^2", pp9)
        assert str(err.value).endswith(" (at position 6)")

    def test_delta_rejected_in_characteristic_two(self):
        pp8 = PrimePower.from_value(8)
        with pytest.raises(OuterExpressionError):
            parse_outer("delta", pp8)
        with pytest.raises(OuterExpressionError):
            parse_outer("delta*phi^1", pp8)

    def test_exponent_range(self):
        pp8 = PrimePower.from_value(8)
        assert parse_outer("phi^3", pp8) == OuterSubgroup(U, 1)
        with pytest.raises(OuterExpressionError):
            parse_outer("phi^4", pp8)


class TestNames:
    def test_group_names(self):
        assert group_name(desc(9, U, 1)) == "PSL(2,9)"
        assert group_name(desc(9, U, 2)) == "PSL(2,9).<phi^1>"
        assert group_name(desc(9, WD, 1)) == "PGL(2,9)"
        assert group_name(desc(9, T, 2)) == "PSL(2,9).<delta*phi^1>"
        assert group_name(desc(64, U, 3)) == "PSL(2,64).<phi^2>"
