import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2cd.groups import GroupDescriptor, OuterKind, OuterSubgroup, PrimePower, character_degrees
from psl2cd.twoprime import Violation, check_set

from _oracles import trial_omega


def _pairwise_reference(values):
    """The (a, b, gcd, Omega) of every pair of sorted values with Omega(gcd) >= 3,
    from ``math.gcd`` and trial division alone."""
    pairs = [(a, b, math.gcd(a, b)) for i, a in enumerate(values) for b in values[i + 1 :]]
    return tuple((a, b, g, om) for a, b, g in pairs if (om := trial_omega(g)) >= 3)


class TestCheckSet:
    def test_examples(self):
        assert check_set([1, 6, 7, 8]) == ()
        assert check_set([1, 16, 30, 17, 34]) == ()
        assert check_set([1, 10, 20, 40]) == (Violation(20, 40, 20, 3),)
        assert check_set([6, 8]) == ()
        assert check_set([12, 24]) == (Violation(12, 24, 12, 3),)
        assert check_set([126, 378]) == (Violation(126, 378, 126, 4),)
        assert check_set([24, 12]) == (Violation(12, 24, 12, 3),)

    def test_violations_sorted(self):
        violations = check_set([8, 16, 24, 48])
        assert violations
        assert list(violations) == sorted(violations, key=lambda v: (v.a, v.b))

    def test_duplicates_rejected(self):
        for degrees in ([3, 5, 3], [6, 6], [0], [-5], [0, 3]):
            with pytest.raises(ValueError):
                check_set(degrees)

    @settings(deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=8))
    def test_pairwise_decomposition(self, degrees):
        values = sorted(degrees)
        pair_results = [check_set([a, b]) for i, a in enumerate(values) for b in values[i + 1 :]]
        assert all(len(r) <= 1 for r in pair_results)
        assert check_set(values) == tuple(v for r in pair_results for v in r)

    @settings(deadline=None)
    @given(
        st.sets(st.integers(min_value=1, max_value=10**6), min_size=3, max_size=8),
        st.randoms(),
    )
    def test_subset_monotonicity(self, degrees, rng):
        values = sorted(degrees)
        if not check_set(values):
            values.remove(rng.choice(values))
            assert not check_set(values)

    @settings(deadline=None)
    @given(
        st.sets(
            st.integers(min_value=1, max_value=10**6)
            | st.integers(min_value=1, max_value=5000).map(lambda n: 8 * n),
            max_size=8,
        )
    )
    def test_matches_pairwise_reference(self, degrees):
        assert check_set(degrees) == _pairwise_reference(sorted(degrees))

    def test_smallest_value_that_can_fail_is_checked(self):
        assert check_set((1, 2, 4, 8, 24)) == (Violation(8, 24, 8, 3),)

    def test_values_below_8_pass(self):
        assert check_set((1, 2, 3, 5, 7)) == ()

    @pytest.mark.parametrize("a, b", [(3 << 64, 5 << 64), (5 << 64, 3 << 64)], ids=["ascending", "descending"])
    def test_gcd_past_cap_names_the_pair(self, a, b):
        # The pair is named in ascending order, whatever the input order.
        message = (
            "gcd(55340232221128654848, 92233720368547758080) = 18446744073709551616"
            " is out of range: must be below 2**63"
        )
        with pytest.raises(OverflowError) as error:
            check_set([a, b])
        assert str(error.value) == message


class TestPglDegreeSets:
    def test_sample_prime_powers_pass(self):
        for q in (7, 8, 9, 27, 128, 1024, 3125, 2**20):
            pp = PrimePower.from_value(q)
            pgl = OuterSubgroup(OuterKind.UNTWISTED if pp.p == 2 else OuterKind.WITH_DIAGONAL, 1)
            assert check_set(character_degrees(GroupDescriptor(pp, pgl))) == ()
