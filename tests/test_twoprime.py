import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2cd.groups import GroupDescriptor, OuterKind, OuterSubgroup, PrimePower, character_degrees
from psl2cd.twoprime import Violation, check_pair, check_set


def _pairwise_reference(values):
    """The violations found by ``check_pair`` on every pair of sorted values."""
    pairs = [check_pair(a, b) for i, a in enumerate(values) for b in values[i + 1 :]]
    return tuple(v for v in pairs if v is not None)


class TestCheckPair:
    def test_examples(self):
        assert check_pair(6, 8) is None
        assert check_pair(12, 24) == Violation(12, 24, 12, 3)
        assert check_pair(126, 378) == Violation(126, 378, 126, 4)

    def test_orders_pair(self):
        assert check_pair(24, 12) == Violation(12, 24, 12, 3)

    def test_equal_rejected(self):
        with pytest.raises(ValueError):
            check_pair(6, 6)
        with pytest.raises(ValueError):
            check_pair(0, 3)

    @pytest.mark.parametrize("a, b", [(3 << 64, 5 << 64), (5 << 64, 3 << 64)], ids=["ascending", "descending"])
    def test_gcd_past_cap_names_the_pair(self, a, b):
        # The same message as check_set's, with the pair in ascending order.
        message = (
            "gcd(55340232221128654848, 92233720368547758080) = 18446744073709551616"
            " is out of range: must be below 2**63"
        )
        with pytest.raises(OverflowError) as pair_error:
            check_pair(a, b)
        with pytest.raises(OverflowError) as set_error:
            check_set([a, b])
        assert str(pair_error.value) == str(set_error.value) == message


class TestCheckSet:
    def test_examples(self):
        assert check_set([1, 6, 7, 8]) == ()
        assert check_set([1, 16, 30, 17, 34]) == ()
        assert check_set([1, 10, 20, 40]) == (Violation(20, 40, 20, 3),)

    def test_violations_sorted(self):
        violations = check_set([8, 16, 24, 48])
        assert violations
        assert list(violations) == sorted(violations, key=lambda v: (v.a, v.b))

    def test_duplicates_rejected(self):
        for degrees in ([3, 5, 3], [0], [-5], [0, 3]):
            with pytest.raises(ValueError):
                check_set(degrees)

    @settings(deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=10**6), min_size=2, max_size=8))
    def test_pairwise_decomposition(self, degrees):
        values = sorted(degrees)
        violations = check_set(values)
        pair_results = [
            check_pair(a, b)
            for i, a in enumerate(values)
            for b in values[i + 1 :]
        ]
        assert (not violations) == all(v is None for v in pair_results)
        assert set(violations) == {v for v in pair_results if v is not None}

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


class TestPglDegreeSets:
    def test_sample_prime_powers_pass(self):
        for q in (7, 8, 9, 27, 128, 1024, 3125, 2**20):
            pp = PrimePower.from_value(q)
            pgl = OuterSubgroup(OuterKind.UNTWISTED if pp.p == 2 else OuterKind.WITH_DIAGONAL, 1)
            assert check_set(character_degrees(GroupDescriptor(pp, pgl))) == ()
