import pytest

from psl2cd.arithmetic import prime_power_decompose, prime_powers, prime_sieve
from psl2cd.groups import PrimePower
from psl2cd.maximals import (
    maximal_subgroups,
    pgl2_order,
    pgl_maximals_special,
    psl2_order,
)

from _oracles import trial_omega


def by_structure(entries):
    return {e.structure: (e.order, e.index) for e in entries}


class TestCatalogExamples:
    def test_q8(self):
        entries = maximal_subgroups(PrimePower.from_value(8))
        assert by_structure(entries) == {
            "2^3:7": (56, 9),
            "D14": (14, 36),
            "D18": (18, 28),
        }

    def test_q9(self):
        entries = maximal_subgroups(PrimePower.from_value(9))
        assert by_structure(entries) == {
            "A5": (60, 6),
            "3^2:4": (36, 10),
            "S4": (24, 15),
        }

    def test_q7_q11(self):
        assert by_structure(maximal_subgroups(PrimePower.from_value(7))) == {
            "C7:C3": (21, 8),
            "S4": (24, 7),
        }
        assert by_structure(maximal_subgroups(PrimePower.from_value(11))) == {
            "A5": (60, 11),
            "C11:C5": (55, 12),
            "D12": (12, 55),
        }

    def test_q13(self):
        entries = maximal_subgroups(PrimePower.from_value(13))
        assert by_structure(entries) == {
            "13:6": (78, 14),
            "D12": (12, 91),
            "D14": (14, 78),
            "A4": (12, 91),
        }

    def test_q25(self):
        # S4 lies in the subfield PGL(2,5), so it is not maximal at q = p^2
        # for p = 3 or 5 (mod 8); it is maximal only at q = p = 1 or 7 (mod 8).
        entries = maximal_subgroups(PrimePower.from_value(25))
        assert by_structure(entries) == {
            "5^2:12": (300, 26),
            "D24": (24, 325),
            "D26": (26, 300),
            "PGL(2,5)": (120, 65),
        }

    def test_q121(self):
        entries = maximal_subgroups(PrimePower.from_value(121))
        assert by_structure(entries) == {
            "11^2:60": (7260, 122),
            "D120": (120, 7381),
            "D122": (122, 7260),
            "PGL(2,11)": (1320, 671),
        }

    def test_q64_subfields(self):
        entries = by_structure(maximal_subgroups(PrimePower.from_value(64)))
        assert "PGL(2,8)" in entries and entries["PGL(2,8)"][0] == 504
        assert "PGL(2,4)" in entries and entries["PGL(2,4)"][0] == 60

    def test_q729_subfields(self):
        entries = by_structure(maximal_subgroups(PrimePower.from_value(729)))
        assert entries["PGL(2,27)"][0] == 27 * 26 * 28
        assert entries["PSL(2,9)"][0] == 360

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            maximal_subgroups(PrimePower.from_value(4))
        with pytest.raises(ValueError):
            maximal_subgroups(PrimePower.from_value(5))


class TestPglSpecials:
    def test_q7(self):
        assert by_structure(pgl_maximals_special(7)) == {
            "(C7:C3):C2": (42, 8),
            "D16": (16, 21),
            "D12": (12, 28),
        }

    def test_q11(self):
        entries = pgl_maximals_special(11)
        assert sorted(e.index for e in entries) == [12, 55, 55, 66]
        assert by_structure(entries)["D20"] == (20, 66)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pgl_maximals_special(13)

    def test_order_index_products(self):
        for q in (7, 11):
            for e in pgl_maximals_special(q):
                assert e.order * e.index == pgl2_order(q)
                assert e.omega_index == trial_omega(e.index)


class TestCatalogInvariants:
    QS = list(prime_powers(prime_sieve(600), 7, 600))

    def test_order_index_product(self):
        for q in self.QS:
            pp = PrimePower.from_value(q)
            for e in maximal_subgroups(pp):
                assert e.order * e.index == psl2_order(pp)
                assert e.omega_index == trial_omega(e.index)

    def test_borel_and_dihedral_indices(self):
        for q in self.QS:
            pp = PrimePower.from_value(q)
            for e in maximal_subgroups(pp):
                if e.family == "borel":
                    assert e.index == q + 1
                elif e.family == "dihedral_minus":
                    assert e.index == q * (q + 1) // 2
                elif e.family == "dihedral_plus":
                    assert e.index == q * (q - 1) // 2

    def test_alt5_membership_condition(self):
        import math

        for q in self.QS:
            pp = PrimePower.from_value(q)
            if pp.p == 2 or q in (7, 9, 11):
                continue
            has_alt5 = any(e.family == "alt5" for e in maximal_subgroups(pp))
            expected = q % 10 in (1, 9) and (
                pp.f == 1 or (pp.f == 2 and pp.p % 10 in (3, 7))
            )
            assert has_alt5 == expected
            if has_alt5 and q >= 19:
                # an A5 entry forces gcd(q, 30) = 1 here, whence 120 | q^2 - 1
                assert math.gcd(q, 30) == 1
                assert (q * q - 1) % 120 == 0

    def test_alt5_index_formula(self):
        for q in self.QS:
            pp = PrimePower.from_value(q)
            for e in maximal_subgroups(pp):
                if e.family == "alt5":
                    assert e.index == q * (q * q - 1) // 120

    def test_odd_subfield_index_has_three_primes(self):
        found = 0
        for q in prime_powers(prime_sieve(4096), 7, 4096):
            p, f = prime_power_decompose(q)
            if p == 2:
                continue
            pp = PrimePower(p, f, q)
            if q in (7, 9, 11):
                continue
            for e in maximal_subgroups(pp):
                if e.family == "subfield_psl":
                    assert e.omega_index >= 3
                    found += 1
        assert found > 0
