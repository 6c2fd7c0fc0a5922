from fractions import Fraction

import pytest

from singular_weyl import (
    AdmissibilityError,
    Eigenvalue,
    ParameterSet,
    admissible_pairs,
    enumerate_admissible,
    is_admissible,
    pair_eigenvalue,
    radial_pairs,
    triangular_to_radial,
    weight_residue,
)
from conftest import brute_force_admissible


class TestEigenvalueOfPair:
    def test_paper_point(self):
        assert pair_eigenvalue(3, 5, 2) == 75

    def test_small_case_in_a3(self):
        assert pair_eigenvalue(3, 1, 0) == 3
        assert 3 in brute_force_admissible(3, 10)

    def test_n1_triangular(self):
        # triangular l_t has lambda = l_t(l_t - 1)/2
        assert pair_eigenvalue(1, *triangular_to_radial(1)) == 0
        assert pair_eigenvalue(1, *triangular_to_radial(3)) == 3

    def test_k_out_of_range(self):
        with pytest.raises(AdmissibilityError):
            pair_eigenvalue(3, 2, -1)
        with pytest.raises(AdmissibilityError):
            pair_eigenvalue(1, 2, 2)


class TestIsAdmissible:
    def test_even_n_parity(self):
        assert not is_admissible(2, 3)
        assert is_admissible(2, 2)
        assert not is_admissible(4, 2)
        assert is_admissible(4, 4)

    def test_odd_n_paper_point(self):
        assert is_admissible(3, 75)
        assert is_admissible(3, 3)
        assert not is_admissible(3, 4)

    def test_non_integral_and_negative(self):
        assert not is_admissible(3, Fraction(7, 2))
        assert not is_admissible(2, -4)
        assert not is_admissible(5, 0)

    def test_triangular_n1(self):
        assert is_admissible(1, 0)
        assert is_admissible(1, 1)
        assert not is_admissible(1, 2)
        assert is_admissible(1, 10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_small(self, n):
        truth = brute_force_admissible(n, 300)
        for lam in range(1, 301):
            assert is_admissible(n, lam) == (lam in truth), (n, lam)


class TestEnumerateAdmissible:
    def test_examples(self):
        assert [int(e) for e in enumerate_admissible(4, 10)] == [4, 6, 8, 10]
        assert [int(e) for e in enumerate_admissible(3, 5)] == [3, 5]
        assert [int(e) for e in enumerate_admissible(1, 3)] == [1, 3]

    def test_strictly_increasing_and_complete(self):
        for n in (2, 3, 5):
            vals = [int(e) for e in enumerate_admissible(n, 200)]
            assert vals == sorted(set(vals))
            assert set(vals) == {v for v in brute_force_admissible(n, 200) if v > 0}


class TestAdmissiblePairs:
    def test_paper_lattice_points(self):
        assert admissible_pairs(3, 75) == [(5, 2), (3, 9), (1, 36)]

    def test_n2_negative_k(self):
        assert admissible_pairs(2, 4) == [(2, -1), (1, 1)]

    def test_divisor_scan_small(self):
        assert admissible_pairs(3, 3) == [(1, 0)]

    def test_inadmissible_raises(self):
        with pytest.raises(AdmissibilityError):
            admissible_pairs(2, 3)
        with pytest.raises(AdmissibilityError):
            admissible_pairs(3, 0)

    def test_pairs_recover_eigenvalue(self):
        for n in (2, 3, 4, 5):
            for ev in enumerate_admissible(n, 120):
                pairs = admissible_pairs(n, ev.value)
                assert pairs, (n, ev.value)
                ls = [l for l, _ in pairs]
                assert ls == sorted(ls, reverse=True)
                for l, k in pairs:
                    assert pair_eigenvalue(n, l, k) == ev.value

    def test_pair_count_matches_divisor_brute_force(self):
        # l ranges over solutions of lambda = l(2l+2k+n-2) with k in range
        for n in (2, 3, 4):
            for ev in enumerate_admissible(n, 80):
                lam = int(ev)
                count = 0
                for l in range(1, lam + 1):
                    rem = lam - l * (2 * l + n - 2)
                    if rem < 0 and n >= 3:
                        break
                    if rem % (2 * l) == 0:
                        k = rem // (2 * l)
                        if (n >= 3 and k >= 0) or n == 2:
                            count += 1
                assert len(admissible_pairs(n, lam)) == count

    def test_n1_triangular_pairs(self):
        assert admissible_pairs(1, 3) == [(3, 0)]
        assert admissible_pairs(1, 10) == [(5, 0)]


class TestRadialIndexing:
    def test_roundtrip(self):
        for l_tri in range(12):
            l, k = triangular_to_radial(l_tri)
            assert 2 * l + k == l_tri
            assert pair_eigenvalue(1, l, k) == l_tri * (l_tri - 1) // 2

    def test_radial_pairs_n1(self):
        assert radial_pairs(1, 3) == [(1, 1)]
        assert radial_pairs(1, 6) == [(2, 0)]

    def test_radial_pairs_matches_for_higher_n(self):
        assert radial_pairs(3, 75) == admissible_pairs(3, 75)


class TestParameterSet:
    def test_r_is_minus_half_n(self):
        assert ParameterSet(n=3, q=0, s=0.5j).r == Fraction(-3, 2)

    def test_s_nonzero(self):
        with pytest.raises(ValueError):
            ParameterSet(n=2, q=0, s=0)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), complex(float("nan"), 1.0)])
    def test_s_finite(self, s):
        with pytest.raises(ValueError, match="s must be finite"):
            ParameterSet(n=2, q=0, s=s)

    def test_q_normalized(self):
        assert ParameterSet(n=2, q=7, s=1.0).q == 3


class TestWeightResidue:
    @pytest.mark.parametrize(
        "q,k,expected", [(0, 0, 0), (3, 2, 3), (1, 3, 3)]
    )
    def test_examples(self, q, k, expected):
        params = ParameterSet(n=3, q=q, s=0.5j)
        assert weight_residue(params, k) == expected


class TestEigenvalueType:
    def test_validated(self):
        Eigenvalue(3, Fraction(75))
        Eigenvalue(3, Fraction(0))
        with pytest.raises(AdmissibilityError):
            Eigenvalue(3, Fraction(4))

    def test_zero_flag(self):
        assert Eigenvalue(2, Fraction(0)).is_zero
        assert not Eigenvalue(2, Fraction(2)).is_zero
