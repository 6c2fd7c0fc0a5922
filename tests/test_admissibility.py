from fractions import Fraction

import pytest

from singular_weyl import (
    AdmissibilityError,
    ParameterSet,
    admissible_pairs,
    enumerate_admissible,
    is_admissible,
    pair_eigenvalue,
    weight_residue,
)
from singular_weyl.admissibility import k_in_range
from conftest import brute_force_admissible


class TestEigenvalueOfPair:
    def test_paper_point(self):
        assert pair_eigenvalue(3, 5, 2) == 75

    def test_small_case_in_a3(self):
        assert pair_eigenvalue(3, 1, 0) == 3
        assert 3 in brute_force_admissible(3, 10)

    def test_n1_triangular(self):
        # at n = 1, lambda = l(2l+2k-1) is the triangular number T(t) = t(t-1)/2
        # of t = 2l+k
        assert pair_eigenvalue(1, 0, 1) == 0
        assert pair_eigenvalue(1, 1, 1) == 3

    def test_k_out_of_range(self):
        for n in (1, 2, 3, 4):
            with pytest.raises(AdmissibilityError):
                pair_eigenvalue(n, 2, -1)
        with pytest.raises(AdmissibilityError):
            pair_eigenvalue(1, 2, 2)

    def test_every_in_range_pair_is_admissible(self):
        # the invariant that lets make_ktype build from a pair unchecked
        bound = 3000
        for n in range(1, 9):
            l = 1
            while pair_eigenvalue(n, l, 0) <= bound:
                k = 0
                while k_in_range(n, k) and pair_eigenvalue(n, l, k) <= bound:
                    assert is_admissible(n, pair_eigenvalue(n, l, k)), (n, l, k)
                    k += 1
                l += 1

    def test_k_range(self):
        assert [k for k in range(-2, 5) if k_in_range(1, k)] == [0, 1]
        for n in (2, 3, 7):
            assert [k for k in range(-2, 5) if k_in_range(n, k)] == [0, 1, 2, 3, 4]


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
        assert enumerate_admissible(4, 10) == [4, 6, 8, 10]
        assert enumerate_admissible(3, 5) == [3, 5]
        assert enumerate_admissible(1, 3) == [1, 3]
        assert all(type(lam) is int for lam in enumerate_admissible(3, 100))

    def test_n1_lists_the_triangular_numbers(self):
        triangular = [l * (l - 1) // 2 for l in range(2, 101) if l * (l - 1) // 2 <= 5000]
        assert enumerate_admissible(1, 5000) == triangular
        assert enumerate_admissible(1, Fraction(7, 2)) == [1, 3]
        assert enumerate_admissible(1, 0) == []

    def test_smallest_eigenvalue_is_n(self):
        # sweep_group_algebra takes its K-type from lambda = n for every n
        for n in range(1, 41):
            assert enumerate_admissible(n, n)[0] == n
            assert enumerate_admissible(n, n - 1) == []

    def test_rejects_nonpositive_dimension(self):
        # checked up front, not only through is_admissible inside the loop
        for n, lam_max in ((0, 0), (-2, 0), (0, 5)):
            with pytest.raises(ValueError, match="dimension n must be >= 1"):
                enumerate_admissible(n, lam_max)

    def test_strictly_increasing_and_complete(self):
        for n in (2, 3, 5):
            vals = enumerate_admissible(n, 200)
            assert vals == sorted(set(vals))
            assert set(vals) == {v for v in brute_force_admissible(n, 200) if v > 0}


class TestAdmissiblePairs:
    def test_paper_lattice_points(self):
        assert admissible_pairs(3, 75) == [(5, 2), (3, 9), (1, 36)]

    def test_n2_negative_k(self):
        # 4 = 2l(l+k) also at (l, k) = (2, -1), but k < 0 is out of range;
        # the O(2)-weight -1 of (1, 1) lives in its harmonic instead
        assert admissible_pairs(2, 4) == [(1, 1)]
        assert admissible_pairs(2, 12) == [(2, 1), (1, 5)]

    def test_divisor_scan_small(self):
        assert admissible_pairs(3, 3) == [(1, 0)]

    def test_inadmissible_raises(self):
        with pytest.raises(AdmissibilityError):
            admissible_pairs(2, 3)
        with pytest.raises(AdmissibilityError):
            admissible_pairs(3, 0)

    def test_pairs_recover_eigenvalue(self):
        for n in (1, 2, 3, 4, 5):
            for lam in enumerate_admissible(n, 120):
                pairs = admissible_pairs(n, lam)
                assert pairs, (n, lam)
                ls = [l for l, _ in pairs]
                assert ls == sorted(ls, reverse=True)
                for l, k in pairs:
                    assert k_in_range(n, k)
                    assert pair_eigenvalue(n, l, k) == lam

    def test_pair_count_matches_divisor_brute_force(self):
        # l ranges over solutions of lambda = l(2l+2k+n-2) with k in range
        for n in (1, 2, 3, 4, 5):
            for lam in enumerate_admissible(n, 80):
                count = 0
                for l in range(1, lam + 1):
                    rem = lam - l * (2 * l + n - 2)
                    if rem < 0:
                        break
                    if rem % (2 * l) == 0 and k_in_range(n, rem // (2 * l)):
                        count += 1
                assert len(admissible_pairs(n, lam)) == count

    def test_n1_triangular_pairs(self):
        # one pair per triangular lambda = T(t): (l, k) = (t // 2, t mod 2)
        assert admissible_pairs(1, 1) == [(1, 0)]
        assert admissible_pairs(1, 10) == [(2, 1)]
        for lam in enumerate_admissible(1, 400):
            assert len(admissible_pairs(1, lam)) == 1


class TestRadialIndexing:
    # at n = 1 the triangular index t and the pair (l, k) = (t // 2, t mod 2)
    # carry the same information
    def test_roundtrip(self):
        for t in range(12):
            l, k = divmod(t, 2)
            assert 2 * l + k == t
            assert pair_eigenvalue(1, l, k) == t * (t - 1) // 2

    def test_radial_pairs_n1(self):
        assert admissible_pairs(1, 3) == [(1, 1)]
        assert admissible_pairs(1, 6) == [(2, 0)]


class TestParameterSet:
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

