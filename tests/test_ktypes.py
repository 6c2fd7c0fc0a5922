import numpy as np
import pytest

from singular_weyl import (
    AdmissibilityError,
    CongruenceError,
    Eigenvalue,
    KTypeIndex,
    KTypeVector,
    LinearCombination,
    ParameterSet,
    compact_of_noncompact,
    harmonic_basis,
    harmonic_representative,
    make_ktype,
    periodicity_residual,
    to_noncompact,
)
from fractions import Fraction


@pytest.fixture
def sample_points(rng):
    theta = rng.uniform(-1.2, 1.2, 20)
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rho = rng.uniform(0.2, 2.0, 20)
    return theta, rho[:, None] * dirs


class TestMakeKtype:
    def test_congruence_rejected(self):
        params = ParameterSet(n=3, q=0, s=0.5j)
        h = harmonic_representative(3, 0)
        with pytest.raises(CongruenceError):
            make_ktype(params, 2, 1, 0, h)

    def test_valid_construction(self):
        params = ParameterSet(n=3, q=2, s=0.5j)
        F = make_ktype(params, 2, 1, 0, harmonic_representative(3, 0))
        assert F.lam.value == 3

    def test_admissibility_checked_via_lemma(self):
        # lambda = 2(4+2+1) = 14 = 2*7, odd part 7 >= 3 + 4 - 2
        params = ParameterSet(n=3, q=2, s=0.5j)
        F = make_ktype(params, 0, 2, 1, harmonic_representative(3, 1))
        assert F.lam.value == 14

    def test_degree_mismatch(self):
        params = ParameterSet(n=3, q=0, s=0.5j)
        with pytest.raises(ValueError):
            make_ktype(params, 0, 1, 2, harmonic_representative(3, 1))

    def test_zero_harmonic_rejected(self):
        from singular_weyl import HarmonicPolynomial, Polynomial

        params = ParameterSet(n=3, q=0, s=0.5j)
        zero = HarmonicPolynomial(Polynomial(3), 0)
        with pytest.raises(ValueError):
            make_ktype(params, 0, 1, 0, zero)

    def test_lambda_zero_family(self):
        params = ParameterSet(n=3, q=2, s=0.5j)
        F = make_ktype(params, 2, 0, 0, harmonic_representative(3, 0))
        assert F.lam.is_zero

    def test_n2_inadmissible_negative_k(self):
        # l(l+k) <= 0 gives lambda <= 0: not admissible
        params = ParameterSet(n=2, q=0, s=0.5j)
        from singular_weyl import circular_harmonic

        with pytest.raises(AdmissibilityError):
            make_ktype(params, 2, 1, -1, circular_harmonic(-1))

    def test_n1_radial_indexing(self):
        params = ParameterSet(n=1, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(1, 1))
        assert F.lam.value == 3  # l(2l+2k-1) = 1*3, triangular


class TestEvalCompact:
    def test_vanishes_at_origin_for_positive_l(self):
        params = ParameterSet(n=3, q=2, s=0.5j)
        F = make_ktype(params, 2, 1, 0, harmonic_representative(3, 0))
        assert F.eval_compact(0.3, np.zeros(3)) == 0

    def test_lowest_weight_closed_form(self, rng):
        # m = 2k+4l+n: F = e^{-im theta/2} e^{+is rho^2} rho^{2l} h
        n, l, k = 3, 1, 1
        params = ParameterSet(n=n, q=n % 4, s=0.5j)
        m = 2 * k + 4 * l + n
        F = make_ktype(params, m, l, k, harmonic_representative(n, k))
        assert F.is_lowest_weight
        for _ in range(10):
            theta = rng.uniform(-1, 1)
            y = rng.uniform(-1, 1, 3)
            rho2 = (y**2).sum()
            expected = (
                np.exp(-0.5j * m * theta)
                * np.exp(1j * params.s * rho2)
                * rho2**l
                * (y[0] + 1j * y[1]) ** k
            )
            assert abs(F.eval_compact(theta, y) - expected) <= 1e-12 * abs(expected)

    def test_highest_weight_closed_form(self, rng):
        n, l, k = 3, 1, 1
        params = ParameterSet(n=n, q=(-n) % 4, s=0.5j)
        m = -(2 * k + 4 * l + n)
        F = make_ktype(params, m, l, k, harmonic_representative(n, k))
        assert F.is_highest_weight
        for _ in range(10):
            theta = rng.uniform(-1, 1)
            y = rng.uniform(-1, 1, 3)
            rho2 = (y**2).sum()
            expected = (
                np.exp(0.5j * abs(m) * theta)
                * np.exp(-1j * params.s * rho2)
                * rho2**l
                * (y[0] + 1j * y[1]) ** k
            )
            assert abs(F.eval_compact(theta, y) - expected) <= 1e-12 * abs(expected)


class TestPictureTransforms:
    def test_identity_at_t_zero(self, rng):
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        f = to_noncompact(F)
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            assert abs(f(0.0, x) - F.eval_compact(0.0, x)) < 1e-14

    def test_roundtrip_on_strip(self, rng, sample_points):
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        f = to_noncompact(F)
        theta, Y = sample_points
        rec = compact_of_noncompact(f, theta, Y, params.s)
        direct = F.eval_compact(theta, Y)
        assert np.max(np.abs(rec - direct) / np.maximum(1, np.abs(direct))) <= 1e-12

    def test_singular_angle_raises(self):
        params = ParameterSet(n=2, q=0, s=0.5j)
        F = make_ktype(params, 2, 1, 1, harmonic_representative(2, 1))
        f = to_noncompact(F)
        with pytest.raises(ValueError):
            compact_of_noncompact(f, np.pi / 2, np.array([0.5, 0.5]), params.s)

    def test_halfpi_limit_matches_periodic_extension(self, rng):
        # reconstruction from below pi/2 and the periodic reconstruction from
        # the shifted strip agree with the direct formula at theta = pi/2 +- d
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        f = to_noncompact(F)
        phase = 1j ** ((-params.q) % 4)
        for delta in (1e-2, 1e-3):
            y = rng.uniform(0.3, 1.0, 3)
            below = np.pi / 2 - delta
            rec = compact_of_noncompact(f, below, y, params.s)
            assert abs(rec - F.eval_compact(below, y)) <= 1e-8 * max(
                1, abs(rec)
            )
            above = np.pi / 2 + delta
            rec_ext = phase * compact_of_noncompact(f, above - np.pi, -y, params.s)
            assert abs(rec_ext - F.eval_compact(above, y)) <= 1e-8 * max(1, abs(rec_ext))

    def test_smooth_across_t_sign_change(self, rng):
        params = ParameterSet(n=2, q=0, s=-0.25)
        F = make_ktype(params, 2, 1, 1, harmonic_representative(2, 1))
        f = to_noncompact(F)
        x = np.array([0.7, -0.4])
        eps = 1e-6
        assert abs(f(eps, x) - f(-eps, x)) < 1e-4


class TestPeriodicity:
    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
    def test_residual_vanishes(self, j, rng, sample_points):
        params = ParameterSet(n=3, q=3, s=0.5j)
        F = make_ktype(params, 1, 1, 1, harmonic_representative(3, 1))
        theta, Y = sample_points
        res = periodicity_residual(F, theta, Y, j)
        scale = np.maximum(1, np.abs(F.eval_compact(theta, Y)))
        assert np.max(np.abs(res) / scale) <= 1e-12

    def test_negative_k_periodicity(self, rng):
        from singular_weyl import circular_harmonic

        params = ParameterSet(n=2, q=0, s=0.5j)
        F = make_ktype(params, 2, 2, -1, circular_harmonic(-1))
        theta = rng.uniform(-1, 1, 10)
        Y = rng.uniform(-1, 1, (10, 2))
        res = periodicity_residual(F, theta, Y, 1)
        assert np.max(np.abs(res)) <= 1e-12

    def test_broken_congruence_negative_control(self, rng, sample_points):
        # bypass validation: m = 1 with 2k+q = 0 violates the congruence
        params = ParameterSet(n=3, q=0, s=0.5j)
        h = harmonic_representative(3, 0)
        bad = KTypeVector(params, KTypeIndex(1, 1, 0), h, Eigenvalue(3, Fraction(3)))
        theta, Y = sample_points
        res = periodicity_residual(bad, theta, Y, 1)
        assert np.max(np.abs(res)) > 1e-3


class TestOriginBehavior:
    def test_rho_k_radial_factor_bounded(self):
        params = ParameterSet(n=3, q=0, s=0.5j)
        for l, k in [(1, 2), (2, 1), (3, 0)]:
            m = (params.q + 2 * k) % 4
            F = make_ktype(params, m, l, k, harmonic_representative(3, k))
            rhos = np.array([1e-3, 1e-4, 1e-5])
            # h(e1) = 1, so |F(0, rho e1)| is the radial factor times rho^k
            vals = np.abs(F.eval_compact(0.0, rhos[:, None] * np.eye(3)[0]))
            bound = max(1.0, vals[0])
            assert np.all(vals <= bound)


class TestLinearCombination:
    def test_merging_and_zero_drop(self):
        params = ParameterSet(n=3, q=2, s=0.5j)
        F = make_ktype(params, 2, 1, 0, harmonic_representative(3, 0))
        lc = LinearCombination([(1.0, F), (2.0, F), (-3.0, F)])
        assert lc.is_empty()
        lc2 = LinearCombination([(1.5, F)])
        assert lc2.coefficient(2, 1, 0) == 1.5

    def test_proportional_harmonics_merge(self):
        params = ParameterSet(n=3, q=2, s=0.5j)
        h = harmonic_representative(3, 0)
        h2 = harmonic_representative(3, 0)
        from singular_weyl import HarmonicPolynomial

        scaled = HarmonicPolynomial(h.poly.scale(2), 0)
        F1 = make_ktype(params, 2, 1, 0, h)
        F2 = make_ktype(params, 2, 1, 0, scaled)
        lc = LinearCombination([(1.0, F1), (1.0, F2)])
        assert len(lc.terms) == 1
        assert lc.terms[0][0] == 3.0  # 1 + 1*2

    def test_eval_is_linear(self, rng):
        params = ParameterSet(n=3, q=2, s=0.5j)
        F1 = make_ktype(params, 2, 1, 0, harmonic_representative(3, 0))
        F2 = make_ktype(params, 6, 1, 0, harmonic_representative(3, 0))
        lc = LinearCombination([(2.0, F1), (-1j, F2)])
        theta, y = 0.4, rng.uniform(-1, 1, 3)
        expected = 2.0 * F1.eval_compact(theta, y) - 1j * F2.eval_compact(theta, y)
        assert abs(lc.eval_compact(theta, y) - expected) < 1e-13


class TestSerialization:
    def test_ktype_json(self):
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        data = F.to_json()
        assert data["n"] == 3 and data["m"] == 3 and data["lambda"] == [5, 1]
        assert data["s"] == [0.0, 0.5]
        assert isinstance(data["h"], list)
