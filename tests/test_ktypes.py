import numpy as np
import pytest

from singular_weyl import (
    AdmissibilityError,
    CongruenceError,
    KTypeVector,
    LinearCombination,
    ParameterSet,
    compact_of_noncompact,
    harmonic_representative,
    make_ktype,
    S_PRESETS,
    apply_E,
    periodicity_residual,
    to_noncompact,
)
from singular_weyl.hypergeometric import hyp1f1
from singular_weyl.ktypes import compact_function, eval_combinations, eval_compact_all


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
        assert F.lam == 3 and type(F.lam) is int

    def test_admissibility_checked_via_lemma(self):
        # lambda = 2(4+2+1) = 14 = 2*7, odd part 7 >= 3 + 4 - 2
        params = ParameterSet(n=3, q=2, s=0.5j)
        F = make_ktype(params, 0, 2, 1, harmonic_representative(3, 1))
        assert F.lam == 14

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
        assert F.lam == 0

    def test_negative_l_rejected(self):
        params = ParameterSet(n=3, q=0, s=0.5j)
        with pytest.raises(ValueError):
            make_ktype(params, 0, -1, 0, harmonic_representative(3, 0))

    def test_n2_inadmissible_negative_k(self):
        # k < 0 is out of range for every n, even with a harmonic of
        # O(2)-weight -1
        params = ParameterSet(n=2, q=0, s=0.5j)
        from singular_weyl import circular_harmonic

        with pytest.raises(AdmissibilityError):
            make_ktype(params, 2, 1, -1, circular_harmonic(-1))

    def test_n1_radial_indexing(self):
        params = ParameterSet(n=1, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(1, 1))
        assert F.lam == 3  # l(2l+2k-1) = 1*3, triangular


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


class TestPointWidth:
    """Points whose width is not n raise on every evaluation path, rather
    than give a number from the wrong count of variables."""

    @pytest.fixture
    def F(self):
        return make_ktype(ParameterSet(3, 0, 0.5j), 4, 1, 2, harmonic_representative(3, 2))

    ENTRY_POINTS = {
        "eval_compact": lambda F, y: F.eval_compact(0.1, y),
        "eval_compact_all": lambda F, y: eval_compact_all([F, F], [0.1, 0.2], np.stack([y, y])),
        "compact_function": lambda F, y: compact_function(F)(0.1, y),
        "to_noncompact": lambda F, y: to_noncompact(F)(0.1, y),
    }

    @pytest.mark.parametrize("width", [2, 4])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_entry_point_raises(self, F, entry, width):
        with pytest.raises(ValueError, match="space coordinates"):
            self.ENTRY_POINTS[entry](F, np.linspace(0.3, 0.6, width))


def separate_eval(F, theta, y):
    """F(theta, y) with a 1F1 call of its own, in ``eval_compact``'s factor order."""
    theta, y = np.atleast_1d(theta), np.atleast_2d(y)
    s = F.params.s
    rho2 = (y**2).sum(axis=1)
    return (
        np.exp(-0.5j * F.m * theta)
        * np.exp(-1j * s * rho2)
        * rho2**F.l
        * F.h(y)
        * hyp1f1(float(F.a), float(F.b), 2j * s * rho2)
    )


class TestEvalCompactAll:
    @pytest.fixture(params=sorted(S_PRESETS))
    def lowered(self, request):
        """E_1^- of F_{3,1,1}: its same_up and up_down terms share (a, b)."""
        params = ParameterSet(n=3, q=1, s=S_PRESETS[request.param])
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        return F, apply_E(F, 1, -1)

    def test_shared_series_changes_no_bit(self, lowered, sample_points):
        F, lc = lowered
        vectors = [F, *(v for _, v in lc.terms), F]
        assert len({(v.a, v.b) for v in vectors}) < len(vectors) - 1
        theta, y = sample_points
        values = eval_compact_all(vectors, theta, y)
        assert len(values) == len(vectors)
        for vec, value in zip(vectors, values):
            assert np.array_equal(value, separate_eval(vec, theta, y))
            assert np.array_equal(value, vec.eval_compact(theta, y))

    def test_single_point(self, lowered, sample_points):
        F, lc = lowered
        vectors = [F, *(v for _, v in lc.terms)]
        theta, y = sample_points[0][0], sample_points[1][0]
        values = eval_compact_all(vectors, theta, y)
        for vec, value in zip(vectors, values):
            assert isinstance(value, complex)
            assert value == complex(separate_eval(vec, theta, y)[0])

    def test_linear_combination(self, lowered, sample_points):
        _, lc = lowered
        labels = {(v.l, v.k) for _, v in lc.terms}
        assert {(1, 2), (2, 0)} <= labels  # same_up and up_down
        theta, y = sample_points
        expected = None
        for c, v in lc.terms:
            val = c * separate_eval(v, theta, y)
            expected = val if expected is None else expected + val
        assert np.array_equal(eval_combinations([lc], theta, y)[0], expected)


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
        res, f = periodicity_residual(F, theta, Y)
        assert res.shape == (4, len(theta))
        if j == 0:
            # the unshifted copy of the stacked batch is F itself, bit for bit
            assert np.array_equal(f, F.eval_compact(theta, Y))
        else:
            assert np.max(np.abs(res[j - 1]) / np.maximum(1, np.abs(f))) <= 1e-12

    def test_negative_k_periodicity(self, rng):
        from singular_weyl import circular_harmonic

        # the O(2)-weight -1 sits in the harmonic of the pair (1, 1)
        params = ParameterSet(n=2, q=0, s=0.5j)
        F = make_ktype(params, 2, 1, 1, circular_harmonic(-1))
        theta = rng.uniform(-1, 1, 10)
        Y = rng.uniform(-1, 1, (10, 2))
        res, _ = periodicity_residual(F, theta, Y)
        assert np.max(np.abs(res[0])) <= 1e-12

    def test_broken_congruence_negative_control(self, rng):
        # each wrong residue m != 2k + q (mod 4), built past make_ktype's
        # CongruenceError: F(theta + pi, -y) = i^{2k-m} F(theta, y), and
        # i^{2k-m} != i^{-q}, so the law fails by |i^{2k-m} - i^{-q}| >= sqrt(2)
        # times |F| at every point
        for n in (1, 2, 3):
            theta = rng.uniform(-1.2, 1.2, 10)
            Y = rng.uniform(-1, 1, (10, n))
            for q in range(4):
                params = ParameterSet(n=n, q=q, s=0.5j)
                for k in range(2 if n == 1 else 3):
                    h = harmonic_representative(n, k)
                    for m in (2 * k + q + 1, 2 * k + q + 2, 2 * k + q - 1):
                        with pytest.raises(CongruenceError):
                            make_ktype(params, m, 1, k, h)
                        res, f = periodicity_residual(KTypeVector(params, m, 1, k, h), theta, Y)
                        shifted = res[0] + 1j ** (-q % 4) * f
                        expected = 1j ** ((2 * k - m) % 4) * f
                        np.testing.assert_allclose(shifted, expected, rtol=1e-12, atol=0)
                        assert np.all(np.abs(res[0]) >= np.sqrt(2) * np.abs(f) * (1 - 1e-12))


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
        # terms are kept as given, in order, and never merged; only the
        # zero coefficients are dropped
        params = ParameterSet(n=3, q=2, s=0.5j)
        F = make_ktype(params, 2, 1, 0, harmonic_representative(3, 0))
        assert LinearCombination([(0, F), (0j, F)]).is_empty()
        lc = LinearCombination([(1.5, F), (0, F), (2, F)])
        assert lc.terms == [(1.5, F), (2 + 0j, F)]
        assert all(type(c) is complex for c, _ in lc.terms)
        assert lc.coefficient(2, 1, 0) == 3.5

    def test_eval_is_linear(self, rng):
        params = ParameterSet(n=3, q=2, s=0.5j)
        F1 = make_ktype(params, 2, 1, 0, harmonic_representative(3, 0))
        F2 = make_ktype(params, 6, 1, 0, harmonic_representative(3, 0))
        lc = LinearCombination([(2.0, F1), (-1j, F2)])
        theta, y = 0.4, rng.uniform(-1, 1, 3)
        expected = 2.0 * F1.eval_compact(theta, y) - 1j * F2.eval_compact(theta, y)
        assert abs(eval_combinations([lc], theta, y)[0] - expected) < 1e-13


class TestSerialization:
    def test_ktype_json(self):
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        data = F.to_json()
        assert data["n"] == 3 and data["m"] == 3 and data["lambda"] == [5, 1]
        assert data["s"] == [0.0, 0.5]
        assert isinstance(data["h"], list)

