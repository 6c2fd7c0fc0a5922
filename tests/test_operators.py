from fractions import Fraction

import numpy as np
import pytest

from singular_weyl import (
    GroupElement,
    LinearCombination,
    OperatorSpec,
    ParameterSet,
    apply_E,
    apply_eta,
    apply_kappa,
    fd_apply,
    group_action_noncompact,
    group_parameter_derivative,
    harmonic_representative,
    make_ktype,
    recover_E_coefficients,
    to_noncompact,
)
from singular_weyl.ktypes import SpaceTimeFunction
from singular_weyl.operators import (
    SingularityError,
    _partials,
    eta_coefficient,
    ktype_steps,
    printed_E_coefficients,
    shipped_E_coefficients,
)


@pytest.fixture
def params3():
    return ParameterSet(n=3, q=1, s=0.5j)


@pytest.fixture
def F311(params3):
    return make_ktype(params3, 3, 1, 1, harmonic_representative(3, 1))


def compact_points(n, rng, count=20):
    theta = rng.uniform(-1.2, 1.2, count)
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rho = rng.uniform(0.3, 1.8, count)
    return np.concatenate([theta[:, None], rho[:, None] * dirs], axis=1)


def noncompact_points(n, rng, count=20):
    t = rng.uniform(-1.2, 1.2, count)
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    nx = rng.uniform(0.3, 2.0, count)
    return np.concatenate([t[:, None], nx[:, None] * dirs], axis=1)


class TestKappa:
    def test_zero_weight(self):
        params = ParameterSet(n=3, q=0, s=0.5j)
        F = make_ktype(params, 0, 2, 0, harmonic_representative(3, 0))
        assert apply_kappa(F).is_empty()

    def test_scalar_action(self):
        params = ParameterSet(n=3, q=2, s=0.5j)
        F = make_ktype(params, 6, 1, 0, harmonic_representative(3, 0))
        lc = apply_kappa(F)
        assert lc.coefficient(6, 1, 0) == 3.0

    def test_against_fd_oracle(self, F311, params3, rng):
        P = compact_points(3, rng)
        steps = ktype_steps(F311, P, "compact")
        closed = apply_kappa(F311).eval_compact(P[:, 0], P[:, 1:])
        oracle = fd_apply(OperatorSpec.kappa(params3), F311.compact_function(), P, steps=steps)
        assert np.max(np.abs(closed - oracle)) <= 1e-8 * np.max(np.abs(closed))


class TestEta:
    def test_lowest_weight_killed(self):
        n, l, k = 3, 1, 1
        params = ParameterSet(n=n, q=n % 4, s=0.5j)
        m = 2 * k + 4 * l + n
        F = make_ktype(params, m, l, k, harmonic_representative(n, k))
        assert apply_eta(F, -1).is_empty()
        assert not apply_eta(F, +1).is_empty()

    def test_highest_weight_killed(self):
        n, l, k = 3, 1, 1
        params = ParameterSet(n=n, q=(-n) % 4, s=0.5j)
        m = -(2 * k + 4 * l + n)
        F = make_ktype(params, m, l, k, harmonic_representative(n, k))
        assert apply_eta(F, +1).is_empty()
        assert not apply_eta(F, -1).is_empty()

    def test_explicit_coefficient(self, F311):
        # -(3 + 4 + 2 + 3)/4 = -3 on F_{7,1,1}
        lc = apply_eta(F311, +1)
        assert lc.coefficient(7, 1, 1) == -3.0

    def test_against_fd_oracle(self, F311, params3, rng):
        P = compact_points(3, rng)
        steps = ktype_steps(F311, P, "compact")
        fc = F311.compact_function()
        for sign in (1, -1):
            closed = apply_eta(F311, sign).eval_compact(P[:, 0], P[:, 1:])
            oracle = fd_apply(OperatorSpec.eta(params3, sign), fc, P, steps=steps)
            scale = np.maximum(1, np.abs(closed))
            assert np.max(np.abs(closed - oracle) / scale) <= 1e-8


class TestCommutationRelations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_coefficient_identities(self, n):
        # [kappa, eta+-] = +-2 eta+- and [eta+, eta-] = kappa on every weight
        for l, k in [(1, 0), (1, 1), (2, 1), (0, 2)]:
            if n == 1 and k > 1:
                continue
            boundary = 2 * k + 4 * l + n
            for m in range(-boundary - 8, boundary + 9):

                class Stub:
                    pass

                F = Stub()
                F.m, F.l, F.k = m, l, k
                F.params = ParameterSet(n=n, q=(2 * k + m) % 4, s=1.0)
                c_plus = eta_coefficient(F, +1)
                c_minus = eta_coefficient(F, -1)

                F_up = Stub()
                F_up.m, F_up.l, F_up.k, F_up.params = m + 4, l, k, F.params
                F_dn = Stub()
                F_dn.m, F_dn.l, F_dn.k, F_dn.params = m - 4, l, k, F.params

                # [kappa, eta+] coefficient on F_{m+4}
                lhs = c_plus * Fraction(m + 4, 2) - Fraction(m, 2) * c_plus
                assert lhs == 2 * c_plus
                lhs = c_minus * Fraction(m - 4, 2) - Fraction(m, 2) * c_minus
                assert lhs == -2 * c_minus
                # [eta+, eta-] coefficient on F_m equals m/2 (the kappa action)
                bracket = c_minus * eta_coefficient(F_dn, +1) - c_plus * eta_coefficient(
                    F_up, -1
                )
                assert bracket == Fraction(m, 2)


class TestApplyE:
    def test_four_directions_generic(self, rng):
        params = ParameterSet(n=3, q=0, s=0.5j)
        F = make_ktype(params, 2, 2, 1, harmonic_representative(3, 1))
        lc = apply_E(F, 1, +1)
        indices = {(v.m, v.l, v.k) for _, v in lc.terms}
        assert indices == {(4, 1, 2), (4, 2, 2), (4, 2, 0), (4, 3, 0)}

    def test_l_zero_keeps_only_k_moves(self):
        params = ParameterSet(n=3, q=0, s=0.5j)
        F = make_ktype(params, 0, 0, 0, harmonic_representative(3, 0))
        lc = apply_E(F, 2, +1)
        indices = {(v.m, v.l, v.k) for _, v in lc.terms}
        assert indices == {(2, 0, 1)}  # d_j h = 0 and 2il = 0 at l = 0, k = 0

    def test_against_fd_oracle(self, rng):
        params = ParameterSet(n=2, q=0, s=-0.25)
        F = make_ktype(params, 2, 1, 1, harmonic_representative(2, 1))
        P = compact_points(2, rng)
        steps = ktype_steps(F, P, "compact")
        fc = F.compact_function()
        for j in (1, 2):
            for sign in (1, -1):
                closed = apply_E(F, j, sign).eval_compact(P[:, 0], P[:, 1:])
                oracle = fd_apply(
                    OperatorSpec.heisenberg_ladder(params, j, sign), fc, P, steps=steps
                )
                scale = np.maximum(1, np.abs(oracle))
                assert np.max(np.abs(closed - oracle) / scale) <= 1e-8

    def test_lowering_lowest_weight_lands_on_lowest_weights(self):
        # E_j^- on F_{(2k+4l+n),l,k} is supported on boundary-weight indices
        n, l, k = 3, 2, 1
        params = ParameterSet(n=n, q=n % 4, s=0.5j)
        m = 2 * k + 4 * l + n
        F = make_ktype(params, m, l, k, harmonic_representative(n, k))
        lc = apply_E(F, 1, -1)
        assert not lc.is_empty()
        for _, v in lc.terms:
            assert v.m == 2 * v.k + 4 * v.l + n  # each target is a lowest-weight vector

    def test_eigenvalue_shift_bookkeeping(self):
        params = ParameterSet(n=3, q=0, s=0.5j)
        F = make_ktype(params, 2, 2, 1, harmonic_representative(3, 1))
        lam = F.lam.value
        edge = 2 * F.l + 2 * F.k + 3 - 2
        for _, v in apply_E(F, 1, +1).terms:
            shift = v.lam.value - lam
            assert abs(shift) in (edge, 2 * F.l)

    def test_degenerate_zero_family_n2(self, rng):
        # (l, k, n) = (0, 0, 2): the generic coefficient formula is 0/0 and
        # only the (l, k+1) move survives, coefficient -s(sign*m + 2)
        params = ParameterSet(n=2, q=0, s=0.5j)
        F = make_ktype(params, 4, 0, 0, harmonic_representative(2, 0))
        P = compact_points(2, rng)
        steps = ktype_steps(F, P, "compact")
        fc = F.compact_function()
        recs = recover_E_coefficients(F, P)
        for sign in (1, -1):
            lc = apply_E(F, 1, sign)
            expect = -params.s * (sign * 4 + 2)
            if expect == 0:
                assert lc.is_empty()
            else:
                assert len(lc.terms) == 1
                assert abs(lc.terms[0][0] - expect) < 1e-14
            closed = lc.eval_compact(P[:, 0], P[:, 1:])
            oracle = fd_apply(
                OperatorSpec.heisenberg_ladder(params, 1, sign), fc, P, steps=steps
            )
            scale = np.maximum(1, np.abs(F.eval_compact(P[:, 0], P[:, 1:])))
            assert np.max(np.abs(closed - oracle) / scale) <= 1e-8
            rec = recs[1, sign]
            assert rec.lsq_residual <= 1e-8 and rec.matches_shipped

    def test_negative_k_not_supported(self):
        from singular_weyl import circular_harmonic

        params = ParameterSet(n=2, q=0, s=0.5j)
        F = make_ktype(params, 2, 2, -1, circular_harmonic(-1))
        with pytest.raises(NotImplementedError):
            apply_E(F, 1, +1)

    def test_coordinate_range_checked(self, F311):
        with pytest.raises(ValueError):
            apply_E(F311, 4, +1)


class TestERecovery:
    def test_matches_shipped_not_printed_for_lowering(self, rng):
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        P = compact_points(3, rng, 40)
        recs = recover_E_coefficients(F, P)
        assert list(recs) == [(1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)]
        rec = recs[1, -1]
        assert (rec.j, rec.sign) == (1, -1)
        assert rec.lsq_residual <= 1e-8
        assert rec.matches_shipped
        assert not rec.matches_printed

    def test_raising_matches_both(self, rng):
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        P = compact_points(3, rng, 40)
        rec = recover_E_coefficients(F, P)[1, +1]
        assert rec.matches_shipped and rec.matches_printed

    def test_rational_recovery_with_bounded_denominator(self, rng):
        params = ParameterSet(n=4, q=0, s=-0.25)
        F = make_ktype(params, 2, 1, 1, harmonic_representative(4, 1))
        P = compact_points(4, rng, 40)
        recs = recover_E_coefficients(F, P)
        for sign in (1, -1):
            rec = recs[2, sign]
            table = shipped_E_coefficients(4, F.m, F.l, F.k, sign)
            for label, frac in rec.rationals.items():
                assert frac == getattr(table, label)
                assert rec.rational_errors[label] <= 1e-6
                B = Fraction(2 * F.l + F.k) + Fraction(4, 2)
                assert frac.denominator <= (4 * B * (B - 1)).numerator

    def test_printed_tables_differ_only_for_lowering(self):
        for m, l, k in [(3, 1, 1), (2, 2, 1), (0, 1, 2)]:
            up_ship = shipped_E_coefficients(3, m, l, k, +1)
            up_print = printed_E_coefficients(3, m, l, k, +1)
            assert up_ship == up_print
            dn_ship = shipped_E_coefficients(3, m, l, k, -1)
            dn_print = printed_E_coefficients(3, m, l, k, -1)
            assert dn_ship.down_up == dn_print.down_up
            assert dn_ship.same_down == dn_print.same_down
            assert dn_ship.same_up != dn_print.same_up
            assert dn_ship.up_down != dn_print.up_down


class TestOmegaEigenvalue:
    def test_casimir_eigenvalue(self, rng):
        for n, q, l, k in [(2, 0, 1, 1), (3, 1, 1, 1), (1, 1, 1, 1)]:
            params = ParameterSet(n=n, q=q, s=0.5j)
            m = (q + 2 * k) % 4
            F = make_ktype(params, m, l, k, harmonic_representative(n, k))
            P = compact_points(n, rng)
            steps = ktype_steps(F, P, "compact")
            om = fd_apply(OperatorSpec.omega(params), F.compact_function(), P, steps=steps)
            Fv = F.eval_compact(P[:, 0], P[:, 1:])
            resid = om - 2 * float(F.lam.value) * Fv
            assert np.max(np.abs(resid) / np.maximum(1, np.abs(Fv))) <= 1e-6


class TestPdeResidual:
    def test_ktype_in_kernel(self, F311, params3, rng):
        P = noncompact_points(3, rng)
        f = to_noncompact(F311)
        steps = ktype_steps(F311, P, "noncompact")
        res = fd_apply(OperatorSpec.pde(params3, float(F311.lam.value)), f, P, steps)
        fv = f.batch(P)
        assert np.max(np.abs(res) / np.maximum(1, np.abs(fv))) <= 1e-6

    def test_constant_function(self, rng):
        one = SpaceTimeFunction(3, lambda pts: np.ones(pts.shape[0], dtype=complex))
        P = noncompact_points(3, rng, 5)
        params = ParameterSet(n=3, q=0, s=0.5j)
        res0 = fd_apply(OperatorSpec.pde(params, 0.0), one, P)
        assert np.max(np.abs(res0)) <= 1e-8
        res = fd_apply(OperatorSpec.pde(params, 7.0), one, P)
        expected = -2 * 7.0 / (P[:, 1:] ** 2).sum(axis=1)
        assert np.max(np.abs(res - expected)) <= 1e-8

    def test_singularity_guard(self):
        one = SpaceTimeFunction(2, lambda pts: np.ones(pts.shape[0], dtype=complex))
        P = np.array([[0.1, 1e-5, 0.0]])
        with pytest.raises(SingularityError):
            fd_apply(OperatorSpec.pde(ParameterSet(n=2, q=0, s=0.5j), 1.0), one, P)


class TestGroupAction:
    def test_identity(self, F311, rng):
        f = to_noncompact(F311)
        g = GroupElement.identity()
        acted = group_action_noncompact(g, f, F311.params.s)
        P = noncompact_points(3, rng, 5)
        assert np.allclose(acted.batch(P), f.batch(P))

    def test_heisenberg_pure_translation(self, F311, rng):
        # (v1, 0, 0) acts by translation with no prefactor
        f = to_noncompact(F311)
        v1 = np.array([0.3, -0.2, 0.4])
        acted = group_action_noncompact(GroupElement.heisenberg(v1, np.zeros(3), 0.0), f, 0.5j)
        for _ in range(5):
            t = rng.uniform(-1, 1)
            x = rng.uniform(-1, 1, 3)
            assert abs(acted(t, x) - f(t, x - v1)) < 1e-13

    def test_sl2_domain_error(self, F311):
        f = to_noncompact(F311)
        g = GroupElement.sl2_lower(0.9)
        acted = group_action_noncompact(g, f, F311.params.s)
        with pytest.raises(ValueError):
            acted(2.0, np.array([0.5, 0.5, 0.5]))  # a - ct = 1 - 1.8 < 0

    def test_orthogonal_action(self, F311, rng):
        f = to_noncompact(F311)
        theta = 0.7
        R = np.array(
            [
                [np.cos(theta), -np.sin(theta), 0],
                [np.sin(theta), np.cos(theta), 0],
                [0, 0, 1.0],
            ]
        )
        acted = group_action_noncompact(GroupElement.orthogonal(R), f, 0.5j)
        t = 0.3
        x = rng.uniform(-1, 1, 3)
        assert abs(acted(t, x) - f(t, R.T @ x)) < 1e-13

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError):
            GroupElement.orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "family,coeffs",
        [
            (GroupElement.sl2_diag, (1, 0, 0)),
            (GroupElement.sl2_upper, (0, 1, 0)),
            (GroupElement.sl2_lower, (0, 0, 1)),
        ],
    )
    def test_flow_derivative_matches_algebra(self, family, coeffs, F311, params3, rng):
        f = to_noncompact(F311)
        P = noncompact_points(3, rng)
        steps = ktype_steps(F311, P, "noncompact")
        flow = group_parameter_derivative(family, f, P, params3.s)
        alg = fd_apply(OperatorSpec.sl2(params3, *coeffs), f, P, steps=steps)
        scale = np.maximum(1, np.abs(f.batch(P)))
        assert np.max(np.abs(flow - alg) / scale) <= 1e-5

    @pytest.mark.parametrize("kind", ["sl2", "heisenberg", "orthogonal"])
    def test_flow_derivative_is_one_batch(self, kind, rng):
        # the six flows are evaluated in one f.batch call; the values equal
        # six separate evaluations of g(tau) . f through the same Richardson
        # formula (f is evaluated row by row, so batching cannot change it)
        f = _quadratic_exponential(3)
        P = noncompact_points(3, rng, 8)
        u = np.array([0.4, 0.1, -0.3])
        v = np.array([-0.2, 0.5, 0.3])
        families = {
            "sl2": GroupElement.sl2_lower,
            "heisenberg": lambda tau: GroupElement.heisenberg(tau * u, tau * v, 0.8 * tau),
            "orthogonal": lambda tau: GroupElement.orthogonal(
                np.array([[np.cos(tau), -np.sin(tau), 0], [np.sin(tau), np.cos(tau), 0], [0, 0, 1]])
            ),
        }
        family = families[kind]
        calls = []

        def batch(pts):
            calls.append(pts.shape[0])
            return f.batch(pts)

        flow = group_parameter_derivative(family, SpaceTimeFunction(3, batch), P, 0.5j)
        assert calls == [6 * len(P)]

        h = 1e-3
        m2, m1, p1, p2, m_half, p_half = (
            group_action_noncompact(family(c * h), f, 0.5j).batch(P)
            for c in (-2.0, -1.0, 1.0, 2.0, -0.5, 0.5)
        )
        d_h = (m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)
        d_h2 = (m1 - 8 * m_half + 8 * p_half - p1) / (6 * h)
        assert np.array_equal(flow, (16 * d_h2 - d_h) / 15)

    def test_heisenberg_flow_derivative(self, F311, params3, rng):
        f = to_noncompact(F311)
        P = noncompact_points(3, rng)
        steps = ktype_steps(F311, P, "noncompact")
        u = np.array([0.4, 0.1, -0.3])
        v = np.array([-0.2, 0.5, 0.3])
        w = 0.8
        flow = group_parameter_derivative(
            lambda tau: GroupElement.heisenberg(tau * u, tau * v, tau * w), f, P, params3.s
        )
        alg = fd_apply(OperatorSpec.heisenberg(params3, u, v, w), f, P, steps=steps)
        scale = np.maximum(1, np.abs(f.batch(P)))
        assert np.max(np.abs(flow - alg) / scale) <= 1e-5


class TestPictureEquivariance:
    def test_kappa_and_eta_transport(self, F311, params3, rng):
        # kappa = i(e- - e+), eta+- = (h -+ ... )/2 as complex sl2 combinations
        f = to_noncompact(F311)
        P = noncompact_points(3, rng)
        steps = ktype_steps(F311, P, "noncompact")
        scale = np.maximum(1, np.abs(f.batch(P)))

        kappa_nc = fd_apply(OperatorSpec.sl2(params3, 0, -1j, 1j), f, P, steps=steps)
        kappa_closed = to_noncompact(apply_kappa(F311)).batch(P)
        assert np.max(np.abs(kappa_nc - kappa_closed) / scale) <= 1e-5

        for sign in (1, -1):
            spec = OperatorSpec.sl2(params3, 0.5, sign * 0.5j, sign * 0.5j)
            eta_nc = fd_apply(spec, f, P, steps=steps)
            eta_closed = to_noncompact(apply_eta(F311, sign)).batch(P)
            assert np.max(np.abs(eta_nc - eta_closed) / scale) <= 1e-5


class TestFdInfrastructure:
    def test_first_derivative_of_exponential(self):
        g = SpaceTimeFunction(
            1, lambda pts: np.exp(1.3j * pts[:, 0] - 0.4 * pts[:, 1])
        )
        P = np.array([[0.3, 0.7], [-0.5, 1.1]])
        _, d1, _ = _partials(g, P, np.full(P.shape, 1e-3), first=(0, 1))
        assert np.allclose(d1[0], 1.3j * g.batch(P), rtol=1e-10)
        assert np.allclose(d1[1], -0.4 * g.batch(P), rtol=1e-10)

    def test_second_derivative_of_exponential(self):
        g = SpaceTimeFunction(
            1, lambda pts: np.exp(1.3j * pts[:, 0] - 0.4 * pts[:, 1])
        )
        P = np.array([[0.3, 0.7], [-0.5, 1.1]])
        # at h = 1e-3 roundoff (eps/h^2) alone is ~1e-9; at 3e-2 the errors
        # are 1.5e-12 along t and 6.5e-12 along x
        _, _, d2 = _partials(g, P, np.full(P.shape, 3e-2), second=(0, 1))
        np.testing.assert_allclose(d2[0], (1.3j) ** 2 * g.batch(P), rtol=1e-10, atol=0)
        np.testing.assert_allclose(d2[1], 0.16 * g.batch(P), rtol=1e-10, atol=0)

    def test_kind_specific_arity(self, params3):
        with pytest.raises(ValueError):
            OperatorSpec.heisenberg_ladder(params3, 5, 1)
        with pytest.raises(ValueError):
            OperatorSpec.heisenberg(params3, [1, 2], [1, 2, 3], 0)


def _quadratic_exponential(n):
    """exp of a complex quadratic in (t, x): each row is evaluated on its own,
    so its values do not depend on the batch it is part of."""
    c = np.linspace(0.2, 0.9, 2 + 2 * n)

    def batch(pts):
        t, x = pts[:, 0], pts[:, 1:]
        quad = (
            c[0] * 1j * t - c[1] * t**2 + 0.3j * t * x[:, 0]
            + x @ (c[2 : 2 + n] - 0.5j) - (x**2) @ (c[2 + n :] + 0.1j)
        )
        return np.exp(quad)

    return SpaceTimeFunction(n, batch)


def _composed_fd_apply(spec, f, P, h):
    """fd_apply written, as before the single batch, as one stencil call per
    partial; the arithmetic is the same operation for operation."""
    n, s, kind = spec.n, spec.s, spec.kind
    t, x = P[:, 0], P[:, 1:]
    rho2 = (x**2).sum(axis=1)
    f0 = f.batch(P)

    def d1(ax):
        return _partials(f, P, h, first=(ax,))[1][ax]

    def euler():
        out = np.zeros_like(f0)
        for j in range(n):
            out += x[:, j] * d1(1 + j)
        return out

    def lap():
        out = np.zeros_like(f0)
        for j in range(n):
            out += _partials(f, P, h, second=(1 + j,))[2][1 + j]
        return out

    if kind == "identity":
        return f0
    if kind == "kappa":
        return 1j * d1(0)
    if kind in ("eta_plus", "eta_minus"):
        sign = 1 if kind == "eta_plus" else -1
        e = euler()
        return 0.5 * np.exp(-sign * 2j * t) * (
            -e - sign * 1j * d1(0) - (n / 2 + sign * 2j * s * rho2) * f0
        )
    if kind in ("e_plus", "e_minus"):
        sign = 1 if kind == "e_plus" else -1
        return np.exp(-sign * 1j * t) * (sign * 1j * d1(spec.j) - 2 * s * x[:, spec.j - 1] * f0)
    if kind == "omega":
        lp = lap()
        return rho2 * (4 * s * d1(0) + 4 * s**2 * rho2 * f0 + lp)
    if kind == "sl2":
        alpha, beta, gamma = spec.sl2_coeffs
        r = -n / 2
        e = euler()
        return (
            (gamma * t - alpha) * e
            + (gamma * t**2 - 2 * alpha * t - beta) * d1(0)
            + (r * alpha - gamma * s * rho2 - r * gamma * t) * f0
        )
    if kind == "heisenberg":
        u, v, w = spec.heis_coeffs
        out = s * (w - 2 * (np.asarray(v)[None, :] * x).sum(axis=1)) * f0
        for j in range(n):
            if u[j] != 0 or v[j] != 0:
                out += (-u[j] + t * v[j]) * d1(1 + j)
        return out
    assert kind == "pde"
    lp = lap()
    return 4 * s * d1(0) + lp - 2 * spec.lam / rho2 * f0


class TestFdSingleBatch:
    """fd_apply evaluates f once per application: P, then one block of six
    displaced copies of P per differentiated axis."""

    N = 10

    @pytest.fixture
    def setup(self, rng):
        params = ParameterSet(n=3, q=1, s=0.5j)
        P = noncompact_points(3, rng, self.N)
        h = 2e-3 * (1 + np.abs(P))
        # (spec, number of differentiated axes)
        specs = [
            (OperatorSpec.identity(params), 0),
            (OperatorSpec.kappa(params), 1),
            (OperatorSpec.eta(params, +1), 4),
            (OperatorSpec.eta(params, -1), 4),
            (OperatorSpec.heisenberg_ladder(params, 2, +1), 1),
            (OperatorSpec.heisenberg_ladder(params, 3, -1), 1),
            (OperatorSpec.omega(params), 4),
            (OperatorSpec.sl2(params, 0.3, -0.7j, 1.1), 4),
            # u_2 = v_2 = 0: axis 2 is not differentiated
            (OperatorSpec.heisenberg(params, [0.4, 0, -0.3], [0, 0, 0.5], 0.8), 2),
            (OperatorSpec.heisenberg(params, [0, 0, 0], [0, 0, 0], 1.0), 0),
            (OperatorSpec.pde(params, 7.0), 4),
        ]
        return _quadratic_exponential(3), P, h, specs

    def test_one_batch_call_per_application(self, setup):
        f, P, h, specs = setup
        assert {spec.kind for spec, _ in specs} == {
            "identity", "kappa", "eta_plus", "eta_minus", "e_plus", "e_minus",
            "omega", "sl2", "heisenberg", "pde",
        }
        sequence = [spec for spec, _ in specs]
        # the sequence differentiates t and the three x axes; an axis that one
        # operator differentiates once and another twice (eta, sl2 against
        # omega, pde) shares one block
        for spec, axes in [*specs, (sequence, 4)]:
            rows = []

            def batch(pts, rows=rows):
                rows.append(pts.shape[0])
                return f.batch(pts)

            fd_apply(spec, SpaceTimeFunction(f.n, batch), P, steps=h)
            assert rows == [(1 + 6 * axes) * self.N], spec

    def test_sequence_rows_match_per_spec_calls(self, setup):
        f, P, h, specs = setup
        sequence = [spec for spec, _ in specs]
        table = fd_apply(sequence, f, P, steps=h)
        assert table.shape == (len(sequence), self.N)
        assert np.array_equal(table[0], f.batch(P))
        for spec, row in zip(sequence, table):
            assert np.array_equal(row, fd_apply(spec, f, P, steps=h)), spec.kind
        # one point in, one value per operator out
        single = fd_apply(sequence, f, P[3], steps=h[3])
        assert single.shape == (len(sequence),)
        assert np.array_equal(single, table[:, 3])

    def test_matches_per_axis_composition(self, setup):
        f, P, h, specs = setup
        for spec, _ in specs:
            expected = _composed_fd_apply(spec, f, P, h)
            assert np.array_equal(fd_apply(spec, f, P, steps=h), expected), spec.kind
