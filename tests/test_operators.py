from fractions import Fraction

import numpy as np
import pytest

from singular_weyl import (
    DEFAULT_TOLERANCES,
    GroupElement,
    OperatorSpec,
    ParameterSet,
    S_PRESETS,
    admissible_pairs,
    apply_E,
    apply_eta,
    apply_kappa,
    circular_harmonic,
    compact_function,
    enumerate_admissible,
    fd_apply,
    group_action_noncompact,
    group_parameter_derivative,
    harmonic_basis,
    harmonic_representative,
    hyp1f1,
    make_ktype,
    recover_E_coefficients,
    to_noncompact,
    weight_string,
)
from singular_weyl import ktypes
from singular_weyl.ktypes import SpaceTimeFunction, Stencil, eval_combinations
from singular_weyl.polynomials import decompose_yj
from singular_weyl.operators import (
    E_MOVES,
    _FIRST_OFFSETS,
    SingularityError,
    _e_directions,
    _e_table_terms,
    _partials,
    e_targets,
    eta_coefficient,
    ktype_steps,
    printed_E_coefficients,
    shipped_E_coefficients,
    stacked_steps,
)
from singular_weyl.verify import _relative, _sample_points


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
        closed = eval_combinations([apply_kappa(F311)], P[:, 0], P[:, 1:])[0]
        oracle = fd_apply([OperatorSpec.kappa(params3)], compact_function(F311), P, steps)[0]
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
        fc = compact_function(F311)
        for sign in (1, -1):
            closed = eval_combinations([apply_eta(F311, sign)], P[:, 0], P[:, 1:])[0]
            oracle = fd_apply([OperatorSpec.eta(params3, sign)], fc, P, steps)[0]
            scale = np.maximum(1, np.abs(closed))
            assert np.max(np.abs(closed - oracle) / scale) <= 1e-8


class TestSignChecked:
    """A sign other than +-1 raises at every ladder entry point, instead of
    building the operator of another sign or a ladder of another step."""

    @pytest.mark.parametrize("sign", [0, 3])
    def test_every_entry_point_raises(self, sign):
        params = ParameterSet(3, 0, 0.5j)
        F = make_ktype(params, 4, 5, 2, harmonic_representative(3, 2))
        entry_points = [
            lambda: eta_coefficient(3, 4, 5, 2, sign),
            lambda: shipped_E_coefficients(3, 4, 5, 2, sign),
            lambda: printed_E_coefficients(3, 4, 5, 2, sign),
            lambda: printed_E_coefficients(2, 4, 0, 0, sign),
            lambda: apply_eta(F, sign),
            lambda: apply_E(F, 1, sign),
            lambda: OperatorSpec.eta(params, sign),
            lambda: OperatorSpec.heisenberg_ladder(params, 1, sign),
        ]
        for entry in entry_points:
            with pytest.raises(ValueError, match="sign"):
                entry()


class TestCommutationRelations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_coefficient_identities(self, n):
        # [kappa, eta+-] = +-2 eta+- and [eta+, eta-] = kappa on every weight
        for l, k in [(1, 0), (1, 1), (2, 1), (0, 2)]:
            if n == 1 and k > 1:
                continue
            boundary = 2 * k + 4 * l + n
            for m in range(-boundary - 8, boundary + 9):
                c_plus = eta_coefficient(n, m, l, k, +1)
                c_minus = eta_coefficient(n, m, l, k, -1)

                # [kappa, eta+] coefficient on F_{m+4}
                lhs = c_plus * Fraction(m + 4, 2) - Fraction(m, 2) * c_plus
                assert lhs == 2 * c_plus
                lhs = c_minus * Fraction(m - 4, 2) - Fraction(m, 2) * c_minus
                assert lhs == -2 * c_minus
                # [eta+, eta-] coefficient on F_m equals m/2 (the kappa action)
                bracket = c_minus * eta_coefficient(n, m - 4, l, k, +1) - c_plus * (
                    eta_coefficient(n, m + 4, l, k, -1)
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
        fc = compact_function(F)
        for j in (1, 2):
            for sign in (1, -1):
                closed = eval_combinations([apply_E(F, j, sign)], P[:, 0], P[:, 1:])[0]
                oracle = fd_apply(
                    [OperatorSpec.heisenberg_ladder(params, j, sign)], fc, P, steps
                )[0]
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
        lam = F.lam
        edge = 2 * F.l + 2 * F.k + 3 - 2
        for _, v in apply_E(F, 1, +1).terms:
            shift = v.lam - lam
            assert abs(shift) in (edge, 2 * F.l)

    def test_degenerate_zero_family_n2(self, rng):
        # (l, k, n) = (0, 0, 2): the generic coefficient formula is 0/0 and
        # only the (l, k+1) move survives, coefficient -s(sign*m + 2)
        params = ParameterSet(n=2, q=0, s=0.5j)
        F = make_ktype(params, 4, 0, 0, harmonic_representative(2, 0))
        P = compact_points(2, rng)
        steps = ktype_steps(F, P, "compact")
        fc = compact_function(F)
        recs = recover_E_coefficients([F], P)[0]
        for sign in (1, -1):
            lc = apply_E(F, 1, sign)
            expect = -params.s * (sign * 4 + 2)
            if expect == 0:
                assert lc.is_empty()
            else:
                assert len(lc.terms) == 1
                assert abs(lc.terms[0][0] - expect) < 1e-14
            closed = eval_combinations([lc], P[:, 0], P[:, 1:])[0]
            oracle = fd_apply(
                [OperatorSpec.heisenberg_ladder(params, 1, sign)], fc, P, steps
            )[0]
            scale = np.maximum(1, np.abs(F.eval_compact(P[:, 0], P[:, 1:])))
            assert np.max(np.abs(closed - oracle) / scale) <= 1e-8
            rec = recs[1, sign]
            assert rec.lsq_residual <= 1e-8 and rec.matches_shipped

    def test_coordinate_range_checked(self, F311):
        with pytest.raises(ValueError):
            apply_E(F311, 4, +1)


class TestERecovery:
    def test_matches_shipped_not_printed_for_lowering(self, rng):
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        P = compact_points(3, rng, 40)
        recs = recover_E_coefficients([F], P)[0]
        assert list(recs) == [(1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)]
        rec = recs[1, -1]
        assert (rec.j, rec.sign) == (1, -1)
        assert rec.lsq_residual <= 1e-8
        assert rec.matches_shipped
        assert not rec.matches_printed

    @pytest.mark.parametrize("s", [0.5j, -0.25])
    def test_one_series_per_distinct_column_ab(self, rng, monkeypatch, s):
        import singular_weyl.ktypes as ktypes

        params = ParameterSet(n=3, q=1, s=s)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        P = compact_points(3, rng, 40)
        seen = []

        def counted(a, b, z):
            seen.append((a, b))
            return hyp1f1(a, b, z)

        monkeypatch.setattr(ktypes, "hyp1f1", counted)
        recover_E_coefficients([F], P)[0]
        columns = {
            (Fraction(F.m + 2 * sign + 4 * l2 + 2 * k2 + 3, 4), Fraction(4 * l2 + 2 * k2 + 3, 2))
            for j in (1, 2, 3)
            for sign in (1, -1)
            for _, l2, k2, _ in _e_directions(F, j)
        }
        # one call for the finite-difference table, one per distinct column (a', b')
        assert len(seen) == 1 + len(columns) == 5

    def test_mixed_radial_degree_raises(self, rng):
        # 2l + k is 3 and 5: two radial groups, so no one denominator bound
        params = ParameterSet(n=3, q=1, s=0.5j)
        h = harmonic_representative(3, 1)
        P = compact_points(3, rng, 40)
        other_pair = [make_ktype(params, 3, 1, 1, h), make_ktype(params, 3, 2, 1, h)]
        with pytest.raises(ValueError):
            recover_E_coefficients(other_pair, P)

    def test_raising_matches_both(self, rng):
        params = ParameterSet(n=3, q=1, s=0.5j)
        F = make_ktype(params, 3, 1, 1, harmonic_representative(3, 1))
        P = compact_points(3, rng, 40)
        rec = recover_E_coefficients([F], P)[0][1, +1]
        assert rec.matches_shipped and rec.matches_printed

    def test_rational_recovery_with_bounded_denominator(self, rng):
        params = ParameterSet(n=4, q=0, s=-0.25)
        F = make_ktype(params, 2, 1, 1, harmonic_representative(4, 1))
        P = compact_points(4, rng, 40)
        recs = recover_E_coefficients([F], P)[0]
        for sign in (1, -1):
            rec = recs[2, sign]
            table = shipped_E_coefficients(4, F.m, F.l, F.k, sign)
            for label, frac in rec.rationals.items():
                assert frac == table[label]
                assert rec.rational_errors[label] <= 1e-6
                B = Fraction(2 * F.l + F.k) + Fraction(4, 2)
                assert (4 * B * (B - 1)).numerator % frac.denominator == 0

    def test_tables_are_integers_over_D(self):
        # D = w (w - 2), w = 2k + 4l + n: every entry of both tables is an
        # integer over D, and D is what _e_table_terms states
        for n in range(1, 7):
            for l in range(6):
                for k in range(7):
                    w = 2 * k + 4 * l + n
                    D = w * (w - 2)
                    for m in range(-20, 21):
                        for sign in (1, -1):
                            assert _e_table_terms(n, m, l, k, sign)[0] == D
                            for table in (shipped_E_coefficients, printed_E_coefficients):
                                for label, c in table(n, m, l, k, sign).items():
                                    assert (D * c).denominator == 1, (n, m, l, k, sign, label)

    def test_printed_tables_differ_only_for_lowering(self):
        for m, l, k in [(3, 1, 1), (2, 2, 1), (0, 1, 2)]:
            up_ship = shipped_E_coefficients(3, m, l, k, +1)
            up_print = printed_E_coefficients(3, m, l, k, +1)
            assert up_ship == up_print
            dn_ship = shipped_E_coefficients(3, m, l, k, -1)
            dn_print = printed_E_coefficients(3, m, l, k, -1)
            assert dn_ship["down_up"] == dn_print["down_up"]
            assert dn_ship["same_down"] == dn_print["same_down"]
            assert dn_ship["same_up"] != dn_print["same_up"]
            assert dn_ship["up_down"] != dn_print["up_down"]

    @pytest.mark.parametrize("n,m,l,k", [(3, 3, 1, 1), (4, 2, 1, 1), (2, 0, 0, 0), (1, 1, 0, 0)])
    def test_tables_are_keyed_by_the_moves_in_order(self, n, m, l, k):
        for table in (shipped_E_coefficients, printed_E_coefficients):
            for sign in (1, -1):
                assert list(table(n, m, l, k, sign)) == list(E_MOVES)


class TestEDirections:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_directions_are_the_targets_with_nonzero_harmonic(self, n):
        # e_targets also drops k' < 0 and, for n = 1, k' > 1; neither removes
        # a move with a non-zero harmonic (d_j of a constant is zero, and at
        # n = 1, k = 1 the harmonic part of y * y is y^2 - y^2 = 0)
        params = ParameterSet(n=n, q=0, s=0.5j)
        for k in range(2 if n == 1 else 4):
            for l in (0, 1, 2):
                F = make_ktype(params, (2 * k) % 4, l, k, harmonic_representative(n, k))
                for j in range(1, n + 1):
                    h_plus, c = decompose_yj(F.h, j - 1)
                    zero = {
                        k + 1: h_plus.is_zero(),
                        k - 1: F.h.poly.partial(j - 1).scale(c).is_zero(),
                    }
                    kept = [(l2, k2) for _, l2, k2 in e_targets(n, l, k) if not zero[k2]]
                    moves = [(l + dl, k + dk) for dl, dk, _ in E_MOVES.values()]
                    assert kept == [(l2, k2) for l2, k2 in moves if l2 >= 0 and not zero[k2]]
                    assert [(l2, k2) for _, l2, k2, _ in _e_directions(F, j)] == kept


class TestOmegaEigenvalue:
    def test_casimir_eigenvalue(self, rng):
        for n, q, l, k in [(2, 0, 1, 1), (3, 1, 1, 1), (1, 1, 1, 1)]:
            params = ParameterSet(n=n, q=q, s=0.5j)
            m = (q + 2 * k) % 4
            F = make_ktype(params, m, l, k, harmonic_representative(n, k))
            P = compact_points(n, rng)
            steps = ktype_steps(F, P, "compact")
            om = fd_apply([OperatorSpec.omega(params)], compact_function(F), P, steps)[0]
            Fv = F.eval_compact(P[:, 0], P[:, 1:])
            resid = om - 2 * float(F.lam) * Fv
            assert np.max(np.abs(resid) / np.maximum(1, np.abs(Fv))) <= 1e-6


class TestPdeResidual:
    def test_ktype_in_kernel(self, F311, params3, rng):
        P = noncompact_points(3, rng)
        f = to_noncompact(F311)
        steps = ktype_steps(F311, P, "noncompact")
        res = fd_apply([OperatorSpec.pde(params3, float(F311.lam))], f, P, steps)[0]
        fv = f.batch(P)
        assert np.max(np.abs(res) / np.maximum(1, np.abs(fv))) <= 1e-6

    def test_n2_both_circular_weights_in_kernel(self):
        # every n = 2 pair (l, k >= 0), lambda <= 60, with either O(2)-weight
        # +-k in its harmonic, at the FD setup of the operators/pde-kernel sweep
        P = _sample_points(2, 50, np.random.default_rng(20242), r_min=0.3)
        pairs = [p for lam in enumerate_admissible(2, 60) for p in admissible_pairs(2, lam)]
        worst, count = 0.0, 0
        for s in S_PRESETS.values():
            for q in range(4):
                params = ParameterSet(n=2, q=q, s=s)
                for l, k in pairs:
                    m0 = (2 * k + q) % 4
                    for h in {circular_harmonic(k), circular_harmonic(-k)}:
                        for m in (m0 - 8, m0, m0 + 8):
                            F = make_ktype(params, m, l, k, h)
                            specs = (
                                OperatorSpec.identity(params),
                                OperatorSpec.pde(params, float(F.lam)),
                            )
                            f0, res = fd_apply(
                                specs, to_noncompact(F), P, ktype_steps(F, P, "noncompact")
                            )
                            worst = max(worst, _relative(res, f0))
                            count += 1
        assert count == 2664
        assert worst <= DEFAULT_TOLERANCES.pde_residual

    def test_constant_function(self, rng):
        one = SpaceTimeFunction(3, lambda pts: np.ones(pts.shape[0], dtype=complex))
        P = noncompact_points(3, rng, 5)
        h = np.full(P.shape, 1e-3)
        params = ParameterSet(n=3, q=0, s=0.5j)
        res0, res = fd_apply(
            [OperatorSpec.pde(params, 0.0), OperatorSpec.pde(params, 7.0)], one, P, h
        )
        assert np.max(np.abs(res0)) <= 1e-8
        expected = -2 * 7.0 / (P[:, 1:] ** 2).sum(axis=1)
        assert np.max(np.abs(res - expected)) <= 1e-8

    def test_singularity_guard(self):
        one = SpaceTimeFunction(2, lambda pts: np.ones(pts.shape[0], dtype=complex))
        P = np.array([[0.1, 1e-5, 0.0]])
        with pytest.raises(SingularityError):
            spec = OperatorSpec.pde(ParameterSet(n=2, q=0, s=0.5j), 1.0)
            fd_apply([spec], one, P, np.full(P.shape, 1e-3))


class TestWeightStrings:
    """One ``fd_apply`` call over a weight string or a radial group (equal
    2l + k, the unit of every finite-difference sweep) gives each K-type the
    table, and the 1F1 call, of the K-type alone, bit for bit."""

    @pytest.mark.parametrize("s", [S_PRESETS["schrodinger"], S_PRESETS["heat"], 0.3 + 0.5j])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_equal_single_ktypes(self, n, s, monkeypatch):
        params = ParameterSet(n=n, q=n % 4, s=s)
        P = _sample_points(n, 15, np.random.default_rng(100 + n), r_min=0.3)
        calls = []
        original = ktypes.hyp1f1

        def recording(a, b, z):
            calls.append((a, b, np.array(z)))
            return original(a, b, z)

        monkeypatch.setattr(ktypes, "hyp1f1", recording)
        pairs = [p for lam in enumerate_admissible(n, 20) for p in admissible_pairs(n, lam)]
        strings = [weight_string(params, l, k, 10) for l, k in pairs[:3]]
        strings.append(strings[-1][1:2])  # a string of one
        assert all(len(string) >= 5 for string in strings[:3])
        for string in strings:
            specs = (OperatorSpec.identity(params), OperatorSpec.pde(params, float(string[0].lam)))
            steps = np.stack([ktype_steps(F, P, "noncompact") for F in string])
            calls.clear()
            table = fd_apply(specs, to_noncompact(*string), P, steps)
            string_calls = list(calls)
            assert table.shape == (2, len(string), len(P))
            assert len(string_calls) == len(string)
            for F, row, (a, b, z) in zip(string, table.transpose(1, 0, 2), string_calls):
                calls.clear()
                alone = fd_apply(specs, to_noncompact(F), P, ktype_steps(F, P, "noncompact"))
                assert np.array_equal(row, alone), (F.m, F.l, F.k)
                ((a1, b1, z1),) = calls
                assert (a, b) == (a1, b1) and np.array_equal(z, z1)

    @pytest.mark.parametrize("s", [S_PRESETS["schrodinger"], S_PRESETS["heat"], 0.3 + 0.5j])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_radial_group_rows_equal_single_ktypes(self, n, s, monkeypatch):
        # the strings of (2, 0) and (1, 2), the latter twice with different
        # harmonics: 2l + k = 4 for all, so K-types of equal m share one
        # stencil block and one 1F1 call per (a, b, block); the string of
        # (1, 0) has the same weights m on blocks of its own
        params = ParameterSet(n=n, q=n % 4, s=s)
        P = _sample_points(n, 15, np.random.default_rng(300 + n), r_min=0.3)
        calls = []
        original = ktypes.hyp1f1

        def recording(a, b, z):
            calls.append((a, b, np.array(z)))
            return original(a, b, z)

        monkeypatch.setattr(ktypes, "hyp1f1", recording)
        other = harmonic_basis(n, 2)[-1]
        assert other is not harmonic_representative(n, 2)
        group = weight_string(params, 2, 0, 10) + weight_string(params, 1, 2, 10)
        group += [make_ktype(params, F.m, 1, 2, other) for F in weight_string(params, 1, 2, 10)]
        assert len({F.m for F in group}) == len(group) // 3
        lower = weight_string(params, 1, 0, 10)
        assert {F.m for F in lower} == {F.m for F in group}
        group += lower
        lams = dict.fromkeys(F.lam for F in group)
        specs = [OperatorSpec.identity(params)] + [OperatorSpec.pde(params, lam) for lam in lams]
        steps = np.stack([ktype_steps(F, P, "noncompact") for F in group])
        table = fd_apply(specs, to_noncompact(*group), P, steps)
        group_calls = list(calls)
        assert table.shape == (len(specs), len(group), len(P))
        assert len(group_calls) == len({(F.a, F.b, F.m) for F in group})
        for F, row in zip(group, table.transpose(1, 0, 2)):
            calls.clear()
            alone = fd_apply(specs, to_noncompact(F), P, ktype_steps(F, P, "noncompact"))
            assert np.array_equal(row, alone), (F.m, F.l, F.k)
            ((a1, b1, z1),) = calls
            assert sum(
                (a, b) == (a1, b1) and np.array_equal(z, z1) for a, b, z in group_calls
            ) == 1, (F.m, F.l, F.k)

    @pytest.mark.parametrize("s", [S_PRESETS["schrodinger"], S_PRESETS["heat"], 0.3 + 0.5j])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_compact_rows_equal_single_ktypes(self, n, s):
        # the ladder and Heisenberg sweeps: the kappa/eta and E_j tables of a
        # string or radial group, its eta closed forms and its E recoveries,
        # each bit for bit the K-type's alone
        params = ParameterSet(n=n, q=n % 4, s=s)
        P = _sample_points(n, 15, np.random.default_rng(200 + n), r_min=0.2)
        pairs = [p for lam in enumerate_admissible(n, 20) for p in admissible_pairs(n, lam)]
        strings = [weight_string(params, l, k, 10) for l, k in pairs[:3]]
        strings.append(strings[-1][1:2])  # a string of one
        assert all(len(string) >= 5 for string in strings[:3])
        if n > 1:
            # a radial group of two strings: 2l + k = 4 for (1, 2) and (2, 0)
            strings.append(weight_string(params, 1, 2, 10) + weight_string(params, 2, 0, 10))
        ladder = [OperatorSpec.identity(params), OperatorSpec.kappa(params)]
        ladder += [OperatorSpec.eta(params, sign) for sign in (1, -1)]
        heisenberg = [OperatorSpec.identity(params)] + [
            OperatorSpec.heisenberg_ladder(params, j, sign)
            for j in range(1, n + 1)
            for sign in (1, -1)
        ]
        theta, y = P[:, 0], P[:, 1:]
        for string in strings:
            steps = np.stack([ktype_steps(F, P, "compact") for F in string])
            for specs in (ladder, heisenberg):
                table = fd_apply(specs, compact_function(*string), P, steps)
                assert table.shape == (len(specs), len(string), len(P))
                for F, row in zip(string, table.transpose(1, 0, 2)):
                    alone = fd_apply(specs, compact_function(F), P, ktype_steps(F, P, "compact"))
                    assert np.array_equal(row, alone), (F.m, F.l, F.k)
            etas = [apply_eta(F, sign) for F in string for sign in (1, -1)]
            for combo, value in zip(etas, eval_combinations(etas, theta, y)):
                assert np.array_equal(value, eval_combinations([combo], theta, y)[0]), combo
            together = recover_E_coefficients(string, P)
            assert len(together) == len(string)
            for F, recs in zip(string, together):
                (alone,) = recover_E_coefficients([F], P)
                assert list(recs) == list(alone)
                assert [r.to_json() for r in recs.values()] == [
                    r.to_json() for r in alone.values()
                ], (F.m, F.l, F.k)

    def test_one_parameter_set(self, params3):
        h = harmonic_representative(3, 0)
        other = ParameterSet(n=3, q=1, s=-0.25)
        P = noncompact_points(3, np.random.default_rng(0), 2)
        for picture in (to_noncompact, compact_function):
            f = picture(make_ktype(params3, 1, 1, 0, h), make_ktype(other, 1, 1, 0, h))
            with pytest.raises(ValueError):
                f.batch(np.concatenate([P, P]))


class TestGroupAction:
    def test_identity(self, F311, rng):
        f = to_noncompact(F311)
        g = GroupElement.sl2_diag(0.0)
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

    def test_non_square_rejected(self):
        # rows orthonormal, so u @ u.T = I: only the shape tells it apart
        with pytest.raises(ValueError, match="square"):
            GroupElement.orthogonal(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    @pytest.mark.parametrize("width", [2, 4])
    def test_heisenberg_dimension_mismatch(self, width, F311, rng):
        # raised by the point map, before f is evaluated
        calls = []
        f = to_noncompact(F311)
        counted = SpaceTimeFunction(3, lambda pts: calls.append(pts) or f.batch(pts))
        g = GroupElement.heisenberg(np.full(width, 0.1), np.zeros(width), 0.0)
        P = noncompact_points(3, rng, 4)
        with pytest.raises(ValueError, match="dimension mismatch"):
            group_action_noncompact(g, counted, 0.5j).batch(P)
        with pytest.raises(ValueError, match="dimension mismatch"):
            group_parameter_derivative(
                lambda tau: GroupElement.heisenberg(np.full(width, tau), np.zeros(width), 0.0),
                counted, P, 0.5j,
            )
        assert calls == []

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
        alg = fd_apply([OperatorSpec.sl2(params3, *coeffs)], f, P, steps)[0]
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
        alg = fd_apply([OperatorSpec.heisenberg(params3, u, v, w)], f, P, steps)[0]
        scale = np.maximum(1, np.abs(f.batch(P)))
        assert np.max(np.abs(flow - alg) / scale) <= 1e-5


def _noncompact_sum(combo, P):
    """The non-compact picture of a closed-form combination at P, term by term."""
    return sum(c * to_noncompact(vec).batch(P) for c, vec in combo.terms)


class TestPictureEquivariance:
    def test_kappa_and_eta_transport(self, F311, params3, rng):
        # kappa = i(e- - e+), eta+- = (h -+ ... )/2 as complex sl2 combinations
        f = to_noncompact(F311)
        P = noncompact_points(3, rng)
        steps = ktype_steps(F311, P, "noncompact")
        scale = np.maximum(1, np.abs(f.batch(P)))

        kappa_nc = fd_apply([OperatorSpec.sl2(params3, 0, -1j, 1j)], f, P, steps)[0]
        kappa_closed = _noncompact_sum(apply_kappa(F311), P)
        assert np.max(np.abs(kappa_nc - kappa_closed) / scale) <= 1e-5

        for sign in (1, -1):
            spec = OperatorSpec.sl2(params3, 0.5, sign * 0.5j, sign * 0.5j)
            eta_nc = fd_apply([spec], f, P, steps)[0]
            eta_closed = _noncompact_sum(apply_eta(F311, sign), P)
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


class TestStencilPlan:
    """``_partials`` hands f.batch its stencils as a ``Stencil`` plan, decided
    from the steps alone; as an array it is the stacked stencils."""

    @staticmethod
    def _stacked(P, h, axes):
        """The stencils stacked point by point, per step table of h: P, then
        one ``_FIRST_OFFSETS`` block per axis."""
        K = len(_FIRST_OFFSETS)
        stacked = np.broadcast_to(P, (*h.shape[:-2], 1 + K * len(axes), *P.shape)).copy()
        offsets = np.array(_FIRST_OFFSETS)[:, None]
        for i, a in enumerate(axes):
            stacked[..., 1 + K * i : 1 + K * (i + 1), :, a] += offsets * h[..., None, :, a]
        return stacked.reshape(-1, P.shape[1])

    @staticmethod
    def _plan(P, h, first=(), second=()) -> Stencil:
        seen = []

        def batch(pts):
            seen.append(pts)
            return np.zeros(pts.shape[0], dtype=complex)

        _partials(SpaceTimeFunction(P.shape[1] - 1, batch), P, h, first, second)
        (stencil,) = seen
        assert isinstance(stencil, Stencil)
        return stencil

    def test_random_steps(self, rng):
        N = 7
        P = rng.uniform(-1, 1, (N, 4))
        tables = rng.uniform(1e-3, 1e-2, (3, N, 4))
        tables[:, :, 2] = tables[0, :, 2]  # axis 2 has the same steps in every table
        h = tables[[0, 1, 0, 2, 1]]  # five K-types on three tables
        stencil = self._plan(P, h, first=(0, 2), second=(2, 3))
        assert np.asarray(stencil).tobytes() == self._stacked(P, h, (0, 2, 3)).tobytes()
        assert stencil.shape == (5 * N * (1 + 6 * 3), 4)
        assert stencil[:, 1:].tobytes() == np.asarray(stencil)[:, 1:].tobytes()
        assert np.array_equal(stencil.blocks, [0, 1, 0, 2, 1])
        # P and the shared axis 2 once, axes 0 and 3 once per table
        assert len(stencil.rows) == N * (1 + 6 + 3 * 2 * 6)
        # one table, without a K-type axis
        stencil = self._plan(P, h[0], first=(0, 2), second=(2, 3))
        assert np.asarray(stencil).tobytes() == self._stacked(P, h[0], (0, 2, 3)).tobytes()
        assert len(stencil.rows) == N * (1 + 3 * 6)

    @pytest.mark.parametrize("picture", ["compact", "noncompact"])
    def test_ktype_steps_of_mixed_radial_degrees(self, picture):
        # 2l + k = 4 and 2: no space axis has the same steps in every table
        n = 3
        params = ParameterSet(n=n, q=n % 4, s=S_PRESETS["heat"])
        P = _sample_points(n, 11, np.random.default_rng(7), r_min=0.3)
        group = weight_string(params, 2, 0, 10) + weight_string(params, 1, 2, 10)
        group += weight_string(params, 1, 0, 10)
        h = stacked_steps(group, P, picture)
        assert h.tobytes() == np.stack([ktype_steps(F, P, picture) for F in group]).tobytes()
        stencil = self._plan(P, h, first=(0,), second=(1, 2, 3))
        assert np.asarray(stencil).tobytes() == self._stacked(P, h, (0, 1, 2, 3)).tobytes()
        # K-types of equal steps share one index row: those of equal |m|
        # and 2l + k, and any others whose steps come out equal, such as
        # t-steps clipped to one bound
        assert len(stencil.index) == len({table.tobytes() for table in h}) < len(group)


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


def _composed_fd_apply(name, args, params, f, P, h):
    """The reference for ``getattr(OperatorSpec, name)(params, *args)``:
    fd_apply written, as before the single batch, as one stencil call per
    partial; the arithmetic is the same operation for operation."""
    n, s = params.n, params.s
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

    if name == "identity":
        return f0
    if name == "kappa":
        return 1j * d1(0)
    if name == "eta":
        (sign,) = args
        e = euler()
        return 0.5 * np.exp(-sign * 2j * t) * (
            -e - sign * 1j * d1(0) - (n / 2 + sign * 2j * s * rho2) * f0
        )
    if name == "heisenberg_ladder":
        j, sign = args
        return np.exp(-sign * 1j * t) * (sign * 1j * d1(j) - 2 * s * x[:, j - 1] * f0)
    if name == "omega":
        lp = lap()
        return rho2 * (4 * s * d1(0) + 4 * s**2 * rho2 * f0 + lp)
    if name == "sl2":
        alpha, beta, gamma = (complex(c) for c in args)
        r = -n / 2
        e = euler()
        return (
            (gamma * t - alpha) * e
            + (gamma * t**2 - 2 * alpha * t - beta) * d1(0)
            + (r * alpha - gamma * s * rho2 - r * gamma * t) * f0
        )
    if name == "heisenberg":
        u, v = (tuple(complex(c) for c in vec) for vec in args[:2])
        w = complex(args[2])
        out = s * (w - 2 * (np.asarray(v)[None, :] * x).sum(axis=1)) * f0
        for j in range(n):
            if u[j] != 0 or v[j] != 0:
                out += (-u[j] + t * v[j]) * d1(1 + j)
        return out
    assert name == "pde"
    lp = lap()
    return 4 * s * d1(0) + lp - 2 * complex(args[0]) / rho2 * f0


class TestFdSingleBatch:
    """fd_apply evaluates f once per application: P, then one block of six
    displaced copies of P per differentiated axis."""

    N = 10
    PARAMS = ParameterSet(n=3, q=1, s=0.5j)
    # (factory, its arguments after params, number of differentiated axes)
    SPECS = [
        ("identity", (), 0),
        ("kappa", (), 1),
        ("eta", (+1,), 4),
        ("eta", (-1,), 4),
        ("heisenberg_ladder", (2, +1), 1),
        ("heisenberg_ladder", (3, -1), 1),
        ("omega", (), 4),
        ("sl2", (0.3, -0.7j, 1.1), 4),
        # u_2 = v_2 = 0: axis 2 is not differentiated
        ("heisenberg", ([0.4, 0, -0.3], [0, 0, 0.5], 0.8), 2),
        ("heisenberg", ([0, 0, 0], [0, 0, 0], 1.0), 0),
        ("pde", (7.0,), 4),
    ]

    @pytest.fixture
    def setup(self, rng):
        P = noncompact_points(3, rng, self.N)
        h = 2e-3 * (1 + np.abs(P))
        specs = [
            (getattr(OperatorSpec, name)(self.PARAMS, *args), axes)
            for name, args, axes in self.SPECS
        ]
        return _quadratic_exponential(3), P, h, specs

    def test_every_factory_is_covered(self):
        factories = {
            name for name, member in vars(OperatorSpec).items() if isinstance(member, classmethod)
        }
        assert {name for name, _, _ in self.SPECS} == factories

    def test_one_batch_call_per_application(self, setup):
        f, P, h, specs = setup
        sequence = [spec for spec, _ in specs]
        # the sequence differentiates t and the three x axes; an axis that one
        # operator differentiates once and another twice (eta, sl2 against
        # omega, pde) shares one block
        for spec, axes in [*(([spec], axes) for spec, axes in specs), (sequence, 4)]:
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
        for (name, args, _), spec, row in zip(self.SPECS, sequence, table):
            assert np.array_equal(row, fd_apply([spec], f, P, h)[0]), (name, args)

    def test_matches_per_axis_composition(self, setup):
        f, P, h, specs = setup
        for (name, args, _), (spec, _) in zip(self.SPECS, specs):
            expected = _composed_fd_apply(name, args, self.PARAMS, f, P, h)
            assert np.array_equal(fd_apply([spec], f, P, h)[0], expected), (name, args)
