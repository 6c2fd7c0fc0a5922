"""Fault injection: each fault changes one fact of the package, and one small
``run_verification`` must turn exactly the named records to FAIL while every
other record keeps the status it has without the fault.  A record that no
fault can turn to FAIL proves nothing."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest

from singular_weyl import hypergeometric, ktypes, operators, verify
from singular_weyl.admissibility import ParameterSet
from singular_weyl.ktypes import KTypeVector, LinearCombination, SpaceTimeFunction
from singular_weyl.operators import GroupElement, OperatorSpec
from singular_weyl.polynomials import HarmonicPolynomial, Polynomial

# q = 0 is not +-n (mod 4), so no K-type of this run sits at a boundary
# weight; with q = 3 = n the weight strings reach their lowest weights
DEFAULT = ParameterSet(n=3, q=0, s=0.5j)
BOUNDARY = ParameterSet(n=3, q=3, s=0.5j)


def _statuses(params: ParameterSet) -> dict[str, str]:
    report = verify.run_verification(params, 12, 6, 1)
    return {check["check"]: check["status"] for check in report["checks"]}


def _wrap(monkeypatch, module, name, change):
    """Replace module.name by a function that changes the original's result."""
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: change(original(*args), *args))


def _eta_scaled(mp):
    _wrap(mp, operators, "eta_coefficient", lambda c, *_: c * Fraction(1_000_001, 1_000_000))


def _kappa_scaled(mp):
    _wrap(mp, verify, "apply_kappa", lambda lc, F: LinearCombination(
        [(c * (1 + 1e-6), v) for c, v in lc.terms]
    ))


def _shipped_changed(label, factor):
    def inject(mp):
        _wrap(mp, operators, "shipped_E_coefficients", lambda table, *_: {
            **table, label: table[label] * factor
        })

    return inject


def _phase_shifted(mp):
    # e^{-i(m+2) theta/2} in place of e^{-im theta/2}: one more e^{-i theta}
    def change(values, vectors, theta, y, index, blocks):
        return [value * np.exp(-1j * theta[index[b]]) for value, b in zip(values, blocks)]

    _wrap(mp, ktypes, "_eval_rows", change)


def _transform_scaled(mp):
    def change(f, *vectors):
        return SpaceTimeFunction(f.n, lambda pts: f.batch(pts) * (1 + 1e-4 * pts[:, 0]))

    _wrap(mp, verify, "to_noncompact", change)


def _dimension_shifted(mp):
    _wrap(mp, verify, "harmonic_dimension", lambda d, n, k: d + 1 if k == 3 else d)


def _split_constant_scaled(mp):
    def change(split, *_):
        return split[0], split[1] * Fraction(11, 10)

    for module in (verify, operators):
        _wrap(mp, module, "decompose_yj", change)


def _last_term_sign_flipped(relation):
    def inject(mp):
        original = hypergeometric.RELATIONS[relation]

        def flipped(*args):
            *terms, last = original(*args)
            return [*terms, -last]

        mp.setitem(hypergeometric.RELATIONS, relation, flipped)

    return inject


def _shift_moved(mp):
    _wrap(mp, verify, "heisenberg_targets", lambda targets, *_: [
        (l2, k2, lam + 1) for l2, k2, lam in targets
    ])


def _sl2_upper_scaled(mp):
    original = GroupElement.sl2_upper
    mp.setattr(GroupElement, "sl2_upper", staticmethod(lambda tau: original(1.001 * tau)))


def _last_direction_dropped(mp):
    # one least-squares column fewer wherever there is more than one
    _wrap(mp, operators, "_e_directions", lambda dirs, *_: dirs[:-1] if len(dirs) > 1 else dirs)


def _e_ladder_position_scaled(mp):
    # 2.002 s y_j in place of 2 s y_j in the E_j^{+-} operator
    original = OperatorSpec.heisenberg_ladder

    def changed(params, j, sign):
        spec = original(params, j, sign)
        s = params.s

        def formula(t, x, f0, d1, d2):
            extra = np.exp(-sign * 1j * t) * (0.002 * s * x[:, j - 1] * f0)
            return spec.formula(t, x, f0, d1, d2) - extra

        return dataclasses.replace(spec, formula=formula)

    mp.setattr(OperatorSpec, "heisenberg_ladder", staticmethod(changed))


def _lowest_weight_moved(mp):
    # the lowest weight one step inside the string: m = boundary - 4
    mp.setattr(KTypeVector, "is_lowest_weight", property(lambda F: F.m == F.boundary - 4))


def _basis_not_harmonic(mp):
    # rho^2 added to one element of H_2: construction's harmonicity proof raises
    def change(basis, n, k):
        if k == 2 and basis:
            rho2 = Polynomial.radius_squared(n)
            basis[0] = HarmonicPolynomial(basis[0].poly + rho2, k)
        return basis

    _wrap(mp, verify, "harmonic_basis", change)


HEISENBERG_FITS = {
    "operators/heisenberg-lsq",
    "operators/heisenberg-rational-coefficients",
    "operators/heisenberg-shipped-match",
}

FAULTS = {
    "eta-coefficient": (_eta_scaled, {"operators/ladder-closed-form"}),
    "kappa-coefficient": (_kappa_scaled, {"operators/ladder-closed-form"}),
    "shipped-E-same-up": (
        _shipped_changed("same_up", Fraction(11, 10)), {"operators/heisenberg-shipped-match"}
    ),
    "shipped-E-down-up-sign": (
        _shipped_changed("down_up", -1), {"operators/heisenberg-shipped-match"}
    ),
    # the E_j rows take no theta derivative, so a phase shared by F and by
    # every least-squares column cancels from the Heisenberg fits
    "compact-phase": (_phase_shifted, {
        "ktypes/periodicity", "operators/pde-kernel", "operators/ladder-closed-form"
    }),
    "picture-transform": (_transform_scaled, {"operators/pde-kernel"}),
    "harmonic-dimension": (_dimension_shifted, {"harmonic/dimension-formula"}),
    "decompose-yj-constant": (_split_constant_scaled, {
        "harmonic/yj-decomposition",
        "operators/heisenberg-rational-coefficients",
        "operators/heisenberg-shipped-match",
    }),
    **{
        f"contiguous-{relation}-sign": (
            _last_term_sign_flipped(relation), {f"contiguous/{relation}"}
        )
        for relation in hypergeometric.RELATIONS
    },
    "eigenvalue-shift": (_shift_moved, {"operators/eigenvalue-shifts"}),
    "sl2-upper-flow": (_sl2_upper_scaled, {"operators/group-vs-algebra"}),
    "harmonic-basis": (_basis_not_harmonic, {"harmonic/laplacian-kernel"}),
    "e-directions-dropped": (_last_direction_dropped, HEISENBERG_FITS),
    "e-ladder-position": (_e_ladder_position_scaled, HEISENBERG_FITS),
    "eta-lowest-weight": (_lowest_weight_moved, {"operators/eta-boundary-kills"}),
}
# the run of a fault whose records no fault can reach on DEFAULT
PARAMS = {"eta-lowest-weight": BOUNDARY}


@functools.cache
def _unfaulted(params: ParameterSet) -> dict[str, str]:
    statuses = _statuses(params)
    assert "FAIL" not in statuses.values()
    return statuses


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_exactly_its_records(fault, monkeypatch):
    inject, failing = FAULTS[fault]
    params = PARAMS.get(fault, DEFAULT)
    unfaulted = _unfaulted(params)
    inject(monkeypatch)
    statuses = _statuses(params)
    assert {name for name, status in statuses.items() if status == "FAIL"} == failing
    others = {name: status for name, status in statuses.items() if name not in failing}
    assert others == {name: status for name, status in unfaulted.items() if name not in failing}
