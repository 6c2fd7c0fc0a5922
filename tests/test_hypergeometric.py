import numpy as np
import pytest

from singular_weyl import (
    contiguous_residual,
    contiguous_residual_scaled,
    hyp1f1,
    hyp1f1_derivative,
    pochhammer,
)
from singular_weyl.hypergeometric import RELATIONS, hyp1f1_precise, hyp1f1_with_derivatives

mpmath = pytest.importorskip("mpmath")


def test_pochhammer_examples():
    assert pochhammer(3, 0) == 1
    assert pochhammer(2, 3) == 24
    assert pochhammer(-1, 3) == 0


def test_pochhammer_exact_types():
    from fractions import Fraction

    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert isinstance(pochhammer(2, 4), int)


def test_hyp1f1_at_zero_is_one():
    assert hyp1f1(1.7 - 0.3j, 2.2 + 1j, 0) == 1.0


def test_kummer_collapse_identities(rng):
    for _ in range(50):
        b = complex(rng.uniform(0.5, 8), rng.uniform(-3, 3))
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert abs(hyp1f1(b, b, z) - np.exp(z)) <= 1e-12 * abs(np.exp(z))
        assert abs(hyp1f1(0, b, z) - 1.0) <= 1e-12


def test_matches_mpmath_oracle(rng):
    mpmath.mp.dps = 30
    for _ in range(60):
        a = complex(rng.uniform(-8, 8), rng.uniform(-4, 4))
        b = complex(rng.uniform(0.3, 9), rng.uniform(-4, 4))
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        ref = complex(mpmath.hyp1f1(a, b, z))
        assert abs(hyp1f1(a, b, z) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_bad_denominator_raises():
    with pytest.raises(ValueError):
        hyp1f1(1.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        hyp1f1(1.0, -3.0, 0.5)
    hyp1f1(-3.0, 2.0, 0.5)  # non-positive a is fine (polynomial case)


def test_vectorized_matches_scalar(rng):
    z = rng.uniform(-4, 4, 25) + 1j * rng.uniform(-4, 4, 25)
    batch = hyp1f1(1.3, 2.6, z)
    for i, zz in enumerate(z):
        assert abs(batch[i] - hyp1f1(1.3, 2.6, complex(zz))) < 1e-14


def test_derivative_closed_form_vs_finite_difference(rng):
    # central difference with Richardson extrapolation as the oracle
    for _ in range(20):
        a = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.5, 6), rng.uniform(-2, 2))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        h = 1e-5

        def diff(step):
            return (hyp1f1(a, b, z + step) - hyp1f1(a, b, z - step)) / (2 * step)

        fd = (4 * diff(h / 2) - diff(h)) / 3
        assert abs(hyp1f1_derivative(a, b, z, 1) - fd) <= 1e-8 * max(1.0, abs(fd))


def test_derivative_examples():
    a, b = 1.7 + 0.4j, 3.1 - 0.2j
    assert abs(hyp1f1_derivative(a, b, 0, 1) - a / b) < 1e-14
    assert abs(hyp1f1_derivative(0, b, 0.7, 1)) == 0.0


def test_termwise_derivatives_satisfy_ode(rng):
    # z F'' + (b - z) F' - a F = 0
    for _ in range(40):
        a = complex(rng.uniform(-6, 6), rng.uniform(-3, 3))
        b = complex(rng.uniform(0.4, 8), rng.uniform(-3, 3))
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        F, F1, F2 = hyp1f1_with_derivatives(a, b, z, order=2)
        resid = z * F2 + (b - z) * F1 - a * F
        scale = max(abs(z * F2), abs(b * F1), abs(a * F), 1.0)
        assert abs(resid) <= 1e-9 * scale


def test_contiguous_trivial_points():
    # U1 at z = 0: all values are 1, relation reads b - b - 0
    assert contiguous_residual("U1", 1, 2, 0) == 0
    # Dos at a = b collapses through e^z
    res, scale = contiguous_residual_scaled("Dos", 2.5, 2.5, 1.3 + 0.4j)
    assert abs(res) <= 1e-10 * scale


@pytest.mark.parametrize("relation", sorted(RELATIONS))
def test_contiguous_random_samples(relation, rng):
    for _ in range(60):
        a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if min(abs(b - 1), min(abs(b + j) for j in range(0, 15))) < 0.1:
            continue
        res, scale = contiguous_residual_scaled(relation, a, b, z)
        assert abs(res) <= 1e-10 * scale


def test_unknown_relation():
    with pytest.raises(KeyError):
        contiguous_residual("U9", 1, 2, 0.5)


def test_term_budget_exhaustion_raises():
    from singular_weyl.hypergeometric import SeriesError

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SeriesError):
            hyp1f1(1.0, 2.0, 1e8)


def test_precise_agrees_with_double(rng):
    for _ in range(20):
        a = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.5, 6), rng.uniform(-2, 2))
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        assert abs(hyp1f1_precise(a, b, z) - hyp1f1(a, b, z)) <= 1e-11 * max(
            1.0, abs(hyp1f1(a, b, z))
        )


@pytest.mark.parametrize("order", [3, -1])
@pytest.mark.parametrize("z", [0.3, -0.3])
def test_derivative_order_out_of_range_raises_before_summing(order, z, monkeypatch):
    # both branches (direct and Kummer) of both entry points, with the
    # series replaced so that any summation would fail the test
    from singular_weyl import hypergeometric

    def no_sum(*args, **kwargs):
        raise AssertionError("series summed before the order was checked")

    monkeypatch.setattr(hypergeometric, "_series", no_sum)
    monkeypatch.setattr(hypergeometric, "_series_precise", no_sum)
    with pytest.raises(ValueError):
        hyp1f1_with_derivatives(1.5, 2.5, z, order=order)
    with pytest.raises(ValueError):
        hyp1f1_with_derivatives(1.5, 2.5, np.array([z, -z]), order=order)
    with pytest.raises(ValueError):
        hyp1f1_precise(1.5, 2.5, z, derivatives=order)


@pytest.mark.parametrize("z", [0.3, -0.3, 0.0])
def test_derivative_orders_in_range(z):
    full = hyp1f1_with_derivatives(1.5, 2.5, z, order=2)
    full_precise = hyp1f1_precise(1.5, 2.5, z, derivatives=2)
    assert len(full) == len(full_precise) == 3
    for order in (0, 1):
        # the stopping rule reads only the value sum, so lower orders are
        # exact prefixes of order 2
        assert hyp1f1_with_derivatives(1.5, 2.5, z, order=order) == full[: order + 1]
    assert hyp1f1_precise(1.5, 2.5, z, derivatives=1) == full_precise[:2]
    assert hyp1f1_precise(1.5, 2.5, z) == full_precise[0]
    assert hyp1f1_with_derivatives(1.5, 2.5, z, order=0)[0] == hyp1f1(1.5, 2.5, z)
