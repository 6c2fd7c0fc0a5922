"""Confluent hypergeometric function of the first kind, complex arguments.

Evaluation is by direct power series with term-ratio stopping.  For
Re(z) < 0 the series suffers cancellation, so Kummer's transformation
1F1(a,b,z) = e^z 1F1(b-a,b,-z) routes every evaluation through a
non-cancelling sum.  Desk-scale arguments only (|z| = 2|s|rho^2 stays
small); there is no asymptotic regime and no second-kind function.

The contiguous-relation residuals used as numeric identities are collected
in ``contiguous_residual``.  Two of them required correction against the
series (see ``RELATIONS``): the standard forms are implemented and verified,
not the misprinted ones.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances


class SeriesError(ArithmeticError):
    """The power series failed to converge within the term budget."""


def _bad_denominator(b: complex) -> bool:
    b = complex(b)
    if b.imag != 0:
        return False
    return b.real <= 0 and b.real == int(b.real)


def pochhammer(a, j: int):
    """Rising factorial a(a+1)...(a+j-1); empty product is 1.

    Exact when ``a`` is an int or Fraction, complex otherwise.
    """
    if j < 0:
        raise ValueError("order must be >= 0")
    out = a * 0 + 1
    for i in range(j):
        out = out * (a + i)
    return out


def _series(a: complex, b: complex, z: np.ndarray, tol: Tolerances, derivatives: int):
    """Raw Taylor sum of 1F1 and its first ``derivatives`` z-derivatives.

    Stops when three consecutive terms fall below series_rtol * |partial sum|
    for every entry of z.  Caller handles the Re(z) < 0 transformation.
    """
    z = np.asarray(z, dtype=np.complex128)
    term = np.ones_like(z)
    sums = [np.ones_like(z)] + [np.zeros_like(z) for _ in range(derivatives)]
    quiet = 0
    for j in range(1, tol.series_max_terms + 1):
        term = term * ((a + (j - 1)) / ((b + (j - 1)) * j)) * z
        sums[0] = sums[0] + term
        # termwise derivative: d^p/dz^p z^j / ... has factor j(j-1)...(j-p+1)/z^p
        fac = 1.0
        for p in range(1, derivatives + 1):
            fac *= j - p + 1
            if fac <= 0:
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                sums[p] = sums[p] + np.where(z != 0, fac * term / z**p, 0.0)
        if np.all(np.abs(term) <= tol.series_rtol * (np.abs(sums[0]) + 1e-300)):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        raise SeriesError(
            f"1F1 series did not converge within {tol.series_max_terms} terms "
            f"(a={a}, b={b}, max|z|={np.max(np.abs(z)):.3g})"
        )
    # derivative sums above miss the z = 0 entries; fix them exactly
    if derivatives >= 1 and np.any(z == 0):
        at0 = z == 0
        coef = 1.0 + 0j
        for p in range(1, derivatives + 1):
            coef = coef * (a + (p - 1)) / (b + (p - 1))
            sums[p] = np.where(at0, coef, sums[p])
    return sums


def _check_order(order: int) -> None:
    """The Kummer branch differentiates e^z G(-z) for orders 0..2 only."""
    if not 0 <= order <= 2:
        raise ValueError(f"derivative order {order} is outside 0..2")


def _eval(a: complex, b: complex, z: np.ndarray, tol: Tolerances, derivatives: int = 0):
    """1F1 (and z-derivatives) with the Kummer transform on Re(z) < 0."""
    if _bad_denominator(b):
        raise ValueError(f"b = {b} is a non-positive integer; 1F1 undefined")
    z = np.asarray(z, dtype=np.complex128)
    out = [np.empty_like(z) for _ in range(derivatives + 1)]
    neg = z.real < 0
    if np.any(~neg):
        sums = _series(a, b, z[~neg], tol, derivatives)
        for p in range(derivatives + 1):
            out[p][~neg] = sums[p]
    if np.any(neg):
        w = -z[neg]
        sums = _series(b - a, b, w, tol, derivatives)
        ez = np.exp(-w)
        # F(z) = e^z G(-z): differentiate the product termwise
        out[0][neg] = ez * sums[0]
        if derivatives >= 1:
            out[1][neg] = ez * (sums[0] - sums[1])
        if derivatives >= 2:
            out[2][neg] = ez * (sums[0] - 2 * sums[1] + sums[2])
    return out


def hyp1f1(a, b, z, tol: Tolerances = DEFAULT_TOLERANCES):
    """1F1(a, b, z) for complex parameters and argument.

    ``z`` may be a scalar or an ndarray.  Raises ValueError when b is a
    non-positive integer and SeriesError when the term budget is exhausted.
    """
    z_arr = np.asarray(z, dtype=np.complex128)
    scalar = z_arr.ndim == 0
    result = _eval(complex(a), complex(b), z_arr.reshape(-1), tol, 0)[0]
    return complex(result[0]) if scalar else result.reshape(z_arr.shape)


def hyp1f1_with_derivatives(a, b, z, order: int = 2, tol: Tolerances = DEFAULT_TOLERANCES):
    """(F, F', ..., F^(order)) by termwise differentiation of the series.

    Independent of the contiguous shift formula, so it can sit on the
    oracle side of identity checks.  ``order`` is 0, 1 or 2.
    """
    _check_order(order)
    z_arr = np.asarray(z, dtype=np.complex128)
    scalar = z_arr.ndim == 0
    sums = _eval(complex(a), complex(b), z_arr.reshape(-1), tol, order)
    if scalar:
        return tuple(complex(s[0]) for s in sums)
    return tuple(s.reshape(z_arr.shape) for s in sums)


def hyp1f1_derivative(a, b, z, order: int = 1, tol: Tolerances = DEFAULT_TOLERANCES):
    """d^order/dz^order 1F1(a,b,z) = (a)_order/(b)_order 1F1(a+order, b+order, z)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if _bad_denominator(complex(b) + order):
        raise ValueError(f"b + order = {complex(b) + order} is a non-positive integer")
    factor = pochhammer(complex(a), order) / pochhammer(complex(b), order)
    return factor * hyp1f1(complex(a) + order, complex(b) + order, z, tol)


# -- extended-precision scalar path ------------------------------------------
#
# The contiguous-relation certificates need residuals at 1e-10 of the largest
# term.  In double precision the series roundoff is eps * (largest partial
# term), and for |a|, |b| <= 20, |z| <= 10 the term/result amplification can
# reach ~1e6, which eats the budget.  Summing in 80-bit longdouble keeps the
# certificates honest on x86; the stopping rule is unchanged.

_LD_STOP = float(np.finfo(np.longdouble).eps) * 8


def _series_precise(a, b, z, derivatives: int, max_terms: int):
    a = np.clongdouble(a)
    b = np.clongdouble(b)
    z = np.clongdouble(z)
    term = np.clongdouble(1.0)
    sums = [np.clongdouble(1.0)] + [np.clongdouble(0.0) for _ in range(derivatives)]
    quiet = 0
    for j in range(1, max_terms + 1):
        term = term * ((a + (j - 1)) / ((b + (j - 1)) * j)) * z
        sums[0] = sums[0] + term
        fac = 1.0
        for p in range(1, derivatives + 1):
            fac *= j - p + 1
            if fac <= 0:
                break
            if z != 0:
                sums[p] = sums[p] + fac * term / z**p
        if abs(term) <= _LD_STOP * (abs(sums[0]) + 1e-300):
            quiet += 1
            if quiet >= 3:
                break
        else:
            quiet = 0
    else:
        raise SeriesError(f"extended-precision 1F1 series did not converge (a={a}, b={b}, z={z})")
    if derivatives >= 1 and z == 0:
        coef = np.clongdouble(1.0)
        for p in range(1, derivatives + 1):
            coef = coef * (a + (p - 1)) / (b + (p - 1))
            sums[p] = coef
    return sums


def hyp1f1_precise(a, b, z, derivatives: int = 0, tol: Tolerances = DEFAULT_TOLERANCES):
    """Scalar 1F1 (and z-derivatives, ``derivatives`` 0..2) summed in
    extended precision."""
    _check_order(derivatives)
    if _bad_denominator(complex(b)):
        raise ValueError(f"b = {b} is a non-positive integer; 1F1 undefined")
    a, b, z = complex(a), complex(b), complex(z)
    if z.real < 0:
        sums = _series_precise(b - a, b, -z, derivatives, tol.series_max_terms)
        ez = np.exp(np.clongdouble(z))
        out = [ez * sums[0]]
        if derivatives >= 1:
            out.append(ez * (sums[0] - sums[1]))
        if derivatives >= 2:
            out.append(ez * (sums[0] - 2 * sums[1] + sums[2]))
    else:
        out = _series_precise(a, b, z, derivatives, tol.series_max_terms)
    values = tuple(complex(v) for v in out)
    return values[0] if derivatives == 0 else values


def _terms_U0(F, a, b, z):
    # (6a) at first order: F'(a,b,z) = (a/b) F(a+1,b+1,z)
    lhs = F(a, b, z, derivative=True)
    return [lhs, -(a / b) * F(a + 1, b + 1, z)]


def _terms_U1(F, a, b, z):
    return [b * F(a, b, z), -b * F(a - 1, b, z), -z * F(a, b + 1, z)]


def _terms_U2(F, a, b, z):
    return [
        b * (1 - b + z) * F(a, b, z),
        b * (b - 1) * F(a - 1, b - 1, z),
        -a * z * F(a + 1, b + 1, z),
    ]


def _terms_U3(F, a, b, z):
    # (6d); the display drops the '+' before the last term
    return [
        (a - 1 + z) * F(a, b, z),
        (b - a) * F(a - 1, b, z),
        (1 - b) * F(a, b - 1, z),
    ]


def _terms_U4(F, a, b, z):
    return [
        (a - b + 1) * F(a, b, z),
        -a * F(a + 1, b, z),
        (b - 1) * F(a, b - 1, z),
    ]


def _terms_Uno(F, a, b, z):
    # combines U1 (shifted a) with U4: F(a,b,z) = F(a,b-1,z) - az/(b(b-1)) F(a+1,b+1,z)
    return [
        F(a, b, z),
        -F(a, b - 1, z),
        (a * z / (b * (b - 1))) * F(a + 1, b + 1, z),
    ]


def _terms_Dos(F, a, b, z):
    # combines U2 with U4 (shifted b): F(a,b,z) = F(a-1,b-1,z) + (b-a)z/(b(b-1)) F(a,b+1,z)
    # (the published form  - (b-a)/(b-1) z F(a,b+1,z)  fails numerically)
    return [
        F(a, b, z),
        -F(a - 1, b - 1, z),
        -((b - a) * z / (b * (b - 1))) * F(a, b + 1, z),
    ]


RELATIONS: dict[str, Callable] = {
    "U0": _terms_U0,
    "U1": _terms_U1,
    "U2": _terms_U2,
    "U3": _terms_U3,
    "U4": _terms_U4,
    "Uno": _terms_Uno,
    "Dos": _terms_Dos,
}


def contiguous_terms(relation: str, a, b, z, tol: Tolerances = DEFAULT_TOLERANCES):
    """The additive terms of the named relation, each 1F1 summed in extended
    precision; they must sum to zero."""
    if relation not in RELATIONS:
        raise KeyError(f"unknown relation {relation!r}; choose from {sorted(RELATIONS)}")
    a, b, z = complex(a), complex(b), complex(z)

    def F(aa, bb, zz, derivative=False):
        if derivative:
            return hyp1f1_precise(aa, bb, zz, derivatives=1, tol=tol)[1]
        return hyp1f1_precise(aa, bb, zz, tol=tol)

    return RELATIONS[relation](F, a, b, z)


def contiguous_residual(relation: str, a, b, z, tol: Tolerances = DEFAULT_TOLERANCES) -> complex:
    """LHS - RHS of the named contiguous relation, evaluated via the series."""
    return complex(sum(contiguous_terms(relation, a, b, z, tol)))


def contiguous_residual_scaled(
    relation: str, a, b, z, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[complex, float]:
    """Residual together with the magnitude of the largest participating term."""
    terms = contiguous_terms(relation, a, b, z, tol)
    scale = max(abs(complex(t)) for t in terms)
    return complex(sum(terms)), max(scale, 1e-30)
