"""Confluent hypergeometric function of the first kind, complex arguments.

Evaluation is by direct power series with term-ratio stopping.  For
Re(z) < 0 the series suffers cancellation, so Kummer's transformation
1F1(a,b,z) = e^z 1F1(b-a,b,-z) routes every evaluation through a
non-cancelling sum.  One series kernel serves two precisions: ``hyp1f1``
sums in complex128 to the fixed ``config.DEFAULT_TOLERANCES.series_rtol``
and ``hyp1f1_precise`` in extended precision (``numpy.clongdouble``).  Both
take a, b and z that broadcast.  A batch stops when every entry has had
three quiet terms.  The kernel sums every term into buffers allocated once
per call, and runs that batch-wide test only where its outcome is not
already proven: not while the entry that failed it worst (the witness,
first the entry of largest |z|) still fails it by a factor 2, and not on
the terms after a passed test that shrink to at most half their
predecessor (see ``_series``).  So every value is the one the test on
every term gives.  Non-finite input raises ValueError before any term is
summed, and SeriesError names the caller's (a, b, z) of the entry that
ended farthest from the stop.

Desk-scale arguments only (|z| = 2|s|rho^2 stays small); there is no
asymptotic regime and no second-kind function.  Results at large |Im z| are
not certified: at a = 2.25, b = 3.5 the relative error of ``hyp1f1`` against
a 30-digit reference is 1.2e-9 at z = 20i, 1.5e-6 at z = -5+30i and 3.7 at
z = 40i, and each value is returned without an error.

The contiguous-relation residuals used as numeric identities are collected
in ``contiguous_residuals_scaled``, which sums each distinct shifted series
F(a + da, b + db, z) once and shares it between the relations: seven
``hyp1f1_precise`` calls for the seven relations.  Two of them required
correction against the series (see ``RELATIONS``): the standard forms are
implemented and verified, not the misprinted ones.
"""

from __future__ import annotations

import cmath
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLERANCES


class SeriesError(ArithmeticError):
    """The power series failed to converge within the term budget."""


class _Unconverged(SeriesError):
    """Raised by ``_series``: the term budget ran out, and entry ``index``
    of its batch ended farthest from the stop."""

    def __init__(self, index: int):
        super().__init__(f"1F1 series did not converge (batch entry {index})")
        self.index = index


def _param(x):
    """A scalar parameter as Python complex, an array one as complex128."""
    if isinstance(x, (int, float, complex)) or np.ndim(x) == 0:
        return complex(x)
    return np.asarray(x, dtype=np.complex128)


def _check_b(b) -> None:
    """1F1 is undefined when b is a non-positive integer."""
    b = _param(b)
    bad = (b.imag == 0) & (b.real <= 0) & (b.real % 1 == 0)
    if np.any(bad):
        raise ValueError(
            f"b = {complex(np.asarray(b)[bad][0])} is a non-positive integer; 1F1 undefined"
        )


# The contiguous-relation certificates need residuals at 1e-10 of the largest
# term.  In double precision the series roundoff is eps * (largest partial
# term), and for |a|, |b| <= 20, |z| <= 10 the term/result amplification can
# reach ~1e6, which eats the budget.  Summing in 80-bit longdouble keeps the
# certificates honest on x86.

_LD_STOP = float(np.finfo(np.longdouble).eps) * 8


def _series(a, b, z: np.ndarray, derivatives: int):
    """Raw Taylor sums of 1F1 and, when ``derivatives`` is 1, of its
    z-derivative.

    a, b and z broadcast to one dimension, and z's dtype is the working
    precision: complex128 stops at ``tol.series_rtol``, clongdouble at
    ``_LD_STOP``.  The sums stop when three consecutive terms satisfy
    |term| <= stop * (|partial sum| + 1e-300) for every entry.  Caller
    handles the Re(z) < 0 transformation.  Every term is summed; the
    batch-wide test is run only when its outcome is not already proven,
    by three rules:

    - *Witness fails.*  A test is skipped, and counted as failed, while its
      witness still fails it by a factor 2: |term| finite and above twice
      its bound, which no rounding of scalar against array ``abs`` can
      undo (inf or nan falls through to the full test).  The witness is
      the entry that failed the last full test worst (largest |term| /
      bound).
    - *First witness.*  Before any full test, the witness is the entry of
      largest |z|, so term 1 of a batch with a large |z| is not tested.
    - *Proven pass.*  With scalar a and b, after a passed test whose bounds
      all lie in the normal range, the test on term j is skipped, and
      counted as passed, when |c_j| max|z| <= 1/2, c_j = (a + j - 1) /
      ((b + j - 1) j) the coefficient of the term recurrence.  Then every
      |term| is at most half the last tested one, up to a few units of
      roundoff, so at most half its bound, while each partial sum, and
      with it the bound, moves by a relative stop or less.  A test passes
      with a margin near 2; the chain is at most two terms long, since the
      third quiet term stops the sum.

    So the stop and every value are those of the full test run on every
    term.  Each term is written into buffers allocated once per call, and
    no output aliases an operand: a length-1 complex product written over
    its own input can round differently under some SIMD dispatch.  When
    the budget runs out, ``_Unconverged`` carries the entry of largest
    |term| / bound on the last term.
    """
    tol = DEFAULT_TOLERANCES
    if z.dtype == np.complex128:
        stop = tol.series_rtol
    else:
        a, b, stop = np.asarray(a, z.dtype), np.asarray(b, z.dtype), _LD_STOP
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    tiny = np.finfo(z.real.dtype).tiny
    term = np.ones(np.broadcast(a, b, z).shape, z.dtype)
    step = np.empty_like(term)
    sums = [term.copy()] + [np.zeros_like(term) for _ in range(derivatives)]
    spare = [np.empty_like(term) for _ in sums]
    if derivatives:
        dterm = np.empty_like(term)
    absz = np.abs(z)
    witness = int(np.argmax(absz))
    zmax = absz[witness]
    quiet = 0
    normal = False
    # a diverging sum overflows to inf/nan before the budget runs out and
    # SeriesError reports it, so numpy need not warn on the way; the
    # derivative terms divide by z, and their z = 0 entries are replaced
    # after the loop
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(1, tol.series_max_terms + 1):
            coef = (a + (j - 1)) / ((b + (j - 1)) * j)
            np.multiply(term, coef, out=step)
            np.multiply(step, z, out=term)
            np.add(sums[0], term, out=spare[0])
            if derivatives:
                # termwise derivative: d/dz z^j = j z^j / z
                np.multiply(float(j), term, out=step)
                np.divide(step, z, out=dterm)
                np.add(sums[1], dterm, out=spare[1])
            sums, spare = spare, sums
            if quiet and normal and abs(coef) * zmax <= 0.5:
                quiet += 1
                if quiet >= 3:
                    break
                continue
            worst = abs(term[witness])
            if 2 * stop * (abs(sums[0][witness]) + 1e-300) < worst < np.inf:
                quiet = 0
                continue
            size = np.abs(term)
            bound = stop * (np.abs(sums[0]) + 1e-300)
            if np.all(size <= bound):
                quiet += 1
                if quiet >= 3:
                    break
                normal = scalar and tiny <= bound.min() and bound.max() < np.inf
            else:
                quiet = 0
                witness = int(np.argmax(size / bound))
        else:
            size = np.abs(term) / (stop * (np.abs(sums[0]) + 1e-300))
            raise _Unconverged(int(np.argmax(size)))
    # the derivative sum above misses the z = 0 entries: F'(0) = a/b
    if derivatives and np.any(z == 0):
        sums[1] = np.where(z == 0, a / b, sums[1])
    return sums


def _check_order(order: int) -> None:
    """The series sums F and F' only."""
    if order not in (0, 1):
        raise ValueError(f"derivative order {order} is outside 0..1")


def _entry(a, b, z, shape: tuple, flat: int) -> str:
    """The caller's (a, b, z) at flat index ``flat`` of the broadcast batch,
    at repr precision."""
    values = ", ".join(
        f"{name}={complex(x[flat] if isinstance(x, np.ndarray) else x)!r}"
        for name, x in (("a", a), ("b", b), ("z", z))
    )
    if not shape:
        return values
    index = tuple(int(i) for i in np.unravel_index(flat, shape))
    return f"index {index[0] if len(index) == 1 else index} ({values})"


def _branch(a, b, z: np.ndarray, kummer: bool, derivatives: int) -> list:
    """F (and F') on one Kummer branch: the direct series, or e^z G(-z)
    with G = 1F1(b - a, b, .)."""
    if not kummer:
        return _series(a, b, z, derivatives)
    sums = _series(b - a, b, -z, derivatives)
    ez = np.exp(z)
    # F(z) = e^z G(-z): differentiate the product termwise
    values = [ez * sums[0]]
    if derivatives:
        values.append(ez * (sums[0] - sums[1]))
    return values


def _eval(a, b, z, dtype, derivatives: int = 0):
    """1F1 (and z-derivatives) in the precision ``dtype``, with the Kummer
    transform on Re(z) < 0.

    Scalar a and b stay Python complex, so the float path sums exactly as a
    scalar-parameter series; b - a is formed in complex128 in both
    precisions.  When one branch covers the whole batch (every ``_eval_rows``
    call: Re z has one sign whenever rho^2 > 0), the batch is summed as it
    stands, with no entry gathered or scattered.  Returns a tuple of
    complex128 arrays, or of complex values when a, b and z are all scalars.
    Raises ValueError, naming the entry, on a non-finite a, b or z, and
    SeriesError naming the caller's (a, b, z) of the entry farthest from
    the stop when the term budget runs out.
    """
    _check_order(derivatives)
    a, b, z = _param(a), _param(b), np.asarray(z, dtype)
    shape = np.broadcast(a, b, z).shape
    a, b = (np.broadcast_to(x, shape).ravel() if isinstance(x, np.ndarray) else x for x in (a, b))
    z = (z if z.shape == shape else np.broadcast_to(z, shape)).reshape(-1)
    # a non-finite entry would run the whole term budget
    finite = np.isfinite(z)
    for x in (a, b):
        if isinstance(x, np.ndarray) or not cmath.isfinite(x):
            finite = finite & np.isfinite(x)
    if not finite.all():
        flat = int(np.argmin(finite))
        raise ValueError(f"1F1 needs finite a, b and z; got {_entry(a, b, z, shape, flat)}")
    _check_b(b)
    if not z.size:
        return tuple(np.empty(shape, np.complex128) for _ in range(derivatives + 1))
    neg = z.real < 0

    def take(x, mask):
        return x[mask] if isinstance(x, np.ndarray) else x

    mask = None
    try:
        if neg.all() or not neg.any():
            out = _branch(a, b, z, bool(neg[0]), derivatives)
        else:
            out = [np.empty_like(z) for _ in range(derivatives + 1)]
            for mask, kummer in ((~neg, False), (neg, True)):
                sums = _branch(take(a, mask), take(b, mask), z[mask], kummer, derivatives)
                for p, values in enumerate(sums):
                    out[p][mask] = values
    except _Unconverged as exc:
        flat = exc.index if mask is None else int(np.flatnonzero(mask)[exc.index])
        raise SeriesError(
            f"1F1 series did not converge within {DEFAULT_TOLERANCES.series_max_terms} "
            f"terms at {_entry(a, b, z, shape, flat)}"
        ) from None
    if not shape:
        return tuple(complex(v[0]) for v in out)
    return tuple(v.astype(np.complex128, copy=False).reshape(shape) for v in out)


def hyp1f1(a, b, z):
    """1F1(a, b, z) for complex parameters and argument, summed in complex128.

    a, b and z may be scalars or ndarrays that broadcast; the result is a
    complex for all-scalar input and a complex128 array otherwise.  Raises
    ValueError when b is a non-positive integer and SeriesError when the
    term budget is exhausted.  Not certified at large |Im z| (see the module
    docstring for measured errors).
    """
    return _eval(a, b, z, np.complex128)[0]


def hyp1f1_precise(a, b, z, derivatives: int = 0):
    """1F1 (and, with ``derivatives=1``, its z-derivative) summed in extended
    precision and rounded to complex128.

    a, b and z broadcast like ``hyp1f1``; scalar input gives complex values.
    The derivative is a termwise sum, independent of the contiguous shift
    formula, so it can sit on the oracle side of identity checks.
    """
    values = _eval(a, b, z, np.clongdouble, derivatives)
    return values[0] if derivatives == 0 else values


def _terms_U0(F, dF, a, b, z):
    # (6a) at first order: F'(a,b,z) = (a/b) F(a+1,b+1,z)
    return [dF, -(a / b) * F[1, 1]]


def _terms_U1(F, dF, a, b, z):
    return [b * F[0, 0], -b * F[-1, 0], -z * F[0, 1]]


def _terms_U2(F, dF, a, b, z):
    return [
        b * (1 - b + z) * F[0, 0],
        b * (b - 1) * F[-1, -1],
        -a * z * F[1, 1],
    ]


def _terms_U3(F, dF, a, b, z):
    # (6d); the display drops the '+' before the last term
    return [
        (a - 1 + z) * F[0, 0],
        (b - a) * F[-1, 0],
        (1 - b) * F[0, -1],
    ]


def _terms_U4(F, dF, a, b, z):
    return [
        (a - b + 1) * F[0, 0],
        -a * F[1, 0],
        (b - 1) * F[0, -1],
    ]


def _terms_Uno(F, dF, a, b, z):
    # combines U1 (shifted a) with U4: F(a,b,z) = F(a,b-1,z) - az/(b(b-1)) F(a+1,b+1,z)
    return [
        F[0, 0],
        -F[0, -1],
        (a * z / (b * (b - 1))) * F[1, 1],
    ]


def _terms_Dos(F, dF, a, b, z):
    # combines U2 with U4 (shifted b): F(a,b,z) = F(a-1,b-1,z) + (b-a)z/(b(b-1)) F(a,b+1,z)
    # (the published form  - (b-a)/(b-1) z F(a,b+1,z)  fails numerically)
    return [
        F[0, 0],
        -F[-1, -1],
        -((b - a) * z / (b * (b - 1))) * F[0, 1],
    ]


# Each relation maps (F, dF, a, b, z) to its terms, which sum to zero.  F
# maps a shift (da, db) to F(a + da, b + db, z) and dF is F'(a, b, z).
RELATIONS: dict[str, Callable] = {
    "U0": _terms_U0,
    "U1": _terms_U1,
    "U2": _terms_U2,
    "U3": _terms_U3,
    "U4": _terms_U4,
    "Uno": _terms_Uno,
    "Dos": _terms_Dos,
}

# the shifted (da, db) the relations read besides (0, 0)
_SHIFTS = ((1, 1), (-1, 0), (0, 1), (-1, -1), (0, -1), (1, 0))


def contiguous_residuals_scaled(a, b, z) -> dict:
    """LHS - RHS of every contiguous relation, together with the magnitude
    of its largest participating term: ``{relation: (res, scale)}`` in
    ``RELATIONS`` order.

    Each distinct 1F1 is summed once, in extended precision: F(a, b, z)
    comes with F'(a, b, z) from one ``hyp1f1_precise`` call with
    ``derivatives=1``, and each shifted F(a + da, b + db, z) of ``_SHIFTS``
    from one more, so the seven relations cost seven calls.  b - 1 and b + 1
    must stay off the non-positive integers too.  a, b and z broadcast, and
    the terms are taken elementwise as arrays of at least one dimension, so
    a scalar sample gets the same arithmetic as the same sample inside a
    batch.  Each pair is (complex, float) for scalar input, a pair of arrays
    otherwise.
    """
    shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(z))
    a, b, z = (np.atleast_1d(np.asarray(x, dtype=np.complex128)) for x in (a, b, z))
    a_at = {-1: a - 1, 0: a, 1: a + 1}
    b_at = {-1: b - 1, 0: b, 1: b + 1}
    value, dF = hyp1f1_precise(a, b, z, derivatives=1)
    F = {(0, 0): value}
    for da, db in _SHIFTS:
        F[da, db] = hyp1f1_precise(a_at[da], b_at[db], z)
    out = {}
    for name, terms_of in RELATIONS.items():
        terms = terms_of(F, dF, a, b, z)
        res = sum(terms)
        scale = np.maximum(np.abs(terms).max(axis=0), 1e-30)
        out[name] = (res, scale) if shape else (complex(res[0]), float(scale[0]))
    return out
