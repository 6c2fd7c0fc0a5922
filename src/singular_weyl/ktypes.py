"""K-finite basis vectors in the compact picture and the picture transforms.

A basis vector is the plain record (params, m, l, k, h): the parameters
(n, q, s), the int indices (m, l, k) and a harmonic polynomial h of degree k:

    F(theta, y) = e^{-im theta/2} e^{-is rho^2} rho^{2l} h(y)
                  * 1F1((m+4l+2k+n)/4, 2l+k+n/2, 2is rho^2)

with rho = |y|.  Its eigenvalue lambda = l(2l+2k+n-2) is an int derived
from (n, l, k), not stored.  Points are passed as (theta, y)
scalars/arrays; batched evaluation uses arrays of shape (N, 1+n) with the
angle/time in column 0.

``eval_compact_all`` evaluates several vectors at shared points, and
``eval_combinations`` several ``LinearCombination`` objects through one such
call.  ``compact_function`` and ``to_noncompact`` give the function of
several vectors of one parameter set (such as a radial group) in the
compact and the non-compact picture, each vector on its own block of
points; both share the one evaluator ``_eval_rows``.  The points may come
as a ``Stencil``, the plan that ``operators.fd_apply`` builds from its step
tables before any point exists: each point once, as a row, and one index
row per distinct block.  Each row is evaluated once for every factor that
does not depend on m: the picture transform, rho^2, e^{-is rho^2},
rho^{2l} and h(y).  On one index row, vectors of equal m share
e^{-im theta/2} and vectors of equal (a, b) one 1F1 call.  Each vector
forms the products in the order of the one-vector formula, and each 1F1
call takes the z of its block in block order, so every value is bit for
bit the one-vector value.  Only identical (a, b) on one index row share a
1F1 call: the series stops a batch when every entry has converged, so a
value can depend in its last bits on the rest of its batch, and stacking
other z or (a, b) into one batch would move reported residuals.  The
unit of the finite-difference sweeps is the radial group, the K-types of
equal 2l + k (see ``verify._radial_groups``).  The steps, a and b depend on
(l, k) only through 2l + k, so K-types of a group with equal |m| share one
index row, and those of equal m with it every factor but rho^{2l} and h(y).

(l, k) is a pair with k in range (``admissibility.k_in_range``): k >= 0,
and k <= 1 at n = 1.  At n = 2 the O(2)-weight +-k lives in h, e.g. in
``polynomials.circular_harmonic(+-k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .admissibility import ParameterSet, boundary_weight, pair_eigenvalue
from .hypergeometric import hyp1f1
from .polynomials import HarmonicPolynomial


class CongruenceError(ValueError):
    """The weight m violates m = 2k + q (mod 4)."""


def _as_batch(t, x):
    """(t, x) as (N,) and (N, n) float arrays, with ``single`` set when x is
    one point of shape (n,); a scalar t broadcasts over a batch."""
    t_arr = np.asarray(t, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim == 1:
        return t_arr.reshape(1), x_arr[None, :], True
    return np.broadcast_to(t_arr, (x_arr.shape[0],)), x_arr, False


@dataclass(eq=False)
class Stencil:
    """The points of V stacked blocks of M points each, as a plan: ``rows``
    holds each point once, the (B, M) ``index`` the rows of each distinct
    block in block order, and ``blocks`` maps each of the V blocks to its
    index row.  As an array it is the (V * M, d) stack
    ``rows[index[blocks]]``, so a function that is not a K-type function
    reads it as plain points; a K-type function evaluates ``rows`` once."""

    rows: np.ndarray
    index: np.ndarray
    blocks: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.blocks) * self.index.shape[1], self.rows.shape[1]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.rows[self.index[self.blocks]].reshape(self.shape), dtype=dtype)

    def __getitem__(self, key):
        return np.asarray(self)[key]


@dataclass
class SpaceTimeFunction:
    """A smooth function of one time-like and n space-like coordinates.

    ``batch`` maps an (N, 1+n) array of points to (N,) complex values.
    Calling with (t, x) accepts scalars/single points or batches.
    """

    n: int
    batch: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t, x):
        t_arr, x_arr, single = _as_batch(t, x)
        pts = np.concatenate([t_arr[:, None], x_arr], axis=1)
        out = self.batch(pts)
        return complex(out[0]) if single else out


@dataclass(frozen=True)
class KTypeVector:
    """An evaluable K-finite basis vector F_{m,l,k}: the parameters, the
    weight m, the pair (l, k) and the harmonic part h of degree k.  Its
    eigenvalue ``lam`` is the int ``pair_eigenvalue(n, l, k)``.  Build one
    with ``make_ktype``, which checks the index against h and q."""

    params: ParameterSet
    m: int
    l: int
    k: int
    h: HarmonicPolynomial

    @property
    def lam(self) -> int:
        return pair_eigenvalue(self.params.n, self.l, self.k)

    @property
    def boundary(self) -> int:
        return boundary_weight(self.params.n, self.l, self.k)

    @property
    def a(self) -> Fraction:
        return Fraction(self.m + self.boundary, 4)

    @property
    def b(self) -> Fraction:
        return Fraction(self.boundary, 2)

    @property
    def is_lowest_weight(self) -> bool:
        return self.m == self.boundary

    @property
    def is_highest_weight(self) -> bool:
        return self.m == -self.boundary

    def eval_compact(self, theta, y):
        return eval_compact_all([self], theta, y)[0]

    def to_json(self) -> dict:
        return {
            "n": self.params.n,
            "q": self.params.q,
            "s": [self.params.s.real, self.params.s.imag],
            "m": self.m,
            "l": self.l,
            "k": self.k,
            "lambda": [self.lam, 1],
            "h": self.h.poly.to_json(),
        }


def eval_compact_all(vectors: Sequence[KTypeVector], theta, y) -> list:
    """F(theta, y) for each vector F, all at the same points.

    Returns a list of complex values for one point, of (N,) arrays for a
    batch; each is bit for bit the one-vector value (see ``_eval_rows``).
    """
    theta_arr, y_arr, single = _as_batch(theta, y)
    values = _eval_rows(vectors, theta_arr, y_arr, np.arange(len(y_arr))[None], [0] * len(vectors))
    return [complex(value[0]) if single else value for value in values]


def _eval_rows(vectors: Sequence[KTypeVector], theta, y, index, blocks) -> list:
    """F_v(theta[index[blocks[v]]], y[index[blocks[v]]]) for each vector v,
    as (M,) arrays.

    Every evaluation path reaches here; it raises ValueError unless the
    vectors share one parameter set and y has n columns.  rho^2, e^{-is
    rho^2}, rho^{2l} (per l) and h(y) (per harmonic object) are formed once
    per row; among vectors on the same index row, e^{-im theta/2} e^{-is
    rho^2} once per m and 1F1 once per (a, b).  So vectors of equal m and
    2l + k on one index row share the series and every factor but rho^{2l}
    and h(y).  Each value is the one-vector product, left to right, and
    each 1F1 call has the a, b and z of a call for the vector alone, so
    every value is bit for bit the one-vector value.
    """
    if not vectors:
        return []
    params = vectors[0].params
    if any(vec.params != params for vec in vectors):
        raise ValueError("K-types evaluated together must share one parameter set")
    if y.shape[1] != params.n:
        raise ValueError(f"points have {y.shape[1]} space coordinates, expected n = {params.n}")
    s = params.s
    rho2 = (y**2).sum(axis=1)
    phase = None
    powers = {}
    # keyed by object, not by value: equal polynomials may carry different
    # evaluators, which give different bits
    harmonics = {}
    heads = {}
    hyps = {}
    out = []
    for vec, block in zip(vectors, blocks):
        rows = index[block]
        # the series first: a SeriesError then leaves no overflow warning
        # of the prefix on stderr
        key = (float(vec.a), float(vec.b), block)
        if key not in hyps:
            hyps[key] = hyp1f1(key[0], key[1], 2j * s * rho2[rows])
        head = (vec.m, block)
        if head not in heads:
            if phase is None:
                phase = np.exp(-1j * s * rho2)
            heads[head] = np.exp(-0.5j * vec.m * theta[rows]) * phase[rows]
        if vec.l not in powers:
            powers[vec.l] = rho2**vec.l
        if id(vec.h) not in harmonics:
            harmonics[id(vec.h)] = vec.h(y)
        out.append(heads[head] * powers[vec.l][rows] * harmonics[id(vec.h)][rows] * hyps[key])
    return out


def make_ktype(
    params: ParameterSet, m: int, l: int, k: int, h: HarmonicPolynomial
) -> KTypeVector:
    """Validated construction of F_{m,l,k}.

    Raises ValueError when l < 0, AdmissibilityError when k is out of range,
    CongruenceError when m != 2k+q (mod 4), and ValueError on a degree
    mismatch between k and h.  Every pair with k in range is admissible for
    its eigenvalue, so nothing more is checked; l = 0 builds a member of the
    lambda = 0 family.
    """
    n = params.n
    pair_eigenvalue(n, l, k)  # raises on l < 0 and on k out of range
    if h.is_zero():
        raise ValueError("harmonic part must be nonzero")
    if h.nvars != n:
        raise ValueError(f"harmonic part has {h.nvars} variables, expected {n}")
    if h.degree != k:
        raise ValueError(f"harmonic degree {h.degree} does not match k = {k}")
    if (m - 2 * k - params.q) % 4 != 0:
        raise CongruenceError(f"m = {m} is not congruent to 2k+q = {2 * k + params.q} mod 4")
    return KTypeVector(params, m, l, k, h)


def _blockwise(vectors: Sequence[KTypeVector], picture: Callable) -> SpaceTimeFunction:
    """One function of V equal blocks of rows for V vectors of one parameter
    set: ``batch`` evaluates vectors[v] on block v.  A ``Stencil`` of V
    blocks is evaluated on its plan; any other points are split into V
    blocks of their own.  ``picture`` maps the rows to (theta, y, scale) of
    the compact picture, with scale None for the compact picture itself."""
    if not vectors:
        raise ValueError("a K-type function takes at least one K-type")

    def batch(pts) -> np.ndarray:
        if not isinstance(pts, Stencil) or len(pts.blocks) != len(vectors):
            pts = np.asarray(pts, dtype=float)
            index = np.arange(len(pts)).reshape(len(vectors), -1)
            pts = Stencil(pts, index, np.arange(len(vectors)))
        index, blocks = pts.index, pts.blocks
        theta, y, scale = picture(pts.rows)
        values = _eval_rows(vectors, theta, y, index, blocks)
        if scale is not None:
            # in place, so no second copy of the values is held; the
            # operand order is that of the one-vector product
            for b, value in zip(blocks, values):
                np.multiply(scale[index[b]], value, out=value)
        return np.concatenate(values)

    return SpaceTimeFunction(vectors[0].params.n, batch)


def compact_function(*vectors: KTypeVector) -> SpaceTimeFunction:
    """F(theta, y) as a function of the (theta, y) rows.

    ``compact_function(F)`` evaluates F.  Several vectors of one parameter
    set, such as a radial group, give one function of V equal blocks of
    rows, block v evaluated by vectors[v], as in ``to_noncompact``; each
    value is bit for bit that of the vector alone.
    """
    return _blockwise(vectors, lambda rows: (rows[:, 0], rows[:, 1:], None))


def to_noncompact(*vectors: KTypeVector) -> SpaceTimeFunction:
    """Image under the picture isomorphism, as a function of (t, x).

    ``to_noncompact(F)`` is
    f(t,x) = (1+t^2)^{-n/4} e^{s t |x|^2 / (1+t^2)} F(arctan t, x (1+t^2)^{-1/2});
    smooth across all of R^{1,n}.

    Several vectors of one parameter set, such as a radial group, give one
    function of V equal blocks of rows: ``batch`` evaluates the image of
    vectors[v] on block v.  The transform is computed once per row of the
    points' plan (see ``Stencil``), and each value is bit for bit that of
    the vector alone.
    """
    def picture(rows: np.ndarray):
        n, s = vectors[0].params.n, vectors[0].params.s
        t = rows[:, 0]
        x = rows[:, 1:]
        opt2 = 1.0 + t**2
        nx2 = (x**2).sum(axis=1)
        scale = opt2 ** (-n / 4.0) * np.exp(s * t * nx2 / opt2)
        return np.arctan(t), x / np.sqrt(opt2)[:, None], scale

    return _blockwise(vectors, picture)


def compact_of_noncompact(f: SpaceTimeFunction, theta, y, s: complex):
    """Inverse picture transform on the strip |theta| < pi/2.

    F(theta, y) = (cos theta)^{-n/2} e^{-s |y|^2 tan theta} f(tan theta, y sec theta).
    Raises ValueError at the singular angles cos theta = 0.
    """
    theta_arr, y_arr, single = _as_batch(theta, y)
    cos = np.cos(theta_arr)
    if np.any(np.abs(cos) < 1e-12):
        raise ValueError("singular angle: cos theta = 0")
    tan = np.tan(theta_arr)
    rho2 = (y_arr**2).sum(axis=1)
    n = f.n
    pts = np.concatenate([tan[:, None], y_arr / cos[:, None]], axis=1)
    # principal branch so the prefactor stays defined off the central strip
    power = cos.astype(np.complex128) ** (-n / 2.0)
    out = power * np.exp(-s * rho2 * tan) * f.batch(pts)
    return complex(out[0]) if single else out


def periodicity_residual(F: KTypeVector, theta, y):
    """Residuals of F(theta + j pi, (-1)^j y) = i^{-jq} F(theta, y), and F itself.

    Returns ``(res, f)`` for a batch of N points: ``res[j-1]`` is the
    residual for shift j = 1..4 (shape (4, N), zero for valid K-types) and
    ``f = F(theta, y)``.  The shifts keep rho^2, so one ``eval_compact`` call
    over the five stacked copies j = 0..4 gives every value.
    """
    theta_arr, y_arr, _ = _as_batch(theta, y)
    j = np.arange(5)
    values = F.eval_compact(
        (theta_arr + j[:, None] * np.pi).ravel(),
        (((-1.0) ** j)[:, None, None] * y_arr).reshape(-1, y_arr.shape[1]),
    ).reshape(5, -1)
    phases = np.array([1j ** ((-jj * F.params.q) % 4) for jj in range(1, 5)])
    return values[1:] - phases[:, None] * values[0], values[0]


class LinearCombination:
    """Formal complex-weighted sum of K-type vectors.

    The terms are kept as given, in order; terms with a zero coefficient
    are dropped, so a combination with no nonzero term is empty.
    """

    def __init__(self, terms: Sequence[tuple[complex, KTypeVector]] = ()):
        self.terms = [(complex(c), v) for c, v in terms if complex(c) != 0]

    def is_empty(self) -> bool:
        return not self.terms

    def coefficient(self, m: int, l: int, k: int) -> complex:
        total = 0j
        for c, v in self.terms:
            if (v.m, v.l, v.k) == (m, l, k):
                total += c
        return total

    def __repr__(self):
        if not self.terms:
            return "LinearCombination(0)"
        bits = [f"({c:.6g}) F[{v.m},{v.l},{v.k}]" for c, v in self.terms]
        return " + ".join(bits)


def eval_combinations(combos: Sequence[LinearCombination], theta, y) -> list:
    """The value of each combination at the same points, from one
    ``eval_compact_all`` call over all their terms: a K-type that several
    combinations share, such as the eta target F_{m+4} of both F_m and
    F_{m+8}, shares its 1F1 series and keeps the bits it has alone.  An
    empty combination is zero.
    """
    values = iter(eval_compact_all([v for combo in combos for _, v in combo.terms], theta, y))
    y_arr = np.asarray(y, dtype=float)
    out = []
    for combo in combos:
        total = None
        for c, _ in combo.terms:
            val = c * next(values)
            total = val if total is None else total + val
        if total is None:
            total = 0j if y_arr.ndim == 1 else np.zeros(y_arr.shape[0], dtype=complex)
        out.append(total)
    return out
