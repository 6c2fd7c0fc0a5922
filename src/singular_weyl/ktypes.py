"""K-finite basis vectors in the compact picture and the picture transforms.

A basis vector is determined by the parameters (n, q, s), an index triple
(m, l, k) and a harmonic polynomial h of degree |k|:

    F(theta, y) = e^{-im theta/2} e^{-is rho^2} rho^{2l} h(y)
                  * 1F1((m+4l+2k+n)/4, 2l+k+n/2, 2is rho^2)

with rho = |y|.  Points are passed as (theta, y) scalars/arrays; batched
evaluation uses arrays of shape (N, 1+n) with the angle/time in column 0.

For n = 1 the index (l, k) is the radial pair with k in {0, 1}; see
``admissibility.triangular_to_radial``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .admissibility import (
    AdmissibilityError,
    Eigenvalue,
    KTypeIndex,
    ParameterSet,
    is_admissible,
    pair_eigenvalue,
)
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
    """An evaluable K-finite basis vector F_{m,l,k} with its harmonic part."""

    params: ParameterSet
    index: KTypeIndex
    h: HarmonicPolynomial
    lam: Eigenvalue

    @property
    def m(self) -> int:
        return self.index.m

    @property
    def l(self) -> int:
        return self.index.l

    @property
    def k(self) -> int:
        return self.index.k

    @property
    def a(self) -> Fraction:
        return Fraction(self.m + 4 * self.l + 2 * self.k + self.params.n, 4)

    @property
    def b(self) -> Fraction:
        return Fraction(4 * self.l + 2 * self.k + self.params.n, 2)

    @property
    def is_lowest_weight(self) -> bool:
        return self.m == 2 * self.k + 4 * self.l + self.params.n

    @property
    def is_highest_weight(self) -> bool:
        return self.m == -(2 * self.k + 4 * self.l + self.params.n)

    def eval_compact(self, theta, y):
        theta_arr, y_arr, single = _as_batch(theta, y)
        s = self.params.s
        rho2 = (y_arr**2).sum(axis=1)
        hyp = hyp1f1(float(self.a), float(self.b), 2j * s * rho2)
        out = (
            np.exp(-0.5j * self.m * theta_arr)
            * np.exp(-1j * s * rho2)
            * rho2 ** self.l
            * self.h(y_arr)
            * hyp
        )
        return complex(out[0]) if single else out

    def compact_function(self) -> SpaceTimeFunction:
        n = self.params.n

        def batch(pts: np.ndarray) -> np.ndarray:
            pts = np.asarray(pts, dtype=float)
            return self.eval_compact(pts[:, 0], pts[:, 1:])

        return SpaceTimeFunction(n, batch)

    def to_json(self) -> dict:
        return {
            "n": self.params.n,
            "q": self.params.q,
            "s": [self.params.s.real, self.params.s.imag],
            "m": self.m,
            "l": self.l,
            "k": self.k,
            "lambda": [self.lam.value.numerator, self.lam.value.denominator],
            "h": self.h.poly.to_json(),
        }


def make_ktype(
    params: ParameterSet, m: int, l: int, k: int, h: HarmonicPolynomial
) -> KTypeVector:
    """Validated construction of F_{m,l,k}.

    Raises CongruenceError when m != 2k+q (mod 4), AdmissibilityError when
    (l, k) is not admissible for its eigenvalue (l >= 1), and ValueError on
    a degree mismatch between k and h.  l = 0 builds a member of the
    lambda = 0 family.
    """
    n = params.n
    if h.is_zero():
        raise ValueError("harmonic part must be nonzero")
    if h.nvars != n:
        raise ValueError(f"harmonic part has {h.nvars} variables, expected {n}")
    if h.degree != abs(k):
        raise ValueError(f"harmonic degree {h.degree} does not match |k| = {abs(k)}")
    if n == 2 and k < 0 and (h.weight if h.weight is not None else h.degree) != k:
        raise ValueError("signed-weight harmonic required for n = 2 with k < 0")
    if (m - 2 * k - params.q) % 4 != 0:
        raise CongruenceError(f"m = {m} is not congruent to 2k+q = {2 * k + params.q} mod 4")
    if n == 1 and k not in (0, 1):
        raise AdmissibilityError("for n = 1, k must be 0 or 1 (radial indexing)")
    lam_val = pair_eigenvalue(n, l, k)
    if l >= 1 and not is_admissible(n, lam_val):
        raise AdmissibilityError(
            f"(l, k) = ({l}, {k}) gives lambda = {lam_val}, not admissible for n = {n}"
        )
    if l == 0 and lam_val != 0:
        raise AssertionError("l = 0 must give lambda = 0")
    lam = Eigenvalue(n, Fraction(lam_val))
    return KTypeVector(params, KTypeIndex(m, l, k), h, lam)


def to_noncompact(F: KTypeVector | "LinearCombination") -> SpaceTimeFunction:
    """Image of F under the picture isomorphism, as a function of (t, x).

    f(t,x) = (1+t^2)^{-n/4} e^{s t |x|^2 / (1+t^2)} F(arctan t, x (1+t^2)^{-1/2});
    smooth across all of R^{1,n}.
    """
    if isinstance(F, LinearCombination):
        parts = [(c, to_noncompact(vec)) for c, vec in F.terms]
        n = F.n

        def batch_sum(pts: np.ndarray) -> np.ndarray:
            pts = np.asarray(pts, dtype=float)
            out = np.zeros(pts.shape[0], dtype=np.complex128)
            for c, f in parts:
                out += c * f.batch(pts)
            return out

        return SpaceTimeFunction(n, batch_sum)

    n = F.params.n
    s = F.params.s

    def batch(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        t = pts[:, 0]
        x = pts[:, 1:]
        opt2 = 1.0 + t**2
        nx2 = (x**2).sum(axis=1)
        theta = np.arctan(t)
        y = x / np.sqrt(opt2)[:, None]
        return opt2 ** (-n / 4.0) * np.exp(s * t * nx2 / opt2) * F.eval_compact(theta, y)

    return SpaceTimeFunction(n, batch)


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


def periodicity_residual(F: KTypeVector, theta, y, j: int):
    """F(theta + j pi, (-1)^j y) - i^{-jq} F(theta, y); zero for valid K-types."""
    y_arr = np.asarray(y, dtype=float)
    phase = 1j ** ((-j * F.params.q) % 4)
    shifted = F.eval_compact(theta + j * np.pi, (-1) ** j * y_arr)
    return shifted - phase * F.eval_compact(theta, y_arr)


class LinearCombination:
    """Formal complex-weighted sum of K-type vectors.

    Terms with equal index and proportional harmonic part are merged; zero
    coefficients are dropped.
    """

    def __init__(self, terms: Sequence[tuple[complex, KTypeVector]] = ()):
        merged: list[tuple[complex, KTypeVector]] = []
        for coeff, vec in terms:
            coeff = complex(coeff)
            if coeff == 0:
                continue
            for i, (c0, v0) in enumerate(merged):
                if v0.index == vec.index and v0.params == vec.params:
                    ratio = vec.h.poly.proportionality(v0.h.poly)
                    if ratio is not None:
                        merged[i] = (c0 + coeff * complex(ratio), v0)
                        break
            else:
                merged.append((coeff, vec))
        self.terms = [(c, v) for c, v in merged if c != 0]

    @property
    def n(self) -> int:
        if not self.terms:
            raise ValueError("empty combination has no dimension")
        return self.terms[0][1].params.n

    def is_empty(self) -> bool:
        return not self.terms

    def eval_compact(self, theta, y):
        if not self.terms:
            y_arr = np.asarray(y, dtype=float)
            return 0j if y_arr.ndim == 1 else np.zeros(y_arr.shape[0], dtype=complex)
        out = None
        for c, v in self.terms:
            val = c * v.eval_compact(theta, y)
            out = val if out is None else out + val
        return out

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
