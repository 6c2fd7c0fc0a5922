"""Parameter records and admissibility arithmetic for eigenvalues and pairs.

The eigenvalue lattice: for n >= 2 the non-zero admissible eigenvalues form
A_n = {l(n+2j) : 1 <= l <= j+1}, characterized in closed form by parity and
2-adic valuation; for n = 1 they are the triangular numbers.  A pair (l, k)
is lambda-admissible when lambda = l(2l+2k+n-2) with k in range
(``k_in_range``): k >= 0 for every n, and k <= 1 at n = 1, where
lambda = l(2l+2k-1) is the triangular number t(t-1)/2 of t = 2l+k.

Every lambda and index is a plain int.  Every pair with k in range is
admissible for its own lambda = ``pair_eigenvalue(n, l, k)``, so what is
built from a pair is not checked again; ``admissible_pairs`` is the check for
a lambda that comes from outside.  ``boundary_weight`` is the weight 2k+4l+n
at which the eta ladder of H_{l,k} stops.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


class AdmissibilityError(ValueError):
    """Raised when an eigenvalue or index pair fails admissibility."""


@dataclass(frozen=True)
class ParameterSet:
    """Representation parameters (n, q, s); r is pinned to -n/2.

    n >= 1 is the spatial dimension, q a residue mod 4, s a nonzero finite
    complex scalar (s = i/2 gives the Schrodinger equation, s = -1/4 the heat
    equation).
    """

    n: int
    q: int
    s: complex

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if self.q not in (0, 1, 2, 3):
            object.__setattr__(self, "q", self.q % 4)
        if self.s == 0:
            raise ValueError("s must be nonzero")
        object.__setattr__(self, "s", complex(self.s))
        if not cmath.isfinite(self.s):
            raise ValueError("s must be finite")


S_PRESETS = {"schrodinger": 0.5j, "heat": -0.25}


def pair_eigenvalue(n: int, l: int, k: int) -> int:
    """lambda = l(2l+2k+n-2) for a pair with k in range; 0 when l = 0."""
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if l < 0:
        raise ValueError("l must be >= 0")
    _check_k_range(n, k)
    return l * (2 * l + 2 * k + n - 2)


def boundary_weight(n: int, l: int, k: int) -> int:
    """2k + 4l + n: the weight m of the lowest weight vector of H_{l,k}, and
    minus that of the highest."""
    return 2 * k + 4 * l + n


def k_in_range(n: int, k: int) -> bool:
    """Whether k is a pair's harmonic degree: k >= 0, and k <= 1 at n = 1,
    since H_k(R) = 0 for k >= 2."""
    return k >= 0 and (n > 1 or k <= 1)


def _check_k_range(n: int, k: int):
    if not k_in_range(n, k):
        raise AdmissibilityError(f"k = {k} is out of range for n = {n}")


def _is_triangular(value: Fraction) -> bool:
    if value < 0 or value.denominator != 1:
        return False
    disc = 8 * value.numerator + 1
    root = isqrt(disc)
    return root * root == disc


def is_admissible(n: int, lam) -> bool:
    """Closed-form admissibility test (no enumeration).

    n even: lam is an even integer >= n.  n odd (>= 3): writing
    lam = 2^r * a with a odd, require a >= n + 2^(r+1) - 2.  n = 1: lam is
    a triangular number.
    """
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    lam = Fraction(lam)
    if n == 1:
        return _is_triangular(lam)
    if lam.denominator != 1:
        return False
    value = lam.numerator
    if value <= 0:
        return False
    if n % 2 == 0:
        return value % 2 == 0 and value >= n
    r = 0
    a = value
    while a % 2 == 0:
        a //= 2
        r += 1
    return a >= n + 2 ** (r + 1) - 2


def enumerate_admissible(n: int, lam_max) -> list[int]:
    """Strictly increasing list of non-zero admissible lambda <= lam_max."""
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    lam_max = Fraction(lam_max)
    if lam_max < 0:
        raise ValueError("lam_max must be >= 0")
    return [value for value in range(1, int(lam_max) + 1) if is_admissible(n, value)]


def admissible_pairs(n: int, lam) -> list[tuple[int, int]]:
    """All lambda-admissible pairs (l, k), sorted by decreasing l.

    Raises AdmissibilityError when lambda is not admissible.
    """
    lam = Fraction(lam)
    if not is_admissible(n, lam) or lam == 0:
        raise AdmissibilityError(f"lambda = {lam} is not admissible for n = {n}")
    value = lam.numerator
    pairs: list[tuple[int, int]] = []
    # k >= 0 bounds l: lambda = l(2l+2k+n-2) >= l(2l+n-2)
    l = 1
    while l * (2 * l + n - 2) <= value:
        k_frac = Fraction(value, 2 * l) - l + 1 - Fraction(n, 2)
        if k_frac.denominator == 1 and k_in_range(n, k_frac):
            pairs.append((l, int(k_frac)))
        l += 1
    return pairs[::-1]


def weight_residue(params: ParameterSet, k: int) -> int:
    """The residue (q + 2k) mod 4; every legal m for (k, q) lies in it."""
    return (params.q + 2 * k) % 4

