"""Parameter records and admissibility arithmetic for eigenvalues and pairs.

The eigenvalue lattice: for n >= 2 the non-zero admissible eigenvalues form
A_n = {l(n+2j) : 1 <= l <= j+1}, characterized in closed form by parity and
2-adic valuation; for n = 1 they are the triangular numbers.  A pair (l, k)
is lambda-admissible when lambda = l(2l+2k+n-2).

For n = 1 two parametrizations coexist: the public pair arithmetic uses
triangular pairs (l, 0) with lambda = l(l-1)/2, while the K-type machinery
uses radial pairs (l, k) with k in {0, 1} and lambda = l(2l+2k-1).  They
are related by l_triangular = 2*l_radial + k (see ``triangular_to_radial``).
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

    @property
    def r(self) -> Fraction:
        return Fraction(-self.n, 2)


S_PRESETS = {"schrodinger": 0.5j, "heat": -0.25}


@dataclass(frozen=True)
class KTypeIndex:
    """Index triple (m, l, k); the K_2-weight is m/2 and r_+ = 2l."""

    m: int
    l: int
    k: int

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("l must be >= 0")


@dataclass(frozen=True)
class Eigenvalue:
    """A validated eigenvalue: admissible for its dimension, or zero."""

    n: int
    value: Fraction

    def __post_init__(self):
        val = Fraction(self.value)
        object.__setattr__(self, "value", val)
        if val != 0 and not is_admissible(self.n, val):
            raise AdmissibilityError(f"lambda = {val} is not admissible for n = {self.n}")

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __int__(self) -> int:
        if self.value.denominator != 1:
            raise ValueError("eigenvalue is not integral")
        return self.value.numerator

    def __float__(self) -> float:
        return float(self.value)


def pair_eigenvalue(n: int, l: int, k: int) -> int:
    """lambda = l(2l+2k+n-2) for a radial pair; the K-type convention.

    Valid for all n >= 1; at n = 1 the pair uses the radial indexing with
    k in {0, 1}.
    """
    if n < 1:
        raise ValueError("dimension n must be >= 1")
    if l < 0:
        raise ValueError("l must be >= 0")
    _check_k_range(n, k)
    return l * (2 * l + 2 * k + n - 2)


def _check_k_range(n: int, k: int):
    if n == 1 and k not in (0, 1):
        raise AdmissibilityError("for n = 1, k must be 0 or 1")
    if n >= 3 and k < 0:
        raise AdmissibilityError("for n >= 3, k must be >= 0")


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


def enumerate_admissible(n: int, lam_max) -> list[Eigenvalue]:
    """Strictly increasing list of non-zero admissible lambda <= lam_max."""
    lam_max = Fraction(lam_max)
    if lam_max < 0:
        raise ValueError("lam_max must be >= 0")
    out: list[Eigenvalue] = []
    if n == 1:
        l = 2
        while True:
            val = Fraction(l * (l - 1), 2)
            if val > lam_max:
                break
            out.append(Eigenvalue(1, val))
            l += 1
        return out
    top = int(lam_max)
    for value in range(1, top + 1):
        if is_admissible(n, value):
            out.append(Eigenvalue(n, Fraction(value)))
    return out


def admissible_pairs(n: int, lam) -> list[tuple[int, int]]:
    """All lambda-admissible pairs (l, k), sorted by decreasing l.

    For n >= 3 the pairs satisfy k >= 0; for n = 2 negative k occurs; for
    n = 1 the single pair is the triangular pair (l, 0).  Raises
    AdmissibilityError when lambda is not admissible.
    """
    lam = lam.value if isinstance(lam, Eigenvalue) else Fraction(lam)
    if not is_admissible(n, lam) or lam == 0:
        raise AdmissibilityError(f"lambda = {lam} is not admissible for n = {n}")
    if n == 1:
        l = (1 + isqrt(8 * lam.numerator + 1)) // 2
        assert Fraction(l * (l - 1), 2) == lam
        return [(l, 0)]
    value = lam.numerator
    pairs: list[tuple[int, int]] = []
    if n == 2:
        # lambda = 2l(l+k): l runs over divisors of lambda/2, k may be negative
        half = value // 2
        for l in range(1, half + 1):
            if half % l == 0:
                pairs.append((l, half // l - l))
    else:
        # k >= 0 bounds l: lambda = l(2l+2k+n-2) >= l(2l+n-2)
        l = 1
        while l * (2 * l + n - 2) <= value:
            k_frac = Fraction(value, 2 * l) - l + 1 - Fraction(n, 2)
            if k_frac.denominator == 1 and k_frac >= 0:
                pairs.append((l, int(k_frac)))
            l += 1
    pairs.sort(key=lambda p: -p[0])
    return pairs


def weight_residue(params: ParameterSet, k: int) -> int:
    """The residue (q + 2k) mod 4; every legal m for (k, q) lies in it."""
    return (params.q + 2 * k) % 4


def triangular_to_radial(l_triangular: int) -> tuple[int, int]:
    """Convert an n = 1 triangular pair index to the radial (l, k) indexing.

    lambda = l_t (l_t - 1)/2 = l (2l + 2k - 1) with l = l_t // 2 and
    k = l_t mod 2.
    """
    if l_triangular < 0:
        raise ValueError("index must be >= 0")
    return l_triangular // 2, l_triangular % 2


def radial_pairs(n: int, lam) -> list[tuple[int, int]]:
    """Admissible pairs in the K-type (radial) indexing, decreasing l.

    Identical to ``admissible_pairs`` for n >= 2; for n = 1 the triangular
    pair is converted to its radial form.
    """
    if n == 1:
        (l_tri, _), = admissible_pairs(1, lam)
        return [triangular_to_radial(l_tri)]
    return admissible_pairs(n, lam)
