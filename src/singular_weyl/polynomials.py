"""Exact multivariate polynomial arithmetic and harmonic polynomial bases.

Coefficients are Gaussian rationals, each one reduced integer triple
(a + b i)/d, so harmonicity is a zero-tolerance property: the Laplacian of a
harmonic polynomial is *identically* the zero polynomial, not merely small.

The circular harmonics of n = 2 live here as well: ``circular_harmonic(k)``
returns (y1 + i y2)^k for k >= 0 and (y1 - i y2)^|k| for k < 0, the two
O(2)-weights +-k of the degree |k|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from operator import add
from typing import Callable, Mapping

import numpy as np

from .admissibility import k_in_range

Exponents = tuple[int, ...]


def _parts(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction; floats are refused."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    if isinstance(value, (float, complex)):
        raise TypeError("floats are not exact; use Fraction or GaussianRational")
    raise TypeError(f"cannot coerce {type(value)!r} to GaussianRational")


_new = object.__new__


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """The GaussianRational (a + b i)/d for d > 0, in canonical form."""
    g = gcd(a, b, d)
    out = _new(GaussianRational)
    if g == 1:
        out._a, out._b, out._d = a, b, d
    else:
        out._a, out._b, out._d = a // g, b // g, d // g
    return out


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Stored as one integer triple (a + b i)/d in canonical form: d > 0 and
    gcd(a, b, d) = 1.  Equal values therefore have equal triples, and every
    operation is integer arithmetic followed by one gcd.  ``re`` and ``im``
    read the parts as ``Fraction``s.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        p, q = _parts(re)
        r, s = _parts(im)
        # both parts are reduced, so over their lcm the triple is canonical
        d = lcm(q, s)
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return cls(value)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d, e = self._d, other._d
        if d == e:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        out = _new(GaussianRational)
        out._a, out._b, out._d = -self._a, -self._b, self._d
        return out

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is int:
            return _reduced(self._a * other, self._b * other, self._d)
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        c, e = other._a, other._b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a + b i)/d / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        a, b, f = self._a, self._b, other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            try:
                other = GaussianRational.coerce(other)
            except TypeError:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # a real value equals the int/Fraction it came from, so hash like it
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d) + 1j * complex(self._b / self._d)

    def __repr__(self):
        if not self._b:
            return f"{self.re}"
        return f"({self.re}{'+' if self._b >= 0 else ''}{self.im}i)"

    def to_json(self):
        """Serialize: [num, den] when real, [[renum,reden],[imnum,imden]] otherwise."""
        re = self.re
        if not self._b:
            return [re.numerator, re.denominator]
        im = self.im
        return [[re.numerator, re.denominator], [im.numerator, im.denominator]]


GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


class Polynomial:
    """Multivariate polynomial over Gaussian rationals.

    Terms are stored as a map from exponent tuples (one entry per variable)
    to nonzero GaussianRational coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, GaussianRational] | None = None):
        self.nvars = nvars
        clean: dict[Exponents, GaussianRational] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = GaussianRational.coerce(coeff)
                if coeff:
                    if len(exps) != nvars:
                        raise ValueError("exponent tuple length does not match nvars")
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def _of(cls, nvars: int, terms: dict[Exponents, GaussianRational]) -> "Polynomial":
        """The polynomial of terms already keyed and coerced; drops zeros."""
        out = _new(cls)
        out.nvars = nvars
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: GaussianRational.coerce(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): GR_ONE})

    @classmethod
    def radius_squared(cls, nvars: int) -> "Polynomial":
        """The polynomial rho^2 = sum_j y_j^2."""
        terms = {}
        for j in range(nvars):
            exps = [0] * nvars
            exps[j] = 2
            terms[tuple(exps)] = GR_ONE
        return cls(nvars, terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            terms[exps] = coeff if acc is None else acc + coeff
        return Polynomial._of(self.nvars, terms)  # drops the terms that cancelled

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms: dict[Exponents, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                acc = terms.get(exps)
                terms[exps] = c1 * c2 if acc is None else acc + c1 * c2
        return Polynomial._of(self.nvars, terms)  # drops the terms that cancelled

    def scale(self, value) -> "Polynomial":
        value = GaussianRational.coerce(value)
        return Polynomial._of(self.nvars, {e: c * value for e, c in self.terms.items()})

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------

    def partial(self, index: int) -> "Polynomial":
        terms: dict[Exponents, GaussianRational] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            new = list(exps)
            new[index] = e - 1
            key = tuple(new)
            acc = terms.get(key)
            terms[key] = coeff * e if acc is None else acc + coeff * e
        return Polynomial._of(self.nvars, terms)  # drops the terms that cancelled

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def leading_monomial(self) -> Exponents:
        """Largest monomial in graded-lex order (total degree, then lex)."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=lambda e: (sum(e), e))

    # -- evaluation ------------------------------------------------------

    def __call__(self, y: np.ndarray) -> np.ndarray | complex:
        """Evaluate at y of shape (nvars,) or (N, nvars)."""
        y = np.asarray(y, dtype=np.complex128)
        single = y.ndim == 1
        if single:
            y = y[None, :]
        if not self.terms:
            out = np.zeros(y.shape[0], dtype=np.complex128)
            return out[0] if single else out
        keys = sorted(self.terms)
        exps = np.array(keys, dtype=np.int64)
        coeffs = np.array([complex(self.terms[e]) for e in keys], dtype=np.complex128)
        # (N, T, nvars) powers; y may contain zeros, 0**0 == 1 as required
        powers = y[:, None, :] ** exps[None, :, :]
        out = powers.prod(axis=2) @ coeffs
        return out[0] if single else out

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
            mono = "*".join(
                f"y{j + 1}" + (f"^{e}" if e > 1 else "")
                for j, e in enumerate(exps)
                if e > 0
            )
            bits.append(f"{self.terms[exps]!r}{'*' + mono if mono else ''}")
        return " + ".join(bits)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return [
            {"exponents": list(exps), "coeff": self.terms[exps].to_json()}
            for exps in sorted(self.terms)
        ]


def laplacian(p: Polynomial) -> Polynomial:
    """Sum of second partials, with exact coefficients.

    One pass: each monomial adds e(e-1) times its coefficient to the
    monomial lowered by two in each variable of exponent e >= 2.
    """
    terms: dict[Exponents, GaussianRational] = {}
    for exps, coeff in p.terms.items():
        for j, e in enumerate(exps):
            if e >= 2:
                low = exps[:j] + (e - 2,) + exps[j + 1:]
                acc = terms.get(low)
                term = coeff * (e * (e - 1))
                terms[low] = term if acc is None else acc + term
    return Polynomial._of(p.nvars, terms)  # drops the terms that cancelled


@dataclass(frozen=True)
class HarmonicPolynomial:
    """A harmonic polynomial together with its homogeneity degree.

    ``degree`` is the homogeneity degree (>= 0).

    ``evaluator``, when set, is a numerically stable product-form evaluator
    used in place of the expanded polynomial (whose binomial coefficients
    cancel catastrophically at high degree); the expanded form remains the
    exact-arithmetic source of truth.  ``power`` marks polynomials that are
    literally (y1 + i y2)^power (conjugated for power < 0).

    Harmonicity is proved exactly, once, when the object is built.
    """

    poly: Polynomial
    degree: int
    evaluator: "Callable | None" = field(default=None, compare=False, repr=False)
    power: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.poly.is_zero():
            if not self.poly.is_homogeneous() or self.poly.total_degree() != self.degree:
                raise ValueError("polynomial is not homogeneous of the declared degree")
            if not laplacian(self.poly).is_zero():
                raise ValueError("polynomial is not harmonic")

    @property
    def nvars(self) -> int:
        return self.poly.nvars

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __call__(self, y):
        if self.evaluator is not None:
            return self.evaluator(np.asarray(y, dtype=float))
        return self.poly(y)


def harmonic_dimension(n: int, k: int) -> int:
    """dim H_k(R^n) = C(n+k-1, k) - C(n+k-3, k-2)."""
    if k < 0:
        return 0
    first = comb(n + k - 1, k)
    second = comb(n + k - 3, k - 2) if k >= 2 and n + k - 3 >= 0 else 0
    return first - second


def _monomials(n: int, k: int) -> list[Exponents]:
    """Degree-k exponent tuples in n variables, graded-lex descending."""
    out = []
    for combo in combinations_with_replacement(range(n), k):
        exps = [0] * n
        for j in combo:
            exps[j] += 1
        out.append(tuple(exps))
    out.sort(reverse=True)
    return out


def harmonic_basis(n: int, k: int) -> list[HarmonicPolynomial]:
    """Exact rational basis of H_k(R^n), ordered by leading monomial.

    Write y^a = y_1^{a_1} y'^{a'} with y' = (y_2, ..., y_n) and Delta' the
    Laplacian in y'.  Each degree-k monomial with a_1 <= 1 gives one element

        h_a = sum_{j >= 0} (-1)^j a_1!/(a_1+2j)! y_1^{a_1+2j} Delta'^j y'^{a'},

    a finite sum, since Delta'^j y'^{a'} = 0 once 2j > |a'|.  It is harmonic:
    Delta = d_1^2 + Delta', the d_1^2 of term j cancels the Delta' of term
    j-1, and d_1^2 kills term 0 because a_1 <= 1.  Apart from y^a itself,
    h_a has only monomials with a_1 >= 2, so the elements are independent;
    there are dim P_k - dim P_{k-2} of them, which is the count of
    ``harmonic_dimension(n, k)``.  h_a is the kernel element of the
    Laplacian that is 1 at y^a and 0 at the other monomials with a_1 <= 1.

    For n = 1 and k >= 2 the basis is empty, since H_k(R) = 0.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if k < 0:
        raise ValueError("degree must be >= 0")
    basis = []
    for a in _monomials(n, k):
        if a[0] > 1:
            continue
        terms: dict[Exponents, GaussianRational] = {}
        # y1 does not occur in p, so laplacian(p) is Delta' p
        p = Polynomial(n, {(0,) + a[1:]: GR_ONE})
        e1, coeff = a[0], GR_ONE
        while not p.is_zero():
            for exps, c in p.terms.items():
                terms[(e1,) + exps[1:]] = c * coeff
            e1 += 2
            coeff /= -(e1 - 1) * e1
            p = laplacian(p)
        basis.append(HarmonicPolynomial(Polynomial(n, terms), k))
    basis.sort(key=lambda h: h.poly.leading_monomial(), reverse=True)
    if len(basis) != harmonic_dimension(n, k):
        raise RuntimeError("kernel dimension does not match the closed formula")
    return basis


def _power_evaluator(k: int) -> Callable:
    sign = 1j if k >= 0 else -1j

    def ev(y: np.ndarray) -> np.ndarray | complex:
        w = y[..., 0] + sign * y[..., 1]
        return w ** abs(k)

    return ev


def circular_harmonic(k: int) -> HarmonicPolynomial:
    """The n = 2 harmonic of O(2)-weight k: (y1 + i y2)^k, conjugated for k < 0."""
    unit = GR_I if k >= 0 else GaussianRational(0, -1)
    deg = abs(k)
    terms: dict[Exponents, GaussianRational] = {}
    power = GR_ONE
    for j in range(deg + 1):
        terms[(deg - j, j)] = power * comb(deg, j)
        power = power * unit
    return HarmonicPolynomial(Polynomial(2, terms), deg, evaluator=_power_evaluator(k), power=k)


def harmonic_representative(n: int, k: int) -> HarmonicPolynomial:
    """One cheap harmonic of degree k: (y1 + i y2)^k for n >= 2, y^k for n = 1.

    Used by verification sweeps that need a single basis vector per K-type
    without building the full ``harmonic_basis``.  Every call with the same
    (n, k) returns the same shared instance, built and proved harmonic once
    per process.
    """
    return _representative(n, k)


@lru_cache(maxsize=None)
def _representative(n: int, k: int) -> HarmonicPolynomial:
    if not k_in_range(n, k):
        raise ValueError(f"k = {k} is out of range for n = {n}")
    if n == 1:
        mono = Polynomial.constant(1, 1) if k == 0 else Polynomial.variable(1, 0)
        return HarmonicPolynomial(mono, k)
    # the circular harmonic, padded by the variables it does not read
    circle = circular_harmonic(k)
    terms = {e + (0,) * (n - 2): c for e, c in circle.poly.terms.items()}
    return HarmonicPolynomial(Polynomial(n, terms), k, evaluator=circle.evaluator, power=k)


def c_const(k: int, n: int) -> Fraction:
    """The decomposition constant: 1/(2k+n-2), except c_{0,2} = 0."""
    if k < 0 or n < 1:
        raise ValueError("require k >= 0 and n >= 1")
    if (k, n) == (0, 2):
        return Fraction(0)
    return Fraction(1, 2 * k + n - 2)


def decompose_yj(h: HarmonicPolynomial, j: int) -> tuple[HarmonicPolynomial, Fraction]:
    """Harmonic part of y_j * h.

    Returns (h_plus, c) with ``y_j h = h_plus + c rho^2 d_j h`` as an exact
    polynomial identity, h_plus harmonic of degree k+1 (possibly zero) and
    c = c_const(k, n).  When h carries a stable power-form evaluator, one is
    attached to h_plus as well.  Each call builds h_plus anew and proves it
    harmonic.
    """
    n = h.nvars
    k = h.degree
    c = c_const(k, n)
    rho2 = Polynomial.radius_squared(n)
    # HarmonicPolynomial proves the candidate harmonic, exactly, on construction
    candidate = Polynomial.variable(n, j) * h.poly - rho2.scale(c) * h.poly.partial(j)
    evaluator = None
    if h.power is not None and h.power >= 0 and not candidate.is_zero():
        p = h.power
        cf = float(c)
        if p == 0:
            def evaluator(y, _j=j):
                return y[..., _j] + 0j
        elif j <= 1:
            unit = 1.0 if j == 0 else 1j

            def evaluator(y, _j=j, _p=p, _u=unit, _c=cf):
                w = y[..., 0] + 1j * y[..., 1]
                rho_sq = (y**2).sum(axis=-1)
                return w ** (_p - 1) * (y[..., _j] * w - _c * _p * _u * rho_sq)

        else:
            def evaluator(y, _j=j, _p=p):
                w = y[..., 0] + 1j * y[..., 1]
                return y[..., _j] * w**_p

    return HarmonicPolynomial(candidate, k + 1, evaluator=evaluator), c


def scaled_partial_harmonic(h: HarmonicPolynomial, j: int, scale: Fraction) -> HarmonicPolynomial | None:
    """The harmonic ``scale * d_j h`` of degree k-1, or None when zero.

    Propagates a stable power-form evaluator when h has one.
    """
    d_poly = h.poly.partial(j).scale(scale)
    if d_poly.is_zero():
        return None
    evaluator = None
    if h.power is not None and h.power >= 1 and j <= 1:
        p = h.power
        unit = (1.0 if j == 0 else 1j) * p * float(scale)

        def evaluator(y, _p=p, _u=unit):
            w = y[..., 0] + 1j * y[..., 1]
            return _u * w ** (_p - 1)

    return HarmonicPolynomial(d_poly, h.degree - 1, evaluator=evaluator)
