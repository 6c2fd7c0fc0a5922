import json
import operator
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from singular_weyl import (
    GaussianRational,
    HarmonicPolynomial,
    Polynomial,
    c_const,
    circular_harmonic,
    decompose_yj,
    harmonic_basis,
    harmonic_dimension,
    harmonic_representative,
    laplacian,
)
from singular_weyl.admissibility import k_in_range
from singular_weyl.polynomials import scaled_partial_harmonic

GOLDEN_BASES = Path(__file__).parent / "golden" / "harmonic_bases_n5_k4.json"


class TestGaussianRational:
    def test_arithmetic(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1)
        assert (GaussianRational(1, 2) / GaussianRational(0, 1)) == GaussianRational(2, -1)
        assert complex(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == 0.5 - 0.75j

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational.coerce(0.5)

    @pytest.mark.parametrize("value", [3, -2, Fraction(1, 2), Fraction(-7, 3)])
    def test_hash_agrees_with_equality_on_reals(self, value):
        assert GaussianRational(value) == value
        assert hash(GaussianRational(value)) == hash(value)
        assert len({GaussianRational(value), value}) == 1
        assert hash(GaussianRational(value, 1)) != hash(GaussianRational(value))

    def test_matches_a_fraction_pair_model(self):
        # (re, im) pairs of Fractions are the reference; every result must
        # also be in canonical form (a + b i)/d with d > 0, gcd(a, b, d) = 1
        model = {
            operator.add: lambda x, y: (x[0] + y[0], x[1] + y[1]),
            operator.sub: lambda x, y: (x[0] - y[0], x[1] - y[1]),
            operator.mul: lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
            operator.truediv: lambda x, y: (
                (x[0] * y[0] + x[1] * y[1]) / (y[0] ** 2 + y[1] ** 2),
                (x[1] * y[0] - x[0] * y[1]) / (y[0] ** 2 + y[1] ** 2),
            ),
        }
        rng = random.Random(2025)

        def rational():
            top = 10**20 if rng.random() < 0.1 else 40
            num = rng.randint(-top, top) if rng.random() < 0.8 else 0
            return Fraction(num, rng.randint(1, 12))

        def pair():
            return rational(), rational() if rng.random() < 0.7 else Fraction(0)

        def check(g, x):
            assert type(g) is GaussianRational
            assert (g.re, g.im) == x and type(g.re) is type(g.im) is Fraction
            assert g._d > 0 and gcd(g._a, g._b, g._d) == 1
            assert g == GaussianRational(*x) and bool(g) == any(x)
            assert hash(g) == (hash(x[0]) if not x[1] else hash(x))
            assert (g == x[0]) == (not x[1])
            z, ref = complex(g), complex(x[0]) + 1j * complex(x[1])
            assert (z.real.hex(), z.imag.hex()) == (ref.real.hex(), ref.imag.hex())
            re, im = x
            json_re = [re.numerator, re.denominator]
            assert g.to_json() == (
                json_re if not im else [json_re, [im.numerator, im.denominator]]
            )
            assert repr(g) == (f"{re}" if not im else f"({re}{'+' if im >= 0 else ''}{im}i)")

        for _ in range(2000):
            x, y = pair(), pair()
            g = GaussianRational(*x)
            check(g, x)
            check(-g, (-x[0], -x[1]))
            k, f = rng.randint(-30, 30), rational()
            others = [(GaussianRational(*y), y), (k, (Fraction(k), Fraction(0))), (f, (f, Fraction(0)))]
            for op, ref in model.items():
                for other, o in others:
                    if op is not operator.truediv or any(o):
                        check(op(g, other), ref(x, o))
                    if op is not operator.truediv or any(x):
                        check(op(other, g), ref(o, x))
            assert (g == GaussianRational(*y)) == (x == y)

    def test_division_by_zero(self):
        g = GaussianRational(Fraction(1, 2), 3)
        for zero in (GaussianRational(), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                g / zero
        with pytest.raises(ZeroDivisionError):
            1 / GaussianRational()

    @pytest.mark.parametrize("value", [0.5, 1.0, 2j, 1 + 0j])
    def test_inexact_input_rejected(self, value):
        g = GaussianRational(1, 1)
        for build in (
            GaussianRational, GaussianRational.coerce,
            lambda v: GaussianRational(1, v), lambda v: g + v, lambda v: v * g,
        ):
            with pytest.raises(TypeError):
                build(value)


class TestPolynomial:
    def test_laplacian_examples(self):
        p = Polynomial(2, {(2, 0): 1, (0, 2): -1})  # y1^2 - y2^2
        assert laplacian(p).is_zero()
        rho2 = Polynomial.radius_squared(3)
        assert laplacian(rho2) == Polynomial.constant(3, 6)
        p = Polynomial(3, {(2, 1, 0): 1})  # y1^2 y2
        assert laplacian(p) == Polynomial(3, {(0, 1, 0): 2})

        def by_definition(p):
            out = Polynomial(p.nvars)
            for j in range(p.nvars):
                out = out + p.partial(j).partial(j)
            return out

        unit = GaussianRational(1, Fraction(1, 2))
        for n in range(1, 6):
            rng = np.random.default_rng(100 + n)
            # complex-rational coefficients on monomials of mixed degree
            p = Polynomial(n, {
                tuple(int(e) for e in rng.integers(0, 5, size=n)):
                    GaussianRational(Fraction(int(a), int(b)), Fraction(int(c), int(d)))
                for a, b, c, d in rng.integers(1, 9, size=(12, 4))
            })
            assert not laplacian(p).is_zero() and laplacian(p) == by_definition(p)
            if n == 1:
                q = Polynomial(1, {(3,): unit})
                assert laplacian(q) == by_definition(q) == Polynomial(1, {(1,): unit * 6})
                continue
            # (1 + i/2) (y1^2 - y_n^2): the two terms cancel in one monomial
            up = (2,) + (0,) * (n - 1)
            down = (0,) * (n - 1) + (2,)
            q = Polynomial(n, {up: unit, down: -unit})
            assert by_definition(q).is_zero() and laplacian(q).is_zero()

    def test_evaluation_batch(self, rng):
        p = Polynomial(3, {(2, 0, 0): 1, (0, 1, 1): GaussianRational(0, 2)})
        Y = rng.uniform(-2, 2, size=(10, 3))
        vals = p(Y)
        for i in range(10):
            y = Y[i]
            assert abs(vals[i] - (y[0] ** 2 + 2j * y[1] * y[2])) < 1e-12

    def test_zero_power_at_origin(self):
        p = Polynomial.constant(2, 5)
        assert p(np.zeros(2)) == 5.0



def test_laplacian_reduces_radial_powers_exactly():
    # Delta(rho^{2mu} h) = 2mu(2mu + 2k + n - 2) rho^{2mu - 2} h for h in
    # H_k(R^n): the radial reduction behind the indicial equation of lambda,
    # over every shipped basis element with n <= 5, k <= 6 and mu <= 3
    cases = 0
    for n in range(1, 6):
        rho2 = Polynomial.radius_squared(n)
        powers = [Polynomial.constant(n, 1)]
        for _ in range(3):
            powers.append(powers[-1] * rho2)
        for k in range(7):
            for h in harmonic_basis(n, k):
                assert laplacian(h.poly).is_zero()
                for mu in range(1, 4):
                    rhs = (powers[mu - 1] * h.poly).scale(2 * mu * (2 * mu + 2 * k + n - 2))
                    assert laplacian(powers[mu] * h.poly) == rhs, (n, k, mu, h)
                cases += 4
    assert cases == 2160


class TestHarmonicBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6])
    def test_exactly_harmonic_with_correct_dimension(self, n, k):
        basis = harmonic_basis(n, k)
        assert len(basis) == harmonic_dimension(n, k)
        if n == 1 and k >= 2:
            assert basis == []  # H_k(R) = 0
        for h in basis:
            assert laplacian(h.poly).is_zero()
            assert h.poly.is_homogeneous()
            assert h.poly.total_degree() == k or h.poly.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_identity_on_the_monomials_with_a1_at_most_one(self, n):
        # the harmonic element that is 1 at y^a and 0 at every other y^b with
        # b_1 <= 1 is unique, so this pins the basis itself, not just its span
        for k in range(8):
            free = set()
            for combo in combinations_with_replacement(range(n), k):
                a = tuple(combo.count(j) for j in range(n))
                if a[0] <= 1:
                    free.add(a)
            own = []
            for h in harmonic_basis(n, k):
                assert laplacian(h.poly).is_zero()
                at_free = {a: c for a, c in h.poly.terms.items() if a in free}
                ((a, c),) = at_free.items()
                assert c == 1
                own.append(a)
            assert sorted(own) == sorted(free)

    def test_examples(self):
        assert len(harmonic_basis(3, 0)) == 1
        assert len(harmonic_basis(3, 2)) == 5
        basis1 = harmonic_basis(1, 1)
        assert basis1[0].poly == Polynomial.variable(1, 0)

    def test_deterministic_ordering(self):
        lead = [h.poly.leading_monomial() for h in harmonic_basis(4, 3)]
        assert lead == sorted(lead, reverse=True)
        assert harmonic_basis(4, 3) == harmonic_basis(4, 3)


class TestCConst:
    def test_examples(self):
        assert c_const(0, 2) == 0
        assert c_const(1, 3) == Fraction(1, 3)
        assert c_const(0, 3) == 1


class TestDecomposeYj:
    def test_constant_case(self):
        h = HarmonicPolynomial(Polynomial.constant(3, 1), 0)
        h_plus, c = decompose_yj(h, 0)
        assert h_plus.poly == Polynomial.variable(3, 0)
        assert c == 1

    def test_linear_case(self):
        h = HarmonicPolynomial(Polynomial.variable(3, 0), 1)
        h_plus, c = decompose_yj(h, 0)
        assert c == Fraction(1, 3)
        expected = Polynomial(
            3,
            {
                (2, 0, 0): Fraction(2, 3),
                (0, 2, 0): Fraction(-1, 3),
                (0, 0, 2): Fraction(-1, 3),
            },
        )
        assert h_plus.poly == expected

    def test_complex_circular_case(self):
        h = circular_harmonic(1)
        h_plus, c = decompose_yj(h, 0)
        assert c == Fraction(1, 2)
        assert laplacian(h_plus.poly).is_zero()

    def test_roundtrip_identity_exact(self):
        for n in (2, 3, 4):
            for k in range(0, 6):
                rho2 = Polynomial.radius_squared(n)
                for h in harmonic_basis(n, k):
                    for j in range(n):
                        h_plus, c = decompose_yj(h, j)
                        lhs = Polynomial.variable(n, j) * h.poly
                        rhs = h_plus.poly + rho2.scale(c) * h.poly.partial(j)
                        assert lhs == rhs

    def test_existence_clause(self):
        # some j gives a nonzero harmonic part, except the (k, n) = (1, 1) case
        for n in (1, 2, 3, 4):
            for k in range(0, 6):
                for h in harmonic_basis(n, k):
                    nonzero = [
                        j for j in range(n) if not decompose_yj(h, j)[0].is_zero()
                    ]
                    if (k, n) == (1, 1):
                        assert not nonzero
                    else:
                        assert nonzero

    def test_repeated_calls_agree(self, rng):
        # the representative is one shared instance; the derived harmonics
        # are built anew on each call, equal by value and bit for bit in
        # their evaluator output
        h = harmonic_representative(3, 2)
        assert h is harmonic_representative(3, 2)
        rho2 = Polynomial.radius_squared(3)
        Y = rng.uniform(-1.5, 1.5, size=(20, 3))
        for j in range(3):
            first = decompose_yj(h, j)
            again = decompose_yj(h, j)
            assert again == first
            assert again[0](Y).tobytes() == first[0](Y).tobytes()
            h_plus, c = first
            assert Polynomial.variable(3, j) * h.poly == h_plus.poly + rho2.scale(c) * h.poly.partial(j)
            d_h = scaled_partial_harmonic(h, j, c)
            d_again = scaled_partial_harmonic(h, j, c)
            assert d_again == d_h
            if d_h is not None:
                assert d_again(Y).tobytes() == d_h(Y).tobytes()

    def test_derived_evaluator_follows_power_not_value(self):
        # equal by value, but without the power form: its h_plus must not
        # inherit the representative's stable evaluator
        rep = harmonic_representative(3, 2)
        plain = HarmonicPolynomial(rep.poly, 2)
        assert plain == rep and plain.power is None and rep.power == 2
        assert decompose_yj(rep, 0)[0].evaluator is not None
        assert decompose_yj(plain, 0)[0].evaluator is None
        assert decompose_yj(rep, 0)[0].evaluator is not None
        assert scaled_partial_harmonic(rep, 0, Fraction(1)).evaluator is not None
        assert scaled_partial_harmonic(plain, 0, Fraction(1)).evaluator is None

    def test_n1_vanishing(self):
        h = HarmonicPolynomial(Polynomial.variable(1, 0), 1)
        h_plus, c = decompose_yj(h, 0)
        assert h_plus.is_zero()
        assert c == 1


class TestStableEvaluators:
    @pytest.mark.parametrize("n,k", [(2, 9), (3, 7), (4, 5), (2, 0)])
    def test_representative_matches_exact_poly(self, n, k, rng):
        h = harmonic_representative(n, k)
        Y = rng.uniform(-1.5, 1.5, size=(30, n))
        assert np.allclose(h(Y), h.poly(Y), rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("n,k", [(2, 8), (3, 6), (4, 4)])
    def test_derived_directions_match_exact_poly(self, n, k, rng):
        h = harmonic_representative(n, k)
        Y = rng.uniform(-1.5, 1.5, size=(30, n))
        for j in range(n):
            h_plus, c = decompose_yj(h, j)
            if not h_plus.is_zero():
                assert np.allclose(h_plus(Y), h_plus.poly(Y), rtol=1e-10, atol=1e-12)
            d_h = scaled_partial_harmonic(h, j, c)
            if d_h is not None:
                assert np.allclose(d_h(Y), d_h.poly(Y), rtol=1e-10, atol=1e-12)

    def test_negative_weight_circular(self, rng):
        h = circular_harmonic(-3)
        assert h.degree == 3 and h.power == -3
        Y = rng.uniform(-1, 1, size=(10, 2))
        expected = (Y[:, 0] - 1j * Y[:, 1]) ** 3
        assert np.allclose(h(Y), expected)
        assert np.allclose(h.poly(Y), expected)


class TestHarmonicPolynomialValidation:
    def test_rejects_non_harmonic(self):
        with pytest.raises(ValueError):
            HarmonicPolynomial(Polynomial.radius_squared(3), 2)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            HarmonicPolynomial(Polynomial.variable(3, 0), 2)


def _golden_record(kind: str, n: int, k: int, h: HarmonicPolynomial) -> str:
    yj = []
    for j in range(n):
        h_plus, c = decompose_yj(h, j)
        entry = {"j": j, "h_plus": h_plus.poly.to_json(), "c": [c.numerator, c.denominator]}
        if kind == "representative":
            d_h = scaled_partial_harmonic(h, j, c)
            entry["scaled_partial"] = None if d_h is None else d_h.poly.to_json()
        yj.append(entry)
    return json.dumps(
        {"kind": kind, "n": n, "k": k, "poly": h.poly.to_json(), "yj": yj},
        sort_keys=True, separators=(",", ":"),
    )


def test_harmonic_bases_match_golden():
    # every exact coefficient of the bases n <= 5, k <= 4, their y_j splits
    # and the representatives k <= 6 with their scaled partials, one record
    # per line, so a change to the arithmetic shows as a byte difference
    records = [
        _golden_record("basis", n, k, h)
        for n in range(1, 6) for k in range(5) for h in harmonic_basis(n, k)
    ]
    records += [
        _golden_record("representative", n, k, harmonic_representative(n, k))
        for n in range(1, 6) for k in range(7) if k_in_range(n, k)
    ]
    assert "[\n" + ",\n".join(records) + "\n]\n" == GOLDEN_BASES.read_text()
