"""Differential-operator actions in both pictures, closed-form ladders, and
an independent finite-difference oracle for every closed form.

Closed forms implemented here:

* kappa . F_{m,l,k} = (m/2) F_{m,l,k}
* eta^{+-} . F_{m,l,k} = -((+-m) + 4l + 2k + n)/4 * F_{m+-4,l,k}
* E_j^{+-} . F_{m,l,k} = a four-term combination over the indices
  (m+-2, l-1, k+1), (m+-2, l, k+1), (m+-2, l, k-1), (m+-2, l+1, k-1)

``E_MOVES`` is the single source of those four moves and of their units;
the closed form, the least-squares oracle and the ladder graph in
``structure`` all read it.

The E coefficients shipped here are the oracle-confirmed ones (the source
statement and proof disagree internally; ``printed_E_coefficients`` keeps
the published table and ``recover_E_coefficients`` re-derives the truth by
least squares against the finite-difference application, so any mismatch is
reported rather than silently adopted).

The oracle has one stencil path: ``fd_apply`` evaluates one operator or a
sequence of them (``OperatorSpec.identity`` is f itself) from one ``f.batch``.

Direction normalization for E: targets with k+1 carry the harmonic
projection h_plus of y_j h, targets with k-1 carry c_{k,n} * d_j h.  With
this scaling all four coefficients are (i or s) times a rational with
denominator at most 4 B (B-1), B = k + 2l + n/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .admissibility import ParameterSet
from .config import DEFAULT_FD, DEFAULT_TOLERANCES
from .ktypes import KTypeVector, LinearCombination, SpaceTimeFunction, make_ktype
from .polynomials import HarmonicPolynomial, decompose_yj, scaled_partial_harmonic


class SingularityError(ValueError):
    """Evaluation point too close to an excluded locus."""


# E_j^{+-} moves (l, k) by (delta l, delta k); its coefficient on that move is
# a rational times the unit, i or s.  Keys are the ECoefficients field names.
E_MOVES: dict[str, tuple[int, int, str]] = {
    "down_up": (-1, +1, "i"),
    "same_up": (0, +1, "s"),
    "same_down": (0, -1, "i"),
    "up_down": (+1, -1, "s"),
}


def _e_units(s: complex) -> dict[str, complex]:
    """Label -> the complex unit of that E_MOVES entry."""
    return {label: 1j if unit == "i" else s for label, (_, _, unit) in E_MOVES.items()}


# ---------------------------------------------------------------------------
# finite differences: 4th-order central stencils, one Richardson level
# ---------------------------------------------------------------------------


# sample offsets, in units of h, of the first-derivative stencil at steps h and
# h/2; the second-derivative stencil reads the same samples plus f(P)
_FIRST_OFFSETS = (-2.0, -1.0, 1.0, 2.0, -0.5, 0.5)


def _first_richardson(vals, h):
    """Richardson-extrapolated 4th-order first derivative from the values at
    ``_FIRST_OFFSETS`` times h."""
    m2, m1, p1, p2, m_half, p_half = vals
    d_h = (m2 - 8 * m1 + 8 * p1 - p2) / (12 * h)
    d_h2 = (m1 - 8 * m_half + 8 * p_half - p1) / (6 * h)
    return (16 * d_h2 - d_h) / 15


def _second_richardson(f0, vals, h):
    """Richardson-extrapolated 4th-order second derivative from f(P) and the
    values at ``_FIRST_OFFSETS`` times h."""
    m2, m1, p1, p2, m_half, p_half = vals
    d_h = (-m2 + 16 * m1 - 30 * f0 + 16 * p1 - p2) / (12 * h**2)
    d_h2 = (-m1 + 16 * m_half - 30 * f0 + 16 * p_half - p1) / (3 * h**2)
    return (16 * d_h2 - d_h) / 15


def _partials(f: SpaceTimeFunction, P: np.ndarray, h: np.ndarray, first=(), second=()):
    """(f(P), {axis: first partial}, {axis: second partial}) from one f.batch call.

    h has the shape of P: a step per point and axis.  The batch stacks P,
    then one ``_FIRST_OFFSETS`` block per distinct axis of ``first`` and
    ``second``, in that order; an axis in both shares its block.
    """
    axes = tuple(dict.fromkeys((*first, *second)))
    K = len(_FIRST_OFFSETS)
    stacked = np.repeat(P[None], 1 + K * len(axes), axis=0)
    for i, a in enumerate(axes):
        stacked[1 + K * i : 1 + K * (i + 1), :, a] += np.multiply.outer(_FIRST_OFFSETS, h[:, a])
    vals = f.batch(stacked.reshape(-1, P.shape[1])).reshape(len(stacked), P.shape[0])
    f0 = vals[0]
    blocks = dict(zip(axes, vals[1:].reshape(len(axes), K, P.shape[0])))
    d1 = {a: _first_richardson(blocks[a], h[:, a]) for a in first}
    d2 = {a: _second_richardson(f0, blocks[a], h[:, a]) for a in second}
    return f0, d1, d2


def default_steps(P: np.ndarray) -> np.ndarray:
    """base_step scaled by coordinate magnitude, per point and axis."""
    P = np.asarray(P, dtype=float)
    return DEFAULT_FD.base_step * np.maximum(1.0, np.abs(P))


def ktype_steps(F: KTypeVector, P: np.ndarray, picture: str) -> np.ndarray:
    """Steps adapted to the oscillation rate of a specific K-type.

    Balances the h^6 truncation term against roundoff for functions whose
    log-derivative is of order (2l + |k|)/rho + |s| rho.
    """
    P = np.asarray(P, dtype=float)
    n = F.params.n
    s_mag = abs(F.params.s)
    deg = 2 * F.l + abs(F.k)
    alpha = 0.05  # balances h^6 truncation against eps/h^2 roundoff
    out = np.empty_like(P)
    if picture == "compact":
        rho = np.sqrt((P[:, 1:] ** 2).sum(axis=1))
        omega_theta = abs(F.m) / 2 + 1.0
        omega_y = (deg + 4) / np.maximum(rho, 0.05) + 4 * s_mag * rho + 2.0
        out[:, 0] = alpha / omega_theta
        out[:, 1:] = (alpha / omega_y)[:, None]
    elif picture == "noncompact":
        t = P[:, 0]
        nx = np.sqrt((P[:, 1:] ** 2).sum(axis=1))
        rho = nx / np.sqrt(1 + t**2)
        omega_t = abs(F.m) / 2 + n + 2 * s_mag * np.maximum(nx, 1.0) ** 2 + deg * nx / (1 + t**2) + 2.0
        omega_x = (deg + 4) / np.maximum(rho, 0.05) + 4 * s_mag * np.maximum(nx, 1.0) + 2.0
        out[:, 0] = alpha / omega_t
        out[:, 1:] = (alpha / omega_x)[:, None]
    else:
        raise ValueError(f"unknown picture {picture!r}")
    return np.clip(out, DEFAULT_FD.min_step, DEFAULT_FD.base_step * 10)


# ---------------------------------------------------------------------------
# operator specifications and their finite-difference application
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorSpec:
    """A first- or second-order operator in one of the two pictures.

    Build through the factory classmethods so kind-specific parameters are
    arity-checked.  Coordinates j are 1-based.
    """

    kind: str
    n: int
    s: complex
    j: int = 0
    sl2_coeffs: tuple[complex, complex, complex] = (0, 0, 0)
    heis_coeffs: tuple = ()
    lam: complex = 0.0

    @classmethod
    def identity(cls, params: ParameterSet) -> "OperatorSpec":
        """f itself: f(P) from the same table as the other operators."""
        return cls("identity", params.n, params.s)

    @classmethod
    def kappa(cls, params: ParameterSet) -> "OperatorSpec":
        return cls("kappa", params.n, params.s)

    @classmethod
    def eta(cls, params: ParameterSet, sign: int) -> "OperatorSpec":
        return cls("eta_plus" if sign > 0 else "eta_minus", params.n, params.s)

    @classmethod
    def omega(cls, params: ParameterSet) -> "OperatorSpec":
        return cls("omega", params.n, params.s)

    @classmethod
    def heisenberg_ladder(cls, params: ParameterSet, j: int, sign: int) -> "OperatorSpec":
        if not 1 <= j <= params.n:
            raise ValueError(f"coordinate j = {j} out of range 1..{params.n}")
        return cls("e_plus" if sign > 0 else "e_minus", params.n, params.s, j=j)

    @classmethod
    def sl2(cls, params: ParameterSet, alpha, beta, gamma) -> "OperatorSpec":
        return cls(
            "sl2", params.n, params.s, sl2_coeffs=(complex(alpha), complex(beta), complex(gamma))
        )

    @classmethod
    def heisenberg(cls, params: ParameterSet, u: Sequence, v: Sequence, w) -> "OperatorSpec":
        u = tuple(complex(c) for c in u)
        v = tuple(complex(c) for c in v)
        if len(u) != params.n or len(v) != params.n:
            raise ValueError("u and v must have length n")
        return cls("heisenberg", params.n, params.s, heis_coeffs=(u, v, complex(w)))

    @classmethod
    def pde(cls, params: ParameterSet, lam) -> "OperatorSpec":
        return cls("pde", params.n, params.s, lam=complex(lam))


def _differentiated_axes(spec: OperatorSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The axes ``spec`` differentiates once and twice."""
    kind = spec.kind
    space = tuple(range(1, 1 + spec.n))
    if kind == "identity":
        return (), ()
    if kind == "kappa":
        return (0,), ()
    if kind in ("eta_plus", "eta_minus", "sl2"):
        return space + (0,), ()
    if kind in ("e_plus", "e_minus"):
        return (spec.j,), ()  # 1-based j is the column index in P
    if kind in ("omega", "pde"):
        return (0,), space
    if kind == "heisenberg":
        u, v, _ = spec.heis_coeffs
        return tuple(1 + j for j in range(spec.n) if u[j] != 0 or v[j] != 0), ()
    raise ValueError(f"unknown operator kind {kind!r}")


def _assemble(spec: OperatorSpec, P: np.ndarray, f0, d1, d2) -> np.ndarray:
    """The operator's value at the rows of P from f(P) and the partials."""
    kind = spec.kind
    if kind == "identity":
        return f0
    n, s = spec.n, spec.s
    t, x = P[:, 0], P[:, 1:]
    rho2 = (x**2).sum(axis=1)
    space = range(1, 1 + n)
    if kind == "kappa":
        return 1j * d1[0]
    if kind in ("eta_plus", "eta_minus"):
        sign = 1 if kind == "eta_plus" else -1
        euler = sum(x[:, j - 1] * d1[j] for j in space)
        return 0.5 * np.exp(-sign * 2j * t) * (
            -euler - sign * 1j * d1[0] - (n / 2 + sign * 2j * s * rho2) * f0
        )
    if kind in ("e_plus", "e_minus"):
        sign = 1 if kind == "e_plus" else -1
        return np.exp(-sign * 1j * t) * (sign * 1j * d1[spec.j] - 2 * s * x[:, spec.j - 1] * f0)
    if kind == "omega":
        return rho2 * (4 * s * d1[0] + 4 * s**2 * rho2 * f0 + sum(d2[j] for j in space))
    if kind == "sl2":
        alpha, beta, gamma = spec.sl2_coeffs
        r = -n / 2
        euler = sum(x[:, j - 1] * d1[j] for j in space)
        return (
            (gamma * t - alpha) * euler
            + (gamma * t**2 - 2 * alpha * t - beta) * d1[0]
            + (r * alpha - gamma * s * rho2 - r * gamma * t) * f0
        )
    if kind == "heisenberg":
        u, v, w = spec.heis_coeffs
        out = s * (w - 2 * (np.asarray(v)[None, :] * x).sum(axis=1)) * f0
        for ax in _differentiated_axes(spec)[0]:
            out += (-u[ax - 1] + t * v[ax - 1]) * d1[ax]
        return out
    return 4 * s * d1[0] + sum(d2[j] for j in space) - 2 * spec.lam / rho2 * f0


def fd_apply(
    spec: OperatorSpec | Sequence[OperatorSpec],
    f: SpaceTimeFunction,
    P: np.ndarray,
    steps: np.ndarray | None = None,
) -> np.ndarray:
    """Apply one operator, or each of a sequence of operators, to f at the
    rows of P by central differences.

    P has shape (N, 1+n) with theta or t in column 0; a single point of
    shape (1+n,) is also accepted.  ``steps`` overrides the default
    per-point, per-axis step array.  One operator gives N values, a sequence
    gives a (len, N) array.  Either way f is evaluated in one ``f.batch``
    call: P first, then one ``_FIRST_OFFSETS`` block of displaced copies of
    P per axis that any of the operators differentiates.
    """
    specs = [spec] if isinstance(spec, OperatorSpec) else list(spec)
    P = np.asarray(P, dtype=float)
    single = P.ndim == 1
    if single:
        P = P[None, :]
    if any(P.shape[1] != 1 + sp.n for sp in specs):
        raise ValueError(f"points must have {1 + specs[0].n} columns")
    h = default_steps(P) if steps is None else np.broadcast_to(steps, P.shape)
    axes = [_differentiated_axes(sp) for sp in specs]
    if any(sp.kind == "pde" for sp in specs):
        if np.any(np.sqrt((P[:, 1:] ** 2).sum(axis=1)) < 10 * np.max(h[:, 1:], axis=1)):
            raise SingularityError("point too close to x = 0 for the potential term")
    first = tuple(dict.fromkeys(a for a1, _ in axes for a in a1))
    second = tuple(dict.fromkeys(a for _, a2 in axes for a in a2))
    f0, d1, d2 = _partials(f, P, h, first, second)
    out = np.array([_assemble(sp, P, f0, d1, d2) for sp in specs])
    if single:
        out = out[:, 0]
    return out[0] if isinstance(spec, OperatorSpec) else out


# ---------------------------------------------------------------------------
# closed-form ladder actions
# ---------------------------------------------------------------------------


def apply_kappa(F: KTypeVector) -> LinearCombination:
    """kappa . F = (m/2) F, exactly."""
    coeff = Fraction(F.m, 2)
    return LinearCombination([(complex(coeff), F)])


def eta_index_coefficient(n: int, m: int, l: int, k: int, sign: int) -> Fraction:
    """Exact eta^{+-} coefficient -((sign m) + 4l + 2k + n)/4 on the index (m, l, k)."""
    return Fraction(-_e_table_terms(n, m, l, k, sign)[2], 4)


def eta_coefficient(F: KTypeVector, sign: int) -> Fraction:
    """Exact ladder coefficient -((sign m) + 4l + 2k + n)/4 of F."""
    return eta_index_coefficient(F.params.n, F.m, F.l, F.k, sign)


def apply_eta(F: KTypeVector, sign: int) -> LinearCombination:
    """eta^{+-} . F_{m,l,k} = -((+-m)+4l+2k+n)/4 * F_{m+-4,l,k}.

    The combination is empty exactly at the killed boundary weights
    m = -(2k+4l+n) for eta^+ and m = 2k+4l+n for eta^-.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeff = eta_coefficient(F, sign)
    if coeff == 0:
        return LinearCombination()
    target = make_ktype(F.params, F.m + 4 * sign, F.l, F.k, F.h)
    return LinearCombination([(complex(coeff), target)])


@dataclass(frozen=True)
class ECoefficients:
    """The rational parts of the four E_j^{+-} coefficients, one per
    ``E_MOVES`` label, in the scaled direction normalization."""

    down_up: Fraction
    same_up: Fraction
    same_down: Fraction
    up_down: Fraction

    def as_complex(self, s: complex) -> dict[str, complex]:
        """Label -> unit times rational part."""
        return {label: u * complex(getattr(self, label)) for label, u in _e_units(s).items()}


def _e_table_terms(n: int, m: int, l: int, k: int, sign: int) -> tuple[Fraction, int, int]:
    """(B, edge, ladder) of the E table: B = k + 2l + n/2, edge = 2l + 2k + n - 2
    and ladder = (sign m) + 2k + 4l + n."""
    B = Fraction(2 * l + k) + Fraction(n, 2)
    return B, 2 * l + 2 * k + n - 2, sign * m + 2 * k + 4 * l + n


def shipped_E_coefficients(n: int, m: int, l: int, k: int, sign: int) -> ECoefficients:
    """Oracle-confirmed E_j^{+-} coefficients."""
    B, edge, ladder = _e_table_terms(n, m, l, k, sign)
    if (l, k, n) == (0, 0, 2):
        # degenerate point of the generic formula (edge = B - 1 = 0): only
        # the (l, k+1) move survives, with coefficient -s * ladder
        return ECoefficients(
            down_up=Fraction(0),
            same_up=-Fraction(ladder),
            same_down=Fraction(0),
            up_down=Fraction(0),
        )
    return ECoefficients(
        down_up=Fraction(sign * 2 * l),
        same_up=-Fraction(edge * ladder, 2) / (B * (B - 1)),
        same_down=Fraction(sign * edge),
        up_down=-Fraction(l * ladder) / (B * (B - 1)),
    )


def printed_E_coefficients(n: int, m: int, l: int, k: int, sign: int) -> ECoefficients:
    """The published coefficient table, rescaled to the same directions.

    For the raising operator it coincides with ``shipped_E_coefficients``;
    for the lowering operator the (l, k+1) and (l+1, k-1) entries differ
    (they descend from a misprinted contiguous relation).
    """
    if sign > 0 or (l, k, n) == (0, 0, 2):
        return shipped_E_coefficients(n, m, l, k, sign)
    B, edge, ladder = _e_table_terms(n, m, l, k, sign)
    return ECoefficients(
        down_up=Fraction(-2 * l),
        same_up=Fraction(edge * ladder, 2) / (B - 1),
        same_down=Fraction(-edge),
        up_down=-Fraction(l * ladder, 2) / (B - 1),
    )


def _e_directions(F: KTypeVector, j: int) -> list[tuple[str, int, int, HarmonicPolynomial]]:
    """Candidate (label, l', k', harmonic) targets of E_j^{+-} on F.

    Moves with k' = k+1 carry h_plus, those with k' = k-1 carry c_{k,n} d_j h.
    Targets with l' < 0 and zero harmonic parts (they carry no function) are
    dropped.  j is 1-based.
    """
    if not 1 <= j <= F.params.n:
        raise ValueError(f"coordinate j = {j} out of range 1..{F.params.n}")
    if F.k < 0:
        raise NotImplementedError("Heisenberg ladder on signed k < 0 is not supported")
    h_plus, c = decompose_yj(F.h, j - 1)
    harmonic = {
        +1: None if h_plus.is_zero() else h_plus,
        -1: scaled_partial_harmonic(F.h, j - 1, c),
    }
    return [
        (label, F.l + dl, F.k + dk, harmonic[dk])
        for label, (dl, dk, _) in E_MOVES.items()
        if F.l + dl >= 0 and harmonic[dk] is not None
    ]


def apply_E(F: KTypeVector, j: int, sign: int) -> LinearCombination:
    """Closed-form E_j^{+-} . F as a combination of at most four K-types.

    Coefficients are the oracle-confirmed ones; terms whose coefficient or
    harmonic part vanishes are dropped (l = 0 kills the l-changing terms).
    """
    values = shipped_E_coefficients(F.params.n, F.m, F.l, F.k, sign).as_complex(F.params.s)
    terms = []
    for label, l2, k2, harm in _e_directions(F, j):
        coeff = values[label]
        if coeff == 0:
            continue
        target = make_ktype(F.params, F.m + 2 * sign, l2, k2, harm)
        terms.append((coeff, target))
    return LinearCombination(terms)


def heisenberg_direction_vectors(
    F: KTypeVector, j: int, sign: int
) -> list[tuple[str, KTypeVector]]:
    """The labeled candidate K-types E_j^{+-} can map F to (unit coefficients)."""
    return [
        (label, make_ktype(F.params, F.m + 2 * sign, l2, k2, harm))
        for label, l2, k2, harm in _e_directions(F, j)
    ]


# ---------------------------------------------------------------------------
# least-squares oracle for the E coefficients
# ---------------------------------------------------------------------------


@dataclass
class ERecovery:
    """Result of projecting fd(E_j . F) onto the candidate directions."""

    index: tuple[int, int, int]
    j: int
    sign: int
    points: int
    lsq_residual: float
    recovered: dict[str, complex]
    shipped: dict[str, complex]
    printed: dict[str, complex]
    rationals: dict[str, Fraction]
    rational_errors: dict[str, float]
    denominator_bound: int
    matches_shipped: bool
    matches_printed: bool

    def to_json(self) -> dict:
        def cpair(z: complex):
            return [z.real, z.imag]

        return {
            "operator": f"E{'+' if self.sign > 0 else '-'}_{self.j}",
            "index": list(self.index),
            "points": self.points,
            "max_residual": self.lsq_residual,
            "recovered_coefficients": {k: cpair(v) for k, v in self.recovered.items()},
            "shipped_coefficients": {k: cpair(v) for k, v in self.shipped.items()},
            "paper_coefficients": {k: cpair(v) for k, v in self.printed.items()},
            "rational_parts": {
                k: [v.numerator, v.denominator] for k, v in self.rationals.items()
            },
            "denominator_bound": self.denominator_bound,
            "match": self.matches_printed,
        }


def recover_E_coefficients(F: KTypeVector, points: np.ndarray) -> dict[tuple[int, int], ERecovery]:
    """Least-squares projections of the finite-difference E_j^{+-}
    applications, keyed by (j, sign) for j = 1..n and sign = +1, -1.

    One ``fd_apply`` call gives f and every E_j^{+-} at the compact-picture
    points.  Each fit solves min ||A c - rhs|| over its candidate directions,
    then rationalizes each coefficient against its ``E_MOVES`` unit (i or s).
    """
    P = np.asarray(points, dtype=float)
    keys = [(j, sign) for j in range(1, F.params.n + 1) for sign in (1, -1)]
    specs = [OperatorSpec.identity(F.params)]
    specs += [OperatorSpec.heisenberg_ladder(F.params, j, sign) for j, sign in keys]
    f0, *rows = fd_apply(specs, F.compact_function(), P, ktype_steps(F, P, "compact"))
    scale_f = max(1.0, float(np.max(np.abs(f0))))
    s = F.params.s
    n = F.params.n
    units = _e_units(s)
    recoveries = {}
    for (j, sign), rhs in zip(keys, rows):
        dirs = heisenberg_direction_vectors(F, j, sign)
        A = np.stack([vec.eval_compact(P[:, 0], P[:, 1:]) for _, vec in dirs], axis=1)
        if np.linalg.norm(rhs) <= 1e-9 * scale_f * np.sqrt(P.shape[0]):
            # the operator annihilates F: the projection target is pure noise
            coeffs = np.zeros(len(dirs), dtype=complex)
            resid = float(np.max(np.abs(rhs)) / scale_f)
        else:
            coeffs, *_ = np.linalg.lstsq(A, rhs, rcond=None)
            resid = np.linalg.norm(A @ coeffs - rhs) / np.linalg.norm(rhs)

        shipped_values = shipped_E_coefficients(n, F.m, F.l, F.k, sign).as_complex(s)
        printed_values = printed_E_coefficients(n, F.m, F.l, F.k, sign).as_complex(s)

        B, _, _ = _e_table_terms(n, F.m, F.l, F.k, sign)
        bound_frac = 4 * B * (B - 1)
        denominator_bound = max(1, abs(bound_frac.numerator))

        recovered: dict[str, complex] = {}
        shipped: dict[str, complex] = {}
        printed: dict[str, complex] = {}
        rationals: dict[str, Fraction] = {}
        rational_errors: dict[str, float] = {}
        ok_shipped = True
        ok_printed = True
        for (label, _), c in zip(dirs, coeffs):
            c = complex(c)
            recovered[label] = c
            ship = shipped[label] = shipped_values[label]
            prin = printed[label] = printed_values[label]
            if abs(c - ship) > DEFAULT_TOLERANCES.coeff_match * max(1.0, abs(ship)):
                ok_shipped = False
            if abs(c - prin) > DEFAULT_TOLERANCES.coeff_match * max(1.0, abs(prin)):
                ok_printed = False
            ratio = c / units[label]
            frac = Fraction(ratio.real).limit_denominator(denominator_bound)
            rationals[label] = frac
            rational_errors[label] = abs(ratio - complex(frac))
        recoveries[j, sign] = ERecovery(
            index=(F.m, F.l, F.k),
            j=j,
            sign=sign,
            points=P.shape[0],
            lsq_residual=float(resid),
            recovered=recovered,
            shipped=shipped,
            printed=printed,
            rationals=rationals,
            rational_errors=rational_errors,
            denominator_bound=denominator_bound,
            matches_shipped=ok_shipped,
            matches_printed=ok_printed,
        )
    return recoveries


# ---------------------------------------------------------------------------
# integrated group actions in the non-compact picture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """A supported group element: one-parameter SL2 families, Heisenberg
    elements, or orthogonal matrices."""

    kind: str
    matrix: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 1.0)
    v1: tuple = ()
    v2: tuple = ()
    w: float = 0.0
    rotation: tuple = ()

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls("sl2")

    @classmethod
    def sl2_diag(cls, tau: float) -> "GroupElement":
        return cls("sl2", matrix=(float(np.exp(tau)), 0.0, 0.0, float(np.exp(-tau))))

    @classmethod
    def sl2_upper(cls, tau: float) -> "GroupElement":
        return cls("sl2", matrix=(1.0, float(tau), 0.0, 1.0))

    @classmethod
    def sl2_lower(cls, tau: float) -> "GroupElement":
        return cls("sl2", matrix=(1.0, 0.0, float(tau), 1.0))

    @classmethod
    def heisenberg(cls, v1: Sequence[float], v2: Sequence[float], w: float) -> "GroupElement":
        return cls("heisenberg", v1=tuple(float(a) for a in v1), v2=tuple(float(a) for a in v2), w=float(w))

    @classmethod
    def orthogonal(cls, u: np.ndarray) -> "GroupElement":
        u = np.asarray(u, dtype=float)
        if not np.allclose(u @ u.T, np.eye(u.shape[0]), atol=1e-12):
            raise ValueError("matrix is not orthogonal")
        return cls("orthogonal", rotation=tuple(map(tuple, u)))


def _group_map(g: GroupElement, n: int, s: complex) -> Callable:
    """pts -> (the points f is evaluated at, the multiplier of f there) for g . f."""
    if g.kind == "sl2":
        a, b, c, d = g.matrix
        r = -n / 2

        def point_map(pts: np.ndarray):
            t = pts[:, 0]
            x = pts[:, 1:]
            w = a - c * t
            if np.any(w <= 0):
                raise ValueError("a - ct <= 0: outside the principal-branch domain")
            nx2 = (x**2).sum(axis=1)
            inner = np.concatenate([((d * t - b) / w)[:, None], x / w[:, None]], axis=1)
            return inner, w**r * np.exp(-s * c * nx2 / w)

        return point_map
    if g.kind == "heisenberg":
        v1 = np.asarray(g.v1, dtype=float)
        v2 = np.asarray(g.v2, dtype=float)
        w0 = g.w
        if v1.shape != (n,) or v2.shape != (n,):
            raise ValueError("Heisenberg element dimension mismatch")

        def point_map(pts: np.ndarray):
            t = pts[:, 0]
            x = pts[:, 1:]
            shift = x - v1[None, :] + t[:, None] * v2[None, :]
            inner = np.concatenate([t[:, None], shift], axis=1)
            return inner, np.exp(s * (w0 - 2 * x @ v2 + v1 @ v2 - t * (v2 @ v2)))

        return point_map
    if g.kind == "orthogonal":
        u = np.asarray(g.rotation, dtype=float)
        return lambda pts: (np.concatenate([pts[:, :1], pts[:, 1:] @ u], axis=1), 1.0)
    raise ValueError(f"unknown group element kind {g.kind!r}")


def group_action_noncompact(g: GroupElement, f: SpaceTimeFunction, s: complex) -> SpaceTimeFunction:
    """Evaluator for g . f on its natural domain.

    SL2 elements use the flow that integrates the algebra action: prefactor
    (a-ct)^r e^{-sc|x|^2/(a-ct)} with r = -n/2, principal branch; evaluation
    requires a - ct > 0 (domain error otherwise).  Heisenberg elements act by

        e^{s(w - 2 v2.x + v1.v2 - t |v2|^2)} f(t, x - v1 + t v2)

    and orthogonal u by f(t, u^{-1} x).
    """
    point_map = _group_map(g, f.n, s)

    def batch(pts: np.ndarray) -> np.ndarray:
        inner, multiplier = point_map(np.asarray(pts, dtype=float))
        return multiplier * f.batch(inner)

    return SpaceTimeFunction(f.n, batch)


def group_parameter_derivative(
    family: Callable[[float], GroupElement],
    f: SpaceTimeFunction,
    P: np.ndarray,
    s: complex,
) -> np.ndarray:
    """d/dtau (family(tau) . f)(P) at tau = 0, 4th order plus Richardson;
    f is evaluated at the transformed points of all six flows in one batch."""
    P = np.asarray(P, dtype=float)
    h = DEFAULT_FD.group_step
    mapped = [_group_map(family(c * h), f.n, s)(P) for c in _FIRST_OFFSETS]
    vals = f.batch(np.concatenate([inner for inner, _ in mapped])).reshape(len(mapped), -1)
    return _first_richardson([m * v for (_, m), v in zip(mapped, vals)], h)
