"""Differential-operator actions in both pictures, closed-form ladders, and
an independent finite-difference oracle for every closed form.

Closed forms implemented here:

* kappa . F_{m,l,k} = (m/2) F_{m,l,k}
* eta^{+-} . F_{m,l,k} = -((+-m) + 4l + 2k + n)/4 * F_{m+-4,l,k}
* E_j^{+-} . F_{m,l,k} = a four-term combination over the indices
  (m+-2, l-1, k+1), (m+-2, l, k+1), (m+-2, l, k-1), (m+-2, l+1, k-1)

``E_MOVES`` is the single source of those four moves and of their units,
and ``e_targets`` of which of them stay in the index range; the closed
form, the least-squares oracle and ``structure`` (targets and ladder graph)
all read both.  An E table maps each ``E_MOVES`` label to its rational
part; ``e_values`` multiplies in the units.

The E coefficients shipped here are the oracle-confirmed ones (the source
statement and proof disagree internally; ``printed_E_coefficients`` keeps
the published table and ``recover_E_coefficients`` re-derives the truth by
least squares against the finite-difference application, so any mismatch is
reported rather than silently adopted).

The oracle has one stencil path: ``fd_apply`` evaluates a sequence of
operators (``OperatorSpec.identity`` is f itself) from one ``f.batch``, with
the steps the caller passes (``ktype_steps`` in every sweep).  Stacked
steps (``stacked_steps``, once per distinct |m|) apply it to every K-type
of a weight string at once, through ``ktypes.compact_function(*string)``
or ``ktypes.to_noncompact(*string)``; ``recover_E_coefficients`` fits a
whole string from one such call.  The stencils reach ``f.batch`` as a
``ktypes.Stencil``, a plan decided from the step tables before any point
is built, so each distinct stencil point is built and evaluated once.

Each operator and group element is one record whose factory holds its
whole definition: an ``OperatorSpec`` carries the axes it differentiates
and its formula, a ``GroupElement`` its point map.

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

from .admissibility import ParameterSet, boundary_weight, k_in_range
from .config import DEFAULT_FD, DEFAULT_TOLERANCES
from .ktypes import (
    KTypeVector,
    LinearCombination,
    SpaceTimeFunction,
    Stencil,
    compact_function,
    eval_compact_all,
    make_ktype,
)
from .polynomials import HarmonicPolynomial, decompose_yj, scaled_partial_harmonic


class SingularityError(ValueError):
    """Evaluation point too close to an excluded locus."""


# E_j^{+-} moves (l, k) by (delta l, delta k); its coefficient on that move is
# a rational times the unit, i or s.  The E tables are keyed by these labels.
E_MOVES: dict[str, tuple[int, int, str]] = {
    "down_up": (-1, +1, "i"),
    "same_up": (0, +1, "s"),
    "same_down": (0, -1, "i"),
    "up_down": (+1, -1, "s"),
}


def e_targets(n: int, l: int, k: int):
    """Yield (label, l', k') for each ``E_MOVES`` target of (l, k) with
    l' >= 0 and k' in range (``k_in_range``)."""
    for label, (dl, dk, _) in E_MOVES.items():
        l2, k2 = l + dl, k + dk
        if l2 >= 0 and k_in_range(n, k2):
            yield label, l2, k2


def _e_units(s: complex) -> dict[str, complex]:
    """Label -> the complex unit of that E_MOVES entry."""
    return {label: 1j if unit == "i" else s for label, (_, _, unit) in E_MOVES.items()}


def e_values(table: dict[str, Fraction], s: complex) -> dict[str, complex]:
    """Label -> unit times rational part of an E table."""
    return {label: u * complex(table[label]) for label, u in _e_units(s).items()}


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

    h holds a step per point and axis: the shape of P, or (V, *P.shape) for
    V K-types at the points P, which stacks their stencils in one batch and
    gives each result a leading K-type axis.  Per K-type the stencil is P,
    then one ``_FIRST_OFFSETS`` block per distinct axis of ``first`` and
    ``second``, in that order; an axis in both shares its block.

    f.batch receives the stencils as a ``Stencil`` plan, decided from the
    steps before any point is built: K-types of equal step tables share one
    index row, and the rows are P, then each axis block once where every
    distinct table has the same steps on that axis, and once per distinct
    table where not.
    """
    axes = tuple(dict.fromkeys((*first, *second)))
    K = len(_FIRST_OFFSETS)
    N, d = P.shape
    lead = h.shape[:-2]
    tables = h.reshape(-1, N, d)
    # steps are positive, so equal bytes are equal steps
    keys = [table.tobytes() for table in tables]
    distinct = list(dict.fromkeys(keys))
    table_of = np.array([distinct.index(key) for key in keys])
    tables = tables[[keys.index(key) for key in distinct]]
    shared = (tables == tables[0]).all(axis=(0, 1))
    offsets = np.array(_FIRST_OFFSETS)[:, None]
    rows = [P]
    size = N
    # the first row of each table's block of each axis
    starts = np.empty((len(tables), len(axes)), dtype=np.intp)
    for i, a in enumerate(axes):
        # the K * N displaced copies of P along a: once per distinct table,
        # or once for all when every table has the same steps on a
        own = tables[:1] if shared[a] else tables
        block = np.broadcast_to(P, (len(own), K, N, d)).copy()
        block[..., a] += offsets * own[:, None, :, a]
        starts[:, i] = size + K * N * np.arange(len(own))
        rows.append(block.reshape(-1, d))
        size += len(rows[-1])
    index = np.concatenate([
        np.broadcast_to(np.arange(N), (len(tables), N)),
        (starts[..., None] + np.arange(K * N)).reshape(len(tables), -1),
    ], axis=1)
    vals = f.batch(Stencil(np.concatenate(rows), index, table_of))
    vals = vals.reshape(*lead, 1 + K * len(axes), N)
    f0 = vals[..., 0, :]
    # (axis, offset, ..., point): the six displaced values of an axis lead
    blocks = np.moveaxis(vals[..., 1:, :].reshape(*lead, len(axes), K, N), (-3, -2), (0, 1))
    blocks = dict(zip(axes, blocks))
    d1 = {a: _first_richardson(blocks[a], h[..., a]) for a in first}
    d2 = {a: _second_richardson(f0, blocks[a], h[..., a]) for a in second}
    return f0, d1, d2


def ktype_steps(F: KTypeVector, P: np.ndarray, picture: str) -> np.ndarray:
    """Steps adapted to the oscillation rate of a specific K-type.

    Balances the h^6 truncation term against roundoff for functions whose
    log-derivative is of order (2l + k)/rho + |s| rho.  The steps depend on
    (l, k) only through 2l + k.  Only the theta/t column depends on m
    (through |m|); the space columns are the same for every K-type of equal
    2l + k, not only along one weight string, and K-types of equal |m| and
    2l + k have the same steps.
    """
    P = np.asarray(P, dtype=float)
    n = F.params.n
    s_mag = abs(F.params.s)
    deg = 2 * F.l + F.k
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


def stacked_steps(vectors: Sequence[KTypeVector], P: np.ndarray, picture: str) -> np.ndarray:
    """The ``ktype_steps`` of K-types of one parameter set, stacked to
    (V, *P.shape) for one ``fd_apply`` call.  The steps depend on a K-type
    only through |m| and 2l + k, so each distinct pair is computed once."""
    tables = {}
    for F in vectors:
        key = abs(F.m), 2 * F.l + F.k
        if key not in tables:
            tables[key] = ktype_steps(F, P, picture)
    return np.stack([tables[abs(F.m), 2 * F.l + F.k] for F in vectors])


# ---------------------------------------------------------------------------
# operator specifications and their finite-difference application
# ---------------------------------------------------------------------------


def _euler(x: np.ndarray, d1: dict) -> np.ndarray:
    """The Euler operator sum_j x_j d_j applied through the first partials."""
    return sum(x[:, j - 1] * d1[j] for j in range(1, 1 + x.shape[1]))


@dataclass(frozen=True)
class OperatorSpec:
    """A first- or second-order operator in one of the two pictures: the
    axes it differentiates once (``first``) and twice (``second``), and its
    ``formula``, which maps (theta or t, x, f, {axis: first partial},
    {axis: second partial}) at the rows of P to its values there.

    Each factory classmethod is the whole definition of its operator: it
    checks its arguments and closes the formula over n, s and them.  Axis 0
    is theta or t; coordinates j are 1-based, so axis j is x_j.  Only the
    PDE operator is ``singular_at_origin``: ``fd_apply`` refuses points
    whose stencils come near x = 0.
    """

    n: int
    first: tuple[int, ...]
    second: tuple[int, ...]
    formula: Callable[..., np.ndarray]
    singular_at_origin: bool = False

    @classmethod
    def identity(cls, params: ParameterSet) -> "OperatorSpec":
        """f itself: f(P) from the same table as the other operators."""
        return cls(params.n, (), (), lambda t, x, f0, d1, d2: f0)

    @classmethod
    def kappa(cls, params: ParameterSet) -> "OperatorSpec":
        return cls(params.n, (0,), (), lambda t, x, f0, d1, d2: 1j * d1[0])

    @classmethod
    def eta(cls, params: ParameterSet, sign: int) -> "OperatorSpec":
        n, s = params.n, params.s
        sign = 1 if sign > 0 else -1

        def formula(t, x, f0, d1, d2):
            rho2 = (x**2).sum(axis=1)
            return 0.5 * np.exp(-sign * 2j * t) * (
                -_euler(x, d1) - sign * 1j * d1[0] - (n / 2 + sign * 2j * s * rho2) * f0
            )

        return cls(n, tuple(range(1, 1 + n)) + (0,), (), formula)

    @classmethod
    def omega(cls, params: ParameterSet) -> "OperatorSpec":
        s = params.s
        space = tuple(range(1, 1 + params.n))

        def formula(t, x, f0, d1, d2):
            rho2 = (x**2).sum(axis=1)
            return rho2 * (4 * s * d1[0] + 4 * s**2 * rho2 * f0 + sum(d2[j] for j in space))

        return cls(params.n, (0,), space, formula)

    @classmethod
    def heisenberg_ladder(cls, params: ParameterSet, j: int, sign: int) -> "OperatorSpec":
        if not 1 <= j <= params.n:
            raise ValueError(f"coordinate j = {j} out of range 1..{params.n}")
        s = params.s
        sign = 1 if sign > 0 else -1

        def formula(t, x, f0, d1, d2):
            return np.exp(-sign * 1j * t) * (sign * 1j * d1[j] - 2 * s * x[:, j - 1] * f0)

        return cls(params.n, (j,), (), formula)

    @classmethod
    def sl2(cls, params: ParameterSet, alpha, beta, gamma) -> "OperatorSpec":
        n, s = params.n, params.s
        alpha, beta, gamma = complex(alpha), complex(beta), complex(gamma)
        r = -n / 2

        def formula(t, x, f0, d1, d2):
            rho2 = (x**2).sum(axis=1)
            return (
                (gamma * t - alpha) * _euler(x, d1)
                + (gamma * t**2 - 2 * alpha * t - beta) * d1[0]
                + (r * alpha - gamma * s * rho2 - r * gamma * t) * f0
            )

        return cls(n, tuple(range(1, 1 + n)) + (0,), (), formula)

    @classmethod
    def heisenberg(cls, params: ParameterSet, u: Sequence, v: Sequence, w) -> "OperatorSpec":
        u = tuple(complex(c) for c in u)
        v = tuple(complex(c) for c in v)
        w = complex(w)
        if len(u) != params.n or len(v) != params.n:
            raise ValueError("u and v must have length n")
        s = params.s
        axes = tuple(1 + j for j in range(params.n) if u[j] != 0 or v[j] != 0)

        def formula(t, x, f0, d1, d2):
            out = s * (w - 2 * (np.asarray(v)[None, :] * x).sum(axis=1)) * f0
            for ax in axes:
                out += (-u[ax - 1] + t * v[ax - 1]) * d1[ax]
            return out

        return cls(params.n, axes, (), formula)

    @classmethod
    def pde(cls, params: ParameterSet, lam) -> "OperatorSpec":
        s = params.s
        lam = complex(lam)
        space = tuple(range(1, 1 + params.n))

        def formula(t, x, f0, d1, d2):
            rho2 = (x**2).sum(axis=1)
            return 4 * s * d1[0] + sum(d2[j] for j in space) - 2 * lam / rho2 * f0

        return cls(params.n, (0,), space, formula, singular_at_origin=True)


def fd_apply(
    specs: Sequence[OperatorSpec], f: SpaceTimeFunction, P: np.ndarray, steps: np.ndarray
) -> np.ndarray:
    """Apply each of a sequence of operators to f at the rows of P by
    central differences.

    P has shape (N, 1+n) with theta or t in column 0, and ``steps`` has the
    shape of P: a step per point and axis.  Returns a (len(specs), N) array.
    f is evaluated in one ``f.batch`` call: P first, then one
    ``_FIRST_OFFSETS`` block of displaced copies of P per axis that any of
    the operators differentiates.

    Steps of shape (V, N, 1+n) apply the operators to V functions at once,
    such as the K-types of a weight string under ``to_noncompact``: f.batch
    then takes V such stencils in turn, one per step table, as one
    ``Stencil`` plan (see ``_partials``), and the result is
    (len(specs), V, N), row v bit for bit the table of step table v alone.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or any(P.shape[1] != 1 + sp.n for sp in specs):
        raise ValueError(f"points must be an (N, {1 + specs[0].n}) array")
    h = np.asarray(steps, dtype=float)
    if any(sp.singular_at_origin for sp in specs):
        if np.any(np.sqrt((P[:, 1:] ** 2).sum(axis=1)) < 10 * np.max(h[..., 1:], axis=-1)):
            raise SingularityError("point too close to x = 0 for the potential term")
    first = tuple(dict.fromkeys(a for sp in specs for a in sp.first))
    second = tuple(dict.fromkeys(a for sp in specs for a in sp.second))
    f0, d1, d2 = _partials(f, P, h, first, second)
    return np.array([sp.formula(P[:, 0], P[:, 1:], f0, d1, d2) for sp in specs])


# ---------------------------------------------------------------------------
# closed-form ladder actions
# ---------------------------------------------------------------------------


def apply_kappa(F: KTypeVector) -> LinearCombination:
    """kappa . F = (m/2) F, exactly."""
    coeff = Fraction(F.m, 2)
    return LinearCombination([(complex(coeff), F)])


def eta_coefficient(n: int, m: int, l: int, k: int, sign: int) -> Fraction:
    """Exact eta^{+-} coefficient -((sign m) + 4l + 2k + n)/4 on the index (m, l, k)."""
    return Fraction(-_e_table_terms(n, m, l, k, sign)[2], 4)


def apply_eta(F: KTypeVector, sign: int) -> LinearCombination:
    """eta^{+-} . F_{m,l,k} = -((+-m)+4l+2k+n)/4 * F_{m+-4,l,k}.

    The combination is empty exactly at the killed boundary weights
    m = -(2k+4l+n) for eta^+ and m = 2k+4l+n for eta^-.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    coeff = eta_coefficient(F.params.n, F.m, F.l, F.k, sign)
    if coeff == 0:
        return LinearCombination()
    target = make_ktype(F.params, F.m + 4 * sign, F.l, F.k, F.h)
    return LinearCombination([(complex(coeff), target)])


def _e_table_terms(n: int, m: int, l: int, k: int, sign: int) -> tuple[Fraction, int, int]:
    """(B, edge, ladder) of the E table: B = k + 2l + n/2 (half the boundary
    weight), edge = 2l + 2k + n - 2 and ladder = (sign m) + boundary weight."""
    boundary = boundary_weight(n, l, k)
    return Fraction(boundary, 2), 2 * l + 2 * k + n - 2, sign * m + boundary


def shipped_E_coefficients(n: int, m: int, l: int, k: int, sign: int) -> dict[str, Fraction]:
    """Oracle-confirmed E_j^{+-} coefficients: label -> rational part."""
    B, edge, ladder = _e_table_terms(n, m, l, k, sign)
    if (l, k, n) == (0, 0, 2):
        # degenerate point of the generic formula (edge = B - 1 = 0): only
        # the (l, k+1) move survives, with coefficient -s * ladder
        return {
            "down_up": Fraction(0),
            "same_up": -Fraction(ladder),
            "same_down": Fraction(0),
            "up_down": Fraction(0),
        }
    return {
        "down_up": Fraction(sign * 2 * l),
        "same_up": -Fraction(edge * ladder, 2) / (B * (B - 1)),
        "same_down": Fraction(sign * edge),
        "up_down": -Fraction(l * ladder) / (B * (B - 1)),
    }


def printed_E_coefficients(n: int, m: int, l: int, k: int, sign: int) -> dict[str, Fraction]:
    """The published coefficient table, rescaled to the same directions.

    For the raising operator it coincides with ``shipped_E_coefficients``;
    for the lowering operator the (l, k+1) and (l+1, k-1) entries differ
    (they descend from a misprinted contiguous relation).
    """
    if sign > 0 or (l, k, n) == (0, 0, 2):
        return shipped_E_coefficients(n, m, l, k, sign)
    B, edge, ladder = _e_table_terms(n, m, l, k, sign)
    return {
        "down_up": Fraction(-2 * l),
        "same_up": Fraction(edge * ladder, 2) / (B - 1),
        "same_down": Fraction(-edge),
        "up_down": -Fraction(l * ladder, 2) / (B - 1),
    }


def _e_directions(F: KTypeVector, j: int) -> list[tuple[str, int, int, HarmonicPolynomial]]:
    """(label, l', k', harmonic) of each ``e_targets`` move of E_j^{+-} on F
    whose harmonic part is non-zero (a zero one carries no function).

    Moves with k' = k+1 carry h_plus, those with k' = k-1 carry c_{k,n} d_j h.
    j is 1-based.
    """
    if not 1 <= j <= F.params.n:
        raise ValueError(f"coordinate j = {j} out of range 1..{F.params.n}")
    h_plus, c = decompose_yj(F.h, j - 1)
    harmonic = {
        F.k + 1: None if h_plus.is_zero() else h_plus,
        F.k - 1: scaled_partial_harmonic(F.h, j - 1, c),
    }
    return [
        (label, l2, k2, harmonic[k2])
        for label, l2, k2 in e_targets(F.params.n, F.l, F.k)
        if harmonic[k2] is not None
    ]


def apply_E(F: KTypeVector, j: int, sign: int) -> LinearCombination:
    """Closed-form E_j^{+-} . F as a combination of at most four K-types.

    Coefficients are the oracle-confirmed ones; terms whose coefficient or
    harmonic part vanishes are dropped (l = 0 kills the l-changing terms).
    """
    values = e_values(shipped_E_coefficients(F.params.n, F.m, F.l, F.k, sign), F.params.s)
    terms = []
    for label, l2, k2, harm in _e_directions(F, j):
        coeff = values[label]
        if coeff == 0:
            continue
        target = make_ktype(F.params, F.m + 2 * sign, l2, k2, harm)
        terms.append((coeff, target))
    return LinearCombination(terms)


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


def _matches(recovered: dict[str, complex], table: dict[str, complex]) -> bool:
    """Every recovered coefficient lies within ``coeff_match * max(1, |table
    value|)`` of its table value; a NaN coefficient does not."""
    tol = DEFAULT_TOLERANCES.coeff_match
    return all(
        abs(c - table[label]) <= tol * max(1.0, abs(table[label])) for label, c in recovered.items()
    )


def recover_E_coefficients(
    string: Sequence[KTypeVector], points: np.ndarray
) -> list[dict[tuple[int, int], ERecovery]]:
    """Least-squares projections of the finite-difference E_j^{+-}
    applications to each K-type of a weight string (fixed l, k and h, m
    stepping by 4; a single K-type F is the string [F]).  Returns one dict
    per K-type, keyed by (j, sign) for j = 1..n and sign = +1, -1.

    One ``fd_apply`` call over the string gives f and every E_j^{+-} of
    each K-type at the compact-picture points.  Each fit solves
    min ||A c - rhs|| over the ``_e_directions`` targets, then rationalizes
    each coefficient against its ``E_MOVES`` unit (i or s) with
    denominators up to 4 B (B-1), B = ``F.b``.
    """
    P = np.asarray(points, dtype=float)
    F0 = string[0]
    if any((F.l, F.k) != (F0.l, F0.k) or F.h is not F0.h for F in string):
        raise ValueError("recover_E_coefficients takes the K-types of one weight string")
    params, n, s = F0.params, F0.params.n, F0.params.s
    keys = [(j, sign) for j in range(1, n + 1) for sign in (1, -1)]
    specs = [OperatorSpec.identity(params)]
    specs += [OperatorSpec.heisenberg_ladder(params, j, sign) for j, sign in keys]
    table = fd_apply(specs, compact_function(*string), P, stacked_steps(string, P, "compact"))
    units = _e_units(s)
    denominator_bound = max(1, abs((4 * F0.b * (F0.b - 1)).numerator))
    # the directions depend on (l, k, h) only, so on the string.  Each
    # distinct column of the string's fits is evaluated once (E^+ F_m and
    # E^- F_{m+4} share theirs), all in one evaluation, where columns of
    # equal (a', b') share one 1F1 series pass
    directions = {j: _e_directions(F0, j) for j in range(1, n + 1)}
    columns = {
        (F.m + 2 * sign, l2, k2, id(harm)): (l2, k2, harm)
        for F in string
        for j, sign in keys
        for _, l2, k2, harm in directions[j]
    }
    vectors = [make_ktype(params, key[0], *column) for key, column in columns.items()]
    values = dict(zip(columns, eval_compact_all(vectors, P[:, 0], P[:, 1:])))
    out = []
    for F, f0, *rows in zip(string, *table):
        scale_f = max(1.0, float(np.max(np.abs(f0))))
        # the tables depend on the sign only, not on j
        tables = {
            sign: (
                e_values(shipped_E_coefficients(n, F.m, F.l, F.k, sign), s),
                e_values(printed_E_coefficients(n, F.m, F.l, F.k, sign), s),
            )
            for sign in (1, -1)
        }
        recoveries = {}
        for (j, sign), rhs in zip(keys, rows):
            dirs = directions[j]
            A = np.stack(
                [values[F.m + 2 * sign, l2, k2, id(harm)] for _, l2, k2, harm in dirs], axis=1
            )
            if np.linalg.norm(rhs) <= 1e-9 * scale_f * np.sqrt(P.shape[0]):
                # the operator annihilates F: the projection target is pure noise
                coeffs = np.zeros(len(dirs), dtype=complex)
                resid = float(np.max(np.abs(rhs)) / scale_f)
            else:
                coeffs, *_ = np.linalg.lstsq(A, rhs, rcond=None)
                resid = np.linalg.norm(A @ coeffs - rhs) / np.linalg.norm(rhs)

            recovered = {label: complex(c) for (label, *_), c in zip(dirs, coeffs)}
            shipped_values, printed_values = tables[sign]
            shipped = {label: shipped_values[label] for label in recovered}
            printed = {label: printed_values[label] for label in recovered}
            ratios = {label: c / units[label] for label, c in recovered.items()}
            rationals = {
                label: Fraction(ratio.real).limit_denominator(denominator_bound)
                for label, ratio in ratios.items()
            }
            rational_errors = {
                label: abs(ratio - complex(rationals[label])) for label, ratio in ratios.items()
            }
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
                matches_shipped=_matches(recovered, shipped),
                matches_printed=_matches(recovered, printed),
            )
        out.append(recoveries)
    return out


# ---------------------------------------------------------------------------
# integrated group actions in the non-compact picture
# ---------------------------------------------------------------------------


def _sl2_map(a: float, b: float, c: float, d: float) -> Callable:
    """The point map of the SL2 element [[a, b], [c, d]]."""

    def point_map(pts: np.ndarray, s: complex):
        t, x = pts[:, 0], pts[:, 1:]
        w = a - c * t
        if np.any(w <= 0):
            raise ValueError("a - ct <= 0: outside the principal-branch domain")
        r = -x.shape[1] / 2
        nx2 = (x**2).sum(axis=1)
        inner = np.concatenate([((d * t - b) / w)[:, None], x / w[:, None]], axis=1)
        return inner, w**r * np.exp(-s * c * nx2 / w)

    return point_map


@dataclass(frozen=True)
class GroupElement:
    """A supported group element (one-parameter SL2 families, Heisenberg
    elements, orthogonal matrices) as its ``point_map``: (N, 1+n) rows pts
    and s -> (the points where g . f evaluates f, the multiplier of f).  It
    raises ValueError on rows outside its domain or of the wrong width,
    before f is evaluated."""

    point_map: Callable[[np.ndarray, complex], tuple]

    @classmethod
    def sl2_diag(cls, tau: float) -> "GroupElement":
        return cls(_sl2_map(float(np.exp(tau)), 0.0, 0.0, float(np.exp(-tau))))

    @classmethod
    def sl2_upper(cls, tau: float) -> "GroupElement":
        return cls(_sl2_map(1.0, float(tau), 0.0, 1.0))

    @classmethod
    def sl2_lower(cls, tau: float) -> "GroupElement":
        return cls(_sl2_map(1.0, 0.0, float(tau), 1.0))

    @classmethod
    def heisenberg(cls, v1: Sequence[float], v2: Sequence[float], w: float) -> "GroupElement":
        v1 = np.array([float(a) for a in v1])
        v2 = np.array([float(a) for a in v2])
        w = float(w)

        def point_map(pts: np.ndarray, s: complex):
            t, x = pts[:, 0], pts[:, 1:]
            if v1.shape != (x.shape[1],) or v2.shape != (x.shape[1],):
                raise ValueError("Heisenberg element dimension mismatch")
            shift = x - v1[None, :] + t[:, None] * v2[None, :]
            inner = np.concatenate([t[:, None], shift], axis=1)
            return inner, np.exp(s * (w - 2 * x @ v2 + v1 @ v2 - t * (v2 @ v2)))

        return cls(point_map)

    @classmethod
    def orthogonal(cls, u: np.ndarray) -> "GroupElement":
        u = np.array(u, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError(f"an orthogonal matrix is square, got shape {u.shape}")
        if not np.allclose(u @ u.T, np.eye(u.shape[0]), atol=1e-12):
            raise ValueError("matrix is not orthogonal")
        return cls(lambda pts, s: (np.concatenate([pts[:, :1], pts[:, 1:] @ u], axis=1), 1.0))


def group_action_noncompact(g: GroupElement, f: SpaceTimeFunction, s: complex) -> SpaceTimeFunction:
    """Evaluator for g . f on its natural domain.

    SL2 elements use the flow that integrates the algebra action: prefactor
    (a-ct)^r e^{-sc|x|^2/(a-ct)} with r = -n/2, principal branch; evaluation
    requires a - ct > 0 (domain error otherwise).  Heisenberg elements act by

        e^{s(w - 2 v2.x + v1.v2 - t |v2|^2)} f(t, x - v1 + t v2)

    and orthogonal u by f(t, u^{-1} x).
    """
    def batch(pts: np.ndarray) -> np.ndarray:
        inner, multiplier = g.point_map(np.asarray(pts, dtype=float), s)
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
    mapped = [family(c * h).point_map(P, s) for c in _FIRST_OFFSETS]
    vals = f.batch(np.concatenate([inner for inner, _ in mapped])).reshape(len(mapped), -1)
    return _first_richardson([m * v for (_, m), v in zip(mapped, vals)], h)
