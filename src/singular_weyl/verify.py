"""Verification sweeps over the K-type lattice, producing machine-readable
reports.

Each sweep returns a list of check dicts with the schema

    {check, status: PASS|FAIL|WARN, max_residual, tolerance, ...detail}

and builds every PASS/FAIL record through ``_check``.

``run_verification`` assembles the full suite for one parameter set; the
expected coefficient differences against the published Heisenberg-ladder
table are reported as WARN, never FAIL, and so are the checks of a sweep
whose lattice holds no K-type.

Every sweep reads its bounds from ``config.DEFAULT_TOLERANCES`` when it
runs; none takes a tolerance or stencil parameter.

Every sweep takes its sizes, point count and ``seed`` from the caller; none
is defaulted.  ``seed`` is an int or a ``np.random.Generator``.  It goes
through ``np.random.default_rng``, which returns a Generator unchanged, so
callers can draw the sample points of several sweeps from one stream.

The contiguous sweep draws and screens its samples as arrays.  The
periodicity sweep evaluates each K-type once, taking F and its four
shifted copies from one stacked ``periodicity_residual`` batch.  The three
finite-difference sweeps (PDE kernel, ladder, Heisenberg) walk the lattice
by radial groups, its K-types of equal 2l + k (``_radial_groups``): one
``fd_apply`` call per group, with the steps of each distinct |m| computed
once (``stacked_steps``).  The steps, a and b of a K-type depend on (l, k)
only through 2l + k, so K-types of a group with equal |m| share their
stencil, and those of equal m their 1F1 series (see ``ktypes``); each
value keeps the bits it has for the K-type alone.  The ladder sweep reads
the kappa closed form off the identity row of the ``fd_apply`` table, and
evaluates the eta closed forms of a group at the sample points in one
``eval_combinations`` call, so a neighbour F_{m+4} that eta^+ F_m and
eta^- F_{m+8} share is summed once.  The Heisenberg sweep fits a group in
one ``recover_E_coefficients`` call, where the column that E^+ F_m and
E^- F_{m+4} share is evaluated once.
"""

from __future__ import annotations

import numpy as np

from .admissibility import ParameterSet, admissible_pairs, weight_residue
from .config import DEFAULT_TOLERANCES
from .hypergeometric import contiguous_residuals_scaled
from .ktypes import (
    compact_function,
    eval_combinations,
    make_ktype,
    periodicity_residual,
    to_noncompact,
)
from .operators import (
    GroupElement,
    OperatorSpec,
    apply_eta,
    apply_kappa,
    eta_coefficient,
    fd_apply,
    group_parameter_derivative,
    ktype_steps,
    recover_E_coefficients,
    stacked_steps,
)
from .polynomials import (
    Polynomial,
    decompose_yj,
    harmonic_basis,
    harmonic_dimension,
    harmonic_representative,
)
from .structure import heisenberg_targets, ktype_lattice


def _check(name: str, worst: float, tolerance: float, **detail) -> dict:
    """One check record: PASS when ``worst <= tolerance``, FAIL otherwise."""
    status = "PASS" if worst <= tolerance else "FAIL"
    return {
        "check": name, "max_residual": worst, "tolerance": tolerance, "status": status, **detail
    }


def _exact(name: str, ok: bool, **detail) -> dict:
    """A zero-tolerance check record for an exact yes/no property."""
    return _check(name, 0.0 if ok else 1.0, 0.0, **detail)


def _covered(ktypes: int, checks: list[dict]) -> list[dict]:
    """The records of a sweep over ``ktypes`` K-types, each turned into a
    WARN with a note when there were none: a PASS over nothing proves
    nothing.  A WARN keeps the report ok."""
    if not ktypes:
        for check in checks:
            check.update(
                status="WARN",
                note="the lattice up to lambda_max and m_max holds no K-type; nothing was checked",
            )
    return checks


def _sample_points(n: int, count: int, rng: np.random.Generator, r_min: float) -> np.ndarray:
    """Seeded (N, 1+n) samples: column 0 (theta or t) in [-1.2, 1.2], then a
    uniform direction of norm in [r_min, 2.0]."""
    if count < 1:
        raise ValueError(f"points must be positive, got {count}")
    t = rng.uniform(-1.2, 1.2, count)
    dirs = rng.normal(size=(count, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = rng.uniform(r_min, 2.0, count)
    return np.concatenate([t[:, None], r[:, None] * dirs], axis=1)


def _radial_groups(lattice: list) -> list[list]:
    """The radial groups of a lattice: its K-types of equal 2l + k, each
    group in lattice order and the groups in order of first appearance."""
    groups: dict[int, list] = {}
    for F in lattice:
        groups.setdefault(2 * F.l + F.k, []).append(F)
    return list(groups.values())


def _relative(diff: np.ndarray, f0: np.ndarray) -> float:
    """max |diff| / max(1, |f0|), with diff broadcasting against f0."""
    return float(np.max(np.abs(diff) / np.maximum(1.0, np.abs(f0))))


def sweep_contiguous(samples: int, seed: int | np.random.Generator) -> list[dict]:
    """Residuals of all seven contiguous relations on seeded random samples.

    a, b complex with |a|, |b| <= 20, b kept 0.1 away from {1, 0, -1, ...}
    (so every shifted denominator parameter stays valid), |z| <= 10.  Each
    round draws the missing samples as one array, as one at a time would.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    low = np.array([-20.0, -20.0, -20.0, -20.0, -10.0, -10.0])
    kept, need = [], samples
    while need:
        # rows (a, b, z) from (real, imag) pairs of draws; b off the poles 1, 0, ..., -24
        abz = (rng.uniform(low, -low, (need, 6)) / np.sqrt(2)).view(np.complex128)
        abz = abz[np.abs(abz[:, 1:2] - np.arange(1, -25, -1)).min(axis=1) >= 0.1]
        kept.append(abz)
        need -= len(abz)
    a, b, z = np.concatenate(kept).T
    checks = []
    for name, (res, scale) in contiguous_residuals_scaled(a, b, z).items():
        ratio = np.abs(res) / scale
        i = int(np.argmax(ratio))
        checks.append(_check(
            f"contiguous/{name}", float(ratio[i]), DEFAULT_TOLERANCES.contiguous,
            points=samples,
            worst_point=[[float(v.real), float(v.imag)] for v in (a[i], b[i], z[i])],
        ))
    return checks


def sweep_harmonicity(n_max: int, k_max: int) -> list[dict]:
    """Exact-arithmetic checks: harmonicity, dimensions, decomposition.

    Harmonicity is the exact proof that ``HarmonicPolynomial`` runs when
    ``harmonic_basis`` builds each element: a basis that fails it raises
    ``ValueError``, which fails the record and skips that (n, k).
    """
    ok_harm = True
    ok_dim = True
    ok_split = True
    for n in range(1, n_max + 1):
        for k in range(0, k_max + 1):
            try:
                basis = harmonic_basis(n, k)
            except ValueError:
                ok_harm = False
                continue
            if len(basis) != harmonic_dimension(n, k):
                ok_dim = False
            rho2 = Polynomial.radius_squared(n)
            for h in basis:
                for j in range(n):
                    h_plus, c = decompose_yj(h, j)
                    lhs = Polynomial.variable(n, j) * h.poly
                    rhs = h_plus.poly + rho2.scale(c) * h.poly.partial(j)
                    if lhs != rhs:
                        ok_split = False
    return [
        _exact("harmonic/laplacian-kernel", ok_harm),
        _exact("harmonic/dimension-formula", ok_dim),
        _exact("harmonic/yj-decomposition", ok_split),
    ]


def sweep_periodicity(
    params: ParameterSet, lam_max, m_max: int, points: int, seed: int | np.random.Generator
) -> list[dict]:
    """Compact-picture periodicity for every constructed K-type, j in 1..4."""
    rng = np.random.default_rng(seed)
    lattice = ktype_lattice(params, lam_max, m_max, include_zero_family=True)
    P = _sample_points(params.n, points, rng, r_min=0.2)
    worst = 0.0
    for F in lattice:
        res, f0 = periodicity_residual(F, P[:, 0], P[:, 1:])
        worst = max(worst, _relative(res, f0))
    tol = DEFAULT_TOLERANCES
    return _covered(len(lattice), [
        _check("ktypes/periodicity", worst, tol.periodicity, ktypes=len(lattice), points=points)
    ])


def sweep_pde_kernel(
    params: ParameterSet, lam_max, m_max: int, points: int, seed: int | np.random.Generator
) -> list[dict]:
    """Non-compact PDE residual of every lattice K-type at seeded points.

    One ``fd_apply`` call per radial group (see ``_radial_groups``), with
    one PDE row per distinct eigenvalue of the group; each K-type reads the
    row of its own ``F.lam``, and the group's residuals are one (V, N)
    reduction.  The worst is taken in lattice order, so ``worst_index`` is
    the first K-type of largest residual.
    """
    rng = np.random.default_rng(seed)
    lattice = ktype_lattice(params, lam_max, m_max)
    P = _sample_points(params.n, points, rng, r_min=0.3)
    residuals = {}
    for group in _radial_groups(lattice):
        lams = [F.lam for F in group]
        rows = list(dict.fromkeys(lams))
        specs = [OperatorSpec.identity(params)]
        specs += [OperatorSpec.pde(params, float(lam)) for lam in rows]
        steps = stacked_steps(group, P, "noncompact")
        f0, *pdes = fd_apply(specs, to_noncompact(*group), P, steps)
        # each K-type's own PDE row, (V, N), reduced as _relative reduces one
        own = np.stack(pdes)[[rows.index(lam) for lam in lams], np.arange(len(group))]
        worst_of = np.max(np.abs(own) / np.maximum(1.0, np.abs(f0)), axis=1)
        residuals.update(zip(map(id, group), worst_of.tolist()))
    worst = 0.0
    worst_index = None
    for F in lattice:
        if residuals[id(F)] > worst:
            worst, worst_index = residuals[id(F)], (F.m, F.l, F.k)
    return _covered(len(lattice), [
        _check(
            "operators/pde-kernel", worst, DEFAULT_TOLERANCES.pde_residual,
            ktypes=len(lattice),
            points=points,
            worst_index=list(worst_index) if worst_index else None,
        )
    ])


def sweep_ladder(
    params: ParameterSet, lam_max, m_max: int, points: int, seed: int | np.random.Generator
) -> list[dict]:
    """kappa and eta closed forms against the finite-difference oracle.

    One ``fd_apply`` call per radial group (see ``_radial_groups``).  The
    kappa closed form scales the identity row of the table.  The eta closed
    forms c F_{m+-4} of a group are evaluated at the sample points in one
    ``eval_combinations`` call, not read off the neighbours' identity rows:
    those come from one 1F1 batch with the stencil points, whose batch-wide
    stop can give them other last bits.

    Also asserts the exact boundary kills: the eta coefficient vanishes if
    and only if m is at the corresponding boundary weight +-(2k+4l+n).
    """
    rng = np.random.default_rng(seed)
    lattice = ktype_lattice(params, lam_max, m_max, include_zero_family=True)
    P = _sample_points(params.n, points, rng, r_min=0.2)
    worst = 0.0
    kills_ok = True
    specs = [OperatorSpec.identity(params), OperatorSpec.kappa(params)]
    specs += [OperatorSpec.eta(params, sign) for sign in (1, -1)]
    for group in _radial_groups(lattice):
        table = fd_apply(specs, compact_function(*group), P, stacked_steps(group, P, "compact"))
        etas = [(apply_eta(F, 1), apply_eta(F, -1)) for F in group]
        eta_values = iter(eval_combinations([c for pair in etas for c in pair], P[:, 0], P[:, 1:]))
        for F, pair, f0, *oracles in zip(group, etas, *table):
            # kappa . F is a multiple of F, so its closed form scales the identity row
            closed = [apply_kappa(F).coefficient(F.m, F.l, F.k) * f0]
            closed += [next(eta_values) for _ in pair]
            for value, oracle in zip(closed, oracles):
                worst = max(worst, _relative(value - oracle, f0))
            for sign, combo in zip((1, -1), pair):
                killed = eta_coefficient(params.n, F.m, F.l, F.k, sign) == 0
                at_boundary = F.is_highest_weight if sign > 0 else F.is_lowest_weight
                if killed != at_boundary or killed != combo.is_empty():
                    kills_ok = False
    return _covered(len(lattice), [
        _check(
            "operators/ladder-closed-form", worst, DEFAULT_TOLERANCES.ladder_match,
            ktypes=len(lattice), points=points,
        ),
        _exact("operators/eta-boundary-kills", kills_ok),
    ])


def sweep_heisenberg(
    params: ParameterSet, lam_max, m_max: int, points: int, seed: int | np.random.Generator
) -> list[dict]:
    """Least-squares recovery of the E_j coefficients, with the WARN diff
    against the published table and the eigenvalue-shift bookkeeping.

    One ``recover_E_coefficients`` call per radial group (see
    ``_radial_groups``); the recoveries are reduced in lattice order.  The
    shifts depend on (l, k) only, so they are checked once per distinct
    pair."""
    rng = np.random.default_rng(seed)
    lattice = ktype_lattice(params, lam_max, m_max)
    P = _sample_points(params.n, points, rng, r_min=0.2)
    worst_lsq = 0.0
    worst_rational = 0.0
    shipped_ok = True
    printed_diffs = 0
    recoveries = 0
    shift_ok = True
    details = []
    for F in {(F.l, F.k): F for F in lattice}.values():
        edge = 2 * F.l + 2 * F.k + params.n - 2
        for l2, _, lam2 in heisenberg_targets(params.n, F.l, F.k):
            shift = lam2 - F.lam
            if abs(l2 - F.l) == 1:
                if abs(shift) != edge:
                    shift_ok = False
            elif shift != 0 and abs(shift) != 2 * F.l:
                shift_ok = False
    fits = {}
    for group in _radial_groups(lattice):
        fits.update(zip(map(id, group), recover_E_coefficients(group, P)))
    for F in lattice:
        for rec in fits[id(F)].values():
            recoveries += 1
            worst_lsq = max(worst_lsq, rec.lsq_residual)
            worst_rational = max(worst_rational, max(rec.rational_errors.values(), default=0.0))
            if not rec.matches_shipped:
                shipped_ok = False
                details.append(rec.to_json())
            if not rec.matches_printed:
                printed_diffs += 1
    tol = DEFAULT_TOLERANCES
    checks = _covered(len(lattice), [
        _check(
            "operators/heisenberg-lsq", worst_lsq, tol.lsq_residual,
            recoveries=recoveries, points=points,
        ),
        _check("operators/heisenberg-rational-coefficients", worst_rational, tol.coeff_match),
        _exact("operators/heisenberg-shipped-match", shipped_ok, failures=details),
        _exact("operators/eigenvalue-shifts", shift_ok),
    ])
    if printed_diffs:
        checks.append(
            {
                "check": "operators/printed-coefficient-diff",
                "count": printed_diffs,
                "max_residual": 0.0,
                "tolerance": 0.0,
                "status": "WARN",
                "note": (
                    "recovered lowering-operator coefficients differ from the "
                    "published table on the (l,k+1) and (l+1,k-1) entries; "
                    "expected and documented"
                ),
            }
        )
    return checks


def sweep_group_algebra(
    params: ParameterSet, points: int, seed: int | np.random.Generator
) -> list[dict]:
    """Derivative at identity of each one-parameter flow vs the algebra action."""
    rng = np.random.default_rng(seed)
    n = params.n
    # lambda = n is the smallest admissible eigenvalue for every n
    l, k = admissible_pairs(n, n)[0]
    m = weight_residue(params, k)
    F = make_ktype(params, m, l, k, harmonic_representative(n, k))
    f = to_noncompact(F)
    P = _sample_points(n, points, rng, r_min=0.3)
    steps = ktype_steps(F, P, "noncompact")

    zero = np.zeros(n)
    heis = [(u, zero, 0.0) for u in np.eye(n)] + [(zero, v, 0.0) for v in np.eye(n)]
    flows = [
        (GroupElement.sl2_diag, OperatorSpec.sl2(params, 1, 0, 0)),
        (GroupElement.sl2_upper, OperatorSpec.sl2(params, 0, 1, 0)),
        (GroupElement.sl2_lower, OperatorSpec.sl2(params, 0, 0, 1)),
    ] + [
        (
            lambda tau, _u=u, _v=v, _w=w: GroupElement.heisenberg(tau * _u, tau * _v, tau * _w),
            OperatorSpec.heisenberg(params, u, v, w),
        )
        for u, v, w in heis + [(zero, zero, 1.0)]
    ]
    specs = [OperatorSpec.identity(params)] + [spec for _, spec in flows]
    f0, *algebra = fd_apply(specs, f, P, steps)
    worst = 0.0
    for (family, _), alg in zip(flows, algebra):
        flow = group_parameter_derivative(family, f, P, params.s)
        worst = max(worst, _relative(flow - alg, f0))

    # O(n) rotations: derivative of f(t, R(-tau) x) is (x_b d_a - x_a d_b) f,
    # and the Heisenberg row with u = e_a is -d_a f
    minus_d = algebra[3 : 3 + n]
    for a_ax in range(n):
        for b_ax in range(a_ax + 1, n):
            def rot(tau, _a=a_ax, _b=b_ax):
                R = np.eye(n)
                R[_a, _a] = R[_b, _b] = np.cos(tau)
                R[_a, _b] = -np.sin(tau)
                R[_b, _a] = np.sin(tau)
                return GroupElement.orthogonal(R)

            flow = group_parameter_derivative(rot, f, P, params.s)
            alg = P[:, 1 + a_ax] * minus_d[b_ax] - P[:, 1 + b_ax] * minus_d[a_ax]
            worst = max(worst, _relative(flow - alg, f0))

    tol = DEFAULT_TOLERANCES
    return [_check("operators/group-vs-algebra", worst, tol.group_match, points=points)]


def run_verification(params: ParameterSet, lam_max, m_max: int, seed: int) -> dict:
    """The full invariant suite for one parameter set.

    Returns a report dict with per-check entries and a summary; ``ok`` is
    true when no check FAILed (WARNs expected for the published-table diff).
    """
    checks: list[dict] = []
    checks += sweep_contiguous(200, seed)
    checks += sweep_harmonicity(min(params.n + 1, 4), 4)
    checks += sweep_periodicity(params, lam_max, m_max, 20, seed + 1)
    checks += sweep_pde_kernel(params, lam_max, m_max, 20, seed + 2)
    checks += sweep_ladder(params, lam_max, m_max, 20, seed + 3)
    checks += sweep_heisenberg(params, min(lam_max, 30), 10, 40, seed + 4)
    checks += sweep_group_algebra(params, 20, seed + 5)
    counts = {"PASS": 0, "FAIL": 0, "WARN": 0}
    for c in checks:
        counts[c["status"]] += 1
    # no timing in the payload: reports are byte-identical for a fixed seed
    return {
        "params": {
            "n": params.n,
            "q": params.q,
            "s": [params.s.real, params.s.imag],
            "lam_max": str(lam_max),
            "m_max": m_max,
            "seed": seed,
        },
        "checks": checks,
        "summary": counts,
        "ok": counts["FAIL"] == 0,
    }
