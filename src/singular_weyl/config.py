"""Centralized numeric tolerances and finite-difference settings.

Every tolerance used by the library lives in one frozen record, and every
stencil setting in another.  The numeric layers and the verification sweeps
read ``DEFAULT_TOLERANCES`` and ``DEFAULT_FD`` where they use them; no
function takes them as a parameter and the CLI cannot change them, so each
certificate is checked at one fixed bound.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared across the package.

    All values are relative tolerances unless noted otherwise.
    """

    # confluent hypergeometric power series
    series_rtol: float = 1e-15
    series_max_terms: int = 1000

    # contiguous-relation residuals (relative to the largest term)
    contiguous: float = 1e-10

    # PDE kernel residual in the non-compact picture
    pde_residual: float = 1e-6

    # closed-form ladder application vs finite-difference oracle
    ladder_match: float = 1e-8

    # least-squares projection of the Heisenberg action
    lsq_residual: float = 1e-8
    coeff_match: float = 1e-6

    # compact-picture periodicity identity
    periodicity: float = 1e-12

    # group flow derivative vs algebra action
    group_match: float = 1e-5


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference stencil settings.

    4th-order central stencils with one Richardson extrapolation level.
    ``operators`` reads ``DEFAULT_FD``: ``ktype_steps`` adapts the steps to
    the local oscillation rate of the target K-type and clips them to
    [min_step, 10 base_step], and ``group_parameter_derivative`` uses
    ``group_step``.
    """

    base_step: float = 1e-3
    min_step: float = 1e-6
    group_step: float = 1e-3


DEFAULT_TOLERANCES = Tolerances()
DEFAULT_FD = FDConfig()
