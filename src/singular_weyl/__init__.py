"""K-finite solution spaces of the Schrodinger/heat equation with an
inverse-square potential.

The package constructs the hypergeometric basis vectors F_{m,l,k} of the
2*lambda-eigenspaces of the Casimir operator, implements the sl2 and
Heisenberg ladder actions in closed form, and verifies every closed form
against independent numeric or exact oracles.
"""

from .admissibility import (
    AdmissibilityError,
    ParameterSet,
    S_PRESETS,
    admissible_pairs,
    enumerate_admissible,
    is_admissible,
    pair_eigenvalue,
    weight_residue,
)
from .config import DEFAULT_FD, DEFAULT_TOLERANCES, FDConfig, Tolerances
from .hypergeometric import (
    SeriesError,
    contiguous_residuals_scaled,
    hyp1f1,
)
from .ktypes import (
    CongruenceError,
    KTypeVector,
    LinearCombination,
    SpaceTimeFunction,
    compact_function,
    compact_of_noncompact,
    make_ktype,
    periodicity_residual,
    to_noncompact,
)
from .operators import (
    GroupElement,
    OperatorSpec,
    apply_E,
    apply_eta,
    apply_kappa,
    fd_apply,
    group_action_noncompact,
    group_parameter_derivative,
    recover_E_coefficients,
)
from .polynomials import (
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
from .structure import (
    CompositionSeries,
    LadderGraph,
    SubmoduleDescriptor,
    composition_series,
    decompose,
    heisenberg_targets,
    ktype_lattice,
    ladder_graph,
    level_curves_csv,
    weight_string,
)

__version__ = "0.1.0"
