"""Monte Carlo phase-space symbols of Schrodinger-type semigroups.

The package samples the path-integral representation of the semigroup
exp(-tH), H = -Laplacian + V with V >= 0, to estimate its phase-space
(Weyl) symbol and the symbol's derivatives, cross-checks everything against
a low-dimensional grid oracle, and verifies the closed-form sup, moment,
integral, and commutator-trace bounds the representation implies.
"""

from .brownian import (
    DEFAULT_PRESET,
    VariancePreset,
    abs_moment_constant,
    abs_moment_max,
    absolute_moment_product,
    sample_path_batch,
)
from .bounds import (
    BoundReport,
    DivergentIntegralError,
    check_l1_bound,
    check_probes,
    class_probes,
    linf_probes,
    mixed_derivative_probes,
    xi_derivative_probes,
)
from .commutator import (
    CommutatorTraceResult,
    ScalingFit,
    WeylObservable,
    commutator_trace,
    gaussian_state_symbol,
    op_weyl_matrix,
    scaling_fit,
)
from .faadibruno import derivative_of_exponential, mixed_derivative_bound
from .multiindex import (
    MultiIndex,
    ZERO_INDEX,
    from_text,
    sub_multiindices,
)
from .oracle import (
    DecayError,
    Grid,
    GridOracle,
    GridSemigroup,
    PhaseSpaceTable,
    SupportError,
    build_hamiltonian,
    semigroup_symbol_at,
)
from .potentials import (
    MeanFieldPotential,
    NearestNeighborPotential,
    PotentialSpec,
    ScalarFunction,
    cosine_function,
    constant_function,
    family_from_json,
    gaussian_bump_function,
    harmonic_function,
    lorentzian_function,
    potential_from_json,
    scalar_from_json,
    zero_function,
)
from .symbol_estimator import (
    PhasePoint,
    SymbolEstimate,
    estimate_mixed_derivative,
)

__version__ = "0.1.0"
