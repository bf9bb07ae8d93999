"""thermolab: a desk-scale laboratory for lattice-model thermodynamics.

Builds commuting observable families on finite spin chains and complete
graphs, computes generalized canonical states, entropies and pressures,
runs Legendre duality between sampled entropy and pressure curves, counts
constrained maximum-entropy phases, and verifies thermal-equilibrium (KMS)
identities for the induced dynamics.
"""

from .completeness import (
    CompletenessReport,
    ErgodicFamily,
    MaximizerSet,
    completeness_verdict,
    constrained_entropy_max,
    entropy_curve,
    family_curve_constraints,
    mean_field_pressure,
    pressure_slope_gap,
)
from .convex import (
    CONCAVE,
    CONVEX,
    ControlVector,
    CurveSamples,
    TangentSet,
    biconjugate,
    concavity_violations,
    conjugate,
    conjugate_maximizers,
    tangent_set,
)
from .errors import (
    ConfigError,
    DataError,
    DomainError,
    InfeasibleConstraintError,
    NumericRangeError,
    QuadratureError,
    ResourceError,
    ThermolabError,
    UsageError,
)
from .gibbs import (
    DensityState,
    PressureEstimate,
    canonical_state,
    finite_pressure,
    maximally_mixed,
    pressure_limit,
    random_density_state,
    relative_entropy,
    release_families,
    variational_gap,
    von_neumann_entropy,
)
from .kms import (
    GaussianTestFunction,
    TestOperator,
    default_probes,
    evolve,
    kms_residual,
    kms_smeared_residual,
    kms_theta_discrimination,
    release_folds,
    site_pauli,
)
from .lattice import (
    DIMENSION_CAP,
    ModelSpec,
    ObservableFamily,
    Region,
    StructureReport,
    Translation,
    build_model,
    parse_model_config,
    verify_family,
)

__version__ = "0.1.0"
