"""levyint: verification toolkit for Riemann-sum stochastic integrals.

Simulates square-integrable Levy drivers with exact jump records, forms
left-endpoint Riemann-sum integrals and their mesh-refinement studies,
checks the Ito isometry and the predictable-representative identities, and
solves spectral evolution equations by Picard iteration with closed-form
linear-case oracles.
"""

__version__ = "0.1.0"

from .drivers import (
    Brownian,
    CompensatedPoisson,
    CompoundPoisson,
    ExponentialJumps,
    JumpLaw,
    LevySpec,
    NormalJumps,
    TwoPointJumps,
    child_seed,
    martingale_part,
    simulate_paths,
    standard_poisson,
)
from .ensembles import (
    JumpRecord,
    ModulusReport,
    PathEnsemble,
    TimeGrid,
    l2_distance,
    left_limit,
    ms_continuity_modulus,
    second_moments,
    sup_l2_norm,
)
from .identities import (
    IdentityReport,
    brownian_ito_identity_check,
    poisson_identity_check,
    stieltjes_integral,
)
from .predictability import (
    EmbeddingReport,
    InjectivityReport,
    IsometryReport,
    embedding_norm_check,
    injectivity_witness,
    ito_isometry_check,
    predictable_version,
    projection_vs_left_limit,
)
from .riemann import (
    MeshStudy,
    RiemannSumResult,
    bochner_integral,
    increment_independence_z,
    integral_process,
    levy_integral,
    mesh_convergence_study,
    riemann_sum,
    uniform_partition,
)
from .spde import (
    DiagnosticsReport,
    PicardReport,
    SpdeProblem,
    SpectralOperator,
    constant_map,
    heat_operator,
    linear_variance_oracle,
    mild_solution_picard,
    mild_solution_restarted,
    pseudo_contractivity_bound,
    scaled_identity,
    semigroup_apply,
    solution_diagnostics,
    spot_check_lipschitz,
    stochastic_convolution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
