"""Two-state copula-based Markov chains: simulation, estimation, mixing, testing."""

from .chain import (
    BinaryPath,
    ModelParams,
    PathOrigin,
    RealPath,
    Regime,
    TransitionCounts,
    TransitionMatrix,
    lambda2,
    n_step_matrix,
    simulate_bernoulli_chain,
    simulate_counts_batch,
    simulate_uniform_chain,
    stationary_distribution,
    transition_counts,
    transition_matrix,
    validate_count_table,
)
from .errors import (
    CopulaChainError,
    DegenerateData,
    DomainError,
    EmptyData,
    EvalError,
)
from .estimation import (
    FIT_A0_EDGE,
    FIT_HALF,
    FIT_INTERIOR,
    FIT_NEVER_LEFT,
    FIT_NO_MAXIMUM,
    FIT_TIED_BRANCHES,
    CovMatrix,
    Estimate,
    MleBatch,
    MleFit,
    MleWorkspace,
    asymptotic_cov,
    chisq1_quantile,
    clt_variance,
    fit_mle,
    fit_mle_batch,
    indicator_estimate,
    loglik,
    mean_estimate,
    mle,
    mle_ci,
    mle_ci_batch,
    mle_half,
    normal_bounds,
    normal_quantile,
    profile_a,
    quartic_coefficients,
    robust_estimate,
    score,
    var_sample_mean,
)
from .inference import FAIL_TO_REJECT, REJECT, LrtResult, is_independence_point, lrt
from .mixing import (
    JointTable,
    MixingDecay,
    decay,
    empirical_joint_table,
    joint_table,
    phi_brute,
    phi_closed,
    phi_from_table,
    psi_brute,
    psi_closed,
    psi_from_table,
)
from .montecarlo import (
    LrtCell,
    MCReport,
    ParamStats,
    RepRecord,
    StudyConfig,
    SymmetryRow,
    closed_form_ciml_p,
    lrt_grid,
    mc_estimator_comparison,
    mc_mle_study,
    symmetry_report,
    table_study,
)
from .pathio import path_from_csv, path_to_csv, read_path_csv, write_path_csv
from .rng import derive_seed, derive_seeds, make_generator, mix64
from .svgchart import emit_svg

__version__ = "0.1.0"
