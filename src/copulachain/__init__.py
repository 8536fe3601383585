"""Two-state copula-based Markov chains: simulation, estimation, mixing, testing.

Exports are lazy (PEP 562): ``import copulachain`` loads no submodule and no
numpy.  The first access to an exported name imports the submodule that
defines it and caches the value here; a submodule name resolves the same way.
"""

import importlib

_EXPORTS = {
    "chain": (
        "BinaryPath", "ModelParams", "PathOrigin", "RealPath", "Regime", "TransitionCounts",
        "TransitionMatrix", "lambda2", "n_step_matrix", "simulate_bernoulli_chain",
        "simulate_counts_batch", "simulate_uniform_chain", "stationary_distribution",
        "transition_counts", "transition_matrix", "validate_count_table",
    ),
    "errors": ("CopulaChainError", "DegenerateData", "DomainError", "EmptyData", "EvalError"),
    "estimation": (
        "FIT_A0_EDGE", "FIT_HALF", "FIT_INTERIOR", "FIT_NEVER_LEFT", "FIT_NO_MAXIMUM",
        "FIT_TIED_BRANCHES", "CovMatrix", "Estimate", "MleBatch", "MleFit", "asymptotic_cov",
        "chisq1_quantile", "clt_variance", "fit_mle", "fit_mle_batch", "indicator_estimate",
        "loglik", "mean_estimate", "mle_ci", "mle_ci_batch", "mle_half", "normal_bounds",
        "normal_quantile", "robust_estimate", "var_sample_mean",
    ),
    "inference": ("FAIL_TO_REJECT", "REJECT", "LrtResult", "is_independence_point", "lrt"),
    "mixing": (
        "JointTable", "MixingDecay", "decay", "empirical_joint_table", "joint_table",
        "phi_closed", "phi_from_table", "psi_closed", "psi_from_table",
    ),
    "montecarlo": (
        "LrtCell", "MCReport", "ParamStats", "RepRecord", "StudyConfig", "SymmetryRow",
        "closed_form_ciml_p", "lrt_grid", "mc_estimator_comparison", "mc_mle_study",
        "symmetry_report", "table_study",
    ),
    "pathio": ("path_from_csv", "path_to_csv", "read_path_csv", "write_path_csv"),
    "rng": ("derive_seed", "derive_seeds", "make_generator", "mix64"),
    "svgchart": ("emit_svg",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"
# The default master seed of every study: StudyConfig, the CLI's study
# commands and scripts/reproduce_tables.py.
STUDY_SEED = 20260814


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
