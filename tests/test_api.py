"""The package's public names: lazy exports bound to the submodules' own objects.

``import copulachain`` loads no submodule; each name below resolves on
first access, to the object its submodule defines.
"""

import subprocess
import sys

import pytest

import copulachain

EXPORTS = {
    "chain": [
        "BinaryPath",
        "ModelParams",
        "PathOrigin",
        "RealPath",
        "Regime",
        "TransitionCounts",
        "TransitionMatrix",
        "lambda2",
        "n_step_matrix",
        "simulate_bernoulli_chain",
        "simulate_counts_batch",
        "simulate_uniform_chain",
        "stationary_distribution",
        "transition_counts",
        "transition_matrix",
        "validate_count_table",
    ],
    "errors": ["CopulaChainError", "DegenerateData", "DomainError", "EmptyData", "EvalError"],
    "estimation": [
        "FIT_A0_EDGE",
        "FIT_HALF",
        "FIT_INTERIOR",
        "FIT_NEVER_LEFT",
        "FIT_NO_MAXIMUM",
        "FIT_TIED_BRANCHES",
        "CovMatrix",
        "Estimate",
        "MleBatch",
        "MleFit",
        "asymptotic_cov",
        "chisq1_quantile",
        "clt_variance",
        "fit_mle",
        "fit_mle_batch",
        "indicator_estimate",
        "loglik",
        "mean_estimate",
        "mle_ci",
        "mle_ci_batch",
        "mle_half",
        "normal_bounds",
        "normal_quantile",
        "robust_estimate",
        "var_sample_mean",
    ],
    "inference": ["FAIL_TO_REJECT", "REJECT", "LrtResult", "is_independence_point", "lrt"],
    "mixing": [
        "JointTable",
        "MixingDecay",
        "decay",
        "empirical_joint_table",
        "joint_table",
        "phi_closed",
        "phi_from_table",
        "psi_closed",
        "psi_from_table",
    ],
    "montecarlo": [
        "LrtCell",
        "MCReport",
        "ParamStats",
        "RepRecord",
        "StudyConfig",
        "SymmetryRow",
        "closed_form_ciml_p",
        "lrt_grid",
        "mc_estimator_comparison",
        "mc_mle_study",
        "symmetry_report",
        "table_study",
    ],
    "pathio": ["path_from_csv", "path_to_csv", "read_path_csv", "write_path_csv"],
    "rng": ["derive_seed", "derive_seeds", "make_generator", "mix64"],
    "svgchart": ["emit_svg"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_export_is_its_submodules_object(module, name):
    sub = getattr(copulachain, module)
    assert getattr(copulachain, name) is getattr(sub, name)


def test_all_and_dir_list_every_export():
    assert len(set(NAMES)) == len(NAMES)
    assert sorted(copulachain.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(copulachain))
    assert copulachain.__version__ == "0.1.0"


def test_star_import_binds_every_export():
    namespace = {}
    exec("from copulachain import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(copulachain, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_mle_scalar'"):
        copulachain.fit_mle_scalar


def test_bare_import_loads_no_submodule_and_no_numpy():
    out = _fresh(
        "import sys, copulachain\n"
        "print(*sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'copulachain'))))"
    )
    assert out.split() == ["copulachain"]


def test_submodule_resolves_after_a_bare_import():
    out = _fresh("import copulachain\nprint(copulachain.montecarlo.__name__, copulachain.mc_mle_study.__module__)")
    assert out.split() == ["copulachain.montecarlo", "copulachain.montecarlo"]
