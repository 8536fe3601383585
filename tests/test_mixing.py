"""Dependence decay coefficients and lagged joint tables."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copulachain.chain import BinaryPath, ModelParams, lambda2, simulate_bernoulli_chain, transition_matrix
from copulachain.errors import DomainError
from copulachain.mixing import (
    JointTable,
    decay,
    empirical_joint_table,
    joint_table,
    phi_closed,
    phi_from_table,
    psi_closed,
    psi_from_table,
)

GRID = [0.1, 0.3, 0.5, 0.7, 0.9]


def test_first_lag_values():
    params = ModelParams(0.2, 0.1)
    assert psi_closed(params, 1) == 1.0
    assert math.isclose(phi_closed(params, 1), 0.1, abs_tol=1e-15)


def test_vanishes_at_independence():
    for p in (0.2, 0.5, 0.8):
        a = p if p < 0.5 else 1.0 - p
        params = ModelParams(a, p)
        for n in (1, 2, 7):
            assert psi_closed(params, n) == 0.0
            assert phi_closed(params, n) == 0.0


@pytest.mark.parametrize("a", GRID)
@pytest.mark.parametrize("p", GRID)
def test_brute_force_agrees_with_closed_form(a, p):
    params = ModelParams(a, p)
    for n in (1, 2, 5, 11, 20):
        table = joint_table(params, n)
        assert math.isclose(psi_from_table(table), psi_closed(params, n), abs_tol=1e-12)
        assert math.isclose(phi_from_table(table), phi_closed(params, n), abs_tol=1e-12)


@given(
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
    st.integers(1, 40),
)
def test_geometric_ratio(a, p, n):
    params = ModelParams(a, p)
    lam = abs(lambda2(params))
    cur = psi_closed(params, n)
    nxt = psi_closed(params, n + 1)
    assert math.isclose(nxt, lam * cur, abs_tol=1e-12)


def test_decay_reaches_negligible_levels():
    # |lambda| <= 0.9 forces psi under 1e-6 within 200 lags
    for a, p in ((0.9, 0.3), (0.05, 0.5), (0.85, 0.75)):
        params = ModelParams(a, p)
        assert abs(lambda2(params)) <= 0.9
        assert psi_closed(params, 200) < 1e-6


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.integers(1, 30))
def test_relabeling_symmetry(a, p, n):
    here = ModelParams(a, p)
    there = ModelParams(a, 1.0 - p)
    assert math.isclose(psi_closed(here, n), psi_closed(there, n), abs_tol=1e-12)
    assert math.isclose(phi_closed(here, n), phi_closed(there, n), abs_tol=1e-12)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.integers(1, 30))
def test_phi_is_min_margin_times_psi(a, p, n):
    params = ModelParams(a, p)
    expected = min(p, 1.0 - p) * psi_closed(params, n)
    assert math.isclose(phi_closed(params, n), expected, abs_tol=1e-12)


def test_lag_must_be_positive():
    with pytest.raises(DomainError):
        psi_closed(ModelParams(0.3, 0.3), 0)


# -- joint tables --------------------------------------------------------


def test_joint_table_independent_case():
    p = 0.3
    jt = joint_table(ModelParams(p, p), 4)
    pi = np.array([1.0 - p, p])
    assert np.allclose(jt.cells, np.outer(pi, pi), atol=1e-14)


@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.integers(1, 10))
def test_joint_table_cells_and_margins(a, p, lag):
    params = ModelParams(a, p)
    jt = joint_table(params, lag)
    anl = np.linalg.matrix_power(transition_matrix(params).entries, lag)
    pi = np.array([1.0 - p, p])
    assert np.allclose(jt.cells, pi[:, None] * anl, atol=1e-12)
    assert np.allclose(jt.row_margins(), pi, atol=1e-12)
    assert np.allclose(jt.col_margins(), pi, atol=1e-12)
    assert math.isclose(jt.cells.sum(), 1.0, abs_tol=1e-12)


def test_from_table_round_trip():
    params = ModelParams(0.7, 0.2)
    for lag in (1, 3, 8):
        jt = joint_table(params, lag)
        assert math.isclose(psi_from_table(jt), psi_closed(params, lag), abs_tol=1e-12)
        assert math.isclose(phi_from_table(jt), phi_closed(params, lag), abs_tol=1e-12)


def test_empirical_joint_table_converges():
    params = ModelParams(0.6, 0.35)
    path = simulate_bernoulli_chain(params, 300_000, 9)
    emp = empirical_joint_table(path, 2)
    assert math.isclose(emp.cells.sum(), 1.0, abs_tol=1e-12)
    assert np.allclose(emp.cells, joint_table(params, 2).cells, atol=0.01)


@pytest.mark.parametrize("n", [1, 2, 9, 1_000, 100_000])
def test_empirical_joint_table_counts_every_pair_exactly(n):
    rng = np.random.default_rng(n)
    paths = [(rng.random(n + 1) < q).astype(np.int8) for q in (0.05, 0.5, 0.95)]
    paths.append(simulate_bernoulli_chain(ModelParams(0.9, 0.3), n, n).states)  # long runs
    for s in paths:
        # lag = n leaves a single pair
        for lag in sorted({1, 2, 7, n // 2, n} & set(range(1, n + 1))):
            left, right = s[:-lag], s[lag:]
            expected = [[np.count_nonzero((left == i) & (right == j)) / left.size for j in (0, 1)] for i in (0, 1)]
            assert empirical_joint_table(BinaryPath(s), lag).cells.tolist() == expected


def _stored_lag(table):
    return type(table.lag), table.lag


# each lagged entry point as a function of its lag alone, its output as a comparable tuple
LAGGED = {
    "joint_table": ("lag", lambda lag: tuple(joint_table(ModelParams(0.4, 0.2), lag).cells.flat)),
    "empirical_joint_table": (
        "lag",
        lambda lag: tuple(empirical_joint_table(simulate_bernoulli_chain(ModelParams(0.4, 0.2), 50, 3), lag).cells.flat),
    ),
    "decay": ("lags", lambda lags: tuple(decay(ModelParams(0.4, 0.2), "psi", lags).values)),
    "psi_closed": ("lag", lambda lag: (psi_closed(ModelParams(0.4, 0.2), lag),)),
    "phi_closed": ("lag", lambda lag: (phi_closed(ModelParams(0.4, 0.2), lag),)),
    "JointTable": ("lag", lambda lag: _stored_lag(JointTable(np.full((2, 2), 0.25), lag))),
}


@pytest.mark.parametrize("entry", LAGGED)
def test_lagged_entry_points_take_whole_lags_only(entry):
    # a lag equal to an integer is that integer; any other value is refused
    # by name, not with a bare TypeError or ValueError
    name, lagged = LAGGED[entry]
    assert lagged(2.0) == lagged(np.int64(2)) == lagged(2)
    for lag in (2.5, math.nan, math.inf, "2", None, 0):
        with pytest.raises(DomainError, match=f"^{name} must be an integer of at least 1"):
            lagged(lag)


def test_decay_series():
    params = ModelParams(0.4, 0.2)
    d = decay(params, "phi", 12)
    assert d.kind == "phi"
    assert len(d.values) == 12
    assert np.allclose(d.values, [phi_closed(params, k) for k in range(1, 13)], atol=1e-14)
    with pytest.raises(DomainError):
        decay(params, "bogus", 5)
    with pytest.raises(DomainError):
        decay(params, "psi", 0)
