"""Transition structure, simulators, and sufficient statistics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copulachain import chain
from copulachain.chain import (
    BLOCK_STEPS,
    BinaryPath,
    ModelParams,
    PathOrigin,
    Regime,
    TransitionCounts,
    _scan,
    lambda2,
    n_step_matrix,
    simulate_bernoulli_chain,
    simulate_counts_batch,
    simulate_uniform_chain,
    stationary_distribution,
    transition_counts,
    transition_matrix,
)
from copulachain.errors import DomainError

from oracles import scan_reference, simulate_reference, transition_counts_reference

params_st = st.tuples(
    st.floats(0.01, 0.99, allow_nan=False),
    st.floats(0.01, 0.99, allow_nan=False),
).map(lambda t: ModelParams(*t))


def test_matrix_at_half_half():
    m = transition_matrix(ModelParams(0.5, 0.5)).entries
    assert np.allclose(m, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_matrix_below_half():
    m = transition_matrix(ModelParams(0.5, 0.25)).entries
    assert np.allclose(m, [[5.0 / 6.0, 1.0 / 6.0], [0.5, 0.5]], atol=1e-15)


def test_matrix_above_half_independence_point():
    # a = 1 - p makes every row the stationary law
    m = transition_matrix(ModelParams(0.3, 0.7)).entries
    assert np.allclose(m, [[0.3, 0.7], [0.3, 0.7]], atol=1e-15)


@given(params_st)
def test_matrix_is_stochastic(params):
    m = transition_matrix(params).entries
    assert np.all(m >= -1e-15)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)
    # the engine takes its q0 and q1 from these rows unvalidated: no clip may move them
    assert np.array_equal(m, chain._transition_rows(params))


@given(params_st)
def test_stationarity(params):
    m = transition_matrix(params).entries
    pi = np.array(stationary_distribution(params))
    assert np.allclose(pi, (1.0 - params.p, params.p), atol=1e-15)
    assert np.allclose(pi @ m, pi, atol=1e-12)


@given(params_st)
def test_lambda2_is_second_eigenvalue(params):
    m = transition_matrix(params).entries
    eig = sorted(np.linalg.eigvals(m).real)
    lam = lambda2(params)
    assert abs(lam) <= 1.0 + 1e-12
    assert math.isclose(eig[0], lam, abs_tol=1e-10)
    assert math.isclose(eig[1], 1.0, abs_tol=1e-10)


def test_regime_split():
    assert Regime.from_p(0.3) is Regime.LESS_HALF
    assert Regime.from_p(0.5) is Regime.HALF
    assert Regime.from_p(0.7) is Regime.GEQ_HALF
    assert ModelParams(0.2, 0.3).regime is Regime.LESS_HALF


@pytest.mark.parametrize("a,p", [(0.0, 0.3), (1.0, 0.3), (0.4, 0.0), (0.4, 1.0), (-0.1, 0.5)])
def test_params_rejected(a, p):
    with pytest.raises(DomainError):
        ModelParams(a, p)


def test_n_step_identity_and_single():
    params = ModelParams(0.4, 0.3)
    assert np.allclose(n_step_matrix(params, 0).entries, np.eye(2), atol=1e-15)
    assert np.allclose(n_step_matrix(params, 1).entries, transition_matrix(params).entries, atol=1e-15)


@given(params_st, st.integers(0, 6), st.integers(0, 6))
def test_chapman_kolmogorov(params, m, k):
    lhs = n_step_matrix(params, m + k).entries
    rhs = n_step_matrix(params, m).entries @ n_step_matrix(params, k).entries
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_n_step_matrix_takes_whole_step_counts_only():
    # a step count equal to an integer is that integer; any other value is
    # refused by name, not with a bare ValueError or OverflowError from int()
    params = ModelParams(0.4, 0.3)
    assert np.array_equal(n_step_matrix(params, 3.0).entries, n_step_matrix(params, 3).entries)
    for n in (2.5, math.nan, math.inf, "3", None, -1):
        with pytest.raises(DomainError, match="^step count must be an integer of at least 0"):
            n_step_matrix(params, n)


def test_n_step_matches_matrix_power():
    params = ModelParams(0.7, 0.6)
    cube = np.linalg.matrix_power(transition_matrix(params).entries, 3)
    assert np.allclose(n_step_matrix(params, 3).entries, cube, atol=1e-12)


def test_branch_continuity_at_half():
    below = transition_matrix(ModelParams(0.3, 0.5 - 1e-12)).entries
    above = transition_matrix(ModelParams(0.3, 0.5 + 1e-12)).entries
    assert np.allclose(below, above, atol=1e-9)


@given(st.floats(0.01, 0.99))
def test_independence_degeneracy(p):
    a = p if p < 0.5 else 1.0 - p
    m = transition_matrix(ModelParams(a, p)).entries
    pi = np.array([1.0 - p, p])
    assert np.allclose(m[0], pi, atol=1e-12)
    assert np.allclose(m[1], pi, atol=1e-12)


# -- simulation ---------------------------------------------------------


def test_simulation_is_deterministic():
    params = ModelParams(0.6, 0.4)
    one = simulate_bernoulli_chain(params, 500, 42)
    two = simulate_bernoulli_chain(params, 500, 42)
    other = simulate_bernoulli_chain(params, 500, 43)
    assert np.array_equal(one.states, two.states)
    assert not np.array_equal(one.states, other.states)
    assert one.n == 500 and one.states.size == 501
    assert one.origin == PathOrigin(kind="simulated", seed=42, a=0.6, p=0.4)


# lambda2 > 0, = 0 (q1 == q0 exactly at (.25, .25) and (.5, .5)) and < 0
SIGN_CASES = [(0.3, 0.2), (0.8, 0.7), (0.25, 0.25), (0.5, 0.5), (0.05, 0.95), (0.1, 0.4), (0.2, 0.7)]
# paths that cross the engine's block boundaries: at the default 2**16
# uniforms per block, and at 64, where n = 255, 256 and 257 leave a full
# block, 1 or 2 uniforms in the last chunk
LONG_NS = (2**16 - 1, 2**16, 2**16 + 1, 99_999, 2**17)
SMALL_BLOCK_NS = (*range(1, 201), 255, 256, 257)
# paths around the scan's chunk edges (K = 127 steps) and 512-uniform block edges
CHUNK_NS = (126, 127, 128, 254, 255, 256, 510, 511, 512, 513, 1200)
SIMULATION_CASES = (
    [(a, p, seed, (400,), BLOCK_STEPS) for a, p in SIGN_CASES for seed in range(6)]
    + [
        (a, p, 7, ns, block)
        for a, p in [(0.3, 0.2), (0.25, 0.25), (0.1, 0.4)]  # lambda2 > 0, = 0 and < 0
        for ns, block in [(LONG_NS, BLOCK_STEPS), (SMALL_BLOCK_NS, 64)]
    ]
    # lambda2 < 0 points at several seeds, with 64-uniform blocks: these are
    # the cases that catch an engine segment entering in the wrong state
    + [(a, p, seed, SMALL_BLOCK_NS, 64) for a, p in [(0.1, 0.4), (0.3, 0.4), (0.05, 0.95), (0.2, 0.7)] for seed in range(6)]
    # 512-uniform blocks, whose segments hold several of the scan's 127-step
    # chunks: lambda2 > 0, = 0 and < 0, and lambda2 near 1 and near -1
    + [
        (a, p, 7, CHUNK_NS, 512)
        for a, p in [(0.3, 0.2), (0.25, 0.25), (0.1, 0.4), (0.99, 0.3), (0.01, 0.5)]
    ]
)


@pytest.mark.parametrize(
    "a,p,seed,ns,block",
    SIMULATION_CASES,
    ids=[f"{a}-{p}-{seed}" + ("" if ns == (400,) else f"-blocks{block}") for a, p, seed, ns, block in SIMULATION_CASES],
)
def test_simulation_matches_sequential_reference(monkeypatch, a, p, seed, ns, block):
    monkeypatch.setattr(chain, "BLOCK_STEPS", block)
    widths = []
    scan = chain._scan

    def recording_scan(u, *args):
        widths.append(u.shape[1])
        return scan(u, *args)

    monkeypatch.setattr(chain, "_scan", recording_scan)
    params = ModelParams(a, p)
    for n in ns:
        widths.clear()
        lib = simulate_bernoulli_chain(params, n, seed)
        assert np.array_equal(lib.states, simulate_reference(params, n, seed)), n
        assert transition_counts(lib) == transition_counts_reference(lib), n
        # the engine reads BLOCK_STEPS when called: no scan sees more uniforms per row
        assert widths and max(widths) <= block and sum(widths) == n, n


def _scan_states(u, q0, q1, state):
    """chain._scan's states after each uniform, for rows entering in ``state``."""
    states = np.empty((u.shape[0], u.shape[1] + 1), dtype=bool)
    states[:, 0] = state
    _scan(u, q0, q1, states)
    assert np.array_equal(states[:, 0], state)  # the entering column is read, not written
    return states[:, 1:]


# lambda2 near 1 at (.99, .3): about 16% of 127-step chunks hold no constant
# step, so a chunk's entering state must pass through whole chunks; (.01, .5)
# has lambda2 near -1, nearly every step a flip
@pytest.mark.parametrize(
    "a,p,sign",
    [(0.6, 0.3, 1), (0.25, 0.25, 0), (0.5, 0.5, 0), (0.1, 0.4, -1), (0.2, 0.7, -1), (0.99, 0.3, 1), (0.01, 0.5, -1)],
)
# steps K - 1, K, K + 1 and 2K + 1 about the scan's chunk of K = 127 steps
@pytest.mark.parametrize("rows,steps", [(1, 1), (1, 5000), (7, 301), (3, 126), (3, 127), (3, 128), (4, 255)])
def test_scan_equals_reference(a, p, sign, rows, steps):
    # the flip-parity pass is skipped exactly when q1 >= q0
    m = transition_matrix(ModelParams(a, p)).entries
    q0, q1 = m[0, 1], m[1, 1]
    assert np.sign(q1 - q0) == sign
    rng = np.random.default_rng(rows * steps)
    u = rng.random((rows, steps))
    state = rng.random(rows) < 0.5
    assert np.array_equal(_scan_states(u, q0, q1, state), scan_reference(u, q0, q1, state))


@given(
    st.integers(1, 4),
    st.integers(0, 400),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_scan_equals_reference_property(rows, steps, q0, q1, seed):
    rng = np.random.default_rng(seed)
    u = rng.random((rows, steps))
    state = rng.random(rows) < 0.5
    assert np.array_equal(_scan_states(u, q0, q1, state), scan_reference(u, q0, q1, state))


@pytest.mark.parametrize("a,p", [(0.2, 0.3), (0.5, 0.5), (0.7, 0.8), (0.9, 0.1)])
def test_simulated_marginal_mean(a, p):
    path = simulate_bernoulli_chain(ModelParams(a, p), 200_000, 7)
    assert abs(path.states.mean() - p) < 0.01


def test_simulated_transition_frequencies():
    params = ModelParams(0.6, 0.3)
    m = transition_matrix(params).entries
    s = simulate_bernoulli_chain(params, 100_000, 11).states
    for i in (0, 1):
        mask = s[:-1] == i
        freq = s[1:][mask].mean()
        assert abs(freq - m[i, 1]) < 0.02


def test_simulation_rejects_short():
    with pytest.raises(DomainError):
        simulate_bernoulli_chain(ModelParams(0.5, 0.5), 0, 1)


def test_uniform_chain_shape_and_values():
    path = simulate_uniform_chain(0.7, 1000, 3)
    assert path.states.size == 1001
    assert np.all((path.states >= 0.0) & (path.states <= 1.0))
    # reflection never leaves {x0, 1 - x0}
    assert len(np.unique(path.states)) <= 2
    assert math.isclose(path.states.min() + path.states.max(), 1.0, abs_tol=0.0)


def test_uniform_chain_repeat_fraction():
    sticky = simulate_uniform_chain(0.999, 20_000, 5).states
    frac = np.mean(sticky[1:] == sticky[:-1])
    assert frac >= 0.99
    fair = simulate_uniform_chain(0.5, 200_000, 5).states
    assert abs(np.mean(fair[1:] == fair[:-1]) - 0.5) < 0.01


@pytest.mark.parametrize("a", [0.0, 1.0, 1.5])
def test_uniform_chain_rejects_bad_weight(a):
    with pytest.raises(DomainError):
        simulate_uniform_chain(a, 10, 0)


# each simulator as a function of n alone, its output as a comparable tuple
SIMULATORS = {
    "bernoulli": lambda n: tuple(simulate_bernoulli_chain(ModelParams(0.5, 0.3), n, 7).states),
    "counts_batch": lambda n: tuple(simulate_counts_batch(ModelParams(0.5, 0.3), n, [7, 8]).flat),
    "uniform": lambda n: tuple(simulate_uniform_chain(0.5, n, 7).states),
}


@pytest.mark.parametrize("simulator", SIMULATORS)
def test_simulators_take_whole_path_lengths_only(simulator):
    # a length equal to an integer is that integer; any other value is refused
    # by name, where numpy would raise a TypeError
    simulate = SIMULATORS[simulator]
    assert simulate(99.0) == simulate(np.int64(99)) == simulate(99)
    for n in (99.5, math.nan, math.inf, "99", None, 0.0):
        with pytest.raises(DomainError, match="^n must be an integer"):
            simulate(n)


# -- transition counts --------------------------------------------------


def _path(values):
    return BinaryPath(
        states=np.array(values, dtype=np.int8),
        origin=PathOrigin(kind="loaded", seed=None, a=None, p=None),
    )


def test_counts_all_zero_path():
    c = transition_counts(_path([0, 0, 0, 0]))
    assert c == TransitionCounts(x0=0, n00=3, n01=0, n10=0, n11=0)
    assert c.n == 3 and c.ones == 0


def test_counts_alternating_path():
    c = transition_counts(_path([1, 0, 1, 0, 1]))
    assert c == TransitionCounts(x0=1, n00=0, n01=2, n10=2, n11=0)
    assert c.ones == 3


@given(st.lists(st.integers(0, 1), min_size=2, max_size=200))
def test_counts_identities(values):
    c = transition_counts(_path(values))
    assert c.n == len(values) - 1
    assert c.n00 + c.n01 + c.n10 + c.n11 == c.n
    assert c.ones == sum(values)
    assert c.x0 == values[0]
    assert c == transition_counts_reference(_path(values))


@pytest.mark.parametrize("a,p", [(0.5, 0.3), (0.1, 0.4), (0.9, 0.8)])
def test_counts_match_reference_on_simulated_paths(a, p):
    for seed in range(5):
        path = simulate_bernoulli_chain(ModelParams(a, p), 10_000 + seed, seed)
        assert transition_counts(path) == transition_counts_reference(path)


@given(st.lists(st.integers(0, 1), min_size=2, max_size=100))
def test_counts_flip_involution(values):
    c = transition_counts(_path(values))
    f = c.flipped()
    assert f.flipped() == c
    assert f == transition_counts(_path([1 - v for v in values]))


@pytest.mark.parametrize(
    "kw",
    [
        dict(x0=0, n00=5, n01=0, n10=0, n11=3),  # 1-block unreachable
        dict(x0=0, n00=2, n01=3, n10=1, n11=0),  # two more exits than entries
        dict(x0=1, n00=2, n01=2, n10=1, n11=0),  # crossing parity wrong for x0 = 1
        dict(x0=0, n00=0, n01=0, n10=0, n11=0),
        dict(x0=2, n00=1, n01=0, n10=0, n11=0),
    ],
)
def test_unrealizable_counts_rejected(kw):
    with pytest.raises(DomainError):
        TransitionCounts(**kw)


def test_realizable_counts_are_those_of_some_walk():
    # every binary walk of up to 9 states, tallied, against every count
    # tuple with n <= 8 that TransitionCounts and the table check accept
    walked = set()
    for length in range(2, 10):
        for states in itertools.product((0, 1), repeat=length):
            counts = [0, 0, 0, 0]
            for s0, s1 in zip(states, states[1:]):
                counts[2 * s0 + s1] += 1
            walked.add((states[0], *counts))
    box = [row for row in itertools.product((0, 1), *[range(9)] * 4) if 1 <= sum(row[1:]) <= 8]
    accepted = set()
    for row in box:
        try:
            TransitionCounts(*row)
        except DomainError:
            continue
        accepted.add(row)
    assert accepted == walked
    table = np.array(box)
    ok = chain._realizable(*table.T)
    assert {tuple(r) for r in table[ok].tolist()} == walked


ODD_STATES = [
    np.array([0, 1, 1], np.int64),
    np.array([0, 2], np.uint8),
    np.array([255, 1], np.uint8),
    np.array([-1, 1], np.int8),
    np.array([-0.0, 1.0]),
    np.array([0.0, np.nan]),
    np.array([1.0, np.inf]),
    np.array([0.0, 0.5]),
    np.array([0.0, 1.0], np.float16),
    np.array([True, False]),
    np.array([0j, 1 + 0j]),
    np.array([1j, 0]),
    np.array([0, 1], dtype=object),
    np.array([0, "1"], dtype=object),
    np.array([0, None], dtype=object),
    np.array(["0", "1"]),
    np.array([b"0", b"1"]),
    np.array([0, 1], "timedelta64[ns]"),
    np.array([0, 1], "datetime64[ns]"),
]


# only bool, integer and real floating states are accepted, and then
# exactly those np.isin finds in {0, 1}
@pytest.mark.parametrize("states", ODD_STATES, ids=range(len(ODD_STATES)))
def test_binary_check_agrees_with_isin(states):
    accepted = True
    try:
        path = BinaryPath(states)
    except DomainError:
        accepted = False
    assert accepted == (states.dtype.kind in "biuf" and bool(np.isin(states, (0, 1)).all()))
    if accepted:
        assert np.array_equal(path.states, states.astype(np.int8))


def test_path_validation():
    with pytest.raises(DomainError):
        _path([0, 2, 1])
    with pytest.raises(DomainError):
        _path([1])


@pytest.mark.parametrize("lag", [1, 2, 5, 9])
def test_tally_of_rows_equals_the_tally_of_each_row(lag):
    rng = np.random.default_rng(lag)
    rows = rng.random((7, 10)) < np.linspace(0.0, 1.0, 7)[:, None]  # constant rows included
    assert np.column_stack(chain._tally(rows, lag)).tolist() == [list(chain._tally(r, lag)) for r in rows]
