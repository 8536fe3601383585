"""Likelihood-ratio test of serial independence."""

import math

import pytest
import scipy.stats

from copulachain.chain import ModelParams, TransitionCounts, simulate_bernoulli_chain, transition_counts
from copulachain.errors import DegenerateData
from copulachain.estimation import _DEGENERATE, FIT_NEVER_LEFT
from copulachain.inference import FAIL_TO_REJECT, REJECT, is_independence_point, lrt

from oracles import path_from_counts


@pytest.mark.parametrize(
    "a,p,expected",
    [
        (0.3, 0.3, True),
        (0.4, 0.6, True),
        (0.5, 0.3, False),
        (0.5, 0.5, True),
        (0.2, 0.5, False),
        (0.7, 0.3, False),
    ],
)
def test_independence_points(a, p, expected):
    assert is_independence_point(ModelParams(a, p)) is expected


def test_strong_dependence_is_rejected():
    path = simulate_bernoulli_chain(ModelParams(0.5, 0.1), 9999, 0)
    result = lrt(path)
    assert result.statistic > 100.0
    assert result.decision == REJECT
    assert result.p_value < 1e-10
    assert result.df == 1


def test_statistic_vanishes_on_exactly_independent_counts():
    # 25s transitions whose empirical table factorizes exactly at p = 0.2
    s = 72
    counts = TransitionCounts(x0=0, n00=16 * s, n01=4 * s, n10=4 * s, n11=s)
    result = lrt(path_from_counts(counts))
    assert abs(result.statistic) < 1e-9
    assert result.decision == FAIL_TO_REJECT
    assert result.p_value > 0.999


def test_test_size_stays_near_nominal():
    rejections = 0
    for seed in range(1000):
        path = simulate_bernoulli_chain(ModelParams(0.1, 0.1), 999, seed)
        try:
            rejections += lrt(path).decision == REJECT
        except DegenerateData:
            pass
    assert 0.03 <= rejections / 1000 <= 0.07


def test_power_increases_with_dependence():
    p = 0.3
    rates = []
    for a in (0.3, 0.5, 0.7, 0.9):
        hits = 0
        for seed in range(50):
            path = simulate_bernoulli_chain(ModelParams(a, p), 499, seed)
            hits += lrt(path).decision == REJECT
        rates.append(hits / 50)
    assert all(later >= earlier for earlier, later in zip(rates, rates[1:]))
    assert rates[0] < 0.2
    assert rates[-1] == 1.0


@pytest.mark.parametrize("seed", range(8))
def test_flip_invariance(seed):
    path = simulate_bernoulli_chain(ModelParams(0.6, 0.35), 800, seed)
    # relabel the states and rerun; the statistic cannot tell 0 from 1
    flipped = path_from_counts(transition_counts(path).flipped())
    a = lrt(path)
    b = lrt(flipped)
    assert math.isclose(a.statistic, b.statistic, rel_tol=1e-9, abs_tol=1e-9)
    assert a.decision == b.decision


def test_degenerate_path_raises():
    # a constant path never leaves its state: the unrestricted fit says so
    counts = TransitionCounts(x0=0, n00=5, n01=0, n10=0, n11=0)
    with pytest.raises(DegenerateData) as exc:
        lrt(path_from_counts(counts))
    assert exc.value.method == "mle"
    assert str(exc.value) == _DEGENERATE[FIT_NEVER_LEFT]


@pytest.mark.parametrize("seed", range(20))
def test_decision_matches_threshold(seed):
    path = simulate_bernoulli_chain(ModelParams(0.45, 0.35), 399, seed)
    r = lrt(path, alpha=0.1)
    assert r.alpha == 0.1
    assert (r.decision == REJECT) == (r.statistic >= r.threshold)
    assert (r.p_value < r.alpha) == (r.decision == REJECT) or math.isclose(r.p_value, r.alpha, abs_tol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_p_value_matches_chi_square_survival(seed):
    path = simulate_bernoulli_chain(ModelParams(0.55, 0.45), 599, seed)
    r = lrt(path)
    assert math.isclose(r.p_value, scipy.stats.chi2.sf(r.statistic, 1), abs_tol=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_statistic_matches_likelihood_ratio(seed):
    path = simulate_bernoulli_chain(ModelParams(0.35, 0.25), 299, seed)
    r = lrt(path)
    assert 0.0 < r.lambda_raw <= 1.0
    assert math.isclose(r.statistic, -2.0 * math.log(r.lambda_raw), rel_tol=1e-9, abs_tol=1e-12)
    if r.clamped:
        assert r.statistic == 0.0
    assert r.statistic >= 0.0
