"""The batched Monte Carlo engine against the scalar code it replaces.

simulate_counts_batch, fit_mle_batch and mle_ci_batch must reproduce the
one-replication-at-a-time path bit for bit, and mc_mle_study must report
exactly what the plain loop in ``oracles.mc_mle_study_reference`` reports.
"""

import itertools

import numpy as np
import pytest

from copulachain import chain, estimation
from copulachain.chain import (
    ModelParams,
    TransitionCounts,
    simulate_bernoulli_chain,
    simulate_counts_batch,
    transition_counts,
    validate_count_table,
)
from copulachain.errors import DegenerateData, DomainError
from copulachain.estimation import (
    FIT_DEGENERATE,
    FIT_HALF,
    FIT_INTERIOR,
    fit_mle,
    mle_ci,
    mle_ci_batch,
    quartic_coefficients,
)
from copulachain.montecarlo import StudyConfig, _interval_stats, mc_mle_study
from copulachain.rng import derive_seed

from oracles import mc_mle_study_reference

FIELDS = ("x0", "n00", "n01", "n10", "n11")


def _row(counts):
    return [getattr(counts, f) for f in FIELDS]


def _scalar_counts(params, n, seeds):
    return np.array([_row(transition_counts(simulate_bernoulli_chain(params, n, s))) for s in seeds])


def _small_tables(max_n=12):
    out = []
    for x0 in (0, 1):
        for cells in itertools.product(range(max_n + 1), repeat=4):
            if not 1 <= sum(cells) <= max_n:
                continue
            try:
                TransitionCounts(x0, *cells)
            except DomainError:
                continue
            out.append((x0, *cells))
    return np.array(out)


def _scalar_ci(row):
    """mle_ci's points and bounds, or None where the study counts it degenerate."""
    counts = TransitionCounts(*row.tolist())
    try:
        if fit_mle(counts).cov is None:
            return None
    except DegenerateData:
        return None
    est_a, est_p = mle_ci(counts)
    return [est_a.point, est_p.point, est_a.ci_low, est_p.ci_low, est_a.ci_high, est_p.ci_high]


def _batch_ci(fit, low, high, i):
    if fit.outcome[i] != FIT_INTERIOR:
        return None
    return [fit.a[i], fit.p[i], low[i, 0], low[i, 1], high[i, 0], high[i, 1]]


# -- simulation ---------------------------------------------------------------


@pytest.mark.parametrize(
    "a, p, n, reps",
    [
        (0.5, 0.3, 9_999, 20),  # 6 rows per block: blocks of 6, 6, 6 and 2
        (0.2, 0.8, 70_000, 2),  # longer than a block: segments carry the state
        (0.9, 0.5, 1, 7),
    ],
)
def test_simulate_counts_batch_equals_scalar(a, p, n, reps):
    params = ModelParams(a, p)
    seeds = [derive_seed(3, 1, r) for r in range(reps)]
    got = simulate_counts_batch(params, n, seeds)
    assert got.dtype == np.int64
    assert np.array_equal(got, _scalar_counts(params, n, seeds))


def test_simulate_counts_batch_with_small_blocks(monkeypatch):
    # 64-step blocks: each 500-state path is scanned in 8 segments
    monkeypatch.setattr(chain, "BLOCK_STEPS", 64)
    params = ModelParams(0.35, 0.6)
    seeds = [derive_seed(5, 1, r) for r in range(13)]
    assert np.array_equal(simulate_counts_batch(params, 499, seeds), _scalar_counts(params, 499, seeds))


def test_count_table_validation_matches_transition_counts():
    box = np.array(list(itertools.product((0, 1, 2), *[range(4)] * 4)))
    for row in box:
        try:
            TransitionCounts(*row.tolist())
            valid = True
        except DomainError:
            valid = False
        if valid:
            validate_count_table(row[None])
        else:
            with pytest.raises(DomainError):
                validate_count_table(row[None])
    with pytest.raises(DomainError):
        validate_count_table(np.ones((3, 4), dtype=np.int64))
    with pytest.raises(DomainError):
        validate_count_table(np.ones((3, 5)))


# -- fitting ------------------------------------------------------------------


def test_quartic_end_coefficients_never_vanish_on_batched_rows():
    # with n00 > 0 and n11 > 0, c4 = 2 n00 and c0 = lam2 n00 (x0 - n10 - n11)
    # are nonzero, so np.roots never trims a batched quartic
    t = _small_tables(16)
    t = t[(t[:, 1] > 0) & (t[:, 4] > 0)]
    for row in t.tolist():
        counts = TransitionCounts(*row)
        for c in (counts, counts.flipped()):
            ws = quartic_coefficients(c)
            assert ws.coeffs[0] == 2 * c.n00
            assert ws.coeffs[4] == ws.lam2 * c.n00 * (c.x0 - c.n10 - c.n11) != 0


def test_exhaustive_small_n_matches_mle_ci():
    t = _small_tables()
    assert len(t) == 752
    fit, low, high = mle_ci_batch(t)
    for i, row in enumerate(t):
        assert _batch_ci(fit, low, high, i) == _scalar_ci(row), row.tolist()
    # the set reaches every outcome
    assert set(np.unique(fit.outcome).tolist()) == {FIT_INTERIOR, FIT_HALF, FIT_DEGENERATE}


def test_int64_coefficient_bound_routes_large_n_to_fit_mle(monkeypatch):
    # expected counts of a=.5, p=.3; the largest n is above the int64 bound
    scalar_calls = []
    monkeypatch.setattr(estimation, "fit_mle", lambda c: scalar_calls.append(c.n) or fit_mle(c))
    rows = []
    for n in (estimation._BATCH_MAX_N, estimation._BATCH_MAX_N + 1, 10**9):
        n01 = n10 = round(0.15 * n)
        n11 = round(0.15 * n)
        rows.append((0, n - n01 - n10 - n11, n01, n10, n11))
    t = np.array(rows)
    fit, low, high = mle_ci_batch(t)
    assert scalar_calls == [estimation._BATCH_MAX_N + 1, 10**9]
    for i, row in enumerate(t):
        assert fit.outcome[i] == FIT_INTERIOR
        assert _batch_ci(fit, low, high, i) == _scalar_ci(row)


# -- studies ------------------------------------------------------------------


@pytest.mark.parametrize(
    "a, p, n",
    [
        (0.5, 0.3, 499),
        (0.7, 0.8, 49),
        (0.4, 0.5, 49),
        (0.5, 0.5, 499),
        (0.03, 0.3, 499),
        (0.98, 0.7, 499),
        (0.9, 0.05, 9),
        (0.2, 0.6, 9),
    ],
)
def test_study_equals_reference_loop(a, p, n):
    cfg = StudyConfig(a=a, p=p, n=n, reps=60, master_seed=17)
    got = mc_mle_study(cfg, keep_rows=True)
    want = mc_mle_study_reference(cfg, keep_rows=True)
    assert got.reps_effective["mle"] > 0
    assert got == want
    assert got.rows == want.rows


def test_lengths_are_summed_left_to_right():
    # a running sum keeps 1.0; pairwise or compensated sums pick up the tail
    high = np.array([1.0] + [1e-16] * 399)
    assert np.sum(high) != 1.0
    stats = _interval_stats(np.zeros(400), high, 0.5)
    assert stats.ciml == 1.0 / 400
    assert stats.coverage == 1 / 400


def test_domain_errors_other_than_the_ridge_propagate(monkeypatch):
    def indefinite(a, p):
        return np.broadcast_to(np.array([[1.0, 2.0], [2.0, 1.0]]), np.shape(a) + (2, 2))

    monkeypatch.setattr(estimation, "_cov_entries", indefinite)
    with pytest.raises(DomainError, match="positive semidefinite"):
        mc_mle_study(StudyConfig(a=0.5, p=0.3, n=199, reps=5, master_seed=1))
