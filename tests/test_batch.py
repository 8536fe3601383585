"""The batched Monte Carlo engine against the scalar code it replaces.

simulate_counts_batch, fit_mle_batch and mle_ci_batch must reproduce the
one-replication-at-a-time path bit for bit, and mc_mle_study and
mc_estimator_comparison must report exactly what the plain loops in
``oracles.mc_mle_study_reference`` and
``oracles.mc_estimator_comparison_reference`` report.
fit_mle and fit_mle_batch share one fitting core, which must reproduce the
scalar ``oracles.fit_mle_reference`` bit for bit.
"""

import collections
import concurrent.futures
import contextlib
import itertools
import math
import os
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from copulachain import chain, estimation, montecarlo
from copulachain.chain import (
    BLOCK_STEPS,
    ModelParams,
    TransitionCounts,
    simulate_bernoulli_chain,
    simulate_counts_batch,
    transition_counts,
    validate_count_table,
)
from copulachain.errors import DegenerateData, DomainError
from copulachain.estimation import (
    _DEGENERATE,
    FIT_A0_EDGE,
    FIT_HALF,
    FIT_INTERIOR,
    FIT_NEVER_LEFT,
    FIT_NO_MAXIMUM,
    _loglik_less,
    fit_mle,
    fit_mle_batch,
    mle_ci,
    mle_ci_batch,
)
from copulachain.montecarlo import (
    COMPARISON_ESTIMATORS,
    StudyConfig,
    _interval_stats,
    mc_estimator_comparison,
    mc_mle_study,
)
from copulachain.rng import derive_seed, derive_seeds

from oracles import (
    _branch_candidates,
    edge_candidate_reference,
    edge_closed_form_reference,
    fit_mle_reference,
    golden_candidate_reference,
    loglik_less_reference,
    mc_estimator_comparison_reference,
    mc_mle_study_reference,
    quartic_coefficients,
)

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


REASONS = {message: code for code, message in _DEGENERATE.items()}


def _hex(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def _fit_fields(fit_row, row):
    """(outcome, a, p, loglik, cov) of one fit of ``row``, as hex strings.

    A DegenerateData gives the reason code of its message, its a and p,
    and None for the rest.
    """
    try:
        fit = fit_row(TransitionCounts(*row))
    except DegenerateData as exc:
        assert exc.method == "mle"
        return _hex([REASONS[str(exc)], exc.a, exc.p, None, None])
    code = FIT_HALF if fit.cov is None else FIT_INTERIOR
    cov = None if fit.cov is None else tuple(_hex(fit.cov.entries.ravel().tolist()))
    return _hex([code, fit.params.a, fit.params.p, fit.loglik, cov])


def _assert_core_matches_reference(table):
    """fit_mle row by row and one fit_mle_batch call against fit_mle_reference.

    Returns the outcome codes reached.
    """
    batch = fit_mle_batch(table)
    for i, row in enumerate(table.tolist()):
        want = _fit_fields(fit_mle_reference, row)
        assert _fit_fields(fit_mle, row) == want, row
        assert _hex([int(batch.outcome[i]), float(batch.a[i]), float(batch.p[i])]) == want[:3], row
    return set(batch.outcome.tolist())


def _edge_tables(rng, count, max_n):
    """Random realizable tables with n00 == 0, n11 == 0 or both."""
    rows = []
    while len(rows) < count:
        x0 = int(rng.integers(2))
        n01 = int(rng.integers(max_n // 2))
        n10 = n01 + x0 - int(rng.integers(2))  # n01 - n10 + x0 is 0 or 1
        n00, n11 = rng.integers(max_n // 2, size=2).tolist()
        zero = int(rng.integers(1, 4))
        n00, n11 = (0 if zero & 1 else n00), (0 if zero & 2 else n11)
        try:
            rows.append(_row(TransitionCounts(x0, n00, n01, n10, n11)))
        except DomainError:
            continue
    return np.array(rows)


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


@pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("n", [1, BLOCK_STEPS + 9])  # the second spans two segments
def test_engine_tables_pass_validation_unchanged(n, p):
    # simulate_counts_batch returns its table unvalidated: the fitting core
    # validates it where it enters, so every engine table must pass as is
    table = simulate_counts_batch(ModelParams(0.6, p), n, [derive_seed(9, 1, r) for r in range(4)])
    assert table.dtype == np.int64
    assert np.array_equal(validate_count_table(table), table)


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


@pytest.mark.parametrize(
    "row",
    [(0, 2**62, 1, 1, 2**62), (0, 2**63 - 4, 1, 1, 1), (0, 2**63, 1, 1, 5)],
    ids=["n_wraps", "n_plus_one_wraps", "count_past_int64"],
)
def test_counts_past_the_int64_limit_are_refused(row):
    # the first row's n = 2**63 + 2 once wrapped to a negative n in the
    # fitting core, and the last row's count once raised OverflowError
    counts = TransitionCounts(*row)
    table = np.array([row], dtype=np.uint64)
    for fit in (fit_mle, mle_ci, lambda _: fit_mle_batch(table), lambda _: validate_count_table(table)):
        with pytest.raises(DomainError, match=r"n \+ 1 <= 2\*\*63 - 1"):
            fit(counts)
    if max(row) <= chain.INT64_MAX:
        with pytest.raises(DomainError, match=r"n \+ 1 <= 2\*\*63 - 1"):
            fit_mle_batch(table.astype(np.int64))


def test_counts_up_to_the_int64_limit_are_accepted():
    row = (0, 2**63 - 5, 1, 1, 1)  # n + 1 = 2**63 - 1
    assert validate_count_table(np.array([row], dtype=np.uint64)).dtype == np.int64
    try:
        fit_mle(TransitionCounts(*row))
    except DegenerateData:
        pass  # a degenerate fit is an answer; a DomainError would not be


# -- fitting ------------------------------------------------------------------


def test_quartic_end_coefficients_never_vanish_on_batched_rows():
    # with n00 > 0 and n11 > 0, c4 = 2 n00 and c0 = lam2 n00 (x0 - n10 - n11)
    # are nonzero, so np.roots trims no coefficient of these rows' quartics
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
    # the set reaches both fitted outcomes and two degenerate reasons
    assert set(np.unique(fit.outcome).tolist()) == {FIT_INTERIOR, FIT_HALF, FIT_NEVER_LEFT, FIT_A0_EDGE}


def test_exhaustive_small_n_matches_reference():
    t = _small_tables(20)
    assert len(t) == 3120
    assert _assert_core_matches_reference(t) == {FIT_INTERIOR, FIT_HALF, FIT_NEVER_LEFT, FIT_A0_EDGE}


def _trimmed_tables():
    # n00 == 0 zeroes a branch's whole quartic, which np.roots gives no
    # roots; x0 = 1, n10 = 1, n11 = 0 zeroes c0 alone, and np.roots solves
    # the cubic that remains
    rng = np.random.default_rng(7)
    one_visit = [(1, n00, n01, 1, 0) for n00 in range(1, 61) for n01 in (0, 1)]
    one_visit += [(1 - x0, n11, n10, n01, n00) for x0, n00, n01, n10, n11 in one_visit]
    return np.concatenate((_edge_tables(rng, 200, 60), _edge_tables(rng, 100, 4000), one_visit))


def _large_n_tables():
    # expected counts of a=.5, p=.3, and an n00 == 0 table, at n on both
    # sides of the int64 coefficient bound
    rows = []
    for n in (12, 999, 10**5, 10**5 + 1, 10**6, 10**9, 10**10):
        n01 = n10 = n11 = round(0.15 * n)
        rows.append((0, n - n01 - n10 - n11, n01, n10, n11))
        rows.append((1, 0, n // 3, n // 3, n - 2 * (n // 3)))
    return np.array(rows)


def test_a_root_repeated_by_the_eigenvalue_call_leaves_the_fit_unchanged(monkeypatch):
    # the core keeps no list of the roots it has seen: a root the eigenvalue
    # call returns twice fills two slots, which score the same, and the
    # winner's argmax keeps the first.  No table met so far has such a pair,
    # so the patched call copies each matrix's first root in the window
    # (0, 1/2) over its first root outside it
    shapes = ((0.5, 0.3, 999), (0.1, 0.1, 49), (0.5, 0.7, 999), (0.9, 0.4, 199))
    tables = [simulate_counts_batch(ModelParams(a, p), n, range(200)) for a, p, n in shapes]
    want = [_fit_bits(fit_mle_batch(t)) for t in tables]
    eigvals = np.linalg.eigvals
    repeated = []

    def repeating(m):
        w = eigvals(m).astype(complex)
        inside = (np.abs(w.imag) < 1e-6) & (0.0 < w.real) & (w.real < 0.5)
        i = (inside.any(axis=1) & ~inside.all(axis=1)).nonzero()[0]
        w[i, (~inside[i]).argmax(axis=1)] = w[i, inside[i].argmax(axis=1)]
        repeated.append(len(i))
        return w

    monkeypatch.setattr(np.linalg, "eigvals", repeating)
    for t, bits in zip(tables, want):
        assert np.array_equal(_fit_bits(fit_mle_batch(t)), bits)
    assert sum(repeated) > 500


def test_trimmed_quartics_match_reference():
    # the core must group rows by trimmed degree
    t = _trimmed_tables()
    spans = set()
    for row in t.tolist():
        for branch in (TransitionCounts(*row), TransitionCounts(*row).flipped()):
            ws = quartic_coefficients(branch)
            spans.add((tuple(c != 0 for c in ws.coeffs), bool(_branch_candidates(branch, ws))))
    assert ((False,) * 5, False) in spans
    assert ((True,) * 4 + (False,), True) in spans  # roots of a trimmed cubic win candidates
    assert _assert_core_matches_reference(t) == {FIT_INTERIOR, FIT_NEVER_LEFT, FIT_A0_EDGE}


def test_large_n_rows_take_exact_coefficients():
    # above the int64 coefficient bound the whole table takes Python-int
    # coefficients, which the biggest rows need
    t = _large_n_tables()
    assert max(map(abs, quartic_coefficients(TransitionCounts(*t[-2].tolist())).coeffs)) > 2**63
    _assert_core_matches_reference(t)
    fit, low, high = mle_ci_batch(t)
    for i, row in enumerate(t):
        assert _batch_ci(fit, low, high, i) == _scalar_ci(row)
    assert all(fit.outcome[::2] == FIT_INTERIOR)


def _branch_rows(t):
    """Both branches of every row of t, as (1, x0, n00, n01, n10, n11) rows."""
    flipped = np.column_stack((1 - t[:, 0], t[:, :0:-1]))
    return np.column_stack((np.ones(2 * len(t), dtype=t.dtype), np.concatenate((t, flipped))))


def _certificate_corpus():
    # (table, wide) pairs: every table with n <= 20; simulated tables at small
    # and large a, p on both sides of 1/2 and next to it, where the fitted
    # p lands near 1/2; and the tables beyond the int64 coefficient bound
    yield _small_tables(20), False
    for a, p in itertools.product((0.05, 0.5, 0.9), (0.02, 0.3, 0.45, 0.5, 0.55, 0.8)):
        for n, reps in ((9, 400), (49, 400), (199, 400), (999, 400), (9_999, 40)):
            yield simulate_counts_batch(ModelParams(a, p), n, range(reps)), False
    yield _large_n_tables(), True


def test_certified_branches_hold_no_candidate(monkeypatch):
    # every branch the lens certificate spares the eigenvalue call is solved
    # in full here, eigvals, polishing and all: none may hold an admissible
    # slot.  The certificate must also hold in exact arithmetic: the integer
    # quartic, carried through _LENS in Python ints, has five coefficients of
    # one strict sign.  Every branch gets the same slots, a and p with the
    # certificate as without it
    lens = estimation._LENS.astype(np.int64).astype(object)
    root_free = estimation._root_free
    spared = total = 0
    for t, wide in _certificate_corpus():
        b = _branch_rows(t)
        b = b.astype(object) if wide else b
        want = estimation._quartic_candidates(b)
        exact = estimation._quartic_table(b.astype(object))
        certified = root_free(exact.astype(float))
        monkeypatch.setattr(estimation, "_root_free", lambda c: np.zeros(len(c), dtype=bool))
        ok, a, r, _ = estimation._quartic_candidates(b)
        monkeypatch.setattr(estimation, "_root_free", root_free)
        assert not ok[certified].any(), b[certified & ok.any(axis=1)][:5].tolist()
        s = exact[certified] @ lens
        assert ((s > 0).all(axis=1) | (s < 0).all(axis=1)).all()
        assert np.array_equal(want[0], ok)
        assert np.array_equal(want[1][ok], a[ok]) and np.array_equal(want[2][ok], r[ok])
        spared += certified.sum()
        total += len(b)
    assert total > 60_000 and spared > total // 4


def test_the_certificate_spares_the_relabeled_branch_at_the_interior_benchmark_shape(monkeypatch):
    # at (a, p) = (.5, .3), n = 999, every fitted p is well below 1/2: the
    # eigenvalue call solves the 400 p < 1/2 branches and none of the 400
    # relabeled ones
    cfg = StudyConfig(0.5, 0.3, 999, 400, master_seed=0)
    t = simulate_counts_batch(cfg.params, cfg.n, derive_seeds(cfg.master_seed, montecarlo.STREAM_PATH, count=cfg.reps))
    b = _branch_rows(t)
    certified = estimation._root_free(estimation._quartic_table(b).astype(float))
    assert certified.tolist() == [False] * 400 + [True] * 400
    solved = []
    eigvals = np.linalg.eigvals

    def counted(m):
        solved.append(len(m))
        return eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    report = mc_mle_study(cfg)
    assert sum(solved) == 400
    assert report == mc_mle_study_reference(cfg)


def test_rootless_tables_match_reference():
    # an interior maximum zeroes the score, so it is a quartic root: where
    # neither branch has an admissible root the core fits no interior point,
    # and fit_mle_reference still runs its profile-likelihood search
    rootless, searched = [], []
    for row in _small_tables(14).tolist():
        counts = TransitionCounts(*row)
        if counts.n00 + counts.n01 == 0 or counts.n10 + counts.n11 == 0:
            continue
        branches = [(c, quartic_coefficients(c)) for c in (counts, counts.flipped())]
        if not any(_branch_candidates(c, ws) for c, ws in branches):
            rootless.append(row)
            if any(golden_candidate_reference(c, ws) is not None for c, ws in branches):
                searched.append(row)
    assert len(rootless) == 282 and len(searched) == 18
    assert _assert_core_matches_reference(np.array(rootless)) == {FIT_HALF, FIT_A0_EDGE}
    # what the search finds sits at the end of its grid, p = 1/2 - 1e-6,
    # and loses to the p = 1/2 solution
    assert set(fit_mle_batch(np.array(searched)).outcome.tolist()) == {FIT_HALF}


def _sign_change_near(lam1, lam2, p):
    """Whether 2 x^2 - lam1 x + lam2, exactly, changes sign within 2**-50 of p."""
    below, above = Fraction(p) - Fraction(1, 2**50), Fraction(p) + Fraction(1, 2**50)
    return (2 * below**2 - lam1 * below + lam2) * (2 * above**2 - lam1 * above + lam2) <= 0


def test_closed_form_edge_matches_the_search_it_replaced():
    # every branch whose a = 0 edge the core scores, on the tables above and
    # on one whose edge root, ~1e-7, lies below the search's grid: there the
    # closed form must beat the grid-bounded search
    below_grid = [0, 10**7, 1, 1, 0]
    tables = np.concatenate((_small_tables(), _trimmed_tables(), _large_n_tables(), [below_grid]))
    end = estimation._snap(0.5 - estimation._EDGE_LO)
    roots = at_end = 0
    for row in tables.tolist():
        counts = TransitionCounts(*row)
        if counts.n00 + counts.n01 == 0 or counts.n10 + counts.n11 == 0:
            continue
        for branch in (counts, counts.flipped()):
            if branch.n11 != 0:
                continue
            ws = quartic_coefficients(branch)
            ll, p = edge_closed_form_reference(branch)
            ll_ref, p_ref = edge_candidate_reference(branch)
            assert ll >= ll_ref - 1e-12 * (1.0 + abs(ll_ref)), row
            if row == below_grid:
                assert ll > ll_ref
            else:
                assert abs(p - p_ref) <= 1e-8, row
            if p == end:
                at_end += 1
            else:
                roots += 1
                assert _sign_change_near(ws.lam1, ws.lam2, p), row
    assert roots == 681 and at_end == 258


def test_edge_roots_below_1e_6_are_not_clamped():
    # the edge root of this table is ~1e-7, and its likelihood there beats
    # the p = 1/2 solution's
    counts = TransitionCounts(1, 10**7, 0, 1, 0)
    with pytest.raises(DegenerateData) as exc:
        fit_mle(counts)
    assert str(exc.value) == _DEGENERATE[FIT_A0_EDGE]
    assert exc.value.a == 0.0 and exc.value.p == pytest.approx(1e-7, rel=1e-6)
    ll, p = edge_closed_form_reference(counts)
    assert p == exc.value.p and ll == pytest.approx(-17.118, abs=1e-3)
    assert loglik_less_reference(counts, (counts.n00 + counts.n11) / counts.n, 0.5) == pytest.approx(-17.81, abs=1e-2)


@pytest.mark.parametrize("a, p, n", [(0.5, 0.3, 999), (0.1, 0.1, 49), (0.5, 0.7, 999)])
def test_fit_loglik_is_the_score_the_core_ranked(a, p, n):
    # the core ranks each candidate by its likelihood on its branch, the
    # p >= 1/2 one relabeled; fit_mle reports that value bit for bit
    t = simulate_counts_batch(ModelParams(a, p), n, range(200))
    fit = fit_mle_batch(t)
    interior = np.flatnonzero(fit.outcome == FIT_INTERIOR)
    assert len(interior) > 50
    for i in interior.tolist():
        counts = TransitionCounts(*t[i].tolist())
        a_hat, p_hat = float(fit.a[i]), float(fit.p[i])
        if p_hat < 0.5:
            ranked = loglik_less_reference(counts, a_hat, p_hat)
        else:
            ranked = loglik_less_reference(counts.flipped(), a_hat, 1.0 - p_hat)
        assert fit_mle(counts).loglik == ranked, t[i].tolist()


def test_loglik_on_columns_equals_the_row_call():
    # the core scores columns of rows with math.log mapped over the entries:
    # every row must come out as the scalar math.log reference has it, bit
    # for bit, including a = 0 edge scores (n11 = 0), p = 1/2 and counts
    # past 2**53
    rng = np.random.default_rng(18)
    m = 6000
    t = rng.integers(0, 50, size=(m, 5))
    t[:, 0] = rng.integers(0, 2, m)
    t[m // 3 : 2 * m // 3, 1:] = rng.integers(2**53, 2**62, size=(m // 3, 4)) | 1
    t[rng.random(m) < 0.3, 4] = 0
    a = rng.random(m)
    p = 0.5 - 0.5 * rng.random(m)  # in (0, 1/2]
    p[rng.random(m) < 0.2] = 0.5
    a[(t[:, 4] == 0) & (p < 0.5) & (rng.random(m) < 0.5)] = 0.0  # d = a p + 1 - 2p > 0
    assert (a == 0.0).sum() > 500 and (p == 0.5).sum() > 1000
    columns = _loglik_less(t.T, a, p)
    cells = collections.namedtuple("Cells", "x0 n00 n01 n10 n11")
    rows = [loglik_less_reference(cells(*row), ai, pi) for row, ai, pi in zip(t.tolist(), a.tolist(), p.tolist())]
    assert columns.dtype == float and columns.tobytes() == np.array(rows).tobytes()


def test_the_core_scores_all_candidates_in_one_call(monkeypatch):
    # every score the core ranks comes from one columns call: on the study
    # table of (.5, .3, n = 999), all interior, and on the mc_boundary study
    # tables of (.1, .1, n = 49), whose a = 0 edge rows join the same call.
    # fit_mle reports the score the core ranked and calls loglik no more
    calls = []

    def counting(*args):
        calls.append(len(args[1]))
        return _loglik_less(*args)

    def scored_twice(*args):
        raise AssertionError("fit_mle scored its winner a second time")

    monkeypatch.setattr(estimation, "_loglik_less", counting)
    monkeypatch.setattr(estimation, "loglik", scored_twice)
    t = simulate_counts_batch(ModelParams(0.5, 0.3), 999, range(400))
    assert np.all(t[:, [1, 4]] > 0)
    fit = fit_mle_batch(t)
    assert len(calls) == 1 and calls[0] > len(t)
    assert np.all(fit.outcome == FIT_INTERIOR)
    edges = 0
    for study in range(32):
        t = simulate_counts_batch(ModelParams(0.1, 0.1), 49, [derive_seed(study, 1, r) for r in range(5)])
        calls.clear()
        edges += np.count_nonzero(fit_mle_batch(t).outcome == FIT_A0_EDGE)
        assert len(calls) == 1
        for row in t.tolist():
            calls.clear()
            try:
                fit_mle(TransitionCounts(*row))
            except DegenerateData:
                pass
            assert len(calls) == 1, row
    assert edges > 10


def _ranked_score(row, code, a, p):
    """The score MleBatch.loglik must hold for ``row`` fitted as (code, a, p), by the oracles."""
    counts = TransitionCounts(*row)
    if code in (FIT_INTERIOR, FIT_HALF):
        if p <= 0.5:
            return loglik_less_reference(counts, a, p)
        return loglik_less_reference(counts.flipped(), a, 1.0 - p)
    if code == FIT_A0_EDGE:
        found = None
        for branch, flip in ((counts, False), (counts.flipped(), True)):
            if branch.n11 == 0:
                ll, p_e = edge_closed_form_reference(branch)
                if found is None or ll > found[0]:
                    found = (ll, 1.0 - p_e if flip else p_e)
        assert found[1] == p, row
        return found[0]
    return float("nan")


# rows whose lam1^2 passes int64: the first one's edge is lost if
# D = lam1^2 - 8 lam2 is formed in int64, the second one's p if in float
WIDE_EDGE_ROWS = [(1, 4 * 10**9, 0, 1, 0), (0, 14_685_871_000, 37_709_805, 37_709_805, 0)]
# a = 2 / n ~ 1.2e-16 rounds the p = 1/2 solution's d = a / 2 + 1 - 1 to 0
TINY_HALF_A_ROW = (1, 1, 8584453870210847, 8584453870210847, 1)


def test_batch_loglik_is_the_score_the_core_ranked():
    # interior and p = 1/2 rows hold the reference score of the winning
    # branch, edge rows the closed-form edge supremum, the rest NaN; the
    # last row has no maximum, as its p = 1/2 solution is not scored
    t = np.concatenate((_small_tables(30), _large_n_tables(), WIDE_EDGE_ROWS, [TINY_HALF_A_ROW]))
    assert len(t) == 9980 + 14 + 3
    fit = fit_mle_batch(t)
    codes = set()
    for row, code, a, p, ll in zip(t.tolist(), fit.outcome.tolist(), fit.a.tolist(), fit.p.tolist(), fit.loglik.tolist()):
        assert _hex([ll]) == _hex([_ranked_score(row, code, a, p)]), row
        codes.add(code)
    assert codes == {FIT_INTERIOR, FIT_HALF, FIT_NEVER_LEFT, FIT_A0_EDGE, FIT_NO_MAXIMUM}
    assert fit.outcome[-3:].tolist() == [FIT_A0_EDGE, FIT_A0_EDGE, FIT_NO_MAXIMUM]
    assert fit.p[-3] == 2.5000002068509275e-10


def test_loglik_on_one_row_equals_the_reference():
    # loglik runs the columns formula on a one-row table whose counts keep
    # their own dtype, so counts past int64 stay exact; p > 1/2 goes
    # through the relabeled counts
    rng = np.random.default_rng(19)
    rows = [(0, 10**20, 3, 3, 5), (1, 10**20, 10**20, 10**20 + 1, 0), (1, 2**63, 2**64 - 1, 2**64 - 1, 7)]
    while len(rows) < 3000:
        x0, n01 = int(rng.integers(2)), int(10 ** rng.uniform(0, 25))
        n00, n11 = (int(10 ** rng.uniform(0, 25)) * int(rng.random() < 0.9) for _ in range(2))
        row = (x0, n00, n01, n01 + x0 - int(rng.integers(2)), n11)
        try:
            TransitionCounts(*row)
        except DomainError:
            continue
        rows.append(row)
    geq = 0
    for row in rows:
        counts = TransitionCounts(*row)
        a, p = rng.uniform(0.001, 0.999, 2)
        if rng.random() < 0.1:
            p = 0.5
        params = ModelParams(a, p)
        if params.regime is chain.Regime.GEQ_HALF:
            geq += 1
            want = loglik_less_reference(counts.flipped(), a, 1.0 - p)
        else:
            want = loglik_less_reference(counts, a, p)
        assert estimation.loglik(counts, params).hex() == want.hex(), (row, a, p)
    assert geq > 1000


def _fit_bits(fit):
    """(outcome, a, p, loglik) of each row of an MleBatch, as (R, 4) bit patterns."""
    return np.column_stack((fit.outcome.astype(float), fit.a, fit.p, fit.loglik)).view(np.uint64)


def test_a_rows_fit_does_not_depend_on_its_table():
    # the core picks the integer types of the quartic, of the edge
    # discriminant and of the boundary division by the table's largest n:
    # fitted as one table, one row at a time and in random sub-tables, every
    # row must come out the same to the bit
    t = np.concatenate((_small_tables(30), _large_n_tables(), WIDE_EDGE_ROWS, [TINY_HALF_A_ROW], _trimmed_tables()))
    want = _fit_bits(fit_mle_batch(t))
    rows = np.concatenate([_fit_bits(fit_mle_batch(row[None])) for row in t])
    bad = np.flatnonzero((rows != want).any(axis=1))
    assert not len(bad), t[bad[:5]].tolist()
    rng = np.random.default_rng(22)
    order = rng.permutation(len(t))
    cuts = np.cumsum(rng.integers(1, 13, size=len(t)))
    mixed = 0
    for idx in np.split(order, cuts[cuts < len(t)]):
        bad = np.flatnonzero((_fit_bits(fit_mle_batch(t[idx])) != want[idx]).any(axis=1))
        assert not len(bad), t[idx[bad]].tolist()
        n = t[idx, 1:].sum(axis=1)
        mixed += n.max() > estimation._INT64_MAX_N >= n.min()
    assert mixed > 10


@pytest.mark.parametrize("row", [
    (0, estimation._INT64_MAX_N - 4, 2, 2, 0),  # n = _INT64_MAX_N, the largest n fitted in int64
    (0, estimation._INT64_MAX_N - 3, 2, 2, 0),  # n = _INT64_MAX_N + 1, the smallest fitted in Python ints
    (1, math.isqrt(2**63 - 1) - 3, 0, 1, 0),  # the largest lam1 = n00 + 3 whose square fits int64
    (1, math.isqrt(2**63 - 1) - 2, 0, 1, 0),  # the smallest whose square does not
    (1, 2**63 - 6, 2, 2, 0),  # lam1 = n + 3 above 2^63 - 1 itself
], ids=lambda row: str(quartic_coefficients(TransitionCounts(*row)).lam1))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_edge_discriminant_on_both_sides_of_the_int64_threshold(row):
    # the likelihood of each row climbs to the a = 0 edge of its p < 1/2
    # branch.  D = lam1^2 - 8 lam2 is formed in int64 only in a table whose
    # rows all have n up to _INT64_MAX_N, where lam1 <= 2 n + 3 keeps lam1^2
    # far below 2^63.  Any other table forms it from Python ints, as does
    # each row here when fitted beside a row of n = 5e9.  So do the
    # aggregates: once int64 in such a table, lam1 of the last row wrapped,
    # and it fitted the edge at p = 0.499999 with a divide-by-zero warning
    assert (2 * estimation._INT64_MAX_N + 3) ** 2 < 2**63 <= (math.isqrt(2**63 - 1) + 1) ** 2
    counts = TransitionCounts(*row)
    ll, p = edge_closed_form_reference(counts)
    for fit in (fit_mle_batch(np.array([row])), fit_mle_batch(np.array([row, (0, 5 * 10**9, 1, 0, 0)]))):
        assert fit.outcome[0] == FIT_A0_EDGE
        assert (fit.p[0].hex(), fit.loglik[0].hex()) == (p.hex(), ll.hex())


def test_an_edge_root_below_2_to_the_minus_54_is_floored():
    # the edge root of this row, ~7e-19, once snapped to p = 0 and raised a
    # bare ValueError from math.log(0); it now sits on the floor 2**-53
    row = (1, 7 * 10**17, 5, 5, 0)
    counts = TransitionCounts(*row)
    for fit in (fit_mle, mle_ci):
        with pytest.raises(DegenerateData) as exc:
            fit(counts)
        assert str(exc.value) == _DEGENERATE[FIT_A0_EDGE] and exc.value.p == 2.0**-53
    batch = fit_mle_batch(np.array([row]))
    assert batch.outcome.tolist() == [FIT_A0_EDGE] and batch.p[0] == 2.0**-53
    assert batch.loglik[0] == edge_closed_form_reference(counts)[0]
    _assert_core_matches_reference(np.array([row]))


def test_a_half_solution_with_a_below_2_to_the_minus_52_is_not_scored():
    # its p = 1/2 solution once raised a bare ValueError from math.log(0)
    row = TINY_HALF_A_ROW
    counts = TransitionCounts(*row)
    for fit in (fit_mle, mle_ci, fit_mle_reference):
        with pytest.raises(DegenerateData, match="no interior"):
            fit(counts)
    batch = fit_mle_batch(np.array([row]))
    assert batch.outcome.tolist() == [FIT_NO_MAXIMUM] and 0.0 < batch.a[0] <= 2.0**-52


def test_boundary_a_and_p_above_2_to_the_53_are_correctly_rounded():
    # from n + 1 > 2^53 on, int64 columns divided by numpy are rounded to
    # float first: both rows once came out an ulp off the exact ratios
    t = np.array([TINY_HALF_A_ROW, (0, 253202295259965551, 1, 0, 0)])
    assert _assert_core_matches_reference(t) == {FIT_NO_MAXIMUM, FIT_NEVER_LEFT}
    fit = fit_mle_batch(t)
    big = 8584453870210847
    assert fit.p[0] == (big + 2) / (2 * big + 3) == 0.5
    assert (fit.a[1], fit.p[1]) == (253202295259965551 / 253202295259965552, 1 / 253202295259965553)


def test_maxima_a_few_ulps_from_the_ridge_go_to_p_half():
    # the only realizable tables with n <= 40 whose interior maximum, at a p
    # within 7e-16 of 1/2, does not beat the p = 1/2 solution
    t = np.array([(1, 6, 1, 1, 2), (0, 3, 2, 2, 5), (1, 5, 2, 2, 3), (1, 10, 2, 2, 6)])
    assert _assert_core_matches_reference(t) == {FIT_HALF}


def test_the_table_the_fallback_once_fitted_is_an_edge_fit():
    # the one known table where the core and fit_mle_reference disagree:
    # the reference's profile search accepts a point at a ~ 1e-11, and the
    # core, which runs no search, reports the a = 0 edge it sits on
    counts = TransitionCounts(0, 0, 1, 0, 400)
    with pytest.raises(DegenerateData) as exc:
        fit_mle(counts)
    assert str(exc.value) == _DEGENERATE[FIT_A0_EDGE]
    assert exc.value.a == 0.0 and exc.value.p == pytest.approx(0.99752, abs=1e-5)
    ref = fit_mle_reference(counts)
    assert ref.cov is not None and 0.0 < ref.params.a < 1e-10
    assert ref.params.p == pytest.approx(exc.value.p, abs=1e-12)


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


def test_boundary_studies_equal_reference_loop():
    # the benchmark's mc_boundary studies: about half the replications are
    # degenerate, on the a = 0 edge among other reasons
    degenerate = 0
    for seed in range(32):
        cfg = StudyConfig(a=0.1, p=0.1, n=49, reps=5, master_seed=seed)
        got = mc_mle_study(cfg, keep_rows=True)
        want = mc_mle_study_reference(cfg, keep_rows=True)
        assert got == want
        assert got.rows == want.rows
        degenerate += got.degenerate["mle"]
    assert 40 < degenerate < 120


# p < 1/2, p > 1/2 and p = 1/2 (fits on the ridge), degenerate-heavy small n,
# and two paths longer than BLOCK_STEPS, the benchmark's compare_long shape first
COMPARISON_CASES = [
    (0.5, 0.3, 999, 200),
    (0.1, 0.1, 49, 200),
    (0.5, 0.7, 199, 200),
    (0.5, 0.5, 99, 200),
    (0.9, 0.9, 19, 200),
    (0.5, 0.3, BLOCK_STEPS + 34_463, 3),
    (0.2, 0.6, BLOCK_STEPS + 4_464, 2),
]


@pytest.mark.parametrize(
    "case, estimators",
    [(c, e) for c in COMPARISON_CASES for e in (COMPARISON_ESTIMATORS, ("mean",), ("robust", "mle"))]
    + [(COMPARISON_CASES[1], ("mean", "robust", "mean", "mle"))],
    ids=lambda v: "-".join(map(str, v)),
)
def test_comparison_equals_reference_loop(case, estimators):
    a, p, n, reps = case
    cfg = StudyConfig(a=a, p=p, n=n, reps=reps, master_seed=23, estimators=estimators)
    got = mc_estimator_comparison(cfg, keep_rows=True)
    want = mc_estimator_comparison_reference(cfg, keep_rows=True)
    assert got == want
    assert got.rows == want.rows
    assert len(got.rows) == reps * len(set(estimators))


# 8 and 12 uniforms per engine block: 4-state paths share a block, and a
# 30-state path spans several segments that the engine joins into one row;
# at (.9, .9) most paths are constant, degenerate for every estimator
@pytest.mark.parametrize("block", [8, 12])
@pytest.mark.parametrize("n", [3, 29])
@pytest.mark.parametrize("a, p", [(0.5, 0.3), (0.5, 0.5), (0.4, 0.7), (0.9, 0.9)])
def test_comparison_with_small_blocks_equals_reference_loop(monkeypatch, a, p, n, block):
    monkeypatch.setattr(chain, "BLOCK_STEPS", block)
    cfg = StudyConfig(a=a, p=p, n=n, reps=40, master_seed=31, estimators=COMPARISON_ESTIMATORS)
    got = mc_estimator_comparison(cfg, keep_rows=True)
    want = mc_estimator_comparison_reference(cfg, keep_rows=True)
    assert got == want
    assert got.rows == want.rows
    if a == 0.9:
        assert got.degenerate["robust"] > 20


def _count_executors(monkeypatch):
    made, executor = [], concurrent.futures.ThreadPoolExecutor

    def counted(*args):
        made.append(args)
        return executor(*args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
    return made


@contextlib.contextmanager
def _pinned(cpus):
    # runs the calling thread, and the threads it starts, on at most `cpus`
    # of the CPUs it may use, where the platform can say which those are
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(allowed)[:cpus])
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# the name comes from when one CPU drew the noise inline; the worker now
# runs the same on one CPU as on two
@pytest.mark.parametrize("cpus", [1, 2])
def test_comparison_draws_noise_on_one_worker_only_with_a_second_cpu(monkeypatch, cpus):
    made, drawn_on, draw = _count_executors(monkeypatch), [], montecarlo._robust_noise

    def noted(*args):
        drawn_on[-1].add(threading.current_thread())
        return draw(*args)

    monkeypatch.setattr(montecarlo, "_robust_noise", noted)
    monkeypatch.setattr(chain, "BLOCK_STEPS", 4096)  # blocks of 4, 4 and 2 paths of 1024 states
    before = threading.enumerate()
    for n, estimators in [(1023, ("mle", "mean")), (49, COMPARISON_ESTIMATORS), (1023, COMPARISON_ESTIMATORS)]:
        drawn_on.append(set())
        cfg = StudyConfig(a=0.5, p=0.3, n=n, reps=10, master_seed=3, estimators=estimators)
        with _pinned(cpus):
            got = mc_estimator_comparison(cfg)
        assert got == mc_estimator_comparison_reference(cfg)
        assert threading.enumerate() == before
    # one worker for each study with the robust estimator, whatever its n,
    # and none without it
    assert drawn_on[0] == set()
    assert made == [(1,), (1,)]
    assert all(len(d) == 1 and threading.main_thread() not in d for d in drawn_on[1:])


def test_comparison_draws_noise_into_a_buffer_only_after_the_kernel_read_it(monkeypatch):
    # seven blocks of two paths take turns in two noise buffers: block k + 1
    # is drawn while block k is simulated, into the buffer that held block
    # k - 1's noise, which the kernel must have read by then
    cfg = StudyConfig(a=0.5, p=0.3, n=1023, reps=14, master_seed=3, estimators=COMPARISON_ESTIMATORS)
    want = mc_estimator_comparison_reference(cfg, keep_rows=True)
    events, draw, kernel = [], montecarlo._robust_noise, montecarlo._robust_rows

    def drawn(fill, seeds, out):
        events.append(("draw", out.ctypes.data))
        return draw(fill, seeds, out)

    def read(states, y, z):
        rows = kernel(states, y, z)
        events.append(("read", y.ctypes.data))
        return rows

    monkeypatch.setattr(montecarlo, "_robust_noise", drawn)
    monkeypatch.setattr(montecarlo, "_robust_rows", read)
    monkeypatch.setattr(chain, "BLOCK_STEPS", 2048)
    got = mc_estimator_comparison(cfg, keep_rows=True)
    assert [e for e, _ in events].count("draw") == [e for e, _ in events].count("read") == 7
    assert len({buffer for _, buffer in events}) <= 2
    unread = set()  # buffers drawn into whose noise the kernel has not read yet
    for event, buffer in events:
        if event == "draw":
            assert buffer not in unread
            unread.add(buffer)
        else:
            assert buffer in unread
            unread.remove(buffer)
    assert got == want
    assert got.rows == want.rows


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("failing_block", [0, 5])
def test_comparison_raises_the_noise_draws_own_exception_and_leaves_no_thread(monkeypatch, failing_block, cpus):
    error = RuntimeError("noise draw failed")
    calls, draw = [], montecarlo._robust_noise

    def broken(*args):
        calls.append(len(calls))
        if len(calls) > failing_block:
            raise error
        return draw(*args)

    monkeypatch.setattr(montecarlo, "_robust_noise", broken)
    monkeypatch.setattr(chain, "BLOCK_STEPS", 2048)  # seven blocks of two paths
    before = threading.enumerate()
    with _pinned(cpus), pytest.raises(RuntimeError) as exc:
        mc_estimator_comparison(StudyConfig(a=0.5, p=0.3, n=1023, reps=14, master_seed=3, estimators=("robust",)))
    assert exc.value is error
    assert len(calls) == failing_block + 1  # no draw is submitted after the failed one
    assert threading.enumerate() == before


def test_concurrent_comparisons_under_a_short_switch_interval_equal_the_reference(monkeypatch):
    # four studies at once, each with its noise worker, also on one CPU; at
    # 64 uniforms per block each path is scanned in 16 to 32 segments
    monkeypatch.setattr(chain, "BLOCK_STEPS", 64)
    configs = [
        StudyConfig(a=0.5, p=p, n=n, reps=12, master_seed=41, estimators=COMPARISON_ESTIMATORS)
        for n, p in [(1023, 0.3), (1299, 0.7), (1599, 0.5), (2047, 0.3)]
    ]
    want = [mc_estimator_comparison_reference(cfg, keep_rows=True) for cfg in configs]
    got = [None] * len(configs)

    def study(i):
        got[i] = mc_estimator_comparison(configs[i], keep_rows=True)

    threads = [threading.Thread(target=study, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert g == w
        assert g.rows == w.rows


def test_comparison_cases_reach_every_fit_outcome():
    # the reference loop is only a check where its routes are taken
    outcomes = set()
    for a, p, n, reps in COMPARISON_CASES[:5]:
        cfg = StudyConfig(a=a, p=p, n=n, reps=reps, master_seed=23, estimators=COMPARISON_ESTIMATORS)
        rep = mc_estimator_comparison(cfg)
        outcomes.add((rep.degenerate["mle"] > rep.degenerate["mean"], rep.degenerate["mean"] > 0))
    # some rows land on p = 1/2 (MLE degenerate, mean effective), some never
    # leave a state or hit the a = 0 edge (both degenerate), some are all interior
    assert outcomes == {(True, False), (False, True), (False, False)}


# The MLE study tallies its paths in simulate_counts_batch, the comparison with
# the robust estimator in its own loop over chain._paths: the same engine must
# give both the same fits.  At 64 uniforms per block the 499-step paths span
# eight segments.
@pytest.mark.parametrize(
    "a, p, n, block",
    [(0.5, 0.3, 999, BLOCK_STEPS), (0.1, 0.1, 49, BLOCK_STEPS), (0.5, 0.7, 199, BLOCK_STEPS),
     (0.5, 0.5, 99, BLOCK_STEPS), (0.35, 0.6, 499, 64)],
)
def test_mle_study_and_comparison_report_the_same_p(monkeypatch, a, p, n, block):
    monkeypatch.setattr(chain, "BLOCK_STEPS", block)
    mle = mc_mle_study(StudyConfig(a=a, p=p, n=n, reps=200, master_seed=29))
    cfg = StudyConfig(a=a, p=p, n=n, reps=200, master_seed=29, estimators=("mle", "robust"))
    comparison = mc_estimator_comparison(cfg)
    assert mle.stats["mle"]["p"] == comparison.stats["mle"]["p"]
    assert mle.degenerate["mle"] == comparison.degenerate["mle"]
    assert mle.degenerate["mle"] < 200  # p's statistics are numbers, not NaN


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
    with pytest.raises(DomainError, match="positive semidefinite"):
        mc_estimator_comparison(StudyConfig(a=0.5, p=0.3, n=199, reps=5, master_seed=1, estimators=("mean",)))
