"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way so it shares no code path
with the package: likelihoods are maximized by brute grid search, the chain
is simulated one step at a time, quantiles come from bisection, the profile
quartic is expanded from its aggregate form in Python ints, and the
finite-sample variance of the mean is an explicit double sum.  The
exceptions are mc_mle_study_reference and
mc_estimator_comparison_reference, the scalar loops that the batched
Monte Carlo studies must reproduce, fit_mle_reference, the scalar fit that
the one fitting core must reproduce, loglik_less_reference and
edge_closed_form_reference, the scalar math.log likelihood and a = 0 edge
supremum that it scores with and that every score of the core must equal
bit for bit, score_reference, the closed-form gradient of that likelihood,
at which every interior fit of the core must be stationary,
golden_candidate_reference, the profile-likelihood grid scan that
fit_mle_reference alone still runs where no quartic root is admissible,
edge_candidate_reference, the golden-section search that the closed-form
a = 0 edge supremum replaced, and path_to_csv_reference /
path_from_csv_reference, the row-by-row csv module writer and reader that
pathio must match byte for byte and error for error, and the *_reference
kernels below them, the earlier bodies of the per-path kernels (_scan, transition_counts, clt_variance,
mean_estimate, robust_estimate) that the leaner ones must reproduce bit for bit.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from copulachain.chain import (
    BinaryPath,
    ModelParams,
    PathOrigin,
    RealPath,
    Regime,
    TransitionCounts,
    simulate_bernoulli_chain,
    transition_counts,
    transition_matrix,
)
from copulachain.errors import DegenerateData, DomainError, EmptyData
from copulachain.estimation import (
    _BRANCH_TIE_TOL,
    _EDGE_LO,
    _EDGE_TOL,
    _IMAG_TOL,
    Estimate,
    MleFit,
    _check_alpha,
    _profile,
    _snap,
    asymptotic_cov,
    normal_bounds,
)
from copulachain.montecarlo import STREAM_PATH, STREAM_ROBUST, MCReport, ParamStats, RepRecord
from copulachain.rng import derive_seed, make_generator

_FALLBACK_LO = 1e-6  # both searches below scan p over [_FALLBACK_LO, 1/2 - _FALLBACK_LO]


def loglik_grid(counts, a_grid, p_grid):
    """Log-likelihood surface over an (a, p) mesh, -inf where undefined.

    ``p_grid`` is sorted, so its columns below 1/2 and from 1/2 on form two
    slices; each branch is evaluated on its own slice only, and the terms
    that depend on a or on p alone are computed on the 1-d grid and
    broadcast.
    """
    A = np.asarray(a_grid, dtype=float)[:, None]
    P = np.asarray(p_grid, dtype=float)
    k = int(np.searchsorted(P, 0.5))  # P[:k] < 0.5 <= P[k:]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a, log_1a = np.log(A), np.log(1.0 - A)
        marginal = counts.x0 * np.log(P) + (1 - counts.x0) * np.log(1.0 - P)
        less, geq = P[:k], P[k:]
        p00 = (A * less + 1.0 - 2.0 * less) / (1.0 - less)
        p11 = (A * (1.0 - geq) + 2.0 * geq - 1.0) / geq
        ll = np.empty((A.size, P.size))
        ll[:, :k] = (
            marginal[:k] + counts.n00 * np.log(p00) + counts.n01 * np.log(1.0 - p00)
            + counts.n10 * log_1a + counts.n11 * log_a
        )
        ll[:, k:] = (
            marginal[k:] + counts.n00 * log_a + counts.n01 * log_1a
            + counts.n10 * np.log(1.0 - p11) + counts.n11 * np.log(p11)
        )
    return np.where(np.isfinite(ll), ll, -np.inf)


def grid_mle(counts, coarse=800, refine=3):
    """Brute-force likelihood maximizer: coarse mesh plus window refinement.

    Returns (a_hat, p_hat, loglik); the argmax is located to roughly 1e-6
    in each coordinate after three zoom stages.
    """
    lo_a, hi_a = 1e-7, 1.0 - 1e-7
    lo_p, hi_p = 1e-7, 1.0 - 1e-7
    best = None
    for stage in range(refine + 1):
        a_grid = np.linspace(lo_a, hi_a, coarse)
        p_grid = np.linspace(lo_p, hi_p, coarse + 1)
        ll = loglik_grid(counts, a_grid, p_grid)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        best = (float(a_grid[i]), float(p_grid[j]), float(ll[i, j]))
        da = a_grid[1] - a_grid[0]
        dp = p_grid[1] - p_grid[0]
        lo_a, hi_a = max(1e-9, best[0] - 2 * da), min(1.0 - 1e-9, best[0] + 2 * da)
        lo_p, hi_p = max(1e-9, best[1] - 2 * dp), min(1.0 - 1e-9, best[1] + 2 * dp)
    return best


def simulate_reference(params, n, seed):
    """Sequential one-step-at-a-time simulation with the same draw stream."""
    u = make_generator(seed).random(n + 1)
    mat = transition_matrix(params).entries
    x = 1 if u[0] < params.p else 0
    states = [x]
    for t in range(1, n + 1):
        x = 1 if u[t] < mat[x, 1] else 0
        states.append(x)
    return np.array(states, dtype=np.int8)


def exact_var_scaled_mean(a, p, n):
    """(n+1) Var(mean of X_0..X_n) computed from the explicit double sum.

    Cov(X_i, X_j) = p(1-p) lambda^{|i-j|} with lambda the second eigenvalue,
    so the sum collapses to a single pass over the lags.
    """
    lam = (a - p) / (1.0 - p) if p < 0.5 else (a + p - 1.0) / p
    m = n + 1
    total = float(m)
    for k in range(1, m):
        total += 2.0 * (m - k) * lam**k
        if abs(lam) ** k * m < 1e-18:
            break
    return p * (1.0 - p) * total / m


def quantile_bisect(q, lo=-13.0, hi=13.0):
    """Standard normal quantile by bisection on the erfc-based CDF."""
    def cdf(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def path_from_counts(counts):
    """Build a path realizing the given transition counts.

    Greedy: consume self-loops at the current state first, then cross.
    Valid whenever the counts satisfy the path parity constraint.
    """
    remaining = {
        (0, 0): counts.n00,
        (0, 1): counts.n01,
        (1, 0): counts.n10,
        (1, 1): counts.n11,
    }
    state = counts.x0
    states = [state]
    for _ in range(counts.n):
        if remaining[(state, state)] > 0:
            remaining[(state, state)] -= 1
        else:
            remaining[(state, 1 - state)] -= 1
            state = 1 - state
        states.append(state)
    if any(v != 0 for v in remaining.values()):
        raise ValueError(f"counts not realizable by the greedy builder: {counts}")
    arr = np.array(states, dtype=np.int8)
    return BinaryPath(states=arr, origin=PathOrigin(kind="loaded", seed=None, a=None, p=None))


def runs_count(x):
    """Number of runs of equal consecutive symbols."""
    x = np.asarray(x)
    return int(1 + np.sum(x[1:] != x[:-1]))


def mc_mle_study_reference(config, keep_rows=False):
    """mc_mle_study as a plain loop over replications.

    Each replication is simulated and tallied on its own with the scalar
    simulate_bernoulli_chain and transition_counts, then fitted by
    fit_mle_reference and given mle_ci's intervals; a fit that raises
    DegenerateData or lands on p = 1/2 counts as degenerate.  Coverage
    counts and length sums accumulate one replication at a time.  Unlike
    the rest of this module it runs the package's scalar code: it is the
    reference for the batched engine, not an independent oracle.
    """
    params = config.params
    truth = {"a": params.a, "p": params.p}
    covered = {"a": 0, "p": 0}
    length_sum = {"a": 0.0, "p": 0.0}
    rows = []
    degenerate = 0
    z = _check_alpha(config.alpha)
    for r in range(config.reps):
        path = simulate_bernoulli_chain(params, config.n, derive_seed(config.master_seed, STREAM_PATH, r))
        counts = transition_counts(path)
        try:
            fit = fit_mle_reference(counts)
        except DegenerateData:
            fit = None
        if fit is None or fit.cov is None:
            degenerate += 1
            rows += [RepRecord(r, tag, None, None, None, None, None, True) for tag in ("mle_a", "mle_p")]
            continue
        for k, target in enumerate("ap"):
            est = _mle_interval(fit, counts.n, k, z, config.alpha)
            covered[target] += est.covers(truth[target])
            length_sum[target] += est.length
            rows.append(
                RepRecord(r, "mle_" + target, est.point, est.ci_low, est.ci_high,
                          est.covers(truth[target]), est.length, False)
            )
    good = config.reps - degenerate
    stats = {
        t: ParamStats(coverage=covered[t] / good, ciml=length_sum[t] / good)
        if good
        else ParamStats(coverage=math.nan, ciml=math.nan)
        for t in "ap"
    }
    return MCReport(
        config=config,
        stats={"mle": stats},
        degenerate={"mle": degenerate},
        reps_effective={"mle": good},
        rows=tuple(rows) if keep_rows else (),
    )


def _mle_interval(fit, n, k, z, alpha):
    """mle_ci's normal interval for parameter k (0 for a, 1 for p) of an interior fit."""
    point = (fit.params.a, fit.params.p)[k]
    se = math.sqrt(fit.cov[k, k] / (n + 1))
    return Estimate("mle", point, se, *normal_bounds(point, se, z), alpha, n, fit.params.regime)


def mc_estimator_comparison_reference(config, keep_rows=False):
    """mc_estimator_comparison as a plain loop over replications.

    Each replication simulates its path, fits it with fit_mle_reference and
    asks each estimator in turn for its interval for p: the MLE's from the
    fit, mean_estimate_reference with the fitted a plugged in, and
    robust_estimate_reference on its own noise stream.  An estimator that
    raises DegenerateData, and the MLE on p = 1/2, count the replication as
    degenerate.  Coverage counts and length sums accumulate one
    replication at a time.  Like mc_mle_study_reference it runs the
    package's scalar code and is the reference for the batched fits.
    """
    params = config.params
    estimators = tuple(dict.fromkeys(config.estimators))
    z = _check_alpha(config.alpha)
    covered = dict.fromkeys(estimators, 0)
    length_sum = dict.fromkeys(estimators, 0.0)
    degenerate = dict.fromkeys(estimators, 0)
    rows = []
    for r in range(config.reps):
        path = simulate_bernoulli_chain(params, config.n, derive_seed(config.master_seed, STREAM_PATH, r))
        counts = transition_counts(path)
        try:
            fit = fit_mle_reference(counts)
        except DegenerateData:
            fit = None
        for e in estimators:
            try:
                if e == "mle":
                    if fit is None or fit.cov is None:
                        raise DegenerateData("no interior fit", method="mle")
                    est = _mle_interval(fit, counts.n, 1, z, config.alpha)
                elif e == "mean":
                    if fit is None:
                        raise DegenerateData("no plug-in dependence estimate", method="mean")
                    est = mean_estimate_reference(path, config.alpha, a_hat=fit.params.a)
                else:
                    seed = derive_seed(config.master_seed, STREAM_ROBUST, r)
                    est = robust_estimate_reference(path, config.alpha, noise_seed=seed)
            except DegenerateData:
                degenerate[e] += 1
                rows.append(RepRecord(r, e, None, None, None, None, None, True))
                continue
            covered[e] += est.covers(params.p)
            length_sum[e] += est.length
            rows.append(RepRecord(r, e, est.point, est.ci_low, est.ci_high, est.covers(params.p), est.length, False))
    stats = {}
    for e in estimators:
        good = config.reps - degenerate[e]
        stats[e] = {
            "p": ParamStats(coverage=covered[e] / good, ciml=length_sum[e] / good)
            if good
            else ParamStats(coverage=math.nan, ciml=math.nan)
        }
    return MCReport(
        config=config,
        stats=stats,
        degenerate=degenerate,
        reps_effective={e: config.reps - degenerate[e] for e in estimators},
        rows=tuple(rows) if keep_rows else (),
    )


def _real_roots(coeffs):
    # trim leading zeros; np.roots rejects a zero leading coefficient
    c = [float(v) for v in coeffs]
    while c and c[0] == 0.0:
        c.pop(0)
    if len(c) < 2:
        return []
    roots = np.roots(c)
    out = []
    for r in roots:
        if abs(r.imag) < _IMAG_TOL:
            out.append(float(r.real))
    return out


def _polish_root(coeffs, r):
    c = np.array([float(v) for v in coeffs])
    dc = np.polyder(c)
    best, best_val = r, abs(np.polyval(c, r))
    for _ in range(3):
        slope = np.polyval(dc, best)
        if slope == 0.0:
            break
        cand = best - np.polyval(c, best) / slope
        if not 0.0 < cand < 0.5:
            break
        val = abs(np.polyval(c, cand))
        if val >= best_val:
            break
        best, best_val = cand, val
    return best


def loglik_less_reference(counts, a, p):
    """The log-likelihood on the p <= 1/2 branch for one row, with math.log.

    estimation._loglik_less's formula in its summation order, on Python
    ints and floats: the package maps math.log over columns of rows, and
    each row must come out as this gives it, bit for bit.  The n11 term is
    0 * log(a + 1) where n11 = 0, so the a = 0 edge is finite there.
    """
    d = a * p + 1.0 - 2.0 * p
    q = 1.0 - p
    ll = (counts.x0 * math.log(p) + (1 - counts.x0) * math.log(q)) + (
        counts.n00 * math.log(d / q) + counts.n01 * math.log(p * (1.0 - a) / q)
    )
    return ll + (counts.n10 * math.log(1.0 - a) + counts.n11 * math.log(a + (counts.n11 == 0)))


def score_reference(counts, params):
    """Gradient of the log-likelihood in (a, p).

    The partial derivatives of the p < 1/2 branch, in closed form; D is the
    p00 numerator.  The p > 1/2 branch is evaluated through the state
    relabeling, which negates the p component.  At p = 1/2 the two branches
    meet with different one-sided slopes, so no gradient is defined there.
    """
    if params.regime is Regime.HALF:
        raise DomainError("the log-likelihood is not differentiable in p at p = 1/2")
    flip = params.regime is Regime.GEQ_HALF
    c, a, p = (counts.flipped(), params.a, 1.0 - params.p) if flip else (counts, params.a, params.p)
    d = a * p + 1.0 - 2.0 * p
    s_a = c.n00 * p / d - (c.n01 + c.n10) / (1.0 - a) + c.n11 / a
    s_p = (
        c.x0 / p
        - (1 - c.x0) / (1.0 - p)
        + c.n00 * (a - 2.0) / d
        + c.n00 / (1.0 - p)
        + c.n01 / p
        + c.n01 / (1.0 - p)
    )
    return (s_a, -s_p) if flip else (s_a, s_p)


def edge_closed_form_reference(counts):
    """The a = 0 edge supremum (loglik, p) of a branch with n11 = 0, in closed form.

    The fitting core's edge rule on one row, in Python ints and floats:
    the small root 2 lam2 / (lam1 + sqrt(D)) of 2 p^2 - lam1 p + lam2, with
    lam1 = 2 x0 + 1 + n00 + 2 n01, lam2 = x0 + n01 and D = lam1^2 - 8 lam2
    exact, clipped to [2^-53, 1/2 - _EDGE_LO], snapped, and scored at a = 0.
    """
    lam1 = 2 * counts.x0 + 1 + counts.n00 + 2 * counts.n01
    lam2 = counts.x0 + counts.n01
    root = 2.0 * lam2 / (lam1 + math.sqrt(lam1 * lam1 - 8 * lam2))
    p = _snap(min(max(root, 2.0**-53), 0.5 - _EDGE_LO))
    return loglik_less_reference(counts, 0.0, p), p


@dataclass(frozen=True)
class MleWorkspace:
    """Count aggregates and profile-quartic coefficients, all exact integers.

    The aggregates are
        lam1 = 2 x0 + 1 + n00 + 2 n01      lam2 = x0 + n01
        lam3 = x0 + n00 + n01              lam4 = 2 n - n00 + n11
        lam5 = n - n00
    and ``coeffs`` holds the quartic c4 p^4 + ... + c0 whose real roots in
    (0, 1/2) are the interior critical points of the profile likelihood.
    """

    lam1: int
    lam2: int
    lam3: int
    lam4: int
    lam5: int
    coeffs: tuple[int, int, int, int, int]


def _poly_mul(*factors):
    """The product of polynomials given as lists of coefficients, constant term first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = prod
    return out


def quartic_coefficients(counts):
    """The profile quartic of the p < 1/2 branch of ``counts``, as an MleWorkspace.

    The quadratic score equation in a, at the profile a = num / (p (lam3 - p)),
    cleared of its denominators and divided by p, is the quartic

        n num^2 - (lam4 p - lam5) num (lam3 - p) + n11 (2p - 1) p (lam3 - p)^2,

    with num = p (lam1 - 2p) - lam2; test_quartic_rederivation derives it in
    sympy.  Expanded here in Python ints from the aggregates, it is derived
    apart from the fitting core's _LAMBDAS and _QUARTIC tables, which the
    tests compare with it.
    """
    x0, n00, n01, n11 = counts.x0, counts.n00, counts.n01, counts.n11
    n = counts.n
    lam1, lam2, lam3 = 2 * x0 + 1 + n00 + 2 * n01, x0 + n01, x0 + n00 + n01
    lam4, lam5 = 2 * n - n00 + n11, n - n00
    num = [-lam2, lam1, -2]
    rest = [lam3, -1]  # lam3 - p
    terms = (
        _poly_mul([n], num, num),
        _poly_mul([lam5, -lam4], num, rest),
        _poly_mul([0, -n11, 2 * n11], rest, rest),
    )
    coeffs = [sum(term[k] for term in terms) for k in range(5)]
    return MleWorkspace(lam1, lam2, lam3, lam4, lam5, tuple(coeffs[::-1]))


def _branch_candidates(counts, ws):
    """Interior critical points (loglik, a, p) with p < 1/2 for these counts."""
    cands = []
    seen = []
    for r in _real_roots(ws.coeffs):
        if not 0.0 < r < 0.5:
            continue
        r = _snap(_polish_root(ws.coeffs, r))
        if not 0.0 < r < 0.5:
            continue
        if any(abs(r - s) < 1e-12 for s in seen):
            continue
        seen.append(r)
        a = _profile(ws.lam1, ws.lam2, ws.lam3, r)
        if not 0.0 < a < 1.0:
            continue
        cands.append((loglik_less_reference(counts, a, r), a, r))
    return cands


def fit_mle_reference(counts):
    """fit_mle as a scalar function of one TransitionCounts.

    np.roots on each branch's quartic, Newton polishing one root at a time,
    then the winner, tie, ridge and edge rules written out with Python
    lists and branches, scored by loglik_less_reference and
    edge_closed_form_reference.  Of the package's fitting code it shares
    only the profile formula, besides the _snap rounding and the
    asymptotic_cov it reports; its quartic is quartic_coefficients'.
    Unlike the package it still runs golden_candidate_reference on both
    branches where neither has an admissible quartic root.  An interior
    maximum is a quartic root, so that search can only add a point at the
    edge of the parameter space: on the realizable tables with n <= 30 it
    finds p = 1/2 - 1e-6, which loses to p = 1/2, and on tables with a few
    visits to one state and n from 10^3 on it finds a point at a ~ 0 or
    p ~ 1e-6 that wins, as for (0, 0, 1, 0, 400).  Elsewhere it is the
    reference that the one fitting core of fit_mle and fit_mle_batch must
    reproduce bit for bit.
    """
    n = counts.n
    a_edge = (counts.n00 + counts.n11) / n
    p_edge = counts.ones / (n + 1)

    def degenerate(msg):
        return DegenerateData(msg, a=a_edge, p=p_edge, method="mle")

    if counts.n00 + counts.n01 == 0 or counts.n10 + counts.n11 == 0:
        raise degenerate("one state was never left; the likelihood peaks on the boundary")

    flipped = counts.flipped()
    ws_less = quartic_coefficients(counts)
    ws_geq = quartic_coefficients(flipped)
    cands_less = _branch_candidates(counts, ws_less)
    cands_geq = _branch_candidates(flipped, ws_geq)
    if not cands_less and not cands_geq:
        for target, ws, sink in ((counts, ws_less, cands_less), (flipped, ws_geq, cands_geq)):
            found = golden_candidate_reference(target, ws)
            if found is not None:
                sink.append(found)

    best_less = max(cands_less, key=lambda c: c[0]) if cands_less else None
    best_geq = None
    if cands_geq:
        ll_f, a_f, p_f = max(cands_geq, key=lambda c: c[0])
        best_geq = (ll_f, a_f, 1.0 - p_f)

    half = None
    if 2.0**-52 < a_edge < 1.0:  # below, d = a / 2 + 1 - 1 rounds to 0
        half = (loglik_less_reference(counts, a_edge, 0.5), a_edge, 0.5)

    interior = None
    if best_less is not None and best_geq is not None and abs(best_less[0] - best_geq[0]) <= _BRANCH_TIE_TOL:
        if half is None:
            raise degenerate("tied branch maxima with a boundary p = 1/2 solution")
    else:
        options = [c for c in (best_less, best_geq) if c is not None]
        if options:
            interior = max(options, key=lambda c: c[0])

    winner = None
    if interior is not None and (half is None or interior[0] > half[0]):
        winner = interior
    elif half is not None:
        winner = half

    edge = None
    for target, flip in ((counts, False), (flipped, True)):
        if target.n11 == 0:
            ll_e, p_e = edge_closed_form_reference(target)
            if edge is None or ll_e > edge[0]:
                edge = (ll_e, 1.0 - p_e if flip else p_e)
    if edge is not None:
        if winner is None or edge[0] > winner[0] + _EDGE_TOL:
            raise DegenerateData(
                "the likelihood climbs to the a = 0 edge; no interior maximum",
                a=0.0,
                p=edge[1],
                method="mle",
            )

    if winner is None:
        raise degenerate("no interior likelihood maximum exists for these counts")
    ll, a, p = winner
    params = ModelParams(a, p)
    return MleFit(params=params, cov=None if p == 0.5 else asymptotic_cov(params), loglik=ll)


_P_GRID = np.linspace(_FALLBACK_LO, 0.5 - _FALLBACK_LO, 2001)


def _golden_section(f, k, steps):
    """Snapped argmax of f, golden-sectioned between the neighbours of _P_GRID[k]."""
    lo, hi = float(_P_GRID[max(k - 1, 0)]), float(_P_GRID[min(k + 1, len(_P_GRID) - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(steps):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    return _snap(0.5 * (lo + hi))


def golden_candidate_reference(counts, ws):
    """The profile-likelihood search fit_mle once ran where no quartic root is admissible.

    The 2 001-point p grid is scored one point at a time with math.log, the
    first maximum is golden-sectioned for 120 steps, and the result is kept
    only if the full score nearly vanishes.  It runs the package's profile
    helper.
    """

    def g(p):
        a = _profile(ws.lam1, ws.lam2, ws.lam3, p)
        return loglik_less_reference(counts, a, p) if 0.0 < a < 1.0 else -math.inf

    vals = [g(p) for p in _P_GRID]
    k = int(np.argmax(vals))
    if not math.isfinite(vals[k]):
        return None
    p = _golden_section(g, k, 120)
    a = _profile(ws.lam1, ws.lam2, ws.lam3, p)
    if not 0.0 < a < 1.0 or max(map(abs, score_reference(counts, ModelParams(a, p)))) > 1e-5 * (counts.n + 1):
        return None
    return (loglik_less_reference(counts, a, p), a, p)


def edge_candidate_reference(counts):
    """The a = 0 edge supremum (loglik, p) of a branch with n11 = 0, by search.

    The search that the closed form (edge_closed_form_reference) replaced: the
    edge likelihood is scored on the p grid with np.log, and its argmax is
    golden-sectioned for 80 steps with math.log.
    """
    vals = (counts.x0 + counts.n01) * np.log(_P_GRID) + counts.n00 * np.log(1.0 - 2.0 * _P_GRID)
    vals += (1 - counts.x0 - counts.n00 - counts.n01) * np.log(1.0 - _P_GRID)
    p = _golden_section(lambda x: loglik_less_reference(counts, 0.0, x), int(np.argmax(vals)), 80)
    return loglik_less_reference(counts, 0.0, p), p


def path_to_csv_reference(path):
    """The path CSV written one csv.writer row at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "x"])
    binary = isinstance(path, BinaryPath)
    for t, x in enumerate(path.states):
        writer.writerow([t, int(x) if binary else repr(float(x))])
    return buf.getvalue()


def path_from_csv_reference(text):
    """The path CSV read one csv.reader row at a time, int(t) and float(x) per row."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyData("the CSV is empty") from None
    if [h.strip() for h in header] != ["t", "x"]:
        raise DomainError(f"expected header 't,x', got {','.join(header)!r}")
    values = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DomainError(f"line {lineno}: expected two columns, got {len(row)}")
        try:
            t, x = int(row[0]), float(row[1])
        except ValueError as exc:
            raise DomainError(f"line {lineno}: {exc}") from None
        if t != len(values):
            raise DomainError(f"line {lineno}: time index {t} out of order")
        values.append(x)
    if not values:
        raise EmptyData("the CSV holds a header but no observations")
    states = np.array(values)
    origin = PathOrigin(kind="external")
    if np.isin(states, (0.0, 1.0)).all():
        return BinaryPath(states=states.astype(np.int8), origin=origin)
    return RealPath(states=states, origin=origin)


def scan_reference(u, q0, q1, state):
    """chain._scan with the flip-parity pass always run and a fancy-index gather."""
    rows, steps = u.shape
    b0 = u < q0
    b1 = u < q1
    parity = np.logical_xor.accumulate(b0 & ~b1, axis=1)
    base = np.empty((rows, steps + 1), dtype=bool)
    base[:, 0] = state
    np.bitwise_xor(b0, parity, out=base[:, 1:])
    width = steps + 1
    last_const = np.maximum.accumulate(np.arange(1, width) * (b0 == b1), axis=1)
    last_const += np.arange(0, rows * width, width)[:, None]
    states = base.ravel()[last_const]
    states ^= parity
    return states


def transition_counts_reference(path):
    """transition_counts with each of the four cells tallied on its own."""
    s = path.states
    prev, cur = s[:-1], s[1:]
    return TransitionCounts(
        x0=int(s[0]),
        n00=int(np.count_nonzero((prev == 0) & (cur == 0))),
        n01=int(np.count_nonzero((prev == 0) & (cur == 1))),
        n10=int(np.count_nonzero((prev == 1) & (cur == 0))),
        n11=int(np.count_nonzero((prev == 1) & (cur == 1))),
    )


def clt_variance_reference(params):
    """clt_variance on one ModelParams in Python floats, from q = min(p, 1 - p)."""
    a, p = params.a, params.p
    q = p if p < 0.5 else 1.0 - p
    q = 1.0 - (1.0 - q)
    return q * (1.0 - q) * (a + 1.0 - 2.0 * q) / (1.0 - a)


def mean_estimate_reference(path, alpha=0.05, a_hat=None):
    """mean_estimate with the sample mean taken by np.mean and a fitted by fit_mle_reference."""
    z = _check_alpha(alpha)
    p_bar = float(path.states.mean())
    if not 0.0 < p_bar < 1.0:
        raise DegenerateData(
            "the path is constant; the mean sits on the boundary",
            p=p_bar,
            point=p_bar,
            method="mean",
        )
    if a_hat is None:
        a_hat = fit_mle_reference(transition_counts(path)).params.a
    plug = ModelParams(a_hat, p_bar)
    se = math.sqrt(clt_variance_reference(plug) / path.states.size)
    return Estimate("mean", p_bar, se, *normal_bounds(p_bar, se, z), alpha, path.n, plug.regime)


def robust_estimate_reference(path, alpha=0.05, noise_seed=0):
    """robust_estimate on a float copy of the path, one new array per operation.

    The bandwidth comes from its formula and the noise from a fresh
    generator, so neither shares code with the package's kernel.
    """
    z = _check_alpha(alpha)
    x = path.states.astype(float)
    p_bar = float(x.mean())
    if not 0.0 < p_bar < 1.0:
        raise DegenerateData(
            "the path is constant; the mean sits on the boundary",
            p=p_bar,
            point=p_bar,
            method="robust",
        )
    n_states = path.states.size
    h = (1.0 / (n_states * math.sqrt(2.0))) ** 0.2
    y = make_generator(noise_seed).standard_normal(n_states)
    p_tilde = float(np.mean(x * np.exp(-0.5 * (y / h) ** 2))) / h
    x2_bar = float(np.mean(x * x))
    se = math.sqrt(x2_bar / (n_states * math.sqrt(2.0) * h))
    low, high = normal_bounds(p_tilde * math.sqrt(1.0 + h * h), se, z)
    return Estimate("robust", p_tilde, se, low, high, alpha, path.n)
