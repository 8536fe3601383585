"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way so it shares no code path
with the package: likelihoods are maximized by brute grid search, the chain
is simulated one step at a time, quantiles come from bisection, and the
finite-sample variance of the mean is an explicit double sum.  The
exceptions are mc_mle_study_reference, the scalar loop that the batched
Monte Carlo engine must reproduce, golden_candidate_reference, the
scalar grid scan that the vectorized MLE fallback must reproduce, and
path_to_csv_reference / path_from_csv_reference, the row-by-row csv
module writer and reader that pathio must match byte for byte and
error for error, and the *_reference kernels below them, the earlier
bodies of the per-path kernels (_scan, transition_counts, mean_estimate,
robust_estimate) that the leaner ones must reproduce bit for bit.
"""

import csv
import io
import math

import numpy as np

from copulachain.chain import (
    BinaryPath,
    ModelParams,
    PathOrigin,
    RealPath,
    TransitionCounts,
    simulate_bernoulli_chain,
    transition_counts,
    transition_matrix,
)
from copulachain.errors import DegenerateData, DomainError, EmptyData
from copulachain.estimation import (
    _FALLBACK_LO,
    Estimate,
    RobustConfig,
    _check_alpha,
    _loglik_less,
    _profile_from_workspace,
    _score_less,
    _snap,
    clt_variance,
    fit_mle,
    mle_ci,
    normal_bounds,
)
from copulachain.montecarlo import STREAM_PATH, MCReport, ParamStats, RepRecord
from copulachain.rng import derive_seed, make_generator


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

    Each replication is simulated, tallied and fitted on its own with the
    scalar simulate_bernoulli_chain, transition_counts and mle_ci; a fit
    that raises DegenerateData or lands on p = 1/2 counts as degenerate.
    Coverage counts and length sums accumulate one replication at a time.
    Unlike the rest of this module it runs the package's scalar code: it is
    the reference for the batched engine, not an independent oracle.
    """
    params = config.params
    truth = {"a": params.a, "p": params.p}
    covered = {"a": 0, "p": 0}
    length_sum = {"a": 0.0, "p": 0.0}
    rows = []
    degenerate = 0
    for r in range(config.reps):
        path = simulate_bernoulli_chain(params, config.n, derive_seed(config.master_seed, STREAM_PATH, r))
        counts = transition_counts(path)
        try:
            landed_on_half = fit_mle(counts).cov is None
        except DegenerateData:
            landed_on_half = None
        if landed_on_half is not False:
            degenerate += 1
            rows += [RepRecord(r, tag, None, None, None, None, None, True) for tag in ("mle_a", "mle_p")]
            continue
        for target, est in zip("ap", mle_ci(counts, config.alpha)):
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


def golden_candidate_reference(counts, ws):
    """fit_mle's profile-likelihood fallback as a plain scalar scan.

    The 2 001-point p grid is scored one point at a time with math.log, the
    first maximum is golden-sectioned for 120 steps, and the result is kept
    only if the full score nearly vanishes.  Like mc_mle_study_reference it
    runs the package's scalar helpers: it is the reference for the
    vectorized scan in estimation._golden_candidate.
    """

    def g(p):
        a = _profile_from_workspace(ws, p)
        if not 0.0 < a < 1.0:
            return -math.inf, None
        return _loglik_less(counts, a, p), a

    grid = np.linspace(_FALLBACK_LO, 0.5 - _FALLBACK_LO, 2001)
    vals = [g(p)[0] for p in grid]
    k = int(np.argmax(vals))
    if not math.isfinite(vals[k]):
        return None
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = g(x1)[0], g(x2)[0]
    for _ in range(120):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = g(x2)[0]
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = g(x1)[0]
    p = _snap(0.5 * (lo + hi))
    ll, a = g(p)
    if a is None:
        return None
    s_a, s_p = _score_less(counts, a, p)
    if max(abs(s_a), abs(s_p)) > 1e-5 * (counts.n + 1):
        return None
    return (ll, a, p)


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


def mean_estimate_reference(path, alpha=0.05, a_hat=None):
    """mean_estimate with the sample mean taken by np.mean."""
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
        a_hat = fit_mle(transition_counts(path)).params.a
    plug = ModelParams(a_hat, p_bar)
    se = math.sqrt(clt_variance(plug) / path.states.size)
    return Estimate.normal("mean", p_bar, se, z, alpha, path.n, plug.regime)


def robust_estimate_reference(path, alpha=0.05, noise_seed=0):
    """robust_estimate on a float copy of the path, one new array per operation."""
    z = _check_alpha(alpha)
    cfg = RobustConfig(n_states=path.states.size, noise_seed=noise_seed)
    h = cfg.bandwidth
    x = path.states.astype(float)
    y = cfg.noise()
    p_tilde = float(np.mean(x * np.exp(-0.5 * (y / h) ** 2))) / h
    x2_bar = float(np.mean(x * x))
    se = math.sqrt(x2_bar / (cfg.n_states * math.sqrt(2.0) * h))
    low, high = normal_bounds(p_tilde * math.sqrt(1.0 + h * h), se, z)
    return Estimate("robust", p_tilde, se, low, high, alpha, path.n)
