"""Estimation of (a, p) from one realized path of the copula chain.

The likelihood factors over transitions, so the transition counts plus the
initial state are sufficient.  For p < 1/2, profiling a out of the score
system leaves a quartic in p whose real roots inside (0, 1/2) are the only
interior critical points; the p >= 1/2 side is handled by relabeling the
states, which swaps p with 1 - p and leaves a untouched.  Alongside the
MLE the module provides the sample-mean estimator of p with its Markov
correction, a kernel-weighted estimator that stays usable under weaker
assumptions, and the pair-agreement estimator of a for uniform marginals.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .chain import (
    BinaryPath,
    ModelParams,
    RealPath,
    Regime,
    TransitionCounts,
    transition_counts,
    transition_matrix,
    validate_count_table,
)
from .errors import DegenerateData, DomainError
from .rng import make_generator

_IMAG_TOL = 1e-6
_BRANCH_TIE_TOL = 1e-12
_EDGE_TOL = 1e-9
_FALLBACK_LO = 1e-6
_P_GRID = np.linspace(_FALLBACK_LO, 0.5 - _FALLBACK_LO, 2001)  # both 1-d searches start here
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Bound on |ll_np - ll_math| / (1 + |ll|), ll scored with np.log or math.log:
# they differ by at most 1 ulp (measured on 8e6 points in (1e-304, 1)), and
# ll sums six count * log terms, all <= 0, so the gap is ~7 ulps of |ll| at most
_LOG_GAP = 1e-12
# Count tables with n above this go to the scalar fit.  Every quartic
# coefficient is a sum of terms whose absolute values add up to at most
# 34 (n + 1)^3, which stays below 2^63 for n < 6e5, so the int64
# coefficients of the batched fit are exact up to here with margin.
_BATCH_MAX_N = 100_000

# Outcomes of a batched fit, per row.
FIT_INTERIOR = 0  # interior maximum with a covariance
FIT_HALF = 1  # the maximum lands on p = 1/2, where there is no covariance
FIT_DEGENERATE = 2  # fit_mle raises DegenerateData


# Cephes ndtri (S. L. Moshier): rational approximations, coefficients from
# the highest degree down.  P0/Q0 serve exp(-2) < q < 1 - exp(-2), in
# y = q - 1/2; P1/Q1 and P2/Q2 serve the tails, in z = 1/x with
# x = sqrt(-2 log q) below and from 8 (q = exp(-32)) on.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coef) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def normal_quantile(q: float) -> float:
    """Quantile of the standard normal law, q in (0, 1).

    Cephes ``ndtri`` step for step, so the result is the double that
    ``scipy.special.ndtri`` returns.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {q!r}")
    upper = q > 1.0 - _EXP_M2
    y = 1.0 - q if upper else q
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, r = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, r)
    return x if upper else -x


def chisq1_quantile(alpha: float) -> float:
    """Upper-alpha critical value of chi-squared with one degree of freedom.

    A chi-squared(1) variable is a squared standard normal, so the critical
    value is the squared two-sided normal quantile.
    """
    return _check_alpha(alpha) ** 2


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a two-sided normal confidence interval."""

    method: str
    point: float
    stderr: float
    ci_low: float
    ci_high: float
    alpha: float
    n: int
    regime: Regime | None = None

    @classmethod
    def normal(cls, method, point, stderr, z, alpha, n, regime=None) -> "Estimate":
        """The interval point -/+ z * stderr."""
        low, high = normal_bounds(point, stderr, z)
        return cls(method, point, stderr, low, high, alpha, n, regime)

    def covers(self, value: float) -> bool:
        return self.ci_low <= value <= self.ci_high

    @property
    def length(self) -> float:
        return self.ci_high - self.ci_low


def normal_bounds(center, stderr, z):
    """Bounds center -/+ z * stderr of a normal interval; floats or arrays.

    Every normal interval in the package, scalar or batched, is formed
    here, so equal inputs give bit-identical bounds.
    """
    return center - z * stderr, center + z * stderr


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"level alpha must be in (0, 1), got {alpha!r}")
    return normal_quantile(1.0 - alpha / 2.0)


def loglik(counts: TransitionCounts, params: ModelParams) -> float:
    """Log-likelihood of the path summarized by ``counts`` under ``params``.

    The initial state contributes its stationary term; every transition
    contributes the log of the matching matrix entry.
    """
    m = transition_matrix(params).entries
    p = params.p
    ll = counts.x0 * math.log(p) + (1 - counts.x0) * math.log(1.0 - p)
    ll += counts.n00 * math.log(m[0, 0]) + counts.n01 * math.log(m[0, 1])
    ll += counts.n10 * math.log(m[1, 0]) + counts.n11 * math.log(m[1, 1])
    return ll


def _score_less(counts: TransitionCounts, a: float, p: float) -> tuple[float, float]:
    # gradient of loglik on the p < 1/2 branch; D is the p00 numerator
    d = a * p + 1.0 - 2.0 * p
    s_a = counts.n00 * p / d - (counts.n01 + counts.n10) / (1.0 - a) + counts.n11 / a
    s_p = (
        counts.x0 / p
        - (1 - counts.x0) / (1.0 - p)
        + counts.n00 * (a - 2.0) / d
        + counts.n00 / (1.0 - p)
        + counts.n01 / p
        + counts.n01 / (1.0 - p)
    )
    return s_a, s_p


def score(counts: TransitionCounts, params: ModelParams) -> tuple[float, float]:
    """Gradient of the log-likelihood in (a, p).

    The p > 1/2 branch is evaluated through the state relabeling, which
    negates the p component.  At p = 1/2 the two branches meet with
    different one-sided slopes, so no gradient is defined there.
    """
    if params.regime is Regime.HALF:
        raise DomainError("the log-likelihood is not differentiable in p at p = 1/2")
    if params.regime is Regime.LESS_HALF:
        return _score_less(counts, params.a, params.p)
    s_a, s_p = _score_less(counts.flipped(), params.a, 1.0 - params.p)
    return s_a, -s_p


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


class _Cells(NamedTuple):
    """Counts in TransitionCounts' field order, as ints or integer arrays."""

    x0: object
    n00: object
    n01: object
    n10: object
    n11: object

    @property
    def n(self):
        return self.n00 + self.n01 + self.n10 + self.n11


def quartic_coefficients(counts: TransitionCounts) -> MleWorkspace:
    """Profile-quartic coefficients for the p < 1/2 branch.

    Only integer arithmetic is used, so counts given as int64 arrays (a
    ``_Cells`` of columns) give the same coefficients, column by column.
    """
    x0, n00, n01, n11 = counts.x0, counts.n00, counts.n01, counts.n11
    n = counts.n
    l1 = 2 * x0 + 1 + n00 + 2 * n01
    l2 = x0 + n01
    l3 = x0 + n00 + n01
    l4 = 2 * n - n00 + n11
    l5 = n - n00
    c4 = 4 * n - 2 * l4 + 2 * n11
    c3 = 2 * l3 * l4 - 4 * n * l1 + l1 * l4 + 2 * l5 - n11 - 4 * n11 * l3
    c2 = (
        n * l1 * l1
        + 4 * n * l2
        - l1 * l3 * l4
        - l2 * l4
        - 2 * l3 * l5
        - l1 * l5
        + 2 * n11 * l3
        + 2 * n11 * l3 * l3
    )
    c1 = l1 * l3 * l5 - 2 * n * l1 * l2 + l2 * l3 * l4 + l2 * l5 - n11 * l3 * l3
    c0 = n * l2 * l2 - l2 * l3 * l5
    return MleWorkspace(lam1=l1, lam2=l2, lam3=l3, lam4=l4, lam5=l5, coeffs=(c4, c3, c2, c1, c0))


def _profile_from_workspace(ws: MleWorkspace, p: float) -> float:
    return (p * (ws.lam1 - 2.0 * p) - ws.lam2) / (p * (ws.lam3 - p))


def profile_a(counts: TransitionCounts, p: float) -> float:
    """The a that zeroes the p component of the score, at fixed p < 1/2."""
    if not 0.0 < p < 0.5:
        raise DomainError(f"profile is defined for p in (0, 1/2), got {p!r}")
    return _profile_from_workspace(quartic_coefficients(counts), p)


def _loglik_less(counts: TransitionCounts, a: float, p: float, log=math.log) -> float:
    # float-only likelihood on the p <= 1/2 branch for the fit inner loop;
    # evaluating it on flipped counts covers the other branch, because
    # relabeling the states leaves the path probability unchanged.  With
    # log=np.log it takes arrays a and p, in the same order of operations.
    d = a * p + 1.0 - 2.0 * p
    q = 1.0 - p
    return (
        counts.x0 * log(p)
        + (1 - counts.x0) * log(q)
        + counts.n00 * log(d / q)
        + counts.n01 * log(p * (1.0 - a) / q)
        + counts.n10 * log(1.0 - a)
        + counts.n11 * log(a)
    )


@dataclass(frozen=True)
class CovMatrix:
    """Asymptotic covariance of sqrt(n+1) (theta_hat - theta), 2x2."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (2, 2):
            raise DomainError(f"covariance must be 2x2, got shape {m.shape}")
        _check_cov(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def __getitem__(self, idx):
        return self.entries[idx]


def _check_cov(m: np.ndarray) -> None:
    """Raise DomainError unless every 2x2 matrix in the stack ``m`` is a covariance."""
    if np.any(np.abs(m[..., 0, 1] - m[..., 1, 0]) > 1e-12):
        raise DomainError("covariance must be symmetric")
    if np.any(m[..., 0, 0] <= 0.0) or np.any(m[..., 1, 1] <= 0.0):
        raise DomainError("covariance diagonal must be positive")
    if np.any(np.linalg.eigvalsh(m).min(axis=-1) < -1e-10):
        raise DomainError("covariance must be positive semidefinite")


def _cov_entries(a, p) -> np.ndarray:
    """Asymptotic covariance at (a, p) off the ridge, shape (..., 2, 2).

    For p < 1/2
        [[a (1 - a)/p,  a (1 - p)                         ],
         [a (1 - p),    p (1 - p)(a + 1 - 2p)/(1 - a)     ]]
    and for p > 1/2
        [[a (1 - a)/(1 - p),  -a p                        ],
         [-a p,               p (1 - p)(2p - 1 + a)/(1 - a)]].
    Takes floats or arrays; each entry is the same sequence of operations
    either way, so scalar and batched fits agree bit for bit.
    """
    less = p < 0.5
    c00 = np.where(less, a * (1.0 - a) / p, a * (1.0 - a) / (1.0 - p))
    c01 = np.where(less, a * (1.0 - p), -a * p)
    c11 = np.where(
        less,
        p * (1.0 - p) * (a + 1.0 - 2.0 * p) / (1.0 - a),
        p * (1.0 - p) * (2.0 * p - 1.0 + a) / (1.0 - a),
    )
    return np.stack((np.stack((c00, c01), -1), np.stack((c01, c11), -1)), -2)


def asymptotic_cov(params: ModelParams) -> CovMatrix:
    """Closed-form asymptotic covariance of the MLE of (a, p).

    Defined on the open branches only; at p = 1/2 the a estimate has its
    own limit law and mle_half handles it.
    """
    if params.regime is Regime.HALF:
        raise DomainError("no joint asymptotic covariance at p = 1/2; use mle_half")
    return CovMatrix(_cov_entries(params.a, params.p))


def clt_variance(params: ModelParams) -> float:
    """Asymptotic variance of sqrt(n+1) (sample mean - p).

    Equals p(1-p)(1 + a - 2p)/(1-a) for p < 1/2 and
    p(1-p)(a + 2p - 1)/(1-a) for p >= 1/2; both branches agree at 1/2.
    Evaluated from the canonical representative q = min(p, 1-p), rounded
    through its own complement, so the value is bit-identical at p and
    1 - p; the two printed forms map onto each other under that swap.
    """
    a, p = params.a, params.p
    q = p if p < 0.5 else 1.0 - p
    q = 1.0 - (1.0 - q)
    return q * (1.0 - q) * (a + 1.0 - 2.0 * q) / (1.0 - a)


def var_sample_mean(params: ModelParams, n: int) -> float:
    """Leading-order variance of the sample mean over n + 1 observations."""
    if n < 1:
        raise DomainError(f"need at least one transition, got n={n!r}")
    return clt_variance(params) / (n + 1)


@dataclass(frozen=True)
class MleFit:
    """Winning likelihood maximum: parameters, covariance, attained value.

    ``cov`` is None exactly when the fit lands on p = 1/2, where the joint
    covariance is undefined.
    """

    params: ModelParams
    cov: CovMatrix | None
    loglik: float


def _real_roots(coeffs: tuple[int, ...]) -> list[float]:
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


def _polish_root(coeffs, r: float) -> float:
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


def _snap(p: float) -> float:
    # force p and 1 - p to be exact floating complements, so the relabeled
    # branch reports the mirror image bit for bit
    return 1.0 - (1.0 - p)


def _branch_candidates(counts: TransitionCounts, ws: MleWorkspace) -> list[tuple[float, float, float]]:
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
        a = _profile_from_workspace(ws, r)
        if not 0.0 < a < 1.0:
            continue
        cands.append((_loglik_less(counts, a, r), a, r))
    return cands


def _golden_section(f, k: int, steps: int) -> float:
    """Snapped argmax of f, golden-sectioned between the neighbours of _P_GRID[k]."""
    # floats, not numpy scalars, for speed; the values are the grid's
    lo, hi = float(_P_GRID[max(k - 1, 0)]), float(_P_GRID[min(k + 1, len(_P_GRID) - 1)])
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(steps):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
    return _snap(0.5 * (lo + hi))


def _first_scalar_max(idx: np.ndarray, vals: np.ndarray, scalar) -> int:
    """First k in ``idx`` where scalar(k) peaks, given its np.log values ``vals``.

    Only the ``vals`` within 2 _LOG_GAP (1 - top) of their largest, top, can hold
    a scalar maximum, so only they are scored again; ties go to the first.
    """
    top = vals.max()
    near = idx[vals >= top - 2.0 * _LOG_GAP * (1.0 - top)]
    return max(near.tolist(), key=scalar)


def _golden_candidate(counts: TransitionCounts, ws: MleWorkspace) -> tuple[float, float, float] | None:
    """Profile-likelihood search fallback when no quartic root is usable.

    Scores the profile likelihood on the p grid in one numpy pass (None at
    once if no point has 0 < a < 1, as in half the scans at a = p = .1,
    n = 49), golden-sections around the point a scalar math.log scan picks,
    and accepts the result only if the full score very nearly vanishes;
    otherwise the maximum sits on the boundary and the data are degenerate.
    """

    def g(p):
        a = _profile_from_workspace(ws, p)
        return _loglik_less(counts, a, p) if 0.0 < a < 1.0 else -math.inf

    a_grid = _profile_from_workspace(ws, _P_GRID)
    ok = np.flatnonzero((0.0 < a_grid) & (a_grid < 1.0))
    if not len(ok):
        return None
    vals = _loglik_less(counts, a_grid[ok], _P_GRID[ok], np.log)
    p = _golden_section(g, _first_scalar_max(ok, vals, lambda k: g(_P_GRID[k])), 120)
    a = _profile_from_workspace(ws, p)
    if not 0.0 < a < 1.0 or max(map(abs, _score_less(counts, a, p))) > 1e-5 * (counts.n + 1):
        return None
    return (_loglik_less(counts, a, p), a, p)


def _loglik_edge_a0(counts: TransitionCounts, p: float) -> float:
    # likelihood along a -> 0 with p < 1/2; finite only when n11 = 0,
    # since the 1->1 transition has probability a there
    q = 1.0 - p
    ll = counts.x0 * math.log(p) + (1 - counts.x0) * math.log(q)
    if counts.n00:
        ll += counts.n00 * math.log((1.0 - 2.0 * p) / q)
    if counts.n01:
        ll += counts.n01 * math.log(p / q)
    return ll


def _edge_candidate(counts: TransitionCounts) -> tuple[float, float] | None:
    """Supremum (loglik, p) of the likelihood on the a = 0 edge.

    The edge repels (log a terms) unless n11 = 0 on the p < 1/2 side or
    n00 = 0 on the relabeled side, so at most two one-dimensional searches
    run, and only for data that can be boundary-attracted.
    """
    out = None
    for target, flip in ((counts, False), (counts.flipped(), True)):
        if target.n11 != 0:
            continue
        vals = (target.x0 + target.n01) * np.log(_P_GRID) + target.n00 * np.log(1.0 - 2.0 * _P_GRID)
        vals += (1 - target.x0 - target.n00 - target.n01) * np.log(1.0 - _P_GRID)
        p = _golden_section(lambda x: _loglik_edge_a0(target, x), int(np.argmax(vals)), 80)
        ll = _loglik_edge_a0(target, p)
        if out is None or ll > out[0]:
            out = (ll, 1.0 - p if flip else p)
    return out


def fit_mle(counts: TransitionCounts) -> MleFit:
    """Maximize the likelihood over both branches and the p = 1/2 ridge.

    Candidates come from the profile quartic on each branch (the p >= 1/2
    branch through state relabeling) plus the closed-form p = 1/2 solution.
    If the two branch maxima agree to within 1e-12 the fit is reported at
    p = 1/2, where the tied maxima meet.

    Raises DegenerateData, carrying the boundary values, when the data pin
    the maximum to the edge of the parameter space. Besides constant paths
    and empty transition rows this covers counts whose likelihood climbs
    all the way to a = 0, which happens only when n00 or n11 vanishes.
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
            found = _golden_candidate(target, ws)
            if found is not None:
                sink.append(found)

    best_less = max(cands_less, key=lambda c: c[0]) if cands_less else None
    best_geq = None
    if cands_geq:
        ll_f, a_f, p_f = max(cands_geq, key=lambda c: c[0])
        best_geq = (ll_f, a_f, 1.0 - p_f)

    half = None
    if 0.0 < a_edge < 1.0:
        half = (_loglik_less(counts, a_edge, 0.5), a_edge, 0.5)

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

    if counts.n00 == 0 or counts.n11 == 0:
        edge = _edge_candidate(counts)
        if edge is not None and (winner is None or edge[0] > winner[0] + _EDGE_TOL):
            raise DegenerateData(
                "the likelihood climbs to the a = 0 edge; no interior maximum",
                a=0.0,
                p=edge[1],
                method="mle",
            )

    if winner is None:
        raise degenerate("no interior likelihood maximum exists for these counts")
    _, a, p = winner
    params = ModelParams(a, p)
    if p == 0.5:
        return MleFit(params=params, cov=None, loglik=loglik(counts, params))
    return MleFit(params=params, cov=asymptotic_cov(params), loglik=loglik(counts, params))


class MleBatch(NamedTuple):
    """fit_mle on each row of a count table: an outcome code and (a, p).

    ``outcome`` holds FIT_INTERIOR, FIT_HALF or FIT_DEGENERATE per row; a
    and p are NaN where the fit is degenerate, and p is 1/2 where it lands
    on the ridge.
    """

    outcome: np.ndarray
    a: np.ndarray
    p: np.ndarray


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    # np.polyval's order of operations, with one polynomial per row of c
    y = np.zeros_like(x)
    for k in range(c.shape[1]):
        y = y * x + c[:, k, None]
    return y


def _quartic_candidates(branch: np.ndarray):
    """_branch_candidates for every row of an (M, 5) count table.

    Needs n00 > 0 and n11 > 0 in every row.  Then c4 = 2 n00 and
    c0 = lam2 n00 (x0 - n10 - n11) are nonzero (lam2 = 0 or n10 + n11 =
    x0 = 1 would keep the walk out of one state), so np.roots trims no
    coefficient and every companion matrix is 4 x 4.

    Returns (ll, a, p): (M, 4) arrays over the root slots, with ll = -inf
    where a slot holds no admissible candidate.  Each step repeats the
    scalar arithmetic in the same order: companion matrices as np.roots
    builds them, Newton polishing as _polish_root does it, then snapping,
    deduplication and the profile a.
    """
    ws = quartic_coefficients(_Cells(*np.split(branch, 5, axis=1)))
    c = np.hstack(ws.coeffs).astype(float)
    companion = np.zeros((len(c), 4, 4))
    companion[:, 0, :] = -c[:, 1:] / c[:, :1]
    companion[:, (1, 2, 3), (0, 1, 2)] = 1.0
    roots = np.linalg.eigvals(companion)
    r = roots.real
    ok = (np.abs(roots.imag) < _IMAG_TOL) & (0.0 < r) & (r < 0.5)

    dc = c[:, :4] * np.arange(4, 0, -1)
    best, best_val = r, np.abs(_horner(c, r))
    active = ok.copy()
    with np.errstate(all="ignore"):  # slots that stopped polishing may overflow
        for _ in range(3):
            slope = _horner(dc, best)
            cand = best - _horner(c, best) / slope
            val = np.abs(_horner(c, cand))
            active &= (slope != 0.0) & (0.0 < cand) & (cand < 0.5) & ~(val >= best_val)
            best = np.where(active, cand, best)
            best_val = np.where(active, val, best_val)

    r = _snap(best)
    ok &= (0.0 < r) & (r < 0.5)
    # drop a root within 1e-12 of an earlier kept one, in root order
    for j in range(1, 4):
        for i in range(j):
            ok[:, j] &= ~(ok[:, i] & (np.abs(r[:, j] - r[:, i]) < 1e-12))
    with np.errstate(all="ignore"):
        a = _profile_from_workspace(ws, r)
    ok &= (0.0 < a) & (a < 1.0)

    # the log-likelihoods decide the winner, so they are evaluated with
    # math.log as in fit_mle: np.log may differ from it in the last bit
    ll = np.full(ok.shape, -np.inf)
    rows, slots = np.nonzero(ok)
    counts = branch.tolist()
    ll[rows, slots] = [
        _loglik_less(_Cells(*counts[i]), ai, pi)
        for i, ai, pi in zip(rows.tolist(), a[ok].tolist(), r[ok].tolist())
    ]
    return ll, a, r


def fit_mle_batch(table) -> MleBatch:
    """fit_mle on every row of an (R, 5) table of (x0, n00, n01, n10, n11).

    The rows fit_mle settles from its quartic roots are solved together:
    int64 quartic coefficients on both branches, one eigenvalue solve on
    the stack of companion matrices, vectorized polishing, and the winner
    chosen as fit_mle chooses it.  The other rows go to fit_mle itself: a
    state never left or an a = 0 edge to search (n00 == 0 or n11 == 0), n
    above _BATCH_MAX_N, no admissible root (golden-section fallback), and
    tied branch maxima.  Every row comes out bit for bit as fit_mle has it.
    """
    t = validate_count_table(table)
    n = t[:, 1:].sum(axis=1)
    outcome = np.full(len(t), FIT_DEGENERATE, dtype=np.int8)
    a = np.full(len(t), np.nan)
    p = np.full(len(t), np.nan)

    rows = np.flatnonzero((t[:, 1] > 0) & (t[:, 4] > 0) & (n <= _BATCH_MAX_N))
    m = len(rows)
    cells = t[rows]
    flipped = np.column_stack((1 - cells[:, 0], cells[:, :0:-1]))
    ll, ca, cp = _quartic_candidates(np.concatenate((cells, flipped)))
    k = np.argmax(ll, axis=1)  # the first of equal maxima, as max() picks
    slot = np.arange(2 * m)
    best_ll, best_a, best_p = ll[slot, k], ca[slot, k], cp[slot, k]
    has = best_ll > -np.inf
    ll_l, ll_g = best_ll[:m], best_ll[m:]
    has_l, has_g = has[:m], has[m:]
    with np.errstate(invalid="ignore"):  # -inf - -inf where both are missing
        tied = has_l & has_g & (np.abs(ll_l - ll_g) <= _BRANCH_TIE_TOL)
    scalar = ~(has_l | has_g) | tied

    pick_g = has_g & (~has_l | (ll_g > ll_l))
    int_ll = np.where(pick_g, ll_g, ll_l)
    int_a = np.where(pick_g, best_a[m:], best_a[:m])
    int_p = np.where(pick_g, 1.0 - best_p[m:], best_p[:m])
    # the p = 1/2 solution, its log-likelihood with math.log as well
    a_edge = (cells[:, 1] + cells[:, 4]) / n[rows]
    half_ll = np.full(m, -np.inf)
    h = np.flatnonzero((0.0 < a_edge) & (a_edge < 1.0) & ~scalar)
    half_ll[h] = [
        _loglik_less(_Cells(*c), ae, 0.5) for c, ae in zip(cells[h].tolist(), a_edge[h].tolist())
    ]
    to_half = ~(int_ll > half_ll)[~scalar]
    done = rows[~scalar]
    outcome[done] = np.where(to_half, FIT_HALF, FIT_INTERIOR)
    a[done] = np.where(to_half, a_edge[~scalar], int_a[~scalar])
    p[done] = np.where(to_half, 0.5, int_p[~scalar])

    rest = np.ones(len(t), dtype=bool)
    rest[done] = False
    for i in np.flatnonzero(rest).tolist():
        try:
            fit = fit_mle(TransitionCounts(*t[i].tolist()))
        except DegenerateData:
            continue
        outcome[i] = FIT_INTERIOR if fit.cov is not None else FIT_HALF
        a[i], p[i] = fit.params.a, fit.params.p
    return MleBatch(outcome, a, p)


def mle_ci_batch(table, alpha: float = 0.05) -> tuple[MleBatch, np.ndarray, np.ndarray]:
    """mle_ci on every row of a count table, as arrays.

    Returns the fits and (R, 2) arrays of lower and upper bounds for a and
    p, NaN where the fit is not interior.  Interior rows get the intervals
    mle_ci gives them, bit for bit.
    """
    z = _check_alpha(alpha)
    fit = fit_mle_batch(table)
    ok = fit.outcome == FIT_INTERIOR
    cov = _cov_entries(fit.a[ok], fit.p[ok])
    _check_cov(cov)
    n1 = np.asarray(table)[ok, 1:].sum(axis=1) + 1
    se = np.sqrt(np.stack((cov[:, 0, 0], cov[:, 1, 1]), axis=1) / n1[:, None])
    low = np.full((len(ok), 2), np.nan)
    high = np.full((len(ok), 2), np.nan)
    low[ok], high[ok] = normal_bounds(np.column_stack((fit.a[ok], fit.p[ok])), se, z)
    return fit, low, high


def mle(counts: TransitionCounts) -> tuple[ModelParams, CovMatrix | None]:
    """Maximum-likelihood estimate of (a, p) with its asymptotic covariance."""
    fit = fit_mle(counts)
    return fit.params, fit.cov


def mle_ci(counts: TransitionCounts, alpha: float = 0.05) -> tuple[Estimate, Estimate]:
    """Normal confidence intervals for a and p at the MLE.

    Half-widths are z * sqrt(cov_kk / (n + 1)) with the covariance
    evaluated at the fitted point.
    """
    z = _check_alpha(alpha)
    fit = fit_mle(counts)
    if fit.cov is None:
        raise DomainError("the fit landed exactly on p = 1/2; use mle_half for a")
    return mle_estimate(fit, counts.n, 0, z, alpha), mle_estimate(fit, counts.n, 1, z, alpha)


def mle_estimate(fit: MleFit, n: int, k: int, z: float, alpha: float) -> Estimate:
    """Normal interval for parameter k (0 for a, 1 for p) of an interior fit."""
    point = (fit.params.a, fit.params.p)[k]
    se = math.sqrt(fit.cov[k, k] / (n + 1))
    return Estimate.normal("mle", point, se, z, alpha, n, fit.params.regime)


def mle_half(counts: TransitionCounts, alpha: float = 0.05) -> Estimate:
    """Estimate of a when p = 1/2 is known: the fraction of repeats.

    The repeat indicators are i.i.d. Bernoulli(a) in this case, so the
    interval is the usual binomial one with n + 1 in the denominator.
    """
    z = _check_alpha(alpha)
    a_hat = (counts.n00 + counts.n11) / counts.n
    if not 0.0 < a_hat < 1.0:
        raise DegenerateData(
            "every transition repeated, or none did; a sits on the boundary",
            a=a_hat,
            p=0.5,
            point=a_hat,
            method="mle-half",
        )
    se = math.sqrt(a_hat * (1.0 - a_hat) / (counts.n + 1))
    return Estimate.normal("mle-half", a_hat, se, z, alpha, counts.n, Regime.HALF)


def mean_estimate(path: BinaryPath, alpha: float = 0.05, a_hat: float | None = None) -> Estimate:
    """Sample mean of the path as an estimate of p, with Markov-corrected CI.

    The interval width needs the dependence strength, so a plug-in a is
    required; by default it comes from the MLE on the same path.
    """
    z = _check_alpha(alpha)
    # an exact integer sum, so this is np.mean of the states bit for bit
    p_bar = int(np.count_nonzero(path.states)) / path.states.size
    n1 = path.states.size
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
    se = math.sqrt(clt_variance(plug) / n1)
    return Estimate.normal("mean", p_bar, se, z, alpha, path.n, plug.regime)


@dataclass(frozen=True)
class RobustConfig:
    """Bandwidth and noise stream for the kernel-weighted mean estimator."""

    n_states: int
    noise_seed: int
    bandwidth: float = field(init=False)

    def __post_init__(self):
        if self.n_states < 2:
            raise DomainError("need at least two observations")
        h = (1.0 / (self.n_states * math.sqrt(2.0))) ** 0.2
        object.__setattr__(self, "bandwidth", h)

    def noise(self) -> np.ndarray:
        return make_generator(self.noise_seed).standard_normal(self.n_states)


def robust_estimate(path: BinaryPath, alpha: float = 0.05, noise_seed: int = 0) -> Estimate:
    """Kernel-weighted mean of the path with externally injected noise.

    Each observation is weighted by a Gaussian kernel of an independent
    standard normal draw at bandwidth h = (1/((n+1) sqrt 2))^(1/5):

        p_tilde = (1/((n+1) h)) sum X_t exp(-Y_t^2 / (2 h^2)).

    The interval is centered at p_tilde * sqrt(1 + h^2) with half-width
    z * sqrt(mean(X^2) / ((n+1) sqrt(2) h)); it does not lean on the
    dependence structure of the path, only on the marginal second moment.

    The weights are computed in place in the noise array, each element with
    the operations of the formula in its order, and mean(X^2) of a 0/1 path
    is its count of ones over n + 1: both are bit for bit what the formula
    gives on float copies of the path.
    """
    z = _check_alpha(alpha)
    cfg = RobustConfig(n_states=path.states.size, noise_seed=noise_seed)
    h = cfg.bandwidth
    y = cfg.noise()
    y /= h
    np.square(y, out=y)
    y *= -0.5
    np.exp(y, out=y)
    y *= path.states
    p_tilde = float(np.mean(y)) / h
    x2_bar = int(np.count_nonzero(path.states)) / cfg.n_states
    se = math.sqrt(x2_bar / (cfg.n_states * math.sqrt(2.0) * h))
    low, high = normal_bounds(p_tilde * math.sqrt(1.0 + h * h), se, z)
    return Estimate("robust", p_tilde, se, low, high, alpha, path.n)


def indicator_estimate(path: RealPath, alpha: float = 0.05) -> Estimate:
    """Estimate a from a uniform-marginal path via repeat indicators.

    Consecutive equal states happen exactly when the copula kept the state,
    so the indicators 1{X_t = X_{t+1}} are i.i.d. Bernoulli(a).
    """
    z = _check_alpha(alpha)
    s = path.states
    agree = s[:-1] == s[1:]
    a_hat = float(agree.mean())
    n = path.n
    if not 0.0 < a_hat < 1.0:
        raise DegenerateData(
            "all steps repeated, or none did; a sits on the boundary",
            a=a_hat,
            point=a_hat,
            method="indicator",
        )
    se = math.sqrt(a_hat * (1.0 - a_hat) / n)
    return Estimate.normal("indicator", a_hat, se, z, alpha, n)
