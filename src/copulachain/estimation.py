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
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from .chain import (
    COUNT_LIMIT,
    INT64_MAX,
    BinaryPath,
    ModelParams,
    RealPath,
    Regime,
    TransitionCounts,
    transition_counts,
    validate_count_table,
)
from .errors import DegenerateData, DomainError, _seed, _unit, _whole
from .rng import uniform_filler

_IMAG_TOL = 1e-6
_BRANCH_TIE_TOL = 1e-12
_EDGE_TOL = 1e-9
_EDGE_LO = 1e-6  # the a = 0 edge supremum is sought for p up to 1/2 - _EDGE_LO
# The one integer-width switch of _fit_table: a table whose rows all have n
# up to this is fitted in int64; any other is converted to Python ints, once.
# Each quartic coefficient is a sum of terms n00 b_i b_j (_QUARTIC_PAIRS)
# times an entry of _QUARTIC, whose absolute values add up to at most 28 n^3;
# that stays below 2^63 for n < 6.9e5, so they are exact here with margin,
# and every partial sum is too.
_INT64_MAX_N = 100_000

# Outcomes of a fit, per row.  fit_mle raises DegenerateData with the
# message in _DEGENERATE for each code after FIT_HALF.
FIT_INTERIOR = 0  # interior maximum with a covariance
FIT_HALF = 1  # the maximum lands on p = 1/2, where there is no covariance
FIT_NEVER_LEFT = 2  # one state has no transitions out of it
FIT_TIED_BRANCHES = 3  # the branch maxima tie and no p = 1/2 solution exists
FIT_A0_EDGE = 4  # the likelihood climbs to the a = 0 edge
FIT_NO_MAXIMUM = 5  # no interior maximum and no p = 1/2 solution
_DEGENERATE = {
    FIT_NEVER_LEFT: "one state was never left; the likelihood peaks on the boundary",
    FIT_TIED_BRANCHES: "tied branch maxima with a boundary p = 1/2 solution",
    FIT_A0_EDGE: "the likelihood climbs to the a = 0 edge; no interior maximum",
    FIT_NO_MAXIMUM: "no interior likelihood maximum exists for these counts",
}


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
    q = _unit("quantile level", q)
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
    return normal_quantile(1.0 - _unit("level alpha", alpha) / 2.0)


def loglik(counts: TransitionCounts, params: ModelParams) -> float:
    """Log-likelihood of the path summarized by ``counts`` under ``params``.

    The value the fitting core ranks: _loglik_less on the branch of p, the
    p > 1/2 branch through the state relabeling.
    The counts are passed as Python ints, so counts beyond int64 stay exact.
    """
    p = params.p
    if params.regime is Regime.GEQ_HALF:
        counts, p = counts.flipped(), 1.0 - p
    return float(_loglik_less(astuple(counts), np.array([params.a]), np.array([p]))[0])


def _loglik_less(counts, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    # the package's one log-likelihood, on the p <= 1/2 branch, for columns of
    # rows: counts (x0, n00, n01, n10, n11) as integer arrays or ints, a and p
    # float arrays.  Flipped counts cover the other branch, since relabeling
    # the states leaves the path probability unchanged.  The a = 0 edge is
    # finite only where n11 = 0, so there the n11 term is 0 * log(a + 1).  The
    # initial state's term x0 log(p) + (1 - x0) log(q) is the log of p or of
    # q, as x0 is 1 or 0: its other product is a zero, which adds exactly.
    x0, n00, n01, n10, n11 = counts
    d = a * p + 1.0 - 2.0 * p
    q = 1.0 - p
    ll = _log_columns(np.where(x0, p, q)) + (n00 * _log_columns(d / q) + n01 * _log_columns(p * (1.0 - a) / q))
    return ll + (n10 * _log_columns(1.0 - a) + n11 * _log_columns(a + (n11 == 0)))


def _log_columns(x: np.ndarray) -> np.ndarray:
    # math.log on each entry: the log-likelihoods decide the winner, and
    # np.log may differ from math.log in the last bit
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


# The aggregates and the profile quartic of a branch, as integer tables on its
# row b = (1, x0, n00, n01, n10, n11).  Column k of _LAMBDAS gives lam_{k+1},
# linear in b.  Every coefficient of the quartic is n00 times a quadratic in
# the counts, so the quartic is the 14 monomials n00 b_i b_j, one per pair of
# _QUARTIC_PAIRS, times _QUARTIC, whose column k gives c_{4-k}.
_LAMBDAS = np.array([[1, 0, 0], [2, 1, 1], [1, 0, 1], [2, 1, 1], [0, 0, 0], [0, 0, 0]], dtype=np.int64)
_QUARTIC_PAIRS = (
    np.array([0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 3, 3]),
    np.array([0, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 4, 4, 5]),
)
_QUARTIC = np.array(
    [
        [2, -3, 1, 0, 0],  # n00
        [0, -4, 6, -2, 0],  # n00 x0
        [0, -1, 1, 0, 0],  # n00 n00
        [0, -2, 3, -1, 0],  # n00 n01
        [0, 2, -3, 1, 0],  # n00 n10
        [0, 1, -2, 1, 0],  # n00 n11
        [0, 0, 2, -3, 1],  # n00 x0 x0
        [0, 0, 1, -1, 0],  # n00 x0 n00
        [0, 0, 2, -3, 1],  # n00 x0 n01
        [0, 0, -2, 3, -1],  # n00 x0 n10
        [0, 0, -1, 2, -1],  # n00 x0 n11
        [0, 0, -1, 1, 0],  # n00 n00 n10
        [0, 0, -2, 3, -1],  # n00 n01 n10
        [0, 0, -1, 2, -1],  # n00 n01 n11
    ],
    dtype=np.int64,
)
# The quartic in p over (-1/64, 33/64), as a quartic in t > 0: row k gives
# 64^4 (1 + t)^4 p^(4-k) at p = (-1 + 33 t) / (64 (1 + t)), so that
# c @ _LENS holds the coefficients (t^4, ..., t^0) of the transformed quartic
# of the coefficients c = (c4, ..., c0).  Every entry is exact in a double.
_LENS = np.array(
    [
        [1185921, -143748, 6534, -132, 1],  # (-1 + 33 t)^4
        [2299968, 2090880, -202752, 6272, -64],  # (-1 + 33 t)^3 64 (1 + t)
        [4460544, 8650752, 3923968, -262144, 4096],  # (-1 + 33 t)^2 64^2 (1 + t)^2
        [8650752, 25690112, 25165824, 7864320, -262144],  # (-1 + 33 t) 64^3 (1 + t)^3
        [16777216, 67108864, 100663296, 67108864, 16777216],  # 64^4 (1 + t)^4
    ],
    dtype=float,
)


def _quartic_table(b: np.ndarray) -> np.ndarray:
    """The (M, 5) quartic coefficients (c4, ..., c0) of the (M, 6) branch rows b.

    Exact in b's dtype: int64 within _INT64_MAX_N, Python ints (object) beyond.
    """
    mono = b[:, _QUARTIC_PAIRS[0]] * b[:, _QUARTIC_PAIRS[1]]
    mono *= b[:, 2:3]
    return mono @ _QUARTIC


def _profile(lam1, lam2, lam3, p):
    # the a that zeroes the p score at fixed p < 1/2
    return (p * (lam1 - 2.0 * p) - lam2) / (p * (lam3 - p))


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
    """Raise DomainError unless every 2x2 matrix in the stack ``m`` is a covariance.

    The smaller eigenvalue of [[a, b], [b, c]], with b from the lower
    triangle as eigvalsh takes it, is (a + c) / 2 - hypot((a - c) / 2, b).
    """
    a, b, c = m[..., 0, 0], m[..., 1, 0], m[..., 1, 1]
    if not (np.abs(m[..., 0, 1] - b) <= 1e-12).all():
        raise DomainError("covariance must be symmetric")
    if not (np.minimum(a, c) > 0.0).all():
        raise DomainError("covariance diagonal must be positive")
    if not ((a + c) / 2.0 - np.hypot((a - c) / 2.0, b) >= -1e-10).all():
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
    q = 1.0 - p
    c00 = a * (1.0 - a) / np.where(less, p, q)
    c01 = a * np.where(less, q, -p)
    c11 = p * q * np.where(less, a + 1.0 - 2.0 * p, 2.0 * p - 1.0 + a) / (1.0 - a)
    return np.stack((c00, c01, c01, c11), -1).reshape(np.shape(c00) + (2, 2))


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
    return float(_clt_variance(params.a, params.p))


def _clt_variance(a, p):
    """clt_variance's formula on arrays (or floats) of a and p in (0, 1), unchecked."""
    q = _snap(np.where(p < 0.5, p, 1.0 - p))
    return q * (1.0 - q) * (a + 1.0 - 2.0 * q) / (1.0 - a)


def var_sample_mean(params: ModelParams, n: int) -> float:
    """Leading-order variance of the sample mean over n + 1 observations."""
    return clt_variance(params) / (_whole("n", n, 1) + 1)


@dataclass(frozen=True)
class MleFit:
    """Winning likelihood maximum: parameters, covariance, attained value.

    ``cov`` is None exactly when the fit lands on p = 1/2, where the joint
    covariance is undefined.
    """

    params: ModelParams
    cov: CovMatrix | None
    loglik: float


def _snap(p: float) -> float:
    # force p and 1 - p to be exact floating complements, so the relabeled
    # branch reports the mirror image bit for bit
    return 1.0 - (1.0 - p)


def fit_mle(counts: TransitionCounts) -> MleFit:
    """Maximize the likelihood over both branches and the p = 1/2 ridge.

    Runs the fitting core of fit_mle_batch on the one-row table of
    ``counts``.  Candidates come from the profile quartic on each branch
    (the p >= 1/2 branch through state relabeling) plus the closed-form
    p = 1/2 solution.  If the two branch maxima agree to within 1e-12 the
    fit is reported at p = 1/2, where the tied maxima meet.

    Raises DegenerateData, carrying the boundary values and the message of
    the row's FIT_* reason, when the data pin the maximum to the edge of the
    parameter space. Besides constant paths and empty transition rows this
    covers counts whose likelihood climbs all the way to a = 0, which
    happens only when n00 or n11 vanishes.  Raises DomainError when n + 1
    exceeds INT64_MAX, as fit_mle_batch does.
    """
    if counts.n + 1 > INT64_MAX:
        raise DomainError(COUNT_LIMIT)
    row = (counts.x0, counts.n00, counts.n01, counts.n10, counts.n11)
    fit = _fit_table(np.array([row], dtype=np.int64))
    code, a, p = int(fit.outcome[0]), float(fit.a[0]), float(fit.p[0])
    if code in _DEGENERATE:
        raise DegenerateData(_DEGENERATE[code], a=a, p=p, method="mle")
    params = ModelParams(a, p)
    cov = None if code == FIT_HALF else asymptotic_cov(params)
    return MleFit(params=params, cov=cov, loglik=float(fit.loglik[0]))


class MleBatch(NamedTuple):
    """fit_mle on each row of a count table: an outcome code, (a, p) and the score.

    ``outcome`` holds one of the FIT_* codes per row.  p is 1/2 where the
    fit lands on the ridge; where it is degenerate, a and p are the
    boundary values fit_mle's DegenerateData carries.  ``loglik`` is the
    score the core ranked: the winning branch maximum, the p = 1/2
    solution's or the a = 0 edge supremum, and NaN for the other outcomes.
    """

    outcome: np.ndarray
    a: np.ndarray
    p: np.ndarray
    loglik: np.ndarray


_SLOPE = np.array([4.0, 3.0, 2.0, 1.0])[:, None]  # the slope's coefficients over the quartic's


def _horner(poly: np.ndarray, x: np.ndarray) -> np.ndarray:
    # np.polyval at finite x, one column of coefficients (highest degree
    # first) per x: it starts from x * 0.0, and x * 0.0 * x + c equals c
    # for c != 0, which holds for the lead of every quartic with roots
    y = poly[0] * x
    y += poly[1]
    for ck in poly[2:]:
        y *= x
        y += ck
    return y


def _root_free(c: np.ndarray) -> np.ndarray:
    # the rows of quartic coefficients (c4, ..., c0) whose transformed quartic
    # c @ _LENS has five coefficients of one strict sign, each beyond its
    # rounding bound: those quartics have no root near (0, 1/2)
    s = c @ _LENS
    s *= np.sign(s[:, :1])
    return (s > np.abs(c) @ np.abs(_LENS) * 2.0**-48).all(axis=1)


def _quartic_candidates(b: np.ndarray):
    """Interior critical points with p < 1/2 for every branch row of an (M, 6) table.

    ``b`` holds rows (1, x0, n00, n01, n10, n11), int64 or Python ints, in
    whose type the quartic and the (M, 3) aggregates lam1..lam3 are exact;
    the coefficients are converted to float as np.roots converts them.
    Returns (ok, a, r, lam): (M, 4) arrays over the root slots, with ok
    marking the slots that hold an admissible candidate, and lam.
    Each row gets the roots np.roots gives, which strips leading and
    trailing zero coefficients (trailing ones only add roots at 0, which are
    never admissible).  c4 = 2 n00 leads, and n00 = 0 zeroes the whole
    quartic, which then has no roots; c0 = lam2 n00 (x0 - n10 - n11) also
    vanishes where x0 = n10 + n11, leaving a cubic.

    A row is solved only if it may hold a root near (0, 1/2).  The map
    p = (-d + (1/2 + d) t) / (1 + t), d = 1/64, takes t in (0, inf) onto
    (-d, 1/2 + d), and c @ _LENS is the quartic in t.  A quartic in t whose
    five coefficients share one strict sign has no zero with |arg t| < pi/4
    (each term t^k lies within 4 |arg t| < pi of the positive axis), and
    that sector maps onto a lens over (-d, 1/2 + d) that holds every point
    within about d / sqrt(2) of [0, 1/2].  Such a row is certified when each
    transformed coefficient passes its rounding bound 2^-48 (|c| @ |_LENS|),
    which covers the conversion of c to float and the product; it gets
    degree 0, hence no roots and no candidate, and every other row's roots
    are the ones it would get anyway.  The margin d matters: the window ok
    tests is not the open interval but every root with real part in
    (0, 1/2) and imaginary part below _IMAG_TOL.  With d = 0 the lens thins
    to nothing at 0 and 1/2, and a quartic with a complex pair at, say,
    1/2 - 1e-12 +/- 9e-7 i would be certified though that pair fills an ok
    slot.

    The other rows are solved in groups of one degree, one eigenvalue call
    on each group's stack of companion matrices, built as np.roots builds
    them.  Each real root in (0, 1/2) is Newton-polished on the full
    quartic (up to 3 steps, each kept only if it stays in (0, 1/2) and
    shrinks the residual), snapped, and given its profile a.  The quartic
    and its slope are evaluated together, in np.polyval's order.  A root
    that eigvals returns twice fills two slots that score the same, and the
    winner's choice keeps the first.
    """
    c = np.asarray(_quartic_table(b), dtype=float)
    lam = b @ _LAMBDAS
    nz = c != 0.0
    deg = np.where(nz[:, 0], 4 - nz[:, ::-1].argmax(axis=1), 0)
    deg[_root_free(c)] = 0
    roots = np.full((len(c), 4), np.nan, dtype=complex)
    for d in set(deg.tolist()) - {0}:
        g = (deg == d).nonzero()[0]
        companion = np.zeros((len(g), d, d))
        companion[:, 0, :] = -c[g, 1 : d + 1] / c[g, :1]
        companion.reshape(len(g), d * d)[:, d :: d + 1] = 1.0
        roots[g, :d] = np.linalg.eigvals(companion)
    r = roots.real
    ok = (np.abs(roots.imag) < _IMAG_TOL) & (0.0 < r) & (r < 0.5)

    rows, slots = np.nonzero(ok)
    # per root, the quartic's coefficients and its slope's, led by a zero:
    # 0 x + 4 c4 is 4 c4
    poly = np.zeros((5, 2, len(rows)))
    poly[:, 0] = c[rows].T
    poly[1:, 1] = poly[:4, 0] * _SLOPE
    best = r[rows, slots]
    at_best = _horner(poly, best)  # the residual and the slope at best
    with np.errstate(all="ignore"):  # a step may overflow; it is then not taken
        active = np.ones(len(best), dtype=bool)
        for _ in range(3 if len(best) else 0):
            cand = best - at_best[0] / at_best[1]
            at_cand = _horner(poly, cand)
            active &= (0.0 < cand) & (cand < 0.5) & (np.abs(at_cand[0]) < np.abs(at_best[0]))
            if not active.any():
                break
            np.copyto(best, cand, where=active)
            np.copyto(at_best, at_cand, where=active)

        r[rows, slots] = _snap(best)
        ok &= (0.0 < r) & (r < 0.5)
        lf = np.asarray(lam, dtype=float)  # Python floats would raise on a root snapped to 0
        a = _profile(lf[:, :1], lf[:, 1:2], lf[:, 2:3], r)
    ok &= (0.0 < a) & (a < 1.0)
    return ok, a, r, lam


def _fit_table(t: np.ndarray) -> MleBatch:
    """The fitting core of fit_mle and fit_mle_batch, on a valid int64 count table.

    Settles each row in this order: a state never left; the quartic
    candidates of each branch; tied branch maxima, degenerate unless the
    p = 1/2 solution exists; the best branch maximum against that solution;
    the a = 0 edge, if its supremum beats the winner; no maximum.  Any
    interior maximum zeroes the score, so it is a root of its branch's
    quartic: a row with no admissible root has no interior maximum.

    The a = 0 edge is finite only on a branch with n11 = 0.  There the p
    score has the sign of 2 p^2 - lam1 p + lam2 (_LAMBDAS aggregates),
    which is -n00 / 2 <= 0 at p = 1/2 and has D = lam1^2 - 8 lam2 >= 0, so
    the edge likelihood peaks at the small root 2 lam2 / (lam1 + sqrt(D)).
    The supremum is that root clipped to [2^-53, 1/2 - _EDGE_LO] and
    snapped.  The root is at least lam2 / lam1 >= 1 / (2n + 3) (lam2 >= 1 on
    a live branch), and the floor moves only roots below 2^-54, which would
    snap to p = 0.  Likewise the p = 1/2 solution counts only where its a
    exceeds 2^-52, below which d = a / 2 + 1 - 1 rounds to 0.  Neither guard
    acts on a row with n < 2^52.

    One conversion picks the integer types: a table whose largest n is above
    _INT64_MAX_N becomes Python ints, from which the boundary a and p, the
    branch table, the quartic, the aggregates and D take their type.  Python
    ints divide correctly rounded where numpy would round counts beyond 2^53
    to float first.  Below 2^53 the counts convert to float exactly, so both
    quotients are the same double: a row's fit does not depend on its table.
    """
    n = t[:, 1:].sum(axis=1)
    if n.max(initial=0) > _INT64_MAX_N:
        t, n = t.astype(object), n.astype(object)
    x0, n00, n01, n10, n11 = t.T
    outcome = np.full(len(t), FIT_NO_MAXIMUM, dtype=np.int8)
    # the a of the p = 1/2 solution, and the boundary a and p
    a = np.asarray((n00 + n11) / n, dtype=float)
    p = np.asarray((x0 + n01 + n11) / (n + 1), dtype=float)
    never = (n00 + n01 == 0) | (n10 + n11 == 0)
    outcome[never] = FIT_NEVER_LEFT
    live = (~never).nonzero()[0]
    m = len(live)
    a_half = a[live]

    # row m + i is row i relabeled: its p is 1 - p of row i
    b = np.empty((2 * m, 6), dtype=t.dtype)
    b[:, 0] = 1
    b[:m, 1:] = t[live]
    np.subtract(1, b[:m, 1], out=b[m:, 1])
    b[m:, 2:] = b[:m, :1:-1]
    branch = b[:, 1:]
    ok, ca, cp, lam = _quartic_candidates(b)
    c = ok.ravel().nonzero()[0]  # the candidates' slots in the (2m, 4) arrays
    half = (2.0**-52 < a_half) & (a_half < 1.0)
    h = half.nonzero()[0]
    e = (branch[:, 4] == 0).nonzero()[0]  # the branches with a finite a = 0 edge
    root = np.zeros(0)
    if len(e):
        lam1, lam2 = lam[e, 0], lam[e, 1]
        disc = np.asarray(lam1 * lam1 - 8 * lam2, dtype=float)
        root = np.asarray(2.0 * lam2 / (lam1 + np.sqrt(disc)), dtype=float)
        root = _snap(root.clip(2.0**-53, 0.5 - _EDGE_LO))
    # every candidate, every p = 1/2 solution and every edge supremum, scored in one pass
    scores = _loglik_less(
        branch[np.concatenate((c // 4, h, e))].T,
        np.concatenate((ca.ravel()[c], a_half[h], np.zeros(len(e)))),
        np.concatenate((cp.ravel()[c], np.full(len(h), 0.5), root)),
    )
    ll = np.full(11 * m, -np.inf)  # the candidate slots, then one per p = 1/2 solution and per edge
    ll[np.concatenate((c, 8 * m + h, 9 * m + e))] = scores
    cand_ll, half_ll, edge_ll = ll[: 8 * m].reshape(2 * m, 4), ll[8 * m : 9 * m], ll[9 * m :]
    k = np.argmax(cand_ll, axis=1)  # the first of equal maxima, as max() picks
    slot = np.arange(2 * m)
    best_ll, best_a, best_p = cand_ll[slot, k], ca[slot, k], cp[slot, k]
    best_p[m:] = 1.0 - best_p[m:]

    # a branch with no candidate scores -inf, so it neither wins nor ties
    ll_l, ll_g = best_ll[:m], best_ll[m:]
    with np.errstate(invalid="ignore"):  # -inf - -inf where both are missing
        tied = np.abs(ll_l - ll_g) <= _BRANCH_TIE_TOL
    pick_g = ll_g > ll_l
    int_ll = np.where(tied, -np.inf, np.maximum(ll_l, ll_g))
    to_half = half & ~(int_ll > half_ll)
    out = np.where(to_half, FIT_HALF, np.where(int_ll > -np.inf, FIT_INTERIOR, FIT_NO_MAXIMUM))
    out[tied & ~half] = FIT_TIED_BRANCHES
    interior = out == FIT_INTERIOR
    a_live = np.where(interior, np.where(pick_g, best_a[m:], best_a[:m]), a_half)
    p_live = np.where(interior, np.where(pick_g, best_p[m:], best_p[:m]), np.where(to_half, 0.5, p[live]))
    top = np.maximum(int_ll, half_ll)  # the winner's score, -inf if there is none

    if len(e):
        # the edge wins by more than _EDGE_TOL, its relabeled branch by a strict
        # gain.  No tied row has an edge: n11 = 0 on one branch is n00 = 0 on the
        # other, and an n00 = 0 branch has no quartic roots
        edge_p = np.zeros(2 * m)
        edge_p[e] = root
        sup = np.maximum(edge_ll[:m], edge_ll[m:])
        won = sup > top + _EDGE_TOL
        out[won], a_live[won] = FIT_A0_EDGE, 0.0
        p_live[won] = np.where(edge_ll[m:] > edge_ll[:m], 1.0 - edge_p[m:], edge_p[:m])[won]
        top = np.where(won, sup, top)

    score = np.full(len(t), np.nan)
    outcome[live], a[live], p[live], score[live] = out, a_live, p_live, top
    score[score == -np.inf] = np.nan
    return MleBatch(outcome, a, p, score)


def fit_mle_batch(table) -> MleBatch:
    """fit_mle on every row of an (R, 5) table of (x0, n00, n01, n10, n11).

    fit_mle runs the same core on a one-row table, so every row comes out
    bit for bit as fit_mle has it, with the reason for each degenerate row
    as an outcome code in place of the exception.
    """
    return _fit_table(validate_count_table(table))


def mle_ci_batch(table, alpha: float = 0.05) -> tuple[MleBatch, np.ndarray, np.ndarray]:
    """mle_ci on every row of a count table, as arrays.

    Returns the fits and (R, 2) arrays of lower and upper bounds for a and
    p, NaN where the fit is not interior.  Interior rows get the intervals
    mle_ci gives them, bit for bit.
    """
    z = _check_alpha(alpha)
    t = validate_count_table(table)
    fit = _fit_table(t)
    ok = fit.outcome == FIT_INTERIOR
    a, p = fit.a[ok], fit.p[ok]
    cov = _cov_entries(a, p)
    _check_cov(cov)
    se = np.sqrt(cov.diagonal(axis1=1, axis2=2) / (t[ok, 1:].sum(axis=1, keepdims=True) + 1))
    low = np.full((len(ok), 2), np.nan)
    high = np.full((len(ok), 2), np.nan)
    low[ok], high[ok] = normal_bounds(np.column_stack((a, p)), se, z)
    return fit, low, high


def mle_ci(counts: TransitionCounts, alpha: float = 0.05) -> tuple[Estimate, Estimate]:
    """Normal confidence intervals for a and p at the MLE.

    Half-widths are z * sqrt(cov_kk / (n + 1)) with the covariance
    evaluated at the fitted point.
    """
    z = _check_alpha(alpha)
    fit = fit_mle(counts)
    if fit.cov is None:
        raise DomainError("the fit landed exactly on p = 1/2; use mle_half for a")
    n, regime = counts.n, fit.params.regime
    estimates = []
    for k, point in enumerate((fit.params.a, fit.params.p)):
        se = math.sqrt(fit.cov[k, k] / (n + 1))
        estimates.append(Estimate("mle", point, se, *normal_bounds(point, se, z), alpha, n, regime))
    return tuple(estimates)


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
    return Estimate("mle-half", a_hat, se, *normal_bounds(a_hat, se, z), alpha, counts.n, Regime.HALF)


def _ones(path: BinaryPath, method: str) -> int:
    """The count of ones in a path; DegenerateData, with the mean as point, if it is constant."""
    ones = int(np.count_nonzero(path.states))
    if not 0 < ones < path.states.size:
        p_bar = ones / path.states.size
        raise DegenerateData("the path is constant; the mean sits on the boundary", p=p_bar, point=p_bar, method=method)
    return ones


def _mean_rows(ones, n1, a_hat, z):
    """mean_estimate's (point, stderr, low, high) for nonconstant paths of n1 states,
    given arrays of their counts of ones and plug-in a; the mean is np.mean's to the bit."""
    p_bar = ones / n1
    se = np.sqrt(_clt_variance(a_hat, p_bar) / n1)
    return (p_bar, se, *normal_bounds(p_bar, se, z))


def mean_estimate(path: BinaryPath, alpha: float = 0.05, a_hat: float | None = None) -> Estimate:
    """Sample mean of the path as an estimate of p, with Markov-corrected CI.

    The interval width needs the dependence strength, so a plug-in a is
    required; by default it comes from the MLE on the same path.
    """
    z = _check_alpha(alpha)
    ones = _ones(path, "mean")
    if a_hat is None:
        a_hat = fit_mle(transition_counts(path)).params.a
    rows = _mean_rows(np.array([ones]), path.states.size, np.array([_unit("copula weight a", a_hat)]), z)
    point, se, low, high = (float(v[0]) for v in rows)
    return Estimate("mean", point, se, low, high, alpha, path.n, Regime.from_p(point))


def _robust_noise(fill, noise_seeds, out: np.ndarray) -> np.ndarray:
    """Row i of ``out`` becomes make_generator(noise_seeds[i]).standard_normal(), drawn by
    ``fill``, a uniform_filler("standard_normal"); returns ``out``."""
    for seed, row in zip(noise_seeds, out):
        fill(seed, 0, row)
    return out


def _robust_rows(states: np.ndarray, y: np.ndarray, z):
    """robust_estimate's (point, stderr, low, high) for each row of the bool ``states``.

    Row i of ``y`` holds the row's standard normals (_robust_noise) and is overwritten
    by its weights.  The weights are computed in place, each with the formula's
    operations in order, and mean(X^2) of a 0/1 path is its count of ones over n + 1:
    both are bit for bit the formula's.
    """
    n1 = states.shape[1]
    h = (1.0 / (n1 * math.sqrt(2.0))) ** 0.2
    y /= h
    np.square(y, out=y)
    y *= -0.5
    np.exp(y, out=y)
    y *= states
    point = np.mean(y, axis=1) / h
    x2_bar = np.count_nonzero(states, axis=1) / n1
    se = np.sqrt(x2_bar / (n1 * math.sqrt(2.0) * h))
    return (point, se, *normal_bounds(point * math.sqrt(1.0 + h * h), se, z))


def robust_estimate(path: BinaryPath, alpha: float = 0.05, noise_seed: int = 0) -> Estimate:
    """Kernel-weighted mean of the path with externally injected noise.

    Each observation is weighted by a Gaussian kernel of an independent
    standard normal draw at bandwidth h = (1/((n+1) sqrt 2))^(1/5):

        p_tilde = (1/((n+1) h)) sum X_t exp(-Y_t^2 / (2 h^2)).

    The interval is centered at p_tilde * sqrt(1 + h^2) with half-width
    z * sqrt(mean(X^2) / ((n+1) sqrt(2) h)); it does not lean on the
    dependence structure of the path, only on the marginal second moment.
    Raises DegenerateData on a constant path, as mean_estimate does.
    """
    z = _check_alpha(alpha)
    _ones(path, "robust")
    noise_seed = _seed("noise_seed", noise_seed)
    y = _robust_noise(uniform_filler("standard_normal"), [noise_seed], np.empty((1, path.states.size)))
    point, se, low, high = (float(v[0]) for v in _robust_rows(path.states.view(bool)[None], y, z))
    return Estimate("robust", point, se, low, high, alpha, path.n)


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
    return Estimate("indicator", a_hat, se, *normal_bounds(a_hat, se, z), alpha, n)
