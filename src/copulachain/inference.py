"""Likelihood-ratio test of serial independence for the copula chain.

The chain is an i.i.d. sequence exactly when the transition matrix rows
collapse to the stationary law, which happens at a = p on the p < 1/2
branch and at a = 1 - p on the other.  Under the null the restricted
likelihood is the plain binomial one, so the test compares it against the
unrestricted two-parameter fit; the statistic is asymptotically
chi-squared with one degree of freedom.
"""

import math
from dataclasses import dataclass

from .chain import BinaryPath, ModelParams, Regime, transition_counts
from .errors import EvalError
from .estimation import chisq1_quantile, fit_mle

REJECT = "reject"
FAIL_TO_REJECT = "fail_to_reject"

_NEG_TOL = 1e-6


def is_independence_point(params: ModelParams) -> bool:
    """Whether (a, p) makes consecutive states exactly independent."""
    if params.regime is Regime.LESS_HALF:
        return params.a == params.p
    return params.a == 1.0 - params.p


@dataclass(frozen=True)
class LrtResult:
    """Outcome of the likelihood-ratio independence test."""

    statistic: float
    df: int
    p_value: float
    alpha: float
    threshold: float
    decision: str
    clamped: bool
    lambda_raw: float
    regime: Regime


def lrt(path: BinaryPath, alpha: float = 0.05) -> LrtResult:
    """Test H0: the observations are i.i.d. Bernoulli, against the chain.

    The restricted maximum sits at p = (number of ones)/(n + 1).  The raw
    statistic is clamped at zero when the unrestricted fit is numerically
    a hair below the restricted one; a deficit beyond tolerance means the
    optimizer failed and raises instead of being hidden.  The unrestricted
    fit comes first: where it is degenerate, fit_mle's DegenerateData
    propagates.  That covers a constant path, which never leaves its state.
    """
    counts = transition_counts(path)
    fit = fit_mle(counts)
    n1 = counts.n + 1
    ones = counts.ones
    p0 = ones / n1
    ll0 = ones * math.log(p0) + (n1 - ones) * math.log(1.0 - p0)
    raw = 2.0 * (fit.loglik - ll0)
    if raw < -_NEG_TOL:
        raise EvalError(
            f"unrestricted likelihood fell {-raw:.3g} below the restricted one; "
            "the maximization is unreliable on these data"
        )
    clamped = raw < 0.0
    statistic = max(raw, 0.0)
    p_value = math.erfc(math.sqrt(statistic / 2.0))
    threshold = chisq1_quantile(alpha)
    decision = REJECT if statistic >= threshold else FAIL_TO_REJECT
    return LrtResult(
        statistic=statistic,
        df=1,
        p_value=p_value,
        alpha=alpha,
        threshold=threshold,
        decision=decision,
        clamped=clamped,
        lambda_raw=math.exp(min(ll0 - fit.loglik, 0.0)),
        regime=fit.params.regime,
    )
