"""Replicated simulation studies: coverage, interval length, test behavior.

Every replication draws its path from a private Philox stream derived from
the master seed, the replication index, and a purpose tag, so reports are
reproducible bit for bit regardless of execution order.  Runtime is carried
for reporting but excluded from equality comparisons.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .chain import ModelParams, simulate_bernoulli_chain, simulate_counts_batch, transition_counts
from .errors import DegenerateData, DomainError
from .estimation import (
    FIT_INTERIOR,
    _check_alpha,
    fit_mle,
    mean_estimate,
    mle_ci_batch,
    mle_estimate,
    robust_estimate,
    var_sample_mean,
)
from .inference import LrtResult, lrt
from .rng import derive_seed, derive_seeds

STREAM_PATH = 1
STREAM_ROBUST = 2
STREAM_GRID = 3
STREAM_SYMMETRY = 4
STREAM_TABLE = 5

MLE_ESTIMATORS = ("mle",)
COMPARISON_ESTIMATORS = ("mle", "mean", "robust")


@dataclass(frozen=True)
class StudyConfig:
    """Settings of one replicated study at a single true parameter point."""

    a: float
    p: float
    n: int
    reps: int = 400
    alpha: float = 0.05
    master_seed: int = 20260814
    estimators: tuple[str, ...] = MLE_ESTIMATORS

    def __post_init__(self):
        ModelParams(self.a, self.p)
        if self.n < 1:
            raise DomainError(f"need at least one transition, got n={self.n!r}")
        if self.reps < 1:
            raise DomainError(f"need at least one replication, got reps={self.reps!r}")
        _check_alpha(self.alpha)

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.a, self.p)


@dataclass(frozen=True)
class ParamStats:
    """Aggregate over effective replications for one (estimator, target)."""

    coverage: float
    ciml: float


@dataclass(frozen=True)
class RepRecord:
    """One replication's interval for the per-replication export."""

    rep: int
    estimator: str
    point: float | None
    ci_lo: float | None
    ci_hi: float | None
    covered: bool | None
    length: float | None
    degenerate: bool


@dataclass(frozen=True)
class MCReport:
    """Study results; equal reports mean bit-identical statistical content."""

    config: StudyConfig
    stats: dict
    degenerate: dict
    reps_effective: dict
    rows: tuple = field(default=(), compare=False)
    runtime: float = field(default=0.0, compare=False)

    def as_dict(self) -> dict:
        return {
            "config": {
                "a": self.config.a,
                "p": self.config.p,
                "n": self.config.n,
                "reps": self.config.reps,
                "alpha": self.config.alpha,
                "master_seed": self.config.master_seed,
                "estimators": list(self.config.estimators),
            },
            "results": {
                est: {
                    target: {"coverage": st.coverage, "ciml": st.ciml}
                    for target, st in targets.items()
                }
                for est, targets in self.stats.items()
            },
            "degenerate": dict(self.degenerate),
            "reps_effective": dict(self.reps_effective),
            "runtime_seconds": self.runtime,
        }


def _interval_stats(low, high, truth: float) -> ParamStats:
    """Coverage and mean length of intervals given by their bounds in replication order."""
    count = len(low)
    if count == 0:
        return ParamStats(coverage=math.nan, ciml=math.nan)
    covered = int(np.count_nonzero((low <= truth) & (truth <= high)))
    # a running sum, strictly left to right: np.sum adds pairwise and the
    # builtin sum compensates from Python 3.12 on, and either can change the
    # last bit of the mean length
    length_sum = float(np.add.accumulate(high - low)[-1])
    return ParamStats(coverage=covered / count, ciml=length_sum / count)


def _record(rep, tag, point, low, high, truth) -> RepRecord:
    if point is None:
        return RepRecord(rep, tag, None, None, None, None, None, True)
    return RepRecord(rep, tag, point, low, high, low <= truth <= high, high - low, False)


def mc_mle_study(config: StudyConfig, keep_rows: bool = False) -> MCReport:
    """Coverage and mean length of the MLE intervals for a and p.

    All replications are simulated, tallied and fitted at once
    (simulate_counts_batch, mle_ci_batch); the report is the one mle_ci
    gives replication by replication, bit for bit.  A replication whose fit
    raises DegenerateData or lands on p = 1/2 counts as degenerate; any
    other error propagates.
    """
    t0 = time.perf_counter()
    params = config.params
    seeds = derive_seeds(config.master_seed, STREAM_PATH, count=config.reps)
    counts = simulate_counts_batch(params, config.n, seeds)
    fit, low, high = mle_ci_batch(counts, config.alpha)
    ok = fit.outcome == FIT_INTERIOR
    truth = (params.a, params.p)
    stats = {
        "a": _interval_stats(low[ok, 0], high[ok, 0], params.a),
        "p": _interval_stats(low[ok, 1], high[ok, 1], params.p),
    }
    rows = []
    if keep_rows:
        points = np.column_stack((fit.a, fit.p)).tolist()
        columns = zip(ok.tolist(), points, low.tolist(), high.tolist())
        for r, (good, point, lo, hi) in enumerate(columns):
            for k, tag in enumerate(("mle_a", "mle_p")):
                rows.append(_record(r, tag, point[k] if good else None, lo[k], hi[k], truth[k]))
    degenerate = config.reps - int(np.count_nonzero(ok))
    return MCReport(
        config=config,
        stats={"mle": stats},
        degenerate={"mle": degenerate},
        reps_effective={"mle": config.reps - degenerate},
        rows=tuple(rows),
        runtime=time.perf_counter() - t0,
    )


def mc_estimator_comparison(config: StudyConfig, keep_rows: bool = False) -> MCReport:
    """Coverage and mean length for p across the three estimators.

    All estimators see the same simulated path in each replication; only
    the kernel estimator consumes an extra private noise stream.
    """
    t0 = time.perf_counter()
    params = config.params
    estimators = tuple(dict.fromkeys(config.estimators))
    unknown = [e for e in estimators if e not in COMPARISON_ESTIMATORS]
    if unknown:
        raise DomainError(f"unknown comparison estimators {unknown!r}; choose from {COMPARISON_ESTIMATORS!r}")
    if not estimators:
        raise DomainError("no comparison estimators given")
    z = _check_alpha(config.alpha)
    bounds = {e: ([], []) for e in estimators}
    deg = {e: 0 for e in estimators}
    rows = []
    for r in range(config.reps):
        seed = derive_seed(config.master_seed, STREAM_PATH, r)
        path = simulate_bernoulli_chain(params, config.n, seed)
        counts = transition_counts(path)
        fit = None
        try:
            fit = fit_mle(counts)
        except DegenerateData:
            fit = None
        for e in estimators:
            est = None
            try:
                if e == "mle":
                    if fit is None or fit.cov is None:
                        raise DegenerateData("no interior fit", method="mle")
                    est = mle_estimate(fit, counts.n, 1, z, config.alpha)
                elif e == "mean":
                    if fit is None:
                        raise DegenerateData("no plug-in dependence estimate", method="mean")
                    est = mean_estimate(path, config.alpha, a_hat=fit.params.a)
                else:
                    est = robust_estimate(
                        path, config.alpha, noise_seed=derive_seed(config.master_seed, STREAM_ROBUST, r)
                    )
            except DegenerateData:
                deg[e] += 1
                if keep_rows:
                    rows.append(_record(r, e, None, None, None, None))
                continue
            bounds[e][0].append(est.ci_low)
            bounds[e][1].append(est.ci_high)
            if keep_rows:
                rows.append(_record(r, e, est.point, est.ci_low, est.ci_high, params.p))
    stats = {
        e: {"p": _interval_stats(np.array(lo), np.array(hi), params.p)} for e, (lo, hi) in bounds.items()
    }
    return MCReport(
        config=config,
        stats=stats,
        degenerate=deg,
        reps_effective={e: config.reps - deg[e] for e in estimators},
        rows=tuple(rows),
        runtime=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class LrtCell:
    """One grid cell of the test study: a single path, a single decision."""

    a: float
    p: float
    result: LrtResult | None
    degenerate: bool


def lrt_grid(a_values, p_values, n: int, master_seed: int, alpha: float = 0.05) -> list[LrtCell]:
    """Run the independence test once per (a, p) grid cell."""
    cells = []
    for i, a in enumerate(a_values):
        for j, p in enumerate(p_values):
            params = ModelParams(a, p)
            seed = derive_seed(master_seed, STREAM_GRID, i, j)
            path = simulate_bernoulli_chain(params, n, seed)
            try:
                res = lrt(path, alpha)
                cells.append(LrtCell(a=a, p=p, result=res, degenerate=False))
            except DegenerateData:
                cells.append(LrtCell(a=a, p=p, result=None, degenerate=True))
    return cells


def closed_form_ciml_p(a: float, p: float, n: int, alpha: float = 0.05) -> float:
    """Length of the asymptotic MLE interval for p at the true parameters.

    The p-diagonal of the asymptotic covariance coincides with the sample
    mean's limit variance, which is evaluated in a form that is
    bit-identical at p and 1 - p, so this length is exactly symmetric
    about p = 1/2.
    """
    z = _check_alpha(alpha)
    return 2.0 * z * math.sqrt(var_sample_mean(ModelParams(a, p), n))


@dataclass(frozen=True)
class SymmetryRow:
    """Simulated and closed-form interval lengths for p at one grid point."""

    p: float
    mc_ciml: float
    closed_ciml: float


def symmetry_report(
    a: float, p_values, n: int, reps: int, master_seed: int, alpha: float = 0.05
) -> list[SymmetryRow]:
    """Interval lengths for p across a p-grid at fixed a.

    The closed-form series is exactly symmetric about p = 1/2; the
    simulated series matches it up to Monte Carlo error.
    """
    out = []
    for k, p in enumerate(p_values):
        sub = StudyConfig(
            a=a,
            p=p,
            n=n,
            reps=reps,
            alpha=alpha,
            master_seed=derive_seed(master_seed, STREAM_SYMMETRY, k),
        )
        report = mc_mle_study(sub)
        out.append(
            SymmetryRow(
                p=p,
                mc_ciml=report.stats["mle"]["p"].ciml,
                closed_ciml=closed_form_ciml_p(a, p, n, alpha),
            )
        )
    return out


TABLE_GRIDS = {
    "mle-less": {"a": (0.1, 0.2, 0.7, 0.9), "p": (0.1, 0.3, 0.4)},
    "mle-geq": {"a": (0.1, 0.2, 0.7, 0.9), "p": (0.6, 0.7, 0.9)},
    "compare-less": {"a": (0.5,), "p": (0.1, 0.2, 0.3, 0.4)},
    "compare-geq": {"a": (0.5,), "p": (0.6, 0.7, 0.8, 0.9)},
}


def table_study(which: str, n_values, reps: int, master_seed: int, alpha: float = 0.05):
    """Desk-scale reproduction of the coverage tables.

    Returns (header, rows); each row aggregates one replicated study at a
    single (n, a, p) cell.
    """
    if which not in TABLE_GRIDS:
        raise DomainError(f"unknown table {which!r}; choose from {sorted(TABLE_GRIDS)}")
    grid = TABLE_GRIDS[which]
    rows = []
    if which.startswith("mle"):
        header = ["n", "a", "p", "ciml_a", "ciml_p", "cp_a", "cp_p"]
    else:
        header = ["n", "a", "p", "ciml_mle", "cp_mle", "ciml_mean", "cp_mean", "ciml_robust", "cp_robust"]
    for i, n in enumerate(n_values):
        for j, a in enumerate(grid["a"]):
            for k, p in enumerate(grid["p"]):
                cfg = StudyConfig(
                    a=a,
                    p=p,
                    n=n,
                    reps=reps,
                    alpha=alpha,
                    master_seed=derive_seed(master_seed, STREAM_TABLE, i, j, k),
                    estimators=MLE_ESTIMATORS if which.startswith("mle") else COMPARISON_ESTIMATORS,
                )
                if which.startswith("mle"):
                    rep = mc_mle_study(cfg)
                    sa, sp = rep.stats["mle"]["a"], rep.stats["mle"]["p"]
                    rows.append([n, a, p, sa.ciml, sp.ciml, sa.coverage, sp.coverage])
                else:
                    rep = mc_estimator_comparison(cfg)
                    row = [n, a, p]
                    for e in COMPARISON_ESTIMATORS:
                        st = rep.stats[e]["p"]
                        row.extend([st.ciml, st.coverage])
                    rows.append(row)
    return header, rows
