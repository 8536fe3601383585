"""Replicated simulation studies: coverage, interval length, test behavior.

Every replication draws its path from a private Philox stream derived from
the master seed, the replication index, and a purpose tag, so reports are
reproducible bit for bit regardless of execution order.  Runtime is carried
for reporting but excluded from equality comparisons.
"""

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (every study draws: load it before a study's clock starts)

from . import STUDY_SEED
from .chain import (
    ModelParams,
    _block_rows,
    _paths,
    _tally,
    simulate_bernoulli_chain,
    simulate_counts_batch,
)
from .errors import DegenerateData, DomainError, _seed, _whole
from .estimation import (
    FIT_HALF,
    FIT_INTERIOR,
    _check_alpha,
    _mean_rows,
    _robust_noise,
    _robust_rows,
    mle_ci_batch,
    var_sample_mean,
)
from .inference import LrtResult, lrt
from .rng import derive_seed, derive_seeds, uniform_filler

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
    master_seed: int = STUDY_SEED
    estimators: tuple[str, ...] = MLE_ESTIMATORS

    def __post_init__(self):
        ModelParams(self.a, self.p)
        object.__setattr__(self, "n", _whole("n", self.n, 1))
        object.__setattr__(self, "reps", _whole("reps", self.reps, 1))
        object.__setattr__(self, "master_seed", _seed("master_seed", self.master_seed))
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
            "config": asdict(self.config) | {"estimators": list(self.config.estimators)},
            "results": {
                est: {target: asdict(st) for target, st in targets.items()}
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


def _report(config: StudyConfig, t0: float, keep_rows: bool, columns) -> MCReport:
    """A study's report from columns (estimator, target, row tag, ok, point, low, high, truth).

    ok, point, low and high hold one entry per replication; ok marks the
    effective ones, the rest count as degenerate.  Rows, if kept, hold one
    record per column for each replication in turn.
    """
    stats, degenerate = {}, {}
    for est, target, _, ok, _, low, high, truth in columns:
        stats.setdefault(est, {})[target] = _interval_stats(low[ok], high[ok], truth)
        degenerate[est] = config.reps - int(np.count_nonzero(ok))
    rows = []
    if keep_rows:
        lists = [(tag, truth, *(v.tolist() for v in arrays)) for _, _, tag, *arrays, truth in columns]
        for r in range(config.reps):
            for tag, truth, ok, point, low, high in lists:
                rows.append(_record(r, tag, point[r] if ok[r] else None, low[r], high[r], truth))
    return MCReport(
        config=config,
        stats=stats,
        degenerate=degenerate,
        reps_effective={e: config.reps - d for e, d in degenerate.items()},
        rows=tuple(rows),
        runtime=time.perf_counter() - t0,
    )


def mc_mle_study(config: StudyConfig, keep_rows: bool = False) -> MCReport:
    """Coverage and mean length of the MLE intervals for a and p.

    All replications are simulated, tallied and fitted at once
    (simulate_counts_batch, mle_ci_batch); the report is the one mle_ci
    gives replication by replication, bit for bit.  A replication whose fit
    is not interior (degenerate, or on p = 1/2) counts as degenerate; any
    error other than a degenerate fit propagates.
    """
    t0 = time.perf_counter()
    if tuple(dict.fromkeys(config.estimators)) != MLE_ESTIMATORS:
        raise DomainError(f"unsupported MLE study estimators {config.estimators!r}; choose from {MLE_ESTIMATORS!r}")
    params = config.params
    seeds = derive_seeds(config.master_seed, STREAM_PATH, count=config.reps)
    counts = simulate_counts_batch(params, config.n, seeds)
    fit, low, high = mle_ci_batch(counts, config.alpha)
    ok = fit.outcome == FIT_INTERIOR
    return _report(config, t0, keep_rows, [
        ("mle", "a", "mle_a", ok, fit.a, low[:, 0], high[:, 0], params.a),
        ("mle", "p", "mle_p", ok, fit.p, low[:, 1], high[:, 1], params.p),
    ])


def mc_estimator_comparison(config: StudyConfig, keep_rows: bool = False) -> MCReport:
    """Coverage and mean length for p across the three estimators.

    All estimators see the same path in each replication.  Without the
    robust estimator the counts are simulate_counts_batch's.  With it, one
    engine pass yields the paths a block at a time, each block leaving its
    counts and its kernel estimates, and the kernel's noise is drawn on one
    worker thread, a block ahead, while this thread simulates the paths.
    The draws take turns in two buffers, so two noise blocks are held; a
    draw that raises raises its own exception here, and the thread ends
    before the call returns.  mle_ci_batch and the mean kernel then run on
    the counts.  The report is what fit_mle, mean_estimate and
    robust_estimate give replication by replication, bit for bit: every
    stream is keyed per replication.
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
    seeds = derive_seeds(config.master_seed, STREAM_PATH, count=config.reps).tolist()
    robust = np.empty((4, config.reps))
    if "robust" in estimators:
        # imported here: concurrent.futures loads logging (~7 ms, ~0.6 MB of
        # RSS), which studies that start no thread have no use for
        from concurrent.futures import ThreadPoolExecutor

        noise_seeds = derive_seeds(config.master_seed, STREAM_ROBUST, count=config.reps).tolist()
        table = np.empty((config.reps, 5), dtype=np.int64)
        rows = _block_rows(config.n)
        fill = uniform_filler("standard_normal")  # made here, used on the worker alone
        buffers = [np.empty((min(rows, config.reps), config.n + 1)) for _ in range(2)]
        with ThreadPoolExecutor(1) as pool:
            drawn = pool.submit(_robust_noise, fill, noise_seeds[:rows], buffers[0])
            for k, (r0, states) in enumerate(_paths(params, config.n, seeds)):
                block = slice(r0, r0 + len(states))
                table[block] = np.column_stack((states[:, 0], *_tally(states)))
                noise = drawn.result()
                # the other buffer held block k - 1's noise, which its kernel
                # has overwritten: block k + 1 may be drawn into it now
                following = noise_seeds[r0 + rows : r0 + 2 * rows]
                if following:
                    drawn = pool.submit(_robust_noise, fill, following, buffers[(k + 1) % 2][: len(following)])
                # the kernel stays on this thread: run on the worker, it made
                # the study at n = 99 999 about 18% slower on a 2-core VM
                robust[:, block] = _robust_rows(states, noise, z)
    else:
        table = simulate_counts_batch(params, config.n, seeds)
    fit, low, high = mle_ci_batch(table, config.alpha)
    ones = table[:, 0] + table[:, 2] + table[:, 4]
    mean_ok = (fit.outcome == FIT_INTERIOR) | (fit.outcome == FIT_HALF)  # a fit's a to plug in
    mean = np.full((4, config.reps), np.nan)
    if "mean" in estimators:
        mean[:, mean_ok] = _mean_rows(ones[mean_ok], config.n + 1, fit.a[mean_ok], z)
    columns = {
        "mle": (fit.outcome == FIT_INTERIOR, fit.p, low[:, 1], high[:, 1]),
        "mean": (mean_ok, mean[0], mean[2], mean[3]),
        "robust": ((0 < ones) & (ones <= config.n), robust[0], robust[2], robust[3]),  # not constant
    }
    return _report(config, t0, keep_rows, [(e, "p", e, *columns[e], params.p) for e in estimators])


@dataclass(frozen=True)
class LrtCell:
    """One grid cell of the test study: a single path, a single decision."""

    a: float
    p: float
    result: LrtResult | None
    degenerate: bool


def lrt_grid(a_values, p_values, n: int, master_seed: int, alpha: float = 0.05) -> list[LrtCell]:
    """Run the independence test once per (a, p) grid cell."""
    master_seed = _seed("master_seed", master_seed)
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
    master_seed = _seed("master_seed", master_seed)
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
    master_seed = _seed("master_seed", master_seed)
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
