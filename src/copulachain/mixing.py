"""psi- and phi-mixing coefficients of the two-state chain.

Both coefficients admit closed forms driven by the second eigenvalue L of
the transition matrix: they decay geometrically at rate |L|.
"""

from dataclasses import dataclass

import numpy as np

from .chain import BinaryPath, ModelParams, Regime, _tally, lambda2, n_step_matrix, stationary_distribution
from .errors import DomainError, _whole

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class JointTable:
    """Joint law of (X_0, X_lag): cells[i, j] = P(X_0 = i, X_lag = j)."""

    cells: np.ndarray
    lag: int

    def __post_init__(self):
        c = np.asarray(self.cells, dtype=float)
        if c.shape != (2, 2):
            raise DomainError(f"joint table must be 2x2, got shape {c.shape}")
        if np.any(c < -_SUM_TOL):
            raise DomainError("joint probabilities must be nonnegative")
        if abs(c.sum() - 1.0) > _SUM_TOL:
            raise DomainError("joint probabilities must sum to 1")
        c = np.clip(c, 0.0, None)
        c.setflags(write=False)
        object.__setattr__(self, "cells", c)
        object.__setattr__(self, "lag", _whole("lag", self.lag, 1))

    def row_margins(self) -> np.ndarray:
        return self.cells.sum(axis=1)

    def col_margins(self) -> np.ndarray:
        return self.cells.sum(axis=0)


def joint_table(params: ModelParams, lag: int) -> JointTable:
    """Exact joint law of (X_0, X_lag) under stationarity."""
    lag = _whole("lag", lag, 1)
    pi = np.array(stationary_distribution(params))
    cells = pi[:, None] * n_step_matrix(params, lag).entries
    return JointTable(cells=cells, lag=lag)


def empirical_joint_table(path: BinaryPath, lag: int) -> JointTable:
    """Pair frequencies of (X_t, X_{t+lag}) along an observed path."""
    lag = _whole("lag", lag, 1)
    s = path.states
    if s.size <= lag:
        raise DomainError(f"path of length {s.size} has no pairs at lag {lag}")
    n00, n01, n10, n11 = _tally(s.view(bool), lag)
    return JointTable(cells=np.array([[n00, n01], [n10, n11]]) / (s.size - lag), lag=lag)


def psi_closed(params: ModelParams, n: int) -> float:
    """psi-mixing coefficient at lag n.

    Equals ((1-p)/p) |L|^n for p < 1/2 and (p/(1-p)) |L|^n otherwise.
    Zero exactly at the independence point, where L = 0.
    """
    n = _whole("lag", n, 1)
    p = params.p
    ratio = (1.0 - p) / p if params.regime is Regime.LESS_HALF else p / (1.0 - p)
    return ratio * abs(lambda2(params)) ** n


def phi_closed(params: ModelParams, n: int) -> float:
    """phi-mixing coefficient at lag n: (1-p)|L|^n for p < 1/2, p|L|^n otherwise."""
    n = _whole("lag", n, 1)
    p = params.p
    scale = 1.0 - p if params.regime is Regime.LESS_HALF else p
    return scale * abs(lambda2(params)) ** n


def psi_from_table(table: JointTable) -> float:
    """sup over cells of |P(i, j) / (P(i) P(j)) - 1|, skipping null margins."""
    rows = table.row_margins()
    cols = table.col_margins()
    worst = 0.0
    for i in (0, 1):
        for j in (0, 1):
            denom = rows[i] * cols[j]
            if denom > 0.0:
                worst = max(worst, abs(table.cells[i, j] / denom - 1.0))
    return worst


def phi_from_table(table: JointTable) -> float:
    """sup over cells of |P(j | i) - P(j)|, skipping null conditioning events."""
    rows = table.row_margins()
    cols = table.col_margins()
    worst = 0.0
    for i in (0, 1):
        if rows[i] <= 0.0:
            continue
        for j in (0, 1):
            worst = max(worst, abs(table.cells[i, j] / rows[i] - cols[j]))
    return worst


@dataclass(frozen=True)
class MixingDecay:
    """Coefficient values at lags 1..N for one kind of coefficient."""

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("psi", "phi"):
            raise DomainError(f"kind must be 'psi' or 'phi', got {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise DomainError("decay series must be a nonempty vector")
        if np.any(v < 0.0):
            raise DomainError("mixing coefficients are nonnegative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def decay(params: ModelParams, kind: str, lags: int) -> MixingDecay:
    """Closed-form decay series psi(1..lags) or phi(1..lags)."""
    lags = _whole("lags", lags, 1)
    fn = psi_closed if kind == "psi" else phi_closed if kind == "phi" else None
    if fn is None:
        raise DomainError(f"kind must be 'psi' or 'phi', got {kind!r}")
    return MixingDecay(kind=kind, values=np.array([fn(params, k) for k in range(1, lags + 1)]))
