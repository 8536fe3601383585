"""Two-state Markov chains generated by the copula C = a*M + (1-a)*W.

M and W are the upper and lower Frechet-Hoeffding bounds, so a step of the
chain repeats the current state with probability a and reflects it with
probability 1 - a.  With Bernoulli(p) marginals the induced transition
matrix takes one of two algebraic forms depending on whether p is below or
above 1/2; both reduce to the same symmetric matrix at p = 1/2.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .errors import DomainError, _seed, _unit, _whole
from .rng import make_generator, uniform_filler

_ROW_TOL = 1e-12


class Regime(Enum):
    """Which algebraic branch of the transition matrix applies."""

    LESS_HALF = "less_half"
    HALF = "half"
    GEQ_HALF = "geq_half"

    @staticmethod
    def from_p(p: float) -> "Regime":
        if p < 0.5:
            return Regime.LESS_HALF
        if p == 0.5:
            return Regime.HALF
        return Regime.GEQ_HALF


@dataclass(frozen=True)
class ModelParams:
    """Copula weight ``a`` and marginal success probability ``p``.

    Both must lie strictly inside (0, 1); the boundary cases collapse the
    chain to a deterministic or i.i.d. sequence and are rejected here.
    """

    a: float
    p: float
    regime: Regime = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", _unit("copula weight a", self.a))
        object.__setattr__(self, "p", _unit("marginal probability p", self.p))
        object.__setattr__(self, "regime", Regime.from_p(self.p))


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 2x2 matrix over states {0, 1}."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (2, 2):
            raise DomainError(f"transition matrix must be 2x2, got shape {m.shape}")
        if not ((m >= -_ROW_TOL) & (m <= 1.0 + _ROW_TOL)).all():
            raise DomainError("transition probabilities must lie in [0, 1]")
        if not (np.abs(m.sum(axis=1) - 1.0) <= _ROW_TOL).all():
            raise DomainError("transition matrix rows must sum to 1")
        m = np.clip(m, 0.0, 1.0)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def __getitem__(self, idx):
        return self.entries[idx]

    def as_dict(self) -> dict:
        m = self.entries
        return {"p00": m[0, 0], "p01": m[0, 1], "p10": m[1, 0], "p11": m[1, 1]}


def _transition_rows(params: ModelParams) -> tuple:
    """Rows ((P(0|0), P(1|0)), (P(0|1), P(1|1))) of the one-step transition
    matrix, as floats: the formulas of transition_matrix, which a valid
    ModelParams keeps in [0, 1] with rows summing to 1 up to rounding."""
    a, p = params.a, params.p
    if params.regime is Regime.LESS_HALF:
        return (((a * p + 1.0 - 2.0 * p) / (1.0 - p), p * (1.0 - a) / (1.0 - p)), (1.0 - a, a))
    return ((a, 1.0 - a), ((1.0 - p) * (1.0 - a) / p, (a * (1.0 - p) + 2.0 * p - 1.0) / p))


def transition_matrix(params: ModelParams) -> TransitionMatrix:
    """One-step transition matrix of the stationary chain.

    For p < 1/2 the matrix is
        [[(a p + 1 - 2p)/(1 - p), p (1 - a)/(1 - p)],
         [1 - a,                  a                ]]
    and for p >= 1/2
        [[a,                      1 - a                    ],
         [(1 - p)(1 - a)/p,       (a (1 - p) + 2p - 1)/p   ]].
    """
    return TransitionMatrix(np.array(_transition_rows(params)))


def lambda2(params: ModelParams) -> float:
    """Second eigenvalue of the transition matrix; |lambda2| < 1 on the interior."""
    a, p = params.a, params.p
    if params.regime is Regime.LESS_HALF:
        return (a - p) / (1.0 - p)
    return (a + p - 1.0) / p


def stationary_distribution(params: ModelParams) -> tuple[float, float]:
    """Stationary law (P(X=0), P(X=1)) = (1 - p, p)."""
    return (1.0 - params.p, params.p)


def n_step_matrix(params: ModelParams, n: int) -> TransitionMatrix:
    """n-step transition matrix in closed form.

    Spectral decomposition gives
        A^n = [[1 - p + p L^n,        p - p L^n        ],
               [1 - p - (1 - p) L^n,  p + (1 - p) L^n  ]]
    with L the second eigenvalue; n = 0 yields the identity.
    """
    n = _whole("step count", n, 0)
    p = params.p
    ln = lambda2(params) ** n
    m = np.array(
        [
            [1.0 - p + p * ln, p - p * ln],
            [1.0 - p - (1.0 - p) * ln, p + (1.0 - p) * ln],
        ]
    )
    return TransitionMatrix(m)


@dataclass(frozen=True)
class PathOrigin:
    """Provenance of a path: simulated with known settings, or external."""

    kind: str
    seed: int | None = None
    a: float | None = None
    p: float | None = None


def is_binary(states: np.ndarray) -> bool:
    """Whether every entry equals 0 or 1 (one pass, no sort as in np.isin)."""
    return bool(((states == 0) | (states == 1)).all())


@dataclass(frozen=True)
class BinaryPath:
    """A realized trajectory with states in {0, 1}, length n + 1 >= 2."""

    states: np.ndarray
    origin: PathOrigin = PathOrigin(kind="external")

    def __post_init__(self):
        s = np.asarray(self.states)
        if s.ndim != 1 or s.size < 2:
            raise DomainError("a path needs at least two observations")
        if s.dtype.kind not in "biuf":
            raise DomainError(f"binary path states must be bool, integer or real, got dtype {s.dtype}")
        if not is_binary(s):
            raise DomainError("binary path states must be 0 or 1")
        s = s.astype(np.int8)
        s.setflags(write=False)
        object.__setattr__(self, "states", s)

    @property
    def n(self) -> int:
        """Number of transitions (one less than the number of states)."""
        return self.states.size - 1


@dataclass(frozen=True)
class RealPath:
    """A realized trajectory with states in [0, 1], length >= 2."""

    states: np.ndarray
    origin: PathOrigin = PathOrigin(kind="external")

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.float64)
        if s.ndim != 1 or s.size < 2:
            raise DomainError("a path needs at least two observations")
        if np.any(~np.isfinite(s)) or np.any(s < 0.0) or np.any(s > 1.0):
            raise DomainError("real path states must lie in [0, 1]")
        s.setflags(write=False)
        object.__setattr__(self, "states", s)

    @property
    def n(self) -> int:
        return self.states.size - 1


def simulate_bernoulli_chain(params: ModelParams, n: int, seed: int) -> BinaryPath:
    """Simulate X_0, ..., X_n from the stationary chain with Bernoulli(p) marginals.

    Draw convention: with one uniform U_t per step, X_0 = 1{U_0 < p} and
    X_{t+1} = 1{U_{t+1} < P(next = 1 | X_t)}.

    Parameters
    ----------
    params : ModelParams
    n : number of transitions; the path has n + 1 states.
    seed : stream seed, an integer in [0, 2**64).
    """
    seed = _seed("seed", seed)
    ((_, states),) = _paths(params, n, [seed])
    origin = PathOrigin(kind="simulated", seed=seed, a=params.a, p=params.p)
    return BinaryPath(states=states[0].view(np.int8), origin=origin)


def simulate_uniform_chain(a: float, n: int, seed: int) -> RealPath:
    """Simulate the chain with Uniform(0, 1) marginals.

    A step keeps the state with probability a and reflects it to 1 - X_t
    otherwise.  Only two values ever occur, X_0 and 1 - X_0; both are exact
    doubles (53-bit uniforms have exactly representable complements), so a
    kept step is a bit-exact copy and X_t == X_{t+1} detects it reliably.
    """
    a = _unit("copula weight a", a)
    n = _whole("n", n, 1)
    seed = _seed("seed", seed)
    u = make_generator(seed).random(n + 1)
    x0 = u[0]
    reflected = np.cumsum(u[1:] >= a) & 1
    states = np.concatenate(([x0], np.where(reflected, 1.0 - x0, x0)))
    origin = PathOrigin(kind="simulated", seed=seed, a=a, p=None)
    return RealPath(states=states, origin=origin)


def _realizable(x0, n00, n01, n10, n11):
    """Whether a binary walk starting at x0 has these counts; ints or int arrays.

    Takes x0 in {0, 1} and nonnegative counts.  Entries into state 1 and
    exits from it can differ by at most one, with the sign of the surplus
    pinned by the starting state; a walk that never changes state stays in
    x0, so the other state hosts no transition.
    """
    surplus = n01 - n10 + x0
    other = x0 * n00 + (1 - x0) * n11  # the other state's repeats
    return (surplus >= 0) & (surplus <= 1) & ((n01 + n10 > 0) | (other == 0))


@dataclass(frozen=True)
class TransitionCounts:
    """Sufficient statistics of a binary path.

    x0 is the initial state, n_ij counts i -> j transitions, n = sum of the
    n_ij, and ones = x0 + n01 + n11 is the total number of 1-states in the
    path (the identity holds because each 1 after time zero is entered
    either from 0 or from 1).
    """

    x0: int
    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self):
        for name in ("x0", "n00", "n01", "n10", "n11"):
            object.__setattr__(self, name, _whole(f"count {name}", getattr(self, name), 0))
        if self.x0 not in (0, 1):
            raise DomainError(f"x0 must be 0 or 1, got {self.x0!r}")
        if self.n < 1:
            raise DomainError("counts must describe at least one transition")
        if not _realizable(self.x0, self.n00, self.n01, self.n10, self.n11):
            raise DomainError("counts are not realizable by any binary walk")

    @property
    def n(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11

    @property
    def ones(self) -> int:
        return self.x0 + self.n01 + self.n11

    def flipped(self) -> "TransitionCounts":
        """Counts of the same path with state labels 0 and 1 exchanged."""
        return TransitionCounts(
            x0=1 - self.x0, n00=self.n11, n01=self.n10, n10=self.n01, n11=self.n00
        )


def transition_counts(path: BinaryPath) -> TransitionCounts:
    """Tally the transition counts of a binary path."""
    return TransitionCounts(int(path.states[0]), *_tally(path.states.view(bool)))


# Most uniforms the simulation engine (_paths) holds at once: a multiple of 4,
# so segments start on Philox blocks, and below 2**30, so _scan's chunk keys fit int32.
BLOCK_STEPS = 1 << 16


# Fits hold counts in int64, so every count and n + 1 must fit there.
INT64_MAX = 2**63 - 1
COUNT_LIMIT = "counts need n + 1 <= 2**63 - 1, the int64 limit"


def validate_count_table(table) -> np.ndarray:
    """Check an (R, 5) integer table of (x0, n00, n01, n10, n11) rows.

    Each row must pass the checks of TransitionCounts and have n + 1 within
    INT64_MAX; the table is returned as an int64 array.
    """
    t = np.asarray(table)
    if t.ndim != 2 or t.shape[1] != 5 or not np.issubdtype(t.dtype, np.integer):
        raise DomainError(f"a count table must be an (R, 5) integer array, got {t.dtype} {t.shape}")
    if t.dtype.kind == "u" and (t > INT64_MAX).any():  # only an unsigned table can hold such counts
        raise DomainError(COUNT_LIMIT)
    t = t.astype(np.int64, copy=False)
    x0, n00, n01, n10, n11 = t.T
    if t.min(initial=0) < 0 or x0.max(initial=0) > 1:
        raise DomainError("count table rows need x0 in {0, 1} and nonnegative counts")
    if t.max(initial=0) > (INT64_MAX - 1) // 4:  # n + 1 may pass INT64_MAX
        # n in Python ints, which cannot wrap
        if (t[:, 1:].astype(object).sum(axis=1) >= INT64_MAX).any():
            raise DomainError(COUNT_LIMIT)
    if not t[:, 1:].any(axis=1).all():
        raise DomainError("count table rows need n >= 1")
    if not _realizable(x0, n00, n01, n10, n11).all():
        raise DomainError("count table rows are not realizable by any binary walk")
    return t


# Steps per chunk of _scan: the chunk-local keys 2j + value, j = 1.._CHUNK, fit uint8.
_CHUNK = 127
_CHUNK_KEYS = np.arange(2, 2 * _CHUNK + 2, 2, dtype=np.uint8)


def _scan(u: np.ndarray, q0: float, q1: float, states: np.ndarray) -> None:
    """Write into ``states[:, 1:]`` each row's states after each of its uniforms in ``u``.

    Row r enters in ``states[r, 0]`` and steps to 1 on uniforms below q0 from
    state 0 and below q1 from state 1; ``states`` is bool with one column
    more than ``u``.  The scan is vectorized: each step's uniform classifies
    the update map as constant (both rows agree), identity, or flip.  The
    state at t is then the value installed by the most recent constant step,
    toggled by the parity of the flips since; before any constant step, the
    entering state plays that role.  This reproduces the sequential
    recursion exactly.

    Each row is cut into chunks of _CHUNK = 127 steps, so that the keys fit
    uint8: the j-th step of a chunk (j = 1..127), if constant, gets the key
    2j + (the value it installs), every other step the key 0, and a running
    maximum along the chunk holds its latest constant step so far, with that
    value in the low bit.  On numpy 2.4 this pass over bytes costs about a
    third of the same pass over int32 keys.  The value each chunk enters
    with comes from the same trick in int32, on one key per chunk: the
    entering state, then 2c + (the low bit of chunk c - 1's last key), or 0
    where that chunk holds no constant step.  A maximum of every key with its
    chunk's entering value (0 or 1, below any constant step's key) fills the
    steps before the chunk's first constant step.  A flip needs
    q1 <= u < q0, so when q1 >= q0 (lambda2 = q1 - q0 >= 0, a property of
    the model parameters) there is none and the parity pass is skipped.
    """
    rows, steps = u.shape
    size = min(steps, _CHUNK)  # a segment of at most _CHUNK steps is one chunk, with no pad
    chunks = -(-steps // _CHUNK)
    width = chunks * size
    # padded to whole chunks: the pad follows the last step, and no key of it is read
    b0 = np.empty((rows, width), dtype=bool)
    const = np.empty_like(b0)
    np.less(u, q0, out=b0[:, :steps])
    np.equal(b0[:, :steps], u < q1, out=const[:, :steps])
    flips = q1 < q0
    if flips:
        parity = np.logical_xor.accumulate(b0[:, :steps] & ~const[:, :steps], axis=1)
        b0[:, :steps] ^= parity  # what a constant step installs, pre-toggled by the parity up to t
    # the uint8 views of the bool arrays take the ufuncs' uint8 loops, without a cast
    key = np.add(_CHUNK_KEYS[:size], b0.view(np.uint8).reshape(rows, chunks, size))
    key *= const.view(np.uint8).reshape(rows, chunks, size)
    np.maximum.accumulate(key, axis=2, out=key)
    enter = states[:, :1].view(np.uint8)
    if chunks > 1:
        last = key[:, :-1, -1]
        chunk_key = np.empty((rows, chunks), dtype=np.int32)  # chunks <= steps <= BLOCK_STEPS < 2**30
        chunk_key[:, :1] = enter
        np.add(np.arange(2, 2 * chunks, 2, dtype=np.int32), last & 1, out=chunk_key[:, 1:])
        chunk_key[:, 1:] *= last > 0
        np.maximum.accumulate(chunk_key, axis=1, out=chunk_key)
        enter = (chunk_key & 1).astype(np.uint8)
    np.maximum(key, enter[:, :, None], out=key)
    out = states[:, 1:]
    np.bitwise_and(key.reshape(rows, width)[:, :steps], 1, out=out.view(np.uint8))
    if flips:
        out ^= parity


def _block_rows(n: int) -> int:
    """How many paths of n transitions one block of _paths holds: those whose
    states fit in BLOCK_STEPS, read at call time, and at least one."""
    return max(BLOCK_STEPS // (n + 1), 1)


def _paths(params: ModelParams, n: int, seeds):
    """The one simulation engine: yields (r0, states) for the paths of ``seeds``.

    Row i of the bool ``states`` holds X_0, ..., X_n of the path of
    seeds[r0 + i], drawn as simulate_bernoulli_chain says; each block holds
    _block_rows(n) rows, the last one what is left.  A block's rows are
    scanned a segment at a time, each segment entering in the state before it;
    at most BLOCK_STEPS uniforms, read at call time, are held at once.
    """
    n = _whole("n", n, 1)
    (_, q0), (_, q1) = _transition_rows(params)
    width = min(n + 1, BLOCK_STEPS)
    rows = _block_rows(n)
    u = np.empty((min(rows, len(seeds)), width))
    fill = uniform_filler()
    for r0 in range(0, len(seeds), rows):
        block = seeds[r0 : r0 + rows]
        states = np.empty((len(block), n + 1), dtype=bool)
        for c0 in range(0, n + 1, width):
            seg = u[: len(block), : n + 1 - c0]  # slices stop at u's edge
            for seed, row in zip(block, seg):
                fill(seed, c0, row)
            if c0 == 0:
                states[:, 0] = seg[:, 0] < params.p
            t = max(c0, 1)  # the first column the scan writes
            _scan(seg[:, t - c0 :], q0, q1, states[:, t - 1 : c0 + seg.shape[1]])
        yield r0, states


def _tally(states: np.ndarray, lag: int = 1) -> tuple:
    """(n00, n01, n10, n11) of the pairs (X_t, X_{t+lag}) along the last axis of bool states.

    n11 and the counts of ones in all states, in the first lag and in the last lag fix every cell.
    """
    pairs = states[..., :-lag] & states[..., lag:]
    if states.size == states.shape[-1]:  # one row: a whole-array count is ~3x faster than a row sum
        count = np.count_nonzero
    else:  # rows: uint32 sums are ~2x faster than count_nonzero's int64 ones
        count = partial(np.add.reduce, axis=-1, dtype=np.uint32)
    ones, n11 = count(states), count(pairs)
    n01 = ones - count(states[..., :lag]) - n11
    n10 = ones - count(states[..., -lag:]) - n11
    return states.shape[-1] - lag - n01 - n10 - n11, n01, n10, n11


def simulate_counts_batch(params: ModelParams, n: int, seeds) -> np.ndarray:
    """Transition counts of one simulated path per seed, as an (R, 5) table.

    Row r is (x0, n00, n01, n10, n11) of
    ``transition_counts(simulate_bernoulli_chain(params, n, seeds[r]))``, bit
    for bit: both come from the same engine and tally, and every row draws
    from its own Philox stream, so splitting the work differently cannot
    change it.  At most BLOCK_STEPS uniforms and one block of whole paths are
    held at a time.  The table is not validated here: the fitting core
    validates a table where it enters (fit_mle_batch, mle_ci_batch).
    """
    seeds = seeds.tolist() if isinstance(seeds, np.ndarray) else seeds  # Python ints check faster
    seeds = [_seed("seed", s) for s in seeds]
    out = np.empty((len(seeds), 5), dtype=np.int64)
    for r0, states in _paths(params, n, seeds):
        out[r0 : r0 + len(states)] = np.column_stack((states[:, 0], *_tally(states)))
    return out
