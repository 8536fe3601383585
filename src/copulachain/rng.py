"""Deterministic stream seeding on top of numpy's Philox generator.

Philox is counter based, so a 64-bit key fully determines the stream and
results do not depend on how work is split across replications.

Because the stream is a pure function of (key, counter), one Philox can be
re-keyed and seeked to any point of any stream instead of building a new
generator per stream: ``uniform_filler`` does this for chain simulation
and for the robust estimator's noise, and its draws equal those of a fresh
``make_generator(seed)`` bit for bit.
"""

import numpy as np

from .errors import _seed, _whole

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """Avalanche a 64-bit integer (splitmix64 finalizer)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def derive_seed(master: int, *ids: int) -> int:
    """Derive a stream seed from a master seed and integer identifiers.

    Each identifier is folded in through an avalanche round, so seeds for
    different (replication, purpose) pairs share no structure.  The master
    and every identifier must be integers in [0, 2**64); DomainError otherwise.
    """
    s = mix64(_seed("master seed", master))
    for k in ids:
        s = mix64((s ^ _seed("seed identifier", k)) + _GOLDEN)
    return s


def derive_seeds(master: int, *ids: int, count: int) -> np.ndarray:
    """``[derive_seed(master, *ids, r) for r in range(count)]`` as a uint64 array.

    The fixed prefix is folded once; the last round runs over all r at once
    in wrapping uint64 arithmetic.  ``count`` must be an integer of at least 0.
    """
    s = np.uint64(derive_seed(master, *ids))
    z = (np.arange(_whole("count", count, 0), dtype=np.uint64) ^ s) + np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def make_generator(seed: int) -> "np.random.Generator":
    """Philox generator keyed by a seed in [0, 2**64); DomainError otherwise."""
    return np.random.Generator(np.random.Philox(key=_seed("seed", seed)))


def uniform_filler(method: str = "random"):
    """A ``fill(seed, offset, out)`` that re-seats one Philox per stream.

    ``fill`` writes draws ``offset, offset + 1, ...`` of ``make_generator(seed)``'s
    ``method``, ``"random"`` or ``"standard_normal"``, into the float64 array ``out``.

    Counter convention: Philox4x64 turns each counter value into a block of
    four 64-bit words, and ``random`` takes one word per double.  A fresh
    generator has key ``[seed, 0]``, counter 0 and an empty buffer
    (``buffer_pos`` 4), and it increments the counter before it fills the
    buffer, so its draw k comes from the block at counter ``k // 4 + 1``.
    Seating key ``[seed, 0]``, counter ``[offset // 4, 0, 0, 0]`` and an
    empty buffer therefore resumes that stream exactly at draw ``offset``,
    which must be a multiple of 4.  A normal takes a variable number of
    words, so a normal stream is only filled from offset 0.

    One filler builds one generator and reuses it for every fill; it holds
    state between calls, so keep it local to one thread.
    """
    gen = make_generator(0)
    draw = getattr(gen, method)
    bitgen = gen.bit_generator
    # lists, not uint64 arrays: numpy's state setter indexes every entry, and
    # a list item is cheaper to index than an array element
    key = [0, 0]
    counter = [0, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

    def fill(seed: int, offset: int, out: np.ndarray) -> None:
        if offset % 4 or (offset and method != "random"):
            raise ValueError(f"{method} resumes only at 0, or random at a multiple of 4 draws; got {offset}")
        key[0] = seed & _MASK
        counter[0] = offset // 4
        bitgen.state = state
        draw(out=out)

    return fill
