"""Stream layer: seed derivation and the re-seated Philox of the batch path.

uniform_filler must resume any make_generator stream at any block-aligned
draw and start a normal stream as a fresh generator does, derive_seeds
must equal the scalar derive_seed loop, and the batched simulation must
build one generator per call and share none across threads.
"""

import math
import sys
import threading

import numpy as np
import pytest

from copulachain import chain, rng
from copulachain.chain import BLOCK_STEPS, ModelParams, simulate_counts_batch
from copulachain.errors import DomainError
from copulachain.montecarlo import StudyConfig, mc_mle_study
from copulachain.rng import derive_seed, derive_seeds, make_generator, uniform_filler

SEEDS = (0, 1, 2, 3, 2**63, 2**64 - 4, 2**64 - 2, 2**64 - 1)


@pytest.mark.parametrize("offset", [0, 4, BLOCK_STEPS, 2 * BLOCK_STEPS])
def test_filler_resumes_the_stream_of_a_fresh_generator(offset):
    fill = uniform_filler()
    for seed in SEEDS:
        want = make_generator(seed).random(offset + 1001)[offset:]
        got = np.empty(1001)
        fill(seed, offset, got)
        assert np.array_equal(got, want), seed


def test_filler_reseats_whatever_the_previous_fill_left():
    # a partial block (1001 draws) leaves buffered words behind; the next
    # fill of the same stream must not reuse them
    fill = uniform_filler()
    first, again = np.empty(1001), np.empty(1001)
    fill(7, 0, first)
    fill(7, 0, again)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("k", [1, 2, 3, 1001, BLOCK_STEPS + 1])
def test_normal_filler_equals_a_fresh_generator(k):
    # between streams, a fill of 3 normals leaves buffered words behind;
    # the next stream must start as a fresh generator does
    fill = uniform_filler("standard_normal")
    for seed in SEEDS:
        got = np.empty(k)
        fill(seed, 0, got)
        assert np.array_equal(got, make_generator(seed).standard_normal(k)), seed
        fill(seed ^ 0x5A5A, 0, np.empty(3))


def test_filler_rejects_offsets_off_a_block():
    with pytest.raises(ValueError, match="multiple of 4"):
        uniform_filler()(5, 6, np.empty(3))
    # a normal takes a variable number of words, so its stream cannot be sought
    with pytest.raises(ValueError, match="only at 0"):
        uniform_filler("standard_normal")(5, 4, np.empty(3))


@pytest.mark.parametrize("master", [2**63, 2**63 + 1, 2**64 - 1, 20260814])
@pytest.mark.parametrize("ids", [(), (1,), (3, 7), (2**64 - 1, 0, 5)])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_derive_seeds_equals_the_scalar_loop(master, ids, count):
    got = derive_seeds(master, *ids, count=count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [derive_seed(master, *ids, r) for r in range(count)]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**65 + 3, 1.5, "7"])
def test_make_generator_takes_seeds_in_0_to_2_to_the_64_only(seed):
    # a Philox key holds 64 bits: make_generator(2**64) once gave seed 0's stream
    with pytest.raises(DomainError, match="seed"):
        make_generator(seed)


@pytest.mark.parametrize("master, ids", [(-1, (1,)), (2**64, (1,)), (5, (-1,)), (5, (2**64,)), (5, (1, 2.5)), (0.5, ())])
def test_derive_seed_takes_masters_and_ids_in_0_to_2_to_the_64_only(master, ids):
    # derive_seed(-1, 1) once equalled derive_seed(2**64 - 1, 1), and
    # derive_seed(5, -1) equalled derive_seed(5, 2**64 - 1)
    with pytest.raises(DomainError, match="seed"):
        derive_seed(master, *ids)
    with pytest.raises(DomainError, match="seed"):
        derive_seeds(master, *ids, count=3)


@pytest.mark.parametrize("count", [-1, 2.5, math.nan, "3"])
def test_derive_seeds_takes_a_whole_count_only(count):
    # count=2.5 once gave 3 seeds, and count=-1 none
    with pytest.raises(DomainError, match="count"):
        derive_seeds(1, 2, count=count)


@pytest.mark.parametrize("reps", [1, 50, 300])
def test_batch_builds_one_generator_per_call(monkeypatch, reps):
    params = ModelParams(0.4, 0.3)
    seeds = derive_seeds(11, 1, count=reps)
    want = simulate_counts_batch(params, 499, seeds)
    built = []

    def counting(seed):
        built.append(seed)
        return make_generator(seed)

    monkeypatch.setattr(rng, "make_generator", counting)
    monkeypatch.setattr(chain, "make_generator", counting)
    assert np.array_equal(simulate_counts_batch(params, 499, seeds), want)
    assert len(built) == 1


def test_concurrent_studies_equal_their_serial_runs():
    # more threads than cores and a short switch interval interleave the
    # studies' fills; a Philox shared between calls would hand one study
    # another's draws
    configs = [StudyConfig(0.5, 0.3, 99, reps=300, master_seed=s) for s in (1, 2, 3, 4)]
    serial = [mc_mle_study(c, keep_rows=True) for c in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            results = [None] * len(configs)
            start = threading.Barrier(len(configs))

            def work(i):
                start.wait(timeout=60)
                results[i] = mc_mle_study(configs[i], keep_rows=True)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == serial
    finally:
        sys.setswitchinterval(interval)
