"""Pinned sampler draws: the population generators' output bytes never drift.

Each case samples a generator from a fixed seed and compares the sha256 of
the output bytes with a literal digest.  The literals were computed with the
row-``argsort`` + scatter samplers that preceded the partition-based
``_smallest_mask`` selector, so a passing run proves the selector draws the
same users bit for bit.  A deliberate change of law must re-pin these
digests (and the fuzz corpus under ``results/fuzz/``) in the same change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workloads.generators import (
    BoundedChangePopulation,
    ChurnPopulation,
    ItemChangePopulation,
    TrendPopulation,
)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _bounded(d, k, n, *, exact_k, start_prob):
    population = BoundedChangePopulation(d, k, exact_k=exact_k, start_prob=start_prob)
    return lambda: population.sample(n, _rng(d + k))


def _churn(part):
    population = ChurnPopulation(256, 5)
    return lambda: population.sample_with_activity(1500, _rng(11))[part]


def _stream():
    # 20000 rows in the default 8192-row blocks: three blocks, re-sliced.
    population = BoundedChangePopulation(256, 4, exact_k=True)
    return lambda: np.concatenate(list(population.sample_chunks(20_000, 5000, seed=7)))


#: name -> (draw, sha256 of the output bytes, shape, dtype).
CASES = {
    "bounded-d16-exact-s0": (
        _bounded(16, 4, 3000, exact_k=True, start_prob=0.0),
        "6dd27cf441a9bdd67d5669c55261f82e4b5a91cc5b8317f53da4bf327115e52f",
        (3000, 16),
        np.int8,
    ),
    "bounded-d16-exact-s0.3": (
        _bounded(16, 4, 3000, exact_k=True, start_prob=0.3),
        "93f18d0b04a460cdc32a2a6394038e584253af4495196fb1ab5407bbcb56e20e",
        (3000, 16),
        np.int8,
    ),
    "bounded-d16-free-s0": (
        _bounded(16, 4, 3000, exact_k=False, start_prob=0.0),
        "9fce476508d58e82e799a80f64c60f9d18801f11f2936b810b3c93fa6a6c5a38",
        (3000, 16),
        np.int8,
    ),
    "bounded-d16-free-s0.3": (
        _bounded(16, 4, 3000, exact_k=False, start_prob=0.3),
        "a1aaffcff311c2be9caabe6da97123745b8241c12958f70fb8b51049b67b8b9f",
        (3000, 16),
        np.int8,
    ),
    "bounded-d256-exact-s0": (
        _bounded(256, 4, 2500, exact_k=True, start_prob=0.0),
        "45d7f67fee04c2085348517a2dfb3ea97b51cd04a3acde7af8c07d28903377e3",
        (2500, 256),
        np.int8,
    ),
    "bounded-d256-exact-s0.3": (
        _bounded(256, 4, 2500, exact_k=True, start_prob=0.3),
        "2da5818d3e124ed73ef69a409a486e53552a7803e5bd2945d23072f64b7c1665",
        (2500, 256),
        np.int8,
    ),
    "bounded-d256-free-s0": (
        _bounded(256, 4, 2500, exact_k=False, start_prob=0.0),
        "c2150348d9eb773ef84bd1aeef2f8a5f95491acfaec6b503e463fc9b2f461acc",
        (2500, 256),
        np.int8,
    ),
    "bounded-d256-free-s0.3": (
        _bounded(256, 4, 2500, exact_k=False, start_prob=0.3),
        "7873334dba54bd269aa1d66ffc8c2275b58c8ea11e49906c8e4a9d4b6fea7419",
        (2500, 256),
        np.int8,
    ),
    "bounded-d1024-exact-s0": (
        _bounded(1024, 8, 1200, exact_k=True, start_prob=0.0),
        "2ce961809cce7c77fba92e75a15e88f2f0cca0c1d5fb128eb6b5d5115e88d75a",
        (1200, 1024),
        np.int8,
    ),
    "bounded-d1024-exact-s0.3": (
        _bounded(1024, 8, 1200, exact_k=True, start_prob=0.3),
        "009c509c26679e1bd8de0e2a4edc4d60b7690e7b6fb1310e5c1083fe92d87c9b",
        (1200, 1024),
        np.int8,
    ),
    "bounded-d1024-free-s0": (
        _bounded(1024, 8, 1200, exact_k=False, start_prob=0.0),
        "ee02e8b2c137e1f6fc1bbef2d0668553fca21171e848a64bfa7dcf2eae75841b",
        (1200, 1024),
        np.int8,
    ),
    "bounded-d1024-free-s0.3": (
        _bounded(1024, 8, 1200, exact_k=False, start_prob=0.3),
        "d232e970a54104233200e77cb7b3ab1531778b2c487bb4f94beff9d0be5a2390",
        (1200, 1024),
        np.int8,
    ),
    "item-d64": (
        lambda: ItemChangePopulation(64, 3, 1000).sample(2000, _rng(5)),
        "46f08c693251b27f12ecfc1ee7c20719ca6c75718f690bad4bda4d2cb9f955b1",
        (2000, 64),
        np.int64,
    ),
    "item-d1": (
        lambda: ItemChangePopulation(1, 2, 50).sample(300, _rng(6)),
        "2bf69c2e10adeb803775101dba8c9758a87e2f55ba7d94c99d05eaf0afdf8150",
        (300, 1),
        np.int64,
    ),
    "trend-sigmoid": (
        lambda: TrendPopulation(128, 4).sample(2000, _rng(8)),
        "c6d8b0354614b3ea3ccb4422bae40808a8b99b9ca5208cd7cfc8ff451c0fbe96",
        (2000, 128),
        np.int8,
    ),
    "trend-spike": (
        lambda: TrendPopulation(64, 6, curve="spike").sample(1500, _rng(9)),
        "04a0d088a651cd49bcc98db730d6709f79f16e31bd559116f33febb741c7670d",
        (1500, 64),
        np.int8,
    ),
    "churn-states": (
        _churn(0),
        "40e564c6b34fc761373a633266c3c8ea67912bd54b1a099652d85269983767ad",
        (1500, 256),
        np.int8,
    ),
    "churn-activity": (
        _churn(1),
        "dfec10c95079f5d37afcd2a60a49d87bc9efea11f8107dcb9971b6077257731f",
        (1500, 256),
        np.bool_,
    ),
    "stream-3-blocks": (
        _stream(),
        "a35bca6e9574275bc4211426de9158bd0437fa1a75bb8b9d7a210da65c1c2b9c",
        (20_000, 256),
        np.int8,
    ),
}


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_draws_match_pinned_digest(name):
    draw, expected, shape, dtype = CASES[name]
    output = draw()
    assert output.shape == shape
    assert output.dtype == dtype
    assert output.flags.c_contiguous and output.flags.writeable
    assert digest(output) == expected


def test_stream_chunks_are_contiguous_writable_int8():
    population = BoundedChangePopulation(256, 4, exact_k=True)
    for chunk in population.sample_chunks(20_000, 5000, seed=7):
        assert chunk.dtype == np.int8
        assert chunk.flags.c_contiguous and chunk.flags.writeable
