"""Pinned client block reports: the randomized aggregates never drift.

Every driver that randomizes users block by block (the monolithic
``collect_tree_reports``, the out-of-core ``ChunkedTreeAccumulator``, the
batch engine's chunked mode and the ingestion service) runs one fixed draw
sequence per block: the orders, then one randomize per non-empty order group
in increasing order, then the drop mask.  The bit-identity tests elsewhere
compare one driver against another, so a change applied to every driver at
once would pass them.  These cases instead compare the sha256 of each
driver's output with a literal digest, computed with the per-driver block
loops that preceded :func:`repro.core.vectorized.randomize_block`.  A
deliberate change of the draw sequence must re-pin these digests (and the
fuzz corpus under ``results/fuzz/``) in the same change.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines.bun_composed import BunComposedFamily
from repro.core.params import ProtocolParams
from repro.core.vectorized import collect_tree_reports
from repro.sim.batch_engine import run_batch_engine
from repro.sim.chunked import ChunkedTreeAccumulator, run_chunked_population
from repro.sim.service import run_service
from repro.workloads.generators import BoundedChangePopulation

PARAMS = ProtocolParams(n=3000, d=64, k=4, epsilon=1.0)
#: Small service blocks so the test population shards into several blocks.
SERVICE_BLOCK_ROWS = 1024


def _population() -> BoundedChangePopulation:
    return BoundedChangePopulation(PARAMS.d, PARAMS.k, exact_k=True)


def _states(dtype=np.int8) -> np.ndarray:
    return _population().sample(PARAMS.n, np.random.default_rng(5)).astype(dtype)


def _digest(*arrays) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _tree(reports, *extra) -> str:
    return _digest(
        *reports.node_sums,
        reports.group_sizes,
        reports.true_counts,
        reports.orders,
        *extra,
    )


def _result(result) -> str:
    return _digest(result.estimates, result.true_counts, result.orders)


def _collect(**kwargs):
    states = kwargs.pop("states", None)
    if states is None:
        states = _states()
    return lambda: _tree(
        collect_tree_reports(states, PARAMS, np.random.default_rng(9), **kwargs)
    )


def _accumulator(drop_rate, kernel=None):
    def run():
        # n=3000 in 1000-row blocks fed as 700-row chunks: three blocks, each
        # assembled from pieces of two chunks.
        accumulator = ChunkedTreeAccumulator(
            PARAMS, 11, block_rows=1000, report_drop_rate=drop_rate, kernel=kernel
        )
        states = _states()
        for start in range(0, PARAMS.n, 700):
            accumulator.add(states[start : start + 700])
        reports = accumulator.finalize()
        return _tree(reports, *accumulator.node_counts)

    return run


def _chunked_population(kernel=None):
    params = dataclasses.replace(PARAMS, n=5000)
    return lambda: _result(
        run_chunked_population(
            _population(), params, 13, chunk_size=1500, block_rows=2048, kernel=kernel
        )
    )


def _batch_engine(**kwargs):
    return lambda: _result(
        run_batch_engine(_states(), PARAMS, np.random.default_rng(17), **kwargs)
    )


def _service(workload, traffic, seed=19, **kwargs):
    def run():
        source = _population() if workload == "population" else _states()
        result = run_service(
            source,
            PARAMS,
            seed,
            traffic=traffic,
            block_rows=SERVICE_BLOCK_ROWS,
            **kwargs,
        )
        stats = np.array(dataclasses.astuple(result.stats), dtype=np.int64)
        lost = np.array(result.lost_blocks, dtype=np.int64)
        return _digest(result.estimates, result.true_counts, result.orders, stats, lost)

    return run


#: name -> (run, sha256 of the output).
CASES = {
    "collect-reference": (
        _collect(),
        "546b5059b9e291169733c3bfac5f9e376a485e37de84292270c70585ea85eca2",
    ),
    "collect-fast": (
        _collect(kernel="fast"),
        "4f5ef2544aa2734acad114577566cae8d10cda39f6743c5435904ef2527fc5dc",
    ),
    "collect-weighted-orders": (
        _collect(order_weights=[1, 2, 3, 4, 5, 6, 7]),
        "b0bae883022b5d9a1102d9e7e145db5e9ccebe4005e94a88bd46b3112e71f3e6",
    ),
    "collect-bool-input": (
        _collect(states=_states(bool)),
        "546b5059b9e291169733c3bfac5f9e376a485e37de84292270c70585ea85eca2",
    ),
    "collect-bun-family": (
        _collect(family=BunComposedFamily(PARAMS.k, PARAMS.epsilon)),
        "c67b650595ee205f15531342a1f2e50b87151a5a0238a67fd1844cb8f9b78fcf",
    ),
    "collect-chunk-size": (
        _collect(chunk_size=700),
        "3366fc31146d7b57dd40af6823b2e968e22d10afcec441891bfe7b8014063ef6",
    ),
    "accumulator-drop0": (
        _accumulator(0.0),
        "49ada8f1a418aea751a181c30d72edf885604803c07b94ce83e2c18996d74e43",
    ),
    "accumulator-drop0.3": (
        _accumulator(0.3),
        "4944420addc36353e6d17981815a85c4edaf6dfdc0679ec7255c9e0331da4a71",
    ),
    "accumulator-drop0.3-fast": (
        _accumulator(0.3, kernel="fast"),
        "45a695ef49239b17705e9c6ac32be6852279259e4766100d3a99e7efdc61d6f9",
    ),
    "chunked-population": (
        _chunked_population(),
        "31af66bc851be0b0713007708a157dbaeba3faa36ab0cd513a72d0f22052507c",
    ),
    "chunked-population-fast": (
        _chunked_population(kernel="fast"),
        "9bc89499d043d6533fd9aaac7b6b502e017f744f98163e136f85048d83c12953",
    ),
    "batch-engine-drops-duplicates": (
        _batch_engine(report_drop_rate=0.2, report_duplicate_rate=0.1),
        "504b2dc3cab2dc44a4cb0226734ccfcc28ad6dad1d198eb09fe56b569d50d74a",
    ),
    "batch-engine-chunked-drops": (
        _batch_engine(report_drop_rate=0.2, chunk_size=800),
        "e62ead69eb2fe1f7c10872dbbd692a111ae0f099c34d7b55d5c2494d97fd5da2",
    ),
    "service-population-uniform": (
        _service("population", "uniform"),
        "1ad4411d11e45feb76c25689dfd9f300acfffc8a9b9460bed5fae958856e1775",
    ),
    "service-population-lossy": (
        _service("population", "lossy"),
        "21fde3d4c2e179ff50ae56f71a8c5c1e0f4eba5f043f6507332667bb641d52b0",
    ),
    "service-population-soak": (
        _service("population", "soak"),
        "216c0e61c23be1d209580150aa95793e01be026af5ea1619e70dee0b4b20562b",
    ),
    "service-states-uniform": (
        _service("states", "uniform"),
        "cbc695ddb9eac3975b5353775c45505d612cf6969c27627c93ded14d052000ab",
    ),
    "service-states-lossy": (
        _service("states", "lossy"),
        "99a406562db75dd1d35b44c8cc0b5e9df732a91e9c80e3151ec7acb6e4d324d6",
    ),
    "service-states-soak": (
        _service("states", "soak"),
        "bbb7742ff8c1f6a1a1e6a02df2eef5cce6745a3f31d52250c8552395e726c168",
    ),
    "service-population-fast-lost-shard": (
        _service("population", "soak", seed=17, kernel="fast", faults="lost-shard"),
        "b02bc095a5f1e47572a86c53ae4a4a38e107aa69fc8f882b254a3a081409c2c4",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_reports_are_pinned(name):
    run, expected = CASES[name]
    assert run() == expected


def test_lost_shard_case_loses_a_block():
    """The lost-shard case really exercises the lost-block truth path."""
    result = run_service(
        _population(),
        PARAMS,
        17,
        traffic="soak",
        block_rows=SERVICE_BLOCK_ROWS,
        kernel="fast",
        faults="lost-shard",
    )
    assert result.degraded and result.lost_blocks
