"""Memory-bounded chunked execution (the out-of-core pipeline).

Every monolithic driver in this repository materializes the full ``(n, d)``
population before randomizing a single report — ~10 GB at n=10^7, d=1024.
This module is the out-of-core alternative: population generators *stream*
user chunks (:meth:`repro.workloads.generators.Population.sample_chunks`) and
:class:`ChunkedTreeAccumulator` folds each chunk's dyadic node sums into
O(d log d) running totals, so a million-user run peaks at a few chunk-sized
buffers instead of the whole matrix.

Reproducibility contract (mirrors :mod:`repro.sim.parallel`'s "sharding
changes *where* a trial runs, never *what* it computes"):

* incoming chunks are re-grouped into fixed *blocks* of ``block_rows``
  consecutive users (the accumulator's own push-based buffer — the pull-based
  twin of :func:`repro.utils.chunking.iter_row_groups`, which the generators
  use; push is what lets the engine feed chunks incrementally);
* block ``b`` is processed with a generator seeded from the ``b``-th child of
  the root ``SeedSequence`` (:func:`protocol_block_seeds`), under the draw
  contract of :func:`repro.core.vectorized.randomize_block`;
* therefore the accumulated :class:`~repro.core.vectorized.BatchTreeReports`
  is **bit-identical for any chunk size** at a fixed ``block_rows``, and for
  ``n <= block_rows`` (a single block) it is bit-identical to the monolithic
  ``collect_tree_reports(states, params, default_rng(root.spawn(1)[0]))``.

Memory: peak incremental allocation is O(``max(chunk_size, block_rows) * d``)
for the state buffers plus one block's report matrices — validated per chunk
(:func:`repro.core.vectorized.validate_states` scans in bounded row blocks)
and regression-tested with ``tracemalloc``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult, default_family
from repro.core.vectorized import (
    BatchTreeReports,
    family_randomizer,
    node_scales,
    order_probabilities,
    randomize_block,
    validate_states,
)
from repro.utils.chunking import DEFAULT_BLOCK_ROWS, plan_row_blocks
from repro.utils.rng import SeedLike, as_seed_sequence
from repro.utils.validation import check_rate
from repro.workloads.generators import Population

__all__ = [
    "ChunkedTreeAccumulator",
    "collect_tree_reports_chunked",
    "protocol_block_seeds",
    "run_batch_chunked",
    "run_chunked_population",
]

StatesLike = Union[np.ndarray, Iterable[np.ndarray]]


def protocol_block_seeds(
    seed: SeedLike, n: int, block_rows: int = DEFAULT_BLOCK_ROWS
) -> tuple[np.random.SeedSequence, ...]:
    """The per-block ``SeedSequence`` children of a chunked protocol run.

    Public so tests and callers can reproduce any block independently: block
    ``b`` of an ``n``-user run covers users ``[b * block_rows, ...)`` and is
    randomized with ``np.random.default_rng(children[b])``.  Always the
    *first* children of the root node — a ``SeedSequence`` that has already
    been spawned from elsewhere is counter-reset first, so this function and
    the run it describes can never drift apart.
    """
    root = as_seed_sequence(seed, reset_spawn_counter=True)
    return tuple(root.spawn(len(plan_row_blocks(n, block_rows))))


def _iter_chunks(states: StatesLike, chunk_size: Optional[int]) -> Iterator[np.ndarray]:
    """Normalize a full matrix or a chunk iterable into a chunk stream."""
    if isinstance(states, np.ndarray):
        if states.ndim != 2:
            raise ValueError(
                f"states must be 2-D (n, d), got shape {states.shape}"
            )
        size = chunk_size if chunk_size is not None else max(states.shape[0], 1)
        for start in range(0, states.shape[0], size):
            yield states[start : start + size]
        return
    yield from states


class ChunkedTreeAccumulator:
    """Running :class:`BatchTreeReports` built one user chunk at a time.

    Feed chunks in user order with :meth:`add`; :meth:`finalize` checks the
    row total against ``params.n`` and returns the assembled tree reports.
    Each chunk is validated on entry (shape, 0/1 entries, change budget), so
    a bad chunk fails fast instead of corrupting the accumulation.

    ``report_drop_rate`` injects the batch engine's unreliable-network fault
    model: after randomization each report is independently lost with that
    probability.  Per-node delivered counts are tracked either way
    (:attr:`node_counts`), which is what lets the chunked engine replay the
    online period loop from aggregates alone.
    """

    def __init__(
        self,
        params: ProtocolParams,
        seed: SeedLike = None,
        *,
        family: Optional[RandomizerFamily] = None,
        order_weights: Optional[Sequence[float]] = None,
        block_rows: int = DEFAULT_BLOCK_ROWS,
        report_drop_rate: float = 0.0,
        kernel=None,
    ) -> None:
        self._params = params
        self._family = family if family is not None else default_family(params)
        self._randomize = family_randomizer(self._family, kernel)
        self._drop_rate = check_rate(report_drop_rate, "report_drop_rate")
        d = params.d
        self._num_orders = d.bit_length()
        self._order_weights = order_weights
        self._probabilities = order_probabilities(d, order_weights)
        self._blocks = plan_row_blocks(params.n, block_rows)
        self._block_rows = int(block_rows)
        self._children = as_seed_sequence(seed, reset_spawn_counter=True).spawn(
            len(self._blocks)
        )
        self._block_index = 0
        self._rows_seen = 0
        self.node_sums = [
            np.zeros(d >> order, dtype=np.float64) for order in range(self._num_orders)
        ]
        #: Reports actually delivered per dyadic node (after drops).
        self.node_counts = [
            np.zeros(d >> order, dtype=np.int64) for order in range(self._num_orders)
        ]
        self.group_sizes = np.zeros(self._num_orders, dtype=np.int64)
        self.true_counts = np.zeros(d, dtype=np.float64)
        self._order_chunks: list[np.ndarray] = []
        self._pending: list[np.ndarray] = []
        self._pending_rows = 0
        self._finalized = False

    @property
    def rows_seen(self) -> int:
        """Users ingested so far (including buffered, unprocessed rows)."""
        return self._rows_seen + self._pending_rows

    def add(self, chunk: np.ndarray) -> None:
        """Ingest one ``(rows, d)`` chunk of consecutive users."""
        if self._finalized:
            raise RuntimeError("accumulator already finalized")
        array = np.asarray(chunk)
        rows = array.shape[0] if array.ndim == 2 else -1
        if rows == 0:
            return
        validate_states(array, self._params, rows=rows)
        if self.rows_seen + rows > self._params.n:
            raise ValueError(
                f"received {self.rows_seen + rows} users, more than the "
                f"declared n={self._params.n}"
            )
        self._pending.append(array)
        self._pending_rows += rows
        while self._pending_rows >= self._block_rows:
            self._flush_block(self._block_rows)

    def _flush_block(self, rows: int) -> None:
        """Assemble exactly ``rows`` buffered users and process them."""
        taken: list[np.ndarray] = []
        needed = rows
        while needed:
            head = self._pending[0]
            if head.shape[0] <= needed:
                taken.append(self._pending.pop(0))
                needed -= head.shape[0]
            else:
                taken.append(head[:needed])
                self._pending[0] = head[needed:]
                needed = 0
        self._pending_rows -= rows
        block = taken[0] if len(taken) == 1 else np.concatenate(taken)
        self._process_block(block)

    def _process_block(self, block: np.ndarray) -> None:
        """Randomize one block and fold its aggregates into the running totals.

        The block draws from its own seed child under
        :func:`~repro.core.vectorized.randomize_block`'s draw contract, drop
        thinning included.
        """
        start, stop = self._blocks[self._block_index]
        if block.shape[0] != stop - start:
            raise ValueError(
                f"internal block {self._block_index} has {block.shape[0]} rows, "
                f"expected {stop - start}"
            )
        rng = np.random.default_rng(self._children[self._block_index])
        self._block_index += 1
        self._rows_seen += block.shape[0]
        aggregates = randomize_block(
            block, rng, self._randomize, self._probabilities, drop_rate=self._drop_rate
        )
        for order in range(self._num_orders):
            self.node_sums[order] += aggregates.node_sums[order]
            self.node_counts[order] += aggregates.node_counts[order]
        self.group_sizes += aggregates.group_sizes
        self.true_counts += aggregates.true_counts
        self._order_chunks.append(aggregates.orders)

    def finalize(self) -> BatchTreeReports:
        """Flush the final partial block and assemble the tree reports.

        Raises ``ValueError`` if the ingested user total disagrees with
        ``params.n`` — a short or overlong stream is an error, never a
        silently rescaled estimate.
        """
        if not self._finalized:
            total = self._rows_seen + self._pending_rows
            if total != self._params.n:
                raise ValueError(
                    f"received {total} users in total, but params "
                    f"declare n={self._params.n}"
                )
            if self._pending_rows:
                self._flush_block(self._pending_rows)
            self._finalized = True
        return BatchTreeReports(
            node_sums=self.node_sums,
            node_scales=node_scales(
                self._params.d, self._family.c_gap, self._order_weights
            ),
            group_sizes=self.group_sizes,
            order_probabilities=self._probabilities,
            c_gap=self._family.c_gap,
            family_name=self._family.name,
            true_counts=self.true_counts,
            orders=np.concatenate(self._order_chunks),
        )


def collect_tree_reports_chunked(
    states: StatesLike,
    params: ProtocolParams,
    seed: SeedLike = None,
    *,
    chunk_size: Optional[int] = None,
    family: Optional[RandomizerFamily] = None,
    order_weights: Optional[Sequence[float]] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    kernel=None,
) -> BatchTreeReports:
    """Streaming-aggregation equivalent of :func:`collect_tree_reports`.

    ``states`` is a full matrix (processed in ``chunk_size``-row slices) or
    any iterable of row chunks (e.g. ``population.sample_chunks(...)``);
    ``seed`` roots the per-block spawn tree (a ``Generator`` is accepted and
    reduced via :func:`~repro.utils.rng.as_seed_sequence`).  Output is
    bit-identical for any chunk size, and identical to the monolithic driver
    when ``params.n <= block_rows`` (see the module docstring).  ``kernel``
    selects the randomizer backend (:mod:`repro.kernels`); the chunk-size
    invariance holds per backend.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    accumulator = ChunkedTreeAccumulator(
        params,
        seed,
        family=family,
        order_weights=order_weights,
        block_rows=block_rows,
        kernel=kernel,
    )
    for chunk in _iter_chunks(states, chunk_size):
        accumulator.add(chunk)
    return accumulator.finalize()


def run_batch_chunked(
    states: StatesLike,
    params: ProtocolParams,
    seed: SeedLike = None,
    *,
    chunk_size: Optional[int] = None,
    family: Optional[RandomizerFamily] = None,
    order_weights: Optional[Sequence[float]] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    kernel=None,
) -> ProtocolResult:
    """Chunked equivalent of :func:`repro.core.vectorized.run_batch`."""
    return collect_tree_reports_chunked(
        states,
        params,
        seed,
        chunk_size=chunk_size,
        family=family,
        order_weights=order_weights,
        block_rows=block_rows,
        kernel=kernel,
    ).to_result()


def run_chunked_population(
    population: Population,
    params: ProtocolParams,
    seed: SeedLike = None,
    *,
    chunk_size: int,
    family: Optional[RandomizerFamily] = None,
    order_weights: Optional[Sequence[float]] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    kernel=None,
) -> ProtocolResult:
    """End-to-end out-of-core run: generate, randomize and aggregate in chunks.

    The million-user entry point: the ``(n, d)`` matrix never exists.  The
    root seed spawns one child for the workload stream and one for the
    protocol, so a single integer reproduces the entire run.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    root = as_seed_sequence(seed, reset_spawn_counter=True)
    workload_seed, protocol_seed = root.spawn(2)
    chunks = population.sample_chunks(
        params.n, chunk_size, workload_seed, block_rows=block_rows
    )
    return run_batch_chunked(
        chunks,
        params,
        protocol_seed,
        chunk_size=chunk_size,
        family=family,
        order_weights=order_weights,
        block_rows=block_rows,
        kernel=kernel,
    )
