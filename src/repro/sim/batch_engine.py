"""Batched online simulation engine (population-vectorized event loop).

:class:`BatchSimulationEngine` replays the protocol period by period exactly
like :class:`repro.sim.engine.SimulationEngine` — per-period
:class:`~repro.sim.engine.StepSnapshot` callbacks, report-drop fault
injection, online :class:`~repro.core.server.Server` clock semantics — but
vectorized across the whole population:

1. all per-user orders are drawn in one call;
2. each order group's full report matrix is precomputed with the family's
   vectorized randomizer path (for FutureRand: one batched ``b~ = R~(1^k)``
   draw per user via ``randomize_matrix_with_sampler`` /
   ``ComposedRandomizer.sample_batch``, then numpy sign algebra) — valid
   because FutureRand "randomizes the future": every report is a
   deterministic function of pre-drawn noise and the input, so materializing
   the sequence up front is distributionally identical to emitting it online;
3. at each period ``t`` the emitting groups' report columns are delivered to
   the server in one :meth:`~repro.core.server.Server.receive_batch` call per
   group instead of ``n`` individual :meth:`~repro.core.server.Server.receive`
   calls.

The per-period outputs follow exactly the same distribution as the object
engine (the randomizer kernels are shared), which the integration tests verify
statistically; the interpreter-level work drops from O(n * d) to O(d log d)
plus numpy kernels, reaching millions of user-periods per second.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

import numpy as np

from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult
from repro.core.server import Server
from repro.core.vectorized import (
    family_randomizer,
    group_partial_sums,
    partition_rows_by_order,
    validate_states,
)
from repro.sim.chunked import ChunkedTreeAccumulator, _iter_chunks
from repro.sim.engine import OnlineEngineBase, StepSnapshot
from repro.utils.validation import check_rate, ensure_positive

__all__ = ["BatchSimulationEngine", "run_batch_engine"]


class BatchSimulationEngine(OnlineEngineBase):
    """Population-vectorized online simulation with per-period callbacks.

    Drop-in replacement for :class:`~repro.sim.engine.SimulationEngine` at
    deployment scale: same constructor signature (shared via
    :class:`~repro.sim.engine.OnlineEngineBase`), same ``run`` contract, same
    snapshot stream — but ~2 orders of magnitude faster because clients are
    simulated as matrices rather than objects.

    ``chunk_size`` bounds peak memory: users are processed in chunks whose
    per-node report sums are folded into O(d log d) accumulators before the
    online period loop replays them through the server
    (:meth:`~repro.core.server.Server.receive_aggregate`), so the full-
    population report matrices never exist.  ``run`` then also accepts an
    *iterable* of user chunks (e.g. ``population.sample_chunks(...)``) in
    place of a matrix — the fully out-of-core path where even the ``(n, d)``
    states are never materialized.  The chunked mode consumes a different
    (equally seeded-reproducible) randomness stream than the monolithic mode;
    the output distribution is identical.

    >>> import numpy as np
    >>> from repro.workloads import BoundedChangePopulation
    >>> params = ProtocolParams(n=50, d=8, k=2, epsilon=1.0)
    >>> states = BoundedChangePopulation(8, 2).sample(50, np.random.default_rng(0))
    >>> engine = BatchSimulationEngine(params, rng=np.random.default_rng(1))
    >>> result = engine.run(states)
    >>> result.estimates.shape
    (8,)
    """

    def __init__(
        self,
        params: ProtocolParams,
        *,
        family: Optional[RandomizerFamily] = None,
        rng: Optional[np.random.Generator] = None,
        report_drop_rate: float = 0.0,
        report_duplicate_rate: float = 0.0,
        chunk_size: Optional[int] = None,
        kernel=None,
    ) -> None:
        super().__init__(
            params, family=family, rng=rng, report_drop_rate=report_drop_rate
        )
        self._duplicate_rate = check_rate(
            report_duplicate_rate, "report_duplicate_rate"
        )
        if chunk_size is not None:
            ensure_positive(chunk_size, "chunk_size")
        if self._duplicate_rate and chunk_size is not None:
            raise ValueError(
                "report_duplicate_rate requires the monolithic engine path; "
                "the chunked accumulator folds node sums and cannot replay "
                "per-report duplication"
            )
        self._chunk_size = chunk_size
        self._kernel = kernel
        self._randomize = family_randomizer(self._family, kernel)

    def run(
        self,
        states: Union[np.ndarray, Iterable[np.ndarray]],
        callback: Optional[Callable[[StepSnapshot], None]] = None,
    ) -> ProtocolResult:
        """Play the protocol over ``states``; invoke ``callback`` per period.

        With ``report_drop_rate > 0`` each report is independently lost with
        that probability *after* randomization (an unreliable-network fault
        model, identical to the object engine's): the client consumed its
        pre-drawn noise either way, only delivery failed.  With
        ``report_duplicate_rate > 0`` each *delivered* report is additionally
        re-delivered once with that probability (the retransmit-after-lost-ack
        fault: the server cannot deduplicate anonymous reports).  Both rates
        default to 0, in which case the faults consume no randomness and the
        output is bit-identical to the fault-free historical path.
        """
        if self._chunk_size is not None or not isinstance(states, np.ndarray):
            return self._run_chunked(states, callback)
        matrix = validate_states(states, self._params)
        n, d = matrix.shape
        rng = self._rng
        num_orders = d.bit_length()

        # Line 1 of Algorithm 1 for everyone at once: announce the orders.
        orders = rng.integers(0, num_orders, size=n)

        # Precompute every order group's full report matrix.  Groups are
        # processed in increasing order so the rng consumption is a fixed
        # function of the order draw (reproducibility under a fixed seed).
        group_reports: list[Optional[np.ndarray]] = [None] * num_orders
        sort_index, _, boundaries = partition_rows_by_order(orders, num_orders)
        for order in range(num_orders):
            members = sort_index[boundaries[order] : boundaries[order + 1]]
            if members.size == 0:
                continue
            partials = group_partial_sums(matrix[members], order)
            group_reports[order] = self._randomize(partials, rng)

        server = Server(d, self._family.c_gap)
        estimates = np.empty(d, dtype=np.float64)
        true_counts = matrix.sum(axis=0)
        for t in range(1, d + 1):
            server.advance_to(t)
            delivered = 0
            for order in range(num_orders):
                if t & ((1 << order) - 1):
                    continue  # this group emits only at multiples of 2^order
                reports = group_reports[order]
                if reports is None:
                    continue
                column = reports[:, (t >> order) - 1]
                if self._drop_rate:
                    column = column[rng.random(column.size) >= self._drop_rate]
                if self._duplicate_rate:
                    duplicated = column[
                        rng.random(column.size) < self._duplicate_rate
                    ]
                    column = np.concatenate([column, duplicated])
                delivered += server.receive_batch(order, t >> order, column)
            estimates[t - 1] = server.estimate(t)
            if callback is not None:
                callback(
                    StepSnapshot(
                        t=t,
                        estimate=estimates[t - 1],
                        true_count=int(true_counts[t - 1]),
                        reports_this_period=delivered,
                    )
                )

        return ProtocolResult(
            estimates=estimates,
            true_counts=true_counts.astype(np.float64),
            c_gap=self._family.c_gap,
            family_name=self._family.name,
            orders=orders,
        )

    def _run_chunked(
        self,
        states: Union[np.ndarray, Iterable[np.ndarray]],
        callback: Optional[Callable[[StepSnapshot], None]],
    ) -> ProtocolResult:
        """Memory-bounded run: fold chunks into node sums, then replay periods.

        Phase A streams user chunks through a
        :class:`~repro.sim.chunked.ChunkedTreeAccumulator` (drop injection
        included, per-node delivered counts tracked); phase B replays the
        online clock, delivering each node's aggregate the period its
        interval completes — the same snapshot stream as the monolithic
        mode, from O(d log d) state.
        """
        params = self._params
        accumulator = ChunkedTreeAccumulator(
            params,
            self._rng,
            family=self._family,
            report_drop_rate=self._drop_rate,
            kernel=self._kernel,
        )
        for chunk in _iter_chunks(states, self._chunk_size):
            accumulator.add(chunk)
        reports = accumulator.finalize()

        d = params.d
        server = Server(d, self._family.c_gap)
        estimates = np.empty(d, dtype=np.float64)
        for t in range(1, d + 1):
            server.advance_to(t)
            delivered = 0
            for order in range(d.bit_length()):
                if t & ((1 << order) - 1):
                    continue  # this group emits only at multiples of 2^order
                j = t >> order
                delivered += server.receive_aggregate(
                    order,
                    j,
                    accumulator.node_sums[order][j - 1],
                    accumulator.node_counts[order][j - 1],
                )
            estimates[t - 1] = server.estimate(t)
            if callback is not None:
                callback(
                    StepSnapshot(
                        t=t,
                        estimate=estimates[t - 1],
                        true_count=int(reports.true_counts[t - 1]),
                        reports_this_period=delivered,
                    )
                )

        return ProtocolResult(
            estimates=estimates,
            true_counts=reports.true_counts,
            c_gap=self._family.c_gap,
            family_name=self._family.name,
            orders=reports.orders,
        )


def run_batch_engine(
    states: Union[np.ndarray, Iterable[np.ndarray]],
    params: ProtocolParams,
    rng: Optional[np.random.Generator] = None,
    *,
    family: Optional[RandomizerFamily] = None,
    report_drop_rate: float = 0.0,
    report_duplicate_rate: float = 0.0,
    chunk_size: Optional[int] = None,
    kernel=None,
) -> ProtocolResult:
    """Functional adapter conforming to :class:`repro.sim.runner.ProtocolRunner`.

    ``run_trials`` / ``sweep`` / baselines all share the
    ``(states, params, rng) -> ProtocolResult`` signature; this wraps the
    batched engine in it.  ``chunk_size`` selects the memory-bounded chunked
    mode (see :class:`BatchSimulationEngine`); ``kernel`` the randomizer
    backend (:mod:`repro.kernels`); the fault rates inject unreliable
    delivery (drops and retransmit duplicates) — the knobs the
    :mod:`repro.fuzz` genomes bind through picklable partials.
    """
    engine = BatchSimulationEngine(
        params,
        family=family,
        rng=rng,
        report_drop_rate=report_drop_rate,
        report_duplicate_rate=report_duplicate_rate,
        chunk_size=chunk_size,
        kernel=kernel,
    )
    return engine.run(states)


#: Markers consumed by :mod:`repro.sim.runner`'s option plumbing.
run_batch_engine.supports_chunk_size = True
run_batch_engine.supports_kernel = True
