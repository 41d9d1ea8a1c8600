"""Asyncio ingestion service: heavy simulated traffic, not batch replay.

The batch engines replay a finished run period by period; this module is the
"production half" of that story — a long-running aggregation *service* whose
front end is an asyncio event loop.  Simulated concurrent clients submit
messages that arrive out of order, late, duplicated, or early (clock skew,
see :mod:`repro.workloads.traffic`); the service buffers what the online
clock does not yet admit, discards retransmits through the deduplication
seam, folds admissible aggregates into the dyadic tree via the hardened
:meth:`repro.core.server.Server.receive_aggregate`, and serves live
prefix/range estimates mid-stream with an explicit policy for intervals that
have not closed yet.

Pipeline
--------
1. **Shard** — users are split into the fixed seed blocks of
   :func:`repro.utils.chunking.plan_row_blocks`; each block is sampled and
   randomized by a worker process seeded from its own child of the root
   ``SeedSequence`` (the :mod:`repro.sim.parallel` contract: sharding
   changes *where* a block runs, never *what* it computes).  Every block
   follows :func:`repro.core.vectorized.randomize_block`'s draw contract,
   so the service's randomness is block-for-block the out-of-core
   pipeline's.
2. **Schedule** — each block's aggregate messages get delivery times from
   the traffic model, drawn from the *traffic* stream of the seed tree
   (independent of worker count).
3. **Serve** — an asyncio loop plays the horizon: per period, client tasks
   submit their due messages through a bounded queue, the consumer routes
   them (buffer / dedup / fold), and the period closes with a released
   estimate.  Within a period, admissible messages are folded in canonical
   ``(block, order, index, copy)`` order, which pins the float accumulation
   order regardless of task interleaving.

Together 1–3 make the whole run — estimates, counters, everything — a pure
function of ``(workload, params, seed, traffic, block_rows)``: bit-identical
at ``workers=1``, 2, or 4 (regression-tested).

Fault tolerance
---------------
The service survives an imperfect machine on the same determinism budget:

* ``run_service(..., faults=, retry=)`` executes block randomization under
  :func:`repro.faults.run_supervised` — a deterministic fault schedule
  (drawn from the root seed's dedicated fault stream) injects crashes,
  hangs, and corrupt payloads; bounded retries on a *simulated* backoff
  clock recover them with bit-identical aggregates, because block seeds are
  pure functions of their spawn-key coordinates.  A block lost after max
  attempts degrades the run gracefully: the result is marked ``degraded``,
  the loss lands in :class:`TrafficStats` (``lost_blocks``/``lost_users``),
  and ``effective_drop_rate`` widens the fault-adjusted radius accordingly.
* ``run_service(..., journal=, resume=)`` writes a write-ahead journal
  (:class:`repro.sim.journal.ServiceJournal`) of released estimates plus
  periodic full-state snapshots.  After a kill, ``resume=True`` restores
  the latest snapshot, re-verifies the journaled tail, and serves the
  remaining periods — the released stream is bit-identical to the
  uninterrupted run at any kill point and any worker count.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult, default_family
from repro.core.server import Server
from repro.core.vectorized import (
    BlockAggregates,
    family_randomizer,
    # Unused here; kept bound for tracers that wrap this module's globals.
    group_partial_sums,  # noqa: F401
    order_probabilities,
    randomize_block,
    validate_states,
)
from repro.faults import (
    FaultSchedule,
    RetryPolicy,
    SupervisionReport,
    get_fault_model,
    plan_fault_schedule,
    run_supervised,
)
from repro.sim.engine import StepSnapshot
from repro.sim.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    ServiceJournal,
)
from repro.sim.store import ArtifactCorruptedError, states_digest
from repro.utils.chunking import DEFAULT_BLOCK_ROWS, plan_row_blocks
from repro.utils.rng import SeedLike, as_seed_sequence
from repro.workloads.generators import Population
from repro.workloads.traffic import (
    TRAFFIC_MODELS,
    TrafficModel,
    schedule_arrivals,
)

__all__ = [
    "AggregateMessage",
    "IngestionService",
    "OpenIntervalError",
    "ServiceResult",
    "TrafficStats",
    "run_service",
]

# Seed-tree stream tags: root.spawn(4) -> (workload, protocol, traffic,
# faults).  SeedSequence children are keyed incrementally, so adding the
# fault stream left streams 0-2 — and therefore every historical run —
# bit-identical.
_STREAM_WORKLOAD = 0
_STREAM_PROTOCOL = 1
_STREAM_TRAFFIC = 2
_STREAM_FAULTS = 3

#: Default period cadence for journal snapshots.
_DEFAULT_SNAPSHOT_EVERY = 16

#: Submission-queue capacity.  Small enough that a burst actually exercises
#: backpressure (producers block on ``put``), large enough that the consumer
#: never deadlocks a single burst batch.
_QUEUE_MAXSIZE = 1024


class OpenIntervalError(ValueError):
    """A mid-stream estimate was requested for a period not yet closed."""


@dataclass(frozen=True)
class AggregateMessage:
    """One shard aggregate in flight: a block's report sum for one node.

    ``message_id`` is the retransmit-stable identity — a duplicate copy
    carries the *same* id, which is what the deduplication seam keys on.
    ``copy`` distinguishes the original (0) from its retransmit (1) only
    for canonical ordering and diagnostics.
    """

    message_id: tuple[int, int, int]  # (block, order, index)
    order: int
    index: int
    total: float
    count: int
    emitted_at: int
    copy: int = 0

    @property
    def sort_key(self) -> tuple[int, int, int, int]:
        """Canonical intra-period fold order (pins float accumulation)."""
        return (*self.message_id, self.copy)


@dataclass(frozen=True)
class TrafficStats:
    """Delivery accounting for one service run.

    ``lost_blocks``/``lost_users`` record graceful degradation: seed blocks
    whose randomization was permanently lost after exhausting retries.
    Their users never produced reports, so the loss is folded into
    ``effective_drop_rate`` — the fault-adjusted radius widens accordingly
    instead of the run failing.
    """

    total_messages: int
    delivered_messages: int
    dropped_messages: int
    late_messages: int
    duplicate_messages: int
    duplicates_discarded: int
    skew_buffered: int
    total_reports: int
    delivered_reports: int
    dropped_reports: int
    duplicate_reports: int
    peak_queue_depth: int
    lost_blocks: int = 0
    lost_users: int = 0
    total_users: int = 0

    @property
    def effective_drop_rate(self) -> float:
        """Fraction of reports lost (drops, stragglers, and lost blocks)."""
        rate = 0.0
        if self.total_reports:
            rate += self.dropped_reports / self.total_reports
        if self.total_users and self.lost_users:
            rate += self.lost_users / self.total_users
        return rate

    @property
    def effective_duplicate_rate(self) -> float:
        """Fraction of reports double-counted (0 when deduplication is on)."""
        if not self.total_reports:
            return 0.0
        return self.duplicate_reports / self.total_reports


@dataclass(frozen=True)
class ServiceResult:
    """A completed service run: estimates plus delivery provenance.

    ``degraded`` is True when any seed block was permanently lost (its ids
    in ``lost_blocks``); the estimates are still served, with the loss
    accounted in ``stats``.  ``fault_report`` carries the supervision
    payload when fault injection or retries were active, and
    ``resumed_from`` is the period a journal recovery restarted at (0 for
    an uninterrupted run).
    """

    estimates: np.ndarray
    true_counts: np.ndarray
    c_gap: float
    family_name: str
    orders: np.ndarray
    traffic: TrafficModel
    stats: TrafficStats
    workers: int
    blocks: int
    elapsed_seconds: float
    degraded: bool = False
    lost_blocks: tuple[int, ...] = ()
    fault_report: Optional[dict] = None
    resumed_from: int = 0

    @property
    def reports_per_second(self) -> float:
        """Sustained ingestion throughput (delivered reports / wall time)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.stats.delivered_reports / self.elapsed_seconds

    def to_result(self) -> ProtocolResult:
        """The :class:`ProtocolResult` view (conformance/analysis tooling)."""
        return ProtocolResult(
            estimates=self.estimates,
            true_counts=self.true_counts.astype(np.float64),
            c_gap=self.c_gap,
            family_name=self.family_name,
            orders=self.orders,
        )


@dataclass(frozen=True)
class _BlockSpec:
    """Everything one worker needs to randomize one seed block.

    The block's id is its position in the planned block list.
    """

    start: int
    stop: int
    params: ProtocolParams
    workload_child: np.random.SeedSequence
    protocol_child: np.random.SeedSequence
    population: Optional[Population] = None
    states: Optional[np.ndarray] = None
    family: Optional[RandomizerFamily] = None
    kernel: Optional[str] = None


def _block_states(spec: _BlockSpec) -> np.ndarray:
    """The block's states: its slice of the matrix, or sampled from its seed."""
    if spec.states is not None:
        return np.asarray(spec.states)
    assert spec.population is not None
    return spec.population.sample(
        spec.stop - spec.start, np.random.default_rng(spec.workload_child)
    )


def _randomize_service_block(spec: _BlockSpec) -> BlockAggregates:
    """Sample, validate and randomize one seed block (pool-picklable).

    The block draws from its protocol seed child under
    :func:`~repro.core.vectorized.randomize_block`'s draw contract, so the
    service's per-block aggregates are bit-identical to the out-of-core
    pipeline's for the same block seed.
    """
    params = spec.params
    matrix = _block_states(spec)
    validate_states(matrix, params, rows=spec.stop - spec.start)
    family = spec.family if spec.family is not None else default_family(params)
    return randomize_block(
        matrix,
        np.random.default_rng(spec.protocol_child),
        family_randomizer(family, spec.kernel),
        order_probabilities(params.d, None),
    )


def _block_messages(
    aggregates: BlockAggregates, block: int
) -> tuple[list[AggregateMessage], np.ndarray]:
    """A block's aggregate messages in canonical order, plus emission times."""
    messages: list[AggregateMessage] = []
    emitted: list[int] = []
    for order, counts in enumerate(aggregates.node_counts):
        occupied = np.flatnonzero(counts)
        sums = aggregates.node_sums[order]
        for position in occupied:
            index = int(position) + 1
            emission = index << order
            messages.append(
                AggregateMessage(
                    message_id=(block, order, index),
                    order=order,
                    index=index,
                    total=float(sums[position]),
                    count=int(counts[position]),
                    emitted_at=emission,
                )
            )
            emitted.append(emission)
    return messages, np.asarray(emitted, dtype=np.int64)


class IngestionService:
    """The asyncio front end over one online :class:`Server`.

    Messages enter through :meth:`submit` (a bounded queue — bursty
    producers feel backpressure); a consumer task routes each message:
    early arrivals are buffered until their interval closes, retransmits of
    an already-seen ``message_id`` are discarded at the door, and everything
    admissible is folded when :meth:`close_period` fires.  Folding happens
    in canonical message order per period, so estimates do not depend on
    task interleaving.

    ``open_interval_policy`` governs mid-stream estimates for periods not
    yet closed: ``"raise"`` (default) raises :class:`OpenIntervalError`,
    ``"clamp"`` answers with the latest closed period's information
    instead.
    """

    def __init__(
        self,
        d: int,
        c_gap: float,
        *,
        reject_duplicates: bool = True,
        open_interval_policy: str = "raise",
    ) -> None:
        if open_interval_policy not in ("raise", "clamp"):
            raise ValueError(
                "open_interval_policy must be 'raise' or 'clamp', got "
                f"{open_interval_policy!r}"
            )
        # The clock gate stays enforced: the service's whole job is online
        # ingestion, and buffering (not bypassing) handles early arrivals.
        self._server = Server(d, c_gap, reject_duplicates=reject_duplicates)
        self._d = d
        self._dedup = bool(reject_duplicates)
        self._policy = open_interval_policy
        self._queue: asyncio.Queue[AggregateMessage] = asyncio.Queue(
            maxsize=_QUEUE_MAXSIZE
        )
        self._consumer: Optional[asyncio.Task] = None
        self._current: list[AggregateMessage] = []
        self._early: dict[int, list[AggregateMessage]] = {}
        self._seen_ids: set[tuple[int, int, int]] = set()
        self._released: list[float] = []
        self.delivered_reports = 0
        self.delivered_messages = 0
        self.duplicates_discarded = 0
        self.duplicate_reports = 0
        self.skew_buffered = 0
        self.peak_queue_depth = 0

    @property
    def server(self) -> Server:
        """The live aggregator (inspectable mid-stream)."""
        return self._server

    @property
    def closed_period(self) -> int:
        """The latest period whose estimate has been released."""
        return len(self._released)

    @property
    def released(self) -> list[float]:
        """Per-period estimates released so far."""
        return list(self._released)

    # -- mid-stream queries ----------------------------------------------

    def _resolve_period(self, t: int, what: str) -> int:
        if not 1 <= t <= self._d:
            raise ValueError(f"t must be in [1, {self._d}], got {t}")
        if t <= self.closed_period:
            return t
        if self._policy == "raise":
            raise OpenIntervalError(
                f"{what} for period {t} requested but only "
                f"{self.closed_period} periods have closed; retry later or "
                "construct the service with open_interval_policy='clamp'"
            )
        if not self.closed_period:
            raise OpenIntervalError(
                f"{what} requested before any period closed; nothing to "
                "clamp to yet"
            )
        return self.closed_period

    def estimate(self, t: Optional[int] = None) -> float:
        """Live prefix estimate ``a_hat[t]`` (default: latest closed period)."""
        if t is None:
            if not self.closed_period:
                raise OpenIntervalError(
                    "no period has closed yet; no estimate to serve"
                )
            return self._released[-1]
        return self._server.estimate(self._resolve_period(t, "estimate"))

    def range_estimate(self, left: int, right: int) -> float:
        """Live net-change estimate over ``[left..right]`` (mid-stream)."""
        if not 1 <= left <= right:
            raise ValueError(
                f"need 1 <= left <= right, got left={left}, right={right}"
            )
        resolved = self._resolve_period(right, "range estimate")
        if left > resolved:
            raise OpenIntervalError(
                f"range [{left}..{right}] lies entirely beyond the "
                f"{self.closed_period} closed periods"
            )
        return self._server.estimate_range_change(left, min(right, resolved))

    # -- ingestion --------------------------------------------------------

    async def submit(self, message: AggregateMessage) -> None:
        """Accept one message from a client task (bounded-queue backpressure)."""
        await self._queue.put(message)

    def _start_consumer(self) -> None:
        if self._consumer is None:
            self._consumer = asyncio.ensure_future(self._consume())

    async def _consume(self) -> None:
        while True:
            message = await self._queue.get()
            depth = self._queue.qsize() + 1
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
            self._route(message)
            self._queue.task_done()

    def _route(self, message: AggregateMessage) -> None:
        if message.emitted_at > self._server.time:
            # Clock-skewed (early) arrival: the online gate would reject it,
            # so it waits in the buffer until its interval closes.
            self._early.setdefault(message.emitted_at, []).append(message)
            self.skew_buffered += 1
            return
        self._current.append(message)

    def _fold(self, message: AggregateMessage) -> None:
        if self._dedup and message.message_id in self._seen_ids:
            self.duplicates_discarded += 1
            return
        if message.copy:
            # A retransmit survived to the fold: only possible with the
            # deduplication seam disabled — these reports double-count.
            self.duplicate_reports += message.count
        self._seen_ids.add(message.message_id)
        delivered = self._server.receive_aggregate(
            message.order,
            message.index,
            message.total,
            message.count,
            source=message.message_id,
        )
        self.delivered_messages += 1
        self.delivered_reports += delivered

    async def open_period(self, t: int) -> None:
        """Advance the online clock to ``t`` (start accepting its intervals)."""
        self._start_consumer()
        self._server.advance_to(t)

    async def close_period(self, t: int) -> float:
        """Drain the queue, fold period ``t``'s admissible messages, release.

        Returns the released estimate ``a_hat[t]``.  Messages are folded in
        canonical ``(block, order, index, copy)`` order so the tree's float
        accumulation is independent of producer interleaving.
        """
        if t != self.closed_period + 1:
            raise ValueError(
                f"periods close in order; expected {self.closed_period + 1}, "
                f"got {t}"
            )
        await self._queue.join()
        batch = self._current
        self._current = []
        batch.extend(self._early.pop(t, []))
        for message in sorted(batch, key=lambda m: m.sort_key):
            self._fold(message)
        estimate = self._server.estimate(t)
        self._released.append(estimate)
        return estimate

    async def shutdown(self) -> None:
        """Stop the consumer task (idempotent)."""
        if self._consumer is not None:
            self._consumer.cancel()
            try:
                await self._consumer
            except asyncio.CancelledError:
                pass
            self._consumer = None

    # -- journaling -------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Serialize the full service state as a JSON-safe snapshot body.

        Everything a journal recovery needs to pick up mid-stream: the
        tree's node sums, the online clock, both deduplication memories,
        the early-arrival buffer, the released prefix, and the delivery
        counters.  Floats travel through JSON ``repr`` serialization, so
        the restored state is bit-identical.
        """
        return {
            "t": self.closed_period,
            "released": list(self._released),
            "node_values": [float(v) for v in self._server.flat_node_values()],
            "server_time": int(self._server.time),
            "reports_received": int(self._server.reports_received),
            "seen_aggregates": [
                [list(source), int(order), int(index)]
                for source, order, index in sorted(self._server.seen_aggregates)
            ],
            "seen_ids": [list(key) for key in sorted(self._seen_ids)],
            "early": {
                str(emitted_at): [dataclasses.asdict(m) for m in messages]
                for emitted_at, messages in sorted(self._early.items())
            },
            "delivered_reports": self.delivered_reports,
            "delivered_messages": self.delivered_messages,
            "duplicates_discarded": self.duplicates_discarded,
            "duplicate_reports": self.duplicate_reports,
            "skew_buffered": self.skew_buffered,
            "peak_queue_depth": self.peak_queue_depth,
        }

    def restore_state(self, snapshot: dict) -> None:
        """Adopt a snapshot onto a *fresh* service (journal recovery)."""
        if self._released or self._seen_ids or self._current or self._early:
            raise ValueError(
                "restore_state requires a fresh service (nothing ingested "
                "or released yet)"
            )
        self._server.restore_aggregate_state(
            snapshot["node_values"],
            time=int(snapshot["server_time"]),
            reports_received=int(snapshot["reports_received"]),
            seen_aggregates=snapshot["seen_aggregates"],
        )
        self._released = [float(value) for value in snapshot["released"]]
        self._seen_ids = {tuple(key) for key in snapshot["seen_ids"]}
        self._early = {
            int(emitted_at): [
                AggregateMessage(
                    message_id=tuple(body["message_id"]),
                    order=int(body["order"]),
                    index=int(body["index"]),
                    total=float(body["total"]),
                    count=int(body["count"]),
                    emitted_at=int(body["emitted_at"]),
                    copy=int(body["copy"]),
                )
                for body in messages
            ]
            for emitted_at, messages in snapshot["early"].items()
        }
        self.delivered_reports = int(snapshot["delivered_reports"])
        self.delivered_messages = int(snapshot["delivered_messages"])
        self.duplicates_discarded = int(snapshot["duplicates_discarded"])
        self.duplicate_reports = int(snapshot["duplicate_reports"])
        self.skew_buffered = int(snapshot["skew_buffered"])
        self.peak_queue_depth = int(snapshot["peak_queue_depth"])


async def _deliver(
    service: IngestionService,
    messages: Sequence[AggregateMessage],
    burst: int,
) -> None:
    """One client task's deliveries for one period, in ``burst``-sized gulps."""
    for position, message in enumerate(messages):
        await service.submit(message)
        if (position + 1) % burst == 0:
            await asyncio.sleep(0)


async def _serve(
    service: IngestionService,
    by_period: dict[int, list[list[AggregateMessage]]],
    d: int,
    burst: int,
    callback: Optional[Callable[[StepSnapshot], None]],
    true_counts: np.ndarray,
    *,
    start: int = 0,
    journal: Optional[ServiceJournal] = None,
    snapshot_every: int = _DEFAULT_SNAPSHOT_EVERY,
    expected: Sequence[float] = (),
) -> None:
    """Play the horizon through the event loop, one gather per period.

    ``start`` skips periods a journal snapshot already covers; ``expected``
    carries the journaled estimates for periods ``start+1 ..
    start+len(expected)`` — those are *re-verified* (a divergence raises
    :class:`~repro.sim.journal.JournalError`, never silently diverges),
    while periods beyond them are appended to ``journal`` (with a full
    snapshot every ``snapshot_every`` closes).
    """
    try:
        for t in range(start + 1, d + 1):
            await service.open_period(t)
            producers = [
                _deliver(service, messages, burst)
                for messages in by_period.get(t, [])
                if messages
            ]
            if producers:
                await asyncio.gather(*producers)
            reports_before = service.delivered_reports
            estimate = await service.close_period(t)
            replayed = t - start <= len(expected)
            if replayed:
                journaled = expected[t - start - 1]
                if estimate != journaled:
                    raise JournalError(
                        f"resume diverged at period {t}: journaled estimate "
                        f"{journaled!r} but the replay produced {estimate!r}; "
                        "the journal does not belong to this run"
                    )
            elif journal is not None:
                journal.append(
                    "period",
                    {
                        "t": t,
                        "estimate": estimate,
                        "true_count": int(true_counts[t - 1]),
                    },
                )
                if t % snapshot_every == 0 and t < d:
                    journal.append("snapshot", service.snapshot_state())
            if callback is not None:
                callback(
                    StepSnapshot(
                        t=t,
                        estimate=estimate,
                        true_count=int(true_counts[t - 1]),
                        reports_this_period=(
                            service.delivered_reports - reports_before
                        ),
                    )
                )
    finally:
        await service.shutdown()


def _plan_blocks(
    workload: Union[np.ndarray, Population],
    params: ProtocolParams,
    workload_root: np.random.SeedSequence,
    protocol_root: np.random.SeedSequence,
    block_rows: int,
    family: Optional[RandomizerFamily],
    kernel: Optional[str],
) -> list[_BlockSpec]:
    blocks = plan_row_blocks(params.n, block_rows)
    workload_children = workload_root.spawn(len(blocks))
    protocol_children = protocol_root.spawn(len(blocks))
    specs: list[_BlockSpec] = []
    for index, (start, stop) in enumerate(blocks):
        if isinstance(workload, np.ndarray):
            states: Optional[np.ndarray] = workload[start:stop]
            population: Optional[Population] = None
        else:
            states = None
            population = workload
        specs.append(
            _BlockSpec(
                start=start,
                stop=stop,
                params=params,
                workload_child=workload_children[index],
                protocol_child=protocol_children[index],
                population=population,
                states=states,
                family=family,
                kernel=kernel,
            )
        )
    return specs


def _describe_block(specs: Sequence[_BlockSpec], index: int) -> str:
    spec = specs[index]
    return f"service block {index} (users [{spec.start}, {spec.stop}))"


def _execute_blocks(
    specs: Sequence[_BlockSpec],
    workers: int,
    *,
    schedule: Optional[FaultSchedule] = None,
    retry: Optional[RetryPolicy] = None,
    on_lost: Optional[Callable[[int, Exception], None]] = None,
) -> tuple[list[Optional[BlockAggregates]], Optional[SupervisionReport]]:
    """Randomize every block, in block order, at any worker count.

    With ``schedule``/``retry`` the work runs under
    :func:`repro.faults.run_supervised` — injected faults and real worker
    deaths are retried on the simulated backoff clock, and a block lost for
    good leaves ``None`` in its slot (graceful degradation) when ``on_lost``
    is given.  Block seeds are pure functions of their spawn-key
    coordinates, so a retried block's aggregates are bit-identical.
    """
    if schedule is None and retry is None:
        if workers <= 1 or len(specs) <= 1:
            return [_randomize_service_block(spec) for spec in specs], None
        pool_workers = min(workers, len(specs))
        with ProcessPoolExecutor(max_workers=pool_workers) as pool:
            return list(pool.map(_randomize_service_block, specs)), None
    results, report = run_supervised(
        _randomize_service_block,
        list(specs),
        workers=workers,
        schedule=schedule,
        retry=retry,
        on_lost=on_lost,
        describe=lambda index: _describe_block(specs, index),
    )
    return results, report


def _block_truth(spec: _BlockSpec) -> tuple[np.ndarray, np.ndarray]:
    """A lost block's ground truth, recomputed coordinator-side.

    Sampling and the per-user order draw are pure functions of the block's
    seed children, so the truth of a block whose *randomization* was
    permanently lost is still exactly known — only its reports are gone.
    """
    d = spec.params.d
    rng = np.random.default_rng(spec.protocol_child)
    orders = rng.choice(
        d.bit_length(),
        size=spec.stop - spec.start,
        p=order_probabilities(d, None),
    )
    return _block_states(spec).sum(axis=0, dtype=np.int64), orders


def _journal_config(
    params: ProtocolParams,
    root: np.random.SeedSequence,
    traffic: TrafficModel,
    block_rows: int,
    blocks: int,
    family: RandomizerFamily,
    kernel: Optional[str],
    workload: Union[np.ndarray, Population],
    reject_duplicates: bool,
    open_interval_policy: str,
    fault_model,
    retry: Optional[RetryPolicy],
) -> dict:
    """The run fingerprint a journal is bound to (resume equality gate)."""
    if isinstance(workload, np.ndarray):
        workload_fp = states_digest(workload)
    else:
        workload_fp = f"population:{type(workload).__name__}"
    return {
        "schema": JOURNAL_SCHEMA_VERSION,
        "params": {
            "n": params.n,
            "d": params.d,
            "k": params.k,
            "epsilon": params.epsilon,
            "beta": params.beta,
        },
        "seed": hashlib.sha256(
            str((root.entropy, root.spawn_key)).encode()
        ).hexdigest(),
        "traffic": dataclasses.asdict(traffic),
        "block_rows": int(block_rows),
        "blocks": int(blocks),
        "family": family.name,
        "kernel": kernel,
        "workload": workload_fp,
        "reject_duplicates": bool(reject_duplicates),
        "open_interval_policy": open_interval_policy,
        "faults": (
            dataclasses.asdict(fault_model) if fault_model is not None else None
        ),
        "retry": dataclasses.asdict(retry) if retry is not None else None,
    }


def _scan_journal(
    records, config: dict, path: Path
) -> tuple[int, Optional[dict], list[float]]:
    """Validate journal records against this invocation's ``config``.

    Returns ``(start, snapshot, expected)``: the period to resume from, the
    snapshot body to restore (``None`` → replay from scratch), and the
    journaled estimates for periods ``start+1..`` that the replay must
    reproduce exactly.
    """
    head = records[0]
    if head.kind != "config":
        raise ArtifactCorruptedError(
            f"journal {path} does not begin with a config record; it cannot "
            "be trusted — delete it to start fresh"
        )
    if head.body != config:
        raise JournalError(
            f"journal {path} was written by a different run configuration; "
            "refusing to splice two runs together (delete the journal to "
            "start fresh)"
        )
    estimates: list[float] = []
    snapshot: Optional[dict] = None
    for record in records[1:]:
        if record.kind == "period":
            t = int(record.body["t"])
            if t != len(estimates) + 1:
                raise ArtifactCorruptedError(
                    f"journal {path} period records are not consecutive "
                    f"(expected t={len(estimates) + 1}, found t={t})"
                )
            estimates.append(float(record.body["estimate"]))
        elif record.kind == "snapshot":
            if int(record.body["t"]) <= len(estimates):
                snapshot = record.body
        else:
            raise ArtifactCorruptedError(
                f"journal {path} contains an unknown record kind "
                f"{record.kind!r}"
            )
    start = int(snapshot["t"]) if snapshot is not None else 0
    return start, snapshot, estimates[start:]


def run_service(
    workload: Union[np.ndarray, Population],
    params: ProtocolParams,
    seed: SeedLike = None,
    *,
    traffic: Union[TrafficModel, str] = "uniform",
    workers: int = 1,
    block_rows: int = DEFAULT_BLOCK_ROWS,
    family: Optional[RandomizerFamily] = None,
    kernel: Optional[str] = None,
    reject_duplicates: bool = True,
    open_interval_policy: str = "raise",
    callback: Optional[Callable[[StepSnapshot], None]] = None,
    faults=None,
    retry: Optional[RetryPolicy] = None,
    journal: Union[ServiceJournal, str, Path, None] = None,
    resume: bool = False,
    snapshot_every: int = _DEFAULT_SNAPSHOT_EVERY,
) -> ServiceResult:
    """Run the full ingestion pipeline: shard, schedule, serve.

    ``workload`` is a :class:`~repro.workloads.generators.Population` (the
    out-of-core path — workers sample their own blocks, the ``(n, d)``
    matrix never exists in one process) or a pre-sampled states matrix.
    ``traffic`` is a :class:`~repro.workloads.traffic.TrafficModel` or a
    :data:`~repro.workloads.traffic.TRAFFIC_MODELS` preset name.  The root
    ``seed`` spawns the workload, protocol, traffic, and fault streams; the
    result is bit-identical for any ``workers`` (the sharding contract)
    and, fault-free, consumes no traffic randomness.

    ``faults`` (a :class:`~repro.faults.FaultModel` or preset name) and
    ``retry`` (a :class:`~repro.faults.RetryPolicy`) run block
    randomization under supervision: injected crashes/hangs/corruptions and
    real worker deaths are retried on the simulated backoff clock, with
    recovered runs bit-identical to fault-free ones.  A block permanently
    lost degrades the run instead of failing it — see
    :class:`ServiceResult.degraded`.

    ``journal`` names a write-ahead journal directory.  A fresh run writes
    its config, every released estimate, and a snapshot every
    ``snapshot_every`` periods; after a kill, ``resume=True`` restores the
    latest snapshot, re-verifies the journaled tail against a replay, and
    serves the remaining periods — the released stream is bit-identical to
    an uninterrupted run.  An existing journal without ``resume=True`` is
    refused (:class:`~repro.sim.journal.JournalError`), never overwritten.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if snapshot_every < 1:
        raise ValueError(
            f"snapshot_every must be at least 1, got {snapshot_every}"
        )
    if isinstance(traffic, str):
        try:
            traffic = TRAFFIC_MODELS[traffic]
        except KeyError:
            known = ", ".join(sorted(TRAFFIC_MODELS))
            raise ValueError(
                f"unknown traffic model {traffic!r}; known: {known}"
            ) from None
    if isinstance(workload, np.ndarray):
        validate_states(workload, params)
    fault_model = get_fault_model(faults) if faults is not None else None
    supervised = fault_model is not None or retry is not None

    started = time.perf_counter()
    d = params.d
    root = as_seed_sequence(seed, reset_spawn_counter=True)
    streams = root.spawn(4)
    specs = _plan_blocks(
        workload,
        params,
        streams[_STREAM_WORKLOAD],
        streams[_STREAM_PROTOCOL],
        block_rows,
        family,
        kernel,
    )
    traffic_children = streams[_STREAM_TRAFFIC].spawn(len(specs))

    resolved_family = (
        family if family is not None else default_family(params)
    )

    schedule = None
    if fault_model is not None and fault_model.active:
        schedule = plan_fault_schedule(
            fault_model, len(specs), streams[_STREAM_FAULTS]
        )

    wal: Optional[ServiceJournal] = None
    if journal is not None:
        wal = (
            journal
            if isinstance(journal, ServiceJournal)
            else ServiceJournal(journal)
        )
    start, snapshot, expected = 0, None, []
    if wal is not None:
        config = _journal_config(
            params,
            root,
            traffic,
            block_rows,
            len(specs),
            resolved_family,
            kernel,
            workload,
            reject_duplicates,
            open_interval_policy,
            fault_model,
            retry,
        )
        if wal.exists() and not resume:
            raise JournalError(
                f"journal at {wal.path} already exists; pass resume=True to "
                "recover it, or delete it to start fresh"
            )
        records = wal.recover() if wal.exists() else []
        if records:
            start, snapshot, expected = _scan_journal(records, config, wal.path)
        else:
            wal.append("config", config)

    lost: list[int] = []
    if supervised:
        block_results, report = _execute_blocks(
            specs,
            workers,
            schedule=schedule,
            retry=retry,
            on_lost=lambda index, error: lost.append(index),
        )
    else:
        block_results, report = _execute_blocks(specs, workers)

    service = IngestionService(
        d,
        resolved_family.c_gap,
        reject_duplicates=reject_duplicates,
        open_interval_policy=open_interval_policy,
    )
    by_period: dict[int, list[list[AggregateMessage]]] = {}
    true_counts = np.zeros(d, dtype=np.int64)
    order_chunks: list[np.ndarray] = []
    total_messages = delivered_plan = dropped_messages = 0
    late_messages = duplicate_messages = 0
    total_reports = dropped_reports = 0
    lost_users = 0

    for index, aggregates in enumerate(block_results):
        if aggregates is None:
            spec = specs[index]
            counts, orders = _block_truth(spec)
            true_counts += counts
            order_chunks.append(orders)
            lost_users += spec.stop - spec.start
            continue
        true_counts += aggregates.true_counts
        order_chunks.append(aggregates.orders)
        messages, emitted = _block_messages(aggregates, index)
        schedule = schedule_arrivals(
            emitted,
            d,
            traffic,
            np.random.default_rng(traffic_children[index]),
        )
        total_messages += len(messages)
        delivered_plan += schedule.delivered
        dropped_messages += schedule.dropped
        late_messages += schedule.late
        duplicate_messages += schedule.duplicates
        block_periods: dict[int, list[AggregateMessage]] = {}
        for position, message in enumerate(messages):
            total_reports += message.count
            submit_at = int(schedule.submit_period[position])
            if submit_at == 0:
                dropped_reports += message.count
                continue
            block_periods.setdefault(submit_at, []).append(message)
            resend_at = int(schedule.retransmit_period[position])
            if resend_at:
                block_periods.setdefault(resend_at, []).append(
                    AggregateMessage(
                        message_id=message.message_id,
                        order=message.order,
                        index=message.index,
                        total=message.total,
                        count=message.count,
                        emitted_at=message.emitted_at,
                        copy=1,
                    )
                )
        for period, period_messages in block_periods.items():
            by_period.setdefault(period, []).append(period_messages)

    if snapshot is not None:
        service.restore_state(snapshot)
        # submit_period <= fold period always, so everything the snapshot
        # has not already folded (or buffered) submits strictly after it.
        by_period = {t: groups for t, groups in by_period.items() if t > start}

    burst = max(1, int(round(traffic.burst_factor)))
    asyncio.run(
        _serve(
            service,
            by_period,
            d,
            burst,
            callback,
            true_counts,
            start=start,
            journal=wal,
            snapshot_every=snapshot_every,
            expected=expected,
        )
    )
    elapsed = time.perf_counter() - started

    stats = TrafficStats(
        total_messages=total_messages,
        delivered_messages=service.delivered_messages,
        dropped_messages=dropped_messages,
        late_messages=late_messages,
        duplicate_messages=duplicate_messages,
        duplicates_discarded=service.duplicates_discarded,
        skew_buffered=service.skew_buffered,
        total_reports=total_reports,
        delivered_reports=service.delivered_reports,
        dropped_reports=dropped_reports,
        duplicate_reports=service.duplicate_reports,
        peak_queue_depth=service.peak_queue_depth,
        lost_blocks=len(lost),
        lost_users=lost_users,
        total_users=params.n,
    )
    estimates = np.asarray(service.released, dtype=np.float64)
    return ServiceResult(
        estimates=estimates,
        true_counts=true_counts,
        c_gap=resolved_family.c_gap,
        family_name=resolved_family.name,
        orders=np.concatenate(order_chunks),
        traffic=traffic,
        stats=stats,
        workers=workers,
        blocks=len(specs),
        elapsed_seconds=elapsed,
        degraded=bool(lost),
        lost_blocks=tuple(sorted(lost)),
        fault_report=report.as_payload() if report is not None else None,
        resumed_from=start,
    )
