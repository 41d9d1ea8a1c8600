"""Delivery-layer traffic models for the asyncio ingestion service.

The simulation engines replay perfectly behaved batch traffic: every report
arrives exactly at its emission period, exactly once.  Real ingestion tiers
see none of that — arrival rates burst, stragglers deliver periods late,
lost acks trigger retransmit duplicates, and client clocks are skewed so
messages show up *before* the server reaches their period.  A
:class:`TrafficModel` bundles those four fault knobs, and
:func:`schedule_messages` turns a block of aggregate messages plus a
``SeedSequence``-derived generator into the concrete delivery schedule the
service plays.

Determinism contract (same shape as the rest of the repo): the schedule for
a message block is a pure function of ``(traffic model, block seed, message
slots)``.  The service draws every schedule from the *traffic stream* of its
root seed tree — a different child than the workload and protocol streams —
so the same root seed produces the same faults at any worker count, and
fault-free runs consume no traffic randomness at all.

Traffic presets are first-class scenario knobs: :data:`TRAFFIC_MODELS` is the
registry the CLI exposes, and :func:`flash_crowd_scenario` registers a
bursty-traffic scenario next to churn in
:data:`repro.workloads.scenarios.SCENARIOS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.utils.validation import check_rate

__all__ = [
    "TRAFFIC_MODELS",
    "ArrivalSchedule",
    "TrafficModel",
    "schedule_arrivals",
]


@dataclass(frozen=True)
class TrafficModel:
    """Delivery-fault knobs for one simulated ingestion run.

    Parameters
    ----------
    name:
        Registry label (also printed in bench provenance).
    burst_factor:
        Peak-to-mean arrival-rate ratio (``>= 1``).  ``1`` is a smooth
        stream; larger values clump each period's deliveries into bursts of
        roughly ``burst_factor`` messages per event-loop wakeup, exercising
        queue depth without changing *which* period anything arrives in.
    late_rate:
        Probability a message straggles: its arrival slips 1 to
        ``max_lateness`` periods past its emission time (uniform).  A
        straggler that slips past the horizon is never delivered and is
        accounted as a drop.
    max_lateness:
        Upper bound (in periods) on straggler slip and retransmit spacing.
    duplicate_rate:
        Probability a delivered message is retransmitted once (the
        lost-ack fault).  The copy carries the same message id and arrives
        1 to ``max_lateness`` periods after the original; the service's
        deduplication seam decides whether it biases anything.
    max_skew:
        Bound (in periods) on client clock skew.  A skewed client's message
        can *arrive* up to ``max_skew`` periods before its emission period;
        the service must buffer it until the interval actually closes (the
        online clock rejects it any earlier).
    drop_rate:
        Probability a message is lost outright and never arrives.
    """

    name: str = "uniform"
    burst_factor: float = 1.0
    late_rate: float = 0.0
    max_lateness: int = 4
    duplicate_rate: float = 0.0
    max_skew: int = 0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.burst_factor >= 1.0:
            raise ValueError(
                f"burst_factor must be at least 1, got {self.burst_factor}"
            )
        for rate_name in ("late_rate", "duplicate_rate", "drop_rate"):
            check_rate(getattr(self, rate_name), rate_name)
        if self.max_lateness < 1:
            raise ValueError(
                f"max_lateness must be at least 1, got {self.max_lateness}"
            )
        if self.max_skew < 0:
            raise ValueError(
                f"max_skew must be non-negative, got {self.max_skew}"
            )

    @property
    def faulty(self) -> bool:
        """Whether this model can perturb delivery at all."""
        return bool(
            self.late_rate or self.duplicate_rate or self.drop_rate
            or self.max_skew
        )

    def with_rates(
        self,
        *,
        late_rate: Optional[float] = None,
        duplicate_rate: Optional[float] = None,
        drop_rate: Optional[float] = None,
    ) -> "TrafficModel":
        """A copy with individual fault rates overridden (CLI plumbing)."""
        updates: dict[str, float] = {}
        if late_rate is not None:
            updates["late_rate"] = late_rate
        if duplicate_rate is not None:
            updates["duplicate_rate"] = duplicate_rate
        if drop_rate is not None:
            updates["drop_rate"] = drop_rate
        return replace(self, **updates) if updates else self


@dataclass(frozen=True)
class ArrivalSchedule:
    """The concrete delivery plan for one block of aggregate messages.

    All arrays are aligned with the block's canonical message order.
    ``fold_period`` holds the period each original message becomes
    admissible and is folded into the tree (``0`` = dropped or straggled
    past the horizon, never delivered); ``submit_period`` the period it
    *shows up* at the service — a clock-skewed client submits up to
    ``max_skew`` periods before its interval closes, and the service must
    buffer it until ``fold_period``.  ``retransmit_period`` is the fold
    period of the duplicate copy (``0`` = no retransmit, or the copy
    slipped past the horizon).
    """

    fold_period: np.ndarray
    submit_period: np.ndarray
    retransmit_period: np.ndarray
    dropped: int
    late: int
    duplicates: int
    skew_buffered: int = field(default=0)

    @property
    def delivered(self) -> int:
        """Original messages that actually arrive within the horizon."""
        return int((self.fold_period > 0).sum())


def schedule_arrivals(
    emitted_at: np.ndarray,
    horizon: int,
    traffic: TrafficModel,
    rng: np.random.Generator,
) -> ArrivalSchedule:
    """Draw one block's delivery schedule from the traffic stream.

    ``emitted_at`` is the per-message emission period (canonical block
    order).  Draws happen in a fixed field order — lateness, drops, skew,
    retransmits — each as one vectorized call, so the schedule is a pure
    function of ``(traffic, rng state, emitted_at)`` and in particular
    independent of how blocks are later sharded across workers.  A
    fault-free model returns the identity schedule without consuming any
    randomness (bit-compatibility with pre-service runs).
    """
    emitted = np.asarray(emitted_at, dtype=np.int64)
    if emitted.ndim != 1:
        raise ValueError(f"emitted_at must be 1-D, got shape {emitted.shape}")
    if emitted.size and not (
        (1 <= emitted) & (emitted <= horizon)
    ).all():
        raise ValueError("emission periods must lie in [1, horizon]")
    size = emitted.size
    if not traffic.faulty:
        return ArrivalSchedule(
            fold_period=emitted.copy(),
            submit_period=emitted.copy(),
            retransmit_period=np.zeros(size, dtype=np.int64),
            dropped=0,
            late=0,
            duplicates=0,
        )

    fold = emitted.copy()
    late = 0
    if traffic.late_rate:
        straggles = rng.random(size) < traffic.late_rate
        slip = rng.integers(1, traffic.max_lateness + 1, size=size)
        fold = np.where(straggles, fold + slip, fold)
        late = int(straggles.sum())
    if traffic.drop_rate:
        lost = rng.random(size) < traffic.drop_rate
        fold = np.where(lost, 0, fold)
    # Stragglers past the horizon are never delivered: a fold period of 0
    # marks both outright drops and too-late messages.
    fold = np.where(fold > horizon, 0, fold)
    dropped = int((fold == 0).sum())

    submit = fold.copy()
    skew_buffered = 0
    if traffic.max_skew:
        # A skewed client clock makes the message show up early; it only
        # becomes admissible when its interval actually closes, so the
        # service buffers it from submit_period until fold_period.
        skew = rng.integers(0, traffic.max_skew + 1, size=size)
        submit = np.where(fold > 0, np.maximum(fold - skew, 1), 0)
        skew_buffered = int(((submit < fold) & (fold > 0)).sum())

    retransmit = np.zeros(size, dtype=np.int64)
    duplicates = 0
    if traffic.duplicate_rate:
        resend = (rng.random(size) < traffic.duplicate_rate) & (fold > 0)
        spacing = rng.integers(1, traffic.max_lateness + 1, size=size)
        retransmit = np.where(resend, fold + spacing, 0)
        retransmit = np.where(retransmit > horizon, 0, retransmit)
        duplicates = int((retransmit > 0).sum())

    return ArrivalSchedule(
        fold_period=fold,
        submit_period=submit,
        retransmit_period=retransmit,
        dropped=dropped,
        late=late,
        duplicates=duplicates,
        skew_buffered=skew_buffered,
    )


#: Named traffic presets — the registry the CLI's ``--traffic`` flag and the
#: service bench enumerate.  ``soak`` is the acceptance workload: bursty
#: arrivals with 1% retransmit duplicates and 5% stragglers.
TRAFFIC_MODELS: dict[str, TrafficModel] = {
    "uniform": TrafficModel(name="uniform"),
    "bursty": TrafficModel(name="bursty", burst_factor=8.0),
    "straggler": TrafficModel(
        name="straggler", late_rate=0.10, max_lateness=8
    ),
    "retransmit": TrafficModel(name="retransmit", duplicate_rate=0.05),
    "skewed": TrafficModel(name="skewed", max_skew=4),
    "lossy": TrafficModel(name="lossy", drop_rate=0.02),
    "soak": TrafficModel(
        name="soak",
        burst_factor=8.0,
        late_rate=0.05,
        duplicate_rate=0.01,
        max_lateness=8,
    ),
}
