"""Instrumented online event loop (deployment-shaped simulation).

``SimulationEngine`` plays the protocol with real :class:`Client` objects and
a real :class:`Server`, period by period, invoking a caller-supplied callback
with a :class:`StepSnapshot` after every period — the hook the examples use to
print live dashboards, measure online error trajectories, or inject faults
(e.g. drop a fraction of reports to study robustness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.client import Client
from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.protocol import ProtocolResult, default_family
from repro.core.server import Server
from repro.core.vectorized import validate_states
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import check_rate

__all__ = ["OnlineEngineBase", "SimulationEngine", "StepSnapshot"]


@dataclass(frozen=True)
class StepSnapshot:
    """What the engine exposes after each period."""

    t: int
    estimate: float
    true_count: int
    reports_this_period: int

    @property
    def error(self) -> float:
        """Signed estimation error at this period."""
        return self.estimate - self.true_count


class OnlineEngineBase:
    """Shared construction and fault-model validation for the online engines.

    Subclasses (:class:`SimulationEngine` here, and
    :class:`repro.sim.batch_engine.BatchSimulationEngine`) provide ``run``;
    the constructor contract — params, family default, rng coercion,
    drop-rate validation — is deliberately identical so the engines stay
    drop-in replacements for each other.
    """

    def __init__(
        self,
        params: ProtocolParams,
        *,
        family: Optional[RandomizerFamily] = None,
        rng: Optional[np.random.Generator] = None,
        report_drop_rate: float = 0.0,
    ) -> None:
        self._params = params
        self._family = family if family is not None else default_family(params)
        self._rng = as_generator(rng)
        self._drop_rate = check_rate(report_drop_rate, "report_drop_rate")

    @property
    def family(self) -> RandomizerFamily:
        """The randomizer family deployed client-side."""
        return self._family


class SimulationEngine(OnlineEngineBase):
    """Online protocol simulation with per-period callbacks.

    >>> import numpy as np
    >>> from repro.workloads import BoundedChangePopulation
    >>> params = ProtocolParams(n=50, d=8, k=2, epsilon=1.0)
    >>> states = BoundedChangePopulation(8, 2).sample(50, np.random.default_rng(0))
    >>> engine = SimulationEngine(params, rng=np.random.default_rng(1))
    >>> result = engine.run(states)
    >>> result.estimates.shape
    (8,)
    """

    def run(
        self,
        states: np.ndarray,
        callback: Optional[Callable[[StepSnapshot], None]] = None,
    ) -> ProtocolResult:
        """Play the protocol over ``states``; invoke ``callback`` per period.

        With ``report_drop_rate > 0`` each report is independently lost with
        that probability (an unreliable-network fault model); the estimates
        become biased towards zero proportionally, quantifying the protocol's
        sensitivity to missing reports.
        """
        matrix = validate_states(states, self._params)
        n, d = matrix.shape
        client_rngs = spawn_generators(self._rng, n)
        clients = [
            Client(user_id=u, d=d, family=self._family, rng=client_rngs[u])
            for u in range(n)
        ]
        server = Server(d, self._family.c_gap)
        for client in clients:
            server.register(client.user_id, client.order)

        estimates = np.empty(d, dtype=np.float64)
        for t in range(1, d + 1):
            server.advance_to(t)
            delivered = 0
            for client in clients:
                report = client.step(int(matrix[client.user_id, t - 1]))
                if report is None:
                    continue
                if self._drop_rate and self._rng.random() < self._drop_rate:
                    continue
                server.receive(report)
                delivered += 1
            estimates[t - 1] = server.estimate(t)
            if callback is not None:
                callback(
                    StepSnapshot(
                        t=t,
                        estimate=estimates[t - 1],
                        true_count=int(matrix[:, t - 1].sum()),
                        reports_this_period=delivered,
                    )
                )

        return ProtocolResult(
            estimates=estimates,
            true_counts=matrix.sum(axis=0).astype(np.float64),
            c_gap=self._family.c_gap,
            family_name=self._family.name,
            orders=np.array([client.order for client in clients]),
        )
