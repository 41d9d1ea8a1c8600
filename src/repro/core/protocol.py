"""End-to-end online protocol driver (Section 4's framework, object form).

``run_online`` wires ``n`` :class:`~repro.core.client.Client` objects to one
:class:`~repro.core.server.Server` and plays the longitudinal collection
protocol time period by time period — exactly the deployment the paper
describes.  It is the reference implementation: clear, faithful, O(n·d) Python.
Large experiments use :mod:`repro.core.vectorized`, which computes the same
estimates with matrix kernels; the two are statistically interchangeable
(tested) and share all randomizer math.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.client import Client
from repro.core.future_rand import FutureRandFamily
from repro.core.interfaces import RandomizerFamily
from repro.core.params import ProtocolParams
from repro.core.server import Server
from repro.utils.rng import as_generator, spawn_generators

__all__ = ["ProtocolResult", "ItemDomainResult", "run_online", "default_family"]


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol execution.

    ``estimates[t-1]`` is the server's online output ``a_hat[t]``;
    ``true_counts[t-1]`` is the ground truth ``a[t]`` (for evaluation only —
    the server never sees it).
    """

    estimates: np.ndarray
    true_counts: np.ndarray
    c_gap: float
    family_name: str
    orders: np.ndarray = field(repr=False, default=None)

    @property
    def errors(self) -> np.ndarray:
        """Per-time signed estimation error ``a_hat[t] - a[t]``."""
        return self.estimates - self.true_counts

    @property
    def max_abs_error(self) -> float:
        """``max_t |a_hat[t] - a[t]|`` — the paper's accuracy metric (Def. 2.1)."""
        return float(np.abs(self.errors).max())

    @property
    def mean_abs_error(self) -> float:
        """Mean absolute error across time periods."""
        return float(np.abs(self.errors).mean())


@dataclass(frozen=True)
class ItemDomainResult(ProtocolResult):
    """Outcome of one item-domain protocol execution.

    Item-domain protocols (``categorical``, ``hashed_frequency``,
    ``sketch_median``, ``heavy_hitters``) track a population holding *items*
    from ``[0, domain_size)`` rather than Boolean values.  The inherited
    scalar fields follow the tracked-item convention: ``estimates[t-1]`` and
    ``true_counts[t-1]`` are the estimated/exact counts of **item 1** at
    period ``t`` (for Boolean inputs this coincides exactly with the Boolean
    protocols' semantics), so every scalar consumer — error metrics, sweeps,
    conformance bounds — works unchanged.

    The item-level views are optional extras:

    ``item_estimates``
        ``(d, m)`` estimated counts per item per period; ``None`` when the
        domain is too large to materialize (the huge-domain sketch decoder
        never builds per-item vectors).
    ``true_item_counts``
        Exact ``(d, m)`` counts (evaluation only), subject to the same guard.
    ``heavy_hitters``
        Per-period decoded top-item lists (``heavy_hitters`` protocol only).
    """

    domain_size: int = 0
    item_estimates: Optional[np.ndarray] = field(repr=False, default=None)
    true_item_counts: Optional[np.ndarray] = field(repr=False, default=None)
    heavy_hitters: Optional[tuple] = field(repr=False, default=None)


def default_family(params: ProtocolParams) -> RandomizerFamily:
    """Return the paper's randomizer family (FutureRand) for these parameters."""
    return FutureRandFamily(params.k, params.epsilon)


def run_online(
    states: np.ndarray,
    params: ProtocolParams,
    rng: Optional[np.random.Generator] = None,
    *,
    family: Optional[RandomizerFamily] = None,
) -> ProtocolResult:
    """Execute the full online protocol on a population state matrix.

    Parameters
    ----------
    states:
        ``(n, d)`` Boolean matrix; row ``u`` is user ``u``'s value sequence
        ``st_u``.  Every row must change at most ``params.k`` times.
    params:
        Problem parameters; ``params.n`` and ``params.d`` must match ``states``.
    rng:
        Root generator; every client receives an independent child stream.
    family:
        Randomizer family to deploy client-side (default: FutureRand).

    Returns
    -------
    ProtocolResult
        Online estimates ``a_hat[1..d]`` alongside the ground truth.
    """
    # Imported here: repro.core.vectorized imports this module.
    from repro.core.vectorized import validate_states

    matrix = validate_states(states, params)
    n, d = matrix.shape

    rng = as_generator(rng)
    if family is None:
        family = default_family(params)

    client_rngs = spawn_generators(rng, n)
    clients = [
        Client(user_id=u, d=d, family=family, rng=client_rngs[u]) for u in range(n)
    ]
    server = Server(d, family.c_gap)
    for client in clients:
        server.register(client.user_id, client.order)

    estimates = np.empty(d, dtype=np.float64)
    for t in range(1, d + 1):
        server.advance_to(t)
        for client in clients:
            report = client.step(int(matrix[client.user_id, t - 1]))
            if report is not None:
                server.receive(report)
        estimates[t - 1] = server.estimate(t)

    true_counts = matrix.sum(axis=0).astype(np.float64)
    orders = np.array([client.order for client in clients])
    return ProtocolResult(
        estimates=estimates,
        true_counts=true_counts,
        c_gap=family.c_gap,
        family_name=family.name,
        orders=orders,
    )
