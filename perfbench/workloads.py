"""The benchmark's four workloads: seeded inputs, one timed call, a check.

Every workload runs the FutureRand family at epsilon = 1 in one process
(``workers=1``); the pipeline workloads use ``kernel="fast"``, the
optimisation target (the reference kernel is the frozen bit-exact oracle).

Each workload exposes the same five steps, driven by ``perfbench/run.py``:

``generate(seed)``
    Build the inputs from the benchmark seed (repeated to time set-up).
``warm_up(inputs, seed)``
    One small untimed call, so lazy caches (alias tables, prefix operators)
    fill before timing.
``call(inputs, seed, mark)``
    The timed call.  ``mark()`` is invoked at every instant the caller sees
    output: each released period for the service, the call's start and end
    for a batch run, the start and each certified ``k`` for the audit.
``check(result)``
    ``None`` if the output is correct, else the reason it is not.
``settle(result)``
    Untimed clean-up after a call; returns per-call counters the program
    does not report itself (the journal's size on disk).

Seeds: every input and protocol seed is a leaf of one ``SeedSequence`` tree
rooted at the benchmark's ``--seed`` (:func:`leaf`), so the program receives
only generated inputs and seed leaves, and the same seed gives the same run.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.analysis import calibration, privacy
from repro.analysis.conformance import fault_adjusted_radius, protocol_radius
from repro.core import vectorized
from repro.core.annulus import AnnulusLaw, future_rand_bounds
from repro.core.params import ProtocolParams
from repro.sim import service
from repro.workloads.generators import BoundedChangePopulation
from repro.workloads.traffic import TRAFFIC_MODELS

__all__ = [
    "EPSILON",
    "WORKLOAD_NAMES",
    "AuditWorkload",
    "BatchWorkload",
    "ServiceWorkload",
    "leaf",
    "make_workload",
]

EPSILON = 1.0

#: Spawn-key prefixes under the benchmark seed.
INPUTS, WARM_UP, CALLS = 0, 1, 2

#: Rows of the warm-up call.
_WARM_UP_ROWS = 2048


def leaf(seed: int, *key: int) -> np.random.SeedSequence:
    """The seed-tree leaf ``key`` under the benchmark seed."""
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def _sample_states(
    population: BoundedChangePopulation, n: int, seed: np.random.SeedSequence
) -> np.ndarray:
    (states,) = population.sample_chunks(n, n, seed)
    return states


def _radius_failure(error: float, radius: float) -> Optional[str]:
    if error <= radius:
        return None
    return f"max|error| {error:.1f} exceeds the radius {radius:.1f}"


class BatchWorkload:
    """``run_batch`` on pre-sampled states, fresh protocol seed per call."""

    name = "batch-d1024"

    def __init__(self, n: int, d: int = 1024, k: int = 8) -> None:
        self.params = ProtocolParams(n=n, d=d, k=k, epsilon=EPSILON)
        self.population = BoundedChangePopulation(d, k, exact_k=True)

    def generate(self, seed: int) -> np.ndarray:
        return _sample_states(self.population, self.params.n, leaf(seed, INPUTS))

    def warm_up(self, states: np.ndarray, seed: int) -> None:
        rows = min(_WARM_UP_ROWS, self.params.n)
        params = dataclasses.replace(self.params, n=rows)
        vectorized.run_batch(
            states[:rows], params, np.random.default_rng(leaf(seed, WARM_UP)),
            kernel="fast",
        )

    def call(self, states: np.ndarray, seed: np.random.SeedSequence, mark: Callable):
        mark()
        result = vectorized.run_batch(
            states, self.params, np.random.default_rng(seed), kernel="fast"
        )
        mark()
        return result

    def check(self, result) -> Optional[str]:
        bound, _ = protocol_radius("future_rand", self.params, result.c_gap)
        return _radius_failure(result.max_abs_error, bound)

    def output(self, result) -> np.ndarray:
        return result.estimates

    def items(self, result) -> int:
        return self.params.n

    def settle(self, result) -> dict[str, float]:
        return {}


class ServiceWorkload:
    """``run_service`` over a population or pre-sampled states."""

    def __init__(
        self,
        name: str,
        *,
        n: int,
        d: int = 256,
        k: int = 4,
        presampled: bool,
        traffic,
        block_rows: Optional[int] = None,
        faults: Optional[str] = None,
        journal_root: Optional[Path] = None,
    ) -> None:
        self.name = name
        self.params = ProtocolParams(n=n, d=d, k=k, epsilon=EPSILON)
        self.population = BoundedChangePopulation(d, k, exact_k=True)
        self.presampled = presampled
        self.options = {"traffic": traffic, "faults": faults, "kernel": "fast"}
        if block_rows is not None:
            self.options["block_rows"] = block_rows
        self.journal_root = journal_root
        self._journals = 0

    def generate(self, seed: int):
        if self.journal_root is not None:
            self.journal_root.mkdir(parents=True, exist_ok=True)
        if not self.presampled:
            return self.population
        return _sample_states(self.population, self.params.n, leaf(seed, INPUTS))

    def _run(self, workload, params, seed, callback=None):
        journal = None
        if self.journal_root is not None:
            self._journals += 1
            journal = self.journal_root / f"journal-{self._journals}"
        return service.run_service(
            workload, params, seed, workers=1, journal=journal,
            callback=callback, **self.options,
        )

    def warm_up(self, inputs, seed: int) -> None:
        rows = min(_WARM_UP_ROWS, self.params.n)
        params = dataclasses.replace(self.params, n=rows)
        workload = inputs if not self.presampled else inputs[:rows]
        self.settle(self._run(workload, params, leaf(seed, WARM_UP)))

    def call(self, inputs, seed: np.random.SeedSequence, mark: Callable):
        return self._run(inputs, self.params, seed, lambda step: mark())

    def check(self, result) -> Optional[str]:
        if result.estimates.shape != (self.params.d,):
            return f"released {result.estimates.shape[0]} of {self.params.d} periods"
        bound, _ = protocol_radius("future_rand", self.params, result.c_gap)
        radius = fault_adjusted_radius(
            bound,
            self.params,
            drop_rate=result.stats.effective_drop_rate,
            duplicate_rate=result.stats.effective_duplicate_rate,
        )
        return _radius_failure(result.to_result().max_abs_error, radius)

    def output(self, result) -> np.ndarray:
        return result.estimates

    def items(self, result) -> int:
        return self.params.n

    def settle(self, result) -> dict[str, float]:
        """Remove the call's journal; report its size."""
        if self.journal_root is None:
            return {}
        journal = self.journal_root / f"journal-{self._journals}"
        size = sum(path.stat().st_size for path in journal.glob("*"))
        shutil.rmtree(journal, ignore_errors=True)
        return {"journal.bytes": float(size)}


class AuditWorkload:
    """The start-up privacy certification: calibrate, then check both laws.

    The audit is a deterministic computation: the seed selects nothing.
    Each certificate row is ``(k, multiplier, paper ratio, calibrated
    ratio)``.
    """

    name = "privacy-audit"

    def __init__(self, ks: tuple[int, ...]) -> None:
        self.ks = ks

    def generate(self, seed: int) -> tuple[int, ...]:
        return self.ks

    def warm_up(self, ks, seed: int) -> None:
        self.call((min(ks),), None, lambda: None)

    def call(self, ks, seed, mark: Callable) -> np.ndarray:
        mark()
        certificates = []
        for k in ks:
            multiplier = calibration.calibration_multiplier(k, EPSILON)
            paper = privacy.client_report_log_ratio(
                AnnulusLaw.for_future_rand(k, EPSILON)
            )
            # The calibrated law, by the multiplier's definition in
            # repro.analysis.calibration: eps_tilde = m * eps / (5 sqrt k).
            eps_tilde = multiplier * EPSILON / (5.0 * math.sqrt(k))
            calibrated = privacy.client_report_log_ratio(
                AnnulusLaw(k, eps_tilde, *future_rand_bounds(k, eps_tilde))
            )
            certificates.append((k, multiplier, paper, calibrated))
            mark()
        return np.array(certificates, dtype=np.float64)

    def check(self, certificates: np.ndarray) -> Optional[str]:
        ratios = certificates[:, 2:]
        if not (ratios <= EPSILON).all():
            return f"a client ratio {ratios.max():.6f} exceeds epsilon={EPSILON}"
        if not (certificates[:, 1] >= 1.0).all():
            return f"a multiplier {certificates[:, 1].min():.4f} is below 1"
        return None

    def output(self, certificates: np.ndarray) -> np.ndarray:
        return certificates

    def items(self, certificates: np.ndarray) -> int:
        return len(certificates)

    def settle(self, result) -> dict[str, float]:
        return {}


def make_workload(name: str, scratch: Path, *, small: bool = False):
    """The named workload; ``scratch`` holds its journals.

    ``small`` keeps every setting but shrinks the users to a few blocks and
    the audit to k=4,8, for the benchmark's own tests.
    """
    if name == "batch-d1024":
        return BatchWorkload(n=4096 if small else 100_000)
    if name == "service-population":
        return ServiceWorkload(
            name, n=4096 if small else 200_000, presampled=False, traffic="soak"
        )
    if name == "service-durable":
        return ServiceWorkload(
            name,
            n=4096 if small else 100_000,
            presampled=True,
            traffic=dataclasses.replace(
                TRAFFIC_MODELS["soak"], name="soak-skew4", max_skew=4
            ),
            block_rows=1024,
            faults="chaos",
            journal_root=scratch,
        )
    if name == "privacy-audit":
        return AuditWorkload(ks=(4, 8) if small else (32, 64, 96))
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = (
    "service-population",
    "batch-d1024",
    "service-durable",
    "privacy-audit",
)
