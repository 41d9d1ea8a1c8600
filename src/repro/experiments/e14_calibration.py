"""E14 — ablation: exact budget calibration vs the paper's 5*sqrt(k) split.

Lemma 5.2 sets ``eps_tilde = eps/(5 sqrt k)`` to make a closed-form proof go
through; E7 measures that this spends under half the budget.  Replacing the
closed form with the *exact* client-report privacy check (bisection on the
budget multiplier) yields a drop-in randomizer with 2-4.6x larger ``c_gap`` —
i.e. 2-4.6x smaller protocol error — at identical, exactly-verified
``epsilon``.  The experiment tabulates the gain and validates it end-to-end
by running both randomizers through the full protocol.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.calibration import CalibratedFutureRandFamily, calibration_table
from repro.core.future_rand import FutureRandFamily
from repro.core.params import ProtocolParams
from repro.core.vectorized import run_batch
from repro.sim.results import ResultTable
from repro.utils.rng import spawn_generators
from repro.workloads.generators import BoundedChangePopulation

_SCALES = {
    "small": {"ks": [1, 4, 16, 64], "eps": 1.0, "n": 4000, "d": 64, "proto_k": 4, "trials": 4},
    # The exact client-ratio check inside the bisection is O(k^2) (Pascal's
    # recurrence), so even k=1024 calibrates in well under a second.
    "full": {"ks": [1, 2, 4, 8, 16, 64, 256, 1024], "eps": 1.0, "n": 20000, "d": 256, "proto_k": 8, "trials": 6},
}


def run(scale: str = "small", seed: int = 0) -> ResultTable:
    """Exact-calibration constants plus an end-to-end protocol comparison."""
    config = _SCALES[scale]
    table = calibration_table(config["ks"], config["eps"])
    table.title = "E14 (ablation): exact budget calibration"

    # End-to-end check at one protocol configuration.
    params = ProtocolParams(
        n=config["n"], d=config["d"], k=config["proto_k"], epsilon=config["eps"]
    )
    workload_rng, *trial_rngs = spawn_generators(
        np.random.SeedSequence(seed), config["trials"] + 1
    )
    states = BoundedChangePopulation(params.d, params.k, exact_k=True).sample(
        params.n, workload_rng
    )
    paper_family = FutureRandFamily(params.k, params.epsilon)
    calibrated_family = CalibratedFutureRandFamily(params.k, params.epsilon)
    paper_errors, calibrated_errors = [], []
    for rng in trial_rngs:
        paper_errors.append(
            run_batch(states, params, rng, family=paper_family).max_abs_error
        )
    for rng in spawn_generators(np.random.SeedSequence(seed + 1), config["trials"]):
        calibrated_errors.append(
            run_batch(states, params, rng, family=calibrated_family).max_abs_error
        )
    paper_mean = float(np.mean(paper_errors))
    calibrated_mean = float(np.mean(calibrated_errors))
    table.notes += (
        f" End-to-end at (n={params.n}, d={params.d}, k={params.k}): paper "
        f"max error {paper_mean:,.0f} vs calibrated {calibrated_mean:,.0f} "
        f"({paper_mean / calibrated_mean:.2f}x better)."
    )
    table.add_row(
        k=float("nan"),
        multiplier=float("nan"),
        cgap_paper=paper_mean,
        cgap_calibrated=calibrated_mean,
        gain=paper_mean / calibrated_mean,
        exact_ratio=float("nan"),
    )
    return table
