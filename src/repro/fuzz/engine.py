"""Deterministic evolutionary search for bound-stressing workloads.

:func:`run_fuzz` evolves a population of :class:`~repro.fuzz.genome.
FuzzGenome` recipes against one registry protocol, scoring each genome by
how close its workload pushes the protocol's observed max-error to the
analytical radius the conformance suite enforces
(:mod:`repro.analysis.conformance`).  Fitness is the ratio
``observed_max_abs / fault_adjusted_radius``: a genome "wins" by finding a
hard *population*, never by breaking the delivery assumption — fault genes
are scored against the widened envelope.

Determinism contract (regression-tested):

* every random draw flows from ``SeedSequence(entropy=seed,
  spawn_key=(stream, generation, slot))`` — the workload stream samples the
  population, the trial stream spawns per-trial protocol seeds, and the
  evolution stream drives selection/mutation/crossover;
* genome evaluation runs through :func:`repro.sim.parallel.execute_shards`,
  whose results are bit-identical at any worker count, and the evolution
  loop consumes only the *ordered* results — so the corpus produced by a run
  is a pure function of ``(target, params, budget, seed, trials,
  population_size, kernel)``, byte-for-byte, at ``--workers 1`` or 64.

Budget accounting: ``budget`` caps *protocol evaluations*.  Genomes are
deduplicated by digest across the whole run — re-proposing a known genome
costs nothing (its cached fitness is reused), so the search never wastes
trials re-measuring a point it already scored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.analysis.conformance import fault_adjusted_radius, protocol_radius
from repro.core.params import ProtocolParams
from repro.fuzz.genome import (
    FuzzGenome,
    build_population,
    crossover,
    mutate,
    random_genome,
)
from repro.protocols.registry import PROTOCOLS, get_protocol, unsupported_option
from repro.sim.batch_engine import run_batch_engine
from repro.sim.parallel import ShardTask, encode_runner, execute_shards

__all__ = [
    "CHAOS_CAPABLE_TARGETS",
    "FAULT_CAPABLE_TARGETS",
    "FUZZ_TARGETS",
    "EvaluationRecord",
    "FuzzOutcome",
    "build_runner",
    "evaluation_seed_nodes",
    "normalize_genome",
    "run_fuzz",
    "target_protocol",
]

#: Boolean-domain registry protocols the fuzzer targets (plus ``service``,
#: the asyncio ingestion front end — not a registry protocol, but the same
#: estimator behind a faulty delivery layer).  The item-domain protocols
#: consume Boolean sub-streams through a reduction the workload generators
#: do not speak, and ``future_rand_object`` is the O(n*d) object reference —
#: far too slow for an evolutionary inner loop.
FUZZ_TARGETS = (
    "future_rand",
    "bun_composed",
    "erlingsson",
    "naive_split",
    "naive_unsplit",
    "memoization",
    "offline_tree",
    "central_tree",
    "service",
)

#: Targets whose runner executes the unreliable-delivery fault schedule.
#: For every other target the fault genes are normalized to zero before
#: evaluation, so a corpus entry never advertises faults it did not run.
#: ``service`` runs the faults through the delivery layer itself — a
#: genome's drop/duplicate rates become a TrafficModel, and deduplication
#: is disabled so retransmit duplicates genuinely double-count.
FAULT_CAPABLE_TARGETS = ("future_rand", "service")

#: Targets that additionally execute the chaos genes (``crash_rate``/
#: ``hang_rate``/``corrupt_rate``): the genome's execution-fault rates
#: become a :class:`repro.faults.FaultModel` and block randomization runs
#: under :func:`repro.faults.run_supervised` with the default retry policy.
#: Supervised recovery is bit-identical to the fault-free run, so chaos
#: genes stress the *machinery* while the score still measures the
#: workload — and a corpus entry with chaos genes replays the same
#: schedule, byte for byte.
CHAOS_CAPABLE_TARGETS = ("service",)

#: Non-registry targets scored against a registry protocol's ``c_gap`` and
#: conformance-radius shape.  ``RADIUS_BY_PROTOCOL``'s key set is pinned to
#: the registry by a meta-test, so aliases resolve here instead of adding
#: protocol-less keys there.
_TARGET_PROTOCOL_ALIASES = {"service": "future_rand"}


def target_protocol(target: str) -> str:
    """The registry protocol a fuzz target is scored as."""
    return _TARGET_PROTOCOL_ALIASES.get(target, target)

# SeedSequence spawn-key stream tags (first component of every spawn key).
_STREAM_WORKLOAD = 0
_STREAM_TRIAL = 1
_STREAM_EVOLUTION = 2

_ELITES = 2
_CROSSOVER_PROB = 0.6
_TOURNAMENT_SIZE = 2


@dataclass(frozen=True)
class EvaluationRecord:
    """One genome's measured performance (everything replay needs)."""

    genome: FuzzGenome
    generation: int
    slot: int
    fitness: float
    observed_max_abs: float
    metrics: tuple[tuple[float, float, float], ...]
    radius: float
    base_radius: float
    per_trial_failure: float


@dataclass(frozen=True)
class FuzzOutcome:
    """A completed fuzz run: every evaluation, ranked worst-case first."""

    target: str
    params: ProtocolParams
    seed: int
    trials: int
    kernel: Optional[str]
    records: tuple[EvaluationRecord, ...]
    evaluations: int

    @property
    def ranked(self) -> tuple[EvaluationRecord, ...]:
        """Records sorted by descending fitness (digest tie-break)."""
        return tuple(
            sorted(
                self.records,
                key=lambda record: (-record.fitness, record.genome.digest()),
            )
        )


def normalize_genome(genome: FuzzGenome, target: str) -> FuzzGenome:
    """Zero the fault genes a target cannot execute.

    Three tiers: chaos-capable targets keep every gene, fault-capable ones
    keep the delivery genes but drop the chaos genes, and everything else
    evaluates fault-free.
    """
    if target in CHAOS_CAPABLE_TARGETS:
        return genome
    if target in FAULT_CAPABLE_TARGETS:
        return genome.without_chaos()
    return genome.without_faults()


def build_runner(
    target: str, genome: FuzzGenome, kernel: Optional[str]
) -> Callable:
    """The exact runner a genome is scored with (shared with corpus replay).

    ``future_rand`` with faults or a kernel override binds
    :func:`~repro.sim.batch_engine.run_batch_engine` through a picklable
    partial (the engine's default family at these parameters *is* the
    registry adapter's); ``service`` binds the asyncio ingestion pipeline
    with the genome's fault rates as its traffic model; every other case
    resolves the registry singleton, optionally re-bound with the kernel
    for kernel-capable protocols.
    """
    if target == "service":
        from repro.faults import FaultModel
        from repro.workloads.traffic import TrafficModel

        faults = None
        if genome.has_chaos:
            faults = FaultModel(
                name="fuzz",
                crash_rate=genome.crash_rate,
                hang_rate=genome.hang_rate,
                corrupt_rate=genome.corrupt_rate,
            )
        return functools.partial(
            _run_service_trial,
            traffic=TrafficModel(
                name="fuzz",
                drop_rate=genome.drop_rate,
                duplicate_rate=genome.duplicate_rate,
            ),
            kernel=kernel,
            faults=faults,
        )
    if target == "future_rand":
        kwargs: dict = {}
        if genome.drop_rate:
            kwargs["report_drop_rate"] = genome.drop_rate
        if genome.duplicate_rate:
            kwargs["report_duplicate_rate"] = genome.duplicate_rate
        if kernel is not None:
            kwargs["kernel"] = kernel
        if kwargs:
            return functools.partial(run_batch_engine, **kwargs)
        return PROTOCOLS[target]
    protocol = get_protocol(target)
    if kernel is not None:
        lacking, capable = unsupported_option({target: protocol}, "kernel")
        if lacking:
            raise ValueError(
                f"protocol {target!r} does not support kernel; protocols "
                f"that do: {', '.join(capable)}"
            )
        return functools.partial(protocol.run, kernel=kernel)
    return protocol


def _run_service_trial(states, params, rng, *, traffic, kernel=None, faults=None):
    """Picklable ``service`` trial runner (module-level for worker transport).

    Deduplication is off so the genome's retransmit duplicates actually
    double-count — the fault-adjusted envelope assumes the bias happens,
    and a dedup'd run would score faults it silently absorbed.  A chaos
    genome's ``faults`` model runs block randomization under supervised
    (transient, always-recovered) fault injection: the estimates stay
    bit-identical to the fault-free run, so the score still measures the
    workload while the recovery machinery takes the beating.
    """
    from repro.sim.service import run_service

    return run_service(
        states,
        params,
        rng,
        traffic=traffic,
        kernel=kernel,
        reject_duplicates=False,
        faults=faults,
    ).to_result()


def evaluation_seed_nodes(
    seed: int, generation: int, slot: int, trials: int
) -> tuple[np.random.SeedSequence, tuple[np.random.SeedSequence, ...]]:
    """The workload node and per-trial seeds for one evaluation cell.

    Pure function of ``(seed, generation, slot, trials)`` — corpus replay
    calls this with the recorded coordinates to rebuild the identical
    workload and trial randomness, bit for bit.
    """
    workload = np.random.SeedSequence(
        entropy=seed, spawn_key=(_STREAM_WORKLOAD, generation, slot)
    )
    trial_root = np.random.SeedSequence(
        entropy=seed, spawn_key=(_STREAM_TRIAL, generation, slot)
    )
    return workload, tuple(trial_root.spawn(trials))


def _score(
    target: str,
    genome: FuzzGenome,
    params: ProtocolParams,
    metrics: list[tuple[float, float, float]],
    c_gap: float,
) -> tuple[float, float, float, float, float]:
    """``(fitness, observed, radius, base_radius, per_trial_failure)``."""
    base_radius, per_trial_failure = protocol_radius(
        target_protocol(target), params, c_gap
    )
    radius = fault_adjusted_radius(
        base_radius,
        params,
        drop_rate=genome.drop_rate,
        duplicate_rate=genome.duplicate_rate,
    )
    observed = max(trial[0] for trial in metrics)
    return observed / radius, observed, radius, base_radius, per_trial_failure


def _tournament(
    ranked: list[EvaluationRecord], rng: np.random.Generator
) -> FuzzGenome:
    """Pick the best of ``_TOURNAMENT_SIZE`` uniform draws from the ranking."""
    picks = rng.integers(len(ranked), size=_TOURNAMENT_SIZE)
    return ranked[int(picks.min())].genome


def run_fuzz(
    target: str,
    params: ProtocolParams,
    *,
    budget: int,
    seed: int = 0,
    workers: int = 1,
    trials: int = 3,
    population_size: int = 8,
    kernel: Optional[str] = None,
    on_generation: Optional[Callable[[int, int, float], None]] = None,
) -> FuzzOutcome:
    """Evolve workload genomes against ``target`` for ``budget`` evaluations.

    ``on_generation(generation, evaluations, best_fitness)`` fires after each
    generation is scored — progress reporting only, never control flow.
    """
    if target not in FUZZ_TARGETS:
        known = ", ".join(FUZZ_TARGETS)
        raise ValueError(f"unknown fuzz target {target!r}; known: {known}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if population_size < 2:
        raise ValueError(
            f"population_size must be at least 2, got {population_size}"
        )
    if kernel is not None:
        # Fail fast (and uniformly) before the first generation is built.
        build_runner(target, normalize_genome(
            random_genome(np.random.default_rng(0), params.k), target
        ), kernel)

    c_gap = get_protocol(target_protocol(target)).c_gap(params)
    cache: dict[str, EvaluationRecord] = {}
    records: list[EvaluationRecord] = []
    evaluations = 0
    generation = 0
    ranked: list[EvaluationRecord] = []

    while evaluations < budget:
        evolution_rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=seed, spawn_key=(_STREAM_EVOLUTION, generation, 0)
            )
        )
        # -- propose this generation's candidates ------------------------
        candidates: list[FuzzGenome] = []
        if generation == 0 or not ranked:
            for _ in range(population_size):
                candidates.append(random_genome(evolution_rng, params.k))
        else:
            for record in ranked[:_ELITES]:
                candidates.append(record.genome)
            while len(candidates) < population_size:
                if evolution_rng.random() < _CROSSOVER_PROB:
                    child = crossover(
                        _tournament(ranked, evolution_rng),
                        _tournament(ranked, evolution_rng),
                        evolution_rng,
                    )
                else:
                    child = mutate(
                        _tournament(ranked, evolution_rng),
                        evolution_rng,
                        params.k,
                    )
                candidates.append(child)

        # -- select the fresh ones, budget-capped ------------------------
        fresh: list[tuple[int, FuzzGenome, str]] = []
        seen_this_round: set[str] = set()
        slot = 0
        for candidate in candidates:
            genome = normalize_genome(candidate, target)
            digest = genome.digest()
            if digest in cache or digest in seen_this_round:
                continue
            fresh.append((slot, genome, digest))
            seen_this_round.add(digest)
            slot += 1
        if not fresh:
            # Stagnant generation: inject random immigrants so the budget
            # is always spent on unexplored genomes.
            while slot < population_size:
                genome = normalize_genome(
                    random_genome(evolution_rng, params.k), target
                )
                digest = genome.digest()
                if digest not in cache and digest not in seen_this_round:
                    fresh.append((slot, genome, digest))
                    seen_this_round.add(digest)
                slot += 1
            if not fresh:
                generation += 1
                continue
        fresh = fresh[: budget - evaluations]

        # -- evaluate through the sharded executor -----------------------
        tasks = []
        for slot, genome, _ in fresh:
            workload_node, trial_seeds = evaluation_seed_nodes(
                seed, generation, slot, trials
            )
            population = build_population(genome, params.d, params.k)
            states = population.sample(
                params.n, np.random.default_rng(workload_node)
            )
            runner = build_runner(target, genome, kernel)
            tasks.append(
                ShardTask(
                    runner=encode_runner(target, runner),
                    states=states,
                    params=params,
                    seeds=trial_seeds,
                    trial_start=0,
                    trial_stop=trials,
                )
            )
        results = execute_shards(tasks, workers=workers)

        for (slot, genome, digest), metrics in zip(fresh, results, strict=True):
            fitness, observed, radius, base_radius, failure = _score(
                target, genome, params, metrics, c_gap
            )
            record = EvaluationRecord(
                genome=genome,
                generation=generation,
                slot=slot,
                fitness=fitness,
                observed_max_abs=observed,
                metrics=tuple(tuple(trial) for trial in metrics),
                radius=radius,
                base_radius=base_radius,
                per_trial_failure=failure,
            )
            cache[digest] = record
            records.append(record)
            evaluations += 1

        ranked = sorted(
            cache.values(),
            key=lambda record: (-record.fitness, record.genome.digest()),
        )
        if on_generation is not None:
            on_generation(generation, evaluations, ranked[0].fitness)
        generation += 1

    return FuzzOutcome(
        target=target,
        params=params,
        seed=seed,
        trials=trials,
        kernel=kernel,
        records=tuple(records),
        evaluations=evaluations,
    )
