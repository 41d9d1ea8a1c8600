"""In-memory spans installed from outside the program.

The benchmark measures the pipeline without editing it: :func:`installed`
replaces each module's public functions *where the pipeline looks them up*
(the module global a caller resolves at call time, or the class attribute an
instance method resolves through) with a wrapper that records a span, and
puts every original back on exit.

A span is ``[name, start_ns, end_ns, parent]``, ``parent`` being the index of
the span that was open when it started (``-1`` for a root).  Coroutine
methods are timed per step: each stretch between two suspensions is its own
span, so time a coroutine spends parked in the event loop is charged to
whatever ran meanwhile, never twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator, Optional

__all__ = ["MODULES", "Tracer", "installed", "layer_metrics", "targets"]

_now = time.perf_counter_ns

#: Modules whose self time the trace reports, plus the benchmark's residual.
MODULES = (
    "generators",
    "vectorized",
    "kernels",
    "traffic",
    "service",
    "server",
    "journal",
    "faults",
    "privacy",
    "calibration",
    "residual",
)


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    Counters are kept per phase: ``"setup"`` (input generation, done once)
    and ``"call"`` (every timed call), matching the two root span kinds.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = {
            "setup": defaultdict(float),
            "call": defaultdict(float),
        }
        self.phase = "setup"
        self._stack: list[int] = []

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.phase][name] += value

    @contextlib.contextmanager
    def root(self, phase: str) -> Iterator[None]:
        """A ``bench.<phase>`` root span; counters inside land in ``phase``."""
        self.phase = phase
        index = self.open(f"bench.{phase}")
        try:
            yield
        finally:
            self.close(index)

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _now(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def write(self, path: Path) -> None:
        """Write every span, one JSON array per line, plus the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counters": self.counters}) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def _wrap(
    tracer: Tracer,
    name: str,
    fn: Callable,
    after: Optional[Callable[[Tracer, tuple, object], None]],
) -> Callable:
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        tracer.count(name + ".calls")
        if after is not None:
            after(tracer, args, result)
        return result

    return functools.update_wrapper(wrapper, fn)


class _TimedSteps:
    """Awaitable driving a coroutine and timing each step as one span."""

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self._tracer, self._name, self._coro = tracer, name, coro

    def __await__(self):
        tracer, name, coro = self._tracer, self._name, self._coro
        value, error = None, None
        while True:
            index = tracer.open(name)
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.close(index)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc


def _wrap_async(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls")
        return _TimedSteps(tracer, name, fn(*args, **kwargs))

    return functools.update_wrapper(wrapper, fn)


def _count_cells(tracer: Tracer, args: tuple, result) -> None:
    # FastKernel.randomize_composed_matrix(self, matrix, k, sampler, rng)
    tracer.count("kernels.cells", args[1].size)


def _count_supervision(tracer: Tracer, args: tuple, result) -> None:
    # run_supervised(fn, items, ...) -> (results, SupervisionReport)
    report = result[1]
    tracer.count("faults.units", len(args[1]))
    tracer.count("faults.attempts", report.attempts)
    tracer.count("faults.retries", report.retries)


def _count_service(tracer: Tracer, args: tuple, result) -> None:
    stats = result.stats
    tracer.count("service.peak_queue_depth", stats.peak_queue_depth)
    tracer.count("service.messages_folded", stats.delivered_messages)
    tracer.count("service.duplicates_discarded", stats.duplicates_discarded)


def targets() -> list[tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, counter hook)`` for every wrapped call.

    A function imported by name into several modules is wrapped in each
    namespace the pipeline resolves it from.
    """
    from repro.analysis import calibration, privacy
    from repro.core import server, vectorized
    from repro.kernels import fast
    from repro.sim import journal, service
    from repro.workloads import generators

    return [
        (generators.BoundedChangePopulation, "sample", "generators.sample", None),
        (vectorized, "run_batch", "vectorized.run_batch", None),
        (vectorized, "collect_tree_reports", "vectorized.collect", None),
        (vectorized, "validate_states", "vectorized.validate", None),
        (service, "validate_states", "vectorized.validate", None),
        (vectorized, "group_partial_sums", "vectorized.partial_sums", None),
        (service, "group_partial_sums", "vectorized.partial_sums", None),
        (fast.FastKernel, "randomize_composed_matrix", "kernels.randomize",
         _count_cells),
        (service, "schedule_arrivals", "traffic.schedule", None),
        (service, "run_service", "service.run", _count_service),
        (service.IngestionService, "submit", "service.submit", None),
        (service.IngestionService, "close_period", "service.close_period",
         None),
        (service.IngestionService, "snapshot_state", "service.snapshot", None),
        (server.Server, "receive_aggregate", "server.fold", None),
        (server.Server, "estimate", "server.release", None),
        (journal.ServiceJournal, "append", "journal.append", None),
        (service, "run_supervised", "faults.supervised", _count_supervision),
        (privacy, "client_report_log_ratio", "privacy.client_ratio", None),
        (calibration, "client_report_log_ratio", "privacy.client_ratio", None),
        (calibration, "calibration_multiplier", "calibration.multiplier", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore it."""
    originals = []
    try:
        for owner, attribute, name, hook in targets():
            original = vars(owner)[attribute]
            if inspect.iscoroutinefunction(original):
                wrapper = _wrap_async(tracer, name, original)
            else:
                wrapper = _wrap(tracer, name, original, hook)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapper)
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def _self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, calls: int) -> dict[str, float]:
    """Per-layer figures for one set-up plus one timed call.

    Spans under a ``bench.setup`` root count once; spans under ``bench.call``
    roots are averaged over ``calls``.  ``self.*`` splits the traced wall
    time into each module's self time plus ``self.residual_s``, the
    benchmark's own time outside every wrapped call, so the ``self.*``
    figures sum to ``trace.wall_s``.
    """
    spans = tracer.spans
    own = _self_times(spans)
    root_of: list[int] = []
    for index, (_, _, _, parent) in enumerate(spans):
        root_of.append(index if parent < 0 else root_of[parent])
    weight = [
        1.0 / calls if spans[root_of[i]][0] == "bench.call" else 1.0
        for i in range(len(spans))
    ]

    total: dict[str, float] = defaultdict(float)
    own_by_name: dict[str, float] = defaultdict(float)
    own_by_module: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        seconds = weight[i] * 1e-9
        if parent >= 0:
            total[name] += (end - start) * seconds
        own_by_name[name] += own[i] * seconds
        module = "residual" if name.startswith("bench.") else name.split(".")[0]
        own_by_module[module] += own[i] * seconds

    setup, per_call = tracer.counters["setup"], tracer.counters["call"]
    counters = {
        name: setup.get(name, 0.0) + per_call.get(name, 0.0) / calls
        for name in sorted({*setup, *per_call})
    }
    cells = counters.get("kernels.cells", 0.0)
    attempts = counters.get("faults.attempts", 0.0)
    folded = counters.get("service.messages_folded", 0.0)
    offered = folded + counters.get("service.duplicates_discarded", 0.0)
    metrics = {
        "generators.sample_s": total["generators.sample"],
        "generators.sample_calls": counters.get("generators.sample.calls", 0.0),
        "vectorized.validate_s": total["vectorized.validate"],
        "vectorized.partial_sums_s": total["vectorized.partial_sums"],
        "vectorized.collect_self_s": own_by_name["vectorized.collect"],
        "kernels.randomize_s": total["kernels.randomize"],
        "kernels.cells": cells,
        "kernels.ns_per_cell": (
            total["kernels.randomize"] / cells * 1e9 if cells else 0.0
        ),
        "traffic.schedule_s": total["traffic.schedule"],
        "service.submit_s": total["service.submit"],
        "service.submit_calls": counters.get("service.submit.calls", 0.0),
        "service.close_period_s": total["service.close_period"],
        "service.self_s": own_by_name["service.run"],
        "service.peak_queue_depth": counters.get("service.peak_queue_depth", 0.0),
        "service.dedup_useful_ratio": folded / offered if offered else 0.0,
        "server.fold_s": total["server.fold"],
        "server.fold_calls": counters.get("server.fold.calls", 0.0),
        "server.release_s": total["server.release"],
        "service.snapshot_s": total["service.snapshot"],
        "journal.append_s": total["journal.append"],
        "journal.appends": counters.get("journal.append.calls", 0.0),
        "journal.bytes": counters.get("journal.bytes", 0.0),
        "faults.supervised_s": total["faults.supervised"],
        "faults.retries": counters.get("faults.retries", 0.0),
        "faults.useful_ratio": (
            counters.get("faults.units", 0.0) / attempts if attempts else 0.0
        ),
        "privacy.client_ratio_s": total["privacy.client_ratio"],
        "privacy.client_ratio_calls": counters.get(
            "privacy.client_ratio.calls", 0.0
        ),
        "calibration.self_s": own_by_name["calibration.multiplier"],
    }
    for module in MODULES:
        metrics[f"self.{module}_s"] = own_by_module[module]
    metrics["trace.wall_s"] = sum(
        (end - start) * weight[i] * 1e-9
        for i, (_, start, end, parent) in enumerate(spans)
        if parent < 0
    )
    metrics["trace.spans"] = sum(weight)
    return metrics
