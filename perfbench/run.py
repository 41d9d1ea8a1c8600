"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload batch-d1024 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced and traced calls on the same seed leaf, requires their
outputs to be bit-identical, writes the spans under ``.perfbench-out/`` and
prints the per-layer metrics.  See ``perfbench/README.md`` for the workloads,
the metrics and which layer should move which end-to-end metric.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

#: Input generations per run; ``setup_s`` reports their median.
SETUPS = 3
#: Gaps of one call above its tail gap (``release_tail_ms``).
TAIL_BEYOND = 10


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Put the checkout's ``src/`` first on the path; False if it is absent."""
    source = ROOT / "src"
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro
    except ImportError:
        return False
    return Path(repro.__file__).resolve().is_relative_to(source)


def _tail(values: list[float]) -> float:
    """The value with ``TAIL_BEYOND`` values above it (the maximum if fewer)."""
    ordered = sorted(values)
    return ordered[-1 - TAIL_BEYOND] if len(ordered) > TAIL_BEYOND else ordered[-1]


class _Call:
    """One timed call: wall time, release instants, verdict and output bytes.

    The result itself is dropped once checked, so the number of calls a run
    makes does not show in ``peak_rss_mb``.
    """

    def __init__(self, workload, inputs, seed) -> None:
        self.marks: list[float] = []
        self.wall = self.output = None
        start = time.perf_counter()
        try:
            result = workload.call(inputs, seed, self._mark)
            self.wall = time.perf_counter() - start
            self.failure = workload.check(result)
            self.output = workload.output(result).tobytes()
            self.items = workload.items(result)
        except Exception as error:  # a raising call is a failed run, not a crash
            traceback.print_exc(file=sys.stderr)
            result = None
            self.failure = f"raised {error!r}"
        self.counters = workload.settle(result)

    def _mark(self) -> None:
        self.marks.append(time.perf_counter())

    @property
    def gaps(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:], strict=False)]


def _timed(workload, args, import_s: float) -> dict:
    from perfbench.workloads import CALLS, leaf

    generations = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs = workload.generate(args.seed)
        generations.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.warm_up(inputs, args.seed)
    setup_s = import_s + statistics.median(generations) + time.perf_counter() - start

    calls = []
    started = time.perf_counter()
    while len(calls) < 2 or time.perf_counter() - started < args.seconds:
        calls.append(_Call(workload, inputs, leaf(args.seed, CALLS, len(calls))))
    good = [call for call in calls if call.failure is None]
    for call in calls:
        if call.failure is not None:
            print(f"{workload.name}: {call.failure}", file=sys.stderr)
    rates = [call.items / call.wall for call in good]
    gaps = [gap for call in good for gap in call.gaps]
    tails = [_tail(call.gaps) for call in good]
    metrics = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "release_p50_ms": statistics.median(gaps) * 1e3 if gaps else 0.0,
        "release_tail_ms": statistics.median(tails) * 1e3 if tails else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    walls = ", ".join(f"{call.wall:.3f}" for call in good)
    print(
        f"{workload.name}: {len(calls)} calls ({walls} s), {len(gaps)} release gaps",
        file=sys.stderr,
    )
    return _payload(calls, metrics, "end_to_end")


def _traced(workload, args, out: Path) -> dict:
    from perfbench.spans import Tracer, installed, layer_metrics
    from perfbench.workloads import CALLS, leaf

    tracer = Tracer()
    with installed(tracer), tracer.root("setup"):
        inputs = workload.generate(args.seed)
    workload.warm_up(inputs, args.seed)

    seed = leaf(args.seed, CALLS, 0)

    def traced_call() -> _Call:
        with installed(tracer), tracer.root("call"):
            call = _Call(workload, inputs, seed)
        for name, value in call.counters.items():
            tracer.count(name, value)
        return call

    pairs = []
    started = time.perf_counter()
    while not pairs or time.perf_counter() - started < args.seconds:
        # Alternate which side goes first, so drift favours neither.
        if len(pairs) % 2:
            traced = traced_call()
            plain = _Call(workload, inputs, seed)
        else:
            plain = _Call(workload, inputs, seed)
            traced = traced_call()
        if None not in (plain.output, traced.output) and plain.output != traced.output:
            traced.failure = "traced output differs from untraced"
        pairs.append((plain, traced))
    calls = [call for pair in pairs for call in pair]
    for call in calls:
        if call.failure is not None:
            print(f"{workload.name}: {call.failure}", file=sys.stderr)

    tracer.write(out / f"trace-{workload.name}-seed{args.seed}.jsonl")
    layers = layer_metrics(tracer, calls=len(pairs))
    overheads = [
        traced.wall - plain.wall
        for plain, traced in pairs
        if None not in (plain.wall, traced.wall)
    ]
    layers["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    return _payload(calls, layers, "per_layer")


def _payload(calls: list, values: dict[str, float], kind: str) -> dict:
    """The result line: every ``kind`` metric of BENCHMARK.json, in its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    failed = sum(call.failure is not None for call in calls)
    return {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        print(
            "perfbench: no repro package under src/; run from the root of a "
            "repository checkout",
            file=sys.stderr,
        )
        return 2
    from perfbench.workloads import WORKLOAD_NAMES, make_workload

    if args.workload not in WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench-out"
    scratch = out / f"{args.workload}-{os.getpid()}"
    workload = make_workload(args.workload, scratch)
    import_s = time.perf_counter() - _STARTED
    try:
        if args.trace:
            payload = _traced(workload, args, out)
        else:
            payload = _timed(workload, args, import_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
