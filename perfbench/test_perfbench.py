"""Tests of the benchmark's own code: ``python -m pytest perfbench``."""

import dataclasses

import numpy as np
import pytest

from perfbench import spans
from perfbench.workloads import (
    CALLS,
    EPSILON,
    WORKLOAD_NAMES,
    leaf,
    make_workload,
)


def _noop() -> None:
    pass


@pytest.fixture(params=WORKLOAD_NAMES)
def workload(request, tmp_path):
    return make_workload(request.param, tmp_path, small=True)


def _call(workload, inputs, key=0):
    result = workload.call(inputs, leaf(7, CALLS, key), _noop)
    workload.settle(result)
    return result


def test_installed_restores_the_originals():
    originals = [(owner, name, vars(owner)[name]) for owner, name, *_ in spans.targets()]
    with pytest.raises(RuntimeError), spans.installed(spans.Tracer()):
        for owner, name, original in originals:
            assert vars(owner)[name] is not original
        raise RuntimeError("leave the block by an error")
    for owner, name, original in originals:
        assert vars(owner)[name] is original


def test_traced_run_is_bit_identical_and_accounted(workload):
    inputs = workload.generate(7)
    plain = _call(workload, inputs)
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.root("call"):
        traced = _call(workload, inputs)
    assert workload.check(plain) is None
    assert workload.check(traced) is None
    assert workload.output(plain).tobytes() == workload.output(traced).tobytes()

    metrics = spans.layer_metrics(tracer, calls=1)
    self_times = sum(metrics[f"self.{module}_s"] for module in spans.MODULES)
    assert self_times == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["self.residual_s"] < metrics["trace.wall_s"]


def test_coroutine_steps_nest_their_callees():
    workload = make_workload("service-population", None, small=True)
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.root("call"):
        _call(workload, workload.generate(7))
    names = [span[0] for span in tracer.spans]
    folds = [span for span in tracer.spans if span[0] == "server.fold"]
    assert folds and names.count("service.submit") >= len(folds)
    assert {names[span[3]] for span in folds} == {"service.close_period"}
    assert all(start <= end for _, start, end, _ in tracer.spans)


def test_inputs_and_outputs_follow_the_seed(workload):
    first, again = workload.generate(7), workload.generate(7)
    if isinstance(first, np.ndarray):
        assert np.array_equal(first, again)
        assert not np.array_equal(first, workload.generate(8))
    output = workload.output(_call(workload, first))
    assert output.tobytes() == workload.output(_call(workload, again)).tobytes()
    if workload.name != "privacy-audit":  # the audit has no randomness
        assert output.tobytes() != workload.output(_call(workload, first, 1)).tobytes()


@pytest.mark.parametrize("name", ["service-population", "batch-d1024", "service-durable"])
def test_checks_reject_a_violated_radius(name, tmp_path):
    workload = make_workload(name, tmp_path, small=True)
    result = _call(workload, workload.generate(7))
    assert workload.check(result) is None
    shifted = result.estimates.copy()
    shifted[-1] += 1e9  # far beyond the radius at this size
    assert workload.check(dataclasses.replace(result, estimates=shifted))


def test_audit_check_rejects_a_broken_certificate():
    workload = make_workload("privacy-audit", None, small=True)
    certificates = _call(workload, workload.generate(7))
    assert workload.check(certificates) is None
    over = certificates.copy()
    over[0, 3] = EPSILON + 1e-9
    assert "exceeds epsilon" in workload.check(over)
    under = certificates.copy()
    under[-1, 1] = 0.999
    assert "below 1" in workload.check(under)
