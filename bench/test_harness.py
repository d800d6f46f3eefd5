"""Self-test of the benchmark harness, on the Hayes operation alone.

Run with ``python -m pytest bench/test_harness.py -q`` from the repository
root.  It takes a few seconds.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from delaytrack import charfun, manifest, oracle, spectral, track  # noqa: E402

MODULES = {"charfun": charfun, "manifest": manifest, "oracle": oracle,
           "spectral": spectral, "track": track}


@pytest.fixture(scope="module")
def hayes():
    case = workloads.build("small_sweeps", ROOT).cases[0]
    assert case.name == "hayes"
    return case


@pytest.fixture(scope="module")
def traced_hayes(hayes):
    tracer = tracing.Tracer()
    results = workloads.run_pass(
        [hayes], memo={},
        around=lambda i, case: tracer.installed(MODULES, [case.family]),
    )
    return tracer, results[0]


def test_hayes_passes_the_gate(traced_hayes):
    _, (out, failures) = traced_hayes
    assert failures == []
    assert abs(out.crossings[0][0] - math.pi / 2) < workloads.PASS_TOL


def test_newton_iterations_are_nested_p_evaluations(traced_hayes):
    tracer, (out, _) = traced_hayes
    metrics = tracer.layer_metrics(steps=out.steps,
                                   crossings=len(out.crossings))
    spans = tracer.spans
    nested = sum(
        1 for s in spans
        if s[tracing.NAME] == "charfun.eval_P" and s[tracing.PARENT] >= 0
        and spans[s[tracing.PARENT]][tracing.NAME] == "spectral.refine_newton"
    )
    assert nested > 0
    assert metrics["spectral.refine_newton.iters"] == nested
    assert metrics["track.steps"] == 1000


def test_no_sparse_factorization_at_r1(traced_hayes):
    tracer, _ = traced_hayes
    metrics = tracer.layer_metrics()
    assert metrics["track.splu.calls"] == 0
    assert metrics["spectral.splu.calls"] == 0
    assert metrics["track.track_run.calls"] == 1


def test_wrappers_are_removed_after_the_block(hayes):
    before = (track.track_run, charfun.eval_P, vars(hayes.family).copy())
    tracer = tracing.Tracer()
    with tracer.installed(MODULES, [hayes.family]):
        assert track.track_run is not before[0]
    assert (track.track_run, charfun.eval_P, vars(hayes.family)) == before


def test_missing_name_is_skipped_not_fatal(hayes):
    class Stub:
        pass

    modules = dict(MODULES, charfun=Stub())
    tracer = tracing.Tracer()
    with tracer.installed(modules):
        pass
    assert "charfun.eval_P" in tracer.skipped


def test_wrong_tolerance_counts_as_failed_operation(hayes, monkeypatch):
    monkeypatch.setattr(workloads, "PASS_TOL", 0.0)
    passes = [workloads.run_pass([hayes], memo={})]
    attempted, failed, failures = workloads.tally([hayes], passes)
    assert (attempted, failed) == (1, 1)
    assert any("from the truth" in why for _, why in failures)
