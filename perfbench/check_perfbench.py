"""Self-test of the benchmark: wrapper liveness and traced/untraced parity.

    python3 -m pytest perfbench/check_perfbench.py -q

(The file name keeps it out of the repository's default test run: each
workload below runs twice, about two minutes in all.)

Every per-layer wrapper must record calls on the workload its metrics
are read from, and a traced run must pass the same correctness checks
as an untraced one.
"""

from __future__ import annotations

import argparse
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_program()

from tracing import LIVE_ON, Tracer  # noqa: E402

#: Short windows: table7 and fuzz still complete one whole pass.
SECONDS = {"table7": 1.0, "fuzz": 1.0, "serve": 3.0}


def _args(workload: str) -> argparse.Namespace:
    return argparse.Namespace(
        workload=workload, seed=7, seconds=SECONDS[workload], input_seed=1909
    )


@pytest.fixture(scope="module", params=sorted(SECONDS))
def runs(request):
    workload = request.param
    untraced = run._run_workload(_args(workload))
    tracer = Tracer()
    tracer.install()
    try:
        traced = run._run_workload(_args(workload), tracer)
    finally:
        tracer.uninstall()
    return workload, untraced, traced, tracer.layer_totals()


def test_every_wrapper_records_calls_on_its_workload(runs):
    workload, _, _, totals = runs
    for layer, workloads in LIVE_ON.items():
        if workload in workloads:
            assert totals.get(layer, {}).get("calls", 0) > 0, (layer, workload)


def test_traced_and_untraced_runs_pass_the_same_checks(runs):
    _, untraced, traced, _ = runs
    assert untraced.attempted > 0 and traced.attempted > 0
    assert untraced.problems == [] and traced.problems == []
    assert untraced.failed == traced.failed == 0


def test_wrappers_replace_import_bound_copies_and_come_off():
    import repro.automata.ops as ops
    import repro.solver.core as core

    original = core.dfa_for
    tracer = Tracer()
    tracer.install()
    try:
        assert core.dfa_for is ops.dfa_for
        assert getattr(core.dfa_for, "__wrapped_by_perfbench__", False)
    finally:
        tracer.uninstall()
    assert core.dfa_for is original is ops.dfa_for
