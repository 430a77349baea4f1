"""The package names that the benchmark patches, and the outputs it checks.

``perfbench/workloads.py`` times and counts the layers by patching
``(owner, attribute)`` pairs of the package.  A name it patches that the
package no longer has breaks the traced benchmark run; the first test fails
first.  The benchmark also checks every workload's verdicts and final record
row against ``perfbench/expected.json``; the second test runs that check on
each workload's default-seed inputs, so a change that moves them fails here
too.  The last test runs one counting pass of the traced benchmark's
patches, which sees the RK4 stages only while `run_scenario` hands its
``rhs`` to ``simulator.rk4_step``.  The modules are loaded from their files
as they stand.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from load("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.fixture(scope="module")
def tracer():
    yield from load("perfbench_tracer", PERFBENCH / "tracer.py")


def test_every_patched_name_resolves(workloads):
    owners = [(owner, attr) for owner, attr, _ in workloads.BOUNDARIES]
    owners += [(workloads.simulator, "rk4_step"), (workloads.autodiff.Dual, "__init__")]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in owners
               if not callable(getattr(owner, attr, None))]
    assert missing == []


WORKLOAD_NAMES = ("s5-closed-loop", "s5-observer-only", "s5-record-io")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_output_matches_expected(workloads, name):
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)
    record, report = workloads.simulator.run_scenario(workloads.build_config(name, 1))
    snapshot = workloads.snapshot(record, report.verdicts)
    assert workloads.compare_snapshot(snapshot, workloads.load_expected()[name]) == []


def test_counting_pass_sees_every_stage(workloads, tracer, monkeypatch):
    # the traced benchmark wraps the rhs that run_scenario hands to
    # simulator.rk4_step: three stages per step, the driver evaluating k1
    monkeypatch.setattr(workloads, "HORIZON", 0.05)      # five steps
    config = workloads.build_config("s5-observer-only", 1)
    with tracer.Tracer() as counted:
        workloads.instrument(counted, "count")
        workloads.simulator.run_scenario(config)
    assert counted.counts["simulator.rhs"] == 15
    assert counted.counts["simulator.rk4_step"] == 5
