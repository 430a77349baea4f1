"""The package names that the benchmark patches must keep resolving.

``perfbench/workloads.py`` times and counts the layers by patching
``(owner, attribute)`` pairs of the package.  A name it patches that the
package no longer has breaks the traced benchmark run; this test fails
first.  The module is loaded from its file as it stands.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_patched_name_resolves(workloads):
    owners = [(owner, attr) for owner, attr, _ in workloads.BOUNDARIES]
    owners += [(workloads.simulator, "rk4_step"), (workloads.autodiff.Dual, "__init__")]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in owners
               if not callable(getattr(owner, attr, None))]
    assert missing == []
