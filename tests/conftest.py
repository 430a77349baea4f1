"""Shared fixtures: the benchmark scenario and its two full-horizon runs.

The full runs take a few minutes each, so they are session-scoped and only
materialize when a test actually asks for them.  Every test that asks for
one is marked ``slow``, so ``pytest -m "not slow"`` skips both runs.
"""

import dataclasses

import numpy as np
import pytest

from platoonsim.faults import fault_value
from platoonsim.presets import paper_s5
from platoonsim.simulator import run_scenario


FULL_RUNS = ("s5_noise_free", "s5_noisy")


def pytest_collection_modifyitems(items):
    for item in items:
        if any(name in FULL_RUNS for name in getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def s5_config():
    return paper_s5()


@pytest.fixture(scope="session")
def s5_noise_free(s5_config):
    config = dataclasses.replace(
        s5_config, noise=dataclasses.replace(s5_config.noise, enabled=False))
    record, report = run_scenario(config)
    return config, record, report


@pytest.fixture(scope="session")
def s5_noisy(s5_config):
    record, report = run_scenario(s5_config)
    return s5_config, record, report


def short_scenario(config, duration, *, noise=False, step=None, **changes):
    """Truncated copy of a scenario for cheap closed-loop tests."""
    noise_spec = dataclasses.replace(config.noise, enabled=noise)
    return dataclasses.replace(
        config, duration=duration, noise=noise_spec,
        step=config.step if step is None else step, **changes)


def true_fault_states(engine, t):
    """True fault states (nc, 3) of an engine's carriages at ``t``, carriage by carriage."""
    return np.array([fault_value(t, fault) for fault in engine.snapped_faults])
