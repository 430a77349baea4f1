"""Parameter records of the longitudinal multi-carriage train model.

Each train is a chain of mass points connected by spring-damper couplers,
with quadratic (Davis) running resistance and a first-order traction
actuator that is subject to faults.  The model has two state
representations of the same physics:

* the *plant* form, whose states are position, velocity and traction force,
  with the actuator driven by a designed force rate; and
* the *composite* third-order form, whose states are position, velocity and
  acceleration, obtained by taking the acceleration as a state and absorbing
  the actuator dynamics through a preliminary force-rate feedforward.

This module holds the parameter records and the consist topology.
:mod:`platoonsim.simulator` assembles both forms for the whole network at
once; the per-carriage formulas they come from are kept in the test suite
(``tests/oracle.py``) as its reference.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import ConfigurationError
from .faults import FaultModel


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DavisCoefficients:
    """Specific running resistance R(v) = c0 + c1*v + c2*v**2 (N/kg)."""

    c0: float  # N/kg
    c1: float  # N*s/(m*kg)
    c2: float  # N*s^2/(m^2*kg)

    def resistance(self, v):
        """R(v) at ``v`` (a float or an array of velocities), N/kg."""
        return self.c0 + self.c1 * v + self.c2 * v * v


@dataclass(frozen=True)
class CouplerParams:
    """Spring-damper coupler between adjacent carriages."""

    stiffness: float  # a, N/m
    damping: float    # b, N*s/m
    spacing: float    # d_p, nominal inter-carriage spacing incl. carriage length, m


@dataclass(frozen=True)
class CarriageParams:
    """Per-carriage physical parameters.

    ``fault`` describes the actuator fault generator of this carriage; its
    gains also define the fault input row (in N/s per unit fault amplitude)
    that scales the fault state into the actuator equation.
    """

    mass: float           # kg
    actuator_rate: float  # r, 1/s
    fault: FaultModel


@dataclass(frozen=True)
class ConsistTopology:
    """Number of trains and carriages per train.

    Every train needs at least two carriages: the head and tail coupler
    branches are distinct formulas, and the head control law references the
    estimated acceleration of carriage 2.
    """

    carriages_per_train: tuple

    def __post_init__(self):
        if len(self.carriages_per_train) < 1:
            raise ConfigurationError("at least one train is required")
        for i, m in enumerate(self.carriages_per_train, start=1):
            if not (isinstance(m, numbers.Integral) and m >= 2):
                raise ConfigurationError(
                    f"train {i} has {m} carriages; every train needs an integer count >= 2")

    @property
    def train_count(self):
        return len(self.carriages_per_train)

    @property
    def total_carriages(self):
        return sum(self.carriages_per_train)

    def head_indices(self):
        """Chain-order index of every train's head carriage, 0-based."""
        heads, start = [], 0
        for m in self.carriages_per_train:
            heads.append(start)
            start += m
        return heads

    def carriage_ids(self):
        """All (train, carriage) labels, 1-based, in chain order."""
        for i, m in enumerate(self.carriages_per_train, start=1):
            for j in range(1, m + 1):
                yield (i, j)
