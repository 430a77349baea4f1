"""Actuator fault signals and their generator model.

Faults are a superposition of a windowed constant mode and a windowed
sinusoid.  Both modes are states of a small autonomous linear generator
(constant + rotation pair), which is the structure the observer exploits:
inside each occurrence window the windowed signal (f1 = F_c; f2, f3 =
F_p sin, F_p cos of omega*t + phase) satisfies the generator dynamics
exactly, and the observer carries an internal copy of the generator to
estimate the fault without bias.  The simulator evaluates the signal for
the whole network at once; the tests keep its per-carriage form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class FaultModel:
    """Parameters of one carriage's actuator fault.

    ``upsilon`` and ``nu*omega`` scale the constant and periodic fault states
    into a force rate (N/s per unit amplitude); the amplitudes ``constant_amp``
    and ``periodic_amp`` are dimensionless.  Each mode is active only inside
    its closed occurrence window ``[t_start, t_end]``.
    """

    omega: float          # rad/s, rotation frequency of the periodic mode
    upsilon: float        # N/s per unit, constant-mode input gain
    nu: float             # s/rad, periodic-mode gain (enters as nu*omega)
    constant_amp: float   # F_c
    periodic_amp: float   # F_p
    phase: float          # rad
    window_const: tuple   # (t_start, t_end), s
    window_periodic: tuple

    def __post_init__(self):
        for name, (t0, t1) in (("window_const", self.window_const),
                               ("window_periodic", self.window_periodic)):
            if t0 > t1:
                raise ConfigurationError(f"{name} has t_start > t_end")


def exosystem_matrix(omega):
    """3x3 generator matrix: zero row for the constant mode, rotation block at ``omega``."""
    return np.array([[0.0, 0.0, 0.0],
                     [0.0, 0.0, omega],
                     [0.0, -omega, 0.0]])


def snap_windows(model, step):
    """Copy of ``model`` with window endpoints snapped to the integration grid.

    Keeps mode switches exactly on step boundaries so fixed-step runs are
    reproducible across step sizes that divide the original endpoints.
    """
    def snap(w):
        return (round(w[0] / step) * step, round(w[1] / step) * step)

    return FaultModel(
        omega=model.omega, upsilon=model.upsilon, nu=model.nu,
        constant_amp=model.constant_amp, periodic_amp=model.periodic_amp,
        phase=model.phase,
        window_const=snap(model.window_const),
        window_periodic=snap(model.window_periodic),
    )


def transition_times(model, horizon):
    """Sorted unique window edges inside (0, horizon): the fault's switching instants."""
    edges = set()
    for t0, t1 in (model.window_const, model.window_periodic):
        for edge in (t0, t1):
            if 0.0 < edge < horizon:
                edges.add(edge)
    return sorted(edges)
