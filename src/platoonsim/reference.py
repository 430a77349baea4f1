"""Desired cruise profile: a continuous piecewise-constant-jerk trajectory.

The profile acts as a virtual lead train: position, velocity and
acceleration are continuous, the jerk is piecewise constant, so the head
controller of the first train always sees a bounded, well-defined input.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import ConfigurationError

_V_TOL = 1e-9  # slack on the velocity envelope checks, absorbs float rounding


@dataclass(frozen=True)
class ReferencePhase:
    """One constant-jerk segment."""

    duration: float  # s
    jerk: float      # m/s^3


@dataclass(frozen=True)
class ReferenceProfile:
    """Piecewise-cubic position profile assembled from constant-jerk phases.

    Velocity is validated at construction to stay inside [0, v_max] over the
    whole horizon, using the closed-form per-phase extrema of the quadratic
    velocity segments.
    """

    x0: float
    v0: float
    w0: float
    phases: tuple
    v_max: float

    def __post_init__(self):
        if not self.phases:
            raise ConfigurationError("profile needs at least one phase")
        starts = [0.0]
        xs, vs, ws = [self.x0], [self.v0], [self.w0]
        for ph in self.phases:
            t, x, v, w, u = ph.duration, xs[-1], vs[-1], ws[-1], ph.jerk
            self._check_velocity_span(v, w, u, t)
            try:
                xs.append(x + v * t + 0.5 * w * t * t + u * t ** 3 / 6.0)
            except OverflowError:    # a float power overflows by raising
                raise ConfigurationError(f"profile position overflows in a {t} s phase") from None
            vs.append(v + w * t + 0.5 * u * t * t)
            ws.append(w + u * t)
            starts.append(starts[-1] + t)
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_knots", tuple(zip(xs, vs, ws)))

    def _check_velocity_span(self, v, w, u, t):
        candidates = [v, v + w * t + 0.5 * u * t * t]
        if u != 0.0:
            s = -w / u
            if 0.0 < s < t:
                candidates.append(v + w * s + 0.5 * u * s * s)
        lo, hi = min(candidates), max(candidates)
        if lo < -_V_TOL or hi > self.v_max + _V_TOL:
            raise ConfigurationError(
                f"profile velocity leaves [0, {self.v_max}]: span [{lo}, {hi}]")

    @property
    def horizon(self):
        return self._starts[-1]

    def evaluate(self, t):
        """Reference (x0, v0, w0, u0) at time ``t`` in [0, horizon]."""
        horizon = self._starts[-1]
        if t < -_V_TOL or t > horizon * (1.0 + 1e-12) + _V_TOL:
            raise ValueError(f"time {t} outside profile horizon [0, {horizon}]")
        t = min(max(t, 0.0), horizon)
        idx = bisect.bisect_right(self._starts, t) - 1
        if idx >= len(self.phases):  # t == horizon lands past the last knot
            idx = len(self.phases) - 1
        s = t - self._starts[idx]
        x, v, w = self._knots[idx]
        u = self.phases[idx].jerk
        return (x + v * s + 0.5 * w * s * s + u * s ** 3 / 6.0,
                v + w * s + 0.5 * u * s * s,
                w + u * s,
                u)
