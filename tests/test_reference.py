"""Reference profile tests."""

import dataclasses

import numpy as np
import pytest

from platoonsim.errors import ConfigurationError
from platoonsim.presets import paper_s5, paper_s5_profile
from platoonsim.reference import ReferencePhase, ReferenceProfile
from platoonsim.simulator import require_feasible


class TestEvaluate:
    def test_uniform_velocity_phase(self):
        prof = ReferenceProfile(x0=100.0, v0=20.0, w0=0.0,
                                phases=(ReferencePhase(50.0, 0.0),), v_max=30.0)
        for t in (0.0, 12.5, 50.0):
            x, v, w, u = prof.evaluate(t)
            assert v == 20.0 and w == 0.0 and u == 0.0
            assert x == pytest.approx(100.0 + 20.0 * t, rel=1e-15)

    def test_constant_jerk_phase(self):
        prof = ReferenceProfile(x0=0.0, v0=5.0, w0=0.0,
                                phases=(ReferencePhase(10.0, 0.01),), v_max=10.0)
        x, v, w, u = prof.evaluate(10.0)
        assert w == pytest.approx(0.1, rel=1e-15)
        assert v == pytest.approx(5.5, rel=1e-15)
        # cubic term beyond the v0*t contribution: u*t^3/6
        assert x - 5.0 * 10.0 == pytest.approx(0.01 * 1000.0 / 6.0, rel=1e-12)
        assert u == 0.01

    def test_default_profile_peaks_exactly_at_ceiling(self):
        prof = paper_s5_profile()
        assert prof.horizon == 2400.0
        ts = np.linspace(0.0, 2400.0, 4801)
        vs = np.array([prof.evaluate(t)[1] for t in ts])
        assert vs.max() == 92.0          # exact on the cruise plateau
        assert prof.evaluate(800.0)[1] == 92.0
        assert prof.evaluate(2400.0)[1] == pytest.approx(20.0, rel=1e-12)
        assert vs.min() >= 20.0 - 1e-12

    def test_beyond_horizon_raises(self):
        prof = ReferenceProfile(x0=0.0, v0=1.0, w0=0.0,
                                phases=(ReferencePhase(10.0, 0.0),), v_max=5.0)
        with pytest.raises(ValueError):
            prof.evaluate(10.5)
        with pytest.raises(ValueError):
            prof.evaluate(-0.5)


class TestDifferentialConsistency:
    def test_numerical_derivatives_recover_profile(self):
        prof = paper_s5_profile()
        h = 1e-4
        rng = np.random.default_rng(2)
        # keep clear of phase boundaries
        starts = np.cumsum([0.0] + [p.duration for p in prof.phases])
        for t in rng.uniform(1.0, 2399.0, size=40):
            if np.min(np.abs(starts - t)) < 10 * h:
                continue
            x_hi, v_hi, w_hi, _ = prof.evaluate(t + h)
            x_lo, v_lo, w_lo, _ = prof.evaluate(t - h)
            x, v, w, u = prof.evaluate(t)
            assert (x_hi - x_lo) / (2 * h) == pytest.approx(v, rel=1e-6, abs=1e-9)
            assert (v_hi - v_lo) / (2 * h) == pytest.approx(w, rel=1e-6, abs=1e-9)
            assert (w_hi - w_lo) / (2 * h) == pytest.approx(u, rel=1e-6, abs=1e-9)

    def test_continuity_at_phase_boundaries(self):
        prof = paper_s5_profile()
        t_edge = 256.0
        lo = prof.evaluate(t_edge - 1e-12)
        hi = prof.evaluate(t_edge + 1e-12)
        for a, b in zip(lo[:3], hi[:3]):  # x, v, w continuous; u may jump
            assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


class TestEnvelopeValidation:
    def test_velocity_ceiling_enforced(self):
        with pytest.raises(ConfigurationError):
            ReferenceProfile(x0=0.0, v0=20.0, w0=0.5,
                             phases=(ReferencePhase(200.0, 0.0),), v_max=92.0)

    def test_negative_velocity_caught_at_interior_extremum(self):
        # velocity dips below zero mid-phase, then recovers
        with pytest.raises(ConfigurationError):
            ReferenceProfile(x0=0.0, v0=1.0, w0=-0.5,
                             phases=(ReferencePhase(10.0, 0.1),), v_max=92.0)

    def test_empty_or_degenerate_phase_rejected(self):
        with pytest.raises(ConfigurationError):
            ReferenceProfile(x0=0.0, v0=1.0, w0=0.0, phases=(), v_max=5.0)
        # a phase's duration is checked with the scenario's other fields
        profile = ReferenceProfile(x0=0.0, v0=1.0, w0=0.0, phases=(ReferencePhase(0.0, 0.1),),
                                   v_max=5.0)
        with pytest.raises(ConfigurationError) as info:
            require_feasible(dataclasses.replace(paper_s5(), profile=profile))
        assert [v.name for v in info.value.violations] == ["reference.phases[0].duration_s"]
