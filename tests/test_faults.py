"""Fault generator and windowed fault-signal tests."""

import math

import numpy as np
import pytest

from oracle import effective_fault, fault_value
from platoonsim.faults import (FaultModel, exosystem_matrix, snap_windows,
                               transition_times)

MODEL_11 = FaultModel(omega=1.0, upsilon=2.0e5, nu=2.0e5, constant_amp=1.0,
                      periodic_amp=1.0, phase=2.0,  # 6*(i-1) + 2*j at (1,1)
                      window_const=(400.0, 1400.0),
                      window_periodic=(500.0, 2300.0))


class TestExosystemMatrix:
    def test_zero_frequency(self):
        assert np.array_equal(exosystem_matrix(0.0), np.zeros((3, 3)))

    def test_unit_frequency_structure(self):
        s = exosystem_matrix(1.0)
        expected = np.zeros((3, 3))
        expected[1, 2] = 1.0
        expected[2, 1] = -1.0
        assert np.array_equal(s, expected)

    def test_eigenvalues_are_zero_and_rotation_pair(self):
        eig = np.sort_complex(np.linalg.eigvals(exosystem_matrix(1.0)))
        assert eig == pytest.approx([-1j, 0.0, 1j])


class TestFaultValue:
    def test_zero_outside_all_windows(self):
        for t in (0.0, 399.99, 2300.01, 2400.0):
            assert np.array_equal(fault_value(t, MODEL_11), np.zeros(3))

    def test_inside_both_windows(self):
        f = fault_value(500.0, MODEL_11)
        assert f[0] == 1.0
        assert f[2] == pytest.approx(math.cos(502.0), rel=1e-15)
        assert f[1] == pytest.approx(math.sin(502.0), rel=1e-15)

    def test_phase_offset_of_rear_head_carriage(self):
        # phase rule 6*(i-1) + 2*j gives 8 at carriage (2,1)
        m21 = FaultModel(omega=1.0, upsilon=2.0e5, nu=2.0e5, constant_amp=1.0,
                         periodic_amp=1.0, phase=8.0,
                         window_const=(1000.0, 1700.0),
                         window_periodic=(1100.0, 2300.0))
        f = fault_value(1200.0, m21)
        assert f[0] == 1.0
        assert f[2] == pytest.approx(math.cos(1208.0), rel=1e-15)

    def test_rotation_invariant_inside_periodic_window(self):
        rng = np.random.default_rng(11)
        for t in rng.uniform(500.0, 2300.0, size=50):
            f = fault_value(t, MODEL_11)
            assert f[1] ** 2 + f[2] ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_satisfies_generator_dynamics_inside_windows(self):
        s = exosystem_matrix(MODEL_11.omega)
        h = 1e-5
        rng = np.random.default_rng(5)
        for t in rng.uniform(501.0, 1399.0, size=25):
            fd = (fault_value(t + h, MODEL_11) - fault_value(t - h, MODEL_11)) / (2 * h)
            expected = s @ fault_value(t, MODEL_11)
            assert fd == pytest.approx(expected, abs=1e-8)

    def test_closed_window_endpoints_are_active(self):
        assert fault_value(400.0, MODEL_11)[0] == 1.0
        assert fault_value(1400.0, MODEL_11)[0] == 1.0
        assert fault_value(1400.0 + 1e-9, MODEL_11)[0] == 0.0


class TestEffectiveFault:
    def test_zero_fault(self):
        ef, cf = effective_fault(0.0, MODEL_11, 8.0e4)
        assert ef == 0.0 and cf == 0.0

    def test_unit_modes(self):
        # f = (1, 0, 1) at t=0 with phase 0 and windows covering 0
        m = FaultModel(omega=1.0, upsilon=2.0e5, nu=2.0e5, constant_amp=1.0,
                       periodic_amp=1.0, phase=0.0,
                       window_const=(0.0, 10.0), window_periodic=(0.0, 10.0))
        ef, cf = effective_fault(0.0, m, 8.0e4)
        assert ef == pytest.approx(4.0e5, rel=1e-14)
        assert cf == pytest.approx(5.0, rel=1e-14)

    def test_linear_in_amplitudes(self):
        m1 = FaultModel(omega=1.0, upsilon=2.0e5, nu=2.0e5, constant_amp=0.4,
                        periodic_amp=0.7, phase=1.3,
                        window_const=(0.0, 10.0), window_periodic=(0.0, 10.0))
        m2 = FaultModel(omega=1.0, upsilon=2.0e5, nu=2.0e5, constant_amp=0.8,
                        periodic_amp=1.4, phase=1.3,
                        window_const=(0.0, 10.0), window_periodic=(0.0, 10.0))
        for t in (0.0, 1.7, 9.2):
            ef1, _ = effective_fault(t, m1, 8.0e4)
            ef2, _ = effective_fault(t, m2, 8.0e4)
            assert ef2 == pytest.approx(2.0 * ef1, rel=1e-12)


class TestWindows:
    def test_snap_to_grid(self):
        m = FaultModel(omega=1.0, upsilon=1.0, nu=1.0, constant_amp=1.0,
                       periodic_amp=1.0, phase=0.0,
                       window_const=(400.004, 1399.996),
                       window_periodic=(500.0, 2300.0))
        snapped = snap_windows(m, 0.01)
        assert snapped.window_const == (400.0, 1400.0)
        assert snapped.window_periodic == (500.0, 2300.0)

    def test_transition_times_clip_to_horizon(self):
        assert transition_times(MODEL_11, 2400.0) == [400.0, 500.0, 1400.0, 2300.0]
        assert transition_times(MODEL_11, 1000.0) == [400.0, 500.0]

    def test_inverted_window_rejected(self):
        with pytest.raises(Exception):
            FaultModel(omega=1.0, upsilon=1.0, nu=1.0, constant_amp=1.0,
                       periodic_amp=1.0, phase=0.0,
                       window_const=(10.0, 5.0), window_periodic=(0.0, 1.0))
