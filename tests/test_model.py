"""Plant/composite model and coefficient-function tests."""

import dataclasses

import numpy as np
import pytest

from oracle import (CompositeState, PlantState, b1_coefficient, coefficient_b,
                    coefficient_d, composite_rhs, coupling_force, davis_resistance,
                    fault_accel_row, global_index, plant_rhs, preliminary_control,
                    traction_force)
from platoonsim.errors import ConfigurationError
from platoonsim.faults import FaultModel
from platoonsim.model import (CarriageParams, ConsistTopology, CouplerParams,
                              DavisCoefficients)
from platoonsim.presets import paper_s5
from platoonsim.simulator import require_feasible

DAVIS = DavisCoefficients(c0=0.01176, c1=0.00077616, c2=1.6e-5)
COUPLER = CouplerParams(stiffness=1.6e5, damping=600.0, spacing=26.0)
FAULT = FaultModel(omega=1.0, upsilon=2.0e5, nu=2.0e5, constant_amp=1.0,
                   periodic_amp=1.0, phase=2.0,
                   window_const=(400.0, 1400.0), window_periodic=(500.0, 2300.0))
CARRIAGE = CarriageParams(mass=8.0e4, actuator_rate=50.0, fault=FAULT)


class TestDavisResistance:
    def test_standstill_is_constant_term(self):
        assert davis_resistance(0.0, DAVIS) == pytest.approx(0.01176, abs=0.0)

    def test_quadratic_at_20(self):
        # 0.01176 + 0.00077616*20 + 1.6e-5*400
        assert davis_resistance(20.0, DAVIS) == pytest.approx(0.0336832, rel=1e-12)

    def test_zero_coefficients(self):
        zero = DavisCoefficients(0.0, 0.0, 0.0)
        assert davis_resistance(123.4, zero) == 0.0

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v1, v2 = sorted(rng.uniform(0.0, 120.0, size=2))
            assert davis_resistance(v1, DAVIS) <= davis_resistance(v2, DAVIS)

    def test_rejects_negative_coefficients(self):
        # the feasibility check holds every field's domain, the record none
        config = dataclasses.replace(paper_s5(), davis=DavisCoefficients(-1.0, 0.0, 0.0))
        with pytest.raises(ConfigurationError) as info:
            require_feasible(config)
        assert [v.name for v in info.value.violations] == ["davis.c0_N_per_kg"]


class TestCouplingForce:
    def test_nominal_configuration_gives_zero_everywhere(self):
        d_p = COUPLER.spacing
        x = [2 * d_p, d_p, 0.0]
        v = [20.0, 20.0, 20.0]
        for j in (1, 2, 3):
            assert coupling_force(j, x, v, COUPLER) == 0.0

    def test_head_stretch_of_one_metre(self):
        d_p = COUPLER.spacing
        x = [d_p + 1.0, 0.0]
        v = [5.0, 5.0]
        assert coupling_force(1, x, v, COUPLER) == pytest.approx(1.6e5, rel=1e-13)

    def test_symmetric_displacement_cancels_on_middle_carriage(self):
        d_p = COUPLER.spacing
        delta = 3.7
        x = [2 * d_p + delta, d_p, -delta]
        v = [0.0, 0.0, 0.0]
        # a*(2*x2 - x1 - x3) with x1, x3 moved symmetrically away
        assert coupling_force(2, x, v, COUPLER) == pytest.approx(0.0, abs=1e-9)

    def test_forces_sum_to_zero_across_any_train(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 5):
            x = np.cumsum(rng.uniform(-50.0, 0.0, size=m)) + 1000.0
            v = rng.uniform(0.0, 40.0, size=m)
            total = sum(coupling_force(j, x, v, COUPLER) for j in range(1, m + 1))
            assert total == pytest.approx(0.0, abs=1e-7)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            coupling_force(0, [0.0, 1.0], [0.0, 0.0], COUPLER)
        with pytest.raises(IndexError):
            coupling_force(3, [0.0, 1.0], [0.0, 0.0], COUPLER)


class TestCoefficientB:
    def test_head_b1_at_rest(self):
        v = [0.0, 0.0, 0.0]
        b = coefficient_b(1, v, CARRIAGE, COUPLER, DAVIS)
        # -b/m - c1 - r = -600/8e4 - 0.00077616 - 50
        assert b.b1 == pytest.approx(-50.00827616, rel=1e-12)

    def test_interior_doubles_damping_share(self):
        v = [10.0, 10.0, 10.0]
        head = coefficient_b(1, v, CARRIAGE, COUPLER, DAVIS)
        mid = coefficient_b(2, v, CARRIAGE, COUPLER, DAVIS)
        assert mid.b1 - head.b1 == pytest.approx(-600.0 / 8e4, rel=1e-12)

    def test_boundary_coefficients_vanish(self):
        v = [1.0, 2.0, 3.0]
        assert coefficient_b(1, v, CARRIAGE, COUPLER, DAVIS).b2 == 0.0
        assert coefficient_b(3, v, CARRIAGE, COUPLER, DAVIS).b3 == 0.0
        assert coefficient_b(2, v, CARRIAGE, COUPLER, DAVIS).b2 == pytest.approx(600.0 / 8e4)
        assert coefficient_b(2, v, CARRIAGE, COUPLER, DAVIS).b3 == pytest.approx(600.0 / 8e4)

    def test_equal_velocities_kill_drift_term(self):
        v = [17.0, 17.0, 17.0]
        for j in (1, 2, 3):
            assert coefficient_b(j, v, CARRIAGE, COUPLER, DAVIS).b4 == 0.0

    def test_drift_term_interior(self):
        v = [21.0, 20.0, 18.0]
        b4 = coefficient_b(2, v, CARRIAGE, COUPLER, DAVIS).b4
        # -a*(2*20 - 21 - 18)/m
        assert b4 == pytest.approx(-1.6e5 * 1.0 / 8e4, rel=1e-12)


class TestCoefficientD:
    def test_zero_velocity_gives_zeros(self):
        for j in (1, 2, 3):
            d = coefficient_d(j, 0.0, 3, CARRIAGE, COUPLER, DAVIS)
            assert d == (0.0, 0.0, 0.0)

    def test_boundary_zeros(self):
        assert coefficient_d(1, 9.0, 3, CARRIAGE, COUPLER, DAVIS).d2 == 0.0
        assert coefficient_d(3, 9.0, 3, CARRIAGE, COUPLER, DAVIS).d3 == 0.0

    def test_interior_value_at_10(self):
        d1 = coefficient_d(2, 10.0, 3, CARRIAGE, COUPLER, DAVIS).d1
        # -(2*600/8e4)*10 - (0.00077616*10 + 1.6e-5*100) - 50*10
        assert d1 == pytest.approx(-500.1593616, rel=1e-12)

    def test_d1_is_antiderivative_of_b1(self):
        # central difference of the quadratic d1 is exact: must equal b1
        h = 1e-3
        for j, v in ((1, 0.0), (2, 10.0), (3, 37.5)):
            d_hi = coefficient_d(j, v + h, 3, CARRIAGE, COUPLER, DAVIS).d1
            d_lo = coefficient_d(j, v - h, 3, CARRIAGE, COUPLER, DAVIS).d1
            b1 = b1_coefficient(v, j, 3, CARRIAGE, COUPLER, DAVIS)
            assert (d_hi - d_lo) / (2 * h) == pytest.approx(b1, rel=1e-9)

    def test_neighbour_potentials_match_damping_share(self):
        d = coefficient_d(2, 4.0, 3, CARRIAGE, COUPLER, DAVIS)
        assert d.d2 == pytest.approx(600.0 / 8e4 * 4.0, rel=1e-12)
        assert d.d3 == pytest.approx(600.0 / 8e4 * 4.0, rel=1e-12)


class TestPlantRhs:
    def test_force_balance_freezes_velocity(self):
        x = [52.0, 26.0, 0.0]
        v = [20.0, 21.0, 19.0]
        j = 2
        coupling = coupling_force(j, x, v, COUPLER)
        tau = coupling + CARRIAGE.mass * davis_resistance(v[1], DAVIS)
        state = PlantState(x=x[1], v=v[1], tau=tau, f=np.zeros(3))
        d = plant_rhs(state, j, x, v, 0.0, CARRIAGE, COUPLER, DAVIS)
        assert d.v == pytest.approx(0.0, abs=1e-15)
        assert d.x == v[1]

    def test_actuator_equilibrium(self):
        x = [26.0, 0.0]
        v = [20.0, 20.0]
        state = PlantState(x=26.0, v=20.0, tau=5000.0, f=np.zeros(3))
        varpi = CARRIAGE.actuator_rate * state.tau
        d = plant_rhs(state, 1, x, v, varpi, CARRIAGE, COUPLER, DAVIS)
        assert d.tau == pytest.approx(0.0, abs=1e-9)

    def test_pinned_regression_full_state(self):
        # independent flat-formula evaluation of one interior carriage
        x = [13062.0, 13035.0, 13010.0]
        v = [20.5, 20.2, 20.3]
        tau, f = 4321.0, np.array([1.0, 0.25, -0.5])
        state = PlantState(x=x[1], v=v[1], tau=tau, f=f)
        d = plant_rhs(state, 2, x, v, 0.0, CARRIAGE, COUPLER, DAVIS)
        a, b, m, r = 1.6e5, 600.0, 8.0e4, 50.0
        coupling = a * (2 * x[1] - x[0] - x[2]) + b * (2 * v[1] - v[0] - v[2])
        resist = 0.01176 + 0.00077616 * v[1] + 1.6e-5 * v[1] ** 2
        assert d.x == pytest.approx(20.2)
        assert d.v == pytest.approx((tau - coupling - m * resist) / m, rel=1e-14)
        assert d.tau == pytest.approx(-r * tau + (2e5 * 1.0 + 2e5 * 1.0 * (-0.5)), rel=1e-14)
        assert d.f == pytest.approx([0.0, f[2], -f[1]])


class TestPreliminaryControl:
    def test_rest_resistance_only(self):
        d_p = COUPLER.spacing
        x = [2 * d_p, d_p, 0.0]
        v = [0.0, 0.0, 0.0]
        varpi = preliminary_control(0.0, 2, x, v, CARRIAGE, COUPLER, DAVIS)
        # m*r*c0 = 8e4 * 50 * 0.01176
        assert varpi == pytest.approx(47040.0, rel=1e-12)

    def test_linear_in_new_input(self):
        x = [60.0, 26.0, 0.0]
        v = [20.0, 19.0, 21.0]
        base = preliminary_control(0.0, 1, x, v, CARRIAGE, COUPLER, DAVIS)
        bumped = preliminary_control(1.0, 1, x, v, CARRIAGE, COUPLER, DAVIS)
        assert bumped - base == pytest.approx(CARRIAGE.mass, rel=1e-12)

    def test_rest_with_unit_input(self):
        d_p = COUPLER.spacing
        x = [2 * d_p, d_p, 0.0]
        v = [0.0, 0.0, 0.0]
        varpi = preliminary_control(1.0, 2, x, v, CARRIAGE, COUPLER, DAVIS)
        assert varpi == pytest.approx(8.0e4 + 47040.0, rel=1e-12)


class TestCompositeRhs:
    def test_exact_cancellation(self):
        state = CompositeState(x=0.0, v=20.0, w=0.7, f=np.array([1.0, 0.0, 0.5]))
        b = coefficient_b(2, [20.0, 20.0, 20.0], CARRIAGE, COUPLER, DAVIS)
        cf = float(np.dot(fault_accel_row(CARRIAGE), state.f))
        w_prev, w_next = 0.3, -0.2
        u = -(cf + b.b1 * state.w + b.b2 * w_prev + b.b3 * w_next)
        d = composite_rhs(state, 2, 3, w_prev, w_next, u, CARRIAGE, COUPLER, DAVIS)
        assert d.w == pytest.approx(0.0, abs=1e-12)
        assert d.x == state.v
        assert d.v == state.w

    def test_unit_input_from_rest(self):
        state = CompositeState(x=0.0, v=0.0, w=0.0, f=np.zeros(3))
        d = composite_rhs(state, 1, 2, None, 0.0, 1.0, CARRIAGE, COUPLER, DAVIS)
        assert d.w == pytest.approx(1.0, abs=0.0)

    def test_boundary_neighbours_are_ignored(self):
        state = CompositeState(x=0.0, v=10.0, w=0.1, f=np.zeros(3))
        d_head = composite_rhs(state, 1, 3, None, 0.5, 0.0, CARRIAGE, COUPLER, DAVIS)
        d_tail = composite_rhs(state, 3, 3, 0.5, None, 0.0, CARRIAGE, COUPLER, DAVIS)
        b_over_m = 600.0 / 8e4
        b1 = b1_coefficient(10.0, 1, 3, CARRIAGE, COUPLER, DAVIS)
        assert d_head.w == pytest.approx(b1 * 0.1 + b_over_m * 0.5, rel=1e-12)
        assert d_tail.w == d_head.w  # same formula mirrored


class TestTractionForce:
    def test_round_trip_with_plant_acceleration(self):
        x = [60.0, 26.0, 0.0]
        v = [20.0, 19.5, 21.0]
        w = 0.37
        tau = traction_force(x, v, w, 2, CARRIAGE, COUPLER, DAVIS)
        state = PlantState(x=x[1], v=v[1], tau=tau, f=np.zeros(3))
        d = plant_rhs(state, 2, x, v, 0.0, CARRIAGE, COUPLER, DAVIS)
        assert d.v == pytest.approx(w, rel=1e-12)


class TestTopology:
    def test_indexing(self):
        topo = ConsistTopology(carriages_per_train=(3, 2))
        assert topo.train_count == 2
        assert topo.total_carriages == 5
        assert list(topo.carriage_ids()) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
        assert global_index(topo, 2, 1) == 3
        with pytest.raises(IndexError):
            global_index(topo, 1, 4)

    def test_single_carriage_train_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsistTopology(carriages_per_train=(3, 1))
        with pytest.raises(ConfigurationError):
            ConsistTopology(carriages_per_train=())
