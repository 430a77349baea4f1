"""Observer construction, gain synthesis and error-dynamics tests."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from oracle import (AuxiliaryInputs, CompositeState, ObserverState,
                    auxiliary_inputs, auxiliary_mu2, composite_rhs,
                    linear_error_oracle, observer_rhs)
from platoonsim.errors import PlacementError
from platoonsim.faults import FaultModel, exosystem_matrix
from platoonsim.model import CarriageParams, CouplerParams, DavisCoefficients
from platoonsim.observer import (build_augmented_pair, characteristic_coefficients,
                                 check_observability, closed_loop_matrix,
                                 synthesize_gains)
from platoonsim.presets import paper_s5
from platoonsim.simulator import observer_gains, run_scenario, validate_config

DAVIS = DavisCoefficients(c0=0.01176, c1=0.00077616, c2=1.6e-5)
COUPLER = CouplerParams(stiffness=1.6e5, damping=600.0, spacing=26.0)
FAULT = FaultModel(omega=1.0, upsilon=2.0e5, nu=2.0e5, constant_amp=1.0,
                   periodic_amp=1.0, phase=2.0,
                   window_const=(400.0, 1400.0), window_periodic=(500.0, 2300.0))
CARRIAGE = CarriageParams(mass=8.0e4, actuator_rate=50.0, fault=FAULT)

C_ROW = np.array([2.5, 0.0, 2.5])  # fault-to-jerk row for the benchmark carriage
S_UNIT = exosystem_matrix(1.0)


def benchmark_pair():
    return build_augmented_pair(C_ROW, S_UNIT)


class TestAugmentedPair:
    def test_degenerate_blocks(self):
        a, c = build_augmented_pair(np.zeros(3), np.zeros((3, 3)))
        expected = np.zeros((5, 5))
        expected[0, 1] = 1.0
        assert np.array_equal(a, expected)
        assert np.array_equal(c, [[1.0, 0.0, 0.0, 0.0, 0.0]])

    def test_benchmark_blocks(self):
        a, c = benchmark_pair()
        assert np.array_equal(a[1, 2:], C_ROW)
        assert np.array_equal(a[2:, 2:], S_UNIT)
        assert a[0, 1] == 1.0
        assert np.count_nonzero(a) == 5

    def test_benchmark_pair_is_observable(self):
        a, c = benchmark_pair()
        assert check_observability(a, c)


class TestObservability:
    def test_decoupled_fault_is_unobservable(self):
        a, c = build_augmented_pair(np.zeros(3), S_UNIT)
        assert not check_observability(a, c)

    def test_frozen_rotation_pair_is_unobservable(self):
        # constant mode reaches the output but the rotation pair cannot
        a, c = build_augmented_pair(np.array([2.5, 0.0, 0.0]), exosystem_matrix(0.0))
        assert not check_observability(a, c)

    @staticmethod
    def weakly_coupled_pair(eps):
        """A chain of integrators whose third link has weight ``eps``.

        Its observability matrix is diag(1, 1, eps, eps, eps): the 2-norm
        condition number is 1 / eps, the Frobenius one
        sqrt((2 + 3 eps**2) (2 + 3 / eps**2)), about sqrt(6) / eps.
        """
        a = np.zeros((5, 5))
        a[0, 1], a[1, 2], a[2, 3], a[3, 4] = 1.0, eps, 1.0, 1.0
        c = np.zeros((1, 5))
        c[0, 0] = 1.0
        return a, c

    def test_near_singular_pair_inside_the_threshold(self):
        # cond_F = 8.2e7 < 1e8
        assert check_observability(*self.weakly_coupled_pair(3e-8))

    def test_near_singular_pair_past_the_threshold(self):
        # cond_F = 1.2e8 > 1e8, though cond_2 = 5e7: the Frobenius test is
        # up to n = 5 times stricter than the singular-value one
        assert not check_observability(*self.weakly_coupled_pair(2e-8))


class TestPlacementWithoutEigensolvers:
    """Gain placement, the feasibility gate and a short run call no SVD or eigenvalue solver.

    numpy pages each of those LAPACK routines in on its first call, up to
    about 1 MB of resident memory apiece; placement needs only the LU solver.
    Every numpy module that holds ``svd``, ``eig`` or ``eigvals`` (``np.poly``
    and ``np.linalg.cond`` call their own references) gets one that raises.
    """

    @pytest.fixture
    def no_eigensolvers(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an SVD or eigenvalue solver was called")

        originals = {name: getattr(np.linalg, name) for name in ("svd", "eig", "eigvals")}
        numpy_modules = [module for name, module in list(sys.modules.items())
                         if name.split(".")[0] == "numpy" and module is not None]
        for module in numpy_modules:
            for name, original in originals.items():
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, forbidden)

    def test_gains_gate_and_run(self, no_eigensolvers):
        config = paper_s5()
        [(members, gains)] = observer_gains(config)
        assert members == list(range(9)) and gains.k1 == 3.0
        assert validate_config(config) == []
        short = dataclasses.replace(config, duration=0.05, representation="both",
                                    noise=dataclasses.replace(config.noise, enabled=False))
        _, report = run_scenario(short)
        assert report.verdicts["R2_hard"]


class TestGainSynthesis:
    def test_matches_symbolic_coefficient_matching(self):
        import sympy as sp

        a, c = benchmark_pair()
        gains = synthesize_gains(a, c, [-3.0] * 5, k1=3.0)
        k2, k3, k41, k42, k43 = sp.symbols("k2 k3 k41 k42 k43")
        lam = sp.symbols("lam")
        m = sp.Matrix(a) + sp.Matrix([k2, k3, k41, k42, k43]) * sp.Matrix([[1, 0, 0, 0, 0]])
        charpoly = (lam * sp.eye(5) - m).det().expand()
        target = sp.expand((lam + 3) ** 5)
        eqs = [sp.Eq(charpoly.coeff(lam, p), target.coeff(lam, p)) for p in range(5)]
        sol = sp.solve(eqs, [k2, k3, k41, k42, k43], dict=True)
        assert len(sol) == 1
        expected = [float(sol[0][s]) for s in (k2, k3, k41, k42, k43)]
        assert gains.k == pytest.approx(expected, rel=1e-9)

    def test_closed_loop_polynomial_matches_target(self):
        a, c = benchmark_pair()
        gains = synthesize_gains(a, c, [-3.0] * 5, k1=3.0)
        coeffs = characteristic_coefficients(closed_loop_matrix(a, c, gains))
        target = np.poly([-3.0] * 5)
        assert coeffs == pytest.approx(target, rel=1e-9)

    def test_distinct_eigenvalues(self):
        a, c = benchmark_pair()
        desired = [-1.0, -2.0, -3.0, -4.0, -5.0]
        gains = synthesize_gains(a, c, desired, k1=2.0)
        eig = np.sort(np.linalg.eigvals(closed_loop_matrix(a, c, gains)).real)
        assert eig == pytest.approx(sorted(desired), abs=1e-8)

    def test_complex_conjugate_targets(self):
        a, c = benchmark_pair()
        desired = [-3.0, -2.0 + 1.0j, -2.0 - 1.0j, -1.0 + 0.5j, -1.0 - 0.5j]
        gains = synthesize_gains(a, c, desired, k1=1.0)
        got = np.sort_complex(np.linalg.eigvals(closed_loop_matrix(a, c, gains)))
        want = np.sort_complex(np.array(desired))
        assert got == pytest.approx(want, abs=1e-7)

    def test_rejects_unobservable_pair(self):
        a, c = build_augmented_pair(np.zeros(3), S_UNIT)
        with pytest.raises(PlacementError):
            synthesize_gains(a, c, [-3.0] * 5)

    def test_rejects_unstable_targets(self):
        a, c = benchmark_pair()
        with pytest.raises(PlacementError):
            synthesize_gains(a, c, [-3.0] * 4 + [0.5])

    def test_rejects_unpaired_complex_targets(self):
        a, c = benchmark_pair()
        with pytest.raises(PlacementError):
            synthesize_gains(a, c, [-3.0] * 4 + [-1.0 + 1.0j])


def make_gains():
    a, c = benchmark_pair()
    return synthesize_gains(a, c, [-3.0] * 5, k1=3.0)


class TestAuxiliaryInputs:
    def test_perfect_estimates_give_zero(self):
        gains = make_gains()
        est = ObserverState(x_hat=100.0, v_hat=20.0, w_hat=0.3, f_hat=np.zeros(3))
        aux = auxiliary_inputs(2, 3, 100.0, 20.0, est, 19.0, 19.0, 21.0, 21.0,
                               0.0, 0.0, gains, CARRIAGE, COUPLER, DAVIS)
        assert aux.mu1 == 0.0 and aux.mu2 == 0.0 and aux.mu3 == 0.0
        assert np.array_equal(aux.mu4, np.zeros(3))

    def test_pure_position_error(self):
        gains = make_gains()
        est = ObserverState(x_hat=101.0, v_hat=20.0, w_hat=0.0, f_hat=np.zeros(3))
        aux = auxiliary_inputs(1, 3, 100.0, 20.0, est, None, None, 20.0, 20.0,
                               None, 0.0, gains, CARRIAGE, COUPLER, DAVIS)
        assert aux.mu1 == pytest.approx(-3.0)
        assert aux.mu2 == 0.0

    def test_pinned_nontrivial_configuration(self):
        gains = make_gains()
        k2, k3 = gains.k2, gains.k3
        v, vh = 20.0, 20.4
        v_prev, vh_prev = 19.0, 19.2
        v_next, vh_next = 21.0, 20.9
        est = ObserverState(x_hat=99.5, v_hat=vh, w_hat=0.25, f_hat=np.array([0.5, 0.0, -0.5]))
        mu2_prev, mu2_next = 0.013, -0.007
        aux = auxiliary_inputs(2, 3, 100.0, v, est, v_prev, vh_prev, v_next, vh_next,
                               mu2_prev, mu2_next, gains, CARRIAGE, COUPLER, DAVIS)
        # flat-formula re-derivation
        b_over_m = 600.0 / 8e4
        bm1 = -2 * b_over_m - 0.00077616 - 50.0
        c2 = 1.6e-5
        d1 = lambda y: bm1 * y - c2 * y * y
        mu2 = (d1(v) - d1(vh) + k2 * (vh - v)
               + b_over_m * (v_prev - vh_prev) + b_over_m * (v_next - vh_next))
        b1 = lambda y: bm1 - 2 * c2 * y
        mu3 = (b1(v) * mu2 + k3 * (vh - v) + (b1(vh) - b1(v)) * (est.w_hat + mu2)
               + b_over_m * mu2_prev + b_over_m * mu2_next)
        assert aux.mu1 == pytest.approx(-gains.k1 * -0.5 + (v - vh), rel=1e-12)
        assert aux.mu2 == pytest.approx(mu2, rel=1e-12)
        assert aux.mu3 == pytest.approx(mu3, rel=1e-12)
        assert aux.mu4 == pytest.approx(gains.k4 * (vh - v), rel=1e-12)

    def test_mu2_helper_matches_full_call(self):
        gains = make_gains()
        est = ObserverState(x_hat=0.0, v_hat=10.5, w_hat=0.0, f_hat=np.zeros(3))
        mu2 = auxiliary_mu2(3, 3, 10.0, 10.5, 9.0, 9.4, None, None,
                            gains, CARRIAGE, COUPLER, DAVIS)
        aux = auxiliary_inputs(3, 3, 0.0, 10.0, est, 9.0, 9.4, None, None,
                               0.0, None, gains, CARRIAGE, COUPLER, DAVIS)
        assert aux.mu2 == mu2


class TestObserverRhs:
    def test_zero_fixed_point(self):
        gains = make_gains()
        est = ObserverState(x_hat=0.0, v_hat=0.0, w_hat=0.0, f_hat=np.zeros(3))
        aux = AuxiliaryInputs(0.0, 0.0, 0.0, np.zeros(3))
        d = observer_rhs(est, aux, 0.0, 0.0, 0.0, 0.0, 2, 3, CARRIAGE, COUPLER, DAVIS)
        assert (d.x_hat, d.v_hat, d.w_hat) == (0.0, 0.0, 0.0)
        assert np.array_equal(d.f_hat, np.zeros(3))

    def test_perfect_estimates_track_composite_dynamics(self):
        gains = make_gains()
        f = np.array([1.0, 0.3, -0.4])
        state = CompositeState(x=50.0, v=20.0, w=0.2, f=f.copy())
        est = ObserverState(x_hat=50.0, v_hat=20.0, w_hat=0.2, f_hat=f.copy())
        aux = AuxiliaryInputs(0.0, 0.0, 0.0, np.zeros(3))
        u = 0.8
        w_prev, w_next = 0.1, 0.35
        d_obs = observer_rhs(est, aux, u, w_prev, w_next, 20.0, 2, 3,
                             CARRIAGE, COUPLER, DAVIS)
        d_true = composite_rhs(state, 2, 3, w_prev, w_next, u, CARRIAGE, COUPLER, DAVIS)
        assert d_obs.x_hat == d_true.x
        assert d_obs.v_hat == d_true.v
        assert d_obs.w_hat == pytest.approx(d_true.w, rel=1e-14)
        assert d_obs.f_hat == pytest.approx(d_true.f, rel=1e-14)


class TestLinearErrorOracle:
    def test_zero_initial_error_stays_zero(self):
        gains = make_gains()
        a, c = benchmark_pair()
        out = linear_error_oracle(0.0, 0.0, 0.0, np.zeros(3), 0.0, gains, a, c,
                                  horizon=1.0, step=1e-3)
        assert np.all(out["e_x"] == 0.0)
        assert np.all(out["e_v"] == 0.0)
        assert np.all(out["e_f"] == 0.0)

    def test_position_channel_is_pure_exponential(self):
        gains = make_gains()
        a, c = benchmark_pair()
        out = linear_error_oracle(1.0, 0.0, 0.0, np.zeros(3), 0.0, gains, a, c,
                                  horizon=1.0, step=1e-3)
        assert out["e_x"][-1] == pytest.approx(math.exp(-3.0), abs=1e-9)

    def test_error_norm_decays_inside_polynomial_exponential_envelope(self):
        # repeated eigenvalue at -3: decay like C*(1+t^4)*exp(-3t); the Jordan
        # constant for these gains is ~139, so the strict 1e-2 contraction
        # checkpoint sits at t=6 rather than t=5
        gains = make_gains()
        a, c = benchmark_pair()
        # e_w chosen so the internal combined channel also starts at one
        e_w0 = 1.0 + gains.k2 * 1.0
        out = linear_error_oracle(1.0, 1.0, e_w0, np.ones(3), 0.0, gains, a, c,
                                  horizon=6.0, step=1e-3)
        initial = math.sqrt(6.0)

        def norm_at(idx):
            return math.sqrt(out["e_x"][idx] ** 2 + out["e_v"][idx] ** 2
                             + float(np.sum(out["e_f"][idx] ** 2)))

        for t_chk in (0.5, 1.0, 2.0, 3.0, 5.0, 6.0):
            idx = int(round(t_chk / 1e-3))
            envelope = 150.0 * (1.0 + t_chk ** 4) * math.exp(-3.0 * t_chk)
            assert norm_at(idx) <= envelope * initial
        assert norm_at(-1) < 1e-2 * initial
