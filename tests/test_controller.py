"""Backstepping, barrier-transform and feasibility-validation tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from oracle import (alpha1, alpha2, alpha2_partials, alpha3, beta1, beta_partials, dual_eval,
                    z_errors)
from platoonsim import controller as ctrl
from platoonsim.autodiff import gradient
from platoonsim.controller import (ConstraintSpec, FollowerGains, HeadGains,
                                   TrainPairErrors, barrier_phi, barrier_psi,
                                   beta_functions, follower_control, head_constants,
                                   head_control, head_pair, validate_initial,
                                   validate_parameters)
from platoonsim.errors import BarrierDomainError, ConfigurationError

GAINS = FollowerGains(l1=0.1, l2=0.1, l3=0.1)
HEAD = HeadGains(ell1=0.01, ell2=2.1, ell3=4.3, ell4=1.0)
CONS = ConstraintSpec(gamma1=9000.0, gamma2=4702.0, d_s=7053.0,
                      sigma1=50.0, sigma2=50.0)
RHO1, RHO2 = CONS.rho1, CONS.rho2
VR1, VR2 = CONS.varrho(HEAD.ell1)
D_P = 26.0


class TestBacksteppingErrors:
    def test_nominal_spacing_and_matched_velocity(self):
        # gap exactly d_p and vhat equal to the virtual velocity command
        z1, z2, z3 = z_errors(0.0, 20.0, 0.0, D_P, 20.0, 0.0, GAINS, D_P)
        assert z1 == 0.0
        assert z2 == 0.0

    def test_z1_sign_for_stretched_gap(self):
        # gap = d_p + 2 means xhat - xhat_prev = -(d_p + 2)
        z1, _, _ = z_errors(-(D_P + 2.0), 0.0, 0.0, 0.0, 0.0, 0.0, GAINS, D_P)
        assert z1 == -2.0

    def test_pinned_regression(self):
        args = (3.0, 21.5, 0.4, 30.0, 20.0, 0.1)
        z1, z2, z3 = z_errors(*args, GAINS, D_P)
        xh, vh, wh, xp, vp, wp = args
        z1e = xh - xp + D_P
        a1e = vp - 1.1 * z1e
        z2e = vh - a1e
        k2 = GAINS.l2 + 1.0 + 1.1 ** 2
        a2e = -k2 * z2e - z1e - 1.1 * vh + 1.1 * vp + wp
        assert (z1, z2, z3) == pytest.approx((z1e, z2e, wh - a2e), rel=1e-14)


class TestAlpha1:
    def test_zero_gap_error_returns_preceding_velocity(self):
        assert alpha1(0.0, D_P, 23.0, GAINS, D_P) == 23.0

    def test_arithmetic(self):
        # z1 = -2 with vhat_prev = 20 and l1 = 0.1
        assert alpha1(-(D_P + 2.0), 0.0, 20.0, GAINS, D_P) == pytest.approx(22.2)

    def test_partials_are_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            point = tuple(rng.uniform(-50.0, 50.0, size=3))
            for i, expected in ((0, -(GAINS.l1 + 1.0)), (1, GAINS.l1 + 1.0), (2, 1.0)):
                seed = tuple(1.0 if k == i else 0.0 for k in range(3))
                _, deriv = dual_eval(
                    lambda a, b, c: alpha1(a, b, c, GAINS, D_P), point, seed)
                assert deriv == pytest.approx(expected, rel=1e-14)


class TestAlpha2:
    def test_zero_everything(self):
        zero = FollowerGains(0.0, 0.0, 0.0)
        assert alpha2(0.0, 0.0, 0.0, 0.0, 0.0, zero, 0.0) == 0.0

    def test_feedforward_only_configuration(self):
        # z1 = z2 = 0: alpha2 = -(l1+1)(vhat - vhat_prev) + what_prev
        xhat, xhat_prev = 0.0, D_P
        vhat_prev = 20.0
        vhat = alpha1(xhat, xhat_prev, vhat_prev, GAINS, D_P)  # makes z2 = 0
        what_prev = 0.7
        got = alpha2(xhat, xhat_prev, vhat, vhat_prev, what_prev, GAINS, D_P)
        assert got == pytest.approx(-(GAINS.l1 + 1.0) * (vhat - vhat_prev) + what_prev,
                                    rel=1e-14)
        assert got == pytest.approx(what_prev)  # equal velocities here

    def test_matches_hand_expanded_affine_form(self):
        rng = np.random.default_rng(8)
        k2 = GAINS.l2 + 1.0 + (GAINS.l1 + 1.0) ** 2
        for _ in range(3):
            xh, xp, vh, vp, wp = rng.uniform(-30.0, 30.0, size=5)
            z1 = xh - xp + D_P
            z2 = vh - (vp - (GAINS.l1 + 1.0) * z1)
            expected = (-k2 * z2 - z1 - (GAINS.l1 + 1.0) * vh
                        + (GAINS.l1 + 1.0) * vp + wp)
            assert alpha2(xh, xp, vh, vp, wp, GAINS, D_P) == pytest.approx(
                expected, rel=1e-12)

    def test_cached_partials_match_finite_differences(self):
        p = alpha2_partials(GAINS, D_P)
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(10):
            point = list(rng.uniform(-40.0, 40.0, size=5))
            for i in range(5):
                hi, lo = list(point), list(point)
                hi[i] += h
                lo[i] -= h
                fd = (alpha2(*hi, GAINS, D_P) - alpha2(*lo, GAINS, D_P)) / (2 * h)
                assert p[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestAlpha3AndFollowerControl:
    def test_all_zero_configuration(self):
        zero = FollowerGains(0.0, 0.0, 0.0)
        got = alpha3(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                     0.0, 0.0, 0.0, 0.0, 0.0, zero, 0.0)
        assert got == 0.0

    def test_follower_control_zero(self):
        zero = FollowerGains(0.0, 0.0, 0.0)
        u = follower_control(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, None,
                             0.0, 0.0, 0.0, 0.0, 0.0,
                             0.0, 0.0, 0.0, 0.0, 0.0, zero, 0.0)
        assert u == 0.0

    def test_perfect_estimate_cancellation(self):
        # with exact estimates, zero faults and zero corrections, substituting
        # u into the composite acceleration dynamics leaves exactly alpha3
        rng = np.random.default_rng(10)
        xh, xp, vh, vp = rng.uniform(-10.0, 10.0, size=4)
        wh, wp, wn = rng.uniform(-1.0, 1.0, size=3)
        b1, b2, b3 = -50.01, 0.0075, 0.0075
        derivs = tuple(rng.uniform(-2.0, 2.0, size=5))
        u = follower_control(xh, vh, wh, xp, vp, wp, wn, *derivs,
                             b1, b2, b3, 0.0, 0.0, GAINS, D_P)
        a3 = alpha3(xh, vh, wh, xp, vp, wp, *derivs, GAINS, D_P)
        w_dot = b1 * wh + b2 * wp + b3 * wn + u
        assert w_dot == pytest.approx(a3, rel=1e-9, abs=1e-9)

    def test_pinned_regression(self):
        u = follower_control(1.0, 21.0, 0.2, 27.5, 20.5, 0.1, 0.05,
                             21.1, 0.21, 20.6, 0.12, -0.4,
                             -50.0, 0.0075, 0.0075, 2.5, 0.01, GAINS, D_P)
        # independent evaluation through the definition chain
        z1 = 1.0 - 27.5 + D_P
        a1 = 20.5 - 1.1 * z1
        z2 = 21.0 - a1
        k2c = GAINS.l2 + 1.0 + 1.1 ** 2
        a2 = -k2c * z2 - z1 - 1.1 * 21.0 + 1.1 * 20.5 + 0.1
        z3 = 0.2 - a2
        p = (-k2c * 1.1 - 1.0, k2c * 1.1 + 1.0, -k2c - 1.1, k2c + 1.1, 1.0)
        a3 = (-0.1 * z3 - z2 + p[0] * 21.1 + p[1] * 20.6 + p[2] * 0.21
              + p[3] * 0.12 + p[4] * -0.4)
        expected = -(-50.0 * 0.2 + 0.0075 * 0.1 + 0.0075 * 0.05 + 2.5 + 0.01) + a3
        assert u == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("tail", [False, True])
    def test_weights_match_the_backstepping_chain(self, tail):
        rng = np.random.default_rng(11)
        for _ in range(200):
            states = rng.uniform(-1e3, 1e3, 6)
            what_next = None if tail else rng.uniform(-1.0, 1.0)
            derivs = rng.uniform(-50.0, 50.0, 5)
            coupling = (-50.0, 0.0075, 0.0 if tail else 0.0075, *rng.uniform(-3.0, 3.0, 2))
            args = (*states, what_next, *derivs, *coupling, GAINS, D_P)
            expected = oracle.follower_control(*args)
            scale = max(np.abs(states).max(), np.abs(derivs).max(), 1.0)
            assert follower_control(*args) == pytest.approx(expected, abs=1e-12 * scale)


class TestBarriers:
    def test_phi_zero_at_origin(self):
        phi, big_phi = barrier_phi(0.0, RHO1, RHO2)
        assert phi == 0.0
        assert big_phi == pytest.approx(1.0 / RHO2 + 1.0 / RHO1, rel=1e-12)
        assert big_phi == pytest.approx(9.389616e-4, rel=1e-5)

    def test_blows_up_near_boundaries(self):
        phi_hi, _ = barrier_phi(RHO1 - 1e-6, RHO1, RHO2)
        phi_lo, _ = barrier_phi(-RHO2 + 1e-6, RHO1, RHO2)
        assert phi_hi > 20.0
        assert phi_lo < -20.0

    def test_domain_errors(self):
        for bad in (RHO1, RHO1 + 5.0, -RHO2, -RHO2 - 1.0):
            with pytest.raises(BarrierDomainError):
                barrier_phi(bad, RHO1, RHO2)

    def test_saturation_keeps_value_finite(self):
        phi, big_phi = barrier_phi(RHO1 + 123.0, RHO1, RHO2, saturate=True)
        assert math.isfinite(phi) and math.isfinite(big_phi)
        assert phi > 20.0

    def test_monotone_increasing_and_positive_derivative(self):
        grid = np.linspace(-RHO2 + 1e-3, RHO1 - 1e-3, 1000)
        values = [barrier_phi(x, RHO1, RHO2)[0] for x in grid]
        derivs = [barrier_phi(x, RHO1, RHO2)[1] for x in grid]
        assert all(d > 0.0 for d in derivs)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert np.all(np.sign(values) == np.sign(grid))

    def test_sign_pairing_off_origin(self):
        grid = np.linspace(-RHO2 + 1e-3, RHO1 - 1e-3, 1001)
        for x in grid:
            phi, big_phi = barrier_phi(x, RHO1, RHO2)
            assert x * phi * big_phi >= 0.0
            if x != 0.0:
                assert x * phi * big_phi > 0.0

    def test_psi_uses_combined_error_bounds(self):
        psi, big_psi = barrier_psi(0.0, VR1, VR2)
        assert psi == 0.0
        assert big_psi == pytest.approx(1.0 / VR1 + 1.0 / VR2, rel=1e-12)


class TestBarrierPrecision:
    """The transform at the points the saturation clamp produces, against exact arithmetic."""

    @pytest.mark.parametrize("upper, lower", [(RHO1, RHO2), (VR1, VR2)],
                             ids=["phi", "psi"])
    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_clamp_points_match_exact_arithmetic(self, upper, lower, side):
        outside = upper + 5.0 if side == "upper" else -lower - 5.0
        events = []
        x = ctrl._clamp_to_domain(outside, upper, lower, True)
        assert x == oracle.clamp_to_domain(outside, upper, lower, True,
                                           lambda *event: events.append(event))
        assert events and -lower < x < upper
        hi, lo, xf = Fraction(upper), Fraction(lower), Fraction(x)
        exact_value = math.log(hi * (lo + xf) / (lo * (hi - xf)))
        exact_slope = float(1 / (lo + xf) + 1 / (hi - xf))
        exact_curvature = float(1 / (hi - xf) ** 2 - 1 / (lo + xf) ** 2)

        value, slope, curvature = ctrl._barrier(x, upper, lower)
        _, (dual_slope,) = gradient(lambda a: ctrl._barrier(a, upper, lower)[0], (x,))
        assert abs(value) > 20.0
        assert value == pytest.approx(exact_value, rel=1e-12)
        assert slope == pytest.approx(exact_slope, rel=1e-12)
        assert dual_slope == pytest.approx(exact_slope, rel=1e-12)
        assert curvature == pytest.approx(exact_curvature, rel=1e-12)


def inside(upper, lower):
    return st.floats(min_value=-lower, max_value=upper,
                     exclude_min=True, exclude_max=True)


class TestBetaPartials:
    """The closed-form partials against forward-mode differentiation of beta1."""

    @settings(max_examples=300, deadline=None)
    @given(x_tilde=inside(RHO1, RHO2), q_tilde=inside(VR1, VR2))
    def test_closed_forms_match_dual_numbers(self, x_tilde, q_tilde):
        v_tilde = q_tilde - HEAD.ell1 * x_tilde
        assume(-VR2 < v_tilde + HEAD.ell1 * x_tilde < VR1)
        value, d_x, d_v = beta_partials(x_tilde, v_tilde + HEAD.ell1 * x_tilde, HEAD,
                                        RHO1, RHO2, VR1, VR2)
        dual_value, (dual_x, dual_v) = gradient(
            lambda a, b: beta1(a, b, HEAD, RHO1, RHO2, VR1, VR2), (x_tilde, v_tilde))
        assert value == pytest.approx(dual_value, rel=1e-12, abs=1e-15)
        assert d_x == pytest.approx(dual_x, rel=1e-12)
        assert d_v == pytest.approx(dual_v, rel=1e-12)


@st.composite
def head_law_settings(draw):
    """Valid head gains with their bounds ``(rho1, rho2, varrho1, varrho2)``."""
    rho1, rho2 = draw(st.floats(1.0, 1e4)), draw(st.floats(1.0, 1e4))
    sigma1, sigma2 = draw(st.floats(0.1, 100.0)), draw(st.floats(0.1, 100.0))
    cap = min(sigma2 / rho1, sigma1 / rho2)
    ell1 = cap * draw(st.floats(1e-3, 0.999))
    ell2 = draw(st.floats(2.0, 10.0, exclude_min=True))
    ell3 = 2.0 + ell2 ** 2 / 2.0 + draw(st.floats(1e-3, 50.0))
    ell4 = draw(st.floats(0.5, 10.0, exclude_min=True))
    gains = HeadGains(ell1=ell1, ell2=ell2, ell3=ell3, ell4=ell4)
    bounds = (rho1, rho2, -ell1 * rho2 + sigma1, -ell1 * rho1 + sigma2)
    assume(bounds[2] > 0.0 and bounds[3] > 0.0)
    assert validate_parameters(FollowerGains(0.1, 0.1, 0.1), gains,
                               ConstraintSpec(gamma1=7053.0 + rho1, gamma2=7053.0 - rho2,
                                              d_s=7053.0, sigma1=sigma1,
                                              sigma2=sigma2)) == []
    return gains, bounds


@st.composite
def in_domain(draw, upper, lower):
    """A point of (-lower, upper): anywhere, or the clamp margin 1e-9 inside an end."""
    return draw(st.one_of(
        st.floats(-lower, upper, exclude_min=True, exclude_max=True),
        st.sampled_from([upper - 1e-9, -lower + 1e-9])))


class TestHeadPair:
    """The per-pair head law on floats against the oracle's generic forms."""

    @settings(max_examples=500, deadline=None)
    @given(setting=head_law_settings(), data=st.data(),
           v_tilde=st.floats(-1e3, 1e3), what_tilde=st.floats(-1e3, 1e3),
           q_formed=st.floats(-1e3, 1e3))
    def test_bitwise_the_oracle(self, setting, data, v_tilde, what_tilde, q_formed):
        gains, (rho1, rho2, vr1, vr2) = setting
        x_tilde = data.draw(in_domain(rho1, rho2))
        q_tilde = data.draw(in_domain(vr1, vr2))
        got = head_pair(x_tilde, q_tilde, v_tilde, what_tilde, q_formed,
                        head_constants(gains, rho1, rho2, vr1, vr2))
        value, d_x, d_v = oracle.beta_partials(x_tilde, q_tilde, gains, rho1, rho2, vr1, vr2)
        beta = (value, what_tilde + gains.ell1 * v_tilde - value, d_x, d_v)
        feedback = oracle.head_feedback(q_formed, v_tilde, what_tilde, beta, gains)
        assert [v.hex() for v in got] == [v.hex() for v in (value, d_x, d_v, feedback)]

    @settings(max_examples=300, deadline=None)
    @given(setting=head_law_settings(), data=st.data())
    def test_partials_match_dual_numbers(self, setting, data):
        gains, (rho1, rho2, vr1, vr2) = setting
        x_tilde = data.draw(in_domain(rho1, rho2))
        v_tilde = data.draw(in_domain(vr1, vr2)) - gains.ell1 * x_tilde
        q_tilde = v_tilde + gains.ell1 * x_tilde
        assume(-vr2 < q_tilde < vr1)
        _, d_x, d_v, _ = head_pair(x_tilde, q_tilde, v_tilde, 0.0, q_tilde,
                                   head_constants(gains, rho1, rho2, vr1, vr2))
        _, (dual_x, dual_v) = gradient(
            lambda a, b: beta1(a, b, gains, rho1, rho2, vr1, vr2), (x_tilde, v_tilde))
        assert d_x == pytest.approx(dual_x, rel=1e-12)
        assert d_v == pytest.approx(dual_v, rel=1e-12)


class TestClampedPairErrors:
    """The clamp hands the head law the combined error it clamped, not a re-formed one."""

    def test_inside_the_domain_nothing_moves(self):
        x_tilde, v_tilde = 800.0, 0.5
        assert ctrl.clamp_pair_errors(x_tilde, v_tilde, HEAD.ell1, RHO1, RHO2, VR1, VR2,
                                      saturate=True) == (x_tilde, v_tilde + HEAD.ell1 * x_tilde)

    def test_huge_velocity_error_lands_on_the_margin(self):
        # re-forming q from a velocity error shifted by about -1e16 would be
        # off by a few units of 1e16's last place, outside the interval again
        for v_tilde, q_edge in ((1e16, VR1), (-1e16, -VR2)):
            events = []
            xt, qt = ctrl.clamp_pair_errors(
                -2000.0, v_tilde, HEAD.ell1, RHO1, RHO2, VR1, VR2, saturate=True)
            assert (xt, qt) == oracle.clamp_pair_errors(
                -2000.0, v_tilde, HEAD.ell1, RHO1, RHO2, VR1, VR2, saturate=True,
                record=lambda *event: events.append(event))
            assert xt == -2000.0
            assert abs(qt - q_edge) == pytest.approx(1e-9, rel=1e-3)
            assert -VR2 < qt < VR1
            assert [e[0] for e in events] == ["qtilde"]

    @settings(max_examples=500, deadline=None)
    @given(x_tilde=st.one_of(inside(RHO1, RHO2), st.floats(-1e16, 1e16)),
           v_magnitude=st.floats(0.0, 16.0), negative=st.booleans(),
           what_tilde=st.floats(-1e3, 1e3))
    def test_saturated_beta_functions_stay_finite(self, x_tilde, v_magnitude, negative,
                                                  what_tilde):
        # |v_tilde| log-uniform up to 1e16, the gap error inside or outside
        v_tilde = (-1.0 if negative else 1.0) * 10.0 ** v_magnitude
        out = beta_functions(x_tilde, v_tilde, what_tilde, HEAD, RHO1, RHO2, VR1, VR2,
                             saturate=True)
        assert all(math.isfinite(v) for v in out)


class TestAlpha3Coefficients:
    def test_constant_weights_match_the_scalar_law(self):
        rng = np.random.default_rng(4)
        weights = ctrl.alpha3_coefficients(GAINS)
        for _ in range(200):
            xh, vh, wh, xp, vp, wp = rng.uniform(-1e3, 1e3, 6)
            derivs = rng.uniform(-50.0, 50.0, 4)
            expected = alpha3(xh, vh, wh, xp, vp, wp, derivs[0], derivs[1], derivs[2],
                              derivs[3], 0.0, GAINS, D_P)
            diffs = (xh - xp + D_P, vh - vp, wh - wp, derivs[0] - derivs[2],
                     derivs[1] - derivs[3])
            scale = max(np.abs(diffs).max(), 1.0)
            assert weights @ diffs == pytest.approx(expected, abs=1e-12 * scale)

    def test_weights_are_the_partials(self):
        # alpha3 is affine in the state, so its dual-number gradient is the
        # weight vector, read through the difference coordinates
        weights = ctrl.alpha3_coefficients(GAINS)
        _, grad = gradient(
            lambda xh, vh, wh, xhd, vhd: alpha3(xh, vh, wh, 0.0, 0.0, 0.0, xhd, vhd,
                                                0.0, 0.0, 0.0, GAINS, D_P),
            (0.3, -0.2, 0.1, 0.05, -0.4))
        assert list(grad) == pytest.approx(list(weights), rel=1e-14)


class TestBetaFunctions:
    def test_origin(self):
        b1v, b2v, pbx, pbv = beta_functions(0.0, 0.0, 0.0, HEAD,
                                            RHO1, RHO2, VR1, VR2)
        assert b1v == 0.0 and b2v == 0.0

    def test_velocity_partial_at_origin(self):
        _, _, _, pbv = beta_functions(0.0, 0.0, 0.0, HEAD, RHO1, RHO2, VR1, VR2)
        psi0 = 1.0 / VR1 + 1.0 / VR2
        assert pbv == pytest.approx(-HEAD.ell2 - HEAD.ell3 * psi0 ** 2, rel=1e-12)

    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(10):
            xt = rng.uniform(-0.8 * RHO2, 0.8 * RHO1)
            vt = rng.uniform(-0.5 * VR2, 0.5 * VR1) - HEAD.ell1 * xt
            _, _, pbx, pbv = beta_functions(xt, vt, 0.0, HEAD, RHO1, RHO2, VR1, VR2)
            f = lambda a, b: beta1(a, b, HEAD, RHO1, RHO2, VR1, VR2)
            fd_x = (f(xt + h, vt) - f(xt - h, vt)) / (2 * h)
            fd_v = (f(xt, vt + h) - f(xt, vt - h)) / (2 * h)
            assert pbx == pytest.approx(fd_x, rel=1e-5, abs=1e-9)
            assert pbv == pytest.approx(fd_v, rel=1e-5, abs=1e-9)

    def test_saturation_records_violation(self):
        events = []
        args = (RHO1 + 10.0, 0.0, 0.0, HEAD, RHO1, RHO2, VR1, VR2)
        beta = beta_functions(*args, saturate=True)
        assert beta == oracle.beta_functions(
            *args, saturate=True, record=lambda kind, v, lo, hi: events.append((kind, v)))
        assert events and events[0][0] == "xtilde"


class TestHeadControl:
    def test_equilibrium_returns_reference_jerk(self):
        u0 = 0.025
        u = head_control(u0, -50.0, 0.0075, 0.0, 0.0, 0.0, 0.0,
                         0.0, 0.0, 0.0, HEAD, RHO1, RHO2, VR1, VR2)
        assert u == pytest.approx(u0, abs=1e-15)

    def test_all_zero_state_with_zero_gains(self):
        zero = HeadGains(0.0, 0.0, 0.0, 0.0)
        u = head_control(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                         0.0, 0.0, 0.0, zero, 1.0, 1.0, 1.0, 1.0)
        assert u == 0.0

    def test_pinned_regression(self):
        args = dict(g_front=0.4, b1=-50.01, b3=0.0075, what=0.3, what_next=0.1,
                    cf_hat=1.2, mu3=0.05, x_tilde=800.0, v_tilde=0.5,
                    what_tilde=-0.2)
        u = head_control(args["g_front"], args["b1"], args["b3"], args["what"],
                         args["what_next"], args["cf_hat"], args["mu3"],
                         args["x_tilde"], args["v_tilde"], args["what_tilde"],
                         HEAD, RHO1, RHO2, VR1, VR2)
        bt1, bt2, pbx, pbv = beta_functions(
            args["x_tilde"], args["v_tilde"], args["what_tilde"], HEAD,
            RHO1, RHO2, VR1, VR2)
        qt = args["v_tilde"] + HEAD.ell1 * args["x_tilde"]
        expected = (args["g_front"]
                    - (args["b1"] * args["what"] + args["b3"] * args["what_next"]
                       + args["cf_hat"] + args["mu3"])
                    + HEAD.ell1 * args["what_tilde"] + HEAD.ell1 ** 2 * bt2
                    - pbx * args["v_tilde"] - pbv * args["what_tilde"]
                    + pbv ** 2 * bt2 + qt - HEAD.ell4 * bt2)
        assert u == pytest.approx(expected, rel=1e-12)


class TestValidateParameters:
    def test_benchmark_gains_accepted(self):
        assert validate_parameters(GAINS, HEAD, CONS) == []

    def test_ell3_bound_is_strict(self):
        # floor is 2 + 2.1^2/2 = 4.205 < 4.3
        head = HeadGains(ell1=0.01, ell2=2.1, ell3=4.205, ell4=1.0)
        out = validate_parameters(GAINS, head, CONS)
        assert [v.name for v in out] == ["ell3 > 2 + ell2^2/2"]
        assert out[0].bound == pytest.approx(4.205)

    def test_ell2_boundary_exclusion(self):
        head = HeadGains(ell1=0.01, ell2=2.0, ell3=4.3, ell4=1.0)
        names = [v.name for v in validate_parameters(GAINS, head, CONS)]
        assert "ell2 > 2" in names

    def test_ell1_cap(self):
        head = HeadGains(ell1=0.03, ell2=2.1, ell3=4.3, ell4=1.0)
        out = validate_parameters(GAINS, head, CONS)
        assert any(v.name == "ell1 < min(sigma2/rho1, sigma1/rho2)" for v in out)
        cap = min(50.0 / RHO1, 50.0 / RHO2)
        assert out[0].bound == pytest.approx(cap)
        assert cap == pytest.approx(50.0 / 2351.0, rel=1e-12)

    def test_follower_gain_positivity(self):
        bad = FollowerGains(l1=0.0, l2=-0.1, l3=0.1)
        names = [v.name for v in validate_parameters(bad, HEAD, CONS)]
        assert names[:2] == ["l1 > 0", "l2 > 0"]

    def test_constraint_structure_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            ConstraintSpec(gamma1=5000.0, gamma2=4702.0, d_s=7053.0,
                           sigma1=50.0, sigma2=50.0)


class TestValidateInitial:
    def pair(self, x_tilde, v_tilde):
        return TrainPairErrors(epsilon=x_tilde + CONS.d_s, x_tilde=x_tilde,
                               v_tilde=v_tilde,
                               q_tilde=v_tilde + HEAD.ell1 * x_tilde)

    def test_benchmark_initial_states_accepted(self):
        errors = {1: self.pair(0.0, -0.5), 2: self.pair(800.0, 0.5),
                  3: self.pair(-2000.0, 0.8)}
        assert validate_initial(errors, CONS, HEAD.ell1) == []

    def test_boundary_is_excluded(self):
        out = validate_initial({1: self.pair(RHO1, 0.0)}, CONS, HEAD.ell1)
        assert any(v.name == "xtilde_1(0) in (-rho2, rho1)" for v in out)

    def test_combined_error_checked(self):
        out = validate_initial({2: self.pair(0.0, VR1 + 1.0)}, CONS, HEAD.ell1)
        assert [v.name for v in out] == ["qtilde_2(0) in (-varrho2, varrho1)"]

    def test_from_states_arithmetic(self):
        err = TrainPairErrors.from_states(13010.0, 20.3, 5157.0, 19.8,
                                          CONS.d_s, HEAD.ell1)
        assert err.epsilon == pytest.approx(7853.0)
        assert err.x_tilde == pytest.approx(800.0)
        assert err.v_tilde == pytest.approx(0.5)
        assert err.q_tilde == pytest.approx(8.5)
