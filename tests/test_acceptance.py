"""Acceptance suite: the ten machine-checkable exit criteria.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure).  The two full-horizon benchmark runs are session fixtures shared
with the rest of the suite; everything else runs on short horizons.
"""

import dataclasses

import numpy as np
import pytest

from conftest import short_scenario, true_fault_states
from platoonsim import observer as obs
from platoonsim.autodiff import dual_eval
from platoonsim.controller import (ConstraintSpec, FollowerGains, HeadGains,
                                   alpha1, alpha2, barrier_phi, barrier_psi,
                                   beta1, beta_functions, validate_initial,
                                   validate_parameters)
from platoonsim.faults import exosystem_matrix
from platoonsim.simulator import (_ClosedLoop, fault_interval_errors,
                                  initial_pair_errors, rk4_step, run_scenario)

D_P = 26.0
RHO1, RHO2 = 1947.0, 2351.0
SIGMA = 50.0
ELL1 = 0.01
VARRHO1 = -ELL1 * RHO2 + SIGMA  # 26.49
VARRHO2 = -ELL1 * RHO1 + SIGMA  # 30.53


def verdict(num, name, passed):
    print(f"[criterion {num:2d}] {'PASS' if passed else 'FAIL'} - {name}")
    assert passed, f"criterion {num} failed: {name}"


def tail_mask(record, window=100.0):
    return record.t >= record.t[-1] - window


def intra_train_tail_stats(record, tail):
    x, v = record.data["x"], record.data["v"]
    labels = record.carriage_labels
    gap_errs, vgaps = [], []
    for c in range(1, len(labels)):
        if labels[c - 1][0] != labels[c][0]:
            continue
        gap_errs.append(np.abs(x[tail, c - 1] - x[tail, c] - D_P).mean())
        vgaps.append(np.abs(v[tail, c - 1] - v[tail, c]).mean())
    return max(gap_errs), max(vgaps)


def hard_bounds_hold(record):
    xt, vt = record.data["xtilde"], record.data["vtilde"]
    return bool(np.all((xt > -RHO2) & (xt < RHO1))
                and np.all((vt > -SIGMA) & (vt < SIGMA)))


class TestCriterion01NoiseFreeReproduction:
    def test_criterion_01(self, s5_noise_free):
        _, record, _ = s5_noise_free
        tail = tail_mask(record)
        xt_mean = np.abs(record.data["xtilde"][tail]).mean(axis=0).max()
        vt_mean = np.abs(record.data["vtilde"][tail]).mean(axis=0).max()
        gap_err, vgap = intra_train_tail_stats(record, tail)
        ok = (hard_bounds_hold(record)
              and xt_mean < 1.0 and vt_mean < 0.05
              and gap_err < 0.05 and vgap < 0.02)
        verdict(1, "noise-free benchmark: hard bounds + tail convergence "
                   f"(|xt|={xt_mean:.2e} m, |vt|={vt_mean:.2e} m/s, "
                   f"gap={gap_err:.2e} m, vgap={vgap:.2e} m/s)", ok)


class TestCriterion02NoisyReproduction:
    def test_criterion_02(self, s5_noisy):
        config, record, _ = s5_noisy
        assert config.noise.enabled and config.noise.variance == 0.5
        tail = tail_mask(record)
        xt_mean = np.abs(record.data["xtilde"][tail]).mean(axis=0).max()
        vt_mean = np.abs(record.data["vtilde"][tail]).mean(axis=0).max()
        ok = hard_bounds_hold(record) and xt_mean < 5.0 and vt_mean < 0.5
        verdict(2, "noisy benchmark (variance 0.5, fixed seed): hard bounds + "
                   f"relaxed tails (|xt|={xt_mean:.2e} m, |vt|={vt_mean:.2e} m/s)",
                ok)


class TestCriterion03ObserverAsymptotics:
    def test_criterion_03(self, s5_noise_free):
        config, record, _ = s5_noise_free
        intervals = fault_interval_errors(record, config, min_length=100.0, last=10.0)
        assert intervals, "no fault-transition-free intervals of 100 s found"
        worst_ef = max(e["max_f_eff_err"] / max(1.0, e["max_f_eff"])
                       for e in intervals)
        worst_ew = max(e["max_e_w"] for e in intervals)
        ok = worst_ef < 1e-3 and worst_ew < 1e-4
        # reported apart: the relative error where a fault acts, and the
        # absolute error (rounding noise of the estimate) where none does
        active = [e["max_f_eff_err"] / e["max_f_eff"] for e in intervals if e["max_f_eff"] > 0]
        idle = [e["max_f_eff_err"] for e in intervals if e["max_f_eff"] == 0]
        verdict(3, f"observer asymptotics over {len(intervals)} intervals "
                   f"(rel fault err {max(active, default=0.0):.2e} over {len(active)} "
                   f"fault-active, abs fault err {max(idle, default=0.0):.2e} N/s over "
                   f"{len(idle)} fault-free, |e_w| {worst_ew:.2e})", ok)


class TestCriterion04GainSynthesis:
    def test_criterion_04(self):
        c_row = np.array([2.5, 0.0, 2.5])
        a, c = obs.build_augmented_pair(c_row, exosystem_matrix(1.0))
        gains = obs.synthesize_gains(a, c, [-3.0] * 5, k1=3.0)
        closed = obs.closed_loop_matrix(a, c, gains)
        # eigenvalue multiset equality is checked through the characteristic
        # coefficients (elementary symmetric functions): individual eigenvalue
        # positions of a quintuple-defective matrix are conditioned as the
        # fifth root of the rounding level and cannot meet 1e-6 directly
        got = obs.characteristic_coefficients(closed)
        want = np.poly([-3.0] * 5)
        coeff_err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))
        cluster = np.max(np.abs(np.linalg.eigvals(closed) + 3.0))
        d_matrix = np.zeros((6, 6))
        d_matrix[0, 0] = -gains.k1
        d_matrix[1:, 1:] = closed
        d_eigs = np.linalg.eigvals(d_matrix)
        has_k1_eig = np.min(np.abs(d_eigs + gains.k1)) < 1e-9
        ok = coeff_err < 1e-6 and cluster < 1e-2 and has_k1_eig and gains.k1 == 3.0
        verdict(4, f"placement at -3 (coefficient error {coeff_err:.2e}, raw "
                   f"eigenvalue cluster radius {cluster:.2e}, -k1 in spec(D))", ok)


class TestCriterion05ModelEquivalence:
    def test_criterion_05(self, s5_config):
        config = short_scenario(s5_config, 10.0, step=1e-3, representation="both")
        record, _ = run_scenario(config)
        dx = np.abs(record.data["x"] - record.data["plant_x"]).max()
        dv = np.abs(record.data["v"] - record.data["plant_v"]).max()
        ok = dx < 1e-6 and dv < 1e-6
        verdict(5, f"plant/composite equivalence over 10 s at h=1e-3 "
                   f"(max dx {dx:.2e} m, max dv {dv:.2e} m/s)", ok)


def perturbed_observer_init(config):
    out = []
    for g, (x, v, w) in enumerate(config.initial):
        scale = 1.0 + 0.1 * g
        out.append((x + 0.3 * scale, v - 0.2 * scale, w + 0.5 * scale,
                    0.4 * scale, -0.3 * scale, 0.6 * scale))
    return tuple(out)


def error_trajectories(config):
    """Integrate the closed loop and extract estimation-error trajectories."""
    engine = _ClosedLoop(config)
    h = config.step
    n = int(round(config.duration / h))
    y = engine.initial_state()
    nc = engine.nc
    e_x = np.empty((n + 1, nc))
    e_v = np.empty((n + 1, nc))
    e_f = np.empty((n + 1, nc, 3))
    for i in range(n + 1):
        t = i * h
        f_true = true_fault_states(engine, t)
        e_x[i] = y[engine.sl["xh"]] - y[engine.sl["x"]]
        e_v[i] = y[engine.sl["vh"]] - y[engine.sl["v"]]
        e_f[i] = y[engine.sl["fh"]].reshape(nc, 3) - f_true
        if i == n:
            break
        y = rk4_step(engine.rhs, y, t, h)
    return {"e_x": e_x, "e_v": e_v, "e_f": e_f, "engine": engine}


class TestCriterion06LinearErrorOracle:
    def test_criterion_06(self, s5_config):
        config = short_scenario(s5_config, 10.0, step=1e-3)
        config = dataclasses.replace(
            config, observer_initial=perturbed_observer_init(config))
        sim = error_trajectories(config)
        engine = sim["engine"]
        nc = engine.nc
        x0 = np.array([s[0] for s in config.initial])
        v0 = np.array([s[1] for s in config.initial])
        w0 = np.array([s[2] for s in config.initial])
        oi = np.asarray(config.observer_initial)
        worst = 0.0
        for g, (i, j) in enumerate(config.topology.carriage_ids()):
            m_i = config.topology.carriages_per_train[i - 1]
            prev, nxt = g - 1, g + 1
            mu2_0 = obs.auxiliary_mu2(
                j, m_i, v0[g], oi[g, 1],
                None if j == 1 else v0[prev], None if j == 1 else oi[prev, 1],
                None if j == m_i else v0[nxt], None if j == m_i else oi[nxt, 1],
                engine.gains[g], config.carriages[g], config.coupler, config.davis)
            a, c = obs.build_augmented_pair(
                config.carriages[g].fault_accel_row,
                exosystem_matrix(config.carriages[g].fault.omega))
            oracle = obs.linear_error_oracle(
                e_x0=oi[g, 0] - x0[g], e_v0=oi[g, 1] - v0[g],
                e_w0=oi[g, 2] - w0[g], e_f0=oi[g, 3:6], mu2_0=mu2_0,
                gains=engine.gains[g], a=a, c=c,
                horizon=config.duration, step=config.step)
            worst = max(worst,
                        np.abs(sim["e_x"][:, g] - oracle["e_x"]).max(),
                        np.abs(sim["e_v"][:, g] - oracle["e_v"]).max(),
                        np.abs(sim["e_f"][:, g] - oracle["e_f"]).max())
        ok = worst < 1e-6
        verdict(6, f"nonlinear errors match the linear oracle over 10 s "
                   f"(max deviation {worst:.2e})", ok)


class TestCriterion07InputIndependence:
    def test_criterion_07(self, s5_config):
        base = short_scenario(s5_config, 20.0, step=1e-3)
        base = dataclasses.replace(
            base, observer_initial=perturbed_observer_init(base))
        designed = error_trajectories(base)
        uncontrolled = error_trajectories(
            dataclasses.replace(base, control_law="zero"))
        worst = max(np.abs(designed["e_x"] - uncontrolled["e_x"]).max(),
                    np.abs(designed["e_v"] - uncontrolled["e_v"]).max(),
                    np.abs(designed["e_f"] - uncontrolled["e_f"]).max())
        ok = worst < 1e-9
        verdict(7, "estimation errors identical under different control laws "
                   f"over 20 s (max deviation {worst:.2e})", ok)


class TestCriterion08DerivativeOracles:
    def test_criterion_08(self):
        gains = FollowerGains(l1=0.1, l2=0.1, l3=0.1)
        head = HeadGains(ell1=0.01, ell2=2.1, ell3=4.3, ell4=1.0)
        rng = np.random.default_rng(2024)
        h = 1e-5
        worst = 0.0

        def check(fn, point, i, analytic):
            nonlocal worst
            hi, lo = list(point), list(point)
            hi[i] += h
            lo[i] -= h
            fd = (fn(*hi) - fn(*lo)) / (2 * h)
            worst = max(worst, abs(analytic - fd) / max(1.0, abs(fd)))

        a1 = lambda x, xp, vp: alpha1(x, xp, vp, gains, D_P)
        a2 = lambda x, xp, v, vp, wp: alpha2(x, xp, v, vp, wp, gains, D_P)
        b1 = lambda xt, vt: beta1(xt, vt, head, RHO1, RHO2, VARRHO1, VARRHO2)
        for _ in range(12):
            p3 = tuple(rng.uniform(-40.0, 40.0, size=3))
            for i in range(3):
                seed = tuple(1.0 if k == i else 0.0 for k in range(3))
                _, deriv = dual_eval(a1, p3, seed)
                check(a1, p3, i, deriv)
            p5 = tuple(rng.uniform(-40.0, 40.0, size=5))
            for i in range(5):
                seed = tuple(1.0 if k == i else 0.0 for k in range(5))
                _, deriv = dual_eval(a2, p5, seed)
                check(a2, p5, i, deriv)
            xt = rng.uniform(-0.7 * RHO2, 0.7 * RHO1)
            vt = rng.uniform(-0.6 * VARRHO2, 0.6 * VARRHO1) - ELL1 * xt
            _, _, pbx, pbv = beta_functions(xt, vt, 0.0, head, RHO1, RHO2,
                                            VARRHO1, VARRHO2)
            check(b1, (xt, vt), 0, pbx)
            check(b1, (xt, vt), 1, pbv)
        verdict(8, f"all control-law partials match central differences "
                   f"(worst rel err {worst:.2e})", worst < 1e-5)


class TestCriterion09BarrierSuite:
    def suite(self, transform, hi, lo):
        value0, slope0 = transform(0.0, hi, lo)
        ok = value0 == 0.0 and slope0 > 0.0
        grid = np.linspace(-lo, hi, 1002)[1:-1]
        for x in grid:
            value, slope = transform(x, hi, lo)
            ok = ok and slope > 0.0
            if x != 0.0:
                ok = ok and x * value * slope > 0.0
        # divergence probe within 1e-6 of each boundary; at 1e-9 the log
        # exceeds 20 even for the narrow combined-error interval, where the
        # value at exactly 1e-6 would only reach ~17.7
        near_hi, _ = transform(hi - 1e-9, hi, lo)
        near_lo, _ = transform(-lo + 1e-9, hi, lo)
        return ok and near_hi > 20.0 and near_lo < -20.0

    def test_criterion_09(self):
        cons = ConstraintSpec(gamma1=9000.0, gamma2=4702.0, d_s=7053.0,
                              sigma1=SIGMA, sigma2=SIGMA)
        vr1, vr2 = cons.varrho(ELL1)
        assert vr1 == pytest.approx(26.49, abs=1e-12)
        assert vr2 == pytest.approx(30.53, abs=1e-12)
        ok = (self.suite(barrier_phi, cons.rho1, cons.rho2)
              and self.suite(barrier_psi, vr1, vr2))
        verdict(9, "barrier transforms: zero at origin, positive slope, sign "
                   "pairing, divergence at both boundaries (phi and psi)", ok)


class TestCriterion10FeasibilityValidators:
    def test_criterion_10(self, s5_config):
        gains = s5_config.follower_gains
        head = s5_config.head_gains
        cons = s5_config.constraints
        ok = validate_parameters(gains, head, cons) == []

        perturbations = [
            (dataclasses.replace(gains, l1=0.0), head, "l1 > 0"),
            (dataclasses.replace(gains, l2=0.0), head, "l2 > 0"),
            (dataclasses.replace(gains, l3=-0.1), head, "l3 > 0"),
            (gains, dataclasses.replace(head, ell1=0.0), "ell1 > 0"),
            (gains, dataclasses.replace(head, ell1=0.03),
             "ell1 < min(sigma2/rho1, sigma1/rho2)"),
            (gains, dataclasses.replace(head, ell2=2.0), "ell2 > 2"),
            (gains, dataclasses.replace(head, ell3=4.205), "ell3 > 2 + ell2^2/2"),
            (gains, dataclasses.replace(head, ell4=0.5), "ell4 > 1/2"),
        ]
        for f_gains, h_gains, expected_name in perturbations:
            # the perturbed inequality must be named; derived quantities
            # (varrho) may legitimately fail alongside an ell1 perturbation
            names = [v.name for v in validate_parameters(f_gains, h_gains, cons)]
            ok = ok and expected_name in names

        pairs = initial_pair_errors(s5_config)
        ok = ok and pairs[2].x_tilde == pytest.approx(800.0)
        ok = ok and pairs[3].x_tilde == pytest.approx(-2000.0)
        ok = ok and validate_initial(pairs, cons, head.ell1) == []
        verdict(10, "benchmark gains/initial states accepted; every single-"
                    "inequality perturbation rejected by name", ok)
