"""Integrator, closed-loop engine and monitoring tests."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import short_scenario
from oracle import (CompositeState, ObserverState, PlantState, auxiliary_inputs,
                    auxiliary_mu2, b1_coefficient, coefficient_b, composite_rhs,
                    coupling_force, effective_fault, fault_accel_row, fault_input_row,
                    fault_value, observer_gains, observer_rhs, plant_rhs,
                    preliminary_control, snapped_faults, tail_indices, train_slices)
import platoonsim
from platoonsim import controller as ctrl
from platoonsim.errors import BarrierDomainError, ConfigurationError, IntegrationFault
from platoonsim.faults import snap_windows
from platoonsim.model import ConsistTopology
from platoonsim.presets import paper_s5
from platoonsim.simulator import (_BLOCK_STEPS, EVENTS_KEPT, REPRESENTATIONS,
                                  MonitorSpec, SimulationRecord, _ClosedLoop,
                                  inject_disturbance,
                                  monitor_requirements, rk4_step, run_scenario,
                                  validate_config)


class TestRk4Step:
    def test_zero_derivative_keeps_state(self):
        y = np.array([1.0, -2.0, 3.0])
        out = rk4_step(lambda t, y: np.zeros(3), y, 0.0, 0.1)
        assert np.array_equal(out, y)

    def test_linear_decay_matches_quartic_taylor(self):
        out = rk4_step(lambda t, y: -y, np.array([1.0]), 0.0, 0.1)
        assert out[0] == pytest.approx(0.9048375, abs=1e-12)

    def test_fourth_order_convergence(self):
        def run(h):
            y = np.array([0.0])
            n = int(round(1.0 / h))
            for i in range(n):
                y = rk4_step(lambda t, y: np.array([math.cos(t)]), y, i * h, h)
            return abs(y[0] - math.sin(1.0))

        e1, e2 = run(0.01), run(0.005)
        assert e1 / e2 == pytest.approx(16.0, rel=0.2)

    def test_nonfinite_derivative_raises(self):
        def rhs(t, y):
            return np.array([float("nan")])

        with pytest.raises(IntegrationFault) as info:
            rk4_step(rhs, np.array([1.0]), 2.5, 0.1)
        assert info.value.time == 2.5


class TestDisturbance:
    def test_sample_variance(self):
        rng = np.random.default_rng(123)
        draws = np.concatenate([inject_disturbance(rng, 0.5, 10)
                                for _ in range(100_000)])
        assert 0.49 < draws.var() < 0.51
        assert abs(draws.mean()) < 5e-3

    def test_equal_seeds_give_identical_streams(self):
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        for _ in range(100):
            assert np.array_equal(inject_disturbance(a, 0.5, 9),
                                  inject_disturbance(b, 0.5, 9))

    @pytest.mark.parametrize("noise", [False, True], ids=["noise-free", "noisy"])
    def test_generator_built_only_for_a_noisy_run(self, noise):
        # in a fresh interpreter, as this one has imported numpy.random already
        script = ("import dataclasses, sys\n"
                  "from platoonsim.presets import paper_s5\n"
                  "from platoonsim.simulator import run_scenario\n"
                  "config = paper_s5()\n"
                  "run_scenario(dataclasses.replace(config, duration=0.1, noise=\n"
                  f"    dataclasses.replace(config.noise, enabled={noise})))\n"
                  "print('numpy.random' in sys.modules)\n")
        src = Path(platoonsim.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert done.stdout.split() == [str(noise)]

    def test_noisy_run_draws_one_disturbance_per_step(self, s5_config):
        config = short_scenario(s5_config, 0.2, noise=True, record_stride=1)
        record, _ = run_scenario(config)
        engine = _ClosedLoop(config)
        rng = np.random.default_rng(config.noise.seed)
        y = engine.initial_state()
        h = config.step
        for k in range(len(record.t) - 1):
            engine.delta = inject_disturbance(rng, config.noise.variance, engine.nc)
            y = rk4_step(engine.rhs, y, k * h, h)
        for name in ("x", "v", "w"):
            assert np.array_equal(y[engine.sl[name]], record.data[name][-1]), name


class TestConfigValidation:
    def test_degenerate_gains_rejected(self, s5_config):
        bad = dataclasses.replace(
            s5_config, follower_gains=ctrl.FollowerGains(0.0, 0.0, 0.0))
        with pytest.raises(ConfigurationError) as info:
            run_scenario(bad)
        assert any(v.name == "l1 > 0" for v in info.value.violations)

    def test_duration_beyond_profile_rejected(self, s5_config):
        bad = dataclasses.replace(s5_config, duration=5000.0)
        assert any(v.name == "duration <= profile horizon"
                   for v in validate_config(bad))

    def test_unknown_representation_raises(self, s5_config):
        bad = dataclasses.replace(s5_config, representation="hybrid")
        with pytest.raises(ConfigurationError):
            validate_config(bad)

    @pytest.mark.parametrize("change, violation", [
        (lambda c: dict(step=math.nan), "0 < step < inf"),
        (lambda c: dict(step=math.inf), "0 < step < inf"),
        (lambda c: dict(duration=math.nan), "duration > 0"),
        (lambda c: dict(noise=dataclasses.replace(c.noise, enabled=True, variance=math.nan)),
         "0 <= noise variance < inf"),
        (lambda c: dict(record_stride=2.5), "record_stride is an integer >= 1"),
        (lambda c: dict(initial=c.initial[:-1] + (c.initial[-1][:2],)), None),
        (lambda c: dict(observer_initial=tuple((*s[:2], 0.0, 0.0, 0.0, 0.0)[:5 if g == 4 else 6]
                                               for g, s in enumerate(c.initial))), None),
    ], ids=["step-nan", "step-inf", "duration-nan", "variance-nan", "stride-float",
            "initial-entry", "observer-initial-entry"])
    def test_malformed_scenario_named_error(self, s5_config, change, violation):
        with pytest.raises(ConfigurationError) as info:
            run_scenario(dataclasses.replace(s5_config, **change(s5_config)))
        if violation is not None:
            assert violation in [v.name for v in info.value.violations]


# The engine-level properties report a failing example as found: shrinking
# one through whole-network evaluations takes minutes.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def mixed_config(config, **changes):
    """``config`` on topology (4, 2, 3, 2), with a mass and an actuator rate per carriage.

    The carriages repeat ``config``'s nine; mass and actuator rate grow along
    the chain, so that every ``b2`` differs from the ``b3`` it sits beside and
    a neighbour term taken from the wrong side shows.  Train pair k starts at
    the k-th of the gap errors (0, 800, -2000, 300) m with carriages at the
    coupler spacing, and every pair starts inside its barrier domain.
    """
    counts = (4, 2, 3, 2)
    nc = sum(counts)
    carriages = []
    for g in range(nc):
        base = config.carriages[g % 9]
        carriages.append(dataclasses.replace(base, mass=base.mass * (1 + 0.1 * g),
                                             actuator_rate=base.actuator_rate * (1 + 0.05 * g)))
    d_s, d_p = config.constraints.d_s, config.coupler.spacing
    initial = []
    for m_i, gap in zip(counts, (0.0, 800.0, -2000.0, 300.0)):
        x_head = initial[-1][0] - d_s - gap if initial else config.initial[0][0]
        for j in range(m_i):
            initial.append((x_head - d_p * j, config.initial[len(initial) % 9][1], 0.0))
    return short_scenario(config, 20.0, topology=ConsistTopology(counts),
                          carriages=tuple(carriages), initial=tuple(initial), **changes)


def check_scalar_assembly(config):
    """Derivatives at a perturbed initial state against the per-carriage oracle."""
    engine = _ClosedLoop(config)
    rng = np.random.default_rng(77)
    t = 450.0  # inside the first carriage's constant-fault window
    # the initial state moved along with the virtual lead to t, so every
    # train pair keeps its initial errors, inside the barrier domain (left
    # where it is, pair 1 would be clamped and every input about 1e51)
    y = engine.initial_state()
    lead_moved = np.subtract(config.profile.evaluate(t)[:2], config.profile.evaluate(0.0)[:2])
    for names, shift in ((("x", "xh"), lead_moved[0]), (("v", "vh"), lead_moved[1])):
        for name in names:
            y[engine.sl[name]] += shift
    # perturb estimates so every correction term is exercised
    y[engine.sl["xh"]] += rng.uniform(-0.5, 0.5, engine.nc)
    y[engine.sl["vh"]] += rng.uniform(-0.5, 0.5, engine.nc)
    y[engine.sl["wh"]] += rng.uniform(-0.5, 0.5, engine.nc)
    y[engine.sl["fh"]] += rng.uniform(-0.5, 0.5, 3 * engine.nc)
    engine.delta = rng.uniform(-0.1, 0.1, engine.nc)
    dy, (u_engine, ef_true, ef_hat) = engine.evaluate(t, y)
    assert not engine.violations

    topo = config.topology
    coupler, davis = config.coupler, config.davis
    gains = observer_gains(config)
    nc = engine.nc
    x = y[engine.sl["x"]]
    v = y[engine.sl["v"]]
    w = y[engine.sl["w"]]
    xh = y[engine.sl["xh"]]
    vh = y[engine.sl["vh"]]
    wh = y[engine.sl["wh"]]
    fh = y[engine.sl["fh"]].reshape(nc, 3)

    x0r, v0r, w0r, u0r = config.profile.evaluate(t)
    labels = list(topo.carriage_ids())
    faults = [snap_windows(c.fault, config.step) for c in config.carriages]

    def train_bounds(i):
        start = sum(topo.carriages_per_train[: i - 1])
        return start, start + topo.carriages_per_train[i - 1]

    # corrections, two-phase
    mu2 = np.empty(nc)
    for g, (i, j) in enumerate(labels):
        s, e = train_bounds(i)
        m_i = e - s
        prev = g - 1 if j > 1 else None
        nxt = g + 1 if j < m_i else None
        mu2[g] = auxiliary_mu2(
            j, m_i, v[g], vh[g],
            None if prev is None else v[prev],
            None if prev is None else vh[prev],
            None if nxt is None else v[nxt],
            None if nxt is None else vh[nxt],
            gains[g], config.carriages[g], coupler, davis)
    aux = []
    for g, (i, j) in enumerate(labels):
        s, e = train_bounds(i)
        m_i = e - s
        prev = g - 1 if j > 1 else None
        nxt = g + 1 if j < m_i else None
        est = ObserverState(x_hat=xh[g], v_hat=vh[g], w_hat=wh[g], f_hat=fh[g])
        aux.append(auxiliary_inputs(
            j, m_i, x[g], v[g], est,
            None if prev is None else v[prev],
            None if prev is None else vh[prev],
            None if nxt is None else v[nxt],
            None if nxt is None else vh[nxt],
            None if prev is None else mu2[prev],
            None if nxt is None else mu2[nxt],
            gains[g], config.carriages[g], coupler, davis))
        assert aux[g].mu2 == pytest.approx(mu2[g], rel=1e-12)

    # chain-ordered controls
    u = np.empty(nc)
    whdot = np.empty(nc)
    vr1, vr2 = config.constraints.varrho(config.head_gains.ell1)
    front = (x0r, v0r, w0r, u0r)
    for g, (i, j) in enumerate(labels):
        s, e = train_bounds(i)
        m_i = e - s
        b1 = b1_coefficient(v[g], j, m_i, config.carriages[g], coupler, davis)
        b_over_m = coupler.damping / config.carriages[g].mass
        cf_hat = float(np.dot(fault_accel_row(config.carriages[g]), fh[g]))
        if j == 1:
            x_f, v_f, wh_f, g_front = front
            pe = ctrl.TrainPairErrors.from_states(
                x_f, v_f, x[g], v[g], config.constraints.d_s,
                config.head_gains.ell1)
            u[g] = ctrl.head_control(
                g_front, b1, b_over_m, wh[g], wh[g + 1], cf_hat, aux[g].mu3,
                pe.x_tilde, pe.v_tilde, wh_f - wh[g], config.head_gains,
                config.constraints.rho1, config.constraints.rho2, vr1, vr2,
                saturate=True)
            whdot[g] = (b1 * wh[g] + b_over_m * wh[g + 1] + cf_hat
                        + u[g] + aux[g].mu3)
        else:
            p = g - 1
            wh_next = wh[g + 1] if j < m_i else None
            u[g] = ctrl.follower_control(
                xh[g], vh[g], wh[g], xh[p], vh[p], wh[p], wh_next,
                vh[g] + aux[g].mu1, wh[g] + aux[g].mu2,
                vh[p] + aux[p].mu1, wh[p] + aux[p].mu2, whdot[p],
                b1, b_over_m, 0.0 if wh_next is None else b_over_m,
                cf_hat, aux[g].mu3, config.follower_gains, coupler.spacing)
            whdot[g] = b1 * wh[g] + b_over_m * wh[p] + cf_hat + u[g] + aux[g].mu3
            if wh_next is not None:
                whdot[g] += b_over_m * wh_next
        if j == m_i:
            front = (x[g], v[g], wh[g], whdot[g])

    assert u_engine == pytest.approx(u, rel=1e-12, abs=1e-12)

    # state and observer derivatives; the jerks cancel the same large terms
    # in a different order, so they are compared at the scale of the inputs
    scale = max(np.abs(u).max(), 1.0)
    for g, (i, j) in enumerate(labels):
        s, e = train_bounds(i)
        m_i = e - s
        f_t = fault_value(t, faults[g])
        state = CompositeState(x=x[g], v=v[g], w=w[g], f=f_t)
        d_true = composite_rhs(
            state, j, m_i, w[g - 1] if j > 1 else None,
            w[g + 1] if j < m_i else None, u[g],
            config.carriages[g], coupler, davis)
        assert dy[engine.sl["x"]][g] == pytest.approx(d_true.x, rel=1e-12)
        assert dy[engine.sl["v"]][g] == pytest.approx(d_true.v, rel=1e-12)
        assert dy[engine.sl["w"]][g] == pytest.approx(
            d_true.w + engine.delta[g], rel=1e-12, abs=1e-12 * scale)
        est = ObserverState(x_hat=xh[g], v_hat=vh[g], w_hat=wh[g], f_hat=fh[g])
        d_obs = observer_rhs(
            est, aux[g], u[g], wh[g - 1] if j > 1 else None,
            wh[g + 1] if j < m_i else None, v[g], j, m_i,
            config.carriages[g], coupler, davis)
        assert dy[engine.sl["xh"]][g] == pytest.approx(d_obs.x_hat, rel=1e-12)
        assert dy[engine.sl["vh"]][g] == pytest.approx(d_obs.v_hat, rel=1e-12)
        assert dy[engine.sl["wh"]][g] == pytest.approx(d_obs.w_hat, rel=1e-12,
                                                       abs=1e-12 * scale)
        assert dy[engine.sl["fh"]].reshape(nc, 3)[g] == pytest.approx(
            d_obs.f_hat, rel=1e-12, abs=1e-15)


class TestEngineAgainstScalarContract:
    """The vectorized engine must agree with the per-carriage oracle functions."""

    def test_derivatives_match_scalar_assembly(self, s5_config):
        check_scalar_assembly(short_scenario(s5_config, 20.0))


class TestEngineAgainstScalarContractMixed:
    """The same check on a mixed consist: unequal masses and actuator rates."""

    def test_config_is_feasible(self, s5_config):
        assert validate_config(mixed_config(s5_config)) == []

    def test_derivatives_match_scalar_assembly(self, s5_config):
        check_scalar_assembly(mixed_config(s5_config))


class TestObserverGainsOracle:
    """``oracle.observer_gains`` gives the gains the engine runs with."""

    @pytest.mark.parametrize("which", ["paper_s5", "mixed", "override"])
    def test_matches_engine_gain_arrays(self, s5_config, which):
        config = short_scenario(s5_config, 20.0)
        if which == "mixed":
            config = mixed_config(s5_config)
        elif which == "override":
            config = dataclasses.replace(
                config, observer_gain_override=(4.0, 5.0, -6.0, 7.0, 8.0))
        engine = _ClosedLoop(config)
        gains = observer_gains(config)
        assert len(gains) == engine.nc
        for name in ("k1", "k2", "k3", "k4"):
            oracle = np.array([getattr(g, name) for g in gains])
            assert np.array_equal(oracle, getattr(engine, name + "g")), name


def neighbour_indices(nc):
    """Index of the carriage ahead and behind each one, clipped at the chain ends."""
    return np.maximum(np.arange(nc) - 1, 0), np.minimum(np.arange(nc) + 1, nc - 1)


def per_carriage_controls(engine, t, y):
    """Controls and estimated-jerk derivatives assembled carriage by carriage.

    The reference for the engine's array control layer: the observer terms
    as the engine computes them, then the scalar head and follower laws in
    chain order, each follower fed its predecessor's derivative and each
    head the front tail's.
    """
    cfg = engine.config
    sl = engine.sl
    nc = engine.nc
    xh, vh, wh = y[sl["xh"]], y[sl["vh"]], y[sl["wh"]]
    fh = y[sl["fh"]].reshape(nc, 3)
    xm, vm = y[sl["x"]], y[sl["v"]]
    prev, nxt = neighbour_indices(nc)
    x0r, v0r, w0r, u0r = cfg.profile.evaluate(t)
    cf_hat = (fh[:, 0] * engine.upsilon + fh[:, 2] * engine.nu_omega) / engine.mass
    e_x, e_v = xh - xm, vh - vm
    b1v = engine.bm1 - 2.0 * engine.c2 * vm
    b1vh = engine.bm1 - 2.0 * engine.c2 * vh
    mu2 = (engine.bm1 * (vm - vh) - engine.c2 * (vm * vm - vh * vh) + engine.k2g * e_v
           + engine.b2 * (vm[prev] - vh[prev]) + engine.b3 * (vm[nxt] - vh[nxt]))
    mu3 = (b1v * mu2 + engine.k3g * e_v + (b1vh - b1v) * (wh + mu2)
           + engine.b2 * mu2[prev] + engine.b3 * mu2[nxt])
    xhdot = vh + (-engine.k1g * e_x - e_v)
    vhdot = wh + mu2

    u = np.zeros(nc)
    whdot = np.empty(nc)
    tails = tail_indices(cfg)
    for ti, (s, e) in enumerate(train_slices(cfg)):
        g = s
        if ti == 0:
            x_f, v_f, wh_f, g_front = x0r, v0r, w0r, u0r
        else:
            f = tails[ti - 1]
            x_f, v_f, wh_f, g_front = xm[f], vm[f], wh[f], whdot[f]
        u[g] = ctrl.head_control(
            g_front, b1v[g], engine.b3[g], wh[g], wh[g + 1], cf_hat[g], mu3[g],
            (x_f - xm[g]) - engine.d_s, v_f - vm[g], wh_f - wh[g], engine.hgains,
            engine.rho1, engine.rho2, engine.vr1, engine.vr2, saturate=True)
        whdot[g] = b1v[g] * wh[g] + engine.b3[g] * wh[g + 1] + cf_hat[g] + u[g] + mu3[g]
        for g in range(s + 1, e):
            p = g - 1
            wh_next = wh[g + 1] if g + 1 < e else None
            u[g] = ctrl.follower_control(
                xh[g], vh[g], wh[g], xh[p], vh[p], wh[p], wh_next,
                xhdot[g], vhdot[g], xhdot[p], vhdot[p], whdot[p],
                b1v[g], engine.b2[g], engine.b3[g], cf_hat[g], mu3[g],
                engine.fgains, engine.d_p)
            whdot[g] = b1v[g] * wh[g] + engine.b2[g] * wh[p] + cf_hat[g] + u[g] + mu3[g]
            if wh_next is not None:
                whdot[g] += engine.b3[g] * wh_next
    return u, whdot


def unit_intervals(n):
    return st.lists(st.floats(-0.95, 0.95), min_size=n, max_size=n)


def random_feasible_state(engine, t, gap, combined, rng):
    """A state whose train pairs sit at given fractions of their barrier domains."""
    nc, sl = engine.nc, engine.sl
    x, v = np.empty(nc), np.empty(nc)
    front_x, front_v = engine.config.profile.evaluate(t)[:2]
    for k, (s, e) in enumerate(train_slices(engine.config)):
        xt = gap[k] * (engine.rho1 if gap[k] > 0 else engine.rho2)
        qt = combined[k] * (engine.vr1 if combined[k] > 0 else engine.vr2)
        x[s] = front_x - engine.d_s - xt
        v[s] = front_v - (qt - engine.hgains.ell1 * xt)
        x[s + 1:e] = x[s] - engine.d_p * np.arange(1, e - s) + rng.uniform(-5, 5, e - s - 1)
        v[s + 1:e] = v[s] + rng.uniform(-2, 2, e - s - 1)
        front_x, front_v = x[e - 1], v[e - 1]
    y = engine.initial_state()
    w = rng.uniform(-1, 1, nc)
    if engine.has_composite:
        y[sl["x"]], y[sl["v"]], y[sl["w"]] = x, v, w
    if engine.has_plant:
        y[sl["xp"]] = x + rng.uniform(-1e-3, 1e-3, nc)
        y[sl["vp"]] = v + rng.uniform(-1e-3, 1e-3, nc)
        y[sl["tau"]] = rng.uniform(-2e5, 2e5, nc)
    y[sl["xh"]] = x + rng.uniform(-1, 1, nc)
    y[sl["vh"]] = v + rng.uniform(-1, 1, nc)
    y[sl["wh"]] = w + rng.uniform(-1, 1, nc)
    y[sl["fh"]] = rng.uniform(-1, 1, 3 * nc)
    return y


def check_per_carriage_controls(engine, t, gap, combined, seed):
    """Controls and estimated-jerk derivatives at a random feasible state."""
    # train pairs at random points of their barrier domains, carriages
    # and estimates scattered around them
    y = random_feasible_state(engine, t, gap, combined, np.random.default_rng(seed))
    dy, (u, _, _) = engine.evaluate(t, y)
    assert not engine.violations
    u_ref, whdot_ref = per_carriage_controls(engine, t, y)
    # both forms cancel the same large terms in a different order, so a
    # carriage whose input is small against them is compared at the scale
    # of the whole input vector
    scale = max(np.abs(u_ref).max(), 1.0)
    assert np.abs(u - u_ref).max() <= 1e-12 * scale
    assert np.abs(dy[engine.sl["wh"]] - whdot_ref).max() <= 1e-12 * scale


class TestEngineAgainstPerCarriageControls:
    """The array control layer against the carriage-by-carriage assembly."""

    @pytest.fixture(scope="class")
    def engine(self, s5_config):
        return _ClosedLoop(short_scenario(s5_config, 20.0))

    @settings(max_examples=150, deadline=None, phases=NO_SHRINK)
    @given(t=st.floats(0.0, 2400.0), gap=unit_intervals(3), combined=unit_intervals(3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_feasible_states(self, engine, t, gap, combined, seed):
        check_per_carriage_controls(engine, t, gap, combined, seed)


class TestEngineAgainstPerCarriageControlsMixed:
    """The same check on a mixed consist: unequal masses and actuator rates."""

    @pytest.fixture(scope="class")
    def engine(self, s5_config):
        return _ClosedLoop(mixed_config(s5_config))

    @settings(max_examples=150, deadline=None, phases=NO_SHRINK)
    @given(t=st.floats(0.0, 2400.0), gap=unit_intervals(4), combined=unit_intervals(4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_feasible_states(self, engine, t, gap, combined, seed):
        check_per_carriage_controls(engine, t, gap, combined, seed)


def pair_errors(engine, t, y):
    """Per train pair, ``(x_tilde, v_tilde, what_tilde)`` formed with ``TrainPairErrors``."""
    sl = engine.sl
    xm, vm, wh = y[sl["x"]], y[sl["v"]], y[sl["wh"]]
    x_f, v_f, w_f = engine.config.profile.evaluate(t)[:3]
    out = []
    tails = tail_indices(engine.config)
    for k, (s, e) in enumerate(train_slices(engine.config)):
        if k:
            f = tails[k - 1]
            x_f, v_f, w_f = float(xm[f]), float(vm[f]), float(wh[f])
        err = ctrl.TrainPairErrors.from_states(x_f, v_f, float(xm[s]), float(vm[s]),
                                               engine.d_s, engine.hgains.ell1)
        out.append((err.x_tilde, err.v_tilde, w_f - float(wh[s])))
    return out


QUANTITY_ORDER = {"xtilde": 0, "qtilde": 1}


def check_head_law_per_pair(configs, outside, t, gap, combined, push, seed):
    """The head increments, clamp events and abort of a saturating/aborting engine pair.

    Returns the saturating engine and the state it was evaluated at.
    """
    saturating, aborting = (_ClosedLoop(c) for c in configs)
    for k in outside:
        quantity, factor, negative = push[k]
        sign = -1.0 if negative else 1.0
        if quantity != "qtilde":
            gap[k] = sign * factor
        if quantity != "xtilde":
            combined[k] = sign * factor
    y = random_feasible_state(saturating, t, gap, combined, np.random.default_rng(seed))
    lead = saturating.config.profile.evaluate(t)[:3]
    got = saturating._head_feedback(t, y, *lead)

    h = saturating.hgains
    bounds = (saturating.rho1, saturating.rho2, saturating.vr1, saturating.vr2)
    expected, events = [], []
    for pair, (xt, vt, wt) in enumerate(pair_errors(saturating, t, y), start=1):
        def record(kind, value, lo, hi, pair=pair):
            events.append({"t": t, "pair": pair, "quantity": kind,
                           "value": value, "low": lo, "high": hi})
        beta = ctrl.beta_functions(xt, vt, wt, h, *bounds, saturate=True, record=record)
        expected.append(ctrl.head_feedback(vt + h.ell1 * xt, vt, wt, beta, h))
    assert [float(v).hex() for v in got] == [v.hex() for v in expected]

    assert saturating.violations == events
    keys = [(e["pair"], QUANTITY_ORDER[e["quantity"]]) for e in events]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert {pair for pair, _ in keys} == {k + 1 for k in outside}

    if not outside:
        assert aborting._head_feedback(t, y, *lead) == got
        return saturating, y
    with pytest.raises(BarrierDomainError) as raised:
        aborting._head_feedback(t, y, *lead)
    first = events[0]
    assert (raised.value.value, raised.value.low, raised.value.high) == (
        first["value"], first["low"], first["high"])
    assert not aborting.violations
    return saturating, y


class TestHeadLawPerPair:
    """The engine's head increments against the per-pair head-law functions.

    Pairs listed in ``outside`` have their gap error, combined error or both
    pushed past the barrier domain, so the clamp (or, in abort mode, the
    domain error) path runs for exactly those pairs.
    """

    @pytest.fixture(scope="class")
    def configs(self, s5_config):
        config = short_scenario(s5_config, 20.0)
        return config, dataclasses.replace(config, abort_on_violation=True)

    @pytest.mark.parametrize("outside", [(), (1,), (0, 2), (0, 1, 2)],
                             ids=["none", "one", "two", "every"])
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(t=st.floats(0.0, 2400.0), gap=unit_intervals(3), combined=unit_intervals(3),
           push=st.lists(st.tuples(st.sampled_from(["xtilde", "qtilde", "both"]),
                                   st.floats(1.05, 3.0), st.booleans()),
                         min_size=3, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_increments_events_and_abort(self, configs, outside, t, gap, combined, push,
                                         seed):
        check_head_law_per_pair(configs, outside, t, gap, combined, push, seed)


class TestHeadLawPerPairMixed:
    """The same checks on a mixed consist: unequal masses and actuator rates.

    The full evaluation is checked too, against the carriage-by-carriage
    assembly: for every carriage ahead of the first pair pushed outside (all
    of them when none is), since behind it the clamped head law's
    astronomically large increment reaches every derivative through the
    chain.  There the derivatives only have to be finite.
    """

    @pytest.fixture(scope="class")
    def configs(self, s5_config):
        config = mixed_config(s5_config)
        return config, dataclasses.replace(config, abort_on_violation=True)

    @pytest.mark.parametrize("outside", [(), (3,), (1, 2), (0, 1, 2, 3)],
                             ids=["none", "one", "two", "every"])
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(t=st.floats(0.0, 2400.0), gap=unit_intervals(4), combined=unit_intervals(4),
           push=st.lists(st.tuples(st.sampled_from(["xtilde", "qtilde", "both"]),
                                   st.floats(1.05, 3.0), st.booleans()),
                         min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_increments_events_and_abort(self, configs, outside, t, gap, combined, push,
                                         seed):
        engine, y = check_head_law_per_pair(configs, outside, t, gap, combined, push, seed)
        dy, (u, _, _) = engine.evaluate(t, y)
        assert np.isfinite(dy).all()
        u_ref, whdot_ref = per_carriage_controls(engine, t, y)
        ahead = engine.heads[min(outside)] if outside else engine.nc
        if ahead:
            scale = max(np.abs(u_ref[:ahead]).max(), 1.0)
            assert np.abs(u - u_ref)[:ahead].max() <= 1e-12 * scale
            assert np.abs(dy[engine.sl["wh"]] - whdot_ref)[:ahead].max() <= 1e-12 * scale


def scalar_derivatives(engine, t, y):
    """Derivative vector and controls assembled carriage by carriage.

    Everything comes from the per-carriage module functions: observer
    corrections and derivatives, the scalar head and follower laws in chain
    order (or no input under the zero law), the composite dynamics and, for
    a plant block, the preliminary control and the plant dynamics.
    """
    cfg = engine.config
    coupler, davis = cfg.coupler, cfg.davis
    gains = observer_gains(cfg)
    sl, nc = engine.sl, engine.nc
    meas = ("xp", "vp") if engine.measure_from_plant else ("x", "v")
    xm, vm = y[sl[meas[0]]], y[sl[meas[1]]]
    xh, vh, wh = y[sl["xh"]], y[sl["vh"]], y[sl["wh"]]
    fh = y[sl["fh"]].reshape(nc, 3)
    x0r, v0r, w0r, u0r = cfg.profile.evaluate(t)
    faults = [snap_windows(c.fault, cfg.step) for c in cfg.carriages]
    chain = []   # (g, j, m_i, first carriage of the train)
    start = 0
    for m_i in cfg.topology.carriages_per_train:
        chain += [(start + j - 1, j, m_i, start) for j in range(1, m_i + 1)]
        start += m_i

    def neighbours(values, g, j, m_i):
        return (values[g - 1] if j > 1 else None, values[g + 1] if j < m_i else None)

    def around(g, j, m_i, measured, estimated):
        (mp, mn), (ep, en) = neighbours(measured, g, j, m_i), neighbours(estimated, g, j, m_i)
        return mp, ep, mn, en

    mu2 = [auxiliary_mu2(j, m_i, vm[g], vh[g], *around(g, j, m_i, vm, vh),
                             gains[g], cfg.carriages[g], coupler, davis)
           for g, j, m_i, _ in chain]
    est = [ObserverState(x_hat=xh[g], v_hat=vh[g], w_hat=wh[g], f_hat=fh[g])
           for g in range(nc)]
    aux = [auxiliary_inputs(j, m_i, xm[g], vm[g], est[g], *around(g, j, m_i, vm, vh),
                                *neighbours(mu2, g, j, m_i), gains[g],
                                cfg.carriages[g], coupler, davis)
           for g, j, m_i, _ in chain]

    u = np.zeros(nc)
    d_obs = [None] * nc
    front = (x0r, v0r, w0r, u0r)
    for g, j, m_i, _ in chain:
        carriage = cfg.carriages[g]
        b1 = b1_coefficient(vm[g], j, m_i, carriage, coupler, davis)
        b_over_m = coupler.damping / carriage.mass
        cf_hat = float(np.dot(fault_accel_row(carriage), fh[g]))
        wh_prev, wh_next = neighbours(wh, g, j, m_i)
        designed = cfg.control_law == "designed"
        if designed and j == 1:
            x_f, v_f, wh_f, g_front = front
            u[g] = ctrl.head_control(
                g_front, b1, b_over_m, wh[g], wh_next, cf_hat, aux[g].mu3,
                (x_f - xm[g]) - cfg.constraints.d_s, v_f - vm[g], wh_f - wh[g],
                cfg.head_gains, engine.rho1, engine.rho2, engine.vr1, engine.vr2,
                saturate=True)
        elif designed:
            p = g - 1
            u[g] = ctrl.follower_control(
                xh[g], vh[g], wh[g], xh[p], vh[p], wh[p], wh_next,
                vh[g] + aux[g].mu1, wh[g] + aux[g].mu2, vh[p] + aux[p].mu1, wh[p] + aux[p].mu2,
                d_obs[p].w_hat, b1, b_over_m, 0.0 if wh_next is None else b_over_m,
                cf_hat, aux[g].mu3, cfg.follower_gains, coupler.spacing)
        d_obs[g] = observer_rhs(est[g], aux[g], u[g], wh_prev, wh_next, vm[g], j,
                                    m_i, carriage, coupler, davis)
        if j == m_i:
            front = (xm[g], vm[g], wh[g], d_obs[g].w_hat)

    dy = np.empty(engine.n_states)
    dy[sl["xh"]] = [d.x_hat for d in d_obs]
    dy[sl["vh"]] = [d.v_hat for d in d_obs]
    dy[sl["wh"]] = [d.w_hat for d in d_obs]
    dy[sl["fh"]] = np.concatenate([d.f_hat for d in d_obs])
    for g, j, m_i, s in chain:
        carriage = cfg.carriages[g]
        f_true = fault_value(t, faults[g])
        if engine.has_composite:
            x, v, w = y[sl["x"]], y[sl["v"]], y[sl["w"]]
            d = composite_rhs(CompositeState(x=x[g], v=v[g], w=w[g], f=f_true), j, m_i,
                              *neighbours(w, g, j, m_i), u[g], carriage, coupler, davis)
            dy[sl["x"]][g], dy[sl["v"]][g] = d.x, d.v
            dy[sl["w"]][g] = d.w + engine.delta[g]
        if engine.has_plant:
            xp, vp, tau = y[sl["xp"]], y[sl["vp"]], y[sl["tau"]]
            x_i, v_i = xp[s:s + m_i], vp[s:s + m_i]
            varpi = (preliminary_control(u[g], j, x_i, v_i, carriage, coupler, davis)
                     + carriage.mass * engine.delta[g])
            d = plant_rhs(PlantState(x=xp[g], v=vp[g], tau=tau[g], f=f_true), j, x_i, v_i,
                          varpi, carriage, coupler, davis)
            dy[sl["xp"]][g], dy[sl["vp"]][g], dy[sl["tau"]][g] = d.x, d.v, d.tau
    return dy, u


def fault_edges(config):
    """Every snapped fault-window edge of a scenario: the instants a mode switches."""
    edges = set()
    for carriage in config.carriages:
        fault = snap_windows(carriage.fault, config.step)
        edges.update(fault.window_const + fault.window_periodic)
    return sorted(edges)


def check_scalar_contract(engine, t, gap, combined, seed):
    """Derivatives, controls and fault force rates at a random feasible state."""
    rng = np.random.default_rng(seed)
    y = random_feasible_state(engine, t, gap, combined, rng)
    engine.delta = rng.uniform(-0.1, 0.1, engine.nc)
    dy, (u, ef_true, ef_hat) = engine.evaluate(t, y)
    assert not engine.violations
    dy_ref, u_ref = scalar_derivatives(engine, t, y)

    def close(got, ref):
        return np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)

    assert close(u, u_ref)
    for name, part in engine.sl.items():
        assert close(dy[part], dy_ref[part]), name
    carriages = engine.config.carriages
    fh = y[engine.sl["fh"]].reshape(engine.nc, 3)
    assert close(ef_true, [effective_fault(t, snap_windows(c.fault, engine.config.step),
                                           c.mass)[0] for c in carriages])
    assert close(ef_hat, [np.dot(fault_input_row(c), f) for c, f in zip(carriages, fh)])


class TestEngineAgainstScalarContractProperty:
    """The engine against the per-carriage module functions at random states and times."""

    @pytest.fixture(scope="class", params=[("designed", "composite"), ("zero", "composite"),
                                           ("designed", "both"), ("zero", "both")],
                    ids=lambda p: "-".join(p))
    def engine(self, request, s5_config):
        law, representation = request.param
        return _ClosedLoop(short_scenario(s5_config, 20.0, control_law=law,
                                          representation=representation))

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(t=st.one_of(st.floats(0.0, 2400.0), st.sampled_from(fault_edges(paper_s5()))),
           gap=unit_intervals(3), combined=unit_intervals(3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_states(self, engine, t, gap, combined, seed):
        check_scalar_contract(engine, t, gap, combined, seed)


class TestEngineAgainstScalarContractPropertyMixed:
    """The same check on a mixed consist: unequal masses and actuator rates."""

    @pytest.fixture(scope="class", params=[("designed", "composite"), ("zero", "composite"),
                                           ("designed", "both"), ("zero", "both")],
                    ids=lambda p: "-".join(p))
    def engine(self, request, s5_config):
        law, representation = request.param
        return _ClosedLoop(mixed_config(s5_config, control_law=law,
                                        representation=representation))

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(t=st.one_of(st.floats(0.0, 2400.0),
                       st.sampled_from(fault_edges(mixed_config(paper_s5())))),
           gap=unit_intervals(4), combined=unit_intervals(4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_states(self, engine, t, gap, combined, seed):
        check_scalar_contract(engine, t, gap, combined, seed)


def coupled_jerk_terms(engine, y):
    """The composite coupling and the estimated jerk without input, in mu3 form.

    The engine's former assembly, kept as an oracle: mu3 carries the
    correction of the velocity-error injection, and the coupling
    b1(v) a + b2 a_ahead + b3 a_behind is applied at the measured velocity
    to the composite w and to wh.  Returns (composite coupling or None,
    estimated jerk without control input).
    """
    sl, nc = engine.sl, engine.nc
    meas = ("xp", "vp") if engine.measure_from_plant else ("x", "v")
    vm = y[sl[meas[1]]]
    vh, wh = y[sl["vh"]], y[sl["wh"]]
    fh = y[sl["fh"]].reshape(nc, 3)
    prev, nxt = neighbour_indices(nc)
    cf_hat = (fh[:, 0] * engine.upsilon + fh[:, 2] * engine.nu_omega) / engine.mass
    e_v = vh - vm
    b1v = engine.bm1 - 2.0 * engine.c2 * vm
    b1vh = engine.bm1 - 2.0 * engine.c2 * vh
    mu2 = (engine.bm1 * (vm - vh) - engine.c2 * (vm * vm - vh * vh) + engine.k2g * e_v
           + engine.b2 * (vm[prev] - vh[prev]) + engine.b3 * (vm[nxt] - vh[nxt]))
    mu3 = (b1v * mu2 + engine.k3g * e_v + (b1vh - b1v) * (wh + mu2)
           + engine.b2 * mu2[prev] + engine.b3 * mu2[nxt])

    def coupled(a):
        return b1v * a + engine.b2 * a[prev] + engine.b3 * a[nxt]

    composite = coupled(y[sl["w"]]) if engine.has_composite else None
    return composite, coupled(wh) + cf_hat + mu3


class TestEstimatedJerkIdentity:
    """B(vh) vhdot + k3 e_v + cf_hat is the mu3 form of the estimated jerk.

    With vhdot = wh + mu2 the two are equal in exact arithmetic; under the
    zero law the engine's whdot is that jerk alone.  The composite channel
    is checked against b1(v) w + b2 w_ahead + b3 w_behind the same way.
    The masses differ from carriage to carriage, so that T applied
    transposed (the damping weight of the wrong neighbour) shows.
    """

    @pytest.fixture(scope="class", params=["composite", "plant", "both"])
    def engine(self, request, s5_config):
        carriages = tuple(dataclasses.replace(c, mass=c.mass * (1 + 0.1 * g))
                          for g, c in enumerate(s5_config.carriages))
        return _ClosedLoop(short_scenario(s5_config, 20.0, control_law="zero",
                                          representation=request.param,
                                          carriages=carriages))

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(t=st.one_of(st.floats(0.0, 2400.0), st.sampled_from(fault_edges(paper_s5()))),
           gap=unit_intervals(3), combined=unit_intervals(3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_operator_form_matches_mu3_form(self, engine, t, gap, combined, seed):
        rng = np.random.default_rng(seed)
        y = random_feasible_state(engine, t, gap, combined, rng)
        engine.delta = rng.uniform(-0.1, 0.1, engine.nc)
        dy, (u, _, _) = engine.evaluate(t, y)
        composite, own = coupled_jerk_terms(engine, y)

        def close(got, ref):
            return np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)

        assert close(dy[engine.sl["wh"]], own)
        if composite is not None:
            cf_true = engine.time_terms(t)[5]
            assert close(dy[engine.sl["w"]], composite + cf_true + u + engine.delta)


class TestTrueFaultTerms:
    """The engine's windowed fault force rate against ``oracle.effective_fault``."""

    @pytest.fixture(scope="class")
    def engine(self, s5_config):
        return _ClosedLoop(short_scenario(s5_config, 20.0))

    def check(self, engine, t):
        ef_true, cf_true = engine.time_terms(t)[4:]
        for g, (fault, carriage) in enumerate(zip(snapped_faults(engine.config),
                                                  engine.config.carriages)):
            ef, cf = effective_fault(t, fault, carriage.mass)
            assert ef_true[g] == pytest.approx(ef, rel=1e-12, abs=0.0), (t, g)
            assert cf_true[g] == pytest.approx(cf, rel=1e-12, abs=0.0), (t, g)

    @settings(max_examples=200, deadline=None, phases=NO_SHRINK)
    @given(t=st.floats(0.0, 2400.0))
    def test_random_times(self, engine, t):
        self.check(engine, t)

    def test_snapped_window_edges(self, engine):
        # the closed window ends, and half a step either side of each
        h = engine.config.step
        for edge in fault_edges(engine.config):
            for t in (edge - h / 2, edge, edge + h / 2):
                self.check(engine, t)


class TestTimeTermCache:
    """Reference and true-fault terms are kept for a block of stage times."""

    @pytest.fixture()
    def engine(self, s5_config):
        return _ClosedLoop(short_scenario(s5_config, 20.0, representation="both"))

    def test_cached_terms_match_fresh_engines(self, engine):
        h = engine.config.step
        y = random_feasible_state(engine, 400.0, [0.3, -0.2, 0.1], [-0.4, 0.2, 0.5],
                                  np.random.default_rng(3))
        edge = fault_edges(engine.config)[0]
        for t0 in (400.0, edge - h, edge - h / 2, edge):
            for t in (t0, t0 + 0.5 * h, t0 + 0.5 * h, t0 + h):
                dy, diag = engine.evaluate(t, y)
                fresh_dy, fresh_diag = _ClosedLoop(engine.config).evaluate(t, y)
                assert np.array_equal(dy.view(np.int64), fresh_dy.view(np.int64)), t
                for got, want in zip(diag, fresh_diag):
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), t

    def test_returned_arrays_do_not_alias_the_cache(self, engine):
        t = 1.0
        y = engine.initial_state()
        dy, diag = engine.evaluate(t, y)
        dy_kept, diag_kept, y_kept = dy.copy(), [a.copy() for a in diag], y.copy()
        # the cached fault terms are shared, so they refuse writes; every
        # other returned array, and the state passed in, is the caller's
        _, ef_true, _ = diag
        with pytest.raises(ValueError):
            ef_true[0] = 7.0
        for array in (dy, diag[0], diag[2], y):
            array[:] = 7.0
        dy_again, diag_again = engine.evaluate(t, y_kept)
        assert np.array_equal(dy_again, dy_kept)
        for got, want in zip(diag_again, diag_kept):
            assert np.array_equal(got, want)

    def test_cache_stays_small_over_a_run(self, engine, monkeypatch):
        blocks = []
        terms = engine._time_terms
        monkeypatch.setattr(engine, "_time_terms",
                            lambda times: blocks.append(list(times)) or terms(times))
        h = engine.config.step
        n_steps = int(round(2.0 / h))
        y = engine.initial_state()
        for i in range(n_steps):
            y = rk4_step(engine.rhs, y, i * h, h)
            assert len(engine._block_rows) <= 3 * _BLOCK_STEPS
            assert len(engine._block[0]) == len(engine._block_rows)
        # one block per _BLOCK_STEPS steps covers every stage time (no time
        # falls back to a one-row block), and no block repeats a time
        assert len(blocks) == -(-n_steps // _BLOCK_STEPS)
        assert all(len(set(times)) == len(times) <= 3 * _BLOCK_STEPS for times in blocks)
        # stages 2 and 3 share t + h/2, and t + h is mostly the next step's t
        assert sum(map(len, blocks)) < 3 * n_steps


class TestEngineBuffers:
    """An engine evaluates in its own buffers; what it returns is the caller's."""

    @pytest.fixture(scope="class", params=["paper_s5", "mixed"])
    def config(self, request, s5_config):
        if request.param == "mixed":
            return mixed_config(s5_config)
        return short_scenario(s5_config, 20.0)

    @pytest.fixture(params=REPRESENTATIONS)
    def engine(self, request, config):
        return _ClosedLoop(dataclasses.replace(config, representation=request.param))

    @staticmethod
    def states(engine, seed):
        rng = np.random.default_rng(seed)
        n_trains = engine.n_trains
        return random_feasible_state(engine, 0.0, rng.uniform(-0.5, 0.5, n_trains),
                                     rng.uniform(-0.5, 0.5, n_trains), rng)

    def test_returned_arrays_survive_the_next_evaluation(self, engine):
        y_a, y_b = self.states(engine, 1), self.states(engine, 2)
        kept_a, kept_b = y_a.copy(), y_b.copy()
        engine.delta = np.random.default_rng(3).uniform(-0.1, 0.1, engine.nc)
        dy_a, (u_a, _, ef_hat_a) = engine.evaluate(0.5, y_a)
        returned = [a.copy() for a in (dy_a, u_a, ef_hat_a)]
        engine.evaluate(0.75, y_b)
        for got, want in zip((dy_a, u_a, ef_hat_a), returned):
            assert bitwise_equal(got, want)
        # the states passed in were only read
        assert bitwise_equal(y_a, kept_a) and bitwise_equal(y_b, kept_b)

    def test_alternating_trajectories_match_separate_engines(self, engine):
        h, n_steps = engine.config.step, 25
        rng = np.random.default_rng(4)
        deltas = rng.uniform(-0.1, 0.1, (n_steps, engine.nc))
        # the initial state, and one whose estimates start off by a little more
        start = engine.initial_state()
        est = [engine.sl[name] for name in ("xh", "vh", "wh")]
        other = start.copy()
        for part, spread in zip(est, (0.5, 0.2, 0.1)):
            other[part] += rng.uniform(-spread, spread, engine.nc)
        starts = (start, other)
        shared = list(starts)
        alone = [_ClosedLoop(engine.config) for _ in starts]
        separate = list(starts)
        for k in range(n_steps):
            for i in range(2):
                engine.delta = alone[i].delta = deltas[k]
                shared[i] = rk4_step(engine.rhs, shared[i], k * h, h)
                separate[i] = rk4_step(alone[i].rhs, separate[i], k * h, h)
        assert not engine.violations
        for got, want in zip(shared, separate):
            assert bitwise_equal(got, want)


def per_time_terms(engine, t):
    """The time-only terms at one time, formed from that time alone (the oracle)."""
    amps = np.where((t >= engine.window_start) & (t <= engine.window_end),
                    engine.fault_amps, 0.0)
    ef_true = (engine.upsilon * amps[0]
               + engine.nu_omega * (amps[1] * np.cos(engine.omega * t + engine.f_phi)))
    return (*engine.config.profile.evaluate(t), ef_true, ef_true / engine.mass)


class TestBlockTimeTerms:
    """Block-computed time terms are bitwise the per-time formula wherever they are read."""

    @pytest.fixture(scope="class")
    def engine(self, s5_config):
        return _ClosedLoop(short_scenario(s5_config, 20.0))

    def check(self, engine, t):
        got, want = engine.time_terms(t), per_time_terms(engine, t)
        assert [v.hex() for v in got[:4]] == [v.hex() for v in want[:4]], t
        for a, b in zip(got[4:], want[4:]):
            assert bitwise_equal(a, b), t

    def test_every_stage_time_of_a_run(self, engine):
        h = engine.config.step
        for k in range(int(round(2.0 / h))):
            t = k * h
            for stage_t in (t, t + 0.5 * h, t + 0.5 * h, t + h):
                self.check(engine, stage_t)
                assert stage_t in engine._block_rows

    def test_snapped_window_edges(self, engine):
        # the closed window ends, and half a step either side of each
        h = engine.config.step
        for edge in fault_edges(engine.config):
            for t in (edge - h / 2, edge, edge + h / 2):
                self.check(engine, t)

    def test_across_a_block_boundary(self, engine):
        h = engine.config.step
        for k in (_BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, _BLOCK_STEPS - 1, 0):
            for t in (k * h, k * h + 0.5 * h, k * h + h):
                self.check(engine, t)
        assert engine._block_first == 0

    @settings(max_examples=100, deadline=None, phases=NO_SHRINK)
    @given(t=st.floats(0.0, 2400.0))
    def test_off_grid_times(self, engine, t):
        self.check(engine, t)
        self.check(engine, t)


def coupling_vector_loop(engine, x, v):
    """Coupler force per carriage, telescoped train by train (the engine's oracle)."""
    out = np.zeros(engine.nc)
    a, b, d_p = engine.a_stiff, engine.b_damp, engine.d_p
    for s, e in train_slices(engine.config):
        tk = a * (x[s:e - 1] - x[s + 1:e] - d_p) + b * (v[s:e - 1] - v[s + 1:e])
        out[s:e - 1] += tk
        out[s + 1:e] -= tk
    return out


def stiffness_drift_loop(engine, v):
    """b4 per carriage, telescoped train by train (the engine's oracle)."""
    out = np.zeros(engine.nc)
    for s, e in train_slices(engine.config):
        uk = engine.a_stiff * (v[s:e - 1] - v[s + 1:e])
        out[s:e - 1] += uk
        out[s + 1:e] -= uk
    return -out / engine.mass


def pair_errors_loop(engine, t, xm, vm):
    """Gap and velocity errors of every train pair, walking the chain (the engine's oracle)."""
    x0r, v0r = engine.config.profile.evaluate(t)[:2]
    eps = np.empty(engine.n_trains)
    vt = np.empty(engine.n_trains)
    front_x, front_v = x0r, v0r
    tails = tail_indices(engine.config)
    for ti, (s, _) in enumerate(train_slices(engine.config)):
        eps[ti] = front_x - xm[s]
        vt[ti] = front_v - vm[s]
        fi = tails[ti]
        front_x, front_v = xm[fi], vm[fi]
    return eps, vt


def bitwise_equal(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.fixture(scope="module", params=[(3, 3, 3), (2, 4), (4, 2, 3, 2), (2,)], ids=str)
def topology_engine(request, s5_config):
    """An engine on one of four topologies, with paper-s5's carriages repeated.

    The masses differ from carriage to carriage, so that a damping weight
    taken from the wrong neighbour shows.
    """
    counts = request.param
    nc = sum(counts)
    carriages = tuple(dataclasses.replace(s5_config.carriages[g % 9],
                                          mass=s5_config.carriages[g % 9].mass * (1 + 0.1 * g))
                      for g in range(nc))
    config = short_scenario(s5_config, 20.0, representation="both",
                            topology=ConsistTopology(counts), carriages=carriages,
                            initial=tuple(s5_config.initial[g % 9] for g in range(nc)))
    return _ClosedLoop(config)


def train_of(engine):
    """Per carriage: (global index, index in its train, train length, first index)."""
    return [(g, g - s + 1, e - s, s) for s, e in train_slices(engine.config)
            for g in range(s, e)]


class TestNeighbourOperators:
    """The constant operators against the per-carriage model coefficients."""

    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_tridiagonal_operator_is_the_b_coefficients(self, topology_engine, seed):
        engine = topology_engine
        cfg = engine.config
        v = np.random.default_rng(seed).uniform(0.0, 100.0, engine.nc)
        for g, j, m_i, s in train_of(engine):
            b = coefficient_b(j, v[s:s + m_i], cfg.carriages[g], cfg.coupler, cfg.davis)
            row = engine.tri[g]
            # B(v) = T - 2*c2*diag(v): T's diagonal is b1 at standstill
            assert row[g] == b1_coefficient(0.0, j, m_i, cfg.carriages[g], cfg.coupler,
                                            cfg.davis)
            assert row[g] - 2.0 * engine.c2 * v[g] == pytest.approx(b.b1, rel=1e-12)
            expected = np.zeros(engine.nc)
            expected[g] = row[g]
            if j > 1:
                expected[g - 1] = b.b2
            if j < m_i:
                expected[g + 1] = b.b3
            assert bitwise_equal(row, expected), g
        assert bitwise_equal(engine.mu2_op, np.diag(engine.k2g) - engine.tri)
        # composite and estimated channels each get their own copy of T
        nc = engine.nc
        assert np.array_equal(engine.jerk_op, np.block([[engine.tri, np.zeros((nc, nc))],
                                                        [np.zeros((nc, nc)), engine.tri]]))

    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_telescope_gives_coupler_forces_and_b4(self, topology_engine, seed):
        engine = topology_engine
        cfg = engine.config
        rng = np.random.default_rng(seed)
        x = engine.initial_state()[engine.sl["x"]] + rng.normal(0.0, 5.0, engine.nc)
        v = rng.uniform(0.0, 100.0, engine.nc)
        coupling = engine.coupling_vector(x[:-1] - x[1:], v[:-1] - v[1:])
        b4 = engine.stiffness_drift(v[:-1] - v[1:])
        for g, j, m_i, s in train_of(engine):
            x_i, v_i = x[s:s + m_i], v[s:s + m_i]
            force = coupling_force(j, x_i, v_i, cfg.coupler)
            assert coupling[g] == pytest.approx(force, rel=1e-9, abs=1e-6), g
            b = coefficient_b(j, v_i, cfg.carriages[g], cfg.coupler, cfg.davis)
            assert b4[g] == pytest.approx(b.b4, rel=1e-12, abs=1e-15), g
        # one +1/-1 pair per link inside a train, none across a boundary
        links = engine.telescope
        inside = [g for g, j, m_i, _ in train_of(engine) if j < m_i]
        assert np.flatnonzero(links.any(axis=1)).tolist() == inside
        for k in inside:
            assert links[k, k] == 1.0 and links[k, k + 1] == -1.0
            assert np.count_nonzero(links[k]) == 2


class TestPlantPathAgainstLoops:
    """The link products and the pair errors are bitwise the per-train loops."""

    @pytest.fixture(scope="class")
    def engine(self, topology_engine):
        return topology_engine

    @settings(max_examples=50, deadline=None, phases=NO_SHRINK)
    @given(t=st.floats(0.0, 2400.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_links_and_pair_errors(self, engine, t, seed):
        rng = np.random.default_rng(seed)
        y = engine.initial_state() + rng.normal(0.0, 50.0, engine.n_states)
        sl = engine.sl
        x, v = y[sl["x"]], y[sl["v"]]
        dx, dv = x[:-1] - x[1:], v[:-1] - v[1:]
        assert bitwise_equal(engine.coupling_vector(dx, dv), coupling_vector_loop(engine, x, v))
        assert bitwise_equal(engine.stiffness_drift(dv), stiffness_drift_loop(engine, v))
        row = engine.sample_row(t, y, engine.evaluate(t, y)[1])
        eps, vt = pair_errors_loop(engine, t, x, v)
        assert bitwise_equal(row["eps"], eps)
        assert bitwise_equal(row["vtilde"], vt)


class TestDeterminismAndStructure:
    def test_identical_config_and_seed_bitwise_identical(self, s5_config):
        config = short_scenario(s5_config, 10.0, noise=True)
        rec1, _ = run_scenario(config)
        rec2, _ = run_scenario(config)
        for name, arr in rec1.data.items():
            assert np.array_equal(arr, rec2.data[name]), name

    def test_disturbance_never_reaches_observer_channels(self, s5_config):
        config = short_scenario(s5_config, 10.0)
        engine = _ClosedLoop(config)
        y = engine.initial_state()
        rng = np.random.default_rng(5)
        y[engine.sl["wh"]] += rng.uniform(-0.3, 0.3, engine.nc)
        engine.delta = np.zeros(engine.nc)
        base, _ = engine.evaluate(3.0, y)
        engine.delta = rng.uniform(-1.0, 1.0, engine.nc)
        bumped, _ = engine.evaluate(3.0, y)
        for name in ("xh", "vh", "wh", "fh"):
            assert np.array_equal(base[engine.sl[name]], bumped[engine.sl[name]])
        assert np.allclose(bumped[engine.sl["w"]] - base[engine.sl["w"]],
                           engine.delta)

    def test_chain_order_dependency_is_real(self, s5_config):
        # a follower's law uses its predecessor's estimated-acceleration
        # derivative and a head's law the front tail's, so that derivative at
        # a carriage never depends on the carriages behind it.  A follower's
        # increment depends only on differences to its predecessor, so the
        # chain telescopes: a position estimate moved at a middle carriage
        # shifts its own increment and its successor's by opposite amounts,
        # and only that carriage's derivative changes.  A head's law uses
        # measured positions, so a move at a head (seen by its follower) or
        # at a tail (not seen by the head behind it) reaches every carriage
        # behind, across train boundaries.
        engine = _ClosedLoop(short_scenario(s5_config, 20.0))
        y = engine.initial_state()
        base = engine.evaluate(1.0, y)[0][engine.sl["wh"]]
        scale = max(np.abs(base).max(), 1.0)
        ends = set(engine.heads) | set(tail_indices(engine.config))
        for g in range(engine.nc - 1):
            moved = y.copy()
            moved[engine.sl["xh"]][g] += 0.1
            whdot = engine.evaluate(1.0, moved)[0][engine.sl["wh"]]
            assert np.array_equal(whdot[:g], base[:g]), g
            behind = np.abs(whdot[g + 1:] - base[g + 1:])
            if g in ends:
                assert behind.min() > 0.1, g
            else:
                assert abs(whdot[g] - base[g]) > 0.1, g
                assert behind.max() <= 1e-12 * scale, g

    def test_step_halving_leaves_terminal_errors_unchanged(self, s5_config):
        base = short_scenario(s5_config, 150.0, step=0.01)
        half = short_scenario(s5_config, 150.0, step=0.005)
        rec1, _ = run_scenario(base)
        rec2, _ = run_scenario(half)
        assert np.abs(rec1.data["xtilde"][-1] - rec2.data["xtilde"][-1]).max() < 1e-4
        assert np.abs(rec1.data["vtilde"][-1] - rec2.data["vtilde"][-1]).max() < 1e-4


class TestRepresentations:
    def test_both_mode_shadows_agree(self, s5_config):
        config = short_scenario(s5_config, 5.0, step=1e-3,
                                representation="both", record_stride=10)
        record, _ = run_scenario(config)
        assert np.abs(record.data["x"] - record.data["plant_x"]).max() < 1e-6
        assert np.abs(record.data["v"] - record.data["plant_v"]).max() < 1e-6

    def test_plant_mode_runs_standalone(self, s5_config):
        config = short_scenario(s5_config, 5.0, step=1e-3,
                                representation="plant", record_stride=10)
        record, _ = run_scenario(config)
        # w column is reconstructed from force balance; finite, and settled
        # once the initial control transient has died out
        assert np.isfinite(record.data["w"]).all()
        assert np.abs(record.data["w"][-1]).max() < 1.0

    def test_composite_and_plant_closed_loops_agree(self, s5_config):
        comp = short_scenario(s5_config, 5.0, step=1e-3, record_stride=10)
        plant = short_scenario(s5_config, 5.0, step=1e-3,
                               representation="plant", record_stride=10)
        rec_c, _ = run_scenario(comp)
        rec_p, _ = run_scenario(plant)
        assert np.abs(rec_c.data["x"] - rec_p.data["x"]).max() < 1e-5
        assert np.abs(rec_c.data["v"] - rec_p.data["v"]).max() < 1e-5


class TestObserverInvariantsInClosedLoop:
    def test_perfect_initialization_inside_active_windows(self, s5_config):
        # windows covering t=0 and estimates seeded with the exact state,
        # including the fault: errors must stay at numerical zero until the
        # next window transition (here beyond the horizon)
        carriages = []
        for carriage in s5_config.carriages:
            fault = dataclasses.replace(carriage.fault, window_const=(0.0, 50.0),
                                        window_periodic=(0.0, 50.0))
            carriages.append(dataclasses.replace(carriage, fault=fault))
        observer_init = tuple(
            (x, v, w, carriages[g].fault.constant_amp,
             math.sin(carriages[g].fault.phase),
             math.cos(carriages[g].fault.phase))
            for g, (x, v, w) in enumerate(s5_config.initial))
        config = short_scenario(s5_config, 10.0, carriages=tuple(carriages),
                                observer_initial=observer_init)
        record, _ = run_scenario(config)
        # the true fault rotates analytically while its estimate is stepped
        # numerically, so "zero" here means integrator precision (~1e-8 at
        # h=0.01), eight orders below the fault's jerk scale
        assert np.abs(record.data["e_x"]).max() < 1e-9
        assert np.abs(record.data["e_v"]).max() < 1e-9
        assert np.abs(record.data["e_w"]).max() < 1e-6
        ef_err = record.data["f_eff"] - record.data["f_eff_hat"]
        assert np.abs(ef_err).max() < 1e-8 * np.abs(record.data["f_eff"]).max()

    def test_backstepping_errors_decay_without_faults(self, s5_config):
        # fault-free, noise-free, perfect observer start: every follower's
        # backstepping errors shrink after the initial transient and the gap
        # error is below a millimetre by t = 200 s
        carriages = tuple(
            dataclasses.replace(c, fault=dataclasses.replace(
                c.fault, constant_amp=0.0, periodic_amp=0.0))
            for c in s5_config.carriages)
        config = short_scenario(s5_config, 250.0, carriages=carriages)
        record, _ = run_scenario(config)
        xh = record.data["x"] + record.data["e_x"]
        vh = record.data["v"] + record.data["e_v"]
        wh = record.data["w"] + record.data["e_w"]
        gains = config.follower_gains
        d_p = config.coupler.spacing
        labels = record.carriage_labels
        t = record.t
        for c in range(1, len(labels)):
            if labels[c - 1][0] != labels[c][0]:
                continue
            z1 = xh[:, c] - xh[:, c - 1] + d_p
            a1 = vh[:, c - 1] - (gains.l1 + 1.0) * z1
            z2 = vh[:, c] - a1
            k2c = gains.l2 + 1.0 + (gains.l1 + 1.0) ** 2
            a2 = (-k2c * z2 - z1 - (gains.l1 + 1.0) * vh[:, c]
                  + (gains.l1 + 1.0) * vh[:, c - 1] + wh[:, c - 1])
            z3 = wh[:, c] - a2
            norm = np.sqrt(z1 ** 2 + z2 ** 2 + z3 ** 2)
            checkpoints = [norm[t >= t_chk][0] for t_chk in (25.0, 50.0, 100.0, 200.0)]
            # strict decrease until the values reach the numerical floor
            floor = 1e-10
            assert all(b < max(a, floor) for a, b in zip(checkpoints, checkpoints[1:]))
            assert checkpoints[-1] < floor
            assert np.abs(z1[t >= 200.0]).max() < 1e-3


class TestConstraintHandling:
    def violating_state(self, engine):
        # head of train 2 pulled back until the gap exceeds gamma1
        y = engine.initial_state()
        g21 = 3
        y[engine.sl["x"]][g21:] -= 1500.0
        y[engine.sl["xh"]][g21:] -= 1500.0
        return y

    def test_saturation_records_event_and_stays_finite(self, s5_config):
        engine = _ClosedLoop(short_scenario(s5_config, 10.0))
        y = self.violating_state(engine)
        dy, _ = engine.evaluate(0.0, y)
        assert np.isfinite(dy).all()
        assert engine.violations
        event = engine.violations[0]
        assert event["pair"] == 2 and event["quantity"] == "xtilde"
        assert event["value"] > event["high"]

    def test_saturation_events_are_counted_and_capped(self, s5_config):
        # clamps repeat at every evaluation; each (pair, quantity) keeps its
        # first EVENTS_KEPT events and an exact count with first and last time
        engine = _ClosedLoop(short_scenario(s5_config, 10.0))
        y = self.violating_state(engine)
        times = [0.01 * k for k in range(EVENTS_KEPT + 50)]
        order = times[50:] + times[:50]   # earliest and latest time mid-sequence
        for t in order:
            engine.evaluate(t, y)
        counts = engine.saturations
        assert counts and 2 in counts
        kinds = [(pair, quantity) for pair in counts for quantity in counts[pair]]
        for pair, quantity in kinds:
            assert counts[pair][quantity] == {"count": len(times), "first_t": times[0],
                                              "last_t": times[-1]}
            kept = [e for e in engine.violations
                    if (e["pair"], e["quantity"]) == (pair, quantity)]
            assert [e["t"] for e in kept] == order[:EVENTS_KEPT]
        assert len(engine.violations) == EVENTS_KEPT * len(kinds)
        report = monitor_requirements(synthetic_record(np.zeros(501)), TestMonitorRequirements.CONS,
                                      0.01, 26.0, MonitorSpec(),
                                      saturation_events=engine.violations,
                                      saturation_counts=counts)
        summary = json.loads(json.dumps(report.to_dict()))
        assert summary["saturation_counts"] == {
            str(pair): counts[pair] for pair in counts}
        assert len(summary["saturation_events"]) == len(engine.violations)

    def test_abort_mode_raises_domain_error(self, s5_config):
        from platoonsim.errors import BarrierDomainError

        config = short_scenario(s5_config, 10.0, abort_on_violation=True)
        engine = _ClosedLoop(config)
        y = self.violating_state(engine)
        with pytest.raises(BarrierDomainError):
            engine.evaluate(0.0, y)


def synthetic_record(xtilde_column):
    n = len(xtilde_column)
    t = np.linspace(0.0, 200.0, n)
    record = SimulationRecord.allocate(n, ((1, 1), (1, 2)), 1,
                                       step=float(t[1] - t[0]), stride=1)
    record.table[:] = 0.0
    record.t[:] = t
    record.data["x"][:, 0] = 26.0  # nominal gap between the two carriages
    record.data["xtilde"][:, 0] = xtilde_column
    record.data["eps"][:, 0] = xtilde_column + 7053.0
    return record


class TestMonitorRequirements:
    CONS = ctrl.ConstraintSpec(gamma1=9000.0, gamma2=4702.0, d_s=7053.0,
                               sigma1=50.0, sigma2=50.0)

    def test_trivial_record_passes(self):
        record = synthetic_record(np.zeros(501))
        report = monitor_requirements(record, self.CONS, 0.01, 26.0, MonitorSpec())
        assert report.verdicts["R2"] and report.verdicts["R3"] and report.verdicts["R1"]
        assert report.hard_bound_events == []
        assert report.qtilde_within_bounds

    def test_single_excursion_fails_hard_bound(self):
        column = np.zeros(501)
        column[100] = self.CONS.rho1 + 1.0
        record = synthetic_record(column)
        report = monitor_requirements(record, self.CONS, 0.01, 26.0, MonitorSpec())
        assert not report.verdicts["R2"]
        assert not report.verdicts["R2_hard"]
        event = report.hard_bound_events[0]
        assert event["quantity"] == "xtilde"
        assert event["t"] == pytest.approx(record.t[100])

    def test_boundary_value_counts_as_violation(self):
        column = np.zeros(501)
        column[7] = self.CONS.rho1  # open interval
        record = synthetic_record(column)
        report = monitor_requirements(record, self.CONS, 0.01, 26.0, MonitorSpec())
        assert not report.verdicts["R2_hard"]

    def test_tail_mean_gate(self):
        column = np.full(501, 10.0)  # inside bounds but never converging
        record = synthetic_record(column)
        report = monitor_requirements(record, self.CONS, 0.01, 26.0,
                                      MonitorSpec(tol_xtilde_mean=5.0))
        assert report.verdicts["R2_hard"]
        assert not report.verdicts["R2"]

    def test_barrier_margins(self):
        rho1, rho2 = self.CONS.rho1, self.CONS.rho2
        vr1, vr2 = self.CONS.varrho(0.01)
        column = np.zeros(501)
        column[40] = rho1 - 100.0
        record = synthetic_record(column)
        record.data["qtilde"][60, 0] = -vr2 + 3.0
        report = monitor_requirements(record, self.CONS, 0.01, 26.0, MonitorSpec())
        margins = report.barrier_margins[1]
        assert margins["xtilde"] == pytest.approx(100.0 / (rho1 + rho2), rel=1e-12)
        assert margins["qtilde"] == pytest.approx(3.0 / (vr1 + vr2), rel=1e-9)
        assert report.to_dict()["barrier_margins"] == {1: margins}

    def test_barrier_margin_is_negative_outside(self):
        rho1, rho2 = self.CONS.rho1, self.CONS.rho2
        column = np.zeros(501)
        column[100] = -rho2 - 2.0
        report = monitor_requirements(synthetic_record(column), self.CONS, 0.01, 26.0,
                                      MonitorSpec())
        assert report.barrier_margins[1]["xtilde"] == pytest.approx(-2.0 / (rho1 + rho2),
                                                                     rel=1e-12)
        assert not report.verdicts["R2_hard"]
        # with the pair at rest the margin is the nearer end of each interval
        rest = monitor_requirements(synthetic_record(np.zeros(501)), self.CONS, 0.01, 26.0,
                                    MonitorSpec())
        vr1, vr2 = self.CONS.varrho(0.01)
        assert rest.barrier_margins[1] == {"xtilde": min(rho1, rho2) / (rho1 + rho2),
                                           "qtilde": min(vr1, vr2) / (vr1 + vr2)}
