"""Fixed-step closed-loop simulation and requirement monitoring.

One scenario integrates the whole railway network (true carriage dynamics,
per-carriage observers and the distributed control laws) with the classical
fourth-order fixed-step scheme, deterministically: the same configuration
and seed always produce bit-identical output.

Within every derivative evaluation the computation order is fixed by the
data dependencies of the control laws.  Each term that couples neighbouring
carriages is one product with a constant matrix: the tridiagonal operator T
(own-acceleration coefficient on the diagonal, damping weights of the
carriages ahead and behind beside it, zero across train boundaries), with
B(v) a = T a - 2 c2 v a, and for the plant a telescoping matrix that sums
the coupler links per carriage.

1. the time-only terms (reference and true fault force rate), worked out
   for a block of steps at once at the exact stage times;
2. the observer corrections on the stacked estimate rows, with
   mu2 = (diag(k2) - T) e_v + c2 e_v (v + vh) and vhdot = wh + mu2, written
   into the derivative vector with the other estimate derivatives;
3. B on the composite (v, w) and estimated (vh, vhdot) channels at once:
   the estimated jerk without input, which every law cancels, is
   B(vh) vhdot + k3 e_v + the estimated fault jerk;
4. the control inputs: every follower's increment is alpha3's five
   constant weights applied to its differences to the predecessor, in one
   array pass; every head's is the barrier law, run per train pair on
   floats (a pair outside the barrier domain is clamped or aborts, in pair
   order);
5. the state derivatives.

Each follower needs the preceding carriage's estimated-acceleration
derivative and each head the front tail's.  Both laws cancel the carriage's
own coupling terms, and a follower's command depends on its predecessor's
derivative with unit weight, so over the whole network, in chain order,
these derivatives are the lead's jerk plus a cumulative sum of the
per-carriage increments; no law needs another's output within an
evaluation.

An engine evaluates in buffers of its own: it copies the state passed in
into its state buffer, works on views of that buffer, of its derivative
buffer and of a few scratch arrays, all built once with the engine, and
returns a copy of the derivative buffer with new control and estimated
fault arrays.  What it returns belongs to the caller, and the state passed
in is only read.  One engine is therefore not re-entrant: it serves one
evaluation at a time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import controller as ctrl
from . import observer as obs
from .controller import ConstraintSpec, FollowerGains, HeadGains, TrainPairErrors
from .errors import ConfigurationError, IntegrationFault, Violation
from .faults import exosystem_matrix, snap_windows, transition_times
from .model import (CarriageParams, ConsistTopology, CouplerParams,
                    DavisCoefficients)
from .reference import ReferenceProfile

REPRESENTATIONS = ("composite", "plant", "both")
CONTROL_LAWS = ("designed", "zero")
_BLOCK_STEPS = 16    # integration steps whose time-only terms an engine keeps
EVENTS_KEPT = 100    # events kept per (pair, quantity); the rest are only counted


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian jerk disturbance: per-carriage, per-step, held across stages."""

    enabled: bool = False
    variance: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class MonitorSpec:
    """Tail window and tolerances for the convergence verdicts."""

    tail_window: float = 100.0       # s
    tol_xtilde_mean: float = 5.0     # m
    tol_vtilde_mean: float = 0.5     # m/s
    tol_gap_mean: float = 0.5        # m
    tol_vgap_mean: float = 0.2       # m/s


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run."""

    topology: ConsistTopology
    davis: DavisCoefficients
    coupler: CouplerParams
    carriages: tuple                 # CarriageParams per carriage, chain order
    constraints: ConstraintSpec
    follower_gains: FollowerGains
    head_gains: HeadGains
    profile: ReferenceProfile
    initial: tuple                   # (x, v, w) per carriage, chain order
    observer_initial: Optional[tuple] = None  # (xh, vh, wh, f1, f2, f3) per carriage
    observer_k1: float = 3.0
    observer_eigenvalues: tuple = (-3.0, -3.0, -3.0, -3.0, -3.0)
    observer_gain_override: Optional[tuple] = None  # 5 entries, bypasses synthesis
    step: float = 0.01
    duration: float = 2400.0
    record_stride: int = 1
    noise: NoiseSpec = NoiseSpec()
    representation: str = "composite"
    monitor: MonitorSpec = MonitorSpec()
    abort_on_violation: bool = False
    control_law: str = "designed"


def initial_pair_errors(config):
    """Gap/velocity errors of every train pair at t=0 (pair 1 is against the profile)."""
    x0p, v0p, _, _ = config.profile.evaluate(0.0)
    heads = config.topology.head_indices()
    # the front of pair 1 is the virtual lead, of every other the tail ahead
    fronts = [(x0p, v0p)] + [config.initial[h - 1][:2] for h in heads[1:]]
    return {i: TrainPairErrors.from_states(*front, *config.initial[h][:2],
                                           config.constraints.d_s, config.head_gains.ell1)
            for i, (front, h) in enumerate(zip(fronts, heads), start=1)}


def validate_config(config):
    """All feasibility violations of a scenario (empty list means runnable).

    Raises :class:`ConfigurationError` for a scenario that is malformed
    rather than infeasible: an unknown option, or a per-carriage entry of
    the wrong count or length.
    """
    out = []
    # written so that NaN fails every check
    if not 0 < config.step < math.inf:
        out.append(Violation("0 < step < inf", config.step, 0.0, "integration"))
    if not config.duration > 0:
        out.append(Violation("duration > 0", config.duration, 0.0, "integration"))
    if not isinstance(config.record_stride, numbers.Integral) or config.record_stride < 1:
        out.append(Violation("record_stride is an integer >= 1", config.record_stride, 1.0,
                             "integration"))
    if config.representation not in REPRESENTATIONS:
        raise ConfigurationError(f"unknown representation {config.representation!r}")
    if config.control_law not in CONTROL_LAWS:
        raise ConfigurationError(f"unknown control law {config.control_law!r}")
    nc = config.topology.total_carriages
    if len(config.carriages) != nc:
        raise ConfigurationError(f"need {nc} carriage parameter sets, got {len(config.carriages)}")
    if len(config.initial) != nc:
        raise ConfigurationError(f"need {nc} initial states, got {len(config.initial)}")
    if any(np.shape(s) != (3,) for s in config.initial):
        raise ConfigurationError("every initial state needs 3 values (x, v, w)")
    if config.observer_initial is not None:
        if len(config.observer_initial) != nc:
            raise ConfigurationError("observer_initial length mismatch")
        if any(np.shape(s) != (6,) for s in config.observer_initial):
            raise ConfigurationError(
                "every observer_initial entry needs 6 values (xh, vh, wh, f1, f2, f3)")
    if config.duration > config.profile.horizon * (1 + 1e-12):
        out.append(Violation("duration <= profile horizon", config.duration,
                             config.profile.horizon, "reference"))
    if not 0 <= config.noise.variance < math.inf:
        out.append(Violation("0 <= noise variance < inf", config.noise.variance, 0.0, "noise"))
    out.extend(ctrl.validate_parameters(config.follower_gains, config.head_gains,
                                        config.constraints))
    if not any(v.subject == "head gains" or v.subject == "constraints" for v in out):
        out.extend(ctrl.validate_initial(initial_pair_errors(config),
                                         config.constraints, config.head_gains.ell1))
    return out


def require_feasible(config, source="scenario"):
    """``config`` itself when it is runnable.

    Otherwise raises :class:`ConfigurationError` naming ``source`` and
    listing every violation of :func:`validate_config`.
    """
    violations = validate_config(config)
    if violations:
        raise ConfigurationError(
            f"{source} is infeasible:\n" + "\n".join(str(v) for v in violations),
            violations=violations)
    return config


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def rk4_step(rhs, state, t, h, k1=None):
    """One classical fourth-order step from ``t`` to ``t + h``.

    ``k1`` may be supplied when the derivative at ``t`` has already been
    evaluated.  Raises :class:`IntegrationFault` when the update goes
    non-finite.
    """
    if k1 is None:
        k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * h, state + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, state + (0.5 * h) * k2)
    k4 = rhs(t + h, state + h * k3)
    out = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out))
        raise IntegrationFault(t, labels=[f"state[{i}]" for i in bad[:8]])
    return out


def inject_disturbance(rng, variance, n_carriages):
    """One step's worth of Gaussian jerk disturbance (held across the step's stages)."""
    return rng.normal(0.0, math.sqrt(variance), size=n_carriages)


# ---------------------------------------------------------------------------
# closed-loop engine
# ---------------------------------------------------------------------------

class _ClosedLoop:
    """Precompiled right-hand side of the full network for one configuration.

    :meth:`evaluate` copies the state into the engine's state buffer and
    works in its derivative and scratch buffers through views built in
    ``__init__``.  The arrays it returns are never buffers that a later
    call overwrites, and the state passed in is never written.  An engine
    is not re-entrant: evaluations on one engine must not overlap.
    """

    def __init__(self, config):
        self.config = config
        topo = config.topology
        nc = topo.total_carriages
        self.nc = nc
        self.n_trains = topo.train_count
        davis, coupler = config.davis, config.coupler
        self.d_p = coupler.spacing
        self.d_s = config.constraints.d_s
        self.rho1 = config.constraints.rho1
        self.rho2 = config.constraints.rho2
        self.vr1, self.vr2 = config.constraints.varrho(config.head_gains.ell1)
        self.fgains = config.follower_gains
        self.hgains = config.head_gains
        self.davis = davis
        self.c1, self.c2 = davis.c1, davis.c2
        self.a_stiff, self.b_damp = coupler.stiffness, coupler.damping
        self.zero_control = config.control_law == "zero"
        self.saturate = not config.abort_on_violation

        heads = topo.head_indices()
        self.heads = np.array(heads)
        # tail of the train ahead of each head; the first head's entry is a
        # placeholder for the virtual lead
        self.front_tails = np.array([0] + [h - 1 for h in heads[1:]])
        j_of = np.empty(nc, dtype=int)
        m_of = np.empty(nc, dtype=int)
        for g, (i, j) in enumerate(topo.carriage_ids()):
            j_of[g] = j
            m_of[g] = topo.carriages_per_train[i - 1]

        self.mass = np.array([c.mass for c in config.carriages])
        self.rate = np.array([c.actuator_rate for c in config.carriages])
        b_over_m = self.b_damp / self.mass
        interior = (j_of > 1) & (j_of < m_of)
        # B1(v) = bm1 - 2*c2*v ; D1(v) = bm1*v - c2*v^2
        self.bm1 = -(np.where(interior, 2.0, 1.0) * b_over_m) - self.c1 - self.rate
        self.b2 = np.where(j_of > 1, b_over_m, 0.0)
        self.b3 = np.where(j_of < m_of, b_over_m, 0.0)
        # The constant operators are filled by index, not with np.diag, np.eye
        # or np.kron: those run numpy code that nothing else here runs, and
        # paging it in added about 0.1 MB to a run's peak resident set.
        # Neighbour operator T: bm1 on the diagonal, b2 on the carriage ahead
        # and b3 on the one behind (zero across train boundaries).
        ix = np.arange(nc)
        self.tri = np.zeros((nc, nc))
        self.tri[ix, ix], self.tri[ix[1:], ix[:-1]], self.tri[ix[:-1], ix[1:]] = (
            self.bm1, self.b2[1:], self.b3[:-1])
        self.two_c2 = 2.0 * self.c2
        # link k joins carriages k and k + 1; its term adds to carriage k and
        # subtracts from k + 1, and a link across a train boundary carries none
        self.telescope = np.zeros((nc - 1, nc))
        self.telescope[ix[:-1], ix[:-1]], self.telescope[ix[:-1], ix[1:]] = 1.0, -1.0
        self.telescope[self.heads[1:] - 1] = 0.0

        faults = [snap_windows(c.fault, config.step) for c in config.carriages]
        self.omega = np.array([f.omega for f in faults])
        self.upsilon = np.array([f.upsilon for f in faults])
        self.nu_omega = np.array([f.nu * f.omega for f in faults])
        self.f_phi = np.array([f.phase for f in faults])
        # constant-mode row over periodic-mode row: amplitudes and windows
        self.fault_amps = np.array([[f.constant_amp for f in faults],
                                    [f.periodic_amp for f in faults]])
        self.window_start = np.array([[f.window_const[0] for f in faults],
                                      [f.window_periodic[0] for f in faults]])
        self.window_end = np.array([[f.window_const[1] for f in faults],
                                    [f.window_periodic[1] for f in faults]])
        self.e_rows = np.column_stack(
            [self.upsilon, np.zeros(nc), self.nu_omega])
        self.c_rows = self.e_rows / self.mass[:, None]
        # generator rotation acting on (f3, f2) in the (f2, f3) derivative slots
        self.rotation = np.column_stack((self.omega, -self.omega))

        gains = []
        cache = {}
        for g, carriage in enumerate(config.carriages):
            key = (tuple(self.c_rows[g]), self.omega[g])
            if key not in cache:
                if config.observer_gain_override is not None:
                    cache[key] = obs.ObserverGains(
                        k1=config.observer_k1,
                        k=tuple(config.observer_gain_override))
                else:
                    a, c = obs.build_augmented_pair(self.c_rows[g],
                                                    exosystem_matrix(self.omega[g]))
                    cache[key] = obs.synthesize_gains(
                        a, c, config.observer_eigenvalues, k1=config.observer_k1)
            gains.append(cache[key])
        self.k1g = np.array([g.k1 for g in gains])
        self.k2g = np.array([g.k2 for g in gains])
        self.k3g = np.array([g.k3 for g in gains])
        self.k4g = np.vstack([g.k4 for g in gains])
        self.neg_k1g = -self.k1g
        self.alpha3_coef = ctrl.alpha3_coefficients(self.fgains)
        self.mu2_op = np.zeros((nc, nc))
        self.mu2_op[ix, ix] = self.k2g
        self.mu2_op -= self.tri

        has_composite = config.representation in ("composite", "both")
        has_plant = config.representation in ("plant", "both")
        self.has_composite = has_composite
        self.has_plant = has_plant
        self.measure_from_plant = config.representation == "plant"
        # the composite and estimated channels interleave, so that the
        # velocities (v, vh) lie side by side, and so do their derivatives
        # (w, vhdot), on which B acts with one product
        offset = 0
        names = ["x", "xh", "v", "vh", "w", "wh"] if has_composite else ["xh", "vh", "wh"]
        self.sl = {}
        for name in names:
            self.sl[name] = slice(offset, offset + nc)
            offset += nc
        self.sl["fh"] = slice(offset, offset + 3 * nc)
        offset += 3 * nc
        if has_plant:
            for name in ("xp", "vp", "tau"):
                self.sl[name] = slice(offset, offset + nc)
                offset += nc
        self.n_states = offset

        # every state block is a multiple of nc long, so the state reshapes to
        # (rows, nc); the *_rows slices select rows of it
        row = {name: part.start // nc for name, part in self.sl.items()}
        x_meas, v_meas = ("xp", "vp") if self.measure_from_plant else ("x", "v")
        self.est_rows = slice(row["xh"], row["wh"] + 1, row["vh"] - row["xh"])
        self.meas_rows = slice(row[x_meas], row[v_meas] + 1, row[v_meas] - row[x_meas])
        # (v, vh), or vh alone, and T per channel for their derivatives
        self.jerk = slice(self.sl["v" if has_composite else "vh"].start, self.sl["vh"].stop)
        size = self.jerk.stop - self.jerk.start
        self.jerk_op = np.zeros((size, size))
        for k in range(0, size, nc):
            self.jerk_op[k:k + nc, k:k + nc] = self.tri
        # per train pair, flat indices of (measured x, measured v, wh) at the
        # tail ahead and at the head; the first pair's front is the virtual lead
        names = np.array([row[x_meas], row[v_meas], row["wh"]])[:, None] * nc
        self.pair_idx = np.vstack((names + self.front_tails, names + self.heads)).T

        # The state and derivative buffers, the scratch arrays and every view
        # of them that an evaluation reads or writes, built once: a view costs
        # about as much as a small array operation.
        self._y = np.empty(self.n_states)
        self._dy = np.empty(self.n_states)
        rows, d_rows = self._y.reshape(-1, nc), self._dy.reshape(-1, nc)
        est, d_est = rows[self.est_rows], d_rows[self.est_rows]
        self._est_pair = est[:2]
        self._est_ahead, self._est_behind = est[:, :-1], est[:, 1:]
        self._vh, self._wh = est[1], est[2]
        self._meas = rows[self.meas_rows]
        self._meas_v = self._meas[1]
        fh = self._y[self.sl["fh"]].reshape(nc, 3)
        self._fh_const, self._fh_cos, self._fh_rotated = fh[:, 0], fh[:, 2], fh[:, :0:-1]
        self._y_jerk = self._y[self.jerk]
        self._d_xh, self._d_vh, self._d_wh = d_est
        self._d_pair_ahead, self._d_pair_behind = d_est[:2, :-1], d_est[:2, 1:]
        self._d_fh = self._dy[self.sl["fh"]].reshape(nc, 3)
        self._d_f23 = self._d_fh[:, 1:]
        self._accel = self._dy[self.jerk]
        if has_composite:
            # x' = v and v' = w: composite rows 0 and 2 take rows 2 and 4
            self._vw, self._d_xv = rows[2:5:2], d_rows[0:3:2]
            self._d_w = self._dy[self.sl["w"]]
        if has_plant:
            self._vp, self._tau = rows[row["vp"]], rows[row["tau"]]
            plant_xv = rows[row["xp"]:row["vp"] + 1]
            self._plant_ahead, self._plant_behind = plant_xv[:, :-1], plant_xv[:, 1:]
            self._d_xp, self._d_vp, self._d_tau = (
                d_rows[row["xp"]], d_rows[row["vp"]], d_rows[row["tau"]])
            # per link, position and velocity of the carriage ahead minus the one behind
            self._links = np.empty((2, nc - 1))
            self._dx_links, self._dv_links = self._links
        self._err = np.empty((2, nc))          # estimate minus measurement, (x, v)
        self._e_x, self._e_v = self._err
        self._e_v_col = self._e_v[:, None]
        self._coupled = np.empty(self.jerk.stop - self.jerk.start)
        self._coupled_w, self._coupled_own = self._coupled[:nc], self._coupled[-nc:]
        # follower differences to the carriage ahead: (x + d_p, v, wh) of the
        # estimates, then (xhdot, vhdot)
        self._diffs = np.empty((5, nc - 1))
        self._diffs_est, self._diffs_gap, self._diffs_d = (
            self._diffs[:3], self._diffs[0], self._diffs[3:])
        self._inc = np.empty(nc)
        self._inc_follow = self._inc[1:]

        self.delta = np.zeros(nc)      # per-step disturbance, set by the driver
        self.violations = []           # first EVENTS_KEPT saturations per (pair, quantity)
        self.saturations = {}          # pair -> quantity -> count, first and last time
        self._block_first = None       # first step of the stored time-term block,
        self._block_rows = {}          # its stage time -> row map
        self._block = None             # and its rows, as _time_terms returns them

    # -- helpers ------------------------------------------------------------

    def time_terms(self, t):
        """Reference ``(x0, v0, w0, u0)``, true fault force rate and its jerk at ``t``.

        These depend on the time alone, so they are worked out for a block
        of ``_BLOCK_STEPS`` steps at once, at the exact stage times that
        :func:`run_scenario` and :func:`rk4_step` produce (``k*h``,
        ``k*h + 0.5*h`` and ``k*h + h``), and kept with a time -> row map.  A time off that grid
        gets the same formula on a one-row block.  The two fault arrays are
        read-only, as every caller shares them.
        """
        row = self._block_rows.get(t)
        if row is None:
            h = self.config.step
            first = math.floor(t / h + 0.25) // _BLOCK_STEPS * _BLOCK_STEPS
            if first != self._block_first:
                horizon = self.config.profile.horizon
                self._block_rows = {}
                for k in range(first, first + _BLOCK_STEPS):
                    for stage_t in (k * h, k * h + 0.5 * h, k * h + h):
                        if 0.0 <= stage_t <= horizon:
                            self._block_rows.setdefault(stage_t, len(self._block_rows))
                self._block = self._time_terms(list(self._block_rows))
                self._block_first = first
                row = self._block_rows.get(t)
            if row is None:
                reference, ef_true, cf_true = self._time_terms([t])
                return (*reference[0], ef_true[0], cf_true[0])
        reference, ef_true, cf_true = self._block
        return (*reference[row], ef_true[row], cf_true[row])

    def _time_terms(self, times):
        """Per time: reference tuple, and rows of true fault force rates and jerks."""
        at = np.array(times)[:, None, None]
        # windowed amplitudes; of the periodic pair only the cosine carries force
        amps = np.where((at >= self.window_start) & (at <= self.window_end),
                        self.fault_amps, 0.0)
        ef_true = (self.upsilon * amps[:, 0]
                   + self.nu_omega * (amps[:, 1] * np.cos(self.omega * at[:, 0] + self.f_phi)))
        cf_true = ef_true / self.mass
        ef_true.flags.writeable = cf_true.flags.writeable = False
        return [self.config.profile.evaluate(t) for t in times], ef_true, cf_true

    def coupling_vector(self, dx, dv):
        """Coupler force on every carriage (telescoped per train).

        ``dx`` and ``dv`` are per link, link k joining carriages k and k + 1:
        position and velocity of carriage k minus those of carriage k + 1.
        """
        return (self.a_stiff * (dx - self.d_p) + self.b_damp * dv).dot(self.telescope)

    def stiffness_drift(self, dv):
        """b4 coefficient per carriage: stiffness-scaled link velocity differences over mass."""
        return -(self.a_stiff * dv).dot(self.telescope) / self.mass

    def initial_state(self):
        cfg = self.config
        nc = self.nc
        x0 = np.array([s[0] for s in cfg.initial])
        v0 = np.array([s[1] for s in cfg.initial])
        w0 = np.array([s[2] for s in cfg.initial])
        if cfg.observer_initial is not None:
            oi = np.asarray(cfg.observer_initial, dtype=float)
            xh, vh, wh = oi[:, 0], oi[:, 1], oi[:, 2]
            fh = oi[:, 3:6]
        else:
            # position/velocity are measured, so only the unmeasured channels
            # start with estimation error
            xh, vh, wh = x0.copy(), v0.copy(), np.zeros(nc)
            fh = np.zeros((nc, 3))
        y = np.zeros(self.n_states)
        if self.has_composite:
            y[self.sl["x"]], y[self.sl["v"]], y[self.sl["w"]] = x0, v0, w0
        y[self.sl["xh"]], y[self.sl["vh"]], y[self.sl["wh"]] = xh, vh, wh
        y[self.sl["fh"]] = fh.ravel()
        if self.has_plant:
            y[self.sl["xp"]], y[self.sl["vp"]] = x0, v0
            coupling = self.coupling_vector(x0[:-1] - x0[1:], v0[:-1] - v0[1:])
            resist = self.davis.resistance(v0)
            y[self.sl["tau"]] = self.mass * w0 + coupling + self.mass * resist
        return y

    # -- derivative evaluation ----------------------------------------------

    def evaluate(self, t, y):
        """Derivative vector plus the per-stage diagnostics ``(u, ef_true, ef_hat)``.

        ``y`` is copied into the engine's state buffer and never written.
        The derivative, ``u`` and ``ef_hat`` are new arrays that belong to
        the caller; ``ef_true`` is the shared, read-only time-term row.
        """
        nc = self.nc
        if y is not self._y:
            self._y[:] = y
        vh, wh, meas, err, e_v = self._vh, self._wh, self._meas, self._err, self._e_v
        x0r, v0r, w0r, u0r, ef_true, cf_true = self.time_terms(t)
        ef_hat = self._fh_const * self.upsilon + self._fh_cos * self.nu_omega
        cf_hat = ef_hat / self.mass

        if self.has_composite:
            self._d_xv[:] = self._vw        # x' = v, v' = w

        # observer corrections, mu2 = (diag(k2) - T) e_v + c2 e_v (v + vh);
        # xhdot and vhdot = wh + mu2 go straight into the derivative buffer
        np.subtract(self._est_pair, meas, out=err)
        mu2 = self.mu2_op.dot(e_v) + self.c2 * e_v * (self._meas_v + vh)
        np.add(vh, self.neg_k1g * self._e_x - e_v, out=self._d_xh)
        np.add(wh, mu2, out=self._d_vh)
        np.multiply(self.k4g, self._e_v_col, out=self._d_fh)
        np.add(self._d_f23, self.rotation * self._fh_rotated, out=self._d_f23)

        # B(v) a = T a - 2 c2 v a, at once for the composite channel (v, w)
        # and the estimated one (vh, vhdot).  The estimated jerk without
        # control input, which every control law cancels, is
        # B(vh) vhdot + k3 e_v + cf_hat.
        accel, coupled = self._accel, self._coupled
        np.subtract(self.jerk_op.dot(accel), self.two_c2 * self._y_jerk * accel, out=coupled)
        own = self._coupled_own + self.k3g * e_v + cf_hat
        if self.zero_control:
            u = np.zeros(nc)
            self._d_wh[:] = own
        else:
            # follower differences to the carriage ahead (a head's entry is
            # replaced by its barrier law)
            diffs, inc = self._diffs, self._inc
            np.subtract(self._est_behind, self._est_ahead, out=self._diffs_est)
            np.add(self._diffs_gap, self.d_p, out=self._diffs_gap)
            np.subtract(self._d_pair_behind, self._d_pair_ahead, out=self._diffs_d)
            np.dot(self.alpha3_coef, diffs, out=self._inc_follow)
            inc[self.heads] = self._head_feedback(t, self._y, x0r, v0r, w0r)
            inc[0] += u0r
            whdot = inc.cumsum(out=self._d_wh)
            u = whdot - own

        if self.has_composite:
            np.add(self._coupled_w + cf_true + u, self.delta, out=self._d_w)
        if self.has_plant:
            vp, tau, dv = self._vp, self._tau, self._dv_links
            np.subtract(self._plant_ahead, self._plant_behind, out=self._links)
            coupling = self.coupling_vector(self._dx_links, dv)
            resist = self.davis.resistance(vp)
            b4 = self.stiffness_drift(dv)
            varpi = (self.mass * u + self.rate * coupling
                     + self.mass * self.rate * resist - self.mass * b4
                     + self.mass * self.delta)
            self._d_xp[:] = vp
            np.divide(tau - coupling - self.mass * resist, self.mass, out=self._d_vp)
            np.add(-self.rate * tau + varpi, ef_true, out=self._d_tau)
        return self._dy.copy(), (u, ef_true, ef_hat)

    def rhs(self, t, y):
        return self.evaluate(t, y)[0]

    def _head_feedback(self, t, y, x0r, v0r, w0r):
        """Closed-loop terms of the head laws (see ``controller.head_feedback``).

        One train pair at a time, on floats.  A pair outside the open barrier
        domain goes through ``controller.beta_functions``, which clamps it
        (recorded in pair order, the gap error before the combined error) or,
        in abort mode, raises :class:`BarrierDomainError`.
        """
        gains = self.hgains
        ell1, d_s = gains.ell1, self.d_s
        rho1, rho2, vr1, vr2 = self.rho1, self.rho2, self.vr1, self.vr2
        pairs = y[self.pair_idx].tolist()
        pairs[0][:3] = x0r, v0r, w0r
        out = []
        for pair, (x_f, v_f, w_f, x_h, v_h, w_h) in enumerate(pairs, start=1):
            xt = (x_f - x_h) - d_s
            vt = v_f - v_h
            wt = w_f - w_h
            qt = vt + ell1 * xt
            if -rho2 < xt < rho1 and -vr2 < qt < vr1:
                b1, d_x, d_v = ctrl.beta_partials(xt, qt, gains, rho1, rho2, vr1, vr2)
                beta = (b1, wt + ell1 * vt - b1, d_x, d_v)
            else:
                def record(kind, value, lo, hi, pair=pair):
                    self._saturated({"t": t, "pair": pair, "quantity": kind,
                                     "value": value, "low": lo, "high": hi})
                beta = ctrl.beta_functions(xt, vt, wt, gains, rho1, rho2, vr1, vr2,
                                           saturate=self.saturate, record=record)
            out.append(ctrl.head_feedback(qt, vt, wt, beta, gains))
        return out

    def _saturated(self, event):
        """Count a clamp per (pair, quantity) and keep its first EVENTS_KEPT events."""
        t = event["t"]
        seen = self.saturations.setdefault(event["pair"], {}).setdefault(
            event["quantity"], {"count": 0, "first_t": t, "last_t": t})
        seen["count"] += 1
        seen["first_t"] = min(seen["first_t"], t)
        seen["last_t"] = max(seen["last_t"], t)
        if seen["count"] <= EVENTS_KEPT:
            self.violations.append(event)

    # -- sample-time diagnostics ---------------------------------------------

    def sample_row(self, t, y, stage_diag):
        """All recorded quantities at a sample instant."""
        sl = self.sl
        u, ef_true, ef_hat = stage_diag
        xh = y[sl["xh"]]
        vh = y[sl["vh"]]
        wh = y[sl["wh"]]
        if self.measure_from_plant:
            xm, vm = y[sl["xp"]], y[sl["vp"]]
            tau = y[sl["tau"]]
            coupling = self.coupling_vector(xm[:-1] - xm[1:], vm[:-1] - vm[1:])
            resist = self.davis.resistance(vm)
            wm = (tau - coupling - self.mass * resist) / self.mass
        else:
            xm, vm, wm = y[sl["x"]], y[sl["v"]], y[sl["w"]]
            coupling = self.coupling_vector(xm[:-1] - xm[1:], vm[:-1] - vm[1:])
            resist = self.davis.resistance(vm)
            tau = self.mass * wm + coupling + self.mass * resist
        x0r, v0r = self.time_terms(t)[:2]
        eps = xm[self.front_tails] - xm[self.heads]
        vt = vm[self.front_tails] - vm[self.heads]
        eps[0] = x0r - xm[0]
        vt[0] = v0r - vm[0]
        xt = eps - self.d_s
        qt = vt + self.hgains.ell1 * xt
        row = {
            "x": xm, "v": vm, "w": wm, "tau": tau, "u": u,
            "f_eff": ef_true, "f_eff_hat": ef_hat,
            "e_x": xh - xm, "e_v": vh - vm, "e_w": wh - wm,
            "eps": eps, "xtilde": xt, "vtilde": vt, "qtilde": qt,
        }
        if self.has_plant and not self.measure_from_plant:
            row["plant_x"] = y[sl["xp"]]
            row["plant_v"] = y[sl["vp"]]
            row["plant_tau"] = y[sl["tau"]]
        return row


# ---------------------------------------------------------------------------
# record and report
# ---------------------------------------------------------------------------

_CARRIAGE_FIELDS = ("x", "v", "w", "tau", "u", "f_eff", "f_eff_hat", "e_x", "e_v", "e_w")
_PAIR_FIELDS = ("eps", "xtilde", "vtilde", "qtilde")
_CARRIAGE_UNITS = {"x": "m", "v": "mps", "w": "mps2", "tau": "N", "u": "mps3",
                   "f_eff": "Nps", "f_eff_hat": "Nps", "e_x": "m", "e_v": "mps",
                   "e_w": "mps2"}
_PAIR_UNITS = {"eps": "m", "xtilde": "m", "vtilde": "mps", "qtilde": "mps"}
_PLANT_FIELDS = ("plant_x", "plant_v", "plant_tau")
_PLANT_UNITS = {"plant_x": "m", "plant_v": "mps", "plant_tau": "N"}


def column_names(carriage_labels, n_trains, plant=False):
    """Record columns in file order.

    ``t_s``, then every carriage's fields, every train pair's, and with
    ``plant`` every carriage's plant-side fields.
    """
    return ["t_s"] + [f"{f}_{units[f]}_{owner}"
                      for fields, units, owners in _blocks(carriage_labels, n_trains, plant)
                      for owner in owners for f in fields]


def _blocks(carriage_labels, n_trains, plant):
    """``(fields, units, owner suffixes)`` of each block of columns after ``t_s``."""
    carriages = [f"{i}_{j}" for i, j in carriage_labels]
    blocks = [(_CARRIAGE_FIELDS, _CARRIAGE_UNITS, carriages),
              (_PAIR_FIELDS, _PAIR_UNITS, [str(p) for p in range(1, n_trains + 1)])]
    if plant:
        blocks.append((_PLANT_FIELDS, _PLANT_UNITS, carriages))
    return blocks


@dataclass
class SimulationRecord:
    """Sampled time series of one run (fixed stride, monotone time column).

    The samples are held once, in ``table``: one row per sample and one
    column per name of :meth:`column_names`.  ``t`` and every
    ``data[field]`` ((n_samples, nc) or (n_samples, n_trains)) are strided
    views into it.
    """

    table: np.ndarray
    carriage_labels: tuple            # (i, j) per carriage, chain order
    n_trains: int
    step: float
    stride: int
    plant: bool = False               # plant-side columns follow the pair columns
    t: np.ndarray = field(init=False, repr=False)
    data: dict = field(init=False, repr=False)  # field -> view into table

    def __post_init__(self):
        width = len(self.column_names())
        if self.table.ndim != 2 or self.table.shape[1] != width:
            raise ValueError(f"record table of shape {self.table.shape} needs {width} columns")
        self.t = self.table[:, 0]
        self.data = {}
        start = 1
        for fields, _, owners in _blocks(self.carriage_labels, self.n_trains, self.plant):
            stop = start + len(fields) * len(owners)
            for k, f in enumerate(fields):
                self.data[f] = self.table[:, start + k:stop:len(fields)]
            start = stop

    @classmethod
    def allocate(cls, n_samples, carriage_labels, n_trains, step, stride, plant=False):
        """A record of ``n_samples`` rows whose table is allocated but not filled."""
        labels = tuple(carriage_labels)
        width = len(column_names(labels, n_trains, plant))
        return cls(np.empty((n_samples, width)), labels, n_trains, step, stride, plant)

    def column_names(self):
        return column_names(self.carriage_labels, self.n_trains, self.plant)


@dataclass
class SummaryReport:
    """Verdicts and aggregate statistics, all re-derivable from the record."""

    verdicts: dict
    pair_extrema: dict
    barrier_margins: dict
    tail_stats: dict
    hard_bound_events: list
    saturation_events: list
    saturation_counts: dict
    observer_settling: dict
    tolerances: dict
    tail_window: float
    qtilde_within_bounds: bool
    config_hash: str = ""
    seed: Optional[int] = None

    @property
    def all_pass(self):
        return bool(self.verdicts["R1"] and self.verdicts["R2"] and self.verdicts["R3"])

    def to_dict(self):
        return {
            "verdicts": dict(self.verdicts, all=self.all_pass),
            "pair_extrema": self.pair_extrema,
            "barrier_margins": self.barrier_margins,
            "tail_stats": self.tail_stats,
            "hard_bound_events": self.hard_bound_events,
            "saturation_events": self.saturation_events,
            "saturation_counts": self.saturation_counts,
            "observer_settling": self.observer_settling,
            "tolerances": self.tolerances,
            "tail_window_s": self.tail_window,
            "qtilde_within_bounds": self.qtilde_within_bounds,
            "config_hash": self.config_hash,
            "seed": self.seed,
        }


def _barrier_margin(smallest, largest, upper, lower):
    """Least ``min(upper - e, e + lower) / (upper + lower)`` over samples, from their extrema."""
    return min(upper - largest, smallest + lower) / (upper + lower)


def monitor_requirements(record, constraints, ell1, d_p, monitor,
                         saturation_events=(), saturation_counts=None, seed=None):
    """Evaluate the three control requirements against a finished record.

    Hard bounds are checked at every sample; convergence is judged by mean
    absolute errors over the trailing ``monitor.tail_window`` seconds.  The
    combined-error bounds are reported as a diagnostic alongside, and so is
    each pair's barrier margin: the least distance of its gap error to
    (-rho2, rho1) and of its combined error to (-varrho2, varrho1) over the
    samples, as a fraction of the interval's width (negative once outside).
    ``saturation_events`` and ``saturation_counts`` (pair -> quantity ->
    count, first and last time) are the engine's barrier clamps, passed
    through.
    """
    t = record.t
    nt = record.n_trains
    rho1, rho2 = constraints.rho1, constraints.rho2
    varrho1, varrho2 = constraints.varrho(ell1)
    xt = record.data["xtilde"]
    vt = record.data["vtilde"]
    qt = record.data["qtilde"]

    events = []
    for p in range(nt):
        for quantity, series, lo, hi in (
                ("xtilde", xt[:, p], -rho2, rho1),
                ("vtilde", vt[:, p], -constraints.sigma2, constraints.sigma1)):
            bad = np.flatnonzero((series <= lo) | (series >= hi))
            for k in bad[:EVENTS_KEPT]:
                events.append({"t": float(t[k]), "pair": p + 1, "quantity": quantity,
                               "value": float(series[k]), "low": lo, "high": hi})
    r2_hard = not any(e["quantity"] == "xtilde" for e in events)
    r3_hard = not any(e["quantity"] == "vtilde" for e in events)
    qtilde_ok = bool(np.all((qt > -varrho2) & (qt < varrho1)))

    tail = t >= (t[-1] - monitor.tail_window)
    pair_extrema, barrier_margins = {}, {}
    xt_tail, vt_tail = {}, {}
    for p in range(nt):
        ext = pair_extrema[p + 1] = {
            "xtilde_min": float(xt[:, p].min()), "xtilde_max": float(xt[:, p].max()),
            "vtilde_min": float(vt[:, p].min()), "vtilde_max": float(vt[:, p].max()),
            "qtilde_min": float(qt[:, p].min()), "qtilde_max": float(qt[:, p].max()),
        }
        barrier_margins[p + 1] = {
            "xtilde": _barrier_margin(ext["xtilde_min"], ext["xtilde_max"], rho1, rho2),
            "qtilde": _barrier_margin(ext["qtilde_min"], ext["qtilde_max"],
                                      varrho1, varrho2),
        }
        xt_tail[p + 1] = float(np.mean(np.abs(xt[tail, p])))
        vt_tail[p + 1] = float(np.mean(np.abs(vt[tail, p])))

    # intra-train gaps between adjacent carriages
    x = record.data["x"]
    v = record.data["v"]
    labels = record.carriage_labels
    gap_tail, vgap_tail = {}, {}
    for c in range(1, len(labels)):
        i, j = labels[c]
        if labels[c - 1][0] != i:
            continue
        gap = x[:, c - 1] - x[:, c]
        vgap = v[:, c - 1] - v[:, c]
        gap_tail[f"{i}_{j}"] = float(np.mean(np.abs(gap[tail] - d_p)))
        vgap_tail[f"{i}_{j}"] = float(np.mean(np.abs(vgap[tail])))

    r1 = (max(gap_tail.values()) < monitor.tol_gap_mean
          and max(vgap_tail.values()) < monitor.tol_vgap_mean)
    r2 = r2_hard and max(xt_tail.values()) < monitor.tol_xtilde_mean
    r3 = r3_hard and max(vt_tail.values()) < monitor.tol_vtilde_mean

    e_w = record.data["e_w"]
    ef_err = record.data["f_eff"] - record.data["f_eff_hat"]
    settling = {}
    for c, (i, j) in enumerate(labels):
        settling[f"{i}_{j}"] = {
            "tail_max_e_w": float(np.max(np.abs(e_w[tail, c]))),
            "tail_max_f_eff_err": float(np.max(np.abs(ef_err[tail, c]))),
        }

    return SummaryReport(
        verdicts={"R1": bool(r1), "R2": bool(r2), "R3": bool(r3),
                  "R2_hard": bool(r2_hard), "R3_hard": bool(r3_hard)},
        pair_extrema=pair_extrema,
        barrier_margins=barrier_margins,
        tail_stats={"xtilde_mean_abs": xt_tail, "vtilde_mean_abs": vt_tail,
                    "gap_err_mean_abs": gap_tail, "vgap_mean_abs": vgap_tail},
        hard_bound_events=events,
        saturation_events=list(saturation_events),
        saturation_counts=dict(saturation_counts or {}),
        observer_settling=settling,
        tolerances={"xtilde_mean": monitor.tol_xtilde_mean,
                    "vtilde_mean": monitor.tol_vtilde_mean,
                    "gap_mean": monitor.tol_gap_mean,
                    "vgap_mean": monitor.tol_vgap_mean},
        tail_window=monitor.tail_window,
        qtilde_within_bounds=qtilde_ok,
        seed=seed,
    )


def fault_interval_errors(record, config, min_length=100.0, last=10.0):
    """Observer accuracy over the tail of every long fault-transition-free interval.

    For each carriage, splits [0, T] at its fault-window edges and, for every
    maximal interval at least ``min_length`` long, reports the maxima of
    |e_w| and |E.f - E.f_hat| over the final ``last`` seconds (excluding the
    switching instant itself).
    """
    t = record.t
    horizon = float(t[-1])
    e_w = record.data["e_w"]
    ef_err = np.abs(record.data["f_eff"] - record.data["f_eff_hat"])
    ef = np.abs(record.data["f_eff"])
    out = []
    for c, (i, j) in enumerate(record.carriage_labels):
        model = snap_windows(config.carriages[c].fault, config.step)
        edges = [0.0] + transition_times(model, horizon) + [horizon]
        for lo, hi in zip(edges[:-1], edges[1:]):
            if hi - lo < min_length:
                continue
            if hi < horizon:
                mask = (t >= hi - last) & (t < hi)  # stop short of the switch
            else:
                mask = t >= hi - last
            out.append({
                "carriage": (i, j), "interval": (lo, hi),
                "max_e_w": float(np.max(np.abs(e_w[mask, c]))),
                "max_f_eff_err": float(np.max(ef_err[mask, c])),
                "max_f_eff": float(np.max(ef[mask, c])),
            })
    return out


# ---------------------------------------------------------------------------
# scenario driver
# ---------------------------------------------------------------------------

def run_scenario(config):
    """Integrate one scenario and evaluate the requirements.

    Validates the configuration, integrates the closed loop over the full
    horizon with the per-step disturbance held across stages, records every
    ``record_stride``-th step plus the final state, and returns the record
    together with the monitored summary.
    """
    require_feasible(config)
    engine = _ClosedLoop(config)
    h = config.step
    n_steps = int(round(config.duration / h))
    stride = config.record_stride
    sample_steps = list(range(0, n_steps, stride))
    if not sample_steps or sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    n_samples = len(sample_steps)

    nc = engine.nc
    record = SimulationRecord.allocate(
        n_samples, config.topology.carriage_ids(), engine.n_trains, h, stride,
        plant=engine.has_plant and not engine.measure_from_plant)
    t_out, data = record.t, record.data

    noise_on = config.noise.enabled and config.noise.variance > 0.0
    if noise_on:
        rng = np.random.default_rng(config.noise.seed)
    y = engine.initial_state()
    sample_pos = 0
    for step_i in range(n_steps + 1):
        t = step_i * h
        if noise_on:
            engine.delta = inject_disturbance(rng, config.noise.variance, nc)
        take_sample = sample_pos < n_samples and sample_steps[sample_pos] == step_i
        if take_sample or step_i < n_steps:
            k1, diag = engine.evaluate(t, y)
        if take_sample:
            row = engine.sample_row(t, y, diag)
            t_out[sample_pos] = t
            for field_name, values in row.items():
                data[field_name][sample_pos] = values
            sample_pos += 1
        if step_i == n_steps:
            break
        try:
            y = rk4_step(engine.rhs, y, t, h, k1=k1)
        except IntegrationFault as fault:
            raise IntegrationFault(fault.time, labels=fault.labels,
                                   message=f"integration fault at t={t:.6g}s") from fault

    report = monitor_requirements(
        record, config.constraints, config.head_gains.ell1, config.coupler.spacing,
        config.monitor, saturation_events=engine.violations,
        saturation_counts=engine.saturations,
        seed=config.noise.seed if noise_on else None)
    return record, report
