"""Scenario configuration, its feasibility gate, fixed-step simulation and monitoring.

A :class:`ScenarioConfig`'s file format is one table, ``_FORMAT``, which
gives every numeric field its domain.  The codec and the feasibility gate
(:func:`validate_config`) follow it: the gate checks domains, then relations
between fields, then places the observer gains as the engine does.

One scenario integrates the whole railway network (true carriage dynamics,
per-carriage observers and the distributed control laws) with the classical
fourth-order fixed-step scheme, deterministically: the same configuration
and seed always produce bit-identical output.

Within every derivative evaluation the computation order is fixed by the
data dependencies of the control laws.  Each term that couples neighbouring
carriages is one product with a constant matrix: the tridiagonal operator T
(own-acceleration coefficient on the diagonal, damping weights of the
carriages ahead and behind beside it, zero across train boundaries), with
B(v) a = T a - 2 c2 v a, and a telescoping matrix that sums the coupler
links per carriage.

1. the time-only terms (reference and true fault force rate), worked out
   for a block of steps at once at the exact stage times;
2. the observer, which does not depend on the control input: one product
   of a constant operator with its own inputs (vh, wh, the fault estimate
   rows and the output errors e_x, e_v) gives xhdot, the fault-estimate
   derivatives, k3 e_v + the estimated fault jerk, the estimated fault
   force rate, and vhdot = wh + mu2 but for mu2's one nonlinear term,
   added after: mu2 = (diag(k2) - T) e_v + c2 e_v (v + vh);
3. B on the composite (v, w) and estimated (vh, vhdot) channels at once:
   the estimated jerk without input, which every law cancels, is
   B(vh) vhdot + k3 e_v + the estimated fault jerk;
4. the control inputs: every follower's increment is alpha3's five
   constant weights applied to its differences to the predecessor, in one
   array pass; every head's is the barrier law, run per train pair on
   floats (a pair outside the barrier domain is clamped or aborts, in pair
   order);
5. the state derivatives.  The plant's are one product of a constant
   operator with the link differences (dx, dv) of position and velocity,
   carriage ahead minus carriage behind, and the plant's own (vp, tau):
   the coupler forces, the linear running resistance, the actuator lag and
   the cancelled stiffness drift.  Added to it are a constant (c0 and the
   coupler's -a d_p link offset), the Davis quadratic c2 vp**2 (on vp', and
   scaled by mass * rate on tau') and the input term
   mass (u + delta) + the true fault force rate on tau'.  The operator
   weighs no position: positions grow to about 2e5 m over a run, and a
   weight on each would lose the coupler force to cancellation.

Each follower needs the preceding carriage's estimated-acceleration
derivative and each head the front tail's.  Both laws cancel the carriage's
own coupling terms, and a follower's command depends on its predecessor's
derivative with unit weight, so over the whole network, in chain order,
these derivatives are the lead's jerk plus a cumulative sum of the
per-carriage increments; no law needs another's output within an
evaluation.

The state is a stack of blocks of one entry per carriage, in chain order:
the composite ``x, xh, v, vh, w, wh`` (or the estimates ``xh, vh, wh``
alone), the fault estimate's rows ``fh1, fh2, fh3``, then the plant's
``xp, vp, tau``.  It therefore reshapes to rows of one carriage each.

An engine evaluates in buffers of its own: it copies the state passed in
into its state buffer (unless it is that buffer), and works on views of
that buffer, of its derivative buffer and of a few scratch arrays, all
built once with the engine; the observer's inputs are gathered into one
scratch vector and its product lands in another.  ``rhs`` hands over the
derivative buffer itself, which the next evaluation overwrites, as it does
the observer's product and so the estimated fault force rate ``_ef_hat``;
:func:`rk4_step` consumes each stage's derivative as it arrives, before
asking for the next, and forms the stage states in the engine's state
buffer.  One engine is not re-entrant: it serves one evaluation at a time.

A sample is not derived when it is taken: the engine keeps the raw sample
(time, state, the evaluation's control and fault arrays, the lead's
position and velocity), and one vectorised pass turns each block of
``_SAMPLE_BLOCK`` samples, and the last partial one, into record rows.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import controller as ctrl
from . import observer as obs
from .controller import ConstraintSpec, FollowerGains, HeadGains, TrainPairErrors
from .errors import ConfigurationError, IntegrationFault, PlacementError, Violation
from .faults import FaultModel, exosystem_matrix, snap_windows, transition_times
from .model import (CarriageParams, ConsistTopology, CouplerParams,
                    DavisCoefficients)
from .reference import ReferencePhase, ReferenceProfile

REPRESENTATIONS = ("composite", "plant", "both")
CONTROL_LAWS = ("designed", "zero")
_BLOCK_STEPS = 16    # steps whose time-only terms and disturbance are worked out at once
_SAMPLE_BLOCK = 8    # samples kept raw and derived into record rows at once
EVENTS_KEPT = 100    # events kept per (pair, quantity); the rest are only counted
# a run's steps, duration / step, are a whole number to a relative STEPS_RTOL,
# which stays under a tenth of a step up to MAX_STEPS
STEPS_RTOL, MAX_STEPS = 1e-9, 10 ** 8
_TWO = np.array(2.0)  # the RK4 stage weight, as a 0-d array operand


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


# Scalar kinds: the Python types json parses a value into, and the domain, which NaN
# fails; a finite number given through the Python API may be complex (eigenvalues).
_FIN, _POS, _NONNEG = "a finite number", "a number > 0", "a number >= 0"
_COUNT, _COUNT1, _B, _S = "an integer >= 0", "an integer >= 1", "true or false", "a string"
_KINDS = {
    _FIN: ((int, float), lambda x: isinstance(x, numbers.Number) and cmath.isfinite(x)),
    _POS: ((int, float), lambda x: isinstance(x, numbers.Real) and 0 < x < math.inf),
    _NONNEG: ((int, float), lambda x: isinstance(x, numbers.Real) and 0 <= x < math.inf),
    _COUNT: ((int,), lambda x: isinstance(x, numbers.Integral) and x >= 0),
    _COUNT1: ((int,), lambda x: isinstance(x, numbers.Integral) and x >= 1),
    _B: ((bool,), lambda x: isinstance(x, bool)),
    _S: ((str,), lambda x: isinstance(x, str)),
}
_REQUIRED = object()

# The scenario file format: per record type, each field's (JSON key,
# attribute, kind[, default]).  A kind is a scalar kind, a record type of
# this table (a JSON object) or [kind] (a JSON array of it, a tuple in the
# record).  A dotted key puts the field into a JSON object of its own.  A
# field with a default may be left out, and one whose default is None may be
# null.  "state" and "estimate" are tuple rows: their attributes are
# positions, and an array field fills the rest of the row.  The gain
# inequalities and the other relations between fields are checked by
# :func:`validate_config`, and by the records themselves.
_FORMAT = {
    ConsistTopology: (("carriages_per_train", "carriages_per_train", [_COUNT1]),),
    DavisCoefficients: (("c0_N_per_kg", "c0", _NONNEG), ("c1_Ns_per_m_kg", "c1", _NONNEG),
                        ("c2_Ns2_per_m2_kg", "c2", _NONNEG)),
    CouplerParams: (("stiffness_N_per_m", "stiffness", _POS),
                    ("damping_Ns_per_m", "damping", _POS), ("spacing_m", "spacing", _POS)),
    FaultModel: (("omega_rad_per_s", "omega", _NONNEG), ("upsilon_Nps_per_unit", "upsilon", _FIN),
                 ("nu_s_per_rad", "nu", _FIN), ("constant_amp", "constant_amp", _FIN),
                 ("periodic_amp", "periodic_amp", _FIN), ("phase_rad", "phase", _FIN),
                 ("window_const_s", "window_const", [_FIN]),
                 ("window_periodic_s", "window_periodic", [_FIN])),
    CarriageParams: (("mass_kg", "mass", _POS), ("actuator_rate_1_per_s", "actuator_rate", _POS),
                     ("fault", "fault", FaultModel)),
    ConstraintSpec: (("gamma1_m", "gamma1", _FIN), ("gamma2_m", "gamma2", _FIN),
                     ("service_distance_m", "d_s", _FIN), ("sigma1_mps", "sigma1", _POS),
                     ("sigma2_mps", "sigma2", _POS)),
    FollowerGains: (("l1", "l1", _FIN), ("l2", "l2", _FIN), ("l3", "l3", _FIN)),
    HeadGains: (("ell1", "ell1", _FIN), ("ell2", "ell2", _FIN), ("ell3", "ell3", _FIN),
                ("ell4", "ell4", _FIN)),
    ReferencePhase: (("duration_s", "duration", _POS), ("jerk_mps3", "jerk", _FIN)),
    ReferenceProfile: (("x0_m", "x0", _FIN), ("v0_mps", "v0", _FIN), ("w0_mps2", "w0", _FIN),
                       ("v_max_mps", "v_max", _FIN), ("phases", "phases", [ReferencePhase])),
    "state": (("x_m", 0, _FIN), ("v_mps", 1, _FIN), ("w_mps2", 2, _FIN)),
    "estimate": (("x_hat_m", 0, _FIN), ("v_hat_mps", 1, _FIN), ("w_hat_mps2", 2, _FIN),
                 ("f_hat", slice(3, None), [_FIN])),
    NoiseSpec: (("enabled", "enabled", _B), ("variance", "variance", _NONNEG),
                ("seed", "seed", _COUNT)),
    MonitorSpec: (("tail_window_s", "tail_window", _NONNEG),
                  ("tol_xtilde_mean_m", "tol_xtilde_mean", _POS),
                  ("tol_vtilde_mean_mps", "tol_vtilde_mean", _POS),
                  ("tol_gap_mean_m", "tol_gap_mean", _POS),
                  ("tol_vgap_mean_mps", "tol_vgap_mean", _POS)),
    ScenarioConfig: (
        ("topology", "topology", ConsistTopology), ("davis", "davis", DavisCoefficients),
        ("coupler", "coupler", CouplerParams), ("carriages", "carriages", [CarriageParams]),
        ("constraints", "constraints", ConstraintSpec),
        ("follower_gains", "follower_gains", FollowerGains),
        ("head_gains", "head_gains", HeadGains),
        ("observer.k1", "observer_k1", _POS),
        ("observer.eigenvalues", "observer_eigenvalues", [_FIN]),
        ("observer.gain_override", "observer_gain_override", [_FIN], None),
        ("reference", "profile", ReferenceProfile),
        ("initial_states", "initial", ["state"]),
        ("observer_initial", "observer_initial", ["estimate"], None),
        ("integration.step_s", "step", _POS), ("integration.duration_s", "duration", _POS),
        ("integration.record_stride", "record_stride", _COUNT1, 1),
        ("noise", "noise", NoiseSpec), ("representation", "representation", _S, "composite"),
        ("monitor", "monitor", MonitorSpec),
        ("abort_on_violation", "abort_on_violation", _B, False),
        ("control_law", "control_law", _S, "designed")),
}


def _encode(value, kind):
    """Plain-JSON form of ``value``, a field of ``kind``."""
    if isinstance(kind, list):
        return None if value is None else [_encode(v, kind[0]) for v in value]
    if kind not in _FORMAT:
        return value
    doc = {}
    for key, attr, sub, *_ in _FORMAT[kind]:
        group, _, key = key.rpartition(".")
        field = value[attr] if isinstance(kind, str) else getattr(value, attr)
        (doc.setdefault(group, {}) if group else doc)[key] = _encode(field, sub)
    return doc


def _domain_violations(value, kind, path, out):
    """``out`` with a :class:`Violation`, named by its path, per field outside its domain.

    ``value`` is a field of ``kind``, walked as :func:`_encode` walks it.
    """
    if isinstance(kind, list):
        for k, item in enumerate(() if value is None else value):
            _domain_violations(item, kind[0], f"{path}[{k}]", out)
    elif kind in _FORMAT:
        for key, attr, sub, *_ in _FORMAT[kind]:
            field = value[attr] if isinstance(kind, str) else getattr(value, attr)
            _domain_violations(field, sub, f"{path}.{key}" if path else key, out)
    elif not _KINDS[kind][1](value):
        out.append(Violation(path, value, kind))
    return out


class _Fields:
    """One JSON object of a scenario file, read one field at a time.

    ``get`` names the field's path (``carriages[2].fault.phase_rad``) in
    every error it raises, checks the JSON type and the domain of the
    field's kind, and marks the key as read; ``unknown`` lists the keys that
    no read asked for.  Numbers are passed through as parsed, so a loaded
    file has the hash of the file's values.
    """

    def __init__(self, doc, path):
        if type(doc) is not dict:
            raise ConfigurationError(f"{path or 'configuration'} must be a JSON object")
        self.doc, self.path, self.read, self.groups = doc, path, set(), {}

    def get(self, key, kind, default=_REQUIRED):
        """Field ``key`` as ``kind`` (a kind of ``_FORMAT``, or "object" for its raw fields).

        A missing field takes ``default``; without one it is an error.
        """
        if key in self.groups:
            return self.groups[key]
        self.read.add(key)
        path = f"{self.path}.{key}" if self.path else key
        if key not in self.doc:
            if default is _REQUIRED:
                raise ConfigurationError(f"missing field {path}")
            return default
        value = self.doc[key]
        if value is None and default is None:
            return None
        value = self._check(value, kind, path)
        if kind == "object":
            self.groups[key] = value
        return value

    def _check(self, value, kind, path):
        if isinstance(kind, list):
            if type(value) is not list:
                raise ConfigurationError(f"field {path} must be an array, got {value!r}")
            return tuple(self._check(v, kind[0], f"{path}[{k}]") for k, v in enumerate(value))
        if kind == "object":
            return _Fields(value, path)
        if kind in _FORMAT:
            return _decode(_Fields(value, path), kind)
        types, in_domain = _KINDS[kind]
        if types == (int,) and type(value) is float and value.is_integer():
            value = int(value)
        # json parses NaN and Infinity as floats, which no domain holds
        if type(value) not in types or not in_domain(value):
            raise ConfigurationError(f"field {path} must be {kind}, got {value!r}")
        return value

    def unknown(self):
        """Paths of the keys, here and in the groups read, that no read asked for."""
        prefix = f"{self.path}." if self.path else ""
        return ([prefix + key for key in self.doc if key not in self.read]
                + [name for group in self.groups.values() for name in group.unknown()])


def _decode(fields, kind):
    """The ``kind`` record (or row) that the JSON object ``fields`` holds."""
    values = []
    for key, attr, sub, *default in _FORMAT[kind]:
        group, _, key = key.rpartition(".")
        owner = fields.get(group, "object") if group else fields
        values.append((attr, owner.get(key, sub, *default)))
    unknown = fields.unknown()
    if unknown:
        raise ConfigurationError("unknown field " + ", ".join(unknown))
    if isinstance(kind, str):
        return tuple(x for attr, v in values
                     for x in (v if isinstance(attr, slice) else (v,)))
    try:
        return kind(**dict(values))
    except (TypeError, ValueError) as exc:    # ConfigurationError included
        raise ConfigurationError(f"{fields.path or 'configuration'}: {exc}") from exc


def config_to_dict(config):
    """Plain-JSON form of a scenario configuration (the format is ``_FORMAT``)."""
    return _encode(config, ScenarioConfig)


def config_from_dict(doc):
    """Inverse of :func:`config_to_dict`, with field-level error reporting.

    Every field is read by its path: numbers must be JSON numbers, integer
    fields integral, flags JSON booleans, each value inside its kind's
    domain, and a key that names no field is an error.
    """
    return _decode(_Fields(doc, ""), ScenarioConfig)


def validate_config(config):
    """All feasibility violations of a scenario (empty list means runnable).

    Three passes, each run only when the one before found nothing: every
    field's domain, as the format table ``_FORMAT`` declares it (a violation
    is named by the field's path, ``carriages[3].mass_kg``); the relations
    between fields (a whole number of steps within the profile's horizon,
    the gain inequalities and strict initial feasibility); and observer gain
    placement, the one the engine runs (:func:`observer_gains`).

    Raises :class:`ConfigurationError` for a scenario that is malformed
    rather than infeasible: an unknown option, or a per-carriage entry of
    the wrong count or length.
    """
    if config.representation not in REPRESENTATIONS:
        raise ConfigurationError(f"unknown representation {config.representation!r}")
    if config.control_law not in CONTROL_LAWS:
        raise ConfigurationError(f"unknown control law {config.control_law!r}")
    nc = config.topology.total_carriages
    # a file's count is any JSON integer: one too long to print is given by its size
    count = f"{nc:,}" if nc < 10 ** 15 else f"about 10^{len(str(nc)) - 1}"
    for key, rows, names in (("carriages", config.carriages, None),
                             ("initial_states", config.initial, ("x", "v", "w")),
                             ("observer_initial", config.observer_initial,
                              ("xh", "vh", "wh", "f1", "f2", "f3"))):
        if rows is None:
            continue
        if len(rows) != nc:
            raise ConfigurationError(f"{key} has {len(rows)} entries, one per carriage, but "
                                     f"topology.carriages_per_train counts {count} carriages")
        bad = [k for k, row in enumerate(rows) if names and np.shape(row) != (len(names),)]
        if bad:
            raise ConfigurationError(
                f"{key}[{bad[0]}] needs {len(names)} values ({', '.join(names)})")
    out = _domain_violations(config, ScenarioConfig, "", [])
    if out:
        return out
    # the run takes round(duration / step) steps
    ratio = config.duration / config.step
    steps = round(ratio) if ratio <= MAX_STEPS else 0
    if not (steps >= 1 and abs(ratio - steps) <= STEPS_RTOL * ratio):
        out.append(Violation(f"duration is a whole number of steps, 1 to {MAX_STEPS:,}",
                             ratio, steps, "integration"))
    end = max(config.duration, steps * config.step)
    if end > config.profile.horizon * (1 + 1e-12):
        out.append(Violation("duration <= profile horizon", end, config.profile.horizon,
                             "reference"))
    out.extend(ctrl.validate_parameters(config.follower_gains, config.head_gains,
                                        config.constraints))
    if not any(v.subject == "head gains" or v.subject == "constraints" for v in out):
        out.extend(ctrl.validate_initial(initial_pair_errors(config),
                                         config.constraints, config.head_gains.ell1))
    if out:
        return out
    labels = list(config.topology.carriage_ids())
    return [Violation(str(placed), False, True, "observer of carriage {}_{}".format(
                *labels[members[0]]))
            for members, placed in observer_gains(config) if isinstance(placed, PlacementError)]


def _observer_pairs(carriages):
    """Each distinct ``(C, omega)`` of the carriages' observers, with the carriages sharing it.

    ``C = (upsilon, 0, nu*omega) / mass`` is the fault row of a carriage's
    augmented observer pair and ``omega`` its generator frequency; carriages
    with the same pair get the same observer gains.
    """
    pairs = {}
    for g, carriage in enumerate(carriages):
        f, mass = carriage.fault, carriage.mass
        key = ((f.upsilon / mass, 0.0 / mass, f.nu * f.omega / mass), f.omega)
        pairs.setdefault(key, []).append(g)
    return pairs


def observer_gains(config):
    """``(members, gains)`` per distinct observer pair, as the gate and the engine place them.

    ``members`` are the chain indices of the carriages sharing the pair, and
    ``gains`` their :class:`~platoonsim.observer.ObserverGains`, or the
    :class:`PlacementError` that placing them raised.
    """
    placed = []
    with np.errstate(all="ignore"):
        for (c_row, omega), members in _observer_pairs(config.carriages).items():
            try:
                if config.observer_gain_override is not None:
                    gains = obs.ObserverGains(k1=config.observer_k1,
                                              k=tuple(config.observer_gain_override))
                else:
                    a, c = obs.build_augmented_pair(c_row, exosystem_matrix(omega))
                    gains = obs.synthesize_gains(a, c, config.observer_eigenvalues,
                                                 k1=config.observer_k1)
            except PlacementError as exc:
                gains = exc
            placed.append((members, gains))
    return placed


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

def rk4_step(rhs, state, t, h, k1=None, labels=None, stage=None):
    """One classical fourth-order step from ``t`` to ``t + h``, as a new array.

    ``k1`` may be supplied when the derivative at ``t`` has already been
    evaluated.  Each derivative is consumed as it arrives: ``k1``,
    ``2*k2``, ``2*k3`` and ``k4`` are summed into one buffer, and each stage
    state is formed in ``stage`` (a new buffer when not given; never
    ``state`` itself), so ``rhs`` may return the same buffer on every call.
    The update is ``state + (h/6)*(k1 + 2*k2 + 2*k3 + k4)``, evaluated in
    that order; ``state`` and ``k1`` are only read.  Raises
    :class:`IntegrationFault` when the update goes non-finite, naming the
    first eight non-finite entries by ``labels`` (one name per state entry;
    ``state[i]`` without).
    """
    if k1 is None:
        k1 = rhs(t, state)
    acc = k1.copy()
    half = 0.5 * h
    half_0d, h_0d = np.array(half), np.array(h)   # a float operand costs 0.2 us more
    stage = np.multiply(k1, half_0d, out=stage)
    np.add(state, stage, out=stage)
    for scale in (half_0d, h_0d):
        k = rhs(t + half, stage)
        np.multiply(k, _TWO, out=stage)
        np.add(acc, stage, out=acc)
        np.multiply(k, scale, out=stage)
        np.add(state, stage, out=stage)
    np.add(acc, rhs(t + h, stage), out=acc)
    np.multiply(acc, np.array(h / 6.0), out=acc)
    out = np.add(state, acc, out=acc)
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out))[:8]
        raise IntegrationFault(t, labels=[f"state[{i}]" if labels is None else labels[i]
                                          for i in bad])
    return out


def inject_disturbance(rng, variance, shape):
    """Gaussian jerk disturbance of ``shape`` (steps, carriages): a row per step.

    Each step's row is held across that step's stages.  A block of rows is
    the same stream as one draw per step.
    """
    return rng.normal(0.0, math.sqrt(variance), size=shape)


# ---------------------------------------------------------------------------
# closed-loop engine
# ---------------------------------------------------------------------------

class _ClosedLoop:
    """Precompiled right-hand side of the full network for one configuration.

    The state stacks blocks of one entry per carriage (``sl`` maps each
    name to its slice); the fault estimate is the three rows ``fh1``,
    ``fh2`` and ``fh3``, and ``k4g`` holds its gains as matching rows.
    ``observer_op`` is the whole observer but one nonlinear term, gains
    and generator included, as one constant matrix on its own inputs.
    :meth:`rhs` copies the state into the engine's state buffer (unless it
    is that buffer), works in its derivative and scratch buffers through
    views built in ``__init__``, and hands over the derivative buffer,
    which the next evaluation overwrites: :func:`rk4_step` consumes each
    stage as it arrives.  The state passed in is never written.
    :meth:`keep_sample` keeps the latest evaluation as a raw sample, and
    :meth:`derive_samples` turns the kept block into record-table rows.  An
    engine is not re-entrant: evaluations on one engine must not overlap.
    """

    def __init__(self, config):
        self.config = config
        topo = config.topology
        self.nc = nc = topo.total_carriages
        self.n_trains = topo.train_count
        davis, coupler = config.davis, config.coupler
        self.d_p = coupler.spacing
        self.d_s = config.constraints.d_s
        self.rho1, self.rho2 = config.constraints.rho1, config.constraints.rho2
        self.vr1, self.vr2 = config.constraints.varrho(config.head_gains.ell1)
        self.fgains, self.hgains = config.follower_gains, config.head_gains
        self.head_constants = ctrl.head_constants(self.hgains, self.rho1, self.rho2,
                                                  self.vr1, self.vr2)
        self.davis, self.c1, self.c2 = davis, davis.c1, davis.c2
        self.a_stiff, self.b_damp = coupler.stiffness, coupler.damping
        self.zero_control = config.control_law == "zero"
        self.saturate = not config.abort_on_violation

        heads = topo.head_indices()
        self.heads = np.array(heads)
        # tail of the train ahead of each head; the first head's entry is a
        # placeholder for the virtual lead
        self.front_tails = np.array([0] + [h - 1 for h in heads[1:]])
        ids = list(topo.carriage_ids())
        j_of = np.array([j for _, j in ids])
        m_of = np.array([topo.carriages_per_train[i - 1] for i, _ in ids])

        self.mass = np.array([c.mass for c in config.carriages])
        self.rate = np.array([c.actuator_rate for c in config.carriages])
        self.mass_rate = self.mass * self.rate
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
        # a 0-d array: a Python float operand costs a ufunc about 0.2 us more
        self.c2_0d, self.two_c2 = np.array(self.c2), np.array(2.0 * self.c2)
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

        gains = [None] * nc
        for members, placed in observer_gains(config):
            if isinstance(placed, PlacementError):
                raise placed
            for g in members:
                gains[g] = placed
        self.k1g = np.array([g.k1 for g in gains])
        self.k2g = np.array([g.k2 for g in gains])
        self.k3g = np.array([g.k3 for g in gains])
        self.k4g = np.array([g.k[2:] for g in gains]).T.copy()     # (3, nc), a row per fh
        self.alpha3_coef = ctrl.alpha3_coefficients(self.fgains)
        # The observer as one constant operator, a (7, nc) x (7, nc) block
        # matrix on its own inputs z = (vh, wh, fh1, fh2, fh3, e_x, e_v): its
        # outputs are xhdot, vhdot less the Davis term c2 e_v (v + vh),
        # fh1dot-fh3dot, k3 e_v + cf_hat and ef_hat.  Neither x, v, w nor a
        # plant entry is an input: a zero weight on a non-finite one would
        # make every output NaN.
        self.observer_op = np.zeros((7 * nc, 7 * nc))
        blocks = self.observer_op.reshape(7, nc, 7, nc)
        for out, z, weights in (
                (0, 0, 1.0), (0, 5, -self.k1g), (0, 6, -1.0),        # vh - k1 e_x - e_v
                (1, 1, 1.0), (1, 6, self.k2g),                       # wh + (diag(k2) - T) e_v
                (2, 6, self.k4g[0]), (3, 6, self.k4g[1]), (4, 6, self.k4g[2]),
                (3, 4, self.omega), (4, 3, -self.omega),             # the generator rotation
                (5, 6, self.k3g), (5, 2, self.upsilon / self.mass),
                (5, 4, self.nu_omega / self.mass),
                (6, 2, self.upsilon), (6, 4, self.nu_omega)):
            blocks[out, ix, z, ix] = weights
        blocks[1, :, 6] -= self.tri

        self.has_composite = has_composite = config.representation in ("composite", "both")
        self.has_plant = has_plant = config.representation in ("plant", "both")
        self.measure_from_plant = config.representation == "plant"
        if has_plant:
            self._build_plant_operator()
        # the composite and estimated channels interleave, so that the
        # velocities (v, vh) lie side by side, and so do their derivatives
        # (w, vhdot), on which B acts with one product
        names = ["x", "xh", "v", "vh", "w", "wh"] if has_composite else ["xh", "vh", "wh"]
        names += ["fh1", "fh2", "fh3"] + (["xp", "vp", "tau"] if has_plant else [])
        self.sl = {name: slice(k * nc, (k + 1) * nc) for k, name in enumerate(names)}
        self.n_states = len(names) * nc
        # the name of every state entry, block and carriage (wh[2_1], fh3[3_2]),
        # for error messages
        self.state_labels = [f"{name}[{i}_{j}]" for name in names
                             for i, j in topo.carriage_ids()]

        # every state block is nc long, so the state reshapes to (rows, nc);
        # the *_rows slices select rows of it
        row = {name: k for k, name in enumerate(names)}
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

        self._build_buffers(row)
        self.delta = np.zeros(nc)      # per-step disturbance, set by the driver
        self.violations = []           # first EVENTS_KEPT saturations per (pair, quantity)
        self.saturations = {}          # pair -> quantity -> count, first and last time
        self._block_first = None       # first step of the stored time-term block
        self._block_rows = {}          # and its stage time -> time_terms tuple map

    def _build_plant_operator(self):
        """The plant derivative but for three terms, as one constant operator (step 5).

        ``plant_op`` maps the link differences ``(dx, dv)`` (position and
        velocity of the carriage ahead minus those of the one behind, per
        link) and the plant's own ``(vp, tau)`` to ``(xp', vp', tau')``.
        Added after it: ``plant_const``, the Davis quadratic vp**2 with
        ``plant_davis``'s weights on vp' and tau', and the input term.
        """
        nc, links = self.nc, self.nc - 1
        a, b, d_p, c0, c1, c2 = (self.a_stiff, self.b_damp, self.d_p,
                                 self.davis.c0, self.c1, self.c2)
        mass, rate, mass_rate = self.mass, self.rate, self.mass_rate
        # per carriage, +1 for the link behind it and -1 for the one ahead
        per_link = self.telescope.T
        ix = np.arange(nc)
        vp, tau = 2 * links + ix, 2 * links + nc + ix
        self.plant_op = np.zeros((3 * nc, 2 * links + 2 * nc))
        d_xp, d_vp, d_tau = self.plant_op.reshape(3, nc, -1)
        d_xp[ix, vp] = 1.0
        # vp' = (tau - coupling) / mass - R(vp), the coupling a (dx - d_p) + b dv
        # per link, telescoped
        d_vp[:, :links] = per_link * (-a / mass)[:, None]
        d_vp[:, links:2 * links] = per_link * (-b / mass)[:, None]
        d_vp[ix, vp], d_vp[ix, tau] = -c1, 1.0 / mass
        # tau' = -rate tau + rate coupling + mass rate R(vp) - mass b4 + input,
        # where -mass b4 is a dv per link, telescoped
        d_tau[:, :links] = per_link * (rate * a)[:, None]
        d_tau[:, links:2 * links] = per_link * (rate * b + a)[:, None]
        d_tau[ix, vp], d_tau[ix, tau] = mass_rate * c1, -rate
        # the coupling is (a dx + b dv) telescoped less this offset
        offset = a * d_p * np.ones(links).dot(self.telescope)
        const = np.zeros((3, nc))
        const[1], const[2] = offset / mass - c0, mass_rate * c0 - rate * offset
        self.plant_const = const.ravel()
        self.plant_davis = np.empty((2, nc))
        self.plant_davis[0], self.plant_davis[1] = -c2, mass_rate * c2

    def _build_buffers(self, row):
        """The state and derivative buffers, the scratch arrays and every view of them.

        ``__init__`` works out the configuration's parameters, gains and
        state layout; this builds, from that layout, the working memory of
        an evaluation and of the sample blocks.  Built once, as a view costs
        about as much as a small array operation.  ``row`` maps each state
        block to its row of the ``(rows, nc)`` state.
        """
        nc, topo = self.nc, self.config.topology
        has_composite, has_plant = self.has_composite, self.has_plant
        self._y = np.empty(self.n_states)
        self._dy = np.empty(self.n_states)
        rows, d_rows = self._y.reshape(-1, nc), self._dy.reshape(-1, nc)
        est, d_est = rows[self.est_rows], d_rows[self.est_rows]
        self._est_pair = est[:2]
        self._est_ahead, self._est_behind = est[:, :-1], est[:, 1:]
        self._vh = est[1]
        self._meas = rows[self.meas_rows]
        self._meas_v = self._meas[1]
        self._y_jerk = self._y[self.jerk]
        self._d_xh, self._d_vh, self._d_wh = d_est
        self._d_pair_ahead, self._d_pair_behind = d_est[:2, :-1], d_est[:2, 1:]
        self._d_fh = d_rows[row["fh1"]:row["fh3"] + 1]
        self._accel = self._dy[self.jerk]
        if has_composite:
            # x' = v and v' = w: composite rows 0 and 2 take rows 2 and 4
            self._vw, self._d_xv = rows[2:5:2], d_rows[0:3:2]
            self._d_w = self._dy[self.sl["w"]]
        if has_plant:
            self._vp = rows[row["vp"]]
            plant_xv = rows[row["xp"]:row["vp"] + 1]
            self._plant_ahead, self._plant_behind = plant_xv[:, :-1], plant_xv[:, 1:]
            # the plant operator's inputs: per link, position and velocity of
            # the carriage ahead minus the one behind, then the state's (vp, tau)
            self._plant_in = np.empty(2 * (nc - 1) + 2 * nc)
            self._links = self._plant_in[:2 * (nc - 1)].reshape(2, nc - 1)
            self._plant_in_vt = self._plant_in[2 * (nc - 1):]
            self._y_vt = self._y[self.sl["vp"].start:self.sl["tau"].stop]
            # the plant block of the derivative: (xp', vp', tau'), and (vp', tau') as rows
            self._d_plant = self._dy[self.sl["xp"].start:self.sl["tau"].stop]
            self._d_plant_vt = self._d_plant[nc:].reshape(2, nc)
            self._d_tau = self._d_plant_vt[1]
            self._vp_sq, self._plant_quad, self._drive = (
                np.empty(nc), np.empty((2, nc)), np.empty(nc))
        # the observer operator's inputs, the state rows (vh, wh, fh1, fh2, fh3)
        # read through their flat indices and then estimate minus measurement
        # (e_x, e_v); and its outputs, the latest evaluation's ef_hat among them
        self._z = np.empty(7 * nc)
        self._z_state, self._err = self._z[:5 * nc], self._z[5 * nc:].reshape(2, nc)
        self._z_idx = (np.array([row[name] for name in ("vh", "wh", "fh1", "fh2", "fh3")])[:, None]
                       * nc + np.arange(nc)).ravel()
        self._e_v = self._err[1]
        self._obs = np.empty(7 * nc)
        obs = self._obs.reshape(7, nc)
        self._obs_xhdot, self._obs_vhdot, self._obs_fhdot, self._obs_own, self._ef_hat = (
            obs[0], obs[1], obs[2:5], obs[5], obs[6])
        self._coupled = np.empty(self.jerk.stop - self.jerk.start)
        self._coupled_w, self._coupled_own = self._coupled[:nc], self._coupled[-nc:]
        # the estimated jerk without input: the zero law's whdot, a new array otherwise
        self._own = self._d_wh if self.zero_control else None
        # u of the latest evaluation; the zero law's u is this one
        self._u = np.zeros(nc)
        # follower differences to the carriage ahead: (x + d_p, v, wh) of the
        # estimates, then (xhdot, vhdot)
        self._diffs = np.empty((5, nc - 1))
        self._diffs_est, self._diffs_gap, self._diffs_d = (
            self._diffs[:3], self._diffs[0], self._diffs[3:])
        self._inc = np.empty(nc)
        self._inc_follow = self._inc[1:]
        # Samples, _SAMPLE_BLOCK at a time: record-table rows, with a (sample,
        # field, owner) view of each column block, into which t, u, f_eff and
        # f_eff_hat are kept as they are, and the raw lead (x0, v0) and state
        # from which derive_samples works out the other columns
        n, k, nt = self.n_states, _SAMPLE_BLOCK, self.n_trains
        plant_columns = has_plant and not self.measure_from_plant
        labels = tuple(topo.carriage_ids())
        self._rows = np.empty((k, len(column_names(labels, nt, plant_columns))))
        cols, pairs, *plant = [view.transpose(0, 2, 1) for _, view in _block_views(
            self._rows, labels, nt, plant_columns)]
        self._n_kept, self._kept_t = 0, self._rows[:, 0]
        self._kept_u, self._kept_ef, self._kept_ef_hat = cols[:, 4], cols[:, 5], cols[:, 6]
        self._cols_xv, self._cols_xvw, self._cols_err = cols[:, :2], cols[:, :3], cols[:, 7:]
        self._cols_w, self._cols_tau, self._pairs_eps_vt = cols[:, 2], cols[:, 3], pairs[:, ::2]
        self._pairs_eps, self._pairs_xt, self._pairs_vt, self._pairs_qt = pairs.transpose(1, 0, 2)
        kept = np.zeros((k, 2 + n))
        self._kept_lead, self._kept_y = kept[:, :2], kept[:, 2:]
        kept_rows = self._kept_y.reshape(k, -1, nc)
        self._kept_meas = meas = kept_rows[:, self.meas_rows]
        self._kept_est, self._kept_meas_v = kept_rows[:, self.est_rows], meas[:, 1]
        self._kept_ahead, self._kept_behind = meas[:, :, :-1], meas[:, :, 1:]
        self._kept_links = np.empty((k, 2, nc - 1))
        self._kept_dx, self._kept_dv = self._kept_links.transpose(1, 0, 2)
        # per train pair, measured (x, v) flat indices at the front and the head, as rows
        self._pair_xv = self.pair_idx[:, [0, 1, 3, 4]].T
        # the state rows that the record takes as they are
        self._kept_tau = kept_rows[:, row["tau"]] if self.measure_from_plant else None
        self._kept_xvw = kept_rows[:, 0:5:2] if has_composite else None      # x, v, w
        self._plant_cols, self._kept_plant = (
            (plant[0], kept_rows[:, row["xp"]:row["tau"] + 1]) if plant_columns else (None, None))

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
        terms = self._block_rows.get(t)
        if terms is None:
            h = self.config.step
            first = math.floor(t / h + 0.25) // _BLOCK_STEPS * _BLOCK_STEPS
            if first != self._block_first:
                horizon = self.config.profile.horizon
                times = list(dict.fromkeys(
                    stage_t for k in range(first, first + _BLOCK_STEPS)
                    for stage_t in (k * h, k * h + 0.5 * h, k * h + h)
                    if 0.0 <= stage_t <= horizon))
                self._block_rows = {stage_t: (*reference, ef, cf) for stage_t, reference, ef, cf
                                    in zip(times, *self._time_terms(times))}
                self._block_first = first
                terms = self._block_rows.get(t)
            if terms is None:
                reference, ef_true, cf_true = self._time_terms([t])
                return (*reference[0], ef_true[0], cf_true[0])
        return terms

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

    def initial_state(self):
        cfg, nc = self.config, self.nc
        x0, v0, w0 = np.array(cfg.initial, dtype=float).T
        if cfg.observer_initial is not None:
            # a (xh, vh, wh, f1, f2, f3) entry per carriage, a row per block here
            xh, vh, wh, *fh = np.asarray(cfg.observer_initial, dtype=float).T
        else:
            # position/velocity are measured, so only the unmeasured channels
            # start with estimation error
            xh, vh, wh = x0.copy(), v0.copy(), np.zeros(nc)
            fh = np.zeros((3, nc))
        y = np.zeros(self.n_states)
        if self.has_composite:
            y[self.sl["x"]], y[self.sl["v"]], y[self.sl["w"]] = x0, v0, w0
        y[self.sl["xh"]], y[self.sl["vh"]], y[self.sl["wh"]] = xh, vh, wh
        y[self.sl["fh1"]], y[self.sl["fh2"]], y[self.sl["fh3"]] = fh
        if self.has_plant:
            y[self.sl["xp"]], y[self.sl["vp"]] = x0, v0
            coupling = self.coupling_vector(x0[:-1] - x0[1:], v0[:-1] - v0[1:])
            resist = self.davis.resistance(v0)
            y[self.sl["tau"]] = self.mass * w0 + coupling + self.mass * resist
        return y

    # -- derivative evaluation ----------------------------------------------

    def rhs(self, t, y):
        """The derivative at ``(t, y)``, in the engine's own derivative buffer.

        The buffer is handed over, not copied: the next evaluation
        overwrites it.  ``y`` is copied into the state buffer unless it is
        that buffer, and is only read.
        """
        if y is not self._y:
            self._y[:] = y
        x0r, v0r, w0r, u0r, ef_true, cf_true = self.time_terms(t)
        if self.has_composite:
            self._d_xv[:] = self._vw        # x' = v, v' = w

        # the observer: one product of its constant operator with its inputs
        # gives xhdot and the fault rows, which go straight into the
        # derivative buffer, and vhdot but for its Davis term c2 e_v (v + vh)
        self._z_state[:] = self._y[self._z_idx]
        np.subtract(self._est_pair, self._meas, out=self._err)
        np.dot(self.observer_op, self._z, out=self._obs)
        self._d_xh[:], self._d_fh[:] = self._obs_xhdot, self._obs_fhdot
        np.add(self._obs_vhdot, self.c2_0d * self._e_v * (self._meas_v + self._vh), out=self._d_vh)

        # B(v) a = T a - 2 c2 v a, at once for the composite channel (v, w)
        # and the estimated one (vh, vhdot).  The estimated jerk without
        # control input, which every control law cancels, is
        # B(vh) vhdot + k3 e_v + cf_hat.
        accel = self._accel
        np.subtract(self.jerk_op.dot(accel), self.two_c2 * self._y_jerk * accel,
                    out=self._coupled)
        own = np.add(self._coupled_own, self._obs_own, out=self._own)
        if not self.zero_control:
            # follower differences to the carriage ahead (a head's entry is
            # replaced by its barrier law)
            diffs, inc = self._diffs, self._inc
            np.subtract(self._est_behind, self._est_ahead, out=self._diffs_est)
            np.add(self._diffs_gap, self.d_p, out=self._diffs_gap)
            np.subtract(self._d_pair_behind, self._d_pair_ahead, out=self._diffs_d)
            np.dot(self.alpha3_coef, diffs, out=self._inc_follow)
            heads = self._head_feedback(t, self._y, x0r, v0r, w0r)
            heads[0] += u0r
            inc[self.heads] = heads
            self._u = np.add.accumulate(inc, out=self._d_wh) - own
        u = self._u

        if self.has_composite:
            np.add(self._coupled_w + cf_true + u, self.delta, out=self._d_w)
        if self.has_plant:
            # the plant operator on (dx, dv, vp, tau), then its constant, the
            # Davis quadratic and the input term
            np.subtract(self._plant_ahead, self._plant_behind, out=self._links)
            self._plant_in_vt[:] = self._y_vt
            d_plant = np.dot(self.plant_op, self._plant_in, out=self._d_plant)
            np.add(d_plant, self.plant_const, out=d_plant)
            vp_sq = np.multiply(self._vp, self._vp, out=self._vp_sq)
            quad = np.multiply(self.plant_davis, vp_sq, out=self._plant_quad)
            np.add(self._d_plant_vt, quad, out=self._d_plant_vt)
            drive = np.add(u, self.delta, out=self._drive)
            np.multiply(self.mass, drive, out=drive)
            np.add(drive, ef_true, out=drive)
            np.add(self._d_tau, drive, out=self._d_tau)
        return self._dy

    def _head_feedback(self, t, y, x0r, v0r, w0r):
        """Closed-loop terms of the head laws, a list with one float per train pair.

        One ``controller.head_pair`` call per pair, on floats.  A pair outside
        the open barrier domain is clamped by ``controller.clamp_pair_errors``
        and each clamp recorded, in pair order, the gap error before the
        combined error; in abort mode the clamp raises
        :class:`BarrierDomainError` instead.
        """
        head_pair, constants = ctrl.head_pair, self.head_constants
        ell1, d_s = self.hgains.ell1, self.d_s
        rho1, rho2, vr1, vr2 = self.rho1, self.rho2, self.vr1, self.vr2
        pairs = y[self.pair_idx].tolist()
        pairs[0][:3] = x0r, v0r, w0r
        out = []
        for pair, (x_f, v_f, w_f, x_h, v_h, w_h) in enumerate(pairs, start=1):
            xt = (x_f - x_h) - d_s
            vt = v_f - v_h
            wt = w_f - w_h
            qt = vt + ell1 * xt
            xc, qc = xt, qt
            if not (-rho2 < xt < rho1 and -vr2 < qt < vr1):
                xc, qc = ctrl.clamp_pair_errors(xt, vt, ell1, rho1, rho2, vr1, vr2,
                                                self.saturate)
                # the combined error is clamped as formed with the clamped gap error
                for kind, value, lo, hi in (("xtilde", xt, -rho2, rho1),
                                            ("qtilde", vt + ell1 * xc, -vr2, vr1)):
                    if not lo < value < hi:
                        self._saturated({"t": t, "pair": pair, "quantity": kind,
                                         "value": value, "low": lo, "high": hi})
            out.append(head_pair(xc, qc, vt, wt, qt, constants)[3])
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

    # -- samples --------------------------------------------------------------

    def keep_sample(self, t):
        """Keep the latest evaluation, at ``t``, as a raw sample; True once the block is full."""
        i, (x0, v0, _, _, ef_true, _) = self._n_kept, self.time_terms(t)
        self._kept_t[i], self._kept_lead[i], self._kept_y[i] = t, (x0, v0), self._y
        self._kept_u[i], self._kept_ef[i], self._kept_ef_hat[i] = self._u, ef_true, self._ef_hat
        self._n_kept = i + 1
        return self._n_kept == _SAMPLE_BLOCK

    def derive_samples(self):
        """The kept samples as record-table rows (the engine's buffer); empties the block.

        One pass over the whole block, of row-invariant operations only:
        elementwise ones, and the product with ``telescope``, whose columns
        hold at most two entries of +-1, which is exact in any summation
        order.  A row is therefore the same whichever block derives it.
        """
        n, self._n_kept = self._n_kept, 0
        w, tau = self._cols_w, self._cols_tau
        np.subtract(self._kept_ahead, self._kept_behind, out=self._kept_links)
        coupling = self.coupling_vector(self._kept_dx, self._kept_dv)
        resist = self.davis.resistance(self._kept_meas_v)
        if self.measure_from_plant:
            self._cols_xv[:], tau[:] = self._kept_meas, self._kept_tau
            np.divide(tau - coupling - self.mass * resist, self.mass, out=w)
        else:
            self._cols_xvw[:] = self._kept_xvw
            np.add(self.mass * w + coupling, self.mass * resist, out=tau)
        np.subtract(self._kept_est, self._cols_xvw, out=self._cols_err)
        # gap and velocity errors (pair rows eps, xtilde, vtilde, qtilde);
        # the first pair's front is the virtual lead
        front_head = self._kept_y[:, self._pair_xv]
        front_head[:, :2, 0] = self._kept_lead
        np.subtract(front_head[:, :2], front_head[:, 2:], out=self._pairs_eps_vt)
        np.subtract(self._pairs_eps, self.d_s, out=self._pairs_xt)
        np.add(self._pairs_vt, self.hgains.ell1 * self._pairs_xt, out=self._pairs_qt)
        if self._kept_plant is not None:
            self._plant_cols[:] = self._kept_plant
        return self._rows[:n]


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


def _block_views(table, carriage_labels, n_trains, plant):
    """Per block of columns after ``t_s``: its fields, and a (row, owner, field) view of it."""
    out, start = [], 1
    for fields, _, owners in _blocks(carriage_labels, n_trains, plant):
        stop = start + len(fields) * len(owners)
        out.append((fields, table[:, start:stop].reshape(len(table), len(owners), len(fields))))
        start = stop
    return out


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
        self.carriage_labels = tuple(self.carriage_labels)   # read more than once below
        width = len(self.column_names())
        if self.table.ndim != 2 or self.table.shape[1] != width:
            raise ValueError(f"record table of shape {self.table.shape} needs {width} columns")
        self.t = self.table[:, 0]
        self.data = {f: view[:, :, k] for fields, view in _block_views(
            self.table, self.carriage_labels, self.n_trains, self.plant)
            for k, f in enumerate(fields)}

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

def _first_clamp(saturations):
    """The earliest barrier clamp of ``saturations`` as a message suffix ("" without one)."""
    clamps = [(seen["first_t"], pair, quantity) for pair, kinds in saturations.items()
              for quantity, seen in kinds.items()]
    if not clamps:
        return ""
    t, pair, quantity = min(clamps, key=lambda clamp: clamp[0])
    return f" (first barrier clamp: pair {pair} {quantity} at t={t:.6g}s)"


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
    # the steps 0, stride, 2*stride, ... below n_steps, then step n_steps
    n_samples = -(-n_steps // stride) + 1

    nc = engine.nc
    record = SimulationRecord.allocate(
        n_samples, config.topology.carriage_ids(), engine.n_trains, h, stride,
        plant=engine.has_plant and not engine.measure_from_plant)

    noise_on = config.noise.enabled and config.noise.variance > 0.0
    if noise_on:
        rng = np.random.default_rng(config.noise.seed)
    # an overflow or invalid value in the engine ends the run through
    # rk4_step's finite check, as a named IntegrationFault
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = engine.initial_state()
        sample_pos = 0
        for step_i in range(n_steps + 1):
            t = step_i * h
            if noise_on:
                block_i = step_i % _BLOCK_STEPS
                if block_i == 0:
                    draws = inject_disturbance(rng, config.noise.variance, (_BLOCK_STEPS, nc))
                engine.delta = draws[block_i]
            k1 = engine.rhs(t, y)
            if step_i % stride == 0 or step_i == n_steps:
                if engine.keep_sample(t):
                    record.table[sample_pos:sample_pos + _SAMPLE_BLOCK] = engine.derive_samples()
                    sample_pos += _SAMPLE_BLOCK
                if step_i == n_steps:
                    break
            try:
                y = rk4_step(engine.rhs, y, t, h, k1=k1, labels=engine.state_labels,
                             stage=engine._y)
            except IntegrationFault as fault:
                raise IntegrationFault(fault.time, labels=fault.labels,
                                       message=f"integration fault at t={t:.6g}s"
                                       + _first_clamp(engine.saturations)) from fault
        record.table[sample_pos:] = engine.derive_samples()

    report = monitor_requirements(
        record, config.constraints, config.head_gains.ell1, config.coupler.spacing,
        config.monitor, saturation_events=engine.violations,
        saturation_counts=engine.saturations,
        seed=config.noise.seed if noise_on else None)
    return record, report
