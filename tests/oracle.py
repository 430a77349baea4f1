"""Per-carriage reference forms of the model, the observer and the head law.

The package integrates the whole network in operator form
(``platoonsim.simulator._ClosedLoop``).  This module writes the same
equations the way the paper does, one carriage at a time, with one function
per formula: the plant and composite dynamics, the coefficient functions,
the observer's correction inputs and dynamics, the closed linear
estimation-error system and the barrier composite beta1, whose closed-form
partials and closed-loop term are written in the generic form that runs on
floats, arrays and dual numbers alike (the package's per-pair head law runs
on floats only).  The tests hold
the engine to these forms; nothing in the package calls them.

The fault signal of one carriage and the directional derivative on dual
numbers are the tests' references for the engine's windowed fault terms
and for the closed-form partials of the control laws.  The follower law is
written as the paper's backstepping chain alpha1 -> alpha2 -> z errors ->
alpha3, the reference for the package's constant alpha3 weights, and the
pair clamp in its recording form, which reports every clamp it makes.

The observer's derivative rows, term by term, are the reference for the
engine's observer operator, the telescoped stiffness drift b4 for a term of
its plant operator, and the per-sample record row is the reference
for the engine's block-wise derivation of record rows.  The configuration
helpers at the end (train slices, tails, snapped faults, observer gains)
give the tests the chain layout and the per-carriage gains that the engine
keeps only while it builds its operators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from platoonsim.autodiff import Dual, gradient
from platoonsim.controller import _SATURATION_MARGIN, _barrier
from platoonsim.errors import BarrierDomainError, ConfigurationError
from platoonsim.faults import exosystem_matrix, snap_windows
from platoonsim.observer import (ObserverGains, build_augmented_pair, closed_loop_matrix,
                                 synthesize_gains)
from platoonsim.simulator import _CARRIAGE_FIELDS, _PAIR_FIELDS, _block_views, column_names


# ---------------------------------------------------------------------------
# parameter rows and chain indexing
# ---------------------------------------------------------------------------

def fault_input_row(carriage):
    """Row vector E mapping the 3-dim fault state to a force rate (N/s)."""
    f = carriage.fault
    return (f.upsilon, 0.0, f.nu * f.omega)


def fault_accel_row(carriage):
    """Row vector C = E/m mapping the fault state to jerk (m/s^3)."""
    e = fault_input_row(carriage)
    return (e[0] / carriage.mass, e[1] / carriage.mass, e[2] / carriage.mass)


def global_index(topology, i, j):
    """Flat chain-order index of carriage (i, j), 0-based."""
    if not (1 <= i <= topology.train_count):
        raise IndexError(f"train index {i} out of range")
    if not (1 <= j <= topology.carriages_per_train[i - 1]):
        raise IndexError(f"carriage index {j} out of range for train {i}")
    return sum(topology.carriages_per_train[: i - 1]) + (j - 1)


# ---------------------------------------------------------------------------
# fault signal and dual numbers
# ---------------------------------------------------------------------------

def fault_value(t, model):
    """Fault state (3-vector) at time ``t``.

    f1 is the windowed constant; (f2, f3) is the windowed rotation pair with
    f3 = A*cos(omega*t + phase) and f2 = A*sin(omega*t + phase), the unique
    companion that makes the pair satisfy the generator dynamics inside the
    window.  Only f1 and f3 carry force through the input row; f2 exists for
    the generator's internal consistency.
    """
    f1 = model.constant_amp if model.window_const[0] <= t <= model.window_const[1] else 0.0
    if model.window_periodic[0] <= t <= model.window_periodic[1]:
        arg = model.omega * t + model.phase
        f2 = model.periodic_amp * math.sin(arg)
        f3 = model.periodic_amp * math.cos(arg)
    else:
        f2 = 0.0
        f3 = 0.0
    return np.array([f1, f2, f3])


def effective_fault(t, model, mass):
    """Force-rate and jerk contribution of the fault at time ``t``.

    Returns ``(E.f, C.f)`` where E is the fault input row (N/s) and C = E/m
    is its jerk-level counterpart (m/s^3).
    """
    if mass <= 0:
        raise ConfigurationError("mass must be positive")
    f = fault_value(t, model)
    ef = model.upsilon * f[0] + model.nu * model.omega * f[2]
    return ef, ef / mass


def dual_eval(fn, inputs, seed):
    """Value of ``fn`` at ``inputs`` and its directional derivative along ``seed``."""
    inputs = tuple(inputs)
    seed = tuple(seed)
    args = tuple(Dual(v, (s,)) for v, s in zip(inputs, seed))
    out = fn(*args)
    if isinstance(out, Dual):
        return out.value, out.grad[0]
    return out, 0.0


# ---------------------------------------------------------------------------
# per-carriage state records
# ---------------------------------------------------------------------------

@dataclass
class PlantState:
    """Physical state of one carriage: position, velocity, traction force, fault state."""

    x: float
    v: float
    tau: float
    f: np.ndarray  # 3-vector, dimensionless fault amplitudes


@dataclass
class CompositeState:
    """Third-order equivalent state of one carriage: position, velocity, acceleration, fault."""

    x: float
    v: float
    w: float
    f: np.ndarray


class BCoefficients(NamedTuple):
    """Velocity-dependent coefficients of the acceleration dynamics."""

    b1: float  # multiplies own acceleration
    b2: float  # multiplies preceding carriage's acceleration (0 at the head)
    b3: float  # multiplies following carriage's acceleration (0 at the tail)
    b4: float  # stiffness-induced drift from velocity differences


class DCoefficients(NamedTuple):
    """Antiderivatives (in velocity) of the b1/b2/b3 coefficients, used by the observer."""

    d1: float
    d2: float  # 0 at the head
    d3: float  # 0 at the tail


# ---------------------------------------------------------------------------
# algebraic pieces
# ---------------------------------------------------------------------------

def davis_resistance(v, coeffs):
    """Specific resistance c0 + c1*v + c2*v**2 in N/kg."""
    return coeffs.c0 + coeffs.c1 * v + coeffs.c2 * v * v


def coupling_force(j, x_i, v_i, coupler):
    """Coupler force (N) acting on carriage ``j`` of one train.

    Parameters
    ----------
    j : int
        Carriage index within the train, 1-based.
    x_i, v_i : sequence of float
        Positions and velocities of the whole train, head first.
    coupler : CouplerParams

    The head carriage feels only the coupler behind it, the tail only the
    coupler in front, interior carriages both.  With every gap at the nominal
    spacing and equal velocities all three branches vanish.
    """
    m_i = len(x_i)
    if not (1 <= j <= m_i):
        raise IndexError(f"carriage index {j} out of range for train of {m_i}")
    a, b, d_p = coupler.stiffness, coupler.damping, coupler.spacing
    k = j - 1
    if j == 1:
        return a * (x_i[0] - x_i[1] - d_p) + b * (v_i[0] - v_i[1])
    if j == m_i:
        return a * (x_i[k] - x_i[k - 1] + d_p) + b * (v_i[k] - v_i[k - 1])
    return (a * (2.0 * x_i[k] - x_i[k - 1] - x_i[k + 1])
            + b * (2.0 * v_i[k] - v_i[k - 1] - v_i[k + 1]))


def b1_coefficient(v, j, m_i, carriage, coupler, davis):
    """Coefficient of the carriage's own acceleration in its jerk dynamics (1/s)."""
    if not (1 <= j <= m_i):
        raise IndexError(f"carriage index {j} out of range for train of {m_i}")
    b_over_m = coupler.damping / carriage.mass
    if 1 < j < m_i:
        b_over_m *= 2.0
    return -b_over_m - (davis.c1 + 2.0 * davis.c2 * v) - carriage.actuator_rate


def coefficient_b(j, v_i, carriage, coupler, davis):
    """All four acceleration-dynamics coefficients for carriage ``j``.

    ``b1`` is evaluated at the carriage's own velocity, ``b2``/``b3`` are
    constants that vanish at the head/tail respectively, and ``b4`` collects
    the stiffness-scaled velocity differences to the neighbours.
    """
    m_i = len(v_i)
    if not (1 <= j <= m_i):
        raise IndexError(f"carriage index {j} out of range for train of {m_i}")
    b_over_m = coupler.damping / carriage.mass
    a_over_m = coupler.stiffness / carriage.mass
    k = j - 1
    b1 = b1_coefficient(v_i[k], j, m_i, carriage, coupler, davis)
    b2 = 0.0 if j == 1 else b_over_m
    b3 = 0.0 if j == m_i else b_over_m
    if j == 1:
        b4 = -a_over_m * (v_i[0] - v_i[1])
    elif j == m_i:
        b4 = -a_over_m * (v_i[k] - v_i[k - 1])
    else:
        b4 = -a_over_m * (2.0 * v_i[k] - v_i[k - 1] - v_i[k + 1])
    return BCoefficients(b1, b2, b3, b4)


def coefficient_d(j, v, m_i, carriage, coupler, davis):
    """Observer injection potentials evaluated at velocity ``v``.

    These are the velocity antiderivatives of the b1/b2/b3 coefficients
    (d/dv d1 == b1 exactly, including the actuator-rate term), so that
    differences of them reproduce the coefficient nonlinearity in the
    observer's velocity channel.
    """
    if not (1 <= j <= m_i):
        raise IndexError(f"carriage index {j} out of range for train of {m_i}")
    b_over_m = coupler.damping / carriage.mass
    kappa = 2.0 if 1 < j < m_i else 1.0
    d1 = (-(kappa * b_over_m) - davis.c1 - carriage.actuator_rate) * v - davis.c2 * v * v
    d2 = 0.0 if j == 1 else b_over_m * v
    d3 = 0.0 if j == m_i else b_over_m * v
    return DCoefficients(d1, d2, d3)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def plant_rhs(state, j, x_i, v_i, varpi, carriage, coupler, davis):
    """Time derivative of the plant-form state of carriage ``j``.

    ``varpi`` is the designed force rate (N/s) driving the first-order
    actuator; the fault state adds its own force rate through the carriage's
    fault input row and evolves under the autonomous fault generator.
    """
    m = carriage.mass
    coupling = coupling_force(j, x_i, v_i, coupler)
    e_row = np.asarray(fault_input_row(carriage))
    s_mat = exosystem_matrix(carriage.fault.omega)
    dv = (state.tau - coupling - m * davis_resistance(state.v, davis)) / m
    dtau = -carriage.actuator_rate * state.tau + varpi + float(e_row @ state.f)
    return PlantState(x=state.v, v=dv, tau=dtau, f=s_mat @ state.f)


def preliminary_control(u, j, x_i, v_i, carriage, coupler, davis):
    """Force rate (N/s) that turns the plant into a chain of integrators driven by ``u``.

    Cancels the actuator lag acting on the coupler force and the running
    resistance, and removes the stiffness drift term, so that the carriage's
    jerk becomes its damping-coupled acceleration dynamics plus ``u``.
    """
    m = carriage.mass
    r = carriage.actuator_rate
    k = j - 1
    coupling = coupling_force(j, x_i, v_i, coupler)
    b4 = coefficient_b(j, v_i, carriage, coupler, davis).b4
    return m * u + r * coupling + m * r * davis_resistance(v_i[k], davis) - m * b4


def composite_rhs(state, j, m_i, w_prev, w_next, u, carriage, coupler, davis):
    """Time derivative of the composite third-order state of carriage ``j``.

    ``w_prev``/``w_next`` are the neighbouring carriages' accelerations; pass
    ``None`` at the head/tail where the corresponding coefficient is
    structurally zero.
    """
    b1 = b1_coefficient(state.v, j, m_i, carriage, coupler, davis)
    b_over_m = coupler.damping / carriage.mass
    dw = b1 * state.w + u + float(np.dot(fault_accel_row(carriage), state.f))
    if j > 1:
        dw += b_over_m * w_prev
    if j < m_i:
        dw += b_over_m * w_next
    s_mat = exosystem_matrix(carriage.fault.omega)
    return CompositeState(x=state.v, v=state.w, w=dw, f=s_mat @ state.f)


def traction_force(x_i, v_i, w, j, carriage, coupler, davis):
    """Traction/braking force implied by a composite state (inverse of the w definition)."""
    m = carriage.mass
    k = j - 1
    return (m * w + coupling_force(j, x_i, v_i, coupler)
            + m * davis_resistance(v_i[k], davis))


# ---------------------------------------------------------------------------
# per-carriage observer records
# ---------------------------------------------------------------------------

@dataclass
class ObserverState:
    """Estimates of one carriage's position, velocity, acceleration and fault state."""

    x_hat: float
    v_hat: float
    w_hat: float
    f_hat: np.ndarray


@dataclass
class AuxiliaryInputs:
    """Observer correction terms for the four estimate channels."""

    mu1: float
    mu2: float
    mu3: float
    mu4: np.ndarray


# ---------------------------------------------------------------------------
# correction inputs and observer dynamics
# ---------------------------------------------------------------------------

def auxiliary_mu2(j, m_i, v_meas, v_hat, v_prev, vhat_prev, v_next, vhat_next,
                  gains, carriage, coupler, davis):
    """Velocity-channel correction from measured/estimated velocity differences.

    Neighbour arguments may be ``None`` at the head/tail, where the
    corresponding injection potential is structurally zero.
    """
    d_true = coefficient_d(j, v_meas, m_i, carriage, coupler, davis)
    d_hat = coefficient_d(j, v_hat, m_i, carriage, coupler, davis)
    mu2 = d_true.d1 - d_hat.d1 + gains.k2 * (v_hat - v_meas)
    if j > 1:
        mu2 += (coefficient_d(j, v_prev, m_i, carriage, coupler, davis).d2
                - coefficient_d(j, vhat_prev, m_i, carriage, coupler, davis).d2)
    if j < m_i:
        mu2 += (coefficient_d(j, v_next, m_i, carriage, coupler, davis).d3
                - coefficient_d(j, vhat_next, m_i, carriage, coupler, davis).d3)
    return mu2


def auxiliary_inputs(j, m_i, x_meas, v_meas, est, v_prev, vhat_prev, v_next, vhat_next,
                     mu2_prev, mu2_next, gains, carriage, coupler, davis):
    """All four correction terms for carriage ``j``.

    The acceleration-channel term needs the neighbours' velocity-channel
    corrections, so ``mu2_prev``/``mu2_next`` must already be computed for
    this step (two-phase step contract); pass ``None`` at the boundaries.
    """
    e_x = est.x_hat - x_meas
    e_v = est.v_hat - v_meas
    mu1 = -gains.k1 * e_x + (v_meas - est.v_hat)
    mu2 = auxiliary_mu2(j, m_i, v_meas, est.v_hat, v_prev, vhat_prev,
                        v_next, vhat_next, gains, carriage, coupler, davis)
    b1_true = b1_coefficient(v_meas, j, m_i, carriage, coupler, davis)
    b1_hat = b1_coefficient(est.v_hat, j, m_i, carriage, coupler, davis)
    mu3 = b1_true * mu2 + gains.k3 * e_v + (b1_hat - b1_true) * (est.w_hat + mu2)
    b_over_m = coupler.damping / carriage.mass
    if j > 1:
        mu3 += b_over_m * mu2_prev
    if j < m_i:
        mu3 += b_over_m * mu2_next
    mu4 = gains.k4 * e_v
    return AuxiliaryInputs(mu1=mu1, mu2=mu2, mu3=mu3, mu4=mu4)


def observer_rhs(est, aux, u, what_prev, what_next, v_meas, j, m_i,
                 carriage, coupler, davis):
    """Time derivative of the observer state of carriage ``j``.

    Mirrors the composite dynamics on the estimates (the coefficient of the
    own-acceleration term is evaluated at the measured velocity) plus the
    correction inputs; neighbour estimated accelerations may be ``None`` at
    the boundaries.
    """
    b1 = b1_coefficient(v_meas, j, m_i, carriage, coupler, davis)
    b_over_m = coupler.damping / carriage.mass
    dw = b1 * est.w_hat + float(np.dot(fault_accel_row(carriage), est.f_hat)) + u + aux.mu3
    if j > 1:
        dw += b_over_m * what_prev
    if j < m_i:
        dw += b_over_m * what_next
    df = exosystem_matrix(carriage.fault.omega) @ est.f_hat + aux.mu4
    return ObserverState(x_hat=est.v_hat + aux.mu1,
                         v_hat=est.w_hat + aux.mu2,
                         w_hat=dw,
                         f_hat=df)


# ---------------------------------------------------------------------------
# linear error-dynamics oracle
# ---------------------------------------------------------------------------

def linear_error_oracle(e_x0, e_v0, e_w0, e_f0, mu2_0, gains, a, c, horizon, step):
    """Estimation-error trajectories predicted by the closed linear error system.

    Integrates e_x' = -k1*e_x and xi' = (A + K C) xi with the classical
    fixed-step fourth-order scheme, where xi = (e_v, zeta, e_f) and
    zeta(0) = e_w(0) + mu2(0) - k2*e_v(0).  Returns arrays for t, e_x, e_v
    and e_f sampled at every step; valid over intervals free of fault-window
    transitions, during which the nonlinear closed loop produces exactly
    these errors.
    """
    m = closed_loop_matrix(a, c, gains)
    n_steps = int(round(horizon / step))
    zeta0 = e_w0 + mu2_0 - gains.k2 * e_v0
    xi = np.concatenate([[e_v0, zeta0], np.asarray(e_f0, dtype=float).reshape(3)])
    e_x = e_x0
    # one-step growth factor of the scalar position-error channel under RK4
    z = -gains.k1 * step
    ex_factor = 1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0

    t_out = np.empty(n_steps + 1)
    ex_out = np.empty(n_steps + 1)
    ev_out = np.empty(n_steps + 1)
    ef_out = np.empty((n_steps + 1, 3))
    for i in range(n_steps + 1):
        t_out[i] = i * step
        ex_out[i] = e_x
        ev_out[i] = xi[0]
        ef_out[i] = xi[2:5]
        if i == n_steps:
            break
        k1_ = m @ xi
        k2_ = m @ (xi + 0.5 * step * k1_)
        k3_ = m @ (xi + 0.5 * step * k2_)
        k4_ = m @ (xi + step * k3_)
        xi = xi + (step / 6.0) * (k1_ + 2.0 * k2_ + 2.0 * k3_ + k4_)
        e_x *= ex_factor
    return {"t": t_out, "e_x": ex_out, "e_v": ev_out, "e_f": ef_out}


# ---------------------------------------------------------------------------
# follower backstepping chain
# ---------------------------------------------------------------------------

def alpha1(xhat, xhat_prev, vhat_prev, gains, d_p):
    """Virtual velocity command for a follower (affine in its arguments)."""
    z1 = xhat - xhat_prev + d_p
    return vhat_prev - (gains.l1 + 1.0) * z1


def alpha2(xhat, xhat_prev, vhat, vhat_prev, what_prev, gains, d_p):
    """Virtual acceleration command; evaluates on floats, arrays or duals.

    Combines damping on the velocity-command error with the feedforward of
    the command's own partial derivatives and the quadratic compensation
    terms that the stability argument pairs with each of them.
    """
    p_x = -(gains.l1 + 1.0)   # d(alpha1)/d(xhat)
    p_xp = gains.l1 + 1.0     # d(alpha1)/d(xhat_prev)
    p_vp = 1.0                # d(alpha1)/d(vhat_prev)
    z1 = xhat - xhat_prev + d_p
    z2 = vhat - (vhat_prev - (gains.l1 + 1.0) * z1)
    return (-gains.l2 * z2 - z1 - 0.5 * z2
            + p_x * vhat - 0.5 * p_x * p_x * z2
            + p_xp * vhat_prev - 0.5 * p_xp * p_xp * z2
            + p_vp * what_prev - 0.5 * p_vp * p_vp * z2)


@functools.lru_cache(maxsize=None)
def alpha2_partials(gains, d_p):
    """Gradient of alpha2 w.r.t. its five state arguments.

    alpha2 is affine, so the gradient is constant; it is still produced by a
    forward-mode sweep (at the origin) and cached per gain set.
    """
    _, grad = gradient(
        lambda a, b, c, d, e: alpha2(a, b, c, d, e, gains, d_p),
        (0.0, 0.0, 0.0, 0.0, 0.0))
    return grad


def z_errors(xhat, vhat, what, xhat_prev, vhat_prev, what_prev, gains, d_p):
    """Backstepping errors (z1, z2, z3) of a follower."""
    z1 = xhat - xhat_prev + d_p
    a1 = alpha1(xhat, xhat_prev, vhat_prev, gains, d_p)
    z2 = vhat - a1
    a2 = alpha2(xhat, xhat_prev, vhat, vhat_prev, what_prev, gains, d_p)
    z3 = what - a2
    return z1, z2, z3


def alpha3(xhat, vhat, what, xhat_prev, vhat_prev, what_prev,
           xhdot, vhdot, xhdot_prev, vhdot_prev, whdot_prev, gains, d_p):
    """Virtual jerk command for a follower.

    The five ``*dot`` arguments are the observer-state derivatives of this
    carriage and the one ahead (so the command is implementable from
    communicated data; the predecessor's derivative already contains its
    control input).  Evaluates on floats or arrays.  ``whdot_prev`` enters
    with d(alpha2)/d(what_prev) = 1, so a follower chain of these commands
    is a cumulative sum.
    """
    z1, z2, z3 = z_errors(xhat, vhat, what, xhat_prev, vhat_prev, what_prev, gains, d_p)
    p = alpha2_partials(gains, d_p)
    return (-gains.l3 * z3 - z2
            + p[0] * xhdot + p[1] * xhdot_prev
            + p[2] * vhdot + p[3] * vhdot_prev
            + p[4] * whdot_prev)


def follower_control(xhat, vhat, what, xhat_prev, vhat_prev, what_prev, what_next,
                     xhdot, vhdot, xhdot_prev, vhdot_prev, whdot_prev,
                     b1, b2, b3, cf_hat, mu3, gains, d_p):
    """Control input of a non-head carriage, through the backstepping chain.

    Cancels the estimated acceleration coupling (own, preceding and, unless
    this is the tail, following carriage), the estimated fault jerk and the
    observer correction, then applies :func:`alpha3`.  ``what_next`` may be
    ``None`` at the tail where ``b3`` is structurally zero.
    """
    a3 = alpha3(xhat, vhat, what, xhat_prev, vhat_prev, what_prev,
                xhdot, vhdot, xhdot_prev, vhdot_prev, whdot_prev, gains, d_p)
    coupling = b1 * what + b2 * what_prev + cf_hat + mu3
    if what_next is not None:
        coupling += b3 * what_next
    return -coupling + a3


# ---------------------------------------------------------------------------
# head law
# ---------------------------------------------------------------------------

def beta_partials(x_tilde, q_tilde, gains, rho1, rho2, varrho1, varrho2):
    """beta1 and its partials w.r.t. the gap and velocity errors, in closed form.

    Takes the gap error and the combined error q = v + ell1*x; evaluates on
    floats, arrays or duals inside the barrier domain.  With barrier slopes
    Phi(x), Psi(q) and curvatures Phi', Psi':
    d(beta1)/dv = -ell2 - ell3*(Psi^2 + psi*Psi') and
    d(beta1)/dx = -(Phi^2 + phi*Phi') + ell1*d(beta1)/dv.
    """
    phi, big_phi, d_big_phi = _barrier(x_tilde, rho1, rho2)
    psi, big_psi, d_big_psi = _barrier(q_tilde, varrho1, varrho2)
    value = -phi * big_phi - gains.ell2 * q_tilde - gains.ell3 * psi * big_psi
    d_v = -gains.ell2 - gains.ell3 * (big_psi * big_psi + psi * d_big_psi)
    d_x = -(big_phi * big_phi + phi * d_big_phi) + gains.ell1 * d_v
    return value, d_x, d_v


def head_feedback(q_tilde, v_tilde, what_tilde, beta, gains):
    """Closed-loop term of the head law: u = g_front - own + head_feedback(...).

    ``q_tilde`` is the combined error v_tilde + ell1*x_tilde and ``beta``
    is ``(beta1, beta2, d(beta1)/dx, d(beta1)/dv)`` as
    :func:`beta_functions` returns it.  Evaluates on floats or on arrays
    with one entry per train pair.
    """
    _, bt2, pbx, pbv = beta
    # ell1*w + ell1^2*beta2 - pbx*v - pbv*w + pbv^2*beta2 + q - ell4*beta2,
    # with the what_tilde and beta2 terms collected
    return ((gains.ell1 - pbv) * what_tilde
            + (pbv * pbv + (gains.ell1 ** 2 - gains.ell4)) * bt2
            - pbx * v_tilde + q_tilde)


def beta1(x_tilde, v_tilde, gains, rho1, rho2, varrho1, varrho2):
    """Barrier-weighted stabilizing function; evaluates on floats, arrays or duals."""
    q_tilde = v_tilde + gains.ell1 * x_tilde
    return beta_partials(x_tilde, q_tilde, gains, rho1, rho2, varrho1, varrho2)[0]


def clamp_to_domain(value, upper, lower, saturate, record=None):
    """``value`` pulled a margin inside (-lower, upper), reporting the clamp.

    A clamp is reported as ``record(value, low, high)``; without
    ``saturate`` a value outside raises :class:`BarrierDomainError`.
    """
    if -lower < value < upper:
        return value
    if not saturate:
        raise BarrierDomainError(value, -lower, upper)
    if record is not None:
        record(value, -lower, upper)
    if value >= upper:
        return upper - _SATURATION_MARGIN
    return -lower + _SATURATION_MARGIN


def clamp_pair_errors(x_tilde, v_tilde, ell1, rho1, rho2, varrho1, varrho2,
                      saturate=False, record=None):
    """The clamped ``(x_tilde, q_tilde)`` of one train pair, reporting each clamp.

    The gap error is clamped first; the combined error q = v + ell1*x formed
    with it is then clamped to its own interval.  Each clamp is reported as
    ``record(quantity, value, low, high)``.
    """
    rec_x = (lambda v, lo, hi: record("xtilde", v, lo, hi)) if record else None
    rec_q = (lambda v, lo, hi: record("qtilde", v, lo, hi)) if record else None
    xt = clamp_to_domain(x_tilde, rho1, rho2, saturate, rec_x)
    qt = clamp_to_domain(v_tilde + ell1 * xt, varrho1, varrho2, saturate, rec_q)
    return xt, qt


def beta_functions(x_tilde, v_tilde, what_tilde, gains, rho1, rho2,
                   varrho1, varrho2, saturate=False, record=None):
    """beta1, beta2 and the partials of beta1, clamping through :func:`clamp_pair_errors`."""
    xt, qt = clamp_pair_errors(x_tilde, v_tilde, gains.ell1, rho1, rho2,
                               varrho1, varrho2, saturate, record)
    val, d_x, d_v = beta_partials(xt, qt, gains, rho1, rho2, varrho1, varrho2)
    return val, what_tilde + gains.ell1 * v_tilde - val, d_x, d_v


# ---------------------------------------------------------------------------
# the observer block, elementwise
# ---------------------------------------------------------------------------

def observer_rows(engine, y):
    """The observer's derivative rows at state ``y``, term by term.

    The reference for the engine's observer operator: each correction and
    generator term on its own array pass, with
    mu2 = (diag(k2) - T) e_v + c2 e_v (v + vh).  Returns ``(xhdot, vhdot,
    fhdot, own, ef_hat)``: ``fhdot`` holds the rows fh1dot-fh3dot and
    ``own`` is k3 e_v + cf_hat, the observer's part of the estimated jerk.
    """
    nc = engine.nc
    rows = y.reshape(-1, nc)
    est, meas = rows[engine.est_rows], rows[engine.meas_rows]
    vh, wh = est[1], est[2]
    fh = rows[engine.sl["fh1"].start // nc:engine.sl["fh3"].stop // nc]
    err_coef = np.array([-engine.k1g, [engine.c2] * nc])
    mu2_op = np.diag(engine.k2g) - engine.tri
    rotation = np.array([engine.omega, -engine.omega])

    ef_hat = fh[0] * engine.upsilon + fh[2] * engine.nu_omega
    cf_hat = ef_hat / engine.mass
    err = est[:2] - meas
    e_v = err[1]
    neg_k1_e_x, c2_e_v = err_coef * err
    mu2 = mu2_op.dot(e_v) + c2_e_v * (meas[1] + vh)
    xhdot = vh + (neg_k1_e_x - e_v)
    vhdot = wh + mu2
    fhdot = engine.k4g * e_v
    fhdot[1:] += rotation * fh[:0:-1]      # the generator on (fh3, fh2)
    return xhdot, vhdot, fhdot, engine.k3g * e_v + cf_hat, ef_hat


def stiffness_drift(engine, dv):
    """b4 per carriage from the link velocity differences ``dv``, telescoped per train.

    The stiffness-scaled link velocity differences over mass; -mass b4 is the
    plant operator's ``a dv`` weight on tau'.
    """
    return -(engine.a_stiff * dv).dot(engine.telescope) / engine.mass


# ---------------------------------------------------------------------------
# a record row, one sample at a time
# ---------------------------------------------------------------------------

def sample_row(engine, t, y, stage_diag):
    """Every recorded quantity at a sample instant, as one record-table row.

    The per-sample reference for the engine's block derivation: the formula
    the engine ran at every sample before samples were derived a block at a
    time, on a row of its own.  ``stage_diag`` is the evaluation's
    ``(u, ef_true, ef_hat)`` at ``(t, y)``.
    """
    nc, n_trains = engine.nc, engine.n_trains
    row = {name: part.start // nc for name, part in engine.sl.items()}
    plant_columns = engine.has_plant and not engine.measure_from_plant
    labels = tuple(engine.config.topology.carriage_ids())
    sample = np.empty((1, len(column_names(labels, n_trains, plant_columns))))
    sample_blocks = [view[0].T for _, view in _block_views(sample, labels, n_trains,
                                                           plant_columns)]
    rows = y.reshape(-1, nc)
    cols, pairs = np.empty((len(_CARRIAGE_FIELDS), nc)), np.empty((len(_PAIR_FIELDS), n_trains))
    xvw, w, tau = cols[:3], cols[2], cols[3]     # _CARRIAGE_FIELDS order
    meas = rows[engine.meas_rows]
    coupling = engine.coupling_vector(*(meas[:, :-1] - meas[:, 1:]))
    resist = engine.davis.resistance(meas[1])
    if engine.measure_from_plant:
        xvw[:2] = meas
        tau[:] = rows[row["tau"]]
        np.divide(tau - coupling - engine.mass * resist, engine.mass, out=w)
    else:
        xvw[:] = rows[row["x"]:row["w"] + 1:row["v"] - row["x"]]
        np.add(engine.mass * w + coupling, engine.mass * resist, out=tau)
    cols[4][:], cols[5][:], cols[6][:] = stage_diag      # u, f_eff, f_eff_hat
    np.subtract(rows[engine.est_rows], xvw, out=cols[7:])
    # gap and velocity errors (pairs rows: eps, xtilde, vtilde, qtilde);
    # the first pair's front is the virtual lead
    front_head = y[engine.pair_idx[:, [0, 1, 3, 4]].T]
    front_head[0, 0], front_head[1, 0] = engine.time_terms(t)[:2]
    np.subtract(front_head[:2], front_head[2:], out=pairs[::2])
    np.subtract(pairs[0], engine.d_s, out=pairs[1])
    np.add(pairs[2], engine.hgains.ell1 * pairs[1], out=pairs[3])
    sample[0, 0] = t
    sample_blocks[0][:], sample_blocks[1][:] = cols, pairs
    if plant_columns:
        sample_blocks[2][:] = rows[row["xp"]:row["tau"] + 1]
    return sample[0]


# ---------------------------------------------------------------------------
# chain layout of a configuration
# ---------------------------------------------------------------------------

def train_slices(config):
    """``(first, end)`` carriage indices of every train, chain order."""
    out, start = [], 0
    for m_i in config.topology.carriages_per_train:
        out.append((start, start + m_i))
        start += m_i
    return out


def tail_indices(config):
    """Index of every train's last carriage, chain order."""
    return [e - 1 for _, e in train_slices(config)]


def snapped_faults(config):
    """Every carriage's fault model with its windows snapped to the step grid."""
    return [snap_windows(c.fault, config.step) for c in config.carriages]


@functools.lru_cache(maxsize=32)
def observer_gains(config):
    """Every carriage's observer gains, chain order, as the engine builds them.

    The configured override when there is one, else the gains synthesized
    for the carriage's fault row and generator.
    """
    if config.observer_gain_override is not None:
        gains = ObserverGains(k1=config.observer_k1, k=tuple(config.observer_gain_override))
        return (gains,) * len(config.carriages)
    pairs = (build_augmented_pair(fault_accel_row(c), exosystem_matrix(c.fault.omega))
             for c in config.carriages)
    return tuple(synthesize_gains(a, c, config.observer_eigenvalues, k1=config.observer_k1)
                 for a, c in pairs)
